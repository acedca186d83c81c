import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cipanova
from cipanova.constraints import ConstraintModel, encompassing_of
from cipanova.data import AnovaData, GroupStats, ingest_csv
from cipanova.intrinsic import make_cip, null_fit
from cipanova.scenarios import make_preset, generate_scenario, preset_names
from oracles import exact_class_sums, prepared


def test_rows_are_grouped_and_sized():
    data = AnovaData(responses=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
                     groups=np.array([2, 1, 2, 1, 1]))
    assert data.J == 2
    assert data.n == 5
    assert data.group_sizes == (3, 2)
    assert np.array_equal(data.groups, [1, 1, 1, 2, 2])
    # stable sort keeps within-group input order
    assert np.array_equal(data.responses, [2.0, 4.0, 5.0, 1.0, 3.0])


@pytest.mark.parametrize("seed", range(5))
def test_group_sizes_match_a_count_of_the_codes(seed):
    # unbalanced codes in random order, with singleton groups
    rng = np.random.default_rng(seed)
    J = int(rng.integers(2, 30))
    sizes = rng.integers(1, 50, J)
    sizes[rng.choice(J, 2, replace=False)] = 1
    codes = rng.permutation(np.repeat(np.arange(1, J + 1), sizes))
    data = AnovaData(responses=rng.normal(size=codes.size), groups=codes)
    assert data.group_sizes == tuple(np.bincount(codes, minlength=J + 1)[1:].tolist())


@st.composite
def _grouped_cases(draw):
    """J = 2-8 groups of 1-40, merged into classes, at any offset and scale."""
    J = draw(st.integers(2, 8))
    sizes = draw(st.lists(st.integers(1, 40), min_size=J, max_size=J))
    if draw(st.booleans()):
        sizes[draw(st.integers(0, J - 1))] = 1
    labels = draw(st.lists(st.integers(0, J - 1), min_size=J, max_size=J))
    classes = [[j + 1 for j in range(J) if labels[j] == c] for c in set(labels)]
    spread = draw(st.sampled_from([0.0, 1e8]) | st.floats(1e-3, 1e8))  # in noise sds
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = np.concatenate([m + rng.standard_normal(n) for m, n in zip(spread * rng.random(J), sizes)])
    y = 10.0 ** draw(st.floats(-3, 3)) * z + draw(st.floats(-1e8, 1e8))
    return y, tuple(sizes), ConstraintModel.create(J, classes, [])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_grouped_cases())
def test_group_statistics_match_exact_sums(case):
    # the null fit, SSW and B, read from the group statistics alone, against
    # rational arithmetic on the float responses, rounded once
    y, sizes, model = case
    n = y.size
    theta0 = null_fit(GroupStats.of(y, sizes))
    null_ss, _, (mean,) = exact_class_sums(y, make_cip(ConstraintModel.create(
        len(sizes), [range(1, len(sizes) + 1)], []), sizes), 0.0)
    # the mean may cancel to near 0, so its error is taken against the responses' size
    assert abs(theta0.alpha0 - mean) <= 1e-13 * np.max(np.abs(y))
    assert theta0.sigma0 == pytest.approx(np.sqrt(null_ss / n), rel=1e-13)
    spec = make_cip(encompassing_of(model), sizes)
    ssw, B, _ = exact_class_sums(y, spec, theta0.alpha0)
    prep = prepared(y, theta0, spec)
    assert prep.ssw == pytest.approx(ssw, rel=1e-13, abs=0.0)
    # B alone may cancel to rounding, as on a one-class design; the
    # integrand reads it beside SSW, so its error is taken against SSW + B
    assert abs(prep.B - B) <= 1e-13 * (ssw + B)


def test_container_validation():
    with pytest.raises(ValueError):
        AnovaData(responses=np.array([1.0, 2.0]), groups=np.array([1]))
    with pytest.raises(ValueError):
        AnovaData(responses=np.array([]), groups=np.array([]))
    with pytest.raises(ValueError):
        AnovaData(responses=np.array([1.0, np.nan]), groups=np.array([1, 2]))
    with pytest.raises(ValueError):
        AnovaData(responses=np.array([1.0, 2.0]), groups=np.array([1, 3]))  # gap
    with pytest.raises(ValueError):
        AnovaData(responses=np.array([1.0, 2.0]), groups=np.array([0, 1]))
    with pytest.raises(ValueError):
        AnovaData(responses=np.array([1.0, 2.0]), groups=np.array([1, 2]),
                  group_labels=("a",))


def test_fractional_group_codes_are_refused():
    y = np.arange(6.0)
    for bad in ([1.0, 1.9, 2.2, 2.7, 1.5, 2.0], [1.0, 2.0, np.nan, 1.0, 2.0, 2.0]):
        with pytest.raises(ValueError, match="group codes must be whole numbers"):
            AnovaData(responses=y, groups=bad)
    data = AnovaData(responses=y, groups=[1.0, 2.0, 2.0, 1.0, 1.0, 2.0])
    assert data.group_sizes == (3, 3) and data.groups.dtype.kind == "i"


def test_csv_round_trip(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("group,response\n1,0.5\n2,1.5\n1,-0.5\n2,2.5\n")
    data = ingest_csv(p)
    assert data.J == 2
    assert data.group_labels == ("1", "2")
    assert np.array_equal(data.responses, [0.5, -0.5, 1.5, 2.5])


def test_csv_header_with_spaces_or_byte_order_mark(tmp_path):
    # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
    p = tmp_path / "d.csv"
    for text in ("group , response\n1, 0.5\n2,1.5\n", "\ufeffgroup,response\n1,0.5\n2,1.5\n"):
        p.write_text(text, encoding="utf-8")
        data = ingest_csv(p)
        assert data.group_labels == ("1", "2")
        assert np.array_equal(data.responses, [0.5, 1.5])


def test_csv_recodes_letters(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("group,response\nb,1.0\na,2.0\nb,3.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the coding is in group_labels; the CLI reports it
        data = ingest_csv(p)
    assert data.group_labels == ("a", "b")
    assert data.group_sizes == (1, 2)
    assert np.array_equal(data.responses, [2.0, 1.0, 3.0])


def test_csv_recodes_gapped_codes(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("group,response\n1,1.0\n2,2.0\n4,3.0\n")
    data = ingest_csv(p)
    assert data.J == 3
    assert data.group_labels == ("1", "2", "4")


def test_csv_numeric_label_order(tmp_path):
    # numeric labels sort by value, not lexicographically
    p = tmp_path / "d.csv"
    p.write_text("group,response\n10,1.0\n2,2.0\n10,3.0\n")
    data = ingest_csv(p)
    assert data.group_labels == ("2", "10")
    assert np.array_equal(data.responses, [2.0, 1.0, 3.0])


def test_csv_label_order_does_not_depend_on_the_hash_seed(tmp_path):
    # labels tying as numbers sort by their text; a label that is no finite
    # number sorts every label as text.  Sorting a set by a key with ties or
    # NaN gave a coding that changed with PYTHONHASHSEED.
    tied, with_nan = tmp_path / "tied.csv", tmp_path / "nan.csv"
    tied.write_text("group,response\n2,1.0\n1.0,2.0\n1,3.0\n")
    with_nan.write_text("group,response\nnan,1.0\n3,2.0\n2,3.0\n10,4.0\n")
    env = dict(os.environ)
    src = str(Path(cipanova.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, warnings; from cipanova.data import ingest_csv; "
            "warnings.simplefilter('ignore'); "
            "print([ingest_csv(p).group_labels for p in sys.argv[1:]])")
    codings = set()
    for seed in range(6):
        env["PYTHONHASHSEED"] = str(seed)
        codings.add(subprocess.run([sys.executable, "-c", code, str(tied), str(with_nan)],
                                   env=env, capture_output=True, text=True, timeout=120,
                                   check=True).stdout.strip())
    assert codings == {"[('1', '1.0', '2'), ('10', '2', '3', 'nan')]"}


def test_csv_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("group,response\n1,0.5\n2,oops\n")
    with pytest.raises(ValueError, match="line 3"):
        ingest_csv(p)
    p.write_text("group,response\n1,\n")
    with pytest.raises(ValueError, match="line 2"):
        ingest_csv(p)
    for value in ("nan", "inf", "-Infinity"):
        p.write_text(f"group,response\n1,0.5\n2,{value}\n")
        with pytest.raises(ValueError, match=f"bad.csv: line 3: bad response value '{value}'"):
            ingest_csv(p)
    p.write_text("grp,resp\n1,0.5\n")
    with pytest.raises(ValueError, match="header"):
        ingest_csv(p)
    p.write_text("group,response\n")
    with pytest.raises(ValueError, match="no data rows"):
        ingest_csv(p)
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        ingest_csv(p)


def test_preset_catalogue():
    names = preset_names()
    assert names[:5] == ["pop1", "pop2s", "pop2m", "pop2l", "pop3"]
    assert "pop2m-f25" in names and len(names) == 17
    scenario, models = make_preset("pop3", n_per_group=25, reps=5)
    assert scenario.true_model == "M3"
    assert scenario.sds == (1.55,) * 5
    assert [m.name for m in models] == ["M0", "M2", "M3", "Me"]
    hscenario, hmodels = make_preset("pop2m-f25", n_per_group=50)
    assert hscenario.sds == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert max(hscenario.sds) ** 2 / min(hscenario.sds) ** 2 == 25.0
    assert [m.name for m in hmodels] == ["M0", "M2", "Me"]
    assert hscenario.true_model == "M2"
    null_sc, _ = make_preset("pop1")
    assert null_sc.true_model == "M0"
    with pytest.raises(ValueError):
        make_preset("pop9")
    with pytest.raises(ValueError):
        make_preset("pop2m-f7")


def test_generate_scenario_is_seeded_per_rep():
    scenario, _ = make_preset("pop2l", n_per_group=50, reps=3, base_seed=123)
    a = generate_scenario(scenario, 1)
    b = generate_scenario(scenario, 1)
    c = generate_scenario(scenario, 2)
    assert np.array_equal(a.responses, b.responses)
    assert not np.array_equal(a.responses, c.responses)
    assert a.n == 250 and a.J == 5
    with pytest.raises(ValueError):
        generate_scenario(scenario, 3)


def test_generate_scenario_moments():
    scenario, _ = make_preset("pop3", n_per_group=400, reps=2, base_seed=7)
    data = generate_scenario(scenario, 0)
    for j, (mu, sd) in enumerate(zip(scenario.means, scenario.sds), start=1):
        sample = data.responses[data.groups == j]
        assert abs(sample.mean() - mu) < 4 * sd / np.sqrt(400)
        assert abs(sample.std(ddof=1) - sd) < 4 * sd / np.sqrt(2 * 399)


def test_pop2l_orders_most_replications():
    # at n=50 per group the sample means come out increasing about nine
    # times in ten; check a comfortable lower bound on 200 draws
    scenario, _ = make_preset("pop2l", n_per_group=50, reps=200, base_seed=2024)
    hits = 0
    for r in range(200):
        data = generate_scenario(scenario, r)
        means = [data.responses[data.groups == j].mean() for j in range(1, 6)]
        hits += all(means[j] < means[j + 1] for j in range(4))
    assert hits >= 166
