import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cipanova import evidence, posterior
from cipanova.compare import ComparisonReport, Settings, bf_k0, compare
from cipanova.constraints import encompassing_of, parse_model_spec
from cipanova.data import AnovaData
from cipanova.gaussian import RandomSource
from cipanova.intrinsic import NullParams, estimate_null_params, make_cip
from cipanova.posterior import ConeMass, InsufficientPriorMassError, PosteriorConeMass
from cipanova.scenarios import generate_scenario, make_preset
from oracles import log_marginal_trapezoid

FAST = Settings(prior_draws=20_000)


def _increasing_data(seed=7, n_per_group=10, means=(0.0, 0.7, 1.4)):
    rng = np.random.default_rng(seed)
    y = np.concatenate([rng.normal(m, 1.0, size=n_per_group) for m in means])
    return AnovaData(responses=y, groups=np.repeat([1, 2, 3], n_per_group))


def _models():
    return [
        parse_model_spec("mu1 = mu2 = mu3", J=3, name="M0"),
        parse_model_spec("mu1 < mu2 < mu3", J=3, name="Mup"),
        parse_model_spec("mu1, mu2, mu3", J=3, name="Me"),
    ]


def test_null_breakdown_is_identity():
    data = _increasing_data()
    m0 = parse_model_spec("mu1 = mu2 = mu3", J=3)
    bd = bf_k0(data, [m0], NullParams(0.5, 1.0), FAST)[0]
    assert bd.log_bf_e_vs_0 == 0.0
    assert bd.log_bf_c_vs_e == 0.0
    assert bd.log_bf_c_vs_0 == 0.0
    assert bd.evidence is None and bd.prior_region is None


def test_unordered_model_skips_region_step():
    data = _increasing_data()
    me = parse_model_spec("mu1, mu2, mu3", J=3)
    bd = bf_k0(data, [me], NullParams(0.5, 1.0), FAST)[0]
    assert bd.log_bf_c_vs_e == 0.0
    assert bd.log_bf_c_vs_0 == bd.log_bf_e_vs_0
    assert bd.evidence is not None
    assert bd.prior_region is None and bd.post_region is None


def test_ordered_model_composes_factors():
    data = _increasing_data()
    mup = parse_model_spec("mu1 < mu2 < mu3", J=3)
    bd = bf_k0(data, [mup], NullParams(0.7, 1.2), FAST)[0]
    assert bd.log_bf_c_vs_0 == bd.log_bf_e_vs_0 + bd.log_bf_c_vs_e
    assert type(bd.prior_region) is ConeMass
    assert bd.prior_region.estimate == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert isinstance(bd.post_region, PosteriorConeMass)
    # increasing data: the posterior concentrates on the increasing cone
    assert bd.post_region.estimate > bd.prior_region.estimate
    assert bd.log_bf_c_vs_e > 0.0


def test_bf_k0_rejects_group_mismatch():
    data = _increasing_data()
    with pytest.raises(ValueError):
        bf_k0(data, [parse_model_spec("mu1 < mu2", J=2)], NullParams(0.0, 1.0), FAST)


def test_pmp_matches_hand_normalization():
    data = _increasing_data()
    report = compare(data, _models(), prior_probs=[0.97, 0.01, 0.02],
                     settings=FAST, rng=RandomSource(11))
    w = np.array([0.97, 0.01, 0.02])
    lbf = np.array([bd.log_bf_c_vs_0 for bd in report.breakdowns])
    for k in range(3):
        denom = 1.0 + sum((w[l] / w[k]) * np.exp(lbf[l] - lbf[k])
                          for l in range(3) if l != k)
        assert report.posterior_probs[k] == pytest.approx(1.0 / denom, rel=1e-12)
    assert sum(report.posterior_probs) == pytest.approx(1.0, abs=1e-12)
    assert report.prior_probs == pytest.approx((0.97, 0.01, 0.02))


def test_identical_models_get_identical_pmp():
    # same deterministic evidence path, so the copies must tie exactly
    data = _increasing_data(seed=21)
    pair = [parse_model_spec("mu1, mu2, mu3", J=3, name="a"),
            parse_model_spec("mu1, mu2, mu3", J=3, name="b")]
    report = compare(data, pair, settings=FAST, rng=RandomSource(3))
    assert report.posterior_probs[0] == pytest.approx(report.posterior_probs[1], rel=1e-12)
    assert report.posterior_probs[0] == pytest.approx(0.5, abs=1e-12)


def test_reference_model_selection():
    data = _increasing_data(seed=14)
    with_enc = compare(data, _models(), settings=FAST, rng=RandomSource(4))
    assert with_enc.reference == "Me"
    idx = with_enc.model_names.index("Me")
    assert with_enc.display_bf[idx] == pytest.approx(1.0, rel=1e-12)
    no_enc = compare(data, _models()[:2], settings=FAST, rng=RandomSource(4))
    assert no_enc.reference == "null"
    m0_idx = no_enc.model_names.index("M0")
    assert no_enc.display_bf[m0_idx] == pytest.approx(1.0, rel=1e-12)


def test_below_resolution_flag_on_contradicted_order():
    # steeply decreasing means against the increasing-chain model
    rng = np.random.default_rng(33)
    y = np.concatenate([rng.normal(m, 0.3, size=12) for m in (3.0, 1.5, 0.0)])
    data = AnovaData(responses=y, groups=np.repeat([1, 2, 3], 12))
    mup = parse_model_spec("mu1 < mu2 < mu3", J=3, name="Mup")
    bd = bf_k0(data, [mup], NullParams(1.5, 1.5), FAST)[0]
    assert bd.below_resolution
    assert bd.log_bf_c_vs_0 == -np.inf
    assert bd.resolution_bound is not None and np.isfinite(bd.resolution_bound)
    report = compare(data, [mup, parse_model_spec("mu1, mu2, mu3", J=3, name="Me")],
                     settings=FAST, rng=RandomSource(8))
    assert "posterior mass unresolved" in report.to_text()
    assert sum(report.posterior_probs) == pytest.approx(1.0, abs=1e-12)
    # the record flags the model and keeps its -inf log BF through JSON
    record = report.to_record()
    assert json.loads(json.dumps(record)) == record
    entry = record["models"][0]
    assert entry["name"] == "Mup" and entry["below_resolution"] is True
    assert entry["resolution_bound"] == report.breakdowns[0].resolution_bound
    assert entry["log_bf_c_vs_e"] == -np.inf
    assert entry["post_region"]["estimate"] is None


@st.composite
def _extreme_cases(draw):
    """Three groups of 1-5 units at a spread of 1e-3 to 1e3 and an offset up to 1e6 from 0,
    against a null fit with sigma0 from 1e-9 to 1e3 times the spread."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=3, max_size=3))
    spread = 10.0 ** draw(st.floats(-3.0, 3.0))
    offset = draw(st.sampled_from([0.0, 1.0, -1.0])) * 10.0 ** draw(st.floats(0.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = offset + spread * (rng.standard_normal(sum(sizes)) + np.repeat(rng.normal(size=3), sizes))
    theta0 = NullParams(offset + spread * draw(st.floats(-3.0, 3.0)),
                        spread * 10.0 ** draw(st.floats(-9.0, 3.0)))
    return AnovaData(responses=y, groups=np.repeat([1, 2, 3], sizes)), theta0


def _two_per_group(seed):
    y = np.random.default_rng(seed).normal(size=6)
    return AnovaData(responses=y, groups=np.repeat([1, 2, 3], 2)), NullParams(0.0, 1e-8)


@settings(max_examples=60, deadline=None, derandomize=True)
# sigma0 = 1e-8 against a spread of about 1: the eta mode rounds to 1 (seed
# 2), the unresolved chain's upper bound underflows to 0 (seed 0), and the
# log BFs near 1e16 print too wide for fixed point
@example(_two_per_group(2))
@example(_two_per_group(0))
@given(_extreme_cases())
def test_extreme_scales_answer_or_refuse_with_a_message(case):
    data, theta0 = case
    models = [parse_model_spec("mu1 < mu2 < mu3", J=3, name="up"),
              parse_model_spec("mu3 < {mu1, mu2}", J=3, name="low3"),
              parse_model_spec("mu1 = mu2 = mu3", J=3, name="null"),
              parse_model_spec("mu1, mu2, mu3", J=3, name="free")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = compare(data, models, theta0=theta0)
        except ValueError as err:
            assert str(err)
            return
        text = report.to_text()
    assert abs(sum(report.posterior_probs) - 1.0) <= 1e-12
    for bd, line in zip(report.breakdowns, text.splitlines()[3:]):
        assert not bd.below_resolution or np.isfinite(bd.resolution_bound)
        # the log BF fits its 16-character column, with a space before it
        assert line[14] == " " and line[30] == " "
        assert float(line[14:30]) == pytest.approx(bd.log_bf_c_vs_0, rel=1e-4, abs=1e-4)


def test_every_model_below_resolution_raises():
    # both orders contradict a steep rise, so neither posterior mass resolves
    rng = np.random.default_rng(34)
    y = np.concatenate([rng.normal(m, 0.3, size=12) for m in (0.0, 1.5, 3.0)])
    data = AnovaData(responses=y, groups=np.repeat([1, 2, 3], 12))
    models = [parse_model_spec("mu1 > mu2 > mu3", J=3, name="down"),
              parse_model_spec("mu2 > mu1 > mu3", J=3, name="mixed")]
    with pytest.raises(ValueError, match="no model has a resolved posterior cone mass"):
        compare(data, models, settings=FAST, rng=RandomSource(8))


def test_empty_prior_cone_refuses_before_the_evidence(monkeypatch):
    # the 10-group total order has prior mass 1/10!, so 1000 draws miss it;
    # the refusal must come before the evidence integral of any model is computed
    rng = np.random.default_rng(35)
    data = AnovaData(responses=rng.normal(size=50), groups=np.repeat(np.arange(1, 11), 5))
    free, total = (parse_model_spec(sep.join(f"mu{j}" for j in range(1, 11)), J=10)
                   for sep in (", ", " < "))

    def no_evidence(*args, **kwargs):
        raise AssertionError("evidence computed in a refused call")

    # the evidence, its eta nodes and its mode search all evaluate loglik
    monkeypatch.setattr(evidence.PreparedIntegrand, "loglik", no_evidence)
    with pytest.raises(InsufficientPriorMassError):
        bf_k0(data, [free, total], estimate_null_params(data), Settings(prior_draws=1000))


def test_refused_order_is_counted_once_per_key():
    # the refused order's mass is cached like any other: a second call on the
    # same key raises again without computing it again
    rng = np.random.default_rng(36)
    data = AnovaData(responses=rng.normal(size=50), groups=np.repeat(np.arange(1, 11), 5))
    total = parse_model_spec(" < ".join(f"mu{j}" for j in range(1, 11)), J=10, name="total")
    theta0, settings = estimate_null_params(data), Settings(prior_draws=1001)
    posterior.prior_cone_mass.cache_clear()
    for _ in range(2):
        with pytest.raises(InsufficientPriorMassError,
                           match=r"prior cone mass of total, 2\.76e-07, is below 0\.000999"):
            bf_k0(data, [total], theta0, settings)
    info = posterior.prior_cone_mass.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_report_record_round_trips_through_json():
    data = _increasing_data(seed=5)
    report = compare(data, _models(), settings=FAST, rng=RandomSource(6))
    blob = json.dumps(report.to_record(), sort_keys=True)
    back = json.loads(blob)
    assert back["reference"] == "Me"
    assert len(back["models"]) == 3
    up = next(m for m in back["models"] if m["name"] == "Mup")
    assert up["prior_region"]["estimate"] == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert up["log_bf_c_vs_0"] == pytest.approx(up["log_bf_e_vs_0"] + up["log_bf_c_vs_e"])
    assert "log_bf_se" not in up
    text = report.to_text()
    assert text.splitlines()[0].startswith("null fit:")
    assert "post prob" in text


def test_compare_validates_inputs():
    data = _increasing_data()
    models = _models()
    with pytest.raises(ValueError):
        compare(data, models, prior_probs=[0.5, 0.5], settings=FAST)
    for bad in ([0.5, 0.5, -0.1], [np.nan, 1.0, 1.0], [np.inf, 1.0, 1.0]):
        with pytest.raises(ValueError):
            compare(data, models, prior_probs=bad, settings=FAST)
    dup = [parse_model_spec("mu1, mu2, mu3", J=3, name="x"),
           parse_model_spec("mu1 = mu2 = mu3", J=3, name="x")]
    with pytest.raises(ValueError):
        compare(data, dup, settings=FAST)
    with pytest.raises(TypeError):
        Settings(evidence_method="quadrature")  # quadrature is the only route


def test_theta0_override_is_used():
    data = _increasing_data(seed=16)
    fixed = NullParams(alpha0=0.0, sigma0=2.0)
    report = compare(data, _models(), settings=FAST, rng=RandomSource(7), theta0=fixed)
    assert report.theta0 == fixed
    est = compare(data, _models(), settings=FAST, rng=RandomSource(7))
    assert est.theta0 != fixed


def test_seed_reproducibility():
    data = _increasing_data(seed=18)
    a = compare(data, _models(), settings=FAST, rng=RandomSource(42))
    b = compare(data, _models(), settings=FAST, rng=RandomSource(42))
    assert a.posterior_probs == b.posterior_probs
    assert a.display_bf == b.display_bf
    # the prior cone masses come from one fixed stream, so the seed changes nothing
    c = compare(data, _models(), settings=FAST, rng=RandomSource(43))
    assert a.posterior_probs == c.posterior_probs
    assert a.to_record() == c.to_record()


def _c10_report(seed):
    rng = np.random.default_rng(77)
    y = np.concatenate([rng.normal(m, 1.0, 12) for m in (0.0, 0.6, 1.2)])
    data = AnovaData(responses=y, groups=np.repeat([1, 2, 3], 12))
    models = [parse_model_spec("mu1 = mu2 = mu3", J=3, name="M0"),
              parse_model_spec("mu1 < mu2 < mu3", J=3, name="up"),
              parse_model_spec("mu2 < mu1", J=3, name="rev"),
              parse_model_spec("mu1, mu2, mu3", J=3, name="Me")]
    return compare(data, models, settings=FAST, rng=RandomSource(seed)).to_record()["models"]


def test_exact_cone_masses_across_seeds():
    a, b = _c10_report(10), _c10_report(11)
    # both masses are exact: 1/3! for the chain, 1/2 for any two-class order
    prior = [m.get("prior_region") for m in a]
    assert prior[0] is None and prior[3] is None
    assert prior[1]["estimate"] == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert prior[2]["estimate"] == pytest.approx(0.5, rel=1e-12)
    for region in prior[1:3]:
        assert set(region) == {"estimate", "doubling_error", "grid"}
        assert region["doubling_error"] < 1e-9 and region["grid"] > 0
    # neither mass depends on the seed
    assert a == b
    up = a[1]["post_region"]
    assert set(up) == {"estimate", "doubling_error", "grid", "upper_bound"}
    assert up["doubling_error"] < 1e-9 and up["grid"] > 0


def test_prior_mass_is_counted_once_per_key():
    posterior.prior_cone_mass.cache_clear()
    data = _increasing_data(seed=20)
    first = compare(data, _models(), settings=FAST, rng=RandomSource(1))
    renamed = [parse_model_spec("mu1 < mu2 < mu3", J=3, name="trend"),
               parse_model_spec("mu1, mu2, mu3", J=3, name="free")]
    again = compare(data, renamed, settings=FAST, rng=RandomSource(2))
    assert posterior.prior_cone_mass.cache_info().misses == 1
    assert again.breakdowns[0].prior_region == first.breakdowns[1].prior_region
    # other class sizes make another key; another draw count does not
    compare(_increasing_data(seed=20, n_per_group=11), renamed, settings=FAST)
    compare(data, renamed, settings=Settings(prior_draws=10_000))
    info = posterior.prior_cone_mass.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_answered_record_does_not_depend_on_the_prior_draw_count():
    data = _increasing_data(seed=22)
    records = [compare(data, _models(), settings=Settings(prior_draws=T)).to_record()
               for T in (2_000, 100_000)]
    assert json.dumps(records[0], sort_keys=True) == json.dumps(records[1], sort_keys=True)


def test_prior_draws_set_the_refusal_boundary():
    # the 5-chain's prior mass is 1/120: refused below 120 draws, answered above
    rng = np.random.default_rng(37)
    data = AnovaData(responses=rng.normal(size=50), groups=np.repeat(np.arange(1, 6), 10))
    chain = parse_model_spec("mu1 < mu2 < mu3 < mu4 < mu5", J=5, name="chain")
    theta0 = estimate_null_params(data)
    with pytest.raises(InsufficientPriorMassError, match=r"chain, 0\.00833, is below 0\.0084"):
        bf_k0(data, [chain], theta0, Settings(prior_draws=119))
    bd = bf_k0(data, [chain], theta0, Settings(prior_draws=121))[0]
    assert bd.prior_region.estimate == pytest.approx(1.0 / 120.0, rel=1e-12)
    # the truncation floor, 16 * 1.6e-14, refuses 1/16! = 4.8e-14 at any draw count
    rng = np.random.default_rng(38)
    data = AnovaData(responses=rng.normal(size=64), groups=np.repeat(np.arange(1, 17), 4))
    chain = parse_model_spec(" < ".join(f"mu{j}" for j in range(1, 17)), J=16, name="chain16")
    with pytest.raises(InsufficientPriorMassError,
                       match=r"chain16, 4\.78e-14, is below 2\.56e-13"):
        bf_k0(data, [chain], estimate_null_params(data), Settings(prior_draws=10**15))


def test_breakdown_sum_rule_enforced():
    from cipanova.compare import BfBreakdown
    with pytest.raises(ValueError):
        BfBreakdown(model="m", log_bf_e_vs_0=1.0, log_bf_c_vs_e=2.0, log_bf_c_vs_0=3.5)


def test_settings_reject_non_integer_counts():
    for bad in (1500.5, "5000", True, None):
        with pytest.raises(ValueError, match="prior_draws must be an integer"):
            Settings(prior_draws=bad)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="draw counts must be positive"):
            Settings(prior_draws=bad)
    assert Settings(prior_draws=np.int64(3000)).prior_draws == 3000


def test_retired_chain_settings_change_nothing():
    data = _increasing_data(seed=19)
    a = compare(data, _models(), settings=Settings(mcmc_iters=1500, burnin=300),
                rng=RandomSource(5))
    b = compare(data, _models(), settings=Settings(), rng=RandomSource(5))
    assert a.to_record() == b.to_record()


def test_large_offset_leaves_order_bf_unchanged():
    # spread 1e-3 under a 1e8 offset: sums of squares of the raw data would
    # cancel away every significant digit of the spread
    rng = np.random.default_rng(23)
    y = 1e-3 * np.concatenate([rng.normal(m, 1.0, 20) for m in (0.0, 0.5, 1.0)])
    up = parse_model_spec("mu1 < mu2 < mu3", J=3)
    bds = []
    for shift in (0.0, 1e8):
        data = AnovaData(responses=y + shift, groups=np.repeat([1, 2, 3], 20))
        bds.append(bf_k0(data, [up], estimate_null_params(data), Settings())[0])
    base, moved = bds
    # both masses are exact, so only the data's rounding at the offset, up to
    # 7.5e-9 per value against the 1e-3 spread, moves the log BF (1.7e-7 nat)
    assert abs(moved.log_bf_c_vs_e - base.log_bf_c_vs_e) < 1e-5


def _large_unbalanced(step=0.02, seed=5):
    # J=10, n=20000 with a singleton: the 64-node rule moves by nats when doubled
    rng = np.random.default_rng(seed)
    sizes = (1, 999, 1500, 2000, 2500, 3000, 2500, 2500, 2500, 2500)
    y = np.concatenate([rng.normal(step * j, 1.0, k) for j, k in enumerate(sizes)])
    return AnovaData(responses=y, groups=np.repeat(np.arange(1, 11), sizes))


def _j10_null_and_free():
    return (parse_model_spec(" = ".join(f"mu{j}" for j in range(1, 11)), J=10, name="M0"),
            parse_model_spec(", ".join(f"mu{j}" for j in range(1, 11)), J=10, name="Me"))


def test_text_flags_unconverged_evidence(monkeypatch):
    # a cap of 128 nodes stops the doubling at 64, which the large n outruns
    monkeypatch.setattr(evidence, "MAX_NODES", 128)
    data = _large_unbalanced()
    models = list(_j10_null_and_free())
    report = compare(data, models, settings=FAST, rng=RandomSource(3))
    assert report.breakdowns[1].evidence.nodes == 64
    delta = report.breakdowns[1].evidence.node_doubling_delta
    assert delta > 1.0
    line = report.to_text().splitlines()[-1]
    assert line.startswith("Me") and f"(evidence unconverged: delta={delta:.2g} nat)" in line
    assert "unconverged" not in report.to_text().splitlines()[-2]  # the null has no integral

    scenario, pop3_models = make_preset("pop3", n_per_group=25, reps=1, base_seed=2026)
    pop3 = compare(generate_scenario(scenario, 0), pop3_models, settings=FAST,
                   rng=RandomSource(3))
    assert all(bd.evidence.node_doubling_delta < 1e-8
               for bd in pop3.breakdowns if bd.evidence is not None)
    assert "unconverged" not in pop3.to_text()


def test_text_bf_column_keeps_its_width():
    # the null's BF against Me is ~4e13 and the reversed order's ~7e-6: fixed
    # point would run the first into the log BF column and print the second as 0
    null, free = _j10_null_and_free()
    models = [null, parse_model_spec("mu2 < mu5 < mu10", J=10, name="up"),
              parse_model_spec("mu10 < mu5 < mu2", J=10, name="down"), free]
    data = _large_unbalanced(step=0.0175, seed=6)
    report = compare(data, models, settings=FAST, rng=RandomSource(3))
    # the brute-force evidence puts the true BF past 1e12 as well
    prep = evidence.PreparedIntegrand(data.responses, report.theta0,
                                      make_cip(encompassing_of(free), data.group_sizes))
    log_null = evidence.null_loglik(data.responses, report.theta0)
    assert log_null - log_marginal_trapezoid(prep) > np.log(1e12)
    rows = report.to_text().splitlines()[3:]
    for row, dbf in zip(rows, report.display_bf):
        field = row[30:48]
        assert field[0] == " " and float(field) == pytest.approx(dbf, rel=1e-4)
    assert report.display_bf[0] > 1e12 and "e+" in rows[0][30:48]
    assert 0.0 < report.display_bf[2] < 1e-4 and "e-" in rows[2][30:48]
    assert rows[1][30:48].strip() == f"{report.display_bf[1]:.4f}"


def test_text_name_column_fits_the_longest_name():
    # a name past the 14-character default widens the column for every row,
    # so the numbers stay under their headings
    models = _models()
    models[1] = parse_model_spec("mu1 < mu2 < mu3", J=3, name="averyveryverylongname")
    report = compare(_increasing_data(), models, settings=FAST)
    header, rule, *rows = report.to_text().splitlines()[1:]
    assert header.startswith("model" + " " * 16 + "  log BF vs null")
    assert len(rule) == len(header)
    for row, name, bd in zip(rows, report.model_names, report.breakdowns):
        assert len(row) == len(header) and row[:21].rstrip() == name
        assert float(row[21:37]) == pytest.approx(bd.log_bf_c_vs_0, abs=1e-4)


def _pop3(base_seed=2026):
    scenario, models = make_preset("pop3", n_per_group=25, reps=1, base_seed=base_seed)
    return generate_scenario(scenario, 0), models


def _count_evidence_work(monkeypatch):
    counts = {"prepared": 0, "mode": 0, "quadrature": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    init = evidence.PreparedIntegrand.__init__
    monkeypatch.setattr(evidence.PreparedIntegrand, "__init__", counting("prepared", init))
    monkeypatch.setattr(evidence, "_eta_mode", counting("mode", evidence._eta_mode))
    monkeypatch.setattr(evidence, "quadrature_log_weights",
                        counting("quadrature", evidence.quadrature_log_weights))
    return counts


def test_each_design_is_prepared_once_per_call(monkeypatch):
    # pop3's M2 and Me share the free design and M3 has its own; the null has
    # none.  Each design takes one build, one mode search and the 64- and
    # 128-node rules; the posterior masses add no quadrature of their own.
    data, models = _pop3()
    counts = _count_evidence_work(monkeypatch)
    compare(data, models, settings=FAST)
    assert counts == {"prepared": 2, "mode": 2, "quadrature": 4}

    rng = np.random.default_rng(5)
    j10 = AnovaData(responses=rng.normal(np.repeat(0.1 * np.arange(10), 20)),
                    groups=np.repeat(np.arange(1, 11), 20))
    null, free = _j10_null_and_free()
    split = parse_model_spec("{mu1, mu2, mu3, mu4, mu5} < {mu6, mu7, mu8, mu9, mu10}", J=10,
                             name="split")
    counts.update(prepared=0, mode=0, quadrature=0)
    compare(j10, [null, split, free], settings=FAST)
    assert counts == {"prepared": 1, "mode": 1, "quadrature": 2}

    up = models[1]
    prep = evidence.PreparedIntegrand(data.responses, estimate_null_params(data),
                                      make_cip(encompassing_of(up), data.group_sizes))
    _ = prep.evidence  # compare computes the evidence before any cone mass
    counts.update(prepared=0, mode=0, quadrature=0)
    posterior.posterior_cone_mass(up, prep)
    assert counts == {"prepared": 0, "mode": 0, "quadrature": 0}


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.sampled_from([0, 1]), st.permutations(range(5)), st.integers(min_value=1, max_value=5))
def test_breakdown_does_not_depend_on_the_other_models(which, order, size):
    # the prepared designs are keyed by design within one call: sharing one
    # with other models, in any order, leaves every breakdown bit-identical
    cases = []
    for seed in (2026, 2027):
        data, models = _pop3(seed)
        models = models + [parse_model_spec("mu5 < mu4 < mu3 < mu2 < mu1", J=5, name="down")]
        theta0 = estimate_null_params(data)
        cases.append((data, models, theta0,
                      [repr(bf_k0(data, [m], theta0, FAST)[0]) for m in models]))
    # no design outlives its call: the second dataset's models read its own data
    assert all(a != b for a, b in zip(cases[0][3][1:], cases[1][3][1:]))
    data, models, theta0, alone = cases[which]
    chosen = order[:size]
    shared = bf_k0(data, [models[i] for i in chosen], theta0, FAST)
    assert [repr(bd) for bd in shared] == [alone[i] for i in chosen]


@st.composite
def _affine_cases(draw):
    """Unbalanced data on J = 2-6 groups, often with a singleton, and a map y -> a y + b."""
    J = draw(st.integers(2, 6))
    sizes = draw(st.lists(st.integers(1, 12), min_size=J, max_size=J))
    if draw(st.booleans()):
        sizes[draw(st.integers(0, J - 1))] = 1
    means = draw(st.lists(st.floats(-1.5, 1.5), min_size=J, max_size=J))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = np.concatenate([m + rng.standard_normal(n) for m, n in zip(means, sizes)])
    g = draw(st.permutations(range(1, J + 1)))
    models = [parse_model_spec(" = ".join(f"mu{j}" for j in range(1, J + 1)), J=J, name="null"),
              parse_model_spec(", ".join(f"mu{j}" for j in range(1, J + 1)), J=J, name="free"),
              parse_model_spec(f"mu{g[0]} = mu{g[1]}", J=J, name="tie"),
              # prior mass 1/2 or 1/6, so no model is refused
              parse_model_spec(" < ".join(f"mu{j}" for j in g[:3]), J=J, name="order")]
    data = AnovaData(responses=y, groups=np.repeat(np.arange(1, J + 1), sizes))
    return data, models, draw(st.floats(1e-6, 1e6)), draw(st.floats(-1e8, 1e8))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_affine_cases())
def test_whole_report_ignores_affine_maps_of_the_data(case):
    data, models, a, b = case
    y = data.responses
    base = compare(data, models)
    moved = compare(AnovaData(responses=a * y + b, groups=data.groups), models)
    # a * y + b is rounded to the float spacing at its magnitude, which moves
    # each datum by up to eps of the data's spread; the log BF reads n data,
    # and each evidence is within EVIDENCE_TOL of the rule twice as fine
    eps = np.finfo(float).eps * (abs(b) + a * np.max(np.abs(y))) / (a * np.std(y))
    tol = y.size * eps + 2 * evidence.EVIDENCE_TOL
    for one, other in zip(base.breakdowns, moved.breakdowns):
        assert one.below_resolution == other.below_resolution
        if not one.below_resolution:
            assert abs(one.log_bf_c_vs_0 - other.log_bf_c_vs_0) <= tol
    # a posterior probability moves by at most the largest log BF move
    assert np.allclose(base.posterior_probs, moved.posterior_probs, rtol=0.0, atol=tol)
