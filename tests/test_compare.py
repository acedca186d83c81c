import json

import numpy as np
import pytest

from cipanova.compare import ComparisonReport, Settings, bf_k0, compare, pairwise_bf
from cipanova.constraints import parse_model_spec
from cipanova.data import AnovaData
from cipanova.gaussian import RandomSource
from cipanova.intrinsic import NullParams, estimate_null_params

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
    bd = bf_k0(data, m0, NullParams(0.5, 1.0), FAST, RandomSource(1))
    assert bd.log_bf_e_vs_0 == 0.0
    assert bd.log_bf_c_vs_e == 0.0
    assert bd.log_bf_c_vs_0 == 0.0
    assert bd.evidence is None and bd.prior_region is None


def test_unordered_model_skips_region_step():
    data = _increasing_data()
    me = parse_model_spec("mu1, mu2, mu3", J=3)
    bd = bf_k0(data, me, NullParams(0.5, 1.0), FAST, RandomSource(1))
    assert bd.log_bf_c_vs_e == 0.0
    assert bd.log_bf_c_vs_0 == bd.log_bf_e_vs_0
    assert bd.evidence is not None
    assert bd.prior_region is None and bd.post_region is None


def test_ordered_model_composes_factors():
    data = _increasing_data()
    mup = parse_model_spec("mu1 < mu2 < mu3", J=3)
    bd = bf_k0(data, mup, NullParams(0.7, 1.2), FAST, RandomSource(2))
    assert bd.log_bf_c_vs_0 == bd.log_bf_e_vs_0 + bd.log_bf_c_vs_e
    assert bd.prior_region.side == "prior"
    assert bd.post_region.side == "posterior"
    # increasing data: the posterior concentrates on the increasing cone
    assert bd.post_region.estimate > bd.prior_region.estimate
    assert bd.log_bf_c_vs_e > 0.0


def test_bf_k0_rejects_group_mismatch():
    data = _increasing_data()
    with pytest.raises(ValueError):
        bf_k0(data, parse_model_spec("mu1 < mu2", J=2), NullParams(0.0, 1.0),
              FAST, RandomSource(0))


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


def test_pairwise_bf_telescopes():
    data = _increasing_data(seed=9)
    report = compare(data, _models(), settings=FAST, rng=RandomSource(12))
    b_01 = pairwise_bf(report, "M0", "Mup")
    b_12 = pairwise_bf(report, "Mup", "Me")
    b_02 = pairwise_bf(report, "M0", "Me")
    assert np.log(b_01) + np.log(b_12) == pytest.approx(np.log(b_02), abs=1e-12)
    assert pairwise_bf(report, "Mup", "M0") == pytest.approx(1.0 / b_01, rel=1e-12)
    assert pairwise_bf(report, "M0", "M0") == 1.0
    with pytest.raises(ValueError):
        pairwise_bf(report, "M0", "nope")


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
    bd = bf_k0(data, mup, NullParams(1.5, 1.5), FAST, RandomSource(8))
    assert bd.below_resolution
    assert bd.log_bf_c_vs_0 == -np.inf
    assert bd.resolution_bound is not None and np.isfinite(bd.resolution_bound)
    report = compare(data, [mup, parse_model_spec("mu1, mu2, mu3", J=3, name="Me")],
                     settings=FAST, rng=RandomSource(8))
    assert "below MC resolution" in report.to_text()
    assert sum(report.posterior_probs) == pytest.approx(1.0, abs=1e-12)


def test_report_record_round_trips_through_json():
    data = _increasing_data(seed=5)
    report = compare(data, _models(), settings=FAST, rng=RandomSource(6))
    blob = json.dumps(report.to_record(), sort_keys=True)
    back = json.loads(blob)
    assert back["reference"] == "Me"
    assert len(back["models"]) == 3
    up = next(m for m in back["models"] if m["name"] == "Mup")
    assert up["prior_region"]["side"] == "prior"
    assert up["log_bf_c_vs_0"] == pytest.approx(up["log_bf_e_vs_0"] + up["log_bf_c_vs_e"])
    text = report.to_text()
    assert text.splitlines()[0].startswith("null fit:")
    assert "post prob" in text


def test_compare_validates_inputs():
    data = _increasing_data()
    models = _models()
    with pytest.raises(ValueError):
        compare(data, models, prior_probs=[0.5, 0.5], settings=FAST)
    with pytest.raises(ValueError):
        compare(data, models, prior_probs=[0.5, 0.5, -0.1], settings=FAST)
    dup = [parse_model_spec("mu1, mu2, mu3", J=3, name="x"),
           parse_model_spec("mu1 = mu2 = mu3", J=3, name="x")]
    with pytest.raises(ValueError):
        compare(data, dup, settings=FAST)
    with pytest.raises(ValueError):
        Settings(evidence_method="bridge")


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
    c = compare(data, _models(), settings=FAST, rng=RandomSource(43))
    assert a.posterior_probs != c.posterior_probs


def test_breakdown_sum_rule_enforced():
    from cipanova.compare import BfBreakdown
    with pytest.raises(ValueError):
        BfBreakdown(model="m", log_bf_e_vs_0=1.0, log_bf_c_vs_e=2.0, log_bf_c_vs_0=3.5)


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
        bds.append(bf_k0(data, up, estimate_null_params(data), Settings(), RandomSource(9)))
    base, moved = bds
    se = np.sqrt(sum((1.0 - r.estimate) / r.hits
                     for r in (base.prior_region, base.post_region)))
    assert abs(moved.log_bf_c_vs_e - base.log_bf_c_vs_e) < 3.0 * se
