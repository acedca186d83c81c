"""Acceptance checks for the whole pipeline.

Ten numbered criteria, each a separate test that prints one PASS/FAIL line
with the measured margin.  Tolerances and seeds are fixed; loosening them is
not an option when a check fails.
"""

import time

import numpy as np
import pytest

from cipanova.compare import Settings, compare, pairwise_bf
from cipanova.constraints import encompassing_of, parse_model_spec
from cipanova.data import AnovaData
from cipanova.evidence import PreparedIntegrand, log_marginal_quadrature
from cipanova.gaussian import RandomSource
from cipanova.intrinsic import NullParams, estimate_null_params, make_cip
from cipanova.scenarios import MODEL_STRINGS, generate_scenario, make_preset
from cipanova.simulate import power_table, run_simulation_study
from oracles import (cip_sample, inverted_beta_logpdf, log_marginal_chib,
                     run_posterior_chain)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="module")
def trio_datasets():
    """Ten seeded three-group datasets, 50 per group, mean gaps 0 / 0.5 / 1."""
    me3 = parse_model_spec("mu1, mu2, mu3", J=3)
    out = []
    for i in range(10):
        rng = np.random.default_rng(1000 + i)
        y = np.concatenate([rng.normal(m, 1.0, 50) for m in (0.0, 0.5, 1.0)])
        data = AnovaData(responses=y, groups=np.repeat([1, 2, 3], 50))
        theta0 = estimate_null_params(data)
        spec = make_cip(encompassing_of(me3), data.group_sizes)
        out.append((data.responses, theta0, spec))
    return out


@pytest.fixture(scope="module")
def quadrature_results(trio_datasets):
    return [log_marginal_quadrature(y, th, sp, nodes=64) for y, th, sp in trio_datasets]


def test_c01_power_table_reference_values():
    t0 = time.perf_counter()
    rows = power_table(deltas=(0.2, 0.3, 0.4), sigma=1.0, n_per_group=(25, 50),
                       z_crit=1.96)
    elapsed = time.perf_counter() - t0
    got = {(r.delta, r.n_per_group): r.power for r in rows}
    refs = {(0.2, 25): 0.10, (0.2, 50): 0.17, (0.3, 25): 0.19,
            (0.3, 50): 0.32, (0.4, 25): 0.30, (0.4, 50): 0.52}
    worst = max(abs(got[k] - v) for k, v in refs.items())
    ok = worst <= 0.01 and elapsed < 1.0
    _verdict(1, ok, f"six power values, worst deviation {worst:.4f} "
                    f"(limit 0.01) in {elapsed:.3f}s (limit 1s)")


def test_c02_prior_effect_symmetry():
    t0 = time.perf_counter()
    me5 = parse_model_spec("mu1, mu2, mu3, mu4, mu5", J=5)
    spec = make_cip(encompassing_of(me5), (25,) * 5)
    draws = cip_sample(NullParams(0.0, 1.0), spec, 100_000,
                       RandomSource(2026, (5,)).generator())
    d = draws.gamma[:, 1:]
    dev_neg = abs(float(np.mean(d[:, 0] < 0.0)) - 0.5)
    inc = (d[:, 0] < d[:, 1]) & (d[:, 1] < d[:, 2]) & (d[:, 2] < d[:, 3])
    dev_ord = abs(float(np.mean(inc)) - 1.0 / 24.0)
    elapsed = time.perf_counter() - t0
    ok = dev_neg < 0.007 and dev_ord < 0.004 and elapsed < 30.0
    _verdict(2, ok, f"1e5 draws: |P(d2<0)-1/2|={dev_neg:.5f} (limit 0.007), "
                    f"|P(increasing)-1/24|={dev_ord:.5f} (limit 0.004), {elapsed:.2f}s")


def test_c03_quadrature_agrees_with_chib(trio_datasets, quadrature_results):
    t0 = time.perf_counter()
    worst_gap, worst_bound = 0.0, None
    for i, ((y, th, sp), quad) in enumerate(zip(trio_datasets, quadrature_results)):
        chib = log_marginal_chib(y, th, sp, N=20_000,
                                 rng=RandomSource(2026, (3, i)).generator())
        gap = abs(quad.log_marginal - chib.log_marginal)
        bound = max(0.05, 3.0 * chib.se)
        if gap > worst_gap:
            worst_gap, worst_bound = gap, bound
        if gap >= bound:
            _verdict(3, False, f"dataset {i}: |quad-chib|={gap:.4f} >= {bound:.4f}")
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _verdict(3, ok, f"10 datasets: worst |quad-chib|={worst_gap:.4f} "
                    f"(bound {worst_bound:.4f}), {elapsed:.1f}s (limit 120s)")


def test_c04_node_doubling_converged(quadrature_results):
    worst = max(res.node_doubling_delta for res in quadrature_results)
    ok = worst < 1e-8
    _verdict(4, ok, f"64-node doubling delta, worst {worst:.2e} (limit 1e-8)")


def test_c05_chain_matches_exact_eta_posterior():
    rng = np.random.default_rng(40)
    y = 0.4 + rng.standard_normal(12)
    data = AnovaData(responses=y, groups=np.repeat([1, 2], 6))
    theta0 = estimate_null_params(data)
    spec = make_cip(encompassing_of(parse_model_spec("mu1 = mu2", J=2)),
                    data.group_sizes)
    chain = run_posterior_chain(data.responses, theta0, spec, iters=55_000,
                                burnin=5_000, rng=RandomSource(7, (5,)).generator())
    assert chain.kept == 50_000
    prep = PreparedIntegrand(data.responses, theta0, spec)
    u = np.linspace(1e-7, 1.0 - 1e-7, 400_001)
    ll = prep.loglik(np.sin(0.5 * np.pi * u) ** 2)
    cdf = np.cumsum(np.exp(ll - ll.max()))
    cdf /= cdf[-1]
    u_draws = 2.0 / np.pi * np.arcsin(np.sqrt(np.sort(chain.eta)))
    fhat = np.interp(u_draws, u, cdf)
    k = chain.kept
    ks = float(np.max(np.abs(fhat - (np.arange(1, k + 1) - 0.5) / k)))
    ok = ks < 0.02
    _verdict(5, ok, f"eta KS={ks:.4f} over {k} kept draws "
                    f"(limit 0.02, acceptance {chain.acceptance_rate:.3f})")


def test_c06_variance_prior_matches_half_cauchy():
    worst = 0.0
    for sigma0 in (0.4, 1.3):
        s0sq = sigma0**2
        for sigma in np.geomspace(0.1, 10.0, 20) * sigma0:
            v = sigma**2
            lhs = inverted_beta_logpdf(v, 0.5, 0.5, s0sq) + np.log(2.0 * sigma)
            rhs = (np.log(2.0) - np.log(np.pi * sigma0) - np.log1p(v / s0sq))
            worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-12
    _verdict(6, ok, f"inverted-beta vs half-Cauchy on 20-point grids, "
                    f"worst |diff|={worst:.2e} (limit 1e-12)")


def test_c07_affine_data_invariance():
    scenario, _ = make_preset("pop3", n_per_group=25, reps=1, base_seed=2026)
    data = generate_scenario(scenario, 0)
    moved = AnovaData(responses=2.0 * data.responses + 3.0, groups=data.groups.copy())
    models = [parse_model_spec(MODEL_STRINGS[m], J=5, name=m)
              for m in ("M0", "M3", "Me")]
    base = compare(data, models, rng=RandomSource(2026))
    shifted = compare(moved, models, rng=RandomSource(2026))
    worst = max(abs(a.log_bf_c_vs_0 - b.log_bf_c_vs_0)
                for a, b in zip(base.breakdowns, shifted.breakdowns))
    ok = worst < 0.02
    _verdict(7, ok, f"y -> 2y+3 with re-estimated null fit: worst "
                    f"|delta log BF|={worst:.2e} over 3 models (limit 0.02)")


def test_c08_simulation_study_recovery():
    t0 = time.perf_counter()
    tables = {}
    for name, npg in (("pop1", 25), ("pop3", 25), ("pop2l", 50), ("pop2s", 25)):
        scenario, models = make_preset(name, n_per_group=npg, reps=50, base_seed=2026)
        tables[name] = run_simulation_study(scenario, models, jobs=4)
    elapsed = time.perf_counter() - t0
    checks = [
        ("pop1 M0 share >= 0.90", tables["pop1"].top_share["M0"] >= 0.90),
        ("pop3 M3 share >= 0.85", tables["pop3"].top_share["M3"] >= 0.85),
        ("pop3 median M3 prob >= 0.80", tables["pop3"].median_true_pmp >= 0.80),
        ("pop2l M2 share >= 0.85", tables["pop2l"].top_share["M2"] >= 0.85),
        ("pop2s M0 beats M2",
         tables["pop2s"].top_share["M0"] > tables["pop2s"].top_share["M2"]),
        ("within 30 min", elapsed <= 1800.0),
    ]
    failed = [label for label, good in checks if not good]
    detail = (f"pop1 M0={tables['pop1'].top_share['M0']:.2f}, "
              f"pop3 M3={tables['pop3'].top_share['M3']:.2f} "
              f"(median prob {tables['pop3'].median_true_pmp:.2f}), "
              f"pop2l M2={tables['pop2l'].top_share['M2']:.2f}, "
              f"pop2s M0={tables['pop2s'].top_share['M0']:.2f} vs "
              f"M2={tables['pop2s'].top_share['M2']:.2f}, {elapsed:.0f}s")
    ok = not failed
    _verdict(8, ok, detail if ok else f"failed {failed}; {detail}")


def test_c09_heteroscedastic_trend_recovery():
    scenario, models = make_preset("pop2m-f25", n_per_group=50, reps=50,
                                   base_seed=2026)
    table = run_simulation_study(scenario, models, jobs=4)
    share = table.top_share["M2"]
    ok = share >= 0.90
    _verdict(9, ok, f"pop2m-f25 n=50: M2 share {share:.2f} (limit 0.90)")


def test_c10_probability_arithmetic():
    rng = np.random.default_rng(77)
    y = np.concatenate([rng.normal(m, 1.0, 12) for m in (0.0, 0.6, 1.2)])
    data = AnovaData(responses=y, groups=np.repeat([1, 2, 3], 12))
    models = [parse_model_spec("mu1 = mu2 = mu3", J=3, name="M0"),
              parse_model_spec("mu1 < mu2 < mu3", J=3, name="up"),
              parse_model_spec("mu2 < mu1", J=3, name="rev"),
              parse_model_spec("mu1, mu2, mu3", J=3, name="Me")]
    report = compare(data, models, settings=Settings(prior_draws=30_000), rng=RandomSource(10))
    sum_dev = abs(sum(report.posterior_probs) - 1.0)
    names = list(report.model_names)
    tele_dev = 0.0
    for a in names:
        for b in names:
            for c in names:
                lab = np.log(pairwise_bf(report, a, b))
                lbc = np.log(pairwise_bf(report, b, c))
                lac = np.log(pairwise_bf(report, a, c))
                tele_dev = max(tele_dev, abs(lab + lbc - lac))
    additive = all(bd.log_bf_c_vs_0 == bd.log_bf_e_vs_0 + bd.log_bf_c_vs_e
                   for bd in report.breakdowns)
    ok = sum_dev <= 1e-12 and tele_dev <= 1e-12 and additive
    _verdict(10, ok, f"PMP sum deviation {sum_dev:.2e}, telescoping deviation "
                     f"{tele_dev:.2e} (limits 1e-12), factor additivity exact")
