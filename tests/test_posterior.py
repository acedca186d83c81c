import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp, roots_jacobi

from cipanova import posterior
from cipanova.compare import Settings, bf_k0, compare
from cipanova.constraints import encompassing_of, parse_model_spec
from cipanova.data import AnovaData
from cipanova.evidence import quadrature_log_weights
from cipanova.gaussian import RandomSource
from cipanova.intrinsic import NullParams, estimate_null_params, make_cip
from cipanova.posterior import order_components, posterior_cone_mass, prior_cone_mass
from cipanova.scenarios import MODEL_STRINGS, generate_scenario, make_preset
from oracles import (
    ChainDraws,
    PosteriorDraws,
    PriorDraws,
    RegionProbEstimate,
    below_all_mass,
    between_two_mass,
    cip_sample,
    component_masses_reference,
    cone_mass,
    dense_spec,
    eta_log_target,
    gamma_full_conditional,
    group_stats,
    inverted_beta_logpdf,
    posterior_class_means,
    prepared,
    region_mask,
    region_prob,
    run_posterior_chain,
    sample_posterior,
)


def _three_group(seed=11, n_per_group=6, means=(0.0, 0.6, 1.2)):
    rng = np.random.default_rng(seed)
    y = np.concatenate([rng.normal(m, 1.0, size=n_per_group) for m in means])
    data = AnovaData(responses=y, groups=np.repeat([1, 2, 3], n_per_group))
    theta0 = estimate_null_params(data)
    me = parse_model_spec("mu1, mu2, mu3", J=3)
    spec = make_cip(encompassing_of(me), data.group_sizes)
    return y, theta0, spec


def _pooled(seed=13, n=8):
    rng = np.random.default_rng(seed)
    y = 0.4 + rng.standard_normal(n)
    data = AnovaData(responses=y, groups=np.repeat([1, 2], n // 2))
    theta0 = estimate_null_params(data)
    m0 = parse_model_spec("mu1 = mu2", J=2)
    spec = make_cip(encompassing_of(m0), data.group_sizes)
    return y, theta0, spec


def test_gamma_conditional_hand_case():
    # pooled design, n=2, y=(0,2), alpha0=1, sigma0=1, sigma2=1:
    # precision = W/2 + Z'Z = 1 + 2 = 3, mean = (1*1 + 2*1)/3 = 1
    m0 = parse_model_spec("mu1 = mu2", J=2)
    spec = make_cip(encompassing_of(m0), (1, 1))
    mean, cov = gamma_full_conditional(1.0, np.array([0.0, 2.0]),
                                       NullParams(alpha0=1.0, sigma0=1.0), spec)
    assert mean == pytest.approx(np.array([1.0]), abs=1e-12)
    assert cov == pytest.approx(np.array([[1.0 / 3.0]]), abs=1e-12)


def test_gamma_conditional_prior_scale_zero_is_least_squares():
    y, theta0, spec = _three_group()
    mean, cov = gamma_full_conditional(0.7, y, theta0, spec, prior_scale=0.0)
    dense = dense_spec(spec)
    beta_ls, *_ = np.linalg.lstsq(dense.Z, y, rcond=None)
    assert mean == pytest.approx(beta_ls, abs=1e-10)
    assert cov == pytest.approx(0.7 * np.linalg.inv(dense.ztz), abs=1e-12)


def test_gamma_conditional_bayes_identity():
    # loglik + logprior - logconditional must not depend on gamma
    y, theta0, spec = _three_group()
    dense = dense_spec(spec)
    sigma2 = 1.3
    u = sigma2 + theta0.sigma0**2
    mean, cov = gamma_full_conditional(sigma2, y, theta0, spec)
    prior = stats.multivariate_normal(mean=theta0.alpha0 * dense.e,
                                      cov=u * dense.winv)
    cond = stats.multivariate_normal(mean=mean, cov=cov)
    rng = np.random.default_rng(3)
    vals = []
    for _ in range(5):
        gamma = rng.normal(size=spec.q)
        resid = y - dense.Z @ gamma
        ll = float(np.sum(stats.norm(scale=np.sqrt(sigma2)).logpdf(resid)))
        vals.append(ll + prior.logpdf(gamma) - cond.logpdf(gamma))
    assert np.ptp(vals) < 1e-10


def test_gamma_conditional_limits():
    y, theta0, spec = _pooled()
    alpha0 = float(np.mean(y))
    centered = NullParams(alpha0=alpha0, sigma0=theta0.sigma0)
    big = 1e8 * theta0.sigma0**2
    mean, _ = gamma_full_conditional(big, y, centered, spec)
    assert mean[0] == pytest.approx(alpha0, abs=1e-3)
    small = 1e-8 * theta0.sigma0**2
    mean_s, _ = gamma_full_conditional(small, y, theta0, spec)
    assert mean_s[0] == pytest.approx(np.mean(y), abs=1e-3)
    with pytest.raises(ValueError):
        gamma_full_conditional(0.0, y, theta0, spec)


@pytest.mark.parametrize("eta", [0.05, 0.3, 0.7, 0.97])
def test_standardized_means_match_the_dense_full_conditional(eta):
    # an unbalanced design with a singleton group (class 0) and a merged
    # class: given eta the class means are independent Gaussians whose sds are
    # one scale over sqrt(n_c), and the means minus alpha0 over that scale are
    # what the cone masses read
    rng = np.random.default_rng(17)
    sizes = (1, 7, 4, 12, 6)
    y = np.concatenate([rng.normal(m, 1.0, n) for m, n in zip((0.4, -0.3, 0.9, 0.2, 1.1), sizes)])
    data = AnovaData(responses=y, groups=np.repeat(np.arange(1, 6), sizes))
    theta0 = estimate_null_params(data)
    spec = make_cip(encompassing_of(parse_model_spec("mu1, mu2 = mu3, mu4, mu5", J=5)), sizes)
    assert spec.q == 4 and spec.sizes[0] == 1
    mean, cov = gamma_full_conditional(theta0.sigma0**2 * eta / (1.0 - eta), y, theta0, spec)
    # gamma is the class-0 mean, then each other class's effect against it
    to_means = np.eye(spec.q)
    to_means[1:, 0] = 1.0
    cov = to_means @ cov @ to_means.T
    sd = np.sqrt(np.diag(cov))
    assert np.max(np.abs(cov - np.diag(sd**2))) <= 1e-12 * np.max(sd**2)
    scale = sd * np.sqrt(spec.sizes)
    assert np.ptp(scale) <= 1e-12 * scale[0]
    got = prepared(y, theta0, spec).standardized_means(np.array([eta]))
    want = (to_means @ mean - theta0.alpha0) / scale[0]
    np.testing.assert_allclose(got[0], want, rtol=1e-12, atol=1e-12)


def test_eta_target_matches_sigma2_route():
    # map likelihood x gamma prior x inverted-beta through eta, with Jacobian;
    # differences of the unnormalized logs must agree exactly
    y, theta0, spec = _three_group(seed=21, n_per_group=4)
    dense = dense_spec(spec)
    rng = np.random.default_rng(8)
    gamma = rng.normal(size=spec.q)
    resid = y - dense.Z @ gamma
    C = float(resid @ resid)
    dev = gamma - theta0.alpha0 * dense.e
    D = float(dev @ dense.w @ dev)
    s0sq = theta0.sigma0**2

    def sigma_route(eta):
        sigma2 = s0sq * eta / (1.0 - eta)
        u = sigma2 + s0sq
        ll = -0.5 * (spec.n * np.log(2 * np.pi * sigma2) + C / sigma2)
        lp = stats.multivariate_normal(mean=theta0.alpha0 * dense.e,
                                       cov=u * dense.winv).logpdf(gamma)
        lib = inverted_beta_logpdf(sigma2, 0.5, 0.5, s0sq)
        jac = np.log(s0sq) - 2.0 * np.log1p(-eta)
        return ll + lp + lib + jac

    pairs = [(0.2, 0.7), (0.1, 0.9), (0.4, 0.5), (0.05, 0.95)]
    for e1, e2 in pairs:
        want = sigma_route(e1) - sigma_route(e2)
        got = (eta_log_target(e1, C, D, spec.n, spec.q, s0sq)
               - eta_log_target(e2, C, D, spec.n, spec.q, s0sq))
        assert got == pytest.approx(want, abs=1e-10)


def test_eta_target_degenerate_shape():
    # C = D = 0 with n = q = 1 collapses to -log(eta) + log1p(-eta)/2
    for eta in (0.1, 0.5, 0.93):
        got = eta_log_target(eta, 0.0, 0.0, 1, 1, 2.0)
        assert got == pytest.approx(-np.log(eta) + 0.5 * np.log1p(-eta), abs=1e-14)
    assert eta_log_target(0.0, 1.0, 1.0, 3, 2, 1.0) == -np.inf
    assert eta_log_target(1.0, 1.0, 1.0, 3, 2, 1.0) == -np.inf


def test_chain_is_deterministic_and_validates():
    y, theta0, spec = _pooled()
    a = run_posterior_chain(y, theta0, spec, iters=2000, burnin=200,
                            rng=RandomSource(17).generator())
    b = run_posterior_chain(y, theta0, spec, iters=2000, burnin=200,
                            rng=RandomSource(17).generator())
    assert np.array_equal(a.gamma, b.gamma)
    assert np.array_equal(a.eta, b.eta)
    assert a.acceptance_rate == b.acceptance_rate
    assert a.kept == 1800 and a.burnin == 200
    with pytest.raises(ValueError):
        run_posterior_chain(y, theta0, spec, iters=100, burnin=100,
                            rng=RandomSource(0).generator())
    with pytest.raises(ValueError):
        run_posterior_chain(y, theta0, spec, rng=None)
    with pytest.raises(ValueError):
        run_posterior_chain(y[:-1], theta0, spec, iters=100, burnin=10,
                            rng=RandomSource(0).generator())


def test_chain_mean_matches_quadrature_mixture():
    # E[gamma | y] via Gauss-Jacobi over eta against the chain average
    y, theta0, spec = _three_group(seed=30)
    prep = prepared(y, theta0, spec)
    x, w = roots_jacobi(96, -0.5, -0.5)
    etas = 0.5 * (x + 1.0)
    ll = prep.loglik(etas)
    logw = np.log(w) + ll
    wts = np.exp(logw - logsumexp(logw))
    s0sq = theta0.sigma0**2
    mix_gamma = np.zeros(spec.q)
    for eta_i, wt in zip(etas, wts):
        mean_i, _ = gamma_full_conditional(s0sq * eta_i / (1.0 - eta_i), y, theta0, spec)
        mix_gamma += wt * mean_i
    mix_eta = float(wts @ etas)

    draws = run_posterior_chain(y, theta0, spec, iters=60_000, burnin=5_000,
                                rng=RandomSource(99).generator())
    assert 0.05 < draws.acceptance_rate < 0.95
    assert np.max(np.abs(draws.gamma.mean(axis=0) - mix_gamma)) < 0.03
    assert abs(draws.eta.mean() - mix_eta) < 0.02


def test_chain_eta_ks_against_quadrature_density():
    # small single-factor fit: compare chain eta draws with the normalized
    # 1-d posterior computed on a fine grid
    y, theta0, spec = _pooled(seed=40, n=12)
    prep = prepared(y, theta0, spec)
    u = np.linspace(1e-7, 1.0 - 1e-7, 200_001)
    etas = np.sin(0.5 * np.pi * u) ** 2
    dens = np.exp(prep.loglik(etas) - np.max(prep.loglik(etas)))
    cdf = np.cumsum(dens)
    cdf /= cdf[-1]
    draws = run_posterior_chain(y, theta0, spec, iters=25_000, burnin=5_000,
                                rng=RandomSource(41).generator())
    u_draws = 2.0 / np.pi * np.arcsin(np.sqrt(np.sort(draws.eta)))
    fhat = np.interp(u_draws, u, cdf)
    k = draws.kept
    ks = float(np.max(np.abs(fhat - (np.arange(1, k + 1) - 0.5) / k)))
    assert ks < 0.05


def test_chain_shrinks_toward_center():
    y, theta0, spec = _pooled(seed=50)
    off = NullParams(alpha0=theta0.alpha0 + 2.0, sigma0=theta0.sigma0)
    draws = run_posterior_chain(y, off, spec, iters=20_000, burnin=2_000,
                                rng=RandomSource(51).generator())
    mean = float(draws.gamma.mean(axis=0)[0])
    lo, hi = sorted((float(np.mean(y)), off.alpha0))
    assert lo - 0.05 < mean < hi + 0.05


def _c07_data():
    scenario, _ = make_preset("pop3", n_per_group=25, reps=1, base_seed=2026)
    return generate_scenario(scenario, 0)


def _c10_data():
    rng = np.random.default_rng(77)
    y = np.concatenate([rng.normal(m, 1.0, 12) for m in (0.0, 0.6, 1.2)])
    return AnovaData(responses=y, groups=np.repeat([1, 2, 3], 12))


@pytest.mark.parametrize("make_data, text", [(_c07_data, MODEL_STRINGS["M3"]),
                                             (_c10_data, "mu1 < mu2 < mu3"),
                                             (_c10_data, "mu2 < mu1")],
                         ids=["c07 M3", "c10 up", "c10 rev"])
def test_sampler_cone_mass_agrees_with_chain_and_reference(make_data, text):
    data = make_data()
    model = parse_model_spec(text, J=data.J)
    y, theta0 = data.responses, estimate_null_params(data)
    spec = make_cip(encompassing_of(model), data.group_sizes)

    _, means = posterior_class_means(y, theta0, spec, 64, RandomSource(70).generator())
    p = cone_mass(model, means, "posterior").estimate
    se = np.sqrt(p * (1.0 - p) / 50_000)
    # reference: full (gamma, eta) draws on a fine rule
    ref = region_prob(sample_posterior(y, theta0, spec, 1024, RandomSource(71).generator(),
                                       T=1_000_000), model).estimate
    se_ref = np.sqrt(ref * (1.0 - ref) / 1_000_000)
    chain = run_posterior_chain(y, theta0, spec, iters=55_000, burnin=5_000,
                                rng=RandomSource(72).generator())
    hits = region_mask(model, chain.gamma[:, 1:]).astype(float)
    batch_means = hits.reshape(50, -1).mean(axis=1)
    se_chain = float(np.std(batch_means, ddof=1) / np.sqrt(50))
    assert abs(p - ref) < 3.0 * np.hypot(se, se_ref)
    assert abs(p - hits.mean()) < 3.0 * np.hypot(se, se_chain)


def test_sampler_cone_mass_matches_node_mixture():
    # two classes, the baseline one merged and twice the other's size: given
    # eta the cone is one normal tail, so its mass is a node mixture of Phi
    data = _c10_data()
    model = parse_model_spec("{mu1 = mu3} < mu2", J=3)
    y, theta0 = data.responses, estimate_null_params(data)
    spec = make_cip(encompassing_of(model), data.group_sizes)
    eta, log_w = quadrature_log_weights(prepared(y, theta0, spec), 64)
    shrink = 1.0 / (1.0 + 3.0 * eta / spec.n)
    sd = np.sqrt(theta0.sigma0**2 * eta / (1.0 - eta) * shrink * (1.0 / 12 + 1.0 / 24))
    r = y - theta0.alpha0
    gap = r[data.groups == 2].mean() - r[data.groups != 2].mean()
    exact = float(np.exp(log_w - logsumexp(log_w)) @ stats.norm.cdf(shrink * gap / sd))
    T = 200_000
    _, means = posterior_class_means(y, theta0, spec, 64, RandomSource(74).generator(), T=T)
    est = cone_mass(model, means, "posterior")
    assert abs(est.estimate - exact) < 4.0 * np.sqrt(exact * (1.0 - exact) / T)


def test_sampler_gamma_given_eta_matches_full_conditional():
    # few nodes, so several of them hold enough draws to check a conditional
    y, theta0, spec = _three_group(seed=31, n_per_group=10)
    etas, means = posterior_class_means(y, theta0, spec, 8, RandomSource(73).generator(),
                                        T=400_000)
    assert np.all(np.isin(etas, quadrature_log_weights(prepared(y, theta0, spec), 8)[0]))
    # gamma: the baseline class mean, then each other class's effect against it
    gamma = np.column_stack([means[:, 0] + theta0.alpha0, means[:, 1:] - means[:, :1]])
    checked = 0
    for eta in np.unique(etas):
        g = gamma[etas == eta]
        if len(g) < 20_000:
            continue
        checked += 1
        mean, cov = gamma_full_conditional(theta0.sigma0**2 * eta / (1.0 - eta), y,
                                           theta0, spec)
        white = np.linalg.solve(np.linalg.cholesky(cov), (g - mean).T).T
        tol = 5.0 / np.sqrt(len(g))
        assert np.max(np.abs(white.mean(axis=0))) < tol
        assert np.max(np.abs(np.cov(white.T) - np.eye(spec.q))) < 2.0 * tol
    assert checked >= 2


def _zero_mean_data(J, n=7, seed=0):
    # every group mean equals the grand mean, so every rbar_c is 0 and, with
    # equal sizes, the class means are iid given eta at every node
    rng = np.random.default_rng(seed)
    y = np.concatenate([(lambda v: v - v.mean())(rng.normal(size=n)) for _ in range(J)])
    return AnovaData(responses=y + 3.0, groups=np.repeat(np.arange(1, J + 1), n))


def _exact_mass(data, text):
    model = parse_model_spec(text, J=data.J)
    spec = make_cip(encompassing_of(model), data.group_sizes)
    prep = prepared(data.responses, estimate_null_params(data), spec)
    return posterior_cone_mass(model, prep)


@pytest.mark.parametrize("q", range(2, 11))
def test_exact_mass_of_iid_chain_is_one_over_q_factorial(q):
    post = _exact_mass(_zero_mean_data(q), " < ".join(f"mu{j}" for j in range(1, q + 1)))
    assert post.estimate == pytest.approx(1.0 / math.factorial(q), rel=1e-9, abs=0.0)
    assert post.doubling_error < posterior.POSTERIOR_REL_TOL


@pytest.mark.parametrize("text, J, exact", [
    ("{mu1, mu2, mu3, mu4, mu5} < {mu6, mu7, mu8, mu9, mu10}", 10, 1.0 / 252.0),
    # the "N" order a < c, b < c, b < d has 5 of the 24 linear extensions
    ("mu1 < mu3, mu2 < mu3, mu2 < mu4", 4, 5.0 / 24.0),
    # two weak components multiply: 1/2 * 1/6
    ("mu1 < mu2, mu3 < mu4 < mu5", 5, 1.0 / 12.0),
], ids=["5-vs-5", "N", "two components"])
def test_exact_mass_of_iid_partial_orders(text, J, exact):
    assert _exact_mass(_zero_mean_data(J), text).estimate == pytest.approx(exact, rel=1e-9,
                                                                          abs=0.0)


def test_exact_mass_matches_node_mixture():
    # the merged two-class case of test_sampler_cone_mass_matches_node_mixture:
    # given eta the cone is one normal tail, so the mass is a node mixture of Phi
    data = _c10_data()
    model = parse_model_spec("{mu1 = mu3} < mu2", J=3)
    y, theta0 = data.responses, estimate_null_params(data)
    spec = make_cip(encompassing_of(model), data.group_sizes)
    eta, log_w = quadrature_log_weights(prepared(y, theta0, spec), 64)
    shrink = 1.0 / (1.0 + 3.0 * eta / spec.n)
    sd = np.sqrt(theta0.sigma0**2 * eta / (1.0 - eta) * shrink * (1.0 / 12 + 1.0 / 24))
    r = y - theta0.alpha0
    gap = r[data.groups == 2].mean() - r[data.groups != 2].mean()
    exact = float(np.exp(log_w - logsumexp(log_w)) @ stats.norm.cdf(shrink * gap / sd))
    post = posterior_cone_mass(model, prepared(y, theta0, spec))
    assert abs(post.estimate - exact) < 1e-12


def test_exact_mass_at_large_n_matches_a_fine_node_rule():
    # pop2s-like trend at 400 per group: the eta posterior is narrow, so a
    # 64-node rule would hold it on a handful of nodes
    rng = np.random.default_rng(11)
    y = np.concatenate([rng.normal(m, 1.0, 400) for m in (0.0, 0.2, 0.4, 0.6, 0.8)])
    data = AnovaData(responses=y, groups=np.repeat(np.arange(1, 6), 400))
    theta0 = estimate_null_params(data)
    model = parse_model_spec(MODEL_STRINGS["M2"], J=5)
    spec = make_cip(encompassing_of(model), data.group_sizes)
    prep = prepared(data.responses, theta0, spec)
    fine = prepared(data.responses, theta0, spec, nodes=4096)
    got = posterior_cone_mass(model, prep).estimate
    want = posterior_cone_mass(model, fine).estimate
    assert got == pytest.approx(want, rel=1e-8, abs=0.0)
    assert np.sum(np.exp(prep.eta_weights[1]) > posterior.PRUNE_WEIGHT) > 3


def _j10_data(seed=1):
    rng = np.random.default_rng(seed)
    y = np.concatenate([0.1 * j + rng.standard_normal(20) for j in range(10)])
    return AnovaData(responses=y, groups=np.repeat(np.arange(1, 11), 20))


@pytest.mark.parametrize("make_data, text", [
    (_c07_data, MODEL_STRINGS["M2"]),
    (_c07_data, MODEL_STRINGS["M3"]),
    (_j10_data, "{mu1, mu2, mu3, mu4, mu5} < {mu6, mu7, mu8, mu9, mu10}"),
    (_c10_data, "mu1 < mu2 < mu3"),
    (_c10_data, "mu2 < mu1"),
], ids=["pop3 M2", "pop3 M3", "j10 split", "c10 up", "c10 rev"])
def test_exact_mass_agrees_with_sampler(make_data, text):
    data = make_data()
    model = parse_model_spec(text, J=data.J)
    y, theta0 = data.responses, estimate_null_params(data)
    spec = make_cip(encompassing_of(model), data.group_sizes)
    post = posterior_cone_mass(model, prepared(y, theta0, spec))
    rng = RandomSource(75).generator()
    T, hits = 0, 0
    for _ in range(10):  # 2M draws in chunks of 200k
        _, means = posterior_class_means(y, theta0, spec, 64, rng, T=200_000)
        est = cone_mass(model, means, "posterior")
        T, hits = T + est.total, hits + est.hits
    p = hits / T
    assert abs(post.estimate - p) < 4.0 * np.sqrt(p * (1.0 - p) / T)


def test_mass_settles_on_the_second_grid_across_datasets(monkeypatch):
    # the cost of a mass should not jump with the data: with 6 sd panels a
    # third of the j10 datasets moved by more than POSTERIOR_REL_TOL over the
    # first check and paid for a third grid, and without MIN_PANELS the
    # first grid took 6 or 7 panels by dataset; the second grid is the
    # starting grid's 1.5 times as fine, and both go through one kernel call
    calls = []  # the panels of each grid, per kernel call
    component_masses = posterior._component_masses
    monkeypatch.setattr(posterior, "_component_masses",
                        lambda *a: calls.append([e.shape[1] - 1 for e in a[-1]])
                        or component_masses(*a))
    scenario, _ = make_preset("pop3", n_per_group=25, reps=12)
    cases = [(_j10_data(seed), "{mu1, mu2, mu3, mu4, mu5} < {mu6, mu7, mu8, mu9, mu10}")
             for seed in range(1, 13)]
    cases += [(generate_scenario(scenario, rep), MODEL_STRINGS[name])
              for rep in range(12) for name in ("M2", "M3")]
    first = set()
    for data, text in cases:
        calls.clear()
        post = _exact_mass(data, text)
        assert post.doubling_error < 1e-10
        (start, check), = calls
        assert 2 * check == 3 * start, (text, calls)
        first.add(start)
    assert first == {posterior.MIN_PANELS}


def test_unresolved_mass_is_flagged_with_a_bound(monkeypatch):
    # steeply decreasing means against the increasing chain (the data of
    # test_below_resolution_flag_on_contradicted_order): the bound alone
    # puts the mass under the truncation floor, so no grid is evaluated
    rng = np.random.default_rng(33)
    y = np.concatenate([rng.normal(m, 0.3, size=12) for m in (3.0, 1.5, 0.0)])
    model = parse_model_spec("mu1 < mu2 < mu3", J=3)
    spec = make_cip(encompassing_of(model), (12, 12, 12))
    post = posterior_cone_mass(model, prepared(y, NullParams(1.5, 1.5), spec))
    assert post.estimate is None and post.grid == 0
    assert 0.0 < post.upper_bound < 1e-10
    # wider groups: the bound is loose, and the grid puts the mass under the
    # floor; with 6 sd panels it would take a doubling after the first check
    # to settle, but the refinement stops after the first pair, which both lie
    # under the floor
    monkeypatch.setattr(posterior, "PANEL_SD", 6.0)
    rng = np.random.default_rng(33)
    y = np.concatenate([rng.normal(m, 0.9, size=30) for m in (3.0, 1.5, 0.0)])
    spec = make_cip(encompassing_of(model), (30, 30, 30))
    seen, converged = [], posterior._converged_mass
    monkeypatch.setattr(posterior, "_converged_mass",
                        lambda *a: seen.append(converged(*a)) or seen[-1])
    kernel_grids, kernel = [], posterior._component_masses
    monkeypatch.setattr(posterior, "_component_masses",
                        lambda *a: kernel_grids.append(a[-1]) or kernel(*a))
    stopped = posterior_cone_mass(model, prepared(y, NullParams(1.5, 1.5), spec))
    assert stopped.estimate is None and stopped.upper_bound > 1e-12
    (grids,) = kernel_grids  # one evaluation: the starting grid and the 1.5 times finer one
    start, check = (e.shape[1] - 1 for e in grids)
    assert check == -(-3 * start // 2) and stopped.grid == check * posterior.PANEL_POINTS
    (*_, level), = seen
    assert stopped.doubling_error >= posterior.POSTERIOR_REL_TOL
    assert level <= posterior.truncation_floor(model)


def test_memory_budget_refuses_a_mass_that_is_not_negligible(monkeypatch):
    data = _c10_data()
    text = "mu1 < mu2 < mu3"
    whole = _exact_mass(data, text)
    assert whole.estimate > 0.1
    rows = order_components(parse_model_spec(text, J=3))[0].rows
    models = [parse_model_spec(t, J=3) for t in ("mu1 = mu2 = mu3", text)]
    compare(data, models)  # the prior mass and the plan are cached from here on
    # room for half the grid the mass settles on, so it stops before it
    # settles: the mass is refused, not dropped
    monkeypatch.setattr(posterior, "MAX_ELEMENTS", rows * whole.grid // 2)
    with pytest.raises(ValueError, match="did not settle within the memory budget"):
        _exact_mass(data, text)
    with pytest.raises(ValueError, match="posterior cone mass of mu1 < mu2 < mu3 did not settle"):
        compare(data, models, settings=Settings(prior_draws=2000), rng=RandomSource(4))
    # so is a prior mass whose grid cannot start, and the refusal is not cached
    posterior.prior_cone_mass.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match="prior cone mass of mu1 < mu2 < mu3 did not settle "
                                             "within the memory budget"):
            compare(data, models)
    assert posterior.prior_cone_mass.cache_info().currsize == 0


def test_skipped_nodes_are_restored_when_their_bound_matters(monkeypatch):
    # an order against the data, mass ~1.8e-12: the nodes lighter than
    # PRUNE_WEIGHT shift it by ~3e-9 relative, so some must be added back
    rng = np.random.default_rng(33)
    data = AnovaData(responses=np.concatenate([rng.normal(m, 0.5, size=12) for m in (2, 1, 0)]),
                     groups=np.repeat([1, 2, 3], 12))
    pruned = _exact_mass(data, "mu1 < mu2 < mu3").estimate
    monkeypatch.setattr(posterior, "PRUNE_WEIGHT", 0.0)
    every_node = _exact_mass(data, "mu1 < mu2 < mu3").estimate
    assert 1e-13 < every_node < 1e-11
    assert pruned == pytest.approx(every_node, rel=2 * posterior.POSTERIOR_REL_TOL, abs=0.0)


def test_memory_budget_chunks_nodes_then_caps_the_grid(monkeypatch):
    data = _j10_data()
    text = "{mu1, mu2, mu3, mu4, mu5} < {mu6, mu7, mu8, mu9, mu10}"
    whole = _exact_mass(data, text)
    rows = order_components(parse_model_spec(text, J=10))[0].rows
    # the one kernel call the mass makes holds the starting grid and the finer one
    ((*_, grids), _), = _kernel_calls(pytest.MonkeyPatch(), data, text)
    pair = sum(e.shape[1] - 1 for e in grids)  # cells per node
    assert pair * posterior.PANEL_POINTS > whole.grid
    # room for three nodes at a time on that pair, their cells padded to a
    # multiple of 8 as the kernel holds them
    row = rows * posterior.PANEL_POINTS
    monkeypatch.setattr(posterior, "MAX_ELEMENTS", row * _padded(3 * pair))
    nodes = [len(mu) for (_, mu, *_), _ in _kernel_calls(pytest.MonkeyPatch(), data, text)]
    assert len(nodes) > 1 and set(nodes[:-1]) == {3} and nodes[-1] <= 3
    chunked = _exact_mass(data, text)
    assert chunked.estimate == pytest.approx(whole.estimate, rel=1e-13, abs=0.0)
    assert chunked.grid == whole.grid
    # room for one node on the finest grid but not on it and the starting grid
    # together: the two grids go through one call each
    fine = whole.grid // posterior.PANEL_POINTS
    monkeypatch.setattr(posterior, "MAX_ELEMENTS", row * _padded(fine))
    split = _exact_mass(data, text)
    assert split.estimate == pytest.approx(whole.estimate, rel=1e-13, abs=0.0)
    assert split.grid == whole.grid
    # room for less than the grid the mass needs: refused, not a larger array
    monkeypatch.setattr(posterior, "MAX_ELEMENTS", rows * whole.grid // 2)
    with pytest.raises(ValueError, match="did not settle"):
        _exact_mass(data, text)


@pytest.mark.parametrize("text", [
    "{mu1, mu2, mu3, mu4, mu5} < {mu6, mu7, mu8, mu9, mu10}",
    "mu1 < mu2 < mu3 < mu4 < mu5 < mu6 < mu7 < mu8 < mu9 < mu10",
    "mu1 < {mu2, mu3, mu4, mu5, mu6} < mu7",
], ids=["5-vs-5", "10-chain", "5-wide middle"])
def test_every_kernel_call_fits_the_budget_on_its_padded_cells(monkeypatch, text):
    # the kernel pads a call's cells to a multiple of 8, so the node chunks and
    # the grid cap must count the padded cells: from room for one node on the
    # first check alone to room for a few nodes, no call holds more than
    # MAX_ELEMENTS, and the tightest budgets refuse the mass instead
    data = _j10_data()
    model = parse_model_spec(text, J=10)
    row = order_components(model)[0].rows * posterior.PANEL_POINTS
    held = []  # rows and cells of every kernel call
    kernel = posterior._component_masses

    def spy(comp, mu, s, grids):
        held.append((comp.rows, len(mu) * sum(e.shape[1] - 1 for e in grids)))
        return kernel(comp, mu, s, grids)

    monkeypatch.setattr(posterior, "_component_masses", spy)
    answered = 0
    for cells in (9, 12, 13, 16, 17, 20, 23, 31, 45, 61, 100):
        monkeypatch.setattr(posterior, "MAX_ELEMENTS", row * cells + cells)
        posterior.prior_cone_mass.cache_clear()
        try:
            prior_cone_mass(model, (20,) * 10)
            answered += _exact_mass(data, text).estimate is not None
        except ValueError as err:
            assert "did not settle within the memory budget" in str(err)
        assert all(rows * posterior.PANEL_POINTS * _padded(c) <= posterior.MAX_ELEMENTS
                   for rows, c in held), cells
        held.clear()
    posterior.prior_cone_mass.cache_clear()
    assert answered >= 5


def _padded(cells):
    """The cells a kernel call holds for this many: a multiple of 8."""
    return -(-cells // 8) * 8


def _rows_budget(rows):
    """The MAX_ELEMENTS under which a component of exactly this many rows is planned."""
    return rows * 2 * posterior.MIN_PANELS * posterior.PANEL_POINTS


def test_downset_budget_raises(monkeypatch):
    # a wide middle layer is the one the recursion enumerates: 34 down-sets
    # counting the empty one, its widest step 10 + 2 * 10 level rows
    middle = parse_model_spec("mu1 < {mu2, mu3, mu4, mu5, mu6} < mu7", J=10)
    comp, = order_components(middle)
    assert sum(len(lv) for lv in comp.levels) == 33 and comp.rows == 7 + 1 + 3 + 30
    order_components.cache_clear()  # the plan above was built under the default budget
    monkeypatch.setattr(posterior, "MAX_ELEMENTS", _rows_budget(comp.rows) + 1)
    assert order_components(middle)[0].levels == comp.levels
    order_components.cache_clear()
    monkeypatch.setattr(posterior, "MAX_ELEMENTS", _rows_budget(comp.rows) - 1)
    with pytest.raises(ValueError, match=f"needs more than {comp.rows - 1} rows per grid point"):
        order_components(middle)
    # free classes and separate components are each checked on their own:
    # 10 and 9 rows, within a budget of 10 that their sum is not
    chains = parse_model_spec("mu1 < mu2 < mu3, mu4 < mu5", J=6)
    monkeypatch.setattr(posterior, "MAX_ELEMENTS", _rows_budget(10))
    comps = order_components(chains)
    assert [sorted(c.cols) for c in comps] == [[0, 1, 2], [3, 4]]
    assert [c.rows for c in comps] == [10, 9]


def _layer(first, last):
    return "{" + ", ".join(f"mu{j}" for j in range(first, last + 1)) + "}"


@pytest.mark.parametrize("text, J, exact, middle", [
    (f"{_layer(1, 5)} < {_layer(6, 10)}", 10, 1.0 / 252.0, 0),
    (f"{_layer(1, 3)} < {_layer(4, 7)}", 7, 1.0 / 35.0, 0),
    (f"{_layer(1, 8)} < {_layer(9, 16)}", 16, 1.0 / math.comb(16, 8), 0),
    (f"{_layer(1, 10)} < {_layer(11, 20)}", 20, 1.0 / math.comb(20, 10), 0),
    # 3! x 1 x 3! of the 7! orders
    (f"{_layer(1, 3)} < mu4 < {_layer(5, 7)}", 7, 36.0 / 5040.0, 1),
    *[(f"mu1 < {_layer(2, J)}", J, 1.0 / J, 1) for J in (5, 14, 20)],
    *[(f"{_layer(1, J - 1)} < mu{J}", J, 1.0 / J, 1) for J in (5, 14, 20)],
], ids=["5-vs-5", "3-vs-4", "8-vs-8", "10-vs-10", "3-vs-1-vs-3", "1-vs-4", "1-vs-13", "1-vs-19",
        "4-vs-1", "13-vs-1", "19-vs-1"])
def test_end_layer_form_gives_exact_iid_masses(text, J, exact, middle):
    # identical classes: every linear extension is equally likely, so the mass
    # is their share of the J! orders; both end layers take one pass each, and
    # the recursion runs over the classes between them alone
    comps = order_components(parse_model_spec(text, J=J))
    assert len(comps) == 1 and len(comps[0].levels) == middle
    assert comps[0].bottom + comps[0].top == J - middle
    mass, *_ = posterior._converged_mass(comps, np.zeros((1, J)), np.ones(J), np.array([1.0]))
    assert mass == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_wide_end_layers_are_answered_and_a_wide_middle_is_refused_by_name(monkeypatch):
    rng = np.random.default_rng(14)
    for J in (14, 16, 20):
        data = AnovaData(responses=rng.normal(np.repeat(0.05 * np.arange(J), 20)),
                         groups=np.repeat(np.arange(1, J + 1), 20))
        for text in (f"mu1 < {_layer(2, J)}", f"{_layer(1, J - 1)} < mu{J}"):
            post = _exact_mass(data, text)
            assert post.estimate is not None and post.estimate > 0.0, text
    # a 13-antichain between two classes fits the memory budget; a 15-antichain
    # does not, and compare refuses it by name after answering the control order
    assert order_components(parse_model_spec(f"mu1 < {_layer(2, 14)} < mu15", J=15))[0].rows \
        == 5168
    data = AnovaData(responses=rng.normal(size=17 * 20), groups=np.repeat(np.arange(1, 18), 20))
    models = [parse_model_spec(f"mu1 < {_layer(2, 17)}", J=17, name="ctl"),
              parse_model_spec(f"mu1 < {_layer(2, 16)} < mu17", J=17, name="mid")]
    with pytest.raises(ValueError, match=r"order of mid over 17 classes needs more than 10922 "
                                         r"rows per grid point; its exact cone mass exceeds the "
                                         r"memory budget"):
        compare(data, models, settings=Settings(prior_draws=2000))


def _between_two(w, name=None):
    return parse_model_spec(f"mu1 < {_layer(2, w + 1)} < mu{w + 2}", J=w + 2, name=name)


@pytest.mark.parametrize("w", [13, 14])
def test_middle_antichains_within_the_memory_budget_give_exact_prior_masses(w):
    # identical classes: the two end classes are the least and the greatest of
    # the J, so the mass is 1 / (J (J - 1)); 5168 and 9888 rows of 10922
    J = w + 2
    prior = prior_cone_mass(_between_two(w), (20,) * J)
    assert prior.estimate == pytest.approx(1.0 / (J * (J - 1)), rel=1e-12, abs=0.0)
    assert prior.doubling_error < posterior.POSTERIOR_REL_TOL


def test_a_wide_middle_node_matches_the_two_dimensional_quadrature():
    # one node of a 13-antichain between two classes, every class its own mean and sd
    rng = np.random.default_rng(13)
    mu = rng.normal(0.0, 0.3, size=15) + np.r_[-1.0, np.zeros(13), 1.0]
    s = rng.uniform(0.5, 1.5, size=15)
    mass, change, *_ = posterior._converged_mass(order_components(_between_two(13)), mu[None], s,
                                                 np.array([1.0]))
    assert change < posterior.POSTERIOR_REL_TOL
    assert mass == pytest.approx(between_two_mass(mu, s), rel=1e-11, abs=0.0)


@pytest.mark.parametrize("w", [20, 30])
def test_middles_past_the_memory_budget_are_refused_before_their_down_sets(w):
    # 2^20 and 2^30 down-sets: the enumeration stops at the first level step
    # past the budget
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"order of mid over {w + 2} classes needs more than "):
        order_components(_between_two(w, name="mid"))
    assert time.perf_counter() - start < 1.0


def test_ten_vs_ten_block_order_is_answered():
    # 20 groups, the lower ten below the upper ten: no down-set is enumerated,
    # and the prior mass 1/184 756 clears 1/prior_draws
    rng = np.random.default_rng(20)
    data = AnovaData(responses=rng.normal(np.repeat(0.05 * np.arange(20), 20)),
                     groups=np.repeat(np.arange(1, 21), 20))
    model = parse_model_spec(f"{_layer(1, 10)} < {_layer(11, 20)}", J=20, name="blocks")
    report = compare(data, [model, parse_model_spec(_layer(1, 20)[1:-1], J=20, name="free")],
                     settings=Settings(prior_draws=200_000))
    bd = report.breakdowns[0]
    assert bd.prior_region.estimate == pytest.approx(1.0 / math.comb(20, 10), rel=1e-12, abs=0.0)
    assert bd.post_region.estimate > 0.0 and np.isfinite(bd.log_bf_c_vs_e)
    assert not bd.below_resolution


def _control_data(J, gap, seed):
    # groups of 20: a control at 0, one treatment at 0.2 and the rest gap apart above it
    rng = np.random.default_rng(seed)
    means = np.r_[0.0, 0.2, 0.2 + gap * np.arange(1, J - 1)]
    return AnovaData(responses=np.concatenate([rng.normal(m, 1.0, 20) for m in means]),
                     groups=np.repeat(np.arange(1, J + 1), 20))


def test_control_below_separated_treatments_matches_the_quadrature():
    # each well-separated class brings its own +-10 sd of panels, 20 / 4.5 of
    # them, so the 21 separate intervals of 22 classes need more than 4 starting
    # panels each, well within the memory budget
    data = _control_data(22, 5.0, seed=1)
    model = parse_model_spec(f"mu1 < {_layer(2, 22)}", J=22)
    spec = make_cip(encompassing_of(model), data.group_sizes)
    prep = prepared(data.responses, estimate_null_params(data), spec)
    post = posterior_cone_mass(model, prep)
    assert post.grid > 1.5 * 21 * 4 * posterior.PANEL_POINTS
    assert post.doubling_error < posterior.POSTERIOR_REL_TOL
    # the oracle takes the class means minus alpha0 and their sds given eta
    # unscaled, from the conjugate update: with k = n / (q + 1) the prior's
    # share is k / (k + eta), and the sd sigma sqrt(that share) / sqrt(n_c)
    eta, log_w = prep.eta_weights
    share = prep.k / (prep.k + eta)
    mu = share[:, None] * prep.rbar
    s = np.sqrt(prep.s0sq * eta / (1.0 - eta) * share)[:, None] / np.sqrt(prep.sizes)
    assert post.estimate == pytest.approx(below_all_mass(mu, s, np.exp(log_w)), rel=1e-11, abs=0.0)


@pytest.mark.parametrize("gap", [2.0, 5.0])
def test_control_below_forty_treatments_is_answered_fast(gap):
    data = _control_data(40, gap, seed=40)
    models = [parse_model_spec(f"mu1 < {_layer(2, 40)}", J=40, name="ctl"),
              parse_model_spec(_layer(1, 40)[1:-1], J=40, name="free")]
    start = time.perf_counter()
    report = compare(data, models)
    assert time.perf_counter() - start < 1.0
    bd = report.breakdowns[0]
    assert bd.prior_region.estimate == pytest.approx(1.0 / 40.0, rel=1e-12, abs=0.0)
    assert bd.post_region.estimate > 0.5 and not bd.below_resolution


def test_contradicted_chain_stops_after_its_first_pair(monkeypatch):
    # a 6-chain against means 6 class sds apart the other way: the pair bound
    # is loose, and both starting grids put the mass under the floor
    rng = np.random.default_rng(1)
    y = np.concatenate([rng.normal(-6.0 * j / np.sqrt(20.0), 1.0, 20) for j in range(6)])
    data = AnovaData(responses=y, groups=np.repeat(np.arange(1, 7), 20))
    model = parse_model_spec(_chain(6), J=6)
    spec = make_cip(encompassing_of(model), data.group_sizes)
    prep = prepared(data.responses, estimate_null_params(data), spec)
    prep.eta_weights  # the evidence rule, outside the timing
    kernel_grids, kernel = [], posterior._component_masses
    monkeypatch.setattr(posterior, "_component_masses",
                        lambda *a: kernel_grids.append(a[-1]) or kernel(*a))
    start = time.perf_counter()
    post = posterior_cone_mass(model, prep)
    assert time.perf_counter() - start < 0.1
    assert post.estimate is None and post.upper_bound > posterior.truncation_floor(model)
    (grids,) = kernel_grids
    assert post.grid == (grids[1].shape[1] - 1) * posterior.PANEL_POINTS


def test_equal_models_share_one_read_only_plan():
    text = "{mu1, mu2, mu3, mu4, mu5} < {mu6, mu7, mu8, mu9, mu10}"
    plan = order_components(parse_model_spec(text, J=10, name="split"))
    assert order_components(parse_model_spec(text, J=10, name="other")) is plan
    assert len(plan) == 1
    assert not plan[0].cols.flags.writeable
    assert all(isinstance(lv, tuple) for lv in plan[0].levels)


def _n_order_data():
    # unbalanced, unequal means: the "N" order's levels mix widths, so the
    # reference's padded arrays hold pad entries
    rng = np.random.default_rng(5)
    sizes = (4, 9, 6, 11)
    y = np.concatenate([m + rng.standard_normal(n) for m, n in zip((0.3, -0.2, 0.9, 0.4), sizes)])
    return AnovaData(responses=y, groups=np.repeat([1, 2, 3, 4], sizes))


def _spread_data():
    # classes 25 sd apart: the starting grid takes 14 panels, so a node's cells
    # are not a multiple of the BLAS kernels' 4 or 8 rows
    rng = np.random.default_rng(8)
    y = np.concatenate([rng.normal(m, 1.0, size=10) for m in (0.0, 8.0, 16.0)])
    return AnovaData(responses=y, groups=np.repeat([1, 2, 3], 10))


def _kernel_calls(monkeypatch, data, text):
    """Inputs and outputs of every _component_masses call one exact mass makes."""
    calls = []
    kernel = posterior._component_masses

    def spy(comp, mu, s, grids):
        out = kernel(comp, mu, s, grids)
        calls.append(((comp, mu, s, grids), out))
        return out

    monkeypatch.setattr(posterior, "_component_masses", spy)
    _exact_mass(data, text)
    monkeypatch.undo()
    return calls


def _pop2l_data(rep):
    scenario, _ = make_preset("pop2l", n_per_group=50, reps=rep + 1)
    return generate_scenario(scenario, rep)


def _pop3_benchmark_data(seed):
    # the pop3 dataset the benchmark's pop3-compare workload draws from its seed
    rng = np.random.default_rng(seed)
    y = np.concatenate([m + 1.55 * rng.standard_normal(25) for m in (2.23, 1.33, 3.23, 2.33, 3.23)])
    return AnovaData(responses=y, groups=np.repeat(np.arange(1, 6), 25))


@pytest.mark.parametrize("make_data, text, cells", [
    (_c07_data, MODEL_STRINGS["M2"], None),
    (_c07_data, MODEL_STRINGS["M3"], None),
    (_j10_data, "mu1 < {mu2, mu3, mu4, mu5, mu6} < mu7", None),
    (_n_order_data, "mu1 < mu3, mu2 < mu3, mu2 < mu4", None),
    (_spread_data, "mu1 < mu2 < mu3", None),
    # cell counts off a multiple of 8, so every row carries padding: 17 nodes
    # of a 9-panel starting grid and its 14-panel check, and 17 nodes of 8 and 12
    (lambda: _pop2l_data(4), MODEL_STRINGS["M2"], 17 * (9 + 14)),
    (lambda: _pop2l_data(11), MODEL_STRINGS["M2"], 17 * (8 + 12)),
    # the benchmark's layout: 23 nodes of 8 + 12 panels, 460 cells padded to 464
    (lambda: _pop3_benchmark_data(7401), MODEL_STRINGS["M2"], 23 * (8 + 12)),
], ids=["pop3 M2", "pop3 M3", "j10 middle", "N", "spread", "pop2l 9 panels", "pop2l odd nodes",
        "pop3 benchmark"])
def test_row_view_kernel_matches_the_gather_reference_bit_for_bit(monkeypatch, make_data, text,
                                                                  cells):
    calls = _kernel_calls(monkeypatch, make_data(), text)
    assert sum(len(grids) for (*_, grids), _ in calls) >= 2  # at least two grids
    if cells is not None:
        (_, mu, _, grids), _ = calls[0]
        assert len(mu) * sum(e.shape[1] - 1 for e in grids) == cells and cells % 8
    for (comp, mu, s, grids), out in calls:
        for edges, masses in zip(grids, out, strict=True):
            assert np.array_equal(masses, component_masses_reference(comp, mu, s, edges))


@pytest.mark.parametrize("text", [
    "{mu1, mu2, mu3, mu4, mu5} < {mu6, mu7, mu8, mu9, mu10}",
    "mu1 < mu2 < mu3 < mu4 < mu5 < mu6 < mu7 < mu8 < mu9 < mu10",
    "{mu1, mu2, mu3, mu4, mu5, mu6, mu7, mu8, mu9} < mu10",
    "{mu1, mu2, mu3} < mu4 < mu5 < {mu6, mu7, mu8, mu9, mu10}",
], ids=["5-vs-5", "10-chain", "9-vs-1", "3-vs-1-vs-1-vs-5"])
def test_kernel_peak_memory_is_within_its_row_count(monkeypatch, text):
    # rows sizes the node chunks and bounds the grid, so it must bound what one
    # call holds: rows arrays of N = nodes x grid floats
    (comp, mu, s, grids), _ = _kernel_calls(monkeypatch, _j10_data(), text)[-1]
    N = sum(e.shape[0] * (e.shape[1] - 1) for e in grids) * posterior.PANEL_POINTS
    tracemalloc.start()
    try:
        posterior._component_masses(comp, mu, s, grids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * comp.rows * N


def test_region_prob_sides_and_counts():
    m = parse_model_spec("mu1 < mu2", J=2)
    gamma = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 2.0], [0.0, 3.0], [0.0, -2.0]])
    prior = PriorDraws(T=5, gamma=gamma, eta=np.full(5, 0.5), sigma2=np.ones(5))
    post = PosteriorDraws(gamma=gamma, eta=np.full(5, 0.5))
    for draws, side in ((prior, "prior"), (post, "posterior")):
        est = region_prob(draws, m)
        assert est.side == side
        assert est.hits == 3 and est.total == 5
        assert est.estimate == pytest.approx(0.6)
    free = parse_model_spec("mu1, mu2", J=2)
    est = region_prob(prior, free)
    assert est.estimate == 1.0 and est.hits == 5
    wrong_dim = parse_model_spec("mu1 < mu2 < mu3", J=3)
    with pytest.raises(ValueError):
        region_prob(prior, wrong_dim)


def test_prior_region_symmetry_and_completeness():
    rng = RandomSource(60).generator()
    me = parse_model_spec("mu1, mu2, mu3", J=3)
    spec = make_cip(encompassing_of(me), (7, 7, 7))
    draws = cip_sample(NullParams(0.0, 1.0), spec, 40_000, rng)
    below = region_prob(draws, parse_model_spec("mu2 < mu1", J=3))
    se = np.sqrt(0.25 / draws.T)
    assert abs(below.estimate - 0.5) < 4 * se
    orders = ["mu1 < mu2 < mu3", "mu1 < mu3 < mu2", "mu2 < mu1 < mu3",
              "mu2 < mu3 < mu1", "mu3 < mu1 < mu2", "mu3 < mu2 < mu1"]
    total = sum(region_prob(draws, parse_model_spec(s, J=3)).hits for s in orders)
    assert total == draws.T  # ties have measure zero


def _chain(q):
    return " < ".join(f"mu{j}" for j in range(1, q + 1))


def _orthant_3(sizes):
    """P(X1 < X2 < X3) for independent N(0, 1/n_c): the quadrant mass of the two differences."""
    v = 1.0 / np.asarray(sizes, dtype=float)
    rho = -v[1] / np.sqrt((v[0] + v[1]) * (v[1] + v[2]))
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


@pytest.mark.parametrize("text, sizes, exact", [
    (_chain(5), (25,) * 5, 1.0 / 120.0),
    (f"{_layer(1, 5)} < {_layer(6, 10)}", (25,) * 10, 1.0 / 252.0),
    # class sizes 25/25/50/25: the chain's three differences are trivariate
    # normal with correlations -1/2, -1/sqrt(3) and 0, so the orthant mass is
    # 1/8 + (sum of their arcsines) / (4 pi)
    (MODEL_STRINGS["M3"], (25,) * 5,
     1.0 / 12.0 - math.asin(1.0 / math.sqrt(3.0)) / (4.0 * math.pi)),
    *[(_chain(q), (25,) * q, 1.0 / math.factorial(q)) for q in range(3, 17)],
    (f"{_layer(1, 8)} < {_layer(9, 16)}", (20,) * 16, 1.0 / 12_870.0),
    # the "N" order a < c > b < d has 5 of the 24 linear extensions
    ("mu1 < mu3, mu2 < mu3, mu2 < mu4", (25,) * 4, 5.0 / 24.0),
    ("mu1 < mu2 < mu3, mu4 < mu5", (25,) * 5, 1.0 / 12.0),
    (f"mu1 < {_layer(2, 5)}", (3, 9, 1, 20, 7), None),
    (f"{_layer(1, 4)} < mu5", (3, 9, 1, 20, 7), None),
    (_chain(3), (3, 40, 7), _orthant_3((3, 40, 7))),
], ids=["5-chain", "5-vs-5", "pop3 M3", *[f"chain-{q}" for q in range(3, 17)], "8-vs-8", "N",
        "two components", "lowest of 5", "highest of 5", "3-chain unbalanced"])
def test_prior_cone_mass_matches_exact_value(text, sizes, exact):
    model = parse_model_spec(text, J=len(sizes))
    spec = make_cip(encompassing_of(model), sizes)
    got = prior_cone_mass(model, tuple(int(n) for n in spec.sizes))
    if exact is None:
        # one class below (or above) four unequal others: the top (or bottom)
        # layer in one pass
        exact = _extreme_share(spec.sizes, low=text.startswith("mu1 <"))
    assert abs(got.estimate - exact) <= 1e-12 * exact
    assert got.doubling_error < posterior.POSTERIOR_REL_TOL


def _extreme_share(sizes, low):
    """P(class 0 is the lowest, or the last class the highest) of independent N(0, 1/n_c) means.

    Both are int f(x) prod_r P(X_r > x) dx over that class's density f, the
    second by the symmetry of centred normals: a trapezoid sum over +-12 sd,
    which converges geometrically for a smooth integrand that vanishes at both
    ends.
    """
    s = 1.0 / np.sqrt(sizes)
    me, rest = (s[0], s[1:]) if low else (s[-1], s[:-1])
    x = np.linspace(-12.0, 12.0, 4001) * me
    f = np.exp(-0.5 * (x / me) ** 2) / (me * np.sqrt(2.0 * np.pi))
    tail = np.prod([stats.norm.sf(x / r) for r in rest], axis=0)
    return float(np.sum(f * tail) * (x[1] - x[0]))


def test_log_bf_is_composed_from_the_cone_masses():
    up = parse_model_spec("mu1 < mu2 < mu3", J=3, name="up")
    settings = Settings(prior_draws=20_000)
    data = _c10_data()
    bd = bf_k0(group_stats(data), [up], estimate_null_params(data), settings)[0]
    prior, post = bd.prior_region, bd.post_region
    assert not bd.below_resolution and bd.resolution_bound is None
    assert bd.log_bf_c_vs_e == np.log(post.estimate) - np.log(prior.estimate)
    # steeply decreasing means (the data of test_unresolved_mass_is_flagged_with_a_bound):
    # no log BF, only the bound of the unresolved posterior mass over the prior's
    rng = np.random.default_rng(33)
    y = np.concatenate([rng.normal(m, 0.3, size=12) for m in (3.0, 1.5, 0.0)])
    data = AnovaData(responses=y, groups=np.repeat([1, 2, 3], 12))
    bd = bf_k0(group_stats(data), [up], NullParams(1.5, 1.5), settings)[0]
    prior, post = bd.prior_region, bd.post_region
    assert bd.below_resolution and post.estimate is None
    assert bd.log_bf_c_vs_e == -np.inf
    assert bd.resolution_bound == post.log_upper_bound - np.log(prior.estimate)


def test_estimate_dataclass_validation():
    with pytest.raises(ValueError):
        RegionProbEstimate(estimate=0.5, hits=2, total=5, side="prior")
    with pytest.raises(ValueError):
        RegionProbEstimate(estimate=0.4, hits=2, total=5, side="elsewhere")
    with pytest.raises(ValueError):
        ChainDraws(kept=5, gamma=np.zeros((5, 1)), eta=np.full(5, 0.5),
                   acceptance_rate=0.0, burnin=0)
    with pytest.raises(ValueError):
        ChainDraws(kept=5, gamma=np.zeros((5, 1)), eta=np.full(5, 0.5),
                   acceptance_rate=1.0, burnin=0)
