import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import minimize_scalar
from scipy.special import expit, logsumexp, roots_jacobi

from cipanova.compare import Settings, compare
from cipanova.constraints import encompassing_of, parse_model_spec
from cipanova.data import AnovaData
from cipanova.evidence import (
    EVIDENCE_TOL,
    EvidenceResult,
    gauss_chebyshev,
    log_marginal_quadrature,
    null_loglik,
)
from cipanova.gaussian import RandomSource
from cipanova.intrinsic import NullParams, estimate_null_params, make_cip
from cipanova.scenarios import MODEL_STRINGS, generate_scenario, make_preset
from oracles import (
    cip_sample,
    dense_spec,
    exact_class_sums,
    integrand_log,
    log_marginal_chib,
    log_marginal_trapezoid,
    prepared,
)


def _dataset(seed=42, J=3, n_per_group=8, means=(0.0, 0.5, 1.0), sigma=1.0):
    rng = np.random.default_rng(seed)
    y = np.concatenate([rng.normal(m, sigma, size=n_per_group) for m in means])
    data = AnovaData(responses=y, groups=np.repeat(np.arange(1, J + 1), n_per_group))
    theta0 = estimate_null_params(data)
    me = parse_model_spec(", ".join(f"mu{j}" for j in range(1, J + 1)), J=J)
    spec = make_cip(encompassing_of(me), data.group_sizes)
    return data.responses, theta0, spec


def _sized_case(sizes, text, offset=0.0, seed=4, step=0.3):
    # unequal group means, so the class statistics differ from the grand mean
    rng = np.random.default_rng(seed)
    y = offset + np.concatenate([rng.normal(step * j, 1.0, k) for j, k in enumerate(sizes)])
    J = len(sizes)
    data = AnovaData(responses=y, groups=np.repeat(np.arange(1, J + 1), sizes))
    spec = make_cip(encompassing_of(parse_model_spec(text, J=J)), data.group_sizes)
    return data.responses, estimate_null_params(data), spec


@pytest.mark.parametrize("make_case", [
    _dataset,
    lambda: _sized_case((1, 7749, 3, 100, 5), "mu1 = mu3, mu2, mu4, mu5"),
    lambda: _sized_case((25, 25, 50, 25), "mu2 = mu4, mu1, mu3"),
    lambda: _sized_case((500, 500, 500, 500), "mu1, mu2, mu3, mu4"),
    lambda: _sized_case((6, 9, 7), "mu1, mu2, mu3", offset=1e8),
], ids=["balanced-24", "merged-singleton-7858", "tie-125", "balanced-2000", "offset-1e8"])
def test_prepared_integrand_matches_direct_form(make_case):
    y, theta0, spec = make_case()
    prep = prepared(y, theta0, spec)
    for eta in np.linspace(0.02, 0.98, 25):
        direct = integrand_log(float(eta), y, theta0, spec)
        cached = float(prep.loglik(float(eta)))
        assert cached == pytest.approx(direct, abs=1e-10 * max(1.0, abs(direct)))


def test_integrand_matches_sigma_form():
    # same value through the two-step parameterization sigma2 = s0^2 eta/(1-eta)
    y, theta0, spec = _dataset(seed=5, n_per_group=4)
    dense = dense_spec(spec)
    s0sq = theta0.sigma0**2
    for eta in (0.1, 0.5, 0.9):
        sigma2 = s0sq * eta / (1.0 - eta)
        cov = sigma2 * np.eye(spec.n) + (sigma2 + s0sq) * dense.Z @ dense.winv @ dense.Z.T
        want = stats.multivariate_normal(mean=theta0.alpha0 * np.ones(spec.n),
                                         cov=cov).logpdf(y)
        got = integrand_log(eta, y, theta0, spec)
        assert got == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))


def test_integrand_dense_small_oracle():
    # n=3 null-like design, dense 3x3 covariance
    y = np.array([0.2, -0.4, 1.1])
    theta0 = NullParams(alpha0=0.3, sigma0=0.8)
    m0 = parse_model_spec("mu1 = mu2 = mu3", J=3)
    spec = make_cip(encompassing_of(m0), (1, 1, 1))
    eta = 0.37
    s0sq = theta0.sigma0**2
    a = s0sq * eta / (1.0 - eta)
    b = s0sq / (1.0 - eta)
    dense = dense_spec(spec)
    cov = a * np.eye(3) + b * dense.Z @ dense.winv @ dense.Z.T
    want = stats.multivariate_normal(mean=theta0.alpha0 * np.ones(3), cov=cov).logpdf(y)
    assert integrand_log(eta, y, theta0, spec) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("change", [
    lambda y: y[:-1],
    lambda y: np.append(y, 0.0),
    lambda y: y.reshape(1, -1),
    lambda y: np.where(np.arange(y.size) == 3, np.nan, y),
    lambda y: np.where(np.arange(y.size) == 0, -np.inf, y),
], ids=["short", "long", "matrix", "nan", "inf"])
def test_prepared_integrand_refuses_a_response_vector_off_the_design(change):
    y, theta0, spec = _dataset()
    with pytest.raises(ValueError, match="^y must be a finite vector matching the design rows$"):
        prepared(change(y), theta0, spec)


def test_integrand_domain():
    y, theta0, spec = _dataset()
    with pytest.raises(ValueError):
        integrand_log(0.0, y, theta0, spec)
    with pytest.raises(ValueError):
        integrand_log(1.0, y, theta0, spec)
    prep = prepared(y, theta0, spec)
    with pytest.raises(ValueError):
        prep.loglik(np.array([0.5, 1.0]))


def test_quadrature_against_trapezoid_oracle():
    # 1e6-point trapezoid after the arcsine substitution that flattens the
    # Beta(1/2,1/2) weight; needs noisy y so the integrand vanishes at both ends
    rng = np.random.default_rng(10)
    y = 0.7 + 0.9 * rng.standard_normal(9)
    data = AnovaData(responses=y, groups=np.repeat([1, 2, 3], 3))
    theta0 = estimate_null_params(data)
    m0 = parse_model_spec("mu1 = mu2 = mu3", J=3)
    spec = make_cip(encompassing_of(m0), data.group_sizes)
    prep = prepared(y, theta0, spec)
    u = np.linspace(1e-7, 1.0 - 1e-7, 1_000_001)
    eta = np.sin(0.5 * np.pi * u) ** 2
    ll = prep.loglik(eta)
    logw = np.full(u.size, np.log(u[1] - u[0]))
    logw[0] -= np.log(2.0)
    logw[-1] -= np.log(2.0)
    trap = float(logsumexp(ll + logw))
    quad = log_marginal_quadrature(y, theta0, spec, nodes=64)
    assert quad.log_marginal == pytest.approx(trap, abs=1e-6)


FREE5 = "mu1, mu2, mu3, mu4, mu5"


@pytest.mark.parametrize("make_case", [
    lambda: _sized_case((25,) * 5, FREE5, seed=11, step=0.2),
    lambda: _sized_case((400,) * 5, FREE5, seed=11, step=0.2),
    lambda: _sized_case((2000,) * 5, FREE5, seed=11, step=0.2),
    lambda: _sized_case((10_000,) * 5, FREE5, seed=11, step=0.2),
    lambda: _sized_case((1, 999, 1500, 2000, 2500, 3000, 2500, 2500, 2500, 2500),
                        ", ".join(f"mu{j}" for j in range(1, 11)), seed=5, step=0.02),
    lambda: _sized_case((1, 7749, 3, 100, 5), "mu1 = mu3, mu2, mu4, mu5"),
    lambda: _sized_case((50,) * 3, "mu1, mu2, mu3", seed=11, step=100.0),
], ids=["trend-125", "trend-2000", "trend-10000", "trend-50000", "singleton-20000",
        "merged-singleton-7858", "near-separated-150"])
def test_evidence_matches_trapezoid_reference_at_any_n(make_case):
    # the settled rule against a brute-force trapezoid in logit eta; the
    # near-separated case puts the integrand's peak at eta ~ 1e-4
    prep = prepared(*make_case())
    ev = prep.evidence
    assert ev.node_doubling_delta < EVIDENCE_TOL
    assert abs(ev.log_marginal - log_marginal_trapezoid(prep)) < EVIDENCE_TOL


def test_quadrature_against_prior_monte_carlo():
    y, theta0, spec = _dataset(seed=42, n_per_group=4)
    quad = log_marginal_quadrature(y, theta0, spec)
    T = 200_000
    draws = cip_sample(theta0, spec, T, RandomSource(123).generator())
    resid = y[None, :] - draws.gamma @ dense_spec(spec).Z.T
    ll = -0.5 * (spec.n * np.log(2.0 * np.pi) + spec.n * np.log(draws.sigma2)
                 + np.einsum("ij,ij->i", resid, resid) / draws.sigma2)
    mc = float(logsumexp(ll) - np.log(T))
    w = np.exp(ll - ll.max())
    se = float(np.std(w) / (np.mean(w) * np.sqrt(T)))
    assert abs(quad.log_marginal - mc) < 4.0 * se + 1e-3


def test_quadrature_node_doubling_reported_small():
    y, theta0, spec = _dataset(seed=1, n_per_group=50)
    res = log_marginal_quadrature(y, theta0, spec, nodes=64)
    assert res.nodes == 64
    assert isinstance(res.node_doubling_delta, float)
    assert res.node_doubling_delta < 1e-8
    with pytest.raises(ValueError):
        log_marginal_quadrature(y, theta0, spec, nodes=4)


def test_marginal_scale_identity():
    y, theta0, spec = _dataset(seed=9)
    base = log_marginal_quadrature(y, theta0, spec).log_marginal
    for c in (0.5, 3.0):
        scaled = NullParams(alpha0=c * theta0.alpha0, sigma0=c * theta0.sigma0)
        got = log_marginal_quadrature(c * y, scaled, spec).log_marginal
        assert got == pytest.approx(base - spec.n * np.log(c), abs=1e-9)


def test_marginal_shift_invariance():
    y, theta0, spec = _dataset(seed=9)
    base = log_marginal_quadrature(y, theta0, spec).log_marginal
    shifted = NullParams(alpha0=theta0.alpha0 + 4.0, sigma0=theta0.sigma0)
    got = log_marginal_quadrature(y + 4.0, shifted, spec).log_marginal
    assert got == pytest.approx(base, abs=1e-12)


def test_eta_mode_beats_grid():
    y, theta0, spec = _dataset(seed=2, n_per_group=20)
    res = log_marginal_quadrature(y, theta0, spec)
    prep = prepared(y, theta0, spec)
    grid = np.linspace(0.0, 1.0, 131)[1:-1]
    assert float(prep.loglik(res.eta_mode)) >= float(np.max(prep.loglik(grid))) - 1e-9
    assert 0.0 < res.eta_mode < 1.0


def _c07_case():
    scenario, _ = make_preset("pop3", n_per_group=25, reps=1, base_seed=2026)
    return generate_scenario(scenario, 0), MODEL_STRINGS["M3"]


def _c10_case():
    rng = np.random.default_rng(77)
    y = np.concatenate([rng.normal(m, 1.0, 12) for m in (0.0, 0.6, 1.2)])
    return AnovaData(responses=y, groups=np.repeat([1, 2, 3], 12)), "mu1 < mu2 < mu3"


def _large_n_case():
    # ten unbalanced groups with a singleton, n = 20000
    rng = np.random.default_rng(5)
    sizes = (1, 999, 1500, 2000, 2500, 3000, 2500, 2500, 2500, 2500)
    y = np.concatenate([rng.normal(0.02 * j, 1.0, k) for j, k in enumerate(sizes)])
    data = AnovaData(responses=y, groups=np.repeat(np.arange(1, 11), sizes))
    return data, ", ".join(f"mu{j}" for j in range(1, 11))


@pytest.mark.parametrize("make_case", [_c07_case, _c10_case, _large_n_case],
                         ids=["c07", "c10", "large-n"])
def test_eta_mode_matches_bounded_minimizer(make_case):
    data, text = make_case()
    theta0 = estimate_null_params(data)
    spec = make_cip(encompassing_of(parse_model_spec(text, J=data.J)), data.group_sizes)
    prep = prepared(data.responses, theta0, spec)
    mode = log_marginal_quadrature(data.responses, theta0, spec).eta_mode
    ref = minimize_scalar(lambda e: -float(prep.loglik(e)), bounds=(1e-6, 1.0 - 1e-6),
                          method="bounded", options={"xatol": 1e-12}).x
    assert abs(mode - ref) < 1e-7
    grid = np.linspace(0.0, 1.0, 131)[1:-1]
    assert float(prep.loglik(mode)) >= float(np.max(prep.loglik(grid)))


@pytest.mark.parametrize("n", [8, 64, 128, 4096])
def test_gauss_chebyshev_matches_scipy_jacobi_rule(n):
    x, w = gauss_chebyshev(n)
    want_x, _ = roots_jacobi(n, -0.5, -0.5)
    assert np.max(np.abs(x - want_x)) <= 1e-15
    assert np.all(w == np.pi / n)


def test_chib_matches_quadrature_and_is_deterministic():
    y, theta0, spec = _dataset(seed=3, n_per_group=12)
    quad = log_marginal_quadrature(y, theta0, spec).log_marginal
    a = log_marginal_chib(y, theta0, spec, N=20_000, rng=RandomSource(7).generator())
    b = log_marginal_chib(y, theta0, spec, N=20_000, rng=RandomSource(7).generator())
    assert a.log_marginal == b.log_marginal  # same stream, same value
    assert a.se is not None and a.se > 0.0
    assert abs(a.log_marginal - quad) < max(0.05, 3.0 * a.se)
    c = log_marginal_chib(y, theta0, spec, N=20_000, rng=RandomSource(8).generator())
    assert c.log_marginal != a.log_marginal


def test_chib_se_shrinks_at_root_n_rate():
    y, theta0, spec = _dataset(seed=6, n_per_group=10)
    small = log_marginal_chib(y, theta0, spec, N=20_000, rng=RandomSource(1).generator())
    big = log_marginal_chib(y, theta0, spec, N=80_000, rng=RandomSource(2).generator())
    ratio = small.se / big.se
    # quadrupling N should halve the se, within a factor 1.5 band
    assert 2.0 / 1.5 < ratio < 2.0 * 1.5


def test_chib_validates_inputs():
    y, theta0, spec = _dataset()
    with pytest.raises(ValueError):
        log_marginal_chib(y, theta0, spec, N=100, rng=RandomSource(0).generator())


def test_evidence_result_requires_finite_value():
    with pytest.raises(ValueError):
        EvidenceResult(log_marginal=np.inf, nodes=64, eta_mode=0.5,
                       node_doubling_delta=0.0)


def test_log_bf_direction_and_errors():
    # data far from the null center: the spread-out prior wins, by either route
    rng = np.random.default_rng(44)
    theta0 = NullParams(alpha0=0.0, sigma0=1.0)
    m0 = parse_model_spec("mu1 = mu2", J=2)
    spec = make_cip(encompassing_of(m0), (5, 5))
    y_far = 5.0 + 0.3 * rng.standard_normal(10)
    null = null_loglik(y_far, theta0)
    quad = log_marginal_quadrature(y_far, theta0, spec).log_marginal - null
    assert quad > 0.0
    with pytest.raises(TypeError):
        Settings(evidence_method="quadrature")  # quadrature is the only route
    chib = log_marginal_chib(y_far, theta0, spec, N=20_000,
                             rng=RandomSource(3).generator()).log_marginal - null
    assert abs(chib - quad) < 0.05


def test_null_loglik_closed_form():
    y = np.array([1.0, 2.0, 4.0])
    theta0 = NullParams(alpha0=2.0, sigma0=1.5)
    rr = float(np.sum((y - 2.0) ** 2))
    want = float(np.sum(stats.norm(loc=2.0, scale=1.5).logpdf(y)))
    assert null_loglik(y, theta0) == pytest.approx(want, abs=1e-12)
    assert rr == 5.0


def _load_benchmark_oracle():
    # the benchmark's reference integral, written without cipanova
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_ORACLE = _load_benchmark_oracle()


@st.composite
def _oracle_cases(draw):
    """J = 2-10 unbalanced groups, often with a singleton, mapped by y -> a y + b."""
    J = draw(st.integers(2, 10))
    sizes = draw(st.lists(st.integers(1, 40), min_size=J, max_size=J))
    if draw(st.booleans()):
        sizes[draw(st.integers(0, J - 1))] = 1
    assume(max(sizes) >= 2)  # every group a singleton leaves the free model no residual
    spread = draw(st.sampled_from([0.0, 1e3]) | st.floats(1e-3, 1e3))  # in noise sds
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    means = spread * rng.random(J)
    z = np.concatenate([m + rng.standard_normal(n) for m, n in zip(means, sizes)])
    a = 10.0 ** draw(st.floats(-6, 6))
    b = draw(st.floats(-1e8, 1e8))
    groups = np.repeat(np.arange(1, J + 1), sizes)
    pair = draw(st.permutations(range(1, J + 1)))[:2]
    return z, a, b, groups, pair


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_oracle_cases())
def test_evidence_agrees_with_the_benchmark_oracle_or_is_flagged(case):
    z, a, b, groups, pair = case
    J = int(groups.max())
    y = a * z + b
    free = parse_model_spec(", ".join(f"mu{j}" for j in range(1, J + 1)), J=J, name="free")
    tie = parse_model_spec(f"mu{pair[0]} = mu{pair[1]}", J=J, name="tie")
    report = compare(AnovaData(responses=y, groups=groups), [free, tie])
    # a y + b is rounded to the float spacing at its magnitude, which moves
    # each datum by up to eps of the data's spread (as in test_cone_properties)
    eps = np.finfo(float).eps * (abs(b) + a * np.max(np.abs(z))) / (a * np.std(z))
    tol = y.size * eps + 2 * EVIDENCE_TOL
    for model, bd in zip((free, tie), report.breakdowns):
        if model.is_null:  # the tie at J = 2
            assert bd.log_bf_c_vs_0 == 0.0
            continue
        want = BENCH_ORACLE.log_bf_vs_null(y, groups, model.classes)
        if bd.evidence.node_doubling_delta < EVIDENCE_TOL:
            assert abs(bd.log_bf_c_vs_0 - want) <= tol, (model.name, bd.log_bf_c_vs_0, want)


def _separated_case(seed, spread):
    """Three groups of 30/50/20 with unit noise and means spread * U(0, 1) noise sds apart."""
    sizes = (30, 50, 20)
    rng = np.random.default_rng(seed)
    means = spread * rng.random(3)
    y = np.concatenate([rng.normal(m, 1.0, k) for m, k in zip(means, sizes)])
    data = AnovaData(responses=y, groups=np.repeat([1, 2, 3], sizes))
    theta0 = estimate_null_params(data)
    spec = make_cip(encompassing_of(parse_model_spec("mu1, mu2, mu3", J=3)), sizes)
    return y, theta0, spec


@pytest.mark.parametrize("spread", [1e5, 1e6, 1e7, 1e8])
def test_loglik_reads_a_directly_summed_within_class_sum_of_squares(spread):
    # r'r - B, the within-class sum of squares, cancels once the means are far
    # apart; the integrand must match the closed form on SSW and B summed
    # exactly, since rounding y - alpha0 would move each response
    for seed in range(5):
        y, theta0, spec = _separated_case(seed, spread)
        ssw, B, _ = exact_class_sums(y, spec, theta0.alpha0)
        n, q, s0sq = spec.n, spec.q, theta0.sigma0**2
        k = n / (q + 1)
        prep = prepared(y, theta0, spec)
        x = ssw / ((n - q) * s0sq)
        for eta in np.array([0.5, 1.0, 2.0]) * x / (1.0 + x):  # around the mode
            a = s0sq * eta / (1.0 - eta)
            want = -0.5 * (n * math.log(2.0 * math.pi) + n * math.log(a)
                           + q * math.log1p(k / eta) + (ssw + B * eta / (eta + k)) / a)
            assert float(prep.loglik(eta)) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_eta_mode_is_right_at_any_separation():
    # from 1e5 sds the node doubling reaches its cap, and the mode, which no
    # longer starts from the nodes, must still be found: against a dense scan
    # in logit eta refined by a bounded minimiser
    for spread in np.logspace(4, 8, 7):
        for seed in range(15):
            y, theta0, spec = _separated_case(seed, spread)
            prep = prepared(y, theta0, spec)
            t = np.linspace(-80.0, 30.0, 11_001)
            i = int(np.argmax(prep.loglik(expit(t))))
            ref = expit(minimize_scalar(lambda u: -float(prep.loglik(expit(u))),
                                        bounds=(t[i - 1], t[i + 1]), method="bounded",
                                        options={"xatol": 1e-12}).x)
            mode = prep.evidence.eta_mode
            assert abs(mode - ref) <= 1e-6 * ref, (spread, seed, mode, ref)


@pytest.mark.parametrize("values, k", [
    ((0.0, 1.0, 2.0), 5),
    ((0.3, 1.7, 2.9), 5),
    ((1e8 + 0.1, 1e8 + 0.7, 1e8 + 1.3), 5),
    # the class means round, so SSW comes out near 3e-32 rather than 0
    ((0.1, 0.2, 0.7), 7),
], ids=["integers", "decimals", "offset 1e8", "rounded means"])
def test_constant_classes_are_refused_since_the_marginal_is_infinite(values, k):
    data = AnovaData(responses=np.repeat(values, k), groups=np.repeat([1, 2, 3], k))
    models = [parse_model_spec("mu1 < mu2 < mu3", J=3), parse_model_spec("mu1, mu2, mu3", J=3)]
    spec = make_cip(encompassing_of(models[1]), data.group_sizes)
    with pytest.raises(ValueError, match="zero within-class spread"):
        prepared(data.responses, estimate_null_params(data), spec)
    with pytest.raises(ValueError, match="zero within-class spread"):
        compare(data, models)
    # the null design's one class is not constant, so its integral is finite
    null_spec = make_cip(encompassing_of(parse_model_spec("mu1 = mu2 = mu3", J=3)),
                         data.group_sizes)
    assert np.isfinite(prepared(data.responses, estimate_null_params(data),
                                null_spec).evidence.log_marginal)


def test_all_singleton_design_is_answered():
    # n = q: SSW is 0, but the integrand stays finite as eta -> 0
    data = AnovaData(responses=np.array([0.2, 1.1, 2.5]), groups=np.array([1, 2, 3]))
    report = compare(data, [parse_model_spec("mu1 < mu2 < mu3", J=3),
                            parse_model_spec("mu1, mu2, mu3", J=3)])
    assert all(np.isfinite(b.log_bf_c_vs_0) for b in report.breakdowns)
    assert sum(report.posterior_probs) == pytest.approx(1.0, abs=1e-12)
