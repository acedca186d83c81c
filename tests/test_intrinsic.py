import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from cipanova.compare import compare
from cipanova.constraints import encompassing_of, parse_model_spec
from cipanova.data import AnovaData
from cipanova.gaussian import RandomSource
from cipanova.intrinsic import NullParams, estimate_null_params, make_cip
from oracles import cip_logpdf, cip_sample, dense_spec


def _full_spec(J, n_per_group):
    me = parse_model_spec(", ".join(f"mu{j}" for j in range(1, J + 1)), J=J)
    return make_cip(encompassing_of(me), (n_per_group,) * J)


def _null_spec(n):
    m0 = parse_model_spec("mu1 = mu2", J=2)
    return make_cip(encompassing_of(m0), (n - n // 2, n // 2))


def _one_group(y):
    return AnovaData(responses=y, groups=np.ones(len(y), dtype=int))


def test_estimate_null_params_hand_case():
    data = _one_group(np.array([1.0, 3.0]))
    fit = estimate_null_params(data)
    assert fit.alpha0 == pytest.approx(2.0)
    assert fit.sigma0 == pytest.approx(1.0)  # MLE divisor n = 2


def test_estimate_null_params_shift_equivariance():
    rng = np.random.default_rng(3)
    y = rng.normal(size=40)
    base = estimate_null_params(_one_group(y))
    shifted = estimate_null_params(_one_group(y + 5.0))
    assert shifted.alpha0 == pytest.approx(base.alpha0 + 5.0)
    assert shifted.sigma0 == pytest.approx(base.sigma0)


def test_estimate_null_params_errors():
    with pytest.raises(ValueError):
        estimate_null_params(_one_group(np.array([1.0])))
    with pytest.raises(ValueError):
        estimate_null_params(_one_group(np.full(10, 3.3)))
    with pytest.raises(ValueError):
        NullParams(alpha0=0.0, sigma0=0.0)


@pytest.mark.parametrize("value, k", [(0.1, 21), (1e8 + 0.1, 15), (0.3, 9), (2.0, 12)])
def test_constant_responses_are_refused_exactly(value, k):
    # the float mean of 21 copies of 0.1, or 15 of 1e8 + 0.1, is not the
    # value itself, so a residual taken about it is rounding, not spread
    data = AnovaData(responses=np.full(k, value), groups=np.repeat([1, 2, 3], k // 3))
    message = "^responses are constant; null residual scale is zero$"
    with pytest.raises(ValueError, match=message):
        estimate_null_params(data)
    with pytest.raises(ValueError, match=message):
        compare(data, [parse_model_spec("mu1 < mu2 < mu3", J=3),
                       parse_model_spec("mu1, mu2, mu3", J=3)])


def test_make_cip_two_group_hand_inverse():
    spec = dense_spec(make_cip(encompassing_of(parse_model_spec("mu1, mu2", J=2)), (1, 1)))
    # Z'Z = [[2,1],[1,1]], inverse [[1,-1],[-1,2]], scaled by n/(q+1) = 2/3
    assert np.allclose(spec.winv, (2.0 / 3.0) * np.array([[1.0, -1.0], [-1.0, 2.0]]),
                       atol=1e-14)
    # the same matrix holds for any balanced sizes
    spec25 = dense_spec(make_cip(encompassing_of(parse_model_spec("mu1, mu2", J=2)), (25, 25)))
    assert np.allclose(spec25.winv, spec.winv, atol=1e-13)


def test_make_cip_null_design():
    spec = dense_spec(_null_spec(10))
    assert spec.q == 1
    assert spec.winv == pytest.approx(np.array([[0.5]]))  # (n/2) * (1/n)
    assert np.array_equal(spec.Z, np.ones((10, 1)))


def test_cipspec_w_is_exact_scaled_gram():
    spec = dense_spec(_full_spec(5, 7))
    assert np.array_equal(spec.w, (spec.q + 1) / spec.n * spec.ztz)
    assert np.allclose(spec.w @ spec.winv, np.eye(spec.q), atol=1e-12)
    assert np.array_equal(spec.Z @ spec.e, np.ones(spec.n))


def test_make_cip_balanced_permutation_symmetry():
    # permuting non-baseline groups permutes Winv rows/cols identically
    spec = dense_spec(_full_spec(4, 6))
    sub = spec.winv[1:, 1:]
    for p in itertools.permutations(range(3)):
        p = list(p)
        assert np.allclose(sub[np.ix_(p, p)], sub, atol=1e-12)


def test_cip_logpdf_at_prior_center():
    theta0 = NullParams(alpha0=1.7, sigma0=0.9)
    spec = _full_spec(3, 4)
    dense = dense_spec(spec)
    got = cip_logpdf(theta0.alpha0 * dense.e, theta0.sigma0, theta0, spec)
    # half-Cauchy factor at sigma0 is 1/(pi*sigma0); normal at its own mean
    cov = 2.0 * theta0.sigma0**2 * dense.winv
    want = -np.log(np.pi * theta0.sigma0) + stats.multivariate_normal(
        mean=np.zeros(spec.q), cov=cov).logpdf(np.zeros(spec.q))
    assert got == pytest.approx(want, abs=1e-10)
    assert cip_logpdf(dense.e, -1.0, theta0, spec) == -np.inf


def test_cip_logpdf_shift_invariance():
    spec = _full_spec(3, 4)
    rng = np.random.default_rng(0)
    gamma = rng.normal(size=3)
    base = cip_logpdf(gamma, 1.3, NullParams(0.4, 1.1), spec)
    shifted = cip_logpdf(gamma + 2.5 * dense_spec(spec).e, 1.3, NullParams(0.4 + 2.5, 1.1),
                         spec)
    assert shifted == pytest.approx(base, abs=1e-10)


def test_cip_normalizes_q1():
    theta0 = NullParams(alpha0=0.8, sigma0=1.4)
    spec = _null_spec(6)

    def density(gamma, sigma):
        return np.exp(cip_logpdf(np.array([gamma]), sigma, theta0, spec))

    total, _ = integrate.dblquad(density, 0.0, np.inf,
                                 lambda s: -np.inf, lambda s: np.inf)
    assert abs(total - 1.0) < 1e-6


def test_cip_sample_center_and_symmetry():
    theta0 = NullParams(alpha0=2.0, sigma0=1.0)
    spec = _full_spec(5, 10)
    draws = cip_sample(theta0, spec, 100_000, RandomSource(17).generator())
    assert draws.gamma.shape == (100_000, 5)
    # medians: alpha centered at alpha0, deltas at 0 (heavy tails, so no mean test)
    assert abs(np.median(draws.gamma[:, 0]) - 2.0) < 0.02
    for j in range(1, 5):
        frac_neg = np.mean(draws.gamma[:, j] < 0.0)
        assert abs(frac_neg - 0.5) < 4.0 * np.sqrt(0.25 / draws.T)
    # eta median 1/2 so sigma2 median sigma0^2
    assert abs(np.mean(draws.sigma2 < theta0.sigma0**2) - 0.5) < 0.007


def test_cip_sample_sigma2_eta_invariant():
    theta0 = NullParams(alpha0=0.0, sigma0=2.0)
    spec = _full_spec(3, 5)
    draws = cip_sample(theta0, spec, 5000, RandomSource(4).generator())
    assert np.allclose(draws.sigma2,
                       theta0.sigma0**2 * draws.eta / (1.0 - draws.eta))
    with pytest.raises(ValueError):
        cip_sample(theta0, spec, 0, RandomSource(4).generator())


def test_cip_sample_balanced_ordering_exchangeability():
    # the 24 orderings of the four delta coordinates are equiprobable
    theta0 = NullParams(alpha0=0.0, sigma0=1.0)
    spec = _full_spec(5, 25)
    draws = cip_sample(theta0, spec, 120_000, RandomSource(23).generator())
    ranks = np.argsort(np.argsort(draws.gamma[:, 1:], axis=1), axis=1)
    codes = ranks @ np.array([1, 4, 16, 64])
    _, counts = np.unique(codes, return_counts=True)
    assert counts.size == 24
    expected = draws.T / 24.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < stats.chi2.ppf(0.99, df=23)


def test_cip_sample_affine_equivariance_with_shared_seed():
    spec = _full_spec(4, 8)
    base = cip_sample(NullParams(1.0, 1.5), spec, 2000, RandomSource(9).generator())
    moved = cip_sample(NullParams(2.0 * 1.0 + 3.0, 2.0 * 1.5), spec, 2000,
                       RandomSource(9).generator())
    # same uniform stream: gamma' = 2 gamma + 3 e, eta unchanged
    assert np.array_equal(moved.eta, base.eta)
    want = 2.0 * base.gamma
    want[:, 0] += 3.0
    assert np.allclose(moved.gamma, want, rtol=1e-12, atol=1e-12)
    assert np.allclose(moved.sigma2, 4.0 * base.sigma2, rtol=1e-12)


def test_make_cip_rejects_empty_group():
    design = encompassing_of(parse_model_spec("mu1, mu2", J=2))
    with pytest.raises(ValueError):
        make_cip(design, (0, 3))


def test_make_cip_compact_spec():
    # Ma-style tie of groups 3 and 5 on unbalanced sizes, one of them a singleton
    design = encompassing_of(parse_model_spec("mu3 = mu5, mu1, mu2, mu4", J=5))
    spec = make_cip(design, (4, 1, 6, 2, 3))
    assert (spec.n, spec.q) == (16, 4)
    assert spec.group_sizes == (4, 1, 6, 2, 3)
    assert spec.sizes.tolist() == [4.0, 1.0, 9.0, 2.0]  # baseline class {1} first
    assert spec.sizes.sum() == spec.n
    assert spec.class_index.tolist() == [0, 1, 2, 3, 2]
    with pytest.raises(ValueError):
        make_cip(design, (4, 1, 6, 2))
    with pytest.raises(ValueError):
        make_cip(design, (4, 1, 0, 2, 3))


def test_make_cip_memory_is_order_j():
    # the dense n x q design of five groups of 200 000 would take 40 MB
    design = encompassing_of(parse_model_spec("mu1, mu2, mu3, mu4, mu5", J=5))
    tracemalloc.start()
    try:
        spec = make_cip(design, (200_000,) * 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.n == 1_000_000
    assert peak < 1_000_000
