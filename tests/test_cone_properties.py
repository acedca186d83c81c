"""Property tests of the cone masses: the exact posterior mass on random data with J = 2-5
groups, its one-pass form of a wide end layer against the full down-set recursion with J up
to 11, and the prior mass's sign-flip count."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipanova.constraints import ConstraintModel, encompassing_of, parse_model_spec
from cipanova.data import AnovaData
from cipanova.evidence import PreparedIntegrand
from cipanova.gaussian import RandomSource
from cipanova.intrinsic import estimate_null_params, make_cip
from cipanova.posterior import (
    POSTERIOR_REL_TOL,
    _converged_mass,
    order_components,
    posterior_cone_mass,
    prior_cone_mass,
)
from oracles import full_downset_plan

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def datasets(draw):
    J = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 9), min_size=J, max_size=J))
    means = draw(st.lists(st.floats(-1.5, 1.5), min_size=J, max_size=J))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = np.concatenate([m + rng.standard_normal(n) for m, n in zip(means, sizes)])
    return AnovaData(responses=y, groups=np.repeat(np.arange(1, J + 1), sizes))


def _mass(data, text):
    model = parse_model_spec(text, J=data.J)
    spec = make_cip(encompassing_of(model), data.group_sizes)
    prep = PreparedIntegrand(data.responses, estimate_null_params(data), spec)
    return posterior_cone_mass(model, prep)


def _chain(perm):
    return " < ".join(f"mu{j}" for j in perm)


@PROPERTY
@given(datasets())
def test_total_orders_partition_the_posterior(data):
    masses = [_mass(data, _chain(p)) for p in itertools.permutations(range(1, data.J + 1))]
    resolved = sum(m.estimate for m in masses if m.estimate is not None)
    # an unresolved order contributes at most its upper bound
    slack = sum(m.upper_bound for m in masses if m.estimate is None)
    assert -1e-9 - slack <= resolved - 1.0 <= 1e-9


@PROPERTY
@given(datasets(), st.randoms(use_true_random=False))
def test_mass_ignores_group_labels(data, random):
    # group j of the data becomes group perm[j - 1], and so does mu_j in the model
    perm = list(range(1, data.J + 1))
    random.shuffle(perm)
    moved = AnovaData(responses=data.responses, groups=np.array(perm)[data.groups - 1])
    order = list(range(1, data.J + 1))
    random.shuffle(order)
    base = _mass(data, _chain(order))
    again = _mass(moved, _chain(perm[j - 1] for j in order))
    if base.estimate is None:
        assert again.estimate is None
    else:
        assert abs(again.estimate - base.estimate) <= 4 * POSTERIOR_REL_TOL * base.estimate


@PROPERTY
@given(datasets(), st.floats(1e-6, 1e6), st.floats(-1e8, 1e8))
def test_mass_ignores_affine_maps_of_the_data(data, a, b):
    y = data.responses
    moved = AnovaData(responses=a * y + b, groups=data.groups)
    # a * y + b is rounded to the float spacing at its magnitude, which
    # perturbs the data by eps relative to their spread (up to 2e-2 at a = 1e-6,
    # |b| = 1e8); the mass may move by a small multiple of that, and by its own
    # tolerance
    eps = np.finfo(float).eps * (abs(b) + a * np.max(np.abs(y))) / (a * np.std(y))
    text = _chain(range(1, data.J + 1))
    base, again = _mass(data, text), _mass(moved, text)
    assert (base.estimate is None) == (again.estimate is None)
    if base.estimate is not None:
        tol = 4 * POSTERIOR_REL_TOL + 10 * eps
        assert abs(again.estimate - base.estimate) <= tol * base.estimate


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("text, J", [
    ("mu1 < mu3, mu2 < mu3, mu2 < mu4", 4),
    ("{mu1, mu2} < {mu3, mu4}", 4),
    ("mu1 < mu2, mu1 < mu3, mu1 < mu4", 4),
    ("{mu1, mu2, mu3} < mu4 < mu5", 5),
], ids=["N", "2-vs-2", "lowest of 4", "3-vs-1-vs-1"])
def test_partial_order_mass_is_the_sum_of_its_linear_extensions(text, J, seed):
    # the orders' levels have mixed widths, so the recursion sums over
    # several maximal classes per down-set; each chain sums over one
    rng = np.random.default_rng(seed)
    sizes = rng.integers(3, 12, size=J)
    y = np.concatenate([m + rng.standard_normal(n) for m, n in zip(rng.normal(size=J), sizes)])
    data = AnovaData(responses=y, groups=np.repeat(np.arange(1, J + 1), sizes))
    model = parse_model_spec(text, J=J)
    prep = PreparedIntegrand(data.responses, estimate_null_params(data),
                             make_cip(encompassing_of(model), data.group_sizes))
    chains = [p for p in itertools.permutations(range(1, J + 1))
              if all(p.index(a) < p.index(b) for a, b in model.order)]
    masses = [posterior_cone_mass(parse_model_spec(_chain(p), J=J), prep).estimate
              for p in chains]
    whole = posterior_cone_mass(model, prep).estimate
    assert None not in masses and whole is not None
    assert abs(sum(masses) - whole) <= 1e-12 * whole


@st.composite
def end_layer_orders(draw):
    """An order over R plus an antichain of two or more classes above (or below) all of R."""
    r = draw(st.integers(1, 6))
    w = draw(st.integers(2, 11 - r))
    free = draw(st.integers(0, 11 - r - w))
    J = r + w + free
    # a random order on R, then the layer above it; labels shuffled
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r) if draw(st.booleans())]
    pairs += [(i, r + k) for i in range(r) for k in range(w)]
    if draw(st.booleans()):
        pairs = [(b, a) for a, b in pairs]
    label = draw(st.permutations(range(1, J + 1)))
    return ConstraintModel.create(J, [(j,) for j in range(1, J + 1)],
                                  [(label[a], label[b]) for a, b in pairs])


@PROPERTY
@given(end_layer_orders(), st.integers(0, 2**32 - 1))
def test_end_layer_form_matches_the_full_downset_recursion(model, seed):
    # three eta nodes of unequal class means and unbalanced class sizes
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 40, size=model.J)
    s = rng.uniform(0.5, 2.0, size=(3, 1)) / np.sqrt(sizes)
    mu = rng.normal(scale=0.3, size=(3, model.J))
    w = np.array([0.2, 0.5, 0.3])
    comps = order_components(model)
    assert len(comps) == 1 and comps[0].top >= 2
    mass, *_ = _converged_mass(comps, mu, s, w)
    full, *_ = _converged_mass(full_downset_plan(model), mu, s, w)
    assert abs(mass - full) <= 1e-12 * full


@PROPERTY
@given(st.lists(st.integers(1, 60), min_size=2, max_size=4, unique=True),
       st.integers(1, 3001), st.integers(0, 2**32 - 1))
def test_total_orders_partition_the_prior_evaluations(sizes, T, seed):
    # every total order counts the same draws and flips, and ties have measure zero
    hits = 0
    for perm in itertools.permutations(range(1, len(sizes) + 1)):
        model = parse_model_spec(_chain(perm), J=len(sizes))
        spec = make_cip(encompassing_of(model), sizes)
        hits += prior_cone_mass(model, spec.sizes, T, RandomSource(seed).generator()).hits
    assert hits == T
