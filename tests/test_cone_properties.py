"""Property tests of the cone masses: the exact posterior mass on random data with J = 2-5
groups, its one-pass form of wide end layers against the full down-set recursion with J up
to 11, its panel edges against per-node np.interp, its one final step against the full
integration of the last level, the exact prior mass over the total orders, and the ways
the grid doubling of a posterior mass may end, with J up to 24."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipanova import posterior
from cipanova.constraints import ConstraintModel, encompassing_of, parse_model_spec
from cipanova.data import AnovaData
from cipanova.intrinsic import estimate_null_params, make_cip
from cipanova.posterior import (
    MIN_PANELS,
    PANEL_POINTS,
    PANEL_SD,
    POSTERIOR_REL_TOL,
    SPAN_SD,
    _component_masses,
    _converged_mass,
    _panel_edges,
    _resolution_need,
    order_components,
    posterior_cone_mass,
    prior_cone_mass,
    truncation_floor,
)
from oracles import (component_masses_reference, full_downset_plan, panel_edges_reference,
                     prepared)

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
    prep = prepared(data.responses, estimate_null_params(data), spec)
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
    prep = prepared(data.responses, estimate_null_params(data),
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
    """A bottom antichain A, a middle R and a top antichain B, each of A and B absent or wide.

    Every class of A lies below all others and every class of B above, with a
    random order on R; R may be empty when both layers are there.  Free
    classes pad the order to J <= 11 groups, and the labels are shuffled.
    """
    a = draw(st.sampled_from([0, 2, 3, 4, 5]))
    b = draw(st.sampled_from([0, 2, 3, 4, 5]) if a else st.integers(2, 5))
    r = draw(st.integers(0 if a and b else 1, min(6, 11 - a - b)))
    free = draw(st.integers(0, 11 - a - r - b))
    J = a + r + b + free
    mid, top = range(a, a + r), range(a + r, a + r + b)
    pairs = [(i, j) for i in mid for j in mid if i < j and draw(st.booleans())]
    pairs += [(i, j) for i in range(a) for j in (*mid, *top)]
    pairs += [(i, j) for i in mid for j in top]
    label = draw(st.permutations(range(1, J + 1)))
    order = ConstraintModel.create(J, [(j,) for j in range(1, J + 1)],
                                   [(label[i], label[j]) for i, j in pairs])
    return order, a, b


def _end_layer_sizes(model):
    """Brute force: the number of minimal (maximal) ordered classes when they are two or more
    and each lies below (above) every other ordered class, else 0."""
    ordered = {r for pair in model.order for r in pair}
    minimal = ordered - {b for _, b in model.order}
    maximal = ordered - {a for a, _ in model.order}
    bottom = all((a, b) in model.order for a in minimal for b in ordered - minimal)
    top = all((a, b) in model.order for a in ordered - maximal for b in maximal)
    return (len(minimal) if len(minimal) > 1 and bottom else 0,
            len(maximal) if len(maximal) > 1 and top else 0)


@PROPERTY
@given(end_layer_orders(), st.integers(0, 2**32 - 1))
def test_end_layer_form_matches_the_full_downset_recursion(drawn, seed):
    # three eta nodes of unequal class means and unbalanced class sizes
    model, a, b = drawn
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 40, size=model.J)
    s = rng.uniform(0.5, 2.0, size=(3, 1)) / np.sqrt(sizes)
    mu = rng.normal(scale=0.3, size=(3, model.J))
    w = np.array([0.2, 0.5, 0.3])
    comps = order_components(model)
    # a missing layer may be found in the middle: its lowest (highest) classes
    # when they are two or more and lie below (above) all others
    assert len(comps) == 1
    assert (comps[0].bottom, comps[0].top) == _end_layer_sizes(model)
    assert comps[0].bottom >= a and comps[0].top >= b
    mass, *_ = _converged_mass(comps, mu, s, w)
    full, *_ = _converged_mass(full_downset_plan(model), mu, s, w)
    assert abs(mass - full) <= 1e-12 * full


@PROPERTY
@given(st.lists(st.integers(1, 60), min_size=2, max_size=4, unique=True))
def test_total_orders_partition_the_prior_evaluations(sizes):
    # ties have measure zero, so the prior masses of the total orders sum to 1
    masses = [prior_cone_mass(parse_model_spec(_chain(perm), J=len(sizes)), tuple(sizes)).estimate
              for perm in itertools.permutations(range(1, len(sizes) + 1))]
    assert abs(sum(masses) - 1.0) <= 1e-12


@st.composite
def class_layouts(draw):
    """Class means and sds at a few eta nodes, with gaps no class covers and identical classes.

    A wide gap puts more than 2 SPAN_SD sd between two neighbouring classes, so
    the cumulative need has a plateau there; a copied class makes coincident
    interval ends, at the top end of the grid when the copied class reaches
    furthest right.
    """
    q = draw(st.integers(2, 10))
    nodes = draw(st.integers(1, 4))
    wide = np.array(draw(st.lists(st.booleans(), min_size=q - 1, max_size=q - 1)))
    copy = draw(st.sampled_from(["none", "any", "last"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = np.exp(rng.uniform(-4.0, 4.0, size=(nodes, q)))
    gap = rng.uniform(0.0, 3.0, size=(nodes, q - 1)) * s[:, 1:]
    gap += wide * rng.uniform(2.0, 4.0, size=(nodes, q - 1)) * SPAN_SD * (s[:, 1:] + s[:, :-1])
    mu = rng.normal(scale=100.0) + np.concatenate([np.zeros((nodes, 1)), np.cumsum(gap, axis=1)],
                                                  axis=1)
    if copy != "none":
        a = int(np.argmax(mu[0] + SPAN_SD * s[0])) if copy == "last" else int(rng.integers(q))
        b = (a + 1 + int(rng.integers(q - 1))) % q
        mu[:, b], s[:, b] = mu[:, a], s[:, a]
    return mu, s


@PROPERTY
@given(class_layouts(), st.integers(1, 4096 // PANEL_POINTS))
def test_panel_edges_match_per_node_interp_bit_for_bit(layout, panels):
    ends, need = _resolution_need(*layout)
    got = _panel_edges(ends, need, panels)
    assert got.shape == (len(ends), panels + 1)
    assert got.tobytes() == panel_edges_reference(ends, need, panels).tobytes()
    # the doubling reads a grid's edges off those of the next: every panel
    # count it can reach is the even columns of its double, bit for bit
    for p in range(1, 4096 // PANEL_POINTS // 2 + 1):
        assert _panel_edges(ends, need, p).tobytes() == \
            np.ascontiguousarray(_panel_edges(ends, need, 2 * p)[:, ::2]).tobytes()


@st.composite
def plain_orders(draw):
    """A random order on up to 8 classes, class 1 below class 2 at least; labels shuffled."""
    J = draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(J) for j in range(i + 1, J)
             if (i, j) == (0, 1) or draw(st.booleans())]
    label = draw(st.permutations(range(1, J + 1)))
    return ConstraintModel.create(J, [(j,) for j in range(1, J + 1)],
                                  [(label[a], label[b]) for a, b in pairs])


@PROPERTY
@given(plain_orders(), st.integers(0, 2**32 - 1))
def test_final_step_matches_the_full_last_level_integration(model, seed):
    # the kernel integrates the last level's integrand over the whole grid in
    # one step instead of forming its cumulative integral; the two sum the
    # same panel integrals in another order, on the grids the doubling uses
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 40, size=model.J)
    s = rng.uniform(0.5, 2.0, size=(3, 1)) / np.sqrt(sizes)
    mu = rng.normal(scale=0.3, size=(3, model.J))
    for comp in full_downset_plan(model):
        cmu, cs = mu[:, comp.cols], s[:, comp.cols]
        ends, need = _resolution_need(cmu, cs)
        base = max(MIN_PANELS, int(np.ceil(np.max(need[:, -1]) / PANEL_SD)))
        for panels in (base, 2 * base):
            edges = _panel_edges(ends, need, panels)
            got, = _component_masses(comp, cmu, cs, [edges])
            full = component_masses_reference(comp, cmu, cs, edges, full_last_level=True)
            assert np.all(np.abs(got - full) <= 1e-15 * full)


def _layered(*layers):
    """The order L_1 < L_2 < ... on classes 1, 2, ... numbered layer by layer."""
    J = sum(layers)
    starts = np.cumsum((0,) + layers)
    pairs = [(a + 1, b + 1) for lo, mid, hi in zip(starts, starts[1:], starts[2:])
             for a in range(lo, mid) for b in range(mid, hi)]
    return ConstraintModel.create(J, [(j,) for j in range(1, J + 1)], pairs)


kernel_orders = st.one_of(
    st.integers(2, 8).map(lambda q: _layered(*[1] * q)),  # chains
    end_layer_orders().map(lambda drawn: drawn[0]),
    st.integers(2, 6).map(lambda w: _layered(1, w, 1)),  # a wide middle
    st.just(ConstraintModel.create(4, [(j,) for j in range(1, 5)], [(1, 3), (2, 3), (2, 4)])),
)


@PROPERTY
@given(kernel_orders, st.integers(1, 25), st.integers(0, 2**32 - 1))
def test_one_call_on_several_grids_matches_one_call_per_grid(model, nodes, seed):
    # a mass sends its starting grid and the double through one kernel call;
    # each grid must come out as it does alone
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 40, size=model.J)
    s = rng.uniform(0.5, 2.0, size=(nodes, 1)) / np.sqrt(sizes)
    mu = rng.normal(scale=0.3, size=(nodes, model.J))
    for comp in order_components(model):
        cmu, cs = mu[:, comp.cols], s[:, comp.cols]
        ends, need = _resolution_need(cmu, cs)
        base = max(MIN_PANELS, int(np.ceil(np.max(need[:, -1]) / PANEL_SD)))
        double = _panel_edges(ends, need, 2 * base)
        grids = [double[:, ::2], double]
        together = _component_masses(comp, cmu, cs, grids)
        assert len(together) == 2
        for edges, got in zip(grids, together):
            alone, = _component_masses(comp, cmu, cs, [edges])
            np.testing.assert_array_max_ulp(got, alone, maxulp=2)


@st.composite
def stopping_cases(draw):
    """A chain, a control below all, or a lower half below an upper half, on J = 2-24 groups.

    Group sizes and sds are unequal; the group means step 0.3 to 30 of their
    class sds along the order or against it (a reversed chain among them).
    """
    J = draw(st.integers(2, 24))
    kind = draw(st.sampled_from(["chain", "control", "blocks"]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = np.exp(rng.uniform(np.log(0.3), np.log(30.0)))
    sizes = rng.integers(3, 30, size=J)
    sd = rng.uniform(0.5, 2.0, size=J)
    means = sign * np.cumsum(spread * sd / np.sqrt(sizes))
    y = np.concatenate([m + d * rng.standard_normal(n) for m, d, n in zip(means, sd, sizes)])
    data = AnovaData(responses=y, groups=np.repeat(np.arange(1, J + 1), sizes))
    groups = [f"mu{j}" for j in range(1, J + 1)]
    text = {"chain": " < ".join(groups),
            "control": f"mu1 < {{{', '.join(groups[1:])}}}",
            "blocks": f"{{{', '.join(groups[:J // 2])}}} < {{{', '.join(groups[J // 2:])}}}"}[kind]
    return data, parse_model_spec(text, J=J, name="drawn")


@settings(PROPERTY, max_examples=60)
@given(stopping_cases())
def test_posterior_mass_ends_settled_negligible_or_refused(case):
    # the doubling stops on what it observes, and each stop has one outcome:
    # a settled mass, a mass its last two grids put under the truncation
    # floor, or a refusal that names the model
    data, model = case
    spec = make_cip(encompassing_of(model), data.group_sizes)
    prep = prepared(data.responses, estimate_null_params(data), spec)
    seen, converged = [], posterior._converged_mass
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(posterior, "_converged_mass", lambda *a: seen.append(converged(*a)) or seen[-1])
        try:
            post = posterior_cone_mass(model, prep)
        except ValueError as err:
            assert "cone mass of drawn" in str(err)
            return
    if post.estimate is not None:
        assert post.doubling_error < POSTERIOR_REL_TOL
    elif post.grid:
        *_, level = seen[-1]
        assert level <= truncation_floor(model)
    else:  # the closed-form bound alone puts it there, before any grid
        assert post.upper_bound <= truncation_floor(model)
