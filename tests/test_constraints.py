import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipanova.constraints import (
    ConstraintModel,
    ParseError,
    encompassing_of,
    model_to_string,
    parse_model_spec,
)
from oracles import build_design, region_contains, region_mask

MA = "mu2 < mu1 < mu4 < {mu3 = mu5}"
MB = "{mu1, mu3} > {mu2, mu4, mu5}"


def test_parse_chain_with_tie():
    m = parse_model_spec(MA, J=5, name="Ma")
    assert m.classes == ((1,), (2,), (3, 5), (4,))
    # adjacent relations mu2<mu1, mu1<mu4, mu4<{3,5} plus transitive closure
    assert m.order == frozenset(
        {(2, 1), (1, 4), (4, 3), (2, 4), (2, 3), (1, 3)})
    assert m.columns == {1: 0, 2: 1, 3: 2, 5: 2, 4: 3}
    assert m.q == 4
    assert m.has_order and not m.is_null and not m.is_encompassing


def test_parse_brace_sets_all_pairs():
    m = parse_model_spec(MB, J=5, name="Mb")
    assert m.classes == ((1,), (2,), (3,), (4,), (5,))
    # '>' swaps sides, then 2x3 cross pairs
    assert m.order == frozenset(
        {(2, 1), (2, 3), (4, 1), (4, 3), (5, 1), (5, 3)})


def test_parse_null_and_encompassing():
    m0 = parse_model_spec("mu1 = mu2 = mu3 = mu4 = mu5", J=5)
    assert m0.classes == ((1, 2, 3, 4, 5),)
    assert m0.is_null and not m0.has_order
    me = parse_model_spec("mu1, mu2, mu3", J=3)
    assert me.is_encompassing
    assert me.classes == ((1,), (2,), (3,))


def test_unmentioned_groups_are_free_singletons():
    m = parse_model_spec("mu1 < mu2", J=4)
    assert m.classes == ((1,), (2,), (3,), (4,))
    assert m.order == frozenset({(1, 2)})


def test_parse_inline_equality_group():
    # a tied class is written the same way in every clause that names it
    for text in ("{mu1 = mu2} < mu3", "mu1 = mu2, {mu2 = mu1} < mu3"):
        m = parse_model_spec(text, J=3)
        assert m.classes == ((1, 2), (3,))
        assert m.order == frozenset({(1, 3)})


def test_parse_reversed_chain_normalizes():
    forward = parse_model_spec("mu1 < mu2 < mu3", J=3)
    backward = parse_model_spec("mu3 > mu2 > mu1", J=3)
    assert forward.classes == backward.classes
    assert forward.order == backward.order


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_model_spec("mu1 < mu2 < mu1", J=2)  # cycle
    with pytest.raises(ParseError):
        parse_model_spec("mu6 < mu1", J=5)  # out of range
    with pytest.raises(ParseError):
        parse_model_spec("{mu1 = mu2}, {mu2 = mu3}", J=3)  # group in two classes
    with pytest.raises(ParseError):
        parse_model_spec("mu1 < mu2 > mu3", J=3)  # mixed directions
    with pytest.raises(ParseError):
        parse_model_spec("mu1 <", J=2)  # dangling operator
    with pytest.raises(ParseError):
        parse_model_spec("{mu1 = mu2, mu3}", J=3)  # mixed separators
    with pytest.raises(ParseError):
        parse_model_spec("mu1 & mu2", J=2)  # malformed token
    with pytest.raises(ParseError):
        parse_model_spec("{mu1, mu2", J=2)  # unbalanced brace
    with pytest.raises(ParseError):
        parse_model_spec("", J=2)
    with pytest.raises(ParseError):
        parse_model_spec("mu1,,mu2", J=2)  # empty clause
    with pytest.raises(ParseError):
        parse_model_spec("{mu1, mu2} = mu3", J=3)  # '=' onto a comma set


@st.composite
def written_models(draw):
    """A model on J <= 12 groups written as text, with the classes and closed order it means.

    Tied classes are cut from a shuffled labelling and stacked in a random
    sequence; each clause is a chain up (`<`) or down (`>`) that sequence,
    whose terms are a tied class (bare `a = b` or braced `{a = b}`) or a
    comma group `{a, b}` of free means.  A tied class in no chain gets a
    clause of its own.
    """
    J = draw(st.integers(1, 12))
    label = draw(st.permutations(range(1, J + 1)))
    merge = draw(st.lists(st.integers(0, 3), min_size=J - 1, max_size=J - 1))
    stack = [[label[0]]]
    for g, m in zip(label[1:], merge):
        if m:  # one group in four joins the class before it
            stack.append([])
        stack[-1].append(g)
    space = st.sampled_from(["", " ", "  ", "\t"])

    def tied(cls, braced):
        body = f"{draw(space)}={draw(space)}".join(f"mu{g}" for g in draw(st.permutations(cls)))
        return "{" + body + "}" if braced else body

    clauses, pairs, written = [], set(), set()
    for _ in range(draw(st.integers(0, 4))):
        picks = sorted(draw(st.sets(st.integers(0, len(stack) - 1), min_size=1)))
        terms, cut = [], 0
        while cut < len(picks):  # a run of free means can share a comma group
            end = cut + 1
            while (end < len(picks) and len(stack[picks[end]]) == 1
                   and len(stack[picks[cut]]) == 1 and draw(st.booleans())):
                end += 1
            terms.append([stack[i] for i in picks[cut:end]])
            cut = end
        words = []
        for term in terms:
            if len(term) == 1:
                words.append(tied(term[0], braced=draw(st.booleans())))
            else:
                words.append("{" + ", ".join(f"mu{cls[0]}" for cls in term) + "}")
            written.update(tuple(cls) for cls in term)
        for i, lo in enumerate(terms):
            pairs |= {(min(a), min(b)) for hi in terms[i + 1:] for a in lo for b in hi}
        up = draw(st.booleans())
        clauses.append(f"{draw(space)}{'<' if up else '>'}{draw(space)}".join(
            words if up else words[::-1]))
    clauses += [tied(cls, draw(st.booleans())) for cls in map(tuple, stack)
                if len(cls) > 1 and cls not in written]
    if not clauses:
        clauses = [f"mu{label[0]}"]
    order = set(pairs)
    while extra := {(a, d) for a, b in order for c, d in order if b == c} - order:
        order |= extra
    classes = tuple(sorted(tuple(sorted(cls)) for cls in stack))
    return J, f",{draw(space)}".join(clauses), classes, frozenset(order)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(written_models())
def test_parse_gives_the_written_model(case):
    J, text, classes, order = case
    model = parse_model_spec(text, J=J)
    assert (model.classes, model.order) == (classes, order), text


_SOUP = ["mu0", "mu1", "mu2", "mu3", "mu4", "mu13", "mu01", "{", "}", "<", ">", "=", ",",
         " ", "\t", "&", "mu", "m"]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_SOUP), max_size=14).map("".join))
def test_parse_accepts_or_raises_parse_error(text):
    try:
        model = parse_model_spec(text, J=4)
    except ParseError:
        return
    assert parse_model_spec(model_to_string(model), J=4) == model


@pytest.mark.parametrize("text, message", [
    ("", "empty model string"),
    (" \t", "empty model string"),
    ("mu1 & mu2", "malformed token at position 4: '& mu2'"),
    ("mu1 < mu2}", "unbalanced '}'"),
    ("{mu1, mu2", "unbalanced '{'"),
    ("mu1,,mu2", "empty clause"),
    ("mu1 <", "dangling operator at end of chain"),
    ("< mu1", "expected a mean or brace group, got '<'"),
    ("mu1 mu2", "expected an operator, got 'mu2'"),
    ("{mu1,} < mu2", "expected a mean inside braces, got '}'"),
    ("{mu1 < mu2}", "unexpected '<' inside braces"),
    ("{mu1 = mu2, mu3}", "brace group mixes '=' and ',' separators"),
    ("{mu1, mu2} = mu3", "'=' joins single means or equality groups only"),
    ("mu1 < mu2 > mu3", "mixed '<' and '>' directions in one chain"),
    ("mu0 < mu1", "group index 0 out of range 1..3"),
    ("mu1 = mu2, mu1 < mu3", "group 1 appears in two equality classes"),
    ("mu1 < mu2 < mu1", "cycle in order relation"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_model_spec(text, J=3)


def test_print_fixed_forms():
    assert model_to_string(parse_model_spec(MA, J=5)) == "mu2 < mu1 < mu4 < {mu3 = mu5}"
    assert model_to_string(parse_model_spec("mu1=mu2=mu3", J=3)) == "mu1 = mu2 = mu3"
    assert model_to_string(parse_model_spec("mu1,mu2,mu3", J=3)) == "mu1, mu2, mu3"
    # a layer holding two singleton classes renders as a comma brace
    two_up = ConstraintModel.create(3, [(1,), (2,), (3,)], [(1, 3), (2, 3)])
    assert model_to_string(two_up) == "{mu1, mu2} < mu3"
    # isolated merged class alongside a free singleton
    merged = ConstraintModel.create(3, [(1, 2), (3,)], [])
    assert model_to_string(merged) == "mu1 = mu2, mu3"


def _random_model(rng, J):
    # random partition, then a random chain of antichain layers over a subset
    groups = list(range(1, J + 1))
    rng.shuffle(groups)
    classes = []
    i = 0
    while i < len(groups):
        size = int(rng.integers(1, 3))
        classes.append(tuple(sorted(groups[i:i + size])))
        i += size
    reps = sorted(c[0] for c in classes)
    rng.shuffle(reps)
    n_chain = int(rng.integers(0, len(reps) + 1))
    if n_chain == 1:
        n_chain = 0
    chain = reps[:n_chain]
    order = set()
    layers = []
    i = 0
    while i < len(chain):
        width = int(rng.integers(1, 3))
        layers.append(chain[i:i + width])
        i += width
    for a_i, lo in enumerate(layers):
        for hi in layers[a_i + 1:]:
            for a in lo:
                for b in hi:
                    order.add((a, b))
    return ConstraintModel.create(J, classes, order)


def test_roundtrip_merged_class_in_shared_layer():
    # not expressible as a single chain clause; printer must fall back to
    # one clause per edge: a merged class in a shared layer, the "N" order,
    # and a chain with a branch off its bottom
    for text in ("{mu1 = mu2} < mu4, mu3 < mu4",
                 "mu1 < mu3, mu2 < mu3, mu2 < mu4",
                 "mu1 < mu2 < mu3, mu1 < mu4"):
        model = parse_model_spec(text, J=4)
        again = parse_model_spec(model_to_string(model), J=4)
        assert again.classes == model.classes and again.order == model.order, text


def test_roundtrip_random_models():
    rng = np.random.default_rng(20240817)
    for _ in range(300):
        J = int(rng.integers(2, 9))
        model = _random_model(rng, J)
        text = model_to_string(model)
        again = parse_model_spec(text, J=J)
        assert again.classes == model.classes, text
        assert again.order == model.order, text


@st.composite
def merged_orders(draw):
    """Random orders on J <= 8 groups with merged classes, blocks of classes often stacked.

    The classes are cut from a shuffled labelling and put in a random
    sequence of blocks.  Pairs inside a block are random; pairs across blocks
    are all there when the blocks are stacked, else random, so components
    range from one layer to a chain of them.
    """
    J = draw(st.integers(2, 8))
    label = draw(st.permutations(range(1, J + 1)))
    merge = draw(st.lists(st.integers(0, 3), min_size=J - 1, max_size=J - 1))
    classes = [[label[0]]]
    for g, m in zip(label[1:], merge):
        if m:  # one group in four joins the class before it
            classes.append([])
        classes[-1].append(g)
    q = len(classes)
    block = np.cumsum([0] + draw(st.lists(st.booleans(), min_size=q - 1, max_size=q - 1)))
    stacked = draw(st.booleans())
    pairs = [(min(classes[i]), min(classes[j])) for i in range(q) for j in range(i + 1, q)
             if (stacked and block[i] < block[j]) or draw(st.booleans())]
    return ConstraintModel.create(J, classes, pairs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(merged_orders())
def test_layers_are_the_finest_split_of_each_component(model):
    below = model.order
    assert len(model.layers) == len(model.components)
    for comp, layers in zip(model.components, model.layers):
        # the layers partition the component, each layer sorted
        assert sorted(r for layer in layers for r in layer) == list(comp)
        assert all(layer and list(layer) == sorted(layer) for layer in layers)
        # every class of a layer lies below every class of each later layer
        for i, lo in enumerate(layers):
            for hi in layers[i + 1:]:
                assert all((a, b) in below for a in lo for b in hi), (model, layers)
        # no cut inside a layer puts every class on one side below the other
        for layer in layers:
            for k in range(1, len(layer)):
                for part in itertools.combinations(layer, k):
                    rest = [b for b in layer if b not in part]
                    assert not all((a, b) in below for a in part for b in rest), (model, layers)


def test_region_contains_ma_hand_cases():
    m = parse_model_spec(MA, J=5)
    # labels (2, 3, 4): delta2 < 0 < delta4 < delta3
    assert region_contains(m, (-1.0, 2.0, 1.0))
    assert not region_contains(m, (0.0, 0.0, 0.0))  # strict boundary
    assert not region_contains(m, (-1.0, 1.0, 2.0))  # delta4 > delta3
    assert not region_contains(m, (0.5, 2.0, 1.0))  # delta2 > 0
    me = parse_model_spec("mu1, mu2, mu3", J=3)
    assert region_contains(me, (7.0, -3.0))  # empty constraint set


def test_region_dimension_mismatch():
    m = parse_model_spec(MA, J=5)
    with pytest.raises(ValueError):
        region_contains(m, (1.0, 2.0))
    with pytest.raises(ValueError):
        region_mask(m, np.zeros((5, 2)))


def test_region_cone_property():
    rng = np.random.default_rng(7)
    models = [parse_model_spec(s, J=5) for s in (MA, MB, "mu1 < mu2 < mu3 < mu4 < mu5")]
    for m in models:
        dim = m.q - 1
        for _ in range(100):
            delta = rng.normal(size=dim) * 5.0
            inside = region_contains(m, delta)
            for c in (1e-3, 0.7, 42.0):
                assert region_contains(m, c * delta) == inside


def _mu_level_oracle(model, delta):
    # independent route: build the group-mean vector and test every relation
    value = dict(zip((cls[0] for cls in model.classes), [0.0, *delta]))
    mu = {}
    for cls in model.classes:
        for g in cls:
            mu[g] = value[cls[0]]
    ok = True
    for a, b in model.order:
        ok &= mu[a] < mu[b]
    return ok


def test_region_matches_mu_level_enumeration():
    # exhaustive sign/ordering patterns for collapsed dimension <= 3
    specs = [(MA, 5), (MB, 5), ("mu1 < {mu2 = mu3} < mu4", 4), ("{mu1, mu2} < mu3", 3)]
    for text, J in specs:
        m = parse_model_spec(text, J=J)
        dim = m.q - 1
        mags = [1.0, 2.0, 3.0, 4.0][:dim]
        for perm in itertools.permutations(mags):
            for signs in itertools.product((-1.0, 1.0), repeat=dim):
                delta = np.array(perm) * np.array(signs)
                assert region_contains(m, delta) == _mu_level_oracle(m, delta)


def test_region_mask_agrees_with_scalar():
    rng = np.random.default_rng(11)
    m = parse_model_spec(MA, J=5)
    deltas = rng.normal(size=(500, 3)) * 2.0
    mask = region_mask(m, deltas)
    for i in range(deltas.shape[0]):
        assert mask[i] == region_contains(m, deltas[i])


def test_region_mask_matches_closure_on_random_models():
    # the mask tests only the transitive reduction, the oracle the whole
    # closure; small integers make ties, where strictness matters
    rng = np.random.default_rng(314)
    for _ in range(200):
        J = int(rng.integers(2, 11))
        m = _random_model(rng, J)
        dim = m.q - 1
        deltas = np.vstack([rng.integers(-2, 3, size=(100, dim)),
                            rng.normal(size=(100, dim))])
        want = [region_contains(m, d) for d in deltas]
        assert np.array_equal(region_mask(m, deltas), want)
    chain = " < ".join(f"mu{j}" for j in range(1, 11))
    assert len(parse_model_spec(chain, J=10).order_reduction) == 9
    assert len(parse_model_spec(chain, J=10).order) == 45
    m2 = parse_model_spec("mu1 < mu2 < mu3 < mu4 < mu5", J=5)
    assert m2.order_reduction == ((1, 2), (2, 3), (3, 4), (4, 5))


def test_encompassing_of_shapes():
    ma = parse_model_spec(MA, J=5, name="Ma")
    d = encompassing_of(ma)
    assert isinstance(d, ConstraintModel)
    assert (d.J, d.q, d.classes, d.order) == (5, 4, ma.classes, frozenset())
    assert d.columns == ma.columns
    # the encompassing model is the partition alone: two orders on the same
    # classes share it, and it equals the order-free model of any name
    reversed_order = parse_model_spec("mu4 < mu1 < mu2, mu3 = mu5", J=5)
    assert encompassing_of(reversed_order) == d
    assert hash(encompassing_of(reversed_order)) == hash(d)
    assert d == parse_model_spec("mu1, mu2, mu3 = mu5, mu4", J=5, name="free")
    m0 = parse_model_spec("mu1 = mu2 = mu3", J=3)
    assert encompassing_of(m0) == m0
    me = parse_model_spec("mu1, mu2, mu3, mu4", J=4)
    assert encompassing_of(me).q == 4


def test_build_design_two_groups():
    me = parse_model_spec("mu1, mu2", J=2)
    Z = build_design(encompassing_of(me), (1, 1))
    assert np.array_equal(Z, np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_build_design_null_is_ones_column():
    m0 = parse_model_spec("mu1 = mu2 = mu3", J=3)
    Z = build_design(encompassing_of(m0), (2, 3, 1))
    assert Z.shape == (6, 1)
    assert np.array_equal(Z, np.ones((6, 1)))


def test_build_design_merged_class_column():
    # Ma with n_j = 2: the class {3,5} column covers rows of groups 3 and 5
    ma = parse_model_spec(MA, J=5)
    d = encompassing_of(ma)
    Z = build_design(d, (2, 2, 2, 2, 2))
    assert Z.shape == (10, 4)
    assert np.array_equal(Z[:, 0], np.ones(10))
    col3 = d.columns[3]
    expect = np.zeros(10)
    expect[4:6] = 1.0  # group 3 rows
    expect[8:10] = 1.0  # group 5 rows
    assert np.array_equal(Z[:, col3], expect)
    col2 = d.columns[2]
    assert Z[:, col2].sum() == 2.0 and Z[2:4, col2].all()
    # every row has intercept plus at most one effect indicator
    assert np.all(Z.sum(axis=1) <= 2.0)


def test_build_design_errors():
    me = parse_model_spec("mu1, mu2", J=2)
    d = encompassing_of(me)
    with pytest.raises(ValueError):
        build_design(d, (3,))
    with pytest.raises(ValueError):
        build_design(d, (3, 0))


def test_model_validation_rejects_bad_pieces():
    with pytest.raises(ValueError):
        ConstraintModel(name="", J=3, classes=((1, 2),), order=frozenset())  # not a partition
    with pytest.raises(ValueError):
        ConstraintModel(name="", J=2, classes=((1,), (2,)),
                        order=frozenset({(1, 1)}))  # reflexive pair
    with pytest.raises(ValueError):
        ConstraintModel(name="", J=3, classes=((1,), (2,), (3,)),
                        order=frozenset({(1, 2), (2, 3)}))  # not closed
    with pytest.raises(ParseError):
        ConstraintModel.create(2, [(1,), (2,)], [(1, 2), (2, 1)])  # cycle
