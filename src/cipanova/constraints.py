"""Constrained ANOVA model structures and the text notation for them.

A model is a partition of the group indices 1..J into equality classes plus a
strict partial order over those classes.  Models are written in a small text
notation using tokens mu1..muJ, for example::

    mu2 < mu1 < mu4 < {mu3 = mu5}
    {mu1, mu3} > {mu2, mu4, mu5}
    mu1 = mu2 = mu3
    mu1, mu2, mu3

Chains expand to adjacent relations plus their transitive closure, brace sets
expand to all pairwise relations, and ``>`` is normalized to ``<`` by swapping
sides.  Groups not mentioned are free singleton classes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property


class ParseError(ValueError):
    """Raised when a model string cannot be parsed into a valid model."""


_TOKEN = re.compile(r"(mu\d+|[<>={},])")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"malformed token at position {pos}: {text[pos:pos + 12]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise ParseError("empty model string")
    return tokens


def _transitive_closure(pairs: set[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    succ: dict[int, set[int]] = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    closed = set()
    for start in succ:
        stack = list(succ[start])
        seen = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            closed.add((start, node))
            stack.extend(succ.get(node, ()))
    return frozenset(closed)


@dataclass(frozen=True)
class ConstraintModel:
    """Equality partition of group means with a strict order over the classes.

    ``classes`` is a partition of {1..J}; each class is a sorted tuple of the
    group indices whose means are constrained equal, and the classes are
    sorted, so class 0 is the class of group 1.  ``order`` holds pairs of
    class representatives (lowest member index) ``(a, b)`` meaning the class-a
    mean is strictly below the class-b mean; it is transitively closed and
    acyclic.  A model is its partition and its order: ``name`` is a label
    that equality and hashing ignore.
    """

    name: str = field(compare=False)
    J: int
    classes: tuple[tuple[int, ...], ...]
    order: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for cls in self.classes:
            if not cls or tuple(sorted(cls)) != cls:
                raise ValueError(f"class {cls} must be a sorted nonempty tuple")
            if seen & set(cls):
                raise ValueError("classes are not disjoint")
            seen |= set(cls)
        if seen != set(range(1, self.J + 1)):
            raise ValueError(f"classes do not partition 1..{self.J}")
        if self.classes != tuple(sorted(self.classes)):
            raise ValueError("classes must be sorted by representative")
        reps = {cls[0] for cls in self.classes}
        for a, b in self.order:
            if a not in reps or b not in reps:
                raise ValueError(f"order pair ({a}, {b}) does not name class representatives")
            if a == b:
                raise ValueError("cycle in order relation")
        for a, b in self.order:
            for c, d in self.order:
                if b == c and (a, d) not in self.order:
                    raise ValueError("order relation is not transitively closed")

    @classmethod
    def create(cls, J: int, classes, order, name: str = "") -> "ConstraintModel":
        """Normalize (sort, transitively close) and validate the pieces."""
        norm = tuple(sorted(tuple(sorted(c)) for c in classes))
        closed = _transitive_closure({(int(a), int(b)) for a, b in order})
        for a, b in closed:
            if a == b:
                raise ParseError("cycle in order relation")
        return cls(name=name, J=J, classes=norm, order=closed)

    @property
    def q(self) -> int:
        return len(self.classes)

    @property
    def is_null(self) -> bool:
        return len(self.classes) == 1

    @property
    def is_encompassing(self) -> bool:
        return len(self.classes) == self.J and not self.order

    @property
    def has_order(self) -> bool:
        return bool(self.order)

    @cached_property
    def order_reduction(self) -> tuple[tuple[int, int], ...]:
        """Sorted pairs of the transitive reduction of ``order``; they imply every other pair."""
        return tuple(sorted(_transitive_reduction(set(self.order))))

    @cached_property
    def columns(self) -> dict[int, int]:
        """Column of each group's class: class c is column c, so group 1's class is column 0."""
        return {g: c for c, cls in enumerate(self.classes) for g in cls}

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Weak components of the order as sorted class representatives, by least member."""
        adj: dict[int, set[int]] = {cls[0]: set() for cls in self.classes}
        for a, b in self.order:
            adj[a].add(b)
            adj[b].add(a)
        comps = []
        left = set(adj)
        while left:
            stack, comp = [min(left)], set()
            while stack:
                node = stack.pop()
                if node not in comp:
                    comp.add(node)
                    stack.extend(adj[node] - comp)
            comps.append(tuple(sorted(comp)))
            left -= comp
        return tuple(comps)

    @cached_property
    def layers(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per weak component, its finest split into layers L_1 < ... < L_k.

        Every class of L_i lies below every class of L_(i+1), and no finer
        split has that property (the ordinal-sum decomposition of the
        component's order).  Each layer holds sorted class representatives.
        The classes, ranked by their number of predecessors, are cut where
        every class so far lies below every class after it.
        """
        preds = {cls[0]: 0 for cls in self.classes}
        for _, b in self.order:
            preds[b] += 1
        layers = []
        for comp in self.components:
            ranked = sorted(comp, key=lambda r: (preds[r], r))
            split, start = [], 0
            for end in range(1, len(ranked) + 1):
                if all((a, b) in self.order for a in ranked[start:end] for b in ranked[end:]):
                    split.append(tuple(sorted(ranked[start:end])))
                    start = end
            layers.append(tuple(split))
        return tuple(layers)

    def is_antichain(self, reps: tuple[int, ...]) -> bool:
        """Whether no class of the given representatives lies below another."""
        return not any((a, b) in self.order for a in reps for b in reps)


def parse_model_spec(text: str, J: int, name: str = "") -> ConstraintModel:
    """Parse the text notation into a ConstraintModel over groups 1..J."""
    tokens = _tokenize(text)
    clauses = _split_clauses(tokens)
    class_of: dict[int, tuple[int, ...]] = {}
    relations: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for clause in clauses:
        terms, ops = _parse_clause(clause)
        terms, ops = _fold_equalities(terms, ops)
        directions = set(ops)
        if directions == {">"}:
            terms = terms[::-1]
        elif directions and directions != {"<"}:
            raise ParseError("mixed '<' and '>' directions in one chain")
        for term in terms:
            for c in term:
                _claim(class_of, c, J)
        for lo, hi in zip(terms, terms[1:]):
            for a in lo:
                for b in hi:
                    relations.add((a, b))
    for g in range(1, J + 1):
        if g not in class_of:
            class_of[g] = (g,)
    classes = sorted(set(class_of.values()))
    rep_pairs = {(a[0], b[0]) for a, b in relations}
    return ConstraintModel.create(J, classes, rep_pairs, name=name)


def _claim(class_of: dict[int, tuple[int, ...]], cls: tuple[int, ...], J: int) -> None:
    for g in cls:
        if g < 1 or g > J:
            raise ParseError(f"group index {g} out of range 1..{J}")
        prev = class_of.get(g)
        if prev is not None and prev != cls:
            raise ParseError(f"group {g} appears in two equality classes")
        class_of[g] = cls


def _split_clauses(tokens: list[str]) -> list[list[str]]:
    clauses: list[list[str]] = [[]]
    depth = 0
    for tok in tokens:
        if tok == "{":
            depth += 1
        elif tok == "}":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced '}'")
        if tok == "," and depth == 0:
            clauses.append([])
        else:
            clauses[-1].append(tok)
    if depth != 0:
        raise ParseError("unbalanced '{'")
    if any(not c for c in clauses):
        raise ParseError("empty clause")
    return clauses


def _parse_clause(tokens: list[str]) -> tuple[list[list[tuple[int, ...]]], list[str]]:
    # A term is a list of classes: a plain mu or an equality brace gives one
    # class, a comma brace gives one singleton class per member.
    terms: list[list[tuple[int, ...]]] = []
    ops: list[str] = []
    i = 0
    want_term = True
    while i < len(tokens):
        tok = tokens[i]
        if want_term:
            if tok.startswith("mu"):
                terms.append([(int(tok[2:]),)])
                i += 1
            elif tok == "{":
                term, i = _parse_brace(tokens, i)
                terms.append(term)
            else:
                raise ParseError(f"expected a mean or brace group, got {tok!r}")
            want_term = False
        else:
            if tok in ("<", ">", "="):
                ops.append(tok)
                i += 1
                want_term = True
            else:
                raise ParseError(f"expected an operator, got {tok!r}")
    if want_term:
        raise ParseError("dangling operator at end of chain")
    return terms, ops


def _parse_brace(tokens: list[str], i: int) -> tuple[list[tuple[int, ...]], int]:
    i += 1
    members: list[int] = []
    sep = None
    want_mu = True
    while i < len(tokens):
        tok = tokens[i]
        if want_mu:
            if not tok.startswith("mu"):
                raise ParseError(f"expected a mean inside braces, got {tok!r}")
            members.append(int(tok[2:]))
            want_mu = False
        elif tok == "}":
            if sep == "=":
                return [tuple(sorted(set(members)))], i + 1
            return [(g,) for g in members], i + 1
        elif tok in ("=", ","):
            if sep is None:
                sep = tok
            elif sep != tok:
                raise ParseError("brace group mixes '=' and ',' separators")
            want_mu = True
        else:
            raise ParseError(f"unexpected {tok!r} inside braces")
        i += 1
    raise ParseError("unterminated brace group")


def _fold_equalities(terms, ops):
    folded = [terms[0]]
    kept_ops = []
    for op, term in zip(ops, terms[1:]):
        if op == "=":
            prev = folded[-1]
            if len(prev) != 1 or len(term) != 1:
                raise ParseError("'=' joins single means or equality groups only")
            folded[-1] = [tuple(sorted(set(prev[0]) | set(term[0])))]
        else:
            kept_ops.append(op)
            folded.append(term)
    return folded, kept_ops


def model_to_string(model: ConstraintModel) -> str:
    """Print a model in the text notation; parsing the result recovers it.

    A component whose layers are all antichains, each a single class or
    singletons only, prints as one chain clause; any other prints one clause
    per pair of the transitive reduction, which parses back to the same
    closure.
    """
    by_rep = {cls[0]: cls for cls in model.classes}
    clauses = []
    for comp, layers in zip(model.components, model.layers):
        if len(comp) == 1:
            clauses.append(_format_layer([by_rep[comp[0]]], bare_ok=True))
        elif all(len(layer) == 1 or (model.is_antichain(layer)
                                     and all(len(by_rep[r]) == 1 for r in layer))
                 for layer in layers):
            clauses.append(" < ".join(_format_layer([by_rep[r] for r in layer])
                                      for layer in layers))
        else:
            clauses += [f"{_format_layer([by_rep[a]])} < {_format_layer([by_rep[b]])}"
                        for a, b in model.order_reduction if a in comp]
    return ", ".join(clauses)


def _transitive_reduction(pairs: set[tuple[int, int]]) -> set[tuple[int, int]]:
    return {(a, b) for a, b in pairs
            if not any((a, c) in pairs and (c, b) in pairs for c, _ in pairs)}


def _format_layer(classes, bare_ok: bool = False) -> str:
    if len(classes) == 1:
        cls = classes[0]
        if len(cls) == 1:
            return f"mu{cls[0]}"
        body = " = ".join(f"mu{g}" for g in cls)
        return body if bare_ok else "{" + body + "}"
    return "{" + ", ".join(f"mu{cls[0]}" for cls in classes) + "}"


def encompassing_of(model: ConstraintModel) -> ConstraintModel:
    """The encompassing model: the same equality classes with no order."""
    return ConstraintModel(name="", J=model.J, classes=model.classes, order=frozenset())

