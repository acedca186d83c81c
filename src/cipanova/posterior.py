"""Prior and posterior masses of the constraint cone of an order-constrained model.

The Bayes factor of such a model against its encompassing model is the ratio
of the posterior to the prior mass of its cone; compare._breakdown composes it,
with its resolution bound, from the two masses computed here.  The cone reads
only the order of the class means, and under the conditional intrinsic prior
the class means are independent Gaussians:

- a priori the class-c mean is alpha0 plus a scale shared by all classes
  times z_c / sqrt(n_c); the cone ignores the location and the scale, so the
  prior mass is P(order) for independent N(0, 1/n_c) class means;
- a posteriori, given eta = sigma^2/(sigma^2+sigma0^2), the class-c mean minus
  alpha0 is Gaussian too, with sd sigma(eta)/sqrt(n_c): one scale again, so
  P(order | eta) is the prior's problem with the means over sigma(eta)
  (PreparedIntegrand.standardized_means).

Both masses are exact and draw nothing, and both run the recursion below on
the sds s_c = 1/sqrt(n_c): the prior mass at one node, mu = 0, the posterior
mass as the evidence-weighted mixture of P(order | eta) over the eta nodes
and weights of the evidence's settled Gauss-Chebyshev rule.  That rule
doubles until the evidence settles, so a narrow eta posterior at large n
still spans many nodes; the mixture is not itself checked against a finer
rule in eta.

For independent variables the probability of a strict partial order factors over the weak
components of the order, and within a component it is a recursion over the
down-sets (order ideals) I:

    H_empty = 1,  H_I(t) = int_{-inf}^t g_I(s) ds,  g_I = sum_{j maximal in I} f_j H_{I-j},

with the mass H_all(inf).  A component splits into layers, each class of one
below every class of the next (ConstraintModel.layers).  When its first layer
A and its last layer B are antichains of two or more classes, with R the
classes between them, the component A + R + B has the mass

    int g_R(s) prod_{b in B} S_b(s) ds,  S_b(s) = int_s^inf f_b,

where g_R is the last integrand of the recursion over the down-sets of R
alone, started from H_empty = prod_{a in A} F_a, F_a(t) = int_{-inf}^t f_a.
With R empty, g_R is d/dt prod_a F_a = sum_a f_a prod_{a' != a} F_a'.  Either
layer may be missing (A or B empty: H_empty = 1, or no S_b).

Each cumulative integral runs on a per-node grid of Chebyshev-Lobatto panels
over [min(mu_c - 10 s_c), max(mu_c + 10 s_c)], the one truncation (every
class density runs over all of it), panel widths scaled to the sd of the
narrowest class covering each point; each F_a runs left to right and
each S_b right to left on the same panels, so neither is formed as one minus
the other, and the last integrand is integrated (times every S_b) in one
step.  The class densities and every level's H and integrand are rows of one
workspace per call, each row the Lobatto points by the panels of every node
(on the starting grid and its check together), padded to whole rows; a
level's integrand is summed from row views of the densities and the previous
H, so no step gathers copies.

The starting grid of p panels per node is checked against a grid 1.5 times as
fine, ceil(1.5 p) panels, and the mass is the finer grid's.  A 24-point panel
rule gains about 1e5 in accuracy each time its panels halve (pop3's M2 at
seed 7401: 6.3e-9, 5.9e-14 and 1.4e-15 relative error at 4, 8 and 16
panels), so the change between the two grids is the starting grid's error,
and the finer grid's is far below it.  While the change is POSTERIOR_REL_TOL
or more, the finer grid doubles, splitting every panel in two.  A posterior
mass too small for the truncation to the grid's span to be negligible
(truncation_floor)
is reported as unresolved, with an upper bound instead of a value, so its
refinement stops once the last two grids put it under the floor;
compare.bf_k0 refuses a prior mass below it.  A larger mass that has not
settled when the next grid would not fit one node under MAX_ELEMENTS raises
ValueError, since dropping it would skew the other models' probabilities.
The number of down-sets can grow as 2^w for an antichain layer of width w
(counting linear extensions is #P-complete; Brightwell and Winkler 1991,
Order); only a wide layer in R pays it, and a component whose rows leave
MAX_ELEMENTS no room for one node on 2 * MIN_PANELS panels is refused the
same way (between two classes, an antichain of 15 or more).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, pairwise

import numpy as np
from numpy.polynomial import chebyshev

from .constraints import ConstraintModel, model_to_string
from .evidence import PreparedIntegrand
from .gaussian import LOG_2PI, logsumexp

# a posterior mass is accepted when refining the grid moves it by less than this
POSTERIOR_REL_TOL = 1e-9
# each node's grid spans [min(mu_c - SPAN_SD s_c), max(mu_c + SPAN_SD s_c)], so
# each class has at most erfc(SPAN_SD / sqrt 2) of its mass outside it
SPAN_SD = 10.0
_TAIL_PER_CLASS = 1.6e-23  # erfc(10 / sqrt(2)) = 1.52e-23, rounded up
# Chebyshev-Lobatto points per panel, and the starting panel width in units of
# the sd of the narrowest class covering the panel.  From 4.5 sd the first
# doubling moved the benchmark's masses (pop3, pop2l, j10) by 1e-10 or less,
# so they settle on the second grid; from 6 sd the move straddled
# POSTERIOR_REL_TOL and a third of the j10 datasets paid for a third grid,
# which costs more than the first two together.
PANEL_POINTS = 24
PANEL_SD = 4.5
# starting panels per node at least, room for classes up to 16 sd apart
# (MIN_PANELS * PANEL_SD - 2 * SPAN_SD): below that the grid, and so the cost
# of a mass, does not follow the data; from need / PANEL_SD alone it took
# 6 to 9 panels on pop3 and j10 datasets
MIN_PANELS = 8
# float64 elements one recursion step may hold (32 MB): nodes go through in
# chunks under it, and the grid is refined no further than one node fits it
MAX_ELEMENTS = 2**22
# nodes lighter than this are skipped when their summed bound on the mass is
# at most PRUNE_REL times the mass of the nodes kept
PRUNE_WEIGHT = 1e-18
PRUNE_REL = 1e-10
# prior cone masses kept per process, one per (order, class sizes), and
# down-set plans, one per order
PRIOR_CACHE_SIZE = 256


class InsufficientPriorMassError(RuntimeError):
    """Raised when an order's prior cone mass is below the resolution asked for."""


@dataclass(frozen=True)
class ConeMass:
    """Exact cone mass (None when a posterior mass is unresolved) with its diagnostics.

    doubling_error is the relative change of the mass over the last grid
    refinement, from the starting grid to one 1.5 times as fine or over a
    doubling after it: the error of the coarser grid, far above the reported
    finer grid's (inf when the mass is not positive or no grid was evaluated).
    grid is the points per node and component of the finest grid used (0 if none).
    """

    estimate: float | None
    doubling_error: float
    grid: int


@dataclass(frozen=True)
class PosteriorConeMass(ConeMass):
    """A posterior cone mass, with log_upper_bound the log of a closed-form bound on it."""

    log_upper_bound: float

    @property
    def upper_bound(self) -> float:
        return float(np.exp(self.log_upper_bound))


def truncation_floor(model: ConstraintModel) -> float:
    """Least mass resolved to POSTERIOR_REL_TOL: the grid's span, SPAN_SD sds past the
    outermost classes, leaves out up to _TAIL_PER_CLASS of each ordered class's mass."""
    return (_TAIL_PER_CLASS * sum(len(c.cols) for c in order_components(model))
            / POSTERIOR_REL_TOL)


@lru_cache(maxsize=PRIOR_CACHE_SIZE)
def prior_cone_mass(model: ConstraintModel, sizes: tuple[int, ...]) -> ConeMass:
    """Exact prior cone mass: the down-set recursion at one node, mu = 0 and s_c = 1/sqrt(n_c).

    sizes holds the class sizes as ints, class 0 first.  Computed once per key
    and process (equality ignores the model's name) and returned however
    small; raises ValueError, naming the model, when its grid does not settle.
    """
    s = 1.0 / np.sqrt(np.array(sizes, dtype=float))
    mass, change, grid, _ = _converged_mass(order_components(model), np.zeros((1, len(s))), s,
                                            np.ones(1))
    if not change < POSTERIOR_REL_TOL:
        raise ValueError(
            f"the prior cone mass of {model.name or model_to_string(model)} did not settle "
            "within the memory budget; its exact mass is too costly")
    return ConeMass(estimate=mass, doubling_error=float(change), grid=int(grid))


@dataclass(frozen=True)
class _Component:
    """A weak component of the order: its class columns, covering pairs, end layers and middle.

    The end layers are the first and last layers of ConstraintModel.layers
    when that layer is an antichain of two or more classes: the first, A,
    gives the bottom columns, the last, B, the top columns; otherwise bottom
    or top is 0.  The other classes R, the middle, sit between them in member
    order.  pairs holds the columns (a, b) of the covering pairs among the
    members, read-only and 2 x pairs, for _log_pair_bound.  levels holds the
    down-sets of R by size (empty when R is), one (tops, parents) pair per
    down-set d: the maximal classes of d and, for each, the previous level's
    down-set without it, so the integrand of d sums one density-times-H
    product per pair, in this order.  rows, derived from the other fields,
    bounds the grid-sized arrays per node _component_masses holds at once.
    """

    cols: np.ndarray
    pairs: np.ndarray
    levels: tuple[tuple, ...]
    bottom: int
    top: int

    @cached_property
    def level_rows(self) -> int:
        """Most H and integrand rows a step holds: the previous H, the integrand and the new H."""
        # the last level keeps only its integrand, which the S_b multiply; with no
        # middle the block holds the bottom layer's product of F_a alone, and its
        # derivative takes the first bottom density's row
        if not self.levels:
            return 1
        sizes = [1] + [len(lv) for lv in self.levels]
        return max([prev + 2 * cur for prev, cur in zip(sizes, sizes[1:-1])] + [sizes[-2] + 1])

    @cached_property
    def rows(self) -> int:
        # a density row per class, per class and cell its mean and density scale (12 classes
        # to a row), the product row (it also takes the grid points and the last integrand's
        # transpose), two spare rows (a cumulative integral's running totals, and numpy's ufunc
        # buffers: a fixed 3 * 8192 elements a call, whatever its size, so a call of a few
        # hundred cells or fewer holds more than its rows), the level rows and the wider end
        # layer's F_a or S_b
        q = len(self.cols)
        return q + -(-q // 12) + 3 + self.level_rows + max(self.bottom, self.top)


@lru_cache(maxsize=PRIOR_CACHE_SIZE)
def order_components(model: ConstraintModel) -> tuple[_Component, ...]:
    """Bottom layer, middle down-set levels and top layer of each weak component of 2+ classes.

    The plan depends on the order alone, so it is built once per model and
    process (equality ignores the name), and its arrays are read-only.
    Raises ValueError, naming the model, when a component's rows exceed the
    memory budget: MAX_ELEMENTS has no room for one node on 2 * MIN_PANELS
    cells, what the first check of _converged_mass, 1.5 * MIN_PANELS panels,
    takes once padded to a multiple of 8.
    """
    room = MAX_ELEMENTS // (2 * MIN_PANELS * PANEL_POINTS)
    comps = []
    for members, layers in zip(model.components, model.layers):
        if len(members) < 2:
            continue
        bottom, top = (layer if len(layer) > 1 and model.is_antichain(layer) else ()
                       for layer in (layers[0], layers[-1]))
        middle = tuple(r for r in members if r not in bottom + top)
        levels = _downset_levels(middle, model.order, room)
        cols = np.array([model.columns[r] for r in bottom + middle + top])
        pairs = np.array([(model.columns[a], model.columns[b])
                          for a, b in model.order_reduction if a in members]).T
        cols.flags.writeable = pairs.flags.writeable = False
        if levels is not None:
            comps.append(_Component(cols, pairs, levels, len(bottom), len(top)))
        if levels is None or comps[-1].rows > room:
            raise ValueError(
                f"a component of the order of {model.name or model_to_string(model)} over "
                f"{len(members)} classes needs more than {room} rows per grid point; its exact "
                "cone mass exceeds the memory budget")
    return tuple(comps)


def _downset_levels(members: tuple[int, ...], order: frozenset, room: float) -> tuple | None:
    """Down-sets of the members under the order, as bit masks (bit j for members[j]), by size.

    None, as soon as it is known, when one step of the recursion would hold
    more than room H and integrand rows (the previous level and twice the new).
    """
    m, at = len(members), {r: j for j, r in enumerate(members)}
    below, above = [0] * m, [0] * m  # the members below and above each
    for a, b in order:
        if a in at and b in at:
            below[at[b]] |= 1 << at[a]
            above[at[a]] |= 1 << at[b]
    level = {0: 0}
    levels = []
    for _ in range(m):
        nxt: dict[int, int] = {}
        for mask in level:
            for j in range(m):
                if not mask >> j & 1 and below[j] & ~mask == 0:
                    nxt.setdefault(mask | 1 << j, len(nxt))
            if len(level) + 2 * len(nxt) > room:
                return None
        terms = []
        for mask in nxt:
            js = tuple(j for j in range(m) if mask >> j & 1 and above[j] & mask == 0)
            terms.append((js, tuple(level[mask ^ 1 << j] for j in js)))
        levels.append(tuple(terms))
        level = nxt
    return tuple(levels)


@lru_cache(maxsize=None)
def _lobatto_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending Chebyshev-Lobatto points x on [-1, 1] and the matrix M with (M g)_i ~ int_{-1}^{x_i} g.

    M maps values to Chebyshev coefficients (the inverse of chebvander at x),
    integrates those exactly from -1 (chebint) and evaluates the antiderivative
    at the points (chebvander one degree up).
    """
    x = np.cos(np.pi * np.arange(points)[::-1] / (points - 1))
    anti = chebyshev.chebvander(x, points) @ chebyshev.chebint(np.eye(points), lbnd=-1)
    return x, anti @ np.linalg.inv(chebyshev.chebvander(x, points - 1))


def _resolution_need(mu: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per node, the sorted class-interval ends and the cumulative resolution need at them.

    The need grows at rate 1/s_c of the narrowest class c whose interval
    mu_c +- SPAN_SD s_c covers the point, and not at all in gaps no class
    covers, so equal steps of need give panels sized to the local sd.
    """
    reach = SPAN_SD * s
    ends = np.concatenate([mu - reach, mu + reach], axis=1)
    ends.sort(axis=1)
    mids = 0.5 * (ends[:, :-1] + ends[:, 1:])
    covers = np.abs(mids[:, :, None] - mu[:, None, :]) < reach
    rate = (covers * (1.0 / s)).max(axis=2)
    need = np.zeros(ends.shape)
    (rate * (ends[:, 1:] - ends[:, :-1])).cumsum(axis=1, out=need[:, 1:])
    return ends, need


def _panel_edges(ends: np.ndarray, need: np.ndarray, *counts: int) -> list[np.ndarray]:
    """Per count and node, the count + 1 points that split the node's total need into equal steps.

    np.interp on all nodes and counts at once, bit for bit: a step below the
    total takes interp's slope * (x - x0) + y0 from the last need at or below
    it (over plateaus), the total the last end.
    """
    x = np.concatenate([np.arange(p) * (1.0 / p) for p in counts])  # np.linspace's steps,
    x = x * need[:, -1:]  # bit for bit
    j = np.count_nonzero(need[:, None, 1:] <= x[..., None], axis=2)  # the segment of each step,
    j += np.arange(0, need.size, need.shape[1])[:, None]  # as a flat index into need and ends
    x0, x1, y0, y1 = need.take(j), need.take(j + 1), ends.take(j), ends.take(j + 1)
    inner = (y1 - y0) / (x1 - x0) * (x - x0) + y0
    return [np.concatenate([inner[:, a:b], ends[:, -1:]], axis=1)
            for a, b in pairwise(accumulate(counts, initial=0))]


def _component_masses(comp: _Component, mu: np.ndarray, s: np.ndarray,
                      grids: list[np.ndarray]) -> list[np.ndarray]:
    """P(the component's order | eta) at each node, on each grid of panel edges per node.

    mu holds the class means, a row per node, and s one sd per class.  Each
    row of one workspace (a density, the product row, a level's H or
    integrand, an F_a or S_b) is the Lobatto points by the cells, every node's
    panels on each grid in turn, padded to a multiple of 8 (OpenBLAS sums a
    ragged tail in another order) with cells of width 0, whose densities are
    0: every pass runs on whole rows, all grids go through in one pass, and a
    row integrates within its panels as M @ row.  The previous H sits at one
    end of the level rows and the new H at the other, integrands summed from
    row views through the product row; one block per call is reused by the
    allocator (fresh arrays per level made malloc hand memory back after
    every call).  With no middle, the last integrand is the bottom layer's
    product of F_a differentiated by the product rule, G <- G F_a + f_a P and
    P <- P F_a; the mass integrates it times every S_b.
    """
    x, M = _lobatto_rule(PANEL_POINTS)
    q, n, levels = len(comp.cols), len(mu), comp.level_rows
    cuts = [slice(*ab) for ab in pairwise(accumulate((e.shape[1] - 1 for e in grids), initial=0))]
    cells = n * cuts[-1].stop
    width = -(-cells // 8) * 8
    work = np.empty((q + 1 + levels + max(comp.bottom, comp.top), PANEL_POINTS, width))
    dens, term, block, F = work[:q], work[q], work[q + 1:q + 1 + levels], work[q + 1 + levels:]
    _densities(dens, term, x, mu, s, grids, cells)
    H, front = block[:1], True  # front: H holds the first rows of the block
    if comp.bottom:
        _cumulate(dens[:comp.bottom], F[:comp.bottom], M, n, cuts)
        g, H = dens[0], F[:1]
        for f, Fa in zip(dens[1:comp.bottom], F[1:comp.bottom]):
            if not comp.levels:
                g *= Fa
                g += np.multiply(f, H[0], out=f)
            H *= Fa
    else:
        H.fill(1.0)
    middle = dens[comp.bottom:]
    for lv in comp.levels[:-1]:
        k = len(lv)
        g, new = (block[-2 * k:-k], block[-k:]) if front else (block[k:2 * k], block[:k])
        _cumulate(_level_integrand(lv, middle, H, term, g), new, M, n, cuts)
        H, front = new, not front
    if comp.levels:
        g = _level_integrand(comp.levels[-1], middle, H, term, block[-1:] if front else block[:1])
    if comp.top:  # g times each S_b, integrated right to left
        _cumulate(dens[q - comp.top:], F[:comp.top], M, n, cuts, leftward=True)
        for Sb in F[:comp.top]:
            g *= Sb
    # one dot product per cell, node by node on a (cells, points) copy held in
    # the product row, as in component_masses_reference: OpenBLAS sums a
    # ragged tail of rows in another order
    by_cell = term.reshape(width, PANEL_POINTS)
    np.copyto(by_cell, g.reshape(term.shape).T)
    g = by_cell[:cells].reshape(n, -1, PANEL_POINTS)
    return [(g[:, cut] @ M[-1]).sum(axis=-1) for cut in cuts]


def _densities(dens: np.ndarray, term: np.ndarray, x: np.ndarray, mu: np.ndarray,
               s: np.ndarray, grids: list[np.ndarray], cells: int) -> None:
    """Each class's density at the grid points, times the panel half-width, into dens.

    term takes the grid points.  Every per-cell array runs to the padded
    width: the cells past the last node have width 0 and mean 0, so their
    points and densities are 0.  Each class's density runs over the whole
    grid, which is the truncation.  The per-cell arrays are freed on return,
    before the recursion's rows fill.
    """
    n, q = mu.shape
    width = term.shape[-1]
    left = np.concatenate([e[:, :-1] for e in grids], axis=1).ravel()
    half = np.zeros(width)
    np.subtract(np.concatenate([e[:, 1:] for e in grids], axis=1).ravel(), left, out=half[:cells])
    half *= 0.5
    np.multiply((1.0 + x)[:, None], half, out=term)
    term[:, :cells] += left
    # per class and cell, the mean (0 past the last node)
    repeats = np.full(n + 1, cells // n)
    repeats[n] = width - cells
    np.subtract(term, np.repeat(np.c_[mu.T, np.zeros(q)], repeats, axis=1)[:, None], out=dens)
    dens *= (1.0 / s)[:, None, None]
    dens *= dens
    dens *= -0.5
    np.exp(dens, out=dens)
    # every integrand holds one density factor, so the panel half-widths are folded in here
    dens *= (half / (s * np.sqrt(2.0 * np.pi))[:, None])[:, None]


def _cumulate(g: np.ndarray, out: np.ndarray, M: np.ndarray, n: int, cuts: list[slice],
              leftward: bool = False) -> None:
    """Each row of out, the cumulative integral of that row of g over n nodes' cells, grid by grid.

    M integrates within each panel, flipped from its right end when leftward;
    the totals of the panels to the left (right) at that node and grid follow.
    """
    out = out.reshape((-1,) + M.shape[:1] + out.shape[-1:])
    np.matmul(M[::-1, ::-1] if leftward else M, g.reshape(out.shape), out=out)
    cells = n * cuts[-1].stop
    totals = out[:, 0 if leftward else -1]
    offsets = np.zeros(totals.shape)  # 0 on the padding, whose totals are 0
    sums = offsets[:, :cells].reshape(len(out), n, -1)
    parts = totals[:, :cells].reshape(sums.shape)
    for cut in cuts:  # each grid's running totals, less each panel's own
        into, part = sums[..., cut], parts[..., cut]
        if leftward:
            into, part = into[..., ::-1], part[..., ::-1]
        part.cumsum(axis=-1, out=into)
    offsets -= totals
    out += offsets[:, None]


def _level_integrand(lv: tuple, dens: np.ndarray, H: np.ndarray, term: np.ndarray,
                     g: np.ndarray) -> np.ndarray:
    """g, its row d the sum over the maximal classes j of down-set d of f_j times H of d - j.

    Each product goes through the reused row term and is added in place, in
    the order of lv.
    """
    for row, (tops, parents) in zip(g, lv):
        np.multiply(dens[tops[0]], H[parents[0]], out=row)
        for j, p in zip(tops[1:], parents[1:]):
            row += np.multiply(dens[j], H[p], out=term)
    return g


def _log_pair_bound(comps, mu: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Per node, log of min over covering pairs (a, b) of a closed-form bound on P(X_a < X_b).

    P(X_a < X_b) = Phi(z); Phi(z) <= 1, and for z < 0 also Phi(z) <= 1/2 and
    Phi(z) <= phi(z)/|z| (Mills' ratio).
    """
    a, b = np.concatenate([c.pairs for c in comps], axis=1)
    z = (mu[:, b] - mu[:, a]) / np.hypot(s[a], s[b])
    neg = np.minimum(z, -1e-300)
    mills = -0.5 * neg * neg - 0.5 * LOG_2PI - np.log(-neg)
    log_phi = np.where(z >= 0.0, 0.0, np.minimum(np.log(0.5), mills))
    return np.min(log_phi, axis=1)


def _converged_mass(comps, mu, s, w, negligible=-np.inf) -> tuple[float, float, int, float]:
    """Mixture mass over the given nodes, refining every component's grid until it settles.

    mu holds the class means, a row per node, and s one sd per class.  Each
    component's starting grid is checked against one 1.5 times as fine,
    then the finer grid doubles.  Returns (mass on the finest grid, relative
    change over the last refinement, points per node of the finest grid
    evaluated, level: largest |mass| of the last two grids).  It stops when
    the change falls below POSTERIOR_REL_TOL, the mass is not positive
    (change inf), the level is at or below negligible, or the next grid would
    not fit one node under MAX_ELEMENTS; mass and level are nan when the
    first check does not.
    """
    layouts = []
    for comp in comps:
        cmu, cs = mu[:, comp.cols], s[comp.cols]
        # the cells one call may hold over all its nodes, which the kernel pads to a multiple of 8
        room = MAX_ELEMENTS // (comp.rows * PANEL_POINTS) // 8 * 8
        layouts.append((comp, cmu, cs, room, *_resolution_need(cmu, cs)))
    cap = min(room for _, _, _, room, *_ in layouts) * PANEL_POINTS  # grid points per node
    base = [max(MIN_PANELS, math.ceil(need[:, -1].max() / PANEL_SD)) for *_, need in layouts]

    def masses_at(grids):  # per component, its edges on each grid; one mass per grid
        node = np.ones((len(grids[0]), len(w)))
        for (comp, cmu, cs, room, *_), edges in zip(layouts, grids):
            cells = [e.shape[1] - 1 for e in edges]  # per node
            # all grids in one call or, the starting grid and its check, one per call
            for group in [slice(None)] if sum(cells) <= room else [slice(0, 1), slice(1, 2)]:
                step = room // sum(cells[group])
                for k in (slice(j, j + step) for j in range(0, len(w), step)):
                    node[group, k] *= _component_masses(comp, cmu[k], cs,
                                                        [e[k] for e in edges[group]])
        return [float(w @ row) for row in node]

    # the starting grid and the first check, a grid 1.5 times as fine; then doublings
    counts = [(p, -(-3 * p // 2)) for p in base]
    if max(fine for _, fine in counts) * PANEL_POINTS > cap:
        return np.nan, np.inf, 0, np.nan
    masses = []
    while True:
        masses += masses_at([_panel_edges(ends, need, *c)
                             for (*_, ends, need), c in zip(layouts, counts)])
        prev, mass = masses[-2:]
        grid = max(c[-1] for c in counts) * PANEL_POINTS
        change = abs(mass - prev) / mass if mass > 0.0 else np.inf
        level = max(abs(mass), abs(prev))
        if not POSTERIOR_REL_TOL <= change < np.inf or level <= negligible or 2 * grid > cap:
            return mass, change, grid, level
        counts = [(2 * c[-1],) for c in counts]


def posterior_cone_mass(model: ConstraintModel, prep: PreparedIntegrand) -> PosteriorConeMass:
    """Exact posterior cone mass, mixed over the eta nodes of the model's prepared design.

    Nodes lighter than PRUNE_WEIGHT are skipped only while their summed
    closed-form bound stays within PRUNE_REL of the mass; otherwise the
    heaviest skipped nodes are added until it does.  A mass that does not
    settle is unresolved only when it is negligible, i.e. the bound or the
    last two grids put it within the truncation floor; otherwise it raises
    ValueError, like an order whose rows exceed the memory budget.
    """
    comps = order_components(model)
    eta, log_w = prep.eta_weights
    w = np.exp(log_w)
    mu, s = prep.standardized_means(eta), 1.0 / np.sqrt(prep.sizes)
    log_bound = log_w + _log_pair_bound(comps, mu, s)
    bound = np.exp(log_bound)
    log_upper_bound = float(logsumexp(log_bound))
    floor = truncation_floor(model)
    if np.exp(log_upper_bound) <= floor:
        return PosteriorConeMass(estimate=None, doubling_error=np.inf, grid=0,
                                 log_upper_bound=log_upper_bound)

    def settle(keep):  # a mass at or below negligible is reported unresolved, not refused
        negligible = floor - bound[~keep].sum()
        mass, change, grid, level = _converged_mass(comps, mu[keep], s, w[keep], negligible)
        return mass, change, grid, level <= negligible, change < POSTERIOR_REL_TOL and mass >= floor

    keep = w > PRUNE_WEIGHT
    mass, change, grid, small, resolved = settle(keep)
    if resolved and bound[~keep].sum() > PRUNE_REL * mass:
        skipped = np.flatnonzero(~keep)
        heavy_first = skipped[np.argsort(-bound[skipped])]
        suffix = np.cumsum(bound[heavy_first][::-1])[::-1]
        keep[heavy_first[:np.searchsorted(-suffix, -PRUNE_REL * mass)]] = True
        mass, change, grid, small, resolved = settle(keep)
    if not resolved and not small:
        raise ValueError(
            f"the posterior cone mass of {model.name or model_to_string(model)} did not "
            "settle within the memory budget; its exact mass is too costly")
    return PosteriorConeMass(estimate=mass if resolved else None, doubling_error=float(change),
                             grid=int(grid), log_upper_bound=log_upper_bound)
