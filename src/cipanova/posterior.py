"""Prior and posterior masses of the constraint cone of an order-constrained model.

The Bayes factor of such a model against its encompassing model is the ratio
of the posterior to the prior mass of its cone; compare._breakdown composes it,
with its error and resolution bound, from the two masses computed here.  The
cone reads only the order of the class means, and under the conditional
intrinsic prior the class means are independent Gaussians:

- a priori the class-c mean is alpha0 plus a scale shared by all classes
  times z_c / sqrt(n_c); the cone ignores the location and the scale, so the
  prior mass is the hit fraction of class-mean draws z_c / sqrt(n_c) (strict
  inequalities, no tolerance), a draw and its sign flip counted as a pair.  It
  depends on nothing but the order, the class sizes and the draw count, so it
  is counted once per process on one fixed stream (cached_prior_cone_mass);
- a posteriori, given eta = sigma^2/(sigma^2+sigma0^2), the class-c mean minus
  alpha0 is Gaussian too (PreparedIntegrand.class_mean_moments).

The posterior mass is exact: the evidence-weighted mixture, over the eta nodes
and weights of the evidence's settled Gauss-Chebyshev rule, of P(order | eta).
That rule doubles until the evidence settles, so a narrow eta posterior at
large n still spans many nodes; the mixture is not itself checked against a
finer rule in eta.

For independent variables the probability of a strict partial order factors over the weak
components of the order, and within a component it is a recursion over the
down-sets (order ideals) I:

    H_empty = 1,  H_I(t) = int_{-inf}^t sum_{j maximal in I} f_j(s) H_{I-j}(s) ds,

with the mass H_all(inf).  Each cumulative integral runs on a per-node grid of
Chebyshev-Lobatto panels over [min(mu_c - 10 s_c), max(mu_c + 10 s_c)], panel
widths scaled to the sd of the narrowest class covering each point.  The class
densities are formed in place in one buffer, and each level's integrand is
summed row by row from row views of the densities and the previous level's H,
so a step holds the densities, the previous H, the integrand and the new H,
and no gathered copies.  The grid doubles until the mass moves by less than
POSTERIOR_REL_TOL.  A mass too small for the +-10 sd truncation to be
negligible is reported as unresolved, with an upper bound instead of a value;
a larger mass that the grid cap stops before it settles raises ValueError,
since dropping it would skew the other models' probabilities.  The number of
down-sets can grow as 2^q (counting linear extensions is #P-complete;
Brightwell and Winkler 1991, Order), so a component with more than
MAX_DOWNSETS of them is refused the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev

from .constraints import ConstraintModel, model_to_string
from .evidence import PreparedIntegrand
from .gaussian import LOG_2PI, logsumexp

# a posterior mass is accepted when doubling the grid moves it by less than this
POSTERIOR_REL_TOL = 1e-9
# a component of the order with more down-sets than this is refused; its
# widest levels would already hold some 5000 arrays per grid point, which
# leaves MAX_ELEMENTS room for a grid of about 800 points (12 classes below
# a thirteenth, 4097 down-sets, get 1578)
MAX_DOWNSETS = 2**13
# each class is integrated over mu_c +- SPAN_SD s_c; the mass outside is at
# most erfc(SPAN_SD / sqrt 2) per class
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
# grid points per node beyond which a mass that has not settled is refused
MAX_GRID = 2**12
# float64 elements one recursion step may hold (32 MB): nodes go through in
# chunks under it, and a grid too fine for even one node counts as past MAX_GRID
MAX_ELEMENTS = 2**22
# nodes lighter than this are skipped when their summed bound on the mass is
# at most PRUNE_REL times the mass of the nodes kept
PRUNE_WEIGHT = 1e-18
PRUNE_REL = 1e-10
# class-mean rows drawn and counted at a time by the prior cone mass
CONE_BLOCK = 2**14
# prior cone masses kept per process, one per (order, class sizes, draw count),
# and down-set plans, one per order
PRIOR_CACHE_SIZE = 256


class InsufficientPriorMassError(RuntimeError):
    """Raised when no prior draw lands in the constraint region."""


@dataclass(frozen=True)
class RegionProbEstimate:
    """Hit fraction of the constraint cone among prior or posterior draws."""

    estimate: float
    hits: int
    total: int
    side: str

    def __post_init__(self) -> None:
        if self.side not in ("prior", "posterior"):
            raise ValueError(f"side must be 'prior' or 'posterior', got {self.side!r}")
        if self.estimate != self.hits / self.total:
            raise ValueError("estimate must equal hits/total")


def prior_cone_mass(model: ConstraintModel, sizes: np.ndarray, T: int,
                    rng: np.random.Generator) -> RegionProbEstimate:
    """Prior cone mass from T cone evaluations: ceil(T/2) class-mean draws and their sign flips.

    sizes holds the class sizes, class 0, the class of group 1, first.  The
    centred prior makes a draw and its sign flip equally likely, and a strict
    order never holds for both, so the hit fraction stays unbiased with
    variance p(1 - 2p)/T, below the p(1 - p)/T of T independent draws; the
    last flip is dropped when T is odd.  Each CONE_BLOCK of draws is made
    class by class (q x rows) into one reused buffer, negated in place for the
    flips, so no T x q array is held and each pair compares contiguous rows.
    """
    q = len(sizes)
    pairs, flips = (T + 1) // 2, T // 2
    scale = np.sqrt(np.asarray(sizes, dtype=float))[:, None]
    lo, hi = _pair_columns(model)
    buf = np.empty(q * min(CONE_BLOCK, pairs))
    hits = 0
    for start in range(0, pairs, CONE_BLOCK):
        rows = min(CONE_BLOCK, pairs - start)
        block = rng.standard_normal(out=buf[:q * rows].reshape(q, rows))
        block /= scale
        hits += _cone_hits(block, lo, hi)
        np.negative(block, out=block)
        hits += _cone_hits(block[:, :flips - start], lo, hi)
    return RegionProbEstimate(estimate=hits / T, hits=hits, total=T, side="prior")


def _pair_columns(model: ConstraintModel) -> tuple[list[int], list[int]]:
    """Class columns a and b of each pair of the transitive reduction, class a below class b."""
    pairs = [(model.columns[a], model.columns[b]) for a, b in model.order_reduction]
    return [a for a, _ in pairs], [b for _, b in pairs]


def _cone_hits(block: np.ndarray, lo: list[int], hi: list[int]) -> int:
    """Count the columns of a q x rows class-mean block with row lo[k] below row hi[k] for all k."""
    inside = np.ones(block.shape[1], dtype=bool)
    for a, b in zip(lo, hi):
        inside &= block[a] < block[b]
    return int(np.count_nonzero(inside))


@lru_cache(maxsize=PRIOR_CACHE_SIZE)
def cached_prior_cone_mass(model: ConstraintModel, sizes: tuple[int, ...],
                           T: int) -> RegionProbEstimate:
    """prior_cone_mass on the fixed stream default_rng(0), counted once per key and process.

    The key is the model (its classes and order; equality ignores the name),
    the class sizes as a tuple of ints and T, which is all the mass depends
    on.  Every call with the same key shares one estimate and so one Monte
    Carlo error; only a larger T shrinks it.  A zero-hit estimate is cached
    like any other.  Processes forked after a key is counted inherit it.
    """
    return prior_cone_mass(model, np.array(sizes, dtype=float), T, np.random.default_rng(0))


@dataclass(frozen=True)
class PosteriorConeMass:
    """Exact posterior mass of the constraint cone with its convergence diagnostics.

    estimate is None when the mass is unresolved.  doubling_error is the
    relative change of the mass over the last grid doubling (inf when the mass
    is not positive or no grid was evaluated), grid the number of points per
    node and per component of the finest grid used (0 when the bound alone
    shows the mass negligible), and upper_bound a closed-form bound on the mass.
    """

    estimate: float | None
    doubling_error: float
    grid: int
    upper_bound: float


@dataclass(frozen=True)
class _Component:
    """A weak component of the order: its class columns and its down-set levels.

    levels holds the down-sets of each size, one (tops, parents) pair per
    down-set d: the maximal classes of d and, for each, the previous level's
    down-set without it, so the integrand of d sums one density-times-H
    product per pair, in this order.  rows bounds the number of grid-sized
    arrays per node that _component_masses holds at once: the densities and
    their mask, the grid points, the product row, and per level the previous
    H, the integrand and the new H.
    """

    cols: np.ndarray
    levels: tuple[tuple, ...]
    rows: int


@lru_cache(maxsize=PRIOR_CACHE_SIZE)
def order_components(model: ConstraintModel) -> tuple[_Component, ...]:
    """Down-set levels of each weak component with at least two classes.

    The plan depends on the order alone, so it is built once per model and
    process (equality ignores the name), and its cols array is read-only.
    Raises ValueError when a component has more than MAX_DOWNSETS down-sets.
    """
    comps = []
    for members in model.components:
        if len(members) < 2:
            continue
        local = {rep: i for i, rep in enumerate(members)}
        below = [0] * len(members)
        above = [0] * len(members)
        for a, b in model.order:
            if a in local:
                below[local[b]] |= 1 << local[a]
                above[local[a]] |= 1 << local[b]
        levels = _downset_levels(tuple(below), tuple(above))
        # a density row per class and a bool mask (8 classes to a row), the
        # grid points and the product row, then per level the previous H,
        # the integrand and the new H
        q = len(members)
        sizes = [1] + [len(lv) for lv in levels]
        rows = q + -(-q // 8) + 2 + max(prev + 2 * cur for prev, cur in zip(sizes, sizes[1:]))
        cols = np.array([model.columns[r] for r in members])
        cols.flags.writeable = False
        comps.append(_Component(cols, levels, rows))
    return tuple(comps)


def _downset_levels(below: tuple[int, ...], above: tuple[int, ...]) -> tuple[tuple, ...]:
    """Down-sets as bit masks, size by size; below[j]/above[j] mask the classes below/above j."""
    m = len(below)
    level = {0: 0}
    count = 1
    levels = []
    for _ in range(m):
        nxt: dict[int, int] = {}
        for mask in level:
            for j in range(m):
                if not mask >> j & 1 and below[j] & ~mask == 0:
                    nxt.setdefault(mask | 1 << j, len(nxt))
        count += len(nxt)
        if count > MAX_DOWNSETS:
            raise ValueError(
                f"a component of the order over {m} classes has more than {MAX_DOWNSETS} "
                "down-sets; its exact cone mass is too costly")
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
    ends = np.sort(np.concatenate([mu - SPAN_SD * s, mu + SPAN_SD * s], axis=1), axis=1)
    mids = 0.5 * (ends[:, :-1] + ends[:, 1:])
    covers = np.abs(mids[:, :, None] - mu[:, None, :]) < SPAN_SD * s[:, None, :]
    rate = np.max(np.where(covers, 1.0 / s[:, None, :], 0.0), axis=2)
    need = np.zeros(ends.shape)
    np.cumsum(rate * np.diff(ends, axis=1), axis=1, out=need[:, 1:])
    return ends, need


def _panel_edges(ends: np.ndarray, need: np.ndarray, panels: int) -> np.ndarray:
    """Per node, the panels + 1 points that split its total need into equal steps."""
    steps = np.linspace(0.0, 1.0, panels + 1)
    return np.array([np.interp(steps * n[-1], n, e) for e, n in zip(ends, need)])


def _component_masses(comp: _Component, mu: np.ndarray, s: np.ndarray,
                      edges: np.ndarray) -> np.ndarray:
    """P(the component's order | eta) at each node, on the given panel edges per node.

    The densities are formed in place in one buffer, and each integrand row
    is summed from row views of the densities and the previous H through one
    reused product row, so no step gathers rows into a copy.
    """
    x, M = _lobatto_rule(PANEL_POINTS)
    half = 0.5 * np.diff(edges, axis=1)[..., None]  # (nodes, panels, 1)
    t = edges[:, :-1, None] + half * (1.0 + x)
    dens = np.empty((len(comp.cols), t.size))
    z = dens.reshape((-1,) + t.shape)
    np.subtract(t, mu.T[:, :, None, None], out=z)
    z /= s.T[:, :, None, None]
    z *= z
    # each class lives on its own +-SPAN_SD interval; z*z > SPAN_SD**2 is
    # |z| > SPAN_SD exactly, since SPAN_SD**2 is exact in floating point
    outside = z > SPAN_SD * SPAN_SD
    z *= -0.5
    np.exp(z, out=z)
    # every integrand below holds one density factor, so the panel
    # half-widths are folded in here
    z *= half / (s.T[:, :, None, None] * np.sqrt(2.0 * np.pi))
    z[outside] = 0.0
    H = np.ones((1, t.size))
    term = np.empty(t.size)
    for lv in comp.levels:
        H = (_level_integrand(lv, dens, H, term).reshape(-1, PANEL_POINTS) @ M.T
             ).reshape((-1,) + t.shape)
        totals = H[..., -1]
        H += (np.cumsum(totals, axis=-1) - totals)[..., None]
        H = H.reshape(len(lv), -1)
    return H.reshape(t.shape)[:, -1, -1]


def _level_integrand(lv: tuple, dens: np.ndarray, H: np.ndarray,
                     term: np.ndarray) -> np.ndarray:
    """Row d: the sum over the maximal classes j of down-set d of f_j times H of d without j.

    Each product goes through the reused row term and is added in place, in
    the order of lv; the integrand is freed once the caller has integrated it.
    """
    g = np.empty((len(lv), H.shape[1]))
    for row, (tops, parents) in zip(g, lv):
        np.multiply(dens[tops[0]], H[parents[0]], out=row)
        for j, p in zip(tops[1:], parents[1:]):
            row += np.multiply(dens[j], H[p], out=term)
    return g


def _log_pair_bound(model: ConstraintModel, mu: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Per node, log of min over order pairs (a, b) of a closed-form bound on P(X_a < X_b).

    P(X_a < X_b) = Phi(z); Phi(z) <= 1, and for z < 0 also Phi(z) <= 1/2 and
    Phi(z) <= phi(z)/|z| (Mills' ratio).
    """
    a, b = _pair_columns(model)
    z = (mu[:, b] - mu[:, a]) / np.hypot(s[:, a], s[:, b])
    neg = np.minimum(z, -1e-300)
    mills = -0.5 * neg * neg - 0.5 * LOG_2PI - np.log(-neg)
    log_phi = np.where(z >= 0.0, 0.0, np.minimum(np.log(0.5), mills))
    return np.min(log_phi, axis=1)


def _converged_mass(comps, mu, s, w) -> tuple[float, float, int, float]:
    """Mixture mass over the given nodes, doubling every component's grid until it settles.

    Returns (mass, relative change over the last doubling, points per node of
    the finest grid evaluated, largest |mass| of the last two grids).  The
    doubling stops when the change falls below POSTERIOR_REL_TOL, when the
    mass is not positive (change inf) or at the grid cap (MAX_GRID, lower for
    components too wide for MAX_ELEMENTS); the mass and the level are nan when
    even the starting grid and its double exceed the cap.
    """
    layouts = [(c, mu[:, c.cols], s[:, c.cols]) + _resolution_need(mu[:, c.cols], s[:, c.cols])
               for c in comps]
    cap = min(MAX_GRID, MAX_ELEMENTS // max(c.rows for c in comps))
    least = min(MIN_PANELS, cap // (2 * PANEL_POINTS))
    base = [max(least, int(np.ceil(np.max(need[:, -1]) / PANEL_SD))) for *_, need in layouts]

    def mass_at(scale):
        node = np.ones(len(w))
        for (comp, cmu, cs, ends, need), p in zip(layouts, base):
            edges = _panel_edges(ends, need, p * scale)
            step = max(1, MAX_ELEMENTS // (comp.rows * p * scale * PANEL_POINTS))
            node *= np.concatenate([
                _component_masses(comp, cmu[i:i + step], cs[i:i + step], edges[i:i + step])
                for i in range(0, len(w), step)])
        return float(w @ node)

    if 2 * max(base) * PANEL_POINTS > cap:
        return np.nan, np.inf, 0, np.nan
    prev, scale = mass_at(1), 2
    while True:
        mass = mass_at(scale)
        grid = max(base) * scale * PANEL_POINTS
        change = abs(mass - prev) / mass if mass > 0.0 else np.inf
        if change < POSTERIOR_REL_TOL or not np.isfinite(change) or 2 * grid > cap:
            return mass, change, grid, max(abs(mass), abs(prev))
        prev, scale = mass, 2 * scale


def posterior_cone_mass(model: ConstraintModel, prep: PreparedIntegrand) -> PosteriorConeMass:
    """Exact posterior cone mass, mixed over the eta nodes of the model's prepared design.

    Nodes lighter than PRUNE_WEIGHT are skipped only while their summed
    closed-form bound stays within PRUNE_REL of the mass; otherwise the
    heaviest skipped nodes are added until it does.  A mass that does not
    settle is unresolved only when it is negligible, i.e. the bound or the
    last two grids put it within the truncation floor; otherwise it raises
    ValueError, like an order with too many down-sets.
    """
    comps = order_components(model)
    eta, log_w = prep.eta_weights
    w = np.exp(log_w)
    mu, s = prep.class_mean_moments(eta)
    log_bound = log_w + _log_pair_bound(model, mu, s)
    bound = np.exp(log_bound)
    upper_bound = float(np.exp(logsumexp(log_bound)))
    # the +-SPAN_SD truncation may drop up to this much mass at every node, so
    # a mass below the floor cannot be told from the truncation error
    floor = _TAIL_PER_CLASS * sum(len(c.cols) for c in comps) / POSTERIOR_REL_TOL
    if upper_bound <= floor:
        return PosteriorConeMass(estimate=None, doubling_error=np.inf, grid=0,
                                 upper_bound=upper_bound)

    def settle(keep):
        mass, change, grid, level = _converged_mass(comps, mu[keep], s[keep], w[keep])
        return mass, change, grid, level, change < POSTERIOR_REL_TOL and mass >= floor

    keep = w > PRUNE_WEIGHT
    mass, change, grid, level, resolved = settle(keep)
    if resolved and bound[~keep].sum() > PRUNE_REL * mass:
        skipped = np.flatnonzero(~keep)
        heavy_first = skipped[np.argsort(-bound[skipped])]
        suffix = np.cumsum(bound[heavy_first][::-1])[::-1]
        keep[heavy_first[:np.searchsorted(-suffix, -PRUNE_REL * mass)]] = True
        mass, change, grid, level, resolved = settle(keep)
    if not resolved and not level + bound[~keep].sum() <= floor:
        raise ValueError(
            f"the posterior cone mass of {model.name or model_to_string(model)} did not "
            "settle within the grid cap; its exact mass is too costly")
    return PosteriorConeMass(estimate=mass if resolved else None, doubling_error=float(change),
                             grid=int(grid), upper_bound=upper_bound)
