"""Density queries against a fitted model.

Covers full-point evaluation with the epsilon clamp, marginal models,
one-coordinate conditional slices, mode/cluster analysis of slices, and
sequential imputation of missing cells with optional branching on
multimodal slices.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .basis1d import Family1D, _legendre_scale, _moment_table, gauss_nodes
from .errors import MissingCoordinateError, NonpositiveMassError
from .estimator import Model
from .tensor_basis import _blocks, _whole

__all__ = [
    "evaluate",
    "evaluate_points",
    "clamp",
    "marginalize",
    "conditional_slice",
    "ConditionalSlice",
    "SliceMoments",
    "Cluster",
    "Completion",
    "impute",
    "EXPECTED",
    "TOP_MODE",
    "CLUSTER_SPLIT",
]

EXPECTED = "expected"
TOP_MODE = "top-mode"
CLUSTER_SPLIT = "cluster-split"

MASS_FLOOR = 0.01  # cluster-split slivers below this merge into a neighbor


def evaluate_points(model: Model, points: np.ndarray) -> np.ndarray:
    """Densities at an (n, d) block of points, each row block's densities
    from BasisSpec.contract over BasisSpec.single_blocks, as refine reads
    them, written into the output: the sum of coef times each function to
    1e-12 of the terms' absolute sum.  A NaN cell raises
    MissingCoordinateError unless no selected function reads its
    coordinate (as for the coordinates a marginal model dropped); the NaN
    mask is dropped before the pass."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[1] != model.d:
        raise ValueError(f"expected points of width {model.d}, got shape {points.shape}")
    missing = np.isnan(points)
    missing &= model.spec.orders.any(axis=0)
    if missing.any():
        row = int(np.flatnonzero(missing.any(axis=1))[0])
        raise MissingCoordinateError(
            f"point {row} is missing coordinates {np.flatnonzero(missing[row]).tolist()}; "
            "use conditional_slice")
    del missing
    out = np.empty(len(points))
    for rows, rho, _, _ in model.spec.contract(model.coef, model.spec.single_blocks(points),
                                               layout=model.layout):
        out[rows] = rho
    return out


def evaluate(model: Model, x) -> float:
    """Density at one point of [0,1]^d; may be negative (see clamp)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise ValueError(f"expected a full length-{model.d} point")
    return float(evaluate_points(model, x[None, :])[0])


def clamp(value: float, epsilon: float) -> float:
    """max(value, epsilon); the cost is approximate normalization.  A
    NaN epsilon is refused as a nonpositive one is."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return max(value, epsilon)


def marginalize(model: Model, keep) -> Model:
    """Model of the kept coordinates: only functions supported inside keep.

    Off-support factors integrate to zero, so dropping every function
    that touches a removed coordinate is the exact marginal; coefficients
    are unchanged and dimension is preserved for indexing stability.
    """
    keep = frozenset(keep)
    if not keep:
        raise ValueError("keep must name at least one coordinate")
    for k in keep:
        _check_coordinate(k, model.d)
    dropped = [i for i in range(model.d) if i not in keep]
    return model.restricted(~model.spec.orders[:, dropped].any(axis=1))


def _check_coordinate(k, d: int) -> None:
    """Raise ValueError unless k is a coordinate index in 0..d-1: an int or
    numpy integer, not a bool, float or str."""
    if not _whole(k) or not 0 <= k < d:
        raise ValueError(f"coordinate {k!r} is not an index in 0..{d - 1}")


# ---------------------------------------------------------------------------
# conditional slices


@dataclass(frozen=True)
class SliceMoments:
    mean: float
    variance: float
    negative_region: bool


@dataclass(frozen=True)
class Cluster:
    lo: float
    hi: float
    mean: float
    mass: float


# Stacked slice queries: each takes a (rows, orders) block of normalized
# slice coefficients of one family and answers every row on its own, so a
# row's answer does not depend on the rows beside it.


def _rowdot(coef: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Row r of coef against tables[r] (or one shared table), summed as
    np.dot sums one slice against one table."""
    return np.matmul(coef[:, None, :], tables)[:, 0]


def _moments(coef: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed mean and variance of every slice from its family's
    _moment_table (one for all rows, or one per row)."""
    mean = _rowdot(coef, table[..., 1, :, None])[:, 0]
    return mean, _rowdot(coef, table[..., 2, :, None])[:, 0] - mean * mean


@lru_cache(maxsize=None)
def _companion(deg: int, legendre: bool) -> tuple:
    """Read-only degree-deg companion skeleton, legcompanion's or (complex)
    polycompanion's, and legcompanion's last-column factors."""
    k, scl = np.arange(deg - 1), 1.0 / np.sqrt(2 * np.arange(deg) + 1)
    mat = np.zeros((deg, deg), dtype=float if legendre else complex)
    if legendre:
        mat[k, k + 1] = mat[k + 1, k] = np.arange(1, deg) * scl[:-1] * scl[1:]
    else:
        mat[k + 1, k] = 1
    mat.setflags(write=False)
    return mat, scl / scl[-1], deg / (2 * deg - 1)


def _companion_roots(c: np.ndarray, legendre: bool) -> np.ndarray:
    """Roots of every row of a (rows, n+1) block of Legendre or power series,
    (rows, n), NaN where trailing zeros lower a row's degree: legroots or
    polyroots of numpy.polynomial, one eigvals call per degree.  (A power
    companion for a Legendre series moves a near-double root by sqrt(eps).)"""
    n = max(c.shape[1] - 1, 0)  # an empty series is the zero series
    out = np.full((len(c), n), np.nan, dtype=complex)
    degree = ((c != 0) * np.arange(n + 1)).max(axis=1, initial=0)  # its highest nonzero order
    for deg in set(degree.tolist()) - {0}:  # degree 1 gives [[-c0 / c1]], as numpy does
        rows = degree == deg
        (skeleton, scale, ratio), top = _companion(deg, legendre), c[rows, :deg + 1]
        mat = skeleton[None].repeat(len(top), axis=0)
        if legendre:  # legcompanion, rotated as legroots rotates it; scale * ratio
            # taken first would move last bits, so the products keep numpy's order
            mat[:, :, -1] -= (top[:, :-1] / top[:, -1:]) * scale * ratio
            mat = mat[:, ::-1, ::-1]
        else:  # polycompanion
            mat[:, :, -1] -= top[:, :-1] / top[:, -1:]
        out[rows, :deg] = np.linalg.eigvals(mat)
    return out


def _derivative_roots(family: Family1D, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stationary points in (0,1) of every continuous slice: (roots,
    distinct), both (rows, n).  A row's distinct roots ascend, one per run
    closer than 1e-9; the other entries are 2."""
    if family.kind == "legendre":
        # Legendre(coef * sqrt(2j+1), domain=[0, 1]).deriv().roots(), per row:
        # legder's sums, which never read order 0, times 2j - 1 at order j - 1
        n = coef.shape[1] - 1
        c = 2 * (coef[:, 1:] * _legendre_scale(n))  # c[:, j - 1] holds order j
        for j in range(n, 2, -1):
            c[:, j - 3] += c[:, j - 1]
        z = 0.5 + 0.5 * _companion_roots(c * (2 * np.arange(1, n + 1) - 1), True)
        real = np.where(np.abs(z.imag) < 1e-9, z.real, np.nan)
    else:
        real = _trig_derivative_roots(coef)
    roots = np.where((real > 1e-10) & (real < 1 - 1e-10), real, 2.0)
    roots.sort(axis=1)
    distinct = roots < 2.0
    distinct[:, 1:] &= roots[:, 1:] - roots[:, :-1] > 1e-9
    return roots, distinct


def _trig_derivative_roots(coef: np.ndarray) -> np.ndarray:
    """Stationary points of every trig slice, as angles of unit roots, NaN
    elsewhere.  With a_k, b_k the sin/cos coefficients of frequency k and
    z = e^{2 pi i x}, the derivative times z^K is the degree-2K polynomial
    sum_k k [(a_k + i b_k) z^(K+k) + (a_k - i b_k) z^(K-k)]."""
    a = coef[:, 1::2]  # orders 1, 3, 5, ...: sin of frequency 1, 2, 3, ...
    b = np.zeros(a.shape)
    b[:, :coef[:, 2::2].shape[1]] = coef[:, 2::2]  # orders 2, 4, ...: cos
    freq, k = a.shape[1], np.arange(1, a.shape[1] + 1)
    poly = np.zeros((len(coef), 2 * freq + 1), dtype=complex)
    poly[:, freq + k] = k * (a + 1j * b)
    poly[:, freq - k] = k * (a - 1j * b)
    z = _companion_roots(poly, False)
    return np.where(np.abs(np.abs(z) - 1.0) < 1e-6, np.angle(z) / (2 * np.pi) % 1.0, np.nan)


def _extremes(family: Family1D, coef: np.ndarray) -> tuple[np.ndarray, ...]:
    """Minimum, mode and tie flag of every slice, the candidates searched
    with their validity mask and values, and the tie: 1e-12 times the
    slice's largest |candidate value|, the one rule for the mode and the
    cluster cuts.  The candidates are the grid of a discrete coordinate,
    else 0, the distinct stationary points and 1, so that a continuous
    slice is monotone between consecutive valid candidates.  The mode is
    the smallest candidate within the tie of the maximum."""
    if family.is_discrete:
        xs = np.broadcast_to(family.grid, (len(coef), family.v))
        distinct = np.ones(xs.shape, dtype=bool)
    else:
        roots, inner = _derivative_roots(family, coef)
        end = np.ones((len(coef), 1))
        xs = np.concatenate([0.0 * end, roots, end], axis=1)  # the entries not distinct stay 2
        distinct = np.concatenate([end > 0, inner, end > 0], axis=1)
    values = _rowdot(coef, family._stack(xs).transpose(1, 0, 2))
    top = values.max(axis=1, where=distinct, initial=-np.inf)
    tie = 1e-12 * np.abs(values).max(axis=1, where=distinct, initial=0.0)
    winners = distinct & (values >= (top - tie)[:, None])
    return (values.min(axis=1, where=distinct, initial=np.inf),
            xs[np.arange(len(xs)), winners.argmax(axis=1)], winners.sum(axis=1) > 1,
            xs, distinct, values, tie)


def _clusters(family: Family1D, coef: np.ndarray, extremes: tuple) -> list[list[Cluster]]:
    """Clusters of every slice from its _extremes, by mass descending, ties by left end.

    A discrete slice seeds one cluster per grid value.  A continuous one
    is cut at the ends and at each stationary point whose value is below
    the lower neighbouring candidate's by more than the tie, so a slice
    flat up to rounding is one interval; every (row, interval) mass and
    mean comes from one 48-node Gauss rule.  Slivers then merge by
    _merge_slivers, row by row.
    """
    *_, xs, distinct, values, tie = extremes
    row, c, v = distinct.nonzero()[0], xs[distinct], values[distinct]  # row by row, ascending
    if family.is_discrete:
        lo = hi = mean = c
        mass = v / family.v
    else:  # a row's candidates are 0, its stationary points, 1
        tie = tie[row]
        cut = np.ones(len(c), dtype=bool)  # the ends, and the points below both neighbours
        cut[1:-1] = (row[:-2] != row[2:]) | (v[1:-1] < np.minimum(v[:-2], v[2:]) - tie[1:-1])
        row, c = row[cut], c[cut]
        same = row[1:] == row[:-1]  # consecutive cuts of one row bound an interval
        row, lo, hi = row[1:][same], c[:-1][same], c[1:][same]
        nodes, weights = gauss_nodes(48)
        span = (hi - lo)[:, None]
        x = lo[:, None] + span * nodes
        w = span * weights
        rho = _rowdot(coef[row], family._stack(x).transpose(1, 0, 2))
        mass = (w * rho).sum(axis=1)
        mean = np.divide((w * x * rho).sum(axis=1), mass, out=(lo + hi) / 2, where=mass != 0)
    seeds: list[list[Cluster]] = [[] for _ in range(len(coef))]
    for r, *cluster in zip(*(a.tolist() for a in (row, lo, hi, mean, mass))):
        seeds[r].append(Cluster(*cluster))
    return [sorted(_merge_slivers(c), key=lambda c: (-c.mass, c.lo)) for c in seeds]


@lru_cache(maxsize=None)
def _sup_norms(family: Family1D) -> np.ndarray:
    """max |f_o| per order: sqrt(2) for trig, else attained on the grid or
    at an end of [0,1]."""
    if family.kind == "trig":
        return np.full(family.max_order + 1, np.sqrt(2.0))
    return np.abs(family.eval_all(family.grid if family.is_discrete else [0.0, 1.0])).max(axis=1)


def _negative(family: Family1D, coef: np.ndarray) -> np.ndarray:
    """Whether each slice goes negative.  A slice kept above 1e-9 by
    1 - sum_o |c_o| max|f_o| needs no extrema search."""
    search = np.abs(coef[:, 1:]) @ _sup_norms(family)[1:] > 1 - 1e-9
    negative = np.zeros(len(coef), dtype=bool)
    if search.any():
        negative[search] = _extremes(family, coef[search])[0] < 0
    return negative


@dataclass
class ConditionalSlice:
    """One-coordinate section of the density with known coordinates fixed.

    numerator[o] sums the order-o functions of the free coordinate that
    touch no other unknown one, times their known factors; denominator is
    numerator[0], the restriction to the known set, so the normalized
    slice integrates to 1 by construction.  Its queries are the
    stacked ones above on a block of one row and share one _extremes
    search per slice, so treat a slice as read-only.
    """

    free_coordinate: int
    family: Family1D
    numerator: np.ndarray
    denominator: float

    @property
    def coef(self) -> np.ndarray:
        """Orthonormal-basis coefficients of the normalized slice."""
        return self.numerator / self.denominator

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        table = self.family.eval_all(x)
        out = np.tensordot(self.coef, table, axes=(0, 0))
        return out if x.ndim else float(out)

    # -- queries

    @property
    def variance(self) -> float:
        """Slice variance floored at 0, in closed form (no extrema search)."""
        return max(float(_moments(self.coef[None], _moment_table(self.family))[1][0]), 0.0)

    def expected_value(self) -> SliceMoments:
        """Mean and variance of the slice, flagging negative regions.

        A slice with negative parts is integrated as-is (signed) and the
        mean clipped into [0,1]; variance is floored at 0.
        """
        (mean,), (var,) = _moments(self.coef[None], _moment_table(self.family))
        negative = bool(self._extremes[0][0] < 0)
        if negative:
            mean = min(1.0, max(0.0, mean))
        return SliceMoments(float(mean), max(float(var), 0.0), negative)

    def top_mode(self) -> tuple[float, bool]:
        """Location of the global maximum; ties resolve to the smaller
        coordinate and are flagged."""
        _, mode, tied, *_ = self._extremes
        return float(mode[0]), bool(tied[0])

    @cached_property
    def _extremes(self) -> tuple[np.ndarray, ...]:
        return _extremes(self.family, self.coef[None])

    def modes_and_clusters(self) -> list[Cluster]:
        """Clusters split at interior density minima, one per grid value
        for a discrete coordinate, each with its interval, conditional
        mean and mass; slivers below the mass floor merge into the
        neighbour with the nearer mean.  Ordered by mass descending, ties
        by left endpoint."""
        return _clusters(self.family, self.coef[None], self._extremes)[0]


def _merge_slivers(clusters: list[Cluster]) -> list[Cluster]:
    """Merge the lightest cluster into its neighbour with the nearer mean
    (the left one on a tie) until every mass reaches MASS_FLOOR.  A merge
    sums the masses and takes the mass-weighted mean, so an unmerged
    cluster keeps its mean exactly."""
    clusters = list(clusters)
    while len(clusters) > 1:
        k = min(range(len(clusters)), key=lambda i: clusters[i].mass)
        if clusters[k].mass >= MASS_FLOOR:
            break
        if k == 0:
            nb = 1
        elif k == len(clusters) - 1:
            nb = k - 1
        else:
            nb = k - 1 if (abs(clusters[k - 1].mean - clusters[k].mean)
                           <= abs(clusters[k + 1].mean - clusters[k].mean)) else k + 1
        lo_i, hi_i = min(k, nb), max(k, nb)
        a, b = clusters[lo_i], clusters[hi_i]
        mass = a.mass + b.mass
        mean = (a.mean * a.mass + b.mean * b.mass) / mass if mass else (a.lo + b.hi) / 2
        clusters[lo_i:hi_i + 1] = [Cluster(a.lo, b.hi, mean, mass)]
    return clusters


def conditional_slice(model: Model, known, i: int) -> ConditionalSlice:
    """Normalized density of coordinate i given the known coordinates.

    known is a length-d point with NaN at unknown slots, or a mapping
    from coordinate index to a known value (not NaN).  The numerators are
    _slice_numerators of this one state; the order-0 one, the restriction
    to the known set, is the denominator.
    """
    for k in [i, *known] if isinstance(known, dict) else [i]:
        _check_coordinate(k, model.d)
    point = np.full((1, model.d), np.nan)
    if isinstance(known, dict):
        for k, v in known.items():
            try:
                point[0, k] = v
            except (TypeError, ValueError):  # "abc", [0.5], 1j
                raise ValueError(f"known coordinate {k} has value {v!r}, not a number") from None
            if np.isnan(point[0, k]):
                raise ValueError(f"known coordinate {k} has value {v!r}; leave it out instead")
    else:
        known = np.asarray(known, dtype=float)
        if known.shape != (model.d,):
            raise ValueError(f"known must be a length-{model.d} point or a mapping")
        point[0] = known
    if not np.isnan(point[0, i]):
        raise ValueError(f"coordinate {i} is already known")
    family = model.spec.families[i]
    numerator = _slice_numerators(model, point, model.spec._singles(point))[
        int(np.isnan(point[0, :i]).sum())]  # the cells come in coordinate order
    if numerator[0] <= 0:
        raise _mass_error(i, numerator[0])
    return ConditionalSlice(i, family, numerator[:family.max_order + 1], numerator[0])


def _slice_numerators(model: Model, points: np.ndarray, singles: np.ndarray) -> np.ndarray:
    """Slice numerators of every NaN cell (state, coordinate i) of an (n, d)
    block of states, (cells, spec.width) in np.nonzero order, from their
    zero-filled single rows by contract, in _blocks runs: the density with
    every unknown at 0 (order 0) and its slopes along i's rows (order o:
    the order-o functions of i touching no other unknown)."""
    spec = model.spec
    table = np.zeros((spec.single_count + 2, len(points)))  # density, slopes, a zero row
    for rows, rho, _, _ in spec.contract(
            model.coef, ((rows, singles[:, rows]) for rows in _blocks(spec, len(points))),
            slopes=table[1:-1], layout=model.layout):
        table[0, rows] = rho
    point, coord = np.isnan(points).nonzero()
    return table.take(spec._slope_rows[coord] * len(points) + point[:, None])  # flat: holds less


def _mass_error(i: int, denominator: float) -> NonpositiveMassError:
    return NonpositiveMassError(
        f"conditional mass for coordinate {i} is {denominator:.6g} at the given "
        "evidence; repair the model or fall back to the marginal", denominator)


# ---------------------------------------------------------------------------
# imputation


@dataclass
class Completion:
    """One imputed record: filled values, branch weight, per-fill variance."""

    values: np.ndarray
    weight: float
    variances: dict[int, float]
    notes: tuple[str, ...] = ()


def impute(model: Model, record, policy: str = EXPECTED) -> list[Completion]:
    """Fill the missing cells of one record, most-certain coordinate first.

    At every step the missing coordinate whose conditional slice has the
    smallest variance is filled and becomes evidence for the rest.  The
    cluster-split policy branches on multimodal slices, one weighted
    completion per cluster; weights are the cluster masses and sum to 1.
    """
    start = np.asarray(record, dtype=float)
    if start.shape != (model.d,):
        raise ValueError(f"expected a length-{model.d} record")
    if not np.any(np.isnan(start)):
        raise ValueError("record is already complete")
    (out,) = _impute_rows(model, start[None], policy)
    if isinstance(out, NonpositiveMassError):
        raise out
    return out


def _impute_rows(model: Model, block, policy: str = EXPECTED) -> list:
    """impute for every row of an (n, d) block: per row its completions (a
    complete row as it is), or the NonpositiveMassError it raises.  A row,
    or a cluster-split branch, is a state that keeps only its zero-filled
    single rows; a step reads every open state's slices from one
    _slice_numerators pass, then fills one cell of each (BasisSpec._refill)."""
    if policy not in (EXPECTED, TOP_MODE, CLUSTER_SPLIT):
        raise ValueError(f"unknown policy {policy!r}")
    spec, families, names = model.spec, model.spec.families, model.coordinate_names()
    values = np.array(block, dtype=float)
    opened = np.isnan(values).any(axis=1)
    singles = spec._singles(np.where(opened[:, None], values, np.nan)).T  # state, row
    origin, weight = np.arange(len(values)), np.ones(len(values))
    variance, filled = np.full(values.shape, np.nan), np.full(values.shape, -1)
    notes, errors = [()] * len(values), {}
    rows = opened.nonzero()[0]  # the open states
    for step in range(model.d):  # filled[r, step]: the coordinate that step filled
        missing = np.isnan(values[rows])
        point, coord = missing.nonzero()
        num = _slice_numerators(model, values[rows], singles[rows].T)
        mass = num[:, 0]  # the same for every slice of a state
        coef = num / np.where(mass > 0, mass, np.inf)[:, None]  # a failing state's goes unread
        mean, var = _moments(coef, spec.moments[coord])
        spread = np.full(missing.shape, np.inf)
        spread[point, coord] = var = np.where(0.0 > var, 0.0, var)
        for k in (mass <= 0).nonzero()[0]:  # a failing state's first cell is its lowest slice
            errors.setdefault(int(origin[rows[point[k]]]), _mass_error(int(coord[k]), mass[k]))
        count = np.ones(len(values), dtype=int)  # the states each state becomes
        target = spread.argmin(axis=1)  # fill the least variance, ties to the lower coordinate
        if errors:  # a failed row's states fill nothing
            count[np.isin(origin, list(errors))] = 0
            target[count[rows] == 0] = -1
        cells = (target[point] == coord).nonzero()[0]  # the target cell of each filling state
        fills = []  # (coordinate, states, values, branch shares)
        for i in set(coord[cells].tolist()):
            at = cells[coord[cells] == i]
            slice_coef = coef[at, :families[i].max_order + 1]
            states, value, share = rows[point[at]], mean[at], None
            variance[states, i] = var[at]
            # top-mode and cluster-split read the extremes, expected only the sign
            extremes = None if policy == EXPECTED else _extremes(families[i], slice_coef)
            negative = _negative(families[i], slice_coef) if extremes is None else extremes[0] < 0
            for r in states[negative]:
                notes[r] += (f"negative-region:{names[i]}",)
            if policy == EXPECTED:  # a negative slice's signed mean, clipped
                value = np.where(negative, np.where(value > 0.0, np.minimum(value, 1.0), 0.0),
                                 value)
            elif policy == TOP_MODE:
                value = extremes[1]
                for r in states[extremes[2]]:
                    notes[r] += (f"mode-tie:{names[i]}",)
            else:
                branches = _clusters(families[i], slice_coef, extremes)
                totals = [sum(c.mass for c in b) for b in branches]
                count[states] = [len(b) for b in branches]
                states = np.repeat(states, count[states])
                value = np.array([c.mean for b in branches for c in b])
                share = np.array([c.mass / t for b, t in zip(branches, totals) for c in b])
            fills.append((i, states, value, share))
        if (count != 1).any():  # drop failed rows' states, expand branches in order
            start = np.cumsum(count) - count
            state = np.repeat(np.arange(len(values)), count)
            values, origin, weight, variance, filled, singles = (
                a[state] for a in (values, origin, weight, variance, filled, singles))
            notes = [notes[r] for r in state]
            fills = [(i, start[s] + np.arange(len(s)) - np.searchsorted(s, s), v, w)
                     for i, s, v, w in fills]
        for i, states, value, share in fills:
            values[states, i] = families[i].snap(value)
            spec._refill(singles.T, i, states, values[states, i])
            filled[states, step] = i
            if share is not None:
                weight[states] *= share
        rows = np.isnan(values).any(axis=1).nonzero()[0]
        if not len(rows):
            break
    weight = (weight / np.bincount(origin, weight, len(block))[origin]).tolist()
    out: list = [[] for _ in range(len(block))]
    for r, (k, order) in enumerate(zip(origin.tolist(), filled.tolist())):
        out[k].append(Completion(values[r].copy(), weight[r],
                                 {t: float(variance[r, t]) for t in order if t >= 0}, notes[r]))
    for k, exc in errors.items():
        out[k] = exc
    return out
