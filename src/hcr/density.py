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

from .basis1d import Family1D, _moment_table, gauss_nodes
from .errors import MissingCoordinateError, NonpositiveMassError
from .estimator import Model
from .tensor_basis import support

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
    """Densities at an (n, d) block of points.  A NaN cell raises
    MissingCoordinateError unless no selected function reads its
    coordinate (as for the coordinates a marginal model dropped)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    missing = np.isnan(points) & model.spec.orders.any(axis=0)
    if missing.any():
        row = int(np.flatnonzero(missing.any(axis=1))[0])
        raise MissingCoordinateError(
            f"point {row} is missing coordinates {np.flatnonzero(missing[row]).tolist()}; "
            "use conditional_slice")
    cells = np.where(np.isnan(points), 0.0, points)  # a NaN cell is read by no function
    tables = [f.eval_all(col) for f, col in zip(model.spec.families, cells.T)]
    # one function at a time: a functions-by-points product would hold
    # |selected| x n values at once
    out = np.full(points.shape[0], model.coef[0])
    for a, j in zip(model.coef[1:], model.spec.selected[1:]):
        term = np.ones(points.shape[0])
        for i in support(j):
            term = term * tables[i][j[i]]
        out += a * term
    return out


def evaluate(model: Model, x) -> float:
    """Density at one point of [0,1]^d; may be negative (see clamp)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise ValueError(f"expected a full length-{model.d} point")
    return float(evaluate_points(model, x[None, :])[0])


def clamp(value: float, epsilon: float) -> float:
    """max(value, epsilon); the cost is approximate normalization."""
    if epsilon <= 0:
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
    if not keep <= set(range(model.d)):
        raise ValueError(f"keep out of range for d={model.d}")
    dropped = [i for i in range(model.d) if i not in keep]
    return model.restricted(~model.spec.orders[:, dropped].any(axis=1))


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


def _companion_roots(c: np.ndarray, legendre: bool) -> np.ndarray:
    """Roots of every row of a (rows, n+1) block of Legendre or power series,
    (rows, n), NaN where trailing zeros lower a row's degree: legroots or
    polyroots of numpy.polynomial, one eigvals call per degree.  (A power
    companion for a Legendre series moves a near-double root by sqrt(eps).)"""
    n = c.shape[1] - 1
    out = np.full((len(c), n), np.nan, dtype=complex)
    nonzero = c != 0
    degree = np.where(nonzero.any(axis=1), n - np.argmax(nonzero[:, ::-1], axis=1), 0)
    for deg in set(degree.tolist()) - {0}:  # degree 1 gives [[-c0 / c1]], as numpy does
        rows = degree == deg
        top, k = c[rows, :deg + 1], np.arange(deg - 1)
        mat = np.zeros((len(top), deg, deg), dtype=c.dtype)
        if legendre:  # legcompanion, rotated as legroots rotates it
            scl = 1.0 / np.sqrt(2 * np.arange(deg) + 1)
            mat[:, k, k + 1] = mat[:, k + 1, k] = np.arange(1, deg) * scl[:-1] * scl[1:]
            mat[:, :, -1] -= (top[:, :-1] / top[:, -1:]) * (scl / scl[-1]) * (deg / (2 * deg - 1))
            mat = mat[:, ::-1, ::-1]
        else:  # polycompanion
            mat[:, k + 1, k] = 1
            mat[:, :, -1] -= top[:, :-1] / top[:, -1:]
        out[rows, :deg] = np.linalg.eigvals(mat)
    return out


def _derivative_roots(family: Family1D, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stationary points in (0,1) of every continuous slice: (roots,
    distinct), both (rows, n).  A row's distinct roots ascend, one per run
    closer than 1e-9; the other entries are 2."""
    if family.kind == "legendre":
        # Legendre(coef * sqrt(2j+1), domain=[0, 1]).deriv().roots(), per row
        scale = np.sqrt(2 * np.arange(coef.shape[1]) + 1)
        z = 0.5 + 0.5 * _companion_roots(
            np.polynomial.legendre.legder(coef * scale, scl=2, axis=1), True)
        real = np.where(np.abs(z.imag) < 1e-9, z.real, np.nan)
    else:
        real = _trig_derivative_roots(coef)
    roots = np.sort(np.where((real > 1e-10) & (real < 1 - 1e-10), real, 2.0), axis=1)
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
    """Minimum, mode and tie flag of every slice, and the candidates
    searched with their validity mask: the grid of a discrete coordinate,
    else 0, the distinct stationary points and 1.  The mode is the
    smallest candidate within 1e-12 of the maximum."""
    if family.is_discrete:
        xs = np.broadcast_to(family.grid, (len(coef), family.v))
        distinct = np.ones(xs.shape, dtype=bool)
    else:
        roots, inner = _derivative_roots(family, coef)
        end = np.ones((len(coef), 1), dtype=bool)
        xs = np.concatenate([0.0 * end, np.where(inner, roots, 0.0), 1.0 * end], axis=1)
        distinct = np.concatenate([end, inner, end], axis=1)
    values = _rowdot(coef, family.eval_all(xs).transpose(1, 0, 2))
    top = values.max(axis=1, where=distinct, initial=-np.inf)
    winners = distinct & (values >= top[:, None] - 1e-12)  # >=: above 1e4, top - 1e-12 == top
    return (values.min(axis=1, where=distinct, initial=np.inf),
            xs[np.arange(len(xs)), np.argmax(winners, axis=1)], winners.sum(axis=1) > 1,
            xs, distinct)


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

    numerator[o] collects every compatible coefficient of order o in the
    free coordinate, already multiplied by its fixed-coordinate factors;
    denominator is numerator[0], the restriction to the known set, so the
    normalized slice integrates to 1 by construction.  Its queries are the
    stacked ones above on a block of one row; the roots and extremes are
    found once per slice, so treat a slice as read-only.
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

    # -- continuous-slice internals

    def _derivative_roots(self) -> np.ndarray:
        """Stationary points in (0,1), ascending, deduplicated."""
        *_, xs, distinct = self._extremes
        return xs[distinct][1:-1]

    def _interior_minima(self) -> np.ndarray:
        r = self._derivative_roots()
        step = np.minimum(np.minimum(1e-4, r / 2), (1 - r) / 2)
        left, mid, right = self.evaluate(np.concatenate([r - step, r, r + step])).reshape(3, -1)
        return r[(left > mid) & (right > mid)]

    def _interval_stats(self, lo: float, hi: float) -> tuple[float, float]:
        """(mass, mean) of the normalized slice restricted to [lo, hi]."""
        nodes, weights = gauss_nodes(48)
        x = lo + (hi - lo) * nodes
        w = (hi - lo) * weights
        rho = self.evaluate(x)
        mass = float(np.sum(w * rho))
        if mass == 0.0:
            return 0.0, (lo + hi) / 2
        return mass, float(np.sum(w * x * rho) / mass)

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
        for a discrete coordinate.

        Each cluster reports its interval, conditional mean, and mass;
        slivers below the mass floor merge into the adjacent cluster with
        the nearer mean.  Output is ordered by mass descending, ties by
        left endpoint.
        """
        if self.family.is_discrete:
            grid = self.family.grid
            p = self.evaluate(grid) / self.family.v
            clusters = [Cluster(g, g, float(g), float(m)) for g, m in zip(grid, p)]
        else:
            cuts = [0.0, *self._interior_minima().tolist(), 1.0]
            clusters = []
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                mass, mean = self._interval_stats(lo, hi)
                clusters.append(Cluster(lo, hi, mean, mass))
        return sorted(_merge_slivers(clusters), key=lambda c: (-c.mass, c.lo))


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
    from coordinate index to value.  Functions outside the known-plus-i
    envelope integrate away; what remains is grouped by the order of
    coordinate i, and the order-0 group is the normalizing restriction
    to the known set.
    """
    if not 0 <= i < model.d:
        raise ValueError(f"free coordinate {i} out of range")
    if isinstance(known, dict):
        values = {int(k): float(v) for k, v in known.items()}
    else:
        arr = np.asarray(known, dtype=float)
        values = {k: float(arr[k]) for k in range(arr.size) if not np.isnan(arr[k])}
    if i in values:
        raise ValueError(f"coordinate {i} is already known")
    for k in values:
        if not 0 <= k < model.d:
            raise ValueError(f"known coordinate {k} out of range")
    point, cell = np.full((1, model.d), np.nan), np.zeros((1, model.d), dtype=bool)
    point[0, list(values)], cell[0, i] = list(values.values()), True
    family = model.spec.families[i]
    numerator = _numerators(model, _known_products(model, point), [0], np.isnan(point), cell)[0]
    if numerator[0] <= 0:
        raise _mass_error(i, numerator[0])
    return ConditionalSlice(i, family, numerator[:family.max_order + 1], numerator[0])


def _known_products(model: Model, points: np.ndarray) -> np.ndarray:
    """Every function's product over the known (non-NaN) coordinates of
    each of an (n, d) block of points, (functions, n), in ascending
    coordinate order.  eval_all validates the cells, once per family."""
    missing = np.isnan(points)
    given = np.where(missing, 0.0, points)
    used, columns, tables = (~missing.all(axis=0)).tolist(), {}, {}
    for k, family in enumerate(model.spec.families):
        if used[k]:
            columns.setdefault(family, []).append(k)
    for family, cols in columns.items():
        # an unknown cell reads 1 in every order, so it leaves the products as they are
        stack = np.where(missing[:, cols], 1.0, family.eval_all(given[:, cols]))
        tables.update(zip(cols, stack.transpose(2, 0, 1)))
    if not tables:
        return np.ones((len(model.spec), len(points)))
    return model.spec.products(dict(sorted(tables.items())))


def _numerators(model: Model, products: np.ndarray, column, missing: np.ndarray,
                cells: np.ndarray) -> np.ndarray:
    """Slice numerators of the cells (point p, coordinate i) marked in
    cells, in np.nonzero order, (cells, orders of the widest family).
    products[:, column[p]] holds every function's product over point p's
    known coordinates, and missing (n, d) marks the rest.  A numerator
    sums, in spec order, the functions that touch no unknown coordinate
    but i."""
    orders = model.spec.orders
    touch = orders > 0
    point, coord = np.nonzero(cells)
    source = np.asarray(column)[point]  # each cell's products column
    hits = touch @ missing.T.astype(np.int16)  # unknown coordinates each function touches
    width = max(family.max_order for family in model.spec.families) + 1
    out = np.zeros((len(point), width))
    for i in set(coord.tolist()):  # one coordinate at a time bounds the temporaries
        (at,) = np.nonzero(coord == i)
        # a function counts when i is the only unknown coordinate it touches, if any;
        # bincount adds in input order: functions outer, cells inner
        f, c = np.nonzero(hits[:, point[at]] == touch[:, i, None])
        weights = products[f, source[at][c]]
        weights *= model.coef[f]
        c *= width  # in place, to hold few arrays of this size at once
        c += orders[f, i]
        out[at] = np.bincount(c, weights, len(at) * width).reshape(-1, width)
    return out


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
    complete row as it is), or the NonpositiveMassError it raises.

    Each row is a state, as is each cluster-split branch, and a step fills
    one cell of every open state.  A state carries every function's
    product over its known coordinates, multiplied in the order they
    became known (as given, then as filled), so a step's slices are one
    bincount per missing coordinate over all states.
    """
    if policy not in (EXPECTED, TOP_MODE, CLUSTER_SPLIT):
        raise ValueError(f"unknown policy {policy!r}")
    families, names = model.spec.families, model.coordinate_names()
    moments = np.zeros((model.d, 3, max(f.max_order for f in families) + 1))
    for k, family in enumerate(families):
        moments[k, :, :family.max_order + 1] = _moment_table(family)
    values = np.array(block, dtype=float)
    opened = np.isnan(values).any(axis=1)
    products = _known_products(model, np.where(opened[:, None], values, np.nan))
    column = np.arange(len(values))  # a state's products are products[:, column]
    origin, weight = np.arange(len(values)), np.ones(len(values))
    variance, filled = np.full(values.shape, np.nan), np.full(values.shape, -1)
    notes, errors = [()] * len(values), {}
    for step in range(model.d):  # filled[r, step]: the coordinate that step filled
        (rows,) = np.nonzero(opened)
        missing = np.isnan(values[rows])
        point, coord = np.nonzero(missing)
        num = _numerators(model, products, column[rows], missing, missing)
        coef = np.divide(num, num[:, :1], out=np.zeros(num.shape), where=num[:, :1] > 0)
        mean, var = _moments(coef, moments[coord])
        spread, mass = np.full(missing.shape, np.inf), np.empty(len(rows))
        spread[point, coord] = np.where(0.0 > var, 0.0, var)
        mass[point] = num[:, 0]  # the same for every slice of a state
        for r in np.flatnonzero(mass <= 0):  # the first failing state's lowest missing slice
            errors.setdefault(int(origin[rows[r]]),
                              _mass_error(int(np.argmax(missing[r])), mass[r]))
        count = np.ones(len(values), dtype=int)  # the states each state becomes
        if errors:
            count[np.isin(origin, list(errors))] = 0
        # fill the missing coordinate of least variance, ties to the lower
        target = np.where(count[rows] > 0, np.argmin(spread, axis=1), -1)
        fills = []  # (coordinate, states, values, branch shares)
        for i in set(target.tolist()) - {-1}:
            (at,) = np.nonzero((coord == i) & (target[point] == i))
            width = families[i].max_order + 1
            slice_coef, states, share = coef[at, :width], rows[point[at]], None
            variance[states, i] = spread[point[at], i]
            if policy == TOP_MODE:
                minimum, value, tied, *_ = _extremes(families[i], slice_coef)
                negative = minimum < 0
            else:
                negative, tied = _negative(families[i], slice_coef), np.zeros(len(at), dtype=bool)
                value = np.where(negative, np.where(mean[at] > 0.0, np.minimum(mean[at], 1.0), 0.0),
                                 mean[at])
            for r in states[negative]:
                notes[r] += (f"negative-region:{names[i]}",)
            for r in states[tied]:
                notes[r] += (f"mode-tie:{names[i]}",)
            if policy == CLUSTER_SPLIT:
                branches = [ConditionalSlice(i, families[i], n, n[0]).modes_and_clusters()
                            for n in num[at, :width]]
                totals = [sum(c.mass for c in b) for b in branches]
                count[states] = [len(b) for b in branches]
                states = np.repeat(states, count[states])
                value = np.array([c.mean for b in branches for c in b])
                share = np.array([c.mass / t for b, t in zip(branches, totals) for c in b])
            fills.append((i, states, value, share))
        if (count != 1).any():  # drop failed rows' states, expand branches in order
            start = np.cumsum(count) - count
            state = np.repeat(np.arange(len(values)), count)
            values, origin, weight, variance, filled, column = (
                a[state] for a in (values, origin, weight, variance, filled, column))
            notes = [notes[r] for r in state]
            fills = [(i, start[s] + np.arange(len(s)) - np.searchsorted(s, s), v, w)
                     for i, s, v, w in fills]
        for i, states, value, share in fills:
            values[states, i] = families[i].snap(value)
            filled[states, step] = i
            if share is not None:
                weight[states] *= share
        opened = np.isnan(values).any(axis=1)
        if not opened.any():
            break
        # the products of the states still open, times the cell each just filled
        (rows,) = np.nonzero(opened)
        products, column[rows] = products[:, column[rows]], np.arange(len(rows))
        for i in set(filled[rows, step].tolist()):
            (at,) = np.nonzero(filled[rows, step] == i)
            products[:, at] *= model.spec.products({i: families[i].eval_all(values[rows[at], i])})
    weight = (weight / np.bincount(origin, weight, len(block))[origin]).tolist()
    out: list = [[] for _ in range(len(block))]
    for r, (k, order) in enumerate(zip(origin.tolist(), filled.tolist())):
        out[k].append(Completion(values[r].copy(), weight[r],
                                 {t: float(variance[r, t]) for t in order if t >= 0}, notes[r]))
    for k, exc in errors.items():
        out[k] = exc
    return out
