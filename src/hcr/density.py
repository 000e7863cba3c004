"""Density queries against a fitted model.

Covers full-point evaluation with the epsilon clamp, marginal models,
one-coordinate conditional slices, mode/cluster analysis of slices, and
sequential imputation of missing cells with optional branching on
multimodal slices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis1d import Family1D, _moment_table, gauss_nodes
from .errors import MissingCoordinateError, NonpositiveMassError
from .estimator import Model, _coordinate_tables
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
    tables = list(_coordinate_tables(model.spec, points))
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


@dataclass
class ConditionalSlice:
    """One-coordinate section of the density with known coordinates fixed.

    numerator[o] collects every compatible coefficient of order o in the
    free coordinate, already multiplied by its fixed-coordinate factors;
    denominator is numerator[0], the restriction to the known set, so the
    normalized slice integrates to 1 by construction.
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

    def _trig_derivative_roots(self) -> np.ndarray:
        """Stationary points of the trig slice, as angles of unit roots.

        With a_k, b_k the sin/cos coefficients of frequency k and
        z = e^{2 pi i x}, the derivative is proportional to
        sum_k k [(a_k + i b_k) z^k + (a_k - i b_k) z^-k]; times z^K it is
        a polynomial of degree 2K whose roots on the unit circle are the
        real stationary points.
        """
        a = self.coef[1::2]  # orders 1, 3, 5, ...: sin of frequency 1, 2, 3, ...
        b = np.zeros(a.size)
        b[:self.coef[2::2].size] = self.coef[2::2]  # orders 2, 4, ...: cos
        freq = a.size
        k = np.arange(1, freq + 1)
        poly = np.zeros(2 * freq + 1, dtype=complex)
        poly[freq + k] = k * (a + 1j * b)
        poly[freq - k] = k * (a - 1j * b)
        z = np.polynomial.polynomial.polyroots(poly)
        on_circle = z[np.abs(np.abs(z) - 1.0) < 1e-6]
        return np.angle(on_circle) / (2 * np.pi) % 1.0

    def _derivative_roots(self) -> np.ndarray:
        """Stationary points in (0,1), ascending, deduplicated."""
        if self.family.kind == "legendre":
            if self.numerator.size < 3:
                return np.empty(0)
            scale = np.sqrt(2 * np.arange(self.numerator.size) + 1)
            poly = np.polynomial.legendre.Legendre(self.coef * scale, domain=[0, 1])
            roots = np.atleast_1d(poly.deriv().roots())
            real = roots[np.abs(roots.imag) < 1e-9].real
        else:
            real = self._trig_derivative_roots()
        real = np.sort(real[(real > 1e-10) & (real < 1 - 1e-10)])
        return real[np.concatenate(([True], np.diff(real) > 1e-9))] if real.size else real

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

    def _signed_moments(self) -> tuple[float, float]:
        """Mean and variance of the slice integrated as-is (signed), under
        the family's measure (the grid's for a discrete coordinate)."""
        moments = _moment_table(self.family)
        mean = float(self.coef @ moments[1])
        return mean, float(self.coef @ moments[2]) - mean * mean

    @property
    def variance(self) -> float:
        """Slice variance floored at 0, in closed form (no extrema search)."""
        return max(self._signed_moments()[1], 0.0)

    def expected_value(self) -> SliceMoments:
        """Mean and variance of the slice, flagging negative regions.

        A slice with negative parts is integrated as-is (signed) and the
        mean clipped into [0,1]; variance is floored at 0.
        """
        mean, var = self._signed_moments()
        negative = self._minimum_value() < 0
        if negative:
            mean = min(1.0, max(0.0, mean))
        return SliceMoments(float(mean), float(max(var, 0.0)), bool(negative))

    def _extrema_candidates(self) -> np.ndarray:
        """Ascending points holding every extreme of the slice: the grid of
        a discrete coordinate, else the ends and the stationary points."""
        if self.family.is_discrete:
            return self.family.grid
        return np.concatenate(([0.0], self._derivative_roots(), [1.0]))

    def _minimum_value(self) -> float:
        return float(np.min(self.evaluate(self._extrema_candidates())))

    def top_mode(self) -> tuple[float, bool]:
        """Location of the global maximum; ties resolve to the smaller
        coordinate and are flagged."""
        xs = self._extrema_candidates()
        vals = self.evaluate(xs)
        winners = xs[vals >= np.max(vals) - 1e-12]  # >=: above 1e4, max - 1e-12 == max
        return float(winners[0]), winners.size > 1

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
    # eval_all validates range and grid membership
    tables = {k: model.spec.families[k].eval_all(v) for k, v in values.items()}
    return _slice(model, tables, i)


def _slice(model: Model, tables: dict[int, np.ndarray], i: int) -> ConditionalSlice:
    """conditional_slice from the 1-D tables of the known coordinates."""
    orders = model.spec.orders
    unknown = [k for k in range(model.d) if k != i and k not in tables]
    keep = ~orders[:, unknown].any(axis=1)
    factor = model.coef[keep] * model.spec.products(tables, keep)
    family = model.spec.families[i]
    numerator = np.bincount(orders[keep, i], weights=factor,
                            minlength=family.max_order + 1)
    denominator = numerator[0]
    if denominator <= 0:
        raise NonpositiveMassError(
            f"conditional mass for coordinate {i} is {denominator:.6g} at the given "
            "evidence; repair the model or fall back to the marginal", denominator)
    return ConditionalSlice(i, family, numerator, denominator)


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
    if policy not in (EXPECTED, TOP_MODE, CLUSTER_SPLIT):
        raise ValueError(f"unknown policy {policy!r}")
    start = np.asarray(record, dtype=float)
    if start.shape != (model.d,):
        raise ValueError(f"expected a length-{model.d} record")
    if not np.any(np.isnan(start)):
        raise ValueError("record is already complete")
    families = model.spec.families
    known = np.flatnonzero(~np.isnan(start))
    # each state carries the 1-D tables of its known coordinates
    states = [(Completion(start.copy(), 1.0, {}),
               {int(k): families[k].eval_all(start[k]) for k in known})]
    while any(np.isnan(state.values).any() for state, _ in states):
        next_states: list[tuple[Completion, dict]] = []
        for state, tables in states:
            missing = np.flatnonzero(np.isnan(state.values))
            if missing.size == 0:
                next_states.append((state, tables))
                continue
            slices: dict[int, ConditionalSlice] = {}
            errors: list[Exception] = []
            for i in missing:
                try:
                    slices[int(i)] = _slice(model, tables, int(i))
                except NonpositiveMassError as exc:
                    errors.append(exc)
            if not slices:
                raise errors[0]
            target = min(slices, key=lambda i: (slices[i].variance, i))
            sl = slices[target]
            mom = sl.expected_value()
            notes = state.notes
            if mom.negative_region:
                notes = notes + (f"negative-region:{model.coordinate_names()[target]}",)
            if policy == EXPECTED:
                fills = [(mom.mean, 1.0)]
            elif policy == TOP_MODE:
                value, tied = sl.top_mode()
                if tied:
                    notes = notes + (f"mode-tie:{model.coordinate_names()[target]}",)
                fills = [(value, 1.0)]
            else:
                clusters = sl.modes_and_clusters()
                total = sum(c.mass for c in clusters)
                fills = [(c.mean, c.mass / total) for c in clusters]
            for value, share in fills:
                values = state.values.copy()
                values[target] = sl.family.snap(value)
                variances = dict(state.variances)
                variances[target] = mom.variance
                next_states.append((
                    Completion(values, state.weight * share, variances, notes),
                    {**tables, target: sl.family.eval_all(values[target])}))
        states = next_states
    completions = [state for state, _ in states]
    total = sum(s.weight for s in completions)
    for s in completions:
        s.weight /= total
    return completions
