"""Tensor-product basis over [0,1]^d organized by support subsets.

A basis function is identified by a multi-index j (one order per
coordinate); its support is the set of coordinates with nonzero order.
Functions are constant in off-support coordinates, which is what lets a
record with missing cells still contribute evidence to low-order terms.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Iterable, Mapping, Sequence

import numpy as np

from .basis1d import Family1D, _moment_table
from .errors import MissingCoordinateError

__all__ = [
    "MultiIndex",
    "support",
    "canonical_key",
    "BasisSpec",
    "build_full",
    "build_sparse",
]

MultiIndex = tuple  # length-d tuple of non-negative int orders

MAX_FUNCTIONS = 1_000_000  # build_full refuses larger bases before building them
FIT_BLOCK = 1 << 18  # function values (functions x rows) a row-blocked loop holds at once


def support(j: MultiIndex) -> tuple[int, ...]:
    """Coordinates with nonzero order, ascending."""
    return tuple(i for i, o in enumerate(j) if o > 0)


def canonical_key(j: MultiIndex):
    """Sort key: correlation level first, then support set, then orders."""
    s = support(j)
    return (len(s), s, tuple(j))


def _check_index(j: MultiIndex, families: Sequence[Family1D]) -> None:
    """Raise ValueError unless j holds one non-negative order per family,
    each within its family's capacity."""
    if len(j) != len(families) or min(j, default=0) < 0:
        raise ValueError(f"multi-index {j} is not {len(families)} non-negative orders")
    for i, (o, family) in enumerate(zip(j, families)):
        if o > family.max_order:
            raise ValueError(f"order {o} exceeds coordinate {i} family capacity")


@dataclass
class BasisSpec:
    """Per-coordinate families plus the selected multi-index set.

    selected is kept in canonical order and always starts with the
    all-zero index; orders is the same set as a read-only int matrix,
    row p holding the multi-index of selected[p], and touch is orders > 0.
    The functions of one support are contiguous, and first[p] is the
    position of the first one with selected[p]'s support.
    width is the highest family order plus one, and moments stacks each
    coordinate's _moment_table, zero-padded to (d, 3, width).

    The factor plan: per point, the constant 1, then the single_count
    single rows (_singles: per family, orders 1..top, its highest order
    read, of each coordinate some function reads, by family, order,
    coordinate), then one product row per prefix of two or more factors
    (_products: a function's support less its last coordinate, at its
    orders), shorter first; factor_count rows in all.  A function is its
    prefix row (none for the constant and the one-factor functions) times
    its last factor, a single row: contract sums these products times the
    coefficients, and _sums sums them over the rows.  Treated as
    immutable after construction.
    """

    d: int
    families: tuple[Family1D, ...]
    selected: tuple[MultiIndex, ...]

    def __post_init__(self):
        if len(self.families) != self.d:
            raise ValueError("one family per coordinate required")
        zero = (0,) * self.d
        ordered = sorted(set(map(tuple, self.selected)) | {zero}, key=canonical_key)
        self.selected = tuple(ordered)
        for j in self.selected:
            _check_index(j, self.families)
        self._position = {j: k for k, j in enumerate(self.selected)}
        self.orders = np.array(self.selected, dtype=np.intp).reshape(len(self.selected), self.d)
        self.touch = self.orders > 0
        new = np.r_[True, (self.touch[1:] != self.touch[:-1]).any(axis=1)]  # a support starts
        self.first = np.maximum.accumulate(np.where(new, np.arange(len(new)), 0))
        self.width = max((f.max_order for f in self.families), default=0) + 1
        self.moments = np.zeros((self.d, 3, self.width))
        for k, f in enumerate(self.families):
            self.moments[k, :, :f.max_order + 1] = _moment_table(f)
        for a in (self.orders, self.touch, self.first, self.moments):
            a.setflags(write=False)
        self._need = np.packbits(self.touch, axis=1).T[:, :, None]  # byte, function, 1
        self._plan_factors()

    def _plan_factors(self):
        """The factor plan of the class docstring, each family's coordinates
        and single rows, and the groups of the contraction."""
        d, level = self.d, self.touch.sum(axis=1)
        families = list(dict.fromkeys(self.families))
        kind = np.array([families.index(f) for f in self.families], dtype=np.intp)
        cols = [np.flatnonzero(kind == i) for i in range(len(families))]
        coords = np.argsort(self.orders == 0, axis=1, kind="stable")  # support, ascending
        orders = np.take_along_axis(self.orders, coords, axis=1)
        # family, its coordinates, those some function reads (None when
        # there are none), its single rows and its highest order read
        at_single = np.zeros((d, self.width), dtype=np.intp)  # the row of (coordinate, order)
        self._columns, count = [], 0
        for f, c in zip(families, cols):
            read = c[self.touch[:, c].any(axis=0)]
            top = int(self.orders[:, c].max(initial=0))
            at_single[read, 1:top + 1] = 1 + count + np.add.outer(np.arange(len(read)),
                                                                  np.arange(top) * len(read))
            self._columns.append((f, _view(c), _view(read), slice(count, count + top * len(read)),
                                  top))
            count += top * len(read)
        self.single_count = count
        # each (coordinate, order)'s row in a table of the density, the slopes and 0
        self._slope_rows = np.where((at_single > 0) | (np.arange(self.width) == 0), at_single,
                                    count + 1)
        single = at_single[coords, orders]  # each factor's row (on the support)
        # every prefix of two or more factors, keyed by its factors' rows
        keys = {tuple(row[:length]) for row, lvl in zip(single.tolist(), level.tolist())
                for length in range(2, lvl)}
        keys = sorted(keys, key=lambda key: (len(key), key))
        at = {key: r for r, key in enumerate(keys)}  # a prefix's row among the product rows
        self.factor_count = 1 + count + len(keys)
        # per prefix length, the plan of _products, its rows counted from
        # the first single row and the first product row
        self._prefixes = []
        for length in range(2, level.max(initial=0)):
            group = [key for key in keys if len(key) == length]
            lo = at[group[0]]
            self._prefixes.append((slice(lo, lo + len(group)),
                                   np.array([key[0] - 1 if length == 2 else at[key[:-1]]
                                             for key in group], dtype=np.intp),
                                   np.array([key[-1] - 1 for key in group], dtype=np.intp)))
        last = np.zeros(len(level), dtype=np.intp)  # the constant's is the constant row
        last[1:] = single[np.arange(1, len(level)), level[1:] - 1]
        prefix = np.array([0 if lvl < 2 else row[0] if lvl == 2
                           else 1 + count + at[tuple(row[:lvl - 1])]  # a product row
                           for row, lvl in zip(single.tolist(), level.tolist())], dtype=np.intp)
        self._slope_rows.setflags(write=False)
        # the contraction's groups: the one-factor functions, then one per
        # level above, whose prefixes are single rows at level 2, product rows above
        bounds = np.searchsorted(level, np.arange(1, level.max(initial=1) + 2)).tolist()
        self._head = (slice(bounds[0], bounds[1]), *_span(last[bounds[0]:bounds[1]] - 1))
        self._groups = []  # functions, products?, prefix rows, last rows, each (row, column)
        for lvl, (lo, hi) in enumerate(zip(bounds[1:-1], bounds[2:]), start=2):
            if lo < hi:
                first = 1 + count if lvl > 2 else 1  # the factor row of the group's row 0
                (arows, ai), (brows, bi) = _span(prefix[lo:hi] - first), _span(last[lo:hi] - 1)
                self._groups.append((slice(lo, hi), lvl > 2, arows, brows, ai, bi))
        # the last rows of every group, which _sums scales by the weights once
        self._lasts = _span(last[bounds[1]:] - 1)[0]

    def __len__(self) -> int:
        return len(self.selected)

    def __contains__(self, j) -> bool:
        return tuple(j) in self._position

    def position(self, j: MultiIndex) -> int:
        return self._position[tuple(j)]

    def covered(self, present) -> np.ndarray:
        """Functions x rows of an (n, d) presence mask, true where the row
        knows the function's whole support; one pass per packed byte of d,
        an in-place bitwise_and and equal in one byte buffer (the result's
        own bytes for the first byte), so beside the result it holds one
        functions x rows byte array at most, and none while d <= 8."""
        codes = np.packbits(present, axis=1).T  # byte, row
        cover = np.ones((len(self), len(present)), np.uint8)
        scratch = cover
        for k, (code, need) in enumerate(zip(codes, self._need)):
            if k == 1:
                scratch = np.empty_like(cover)
            np.bitwise_and(code, need, out=scratch)
            np.equal(scratch, need, out=scratch)  # 1 where the byte's coordinates are known
            if k:
                cover &= scratch
        return cover.view(bool)

    def _products(self, singles: np.ndarray, out: np.ndarray) -> None:
        """Write the product rows at the columns of singles into out, shorter
        prefixes first: a left factor (a single row for two factors, else a
        product row written before) times a right factor (a single row)."""
        for k, (rows, left, right) in enumerate(self._prefixes):
            block = out[rows]  # every row index is valid, so "clip" only skips numpy's buffering
            (out if k else singles).take(left, axis=0, out=block, mode="clip")
            block *= singles[right]

    def _singles(self, points, out=None) -> np.ndarray:
        """The single rows of the plan at each row of an (n, d) block of
        points, (single_count, n), written to out (C-contiguous) when given.
        Per family, every known cell gets eval_all's checks, and
        Family1D._write_orders writes orders 1..top of the coordinates some
        function reads straight into their rows; then a factor at a NaN
        cell reads 0, written in place, so every function whose support
        misses a cell of a point is exactly 0 there.  The points are read
        through a transposed view, copied only when they hold a NaN."""
        points = np.asarray(points, dtype=float).T  # coordinate, point
        n = points.shape[1]
        missing = np.isnan(points)
        gaps = missing.any()
        if gaps:  # checked and evaluated at 0, then overwritten with 0
            points = np.where(missing, 0.0, points)
        if out is None:
            out = np.empty((self.single_count, n))
        for family, cols, read, rows, top in self._columns:
            family._check(points[cols])
            if read is None:
                continue
            x = points[read]
            table = out[rows].reshape((top,) + x.shape)  # order, coordinate, point: a view
            family._write_orders(x, table)
            if gaps:  # copyto: a boolean setitem's index arrays can outgrow a small table
                np.copyto(table, 0.0, where=missing[read])
        return out

    def _layout(self, coef: np.ndarray):
        """coef laid out for the contraction: the one-factor functions' over
        their single rows, and per group a (last rows x prefix rows) matrix."""
        funs, span, cols = self._head
        head = np.zeros(span.stop - span.start)
        head[cols] = coef[funs]
        mats = []
        for fun, _, arows, brows, ai, bi in self._groups:
            mats.append(np.zeros((brows.stop - brows.start, arows.stop - arows.start)))
            mats[-1][bi, ai] = coef[fun]
        return head, mats

    def contract(self, coef: np.ndarray, blocks, slopes=None, layout=None):
        """For each (rows, S) of blocks, S being zero-filled single rows
        (_singles), yields (rows, rho, S, P): the density coef . f at every
        column of S, S itself and its product rows P (_products).  rho and
        P are written into buffers sized for the first block (the
        largest), so all three stay valid until the next block is read.
        layout, if given, is _layout(coef).  Given slopes (zeros,
        single_count rows, a column per record), each block first adds
        into slopes[:, rows] each column's slope along every single row:
        coef times the other factors of the functions reading it, 0 if none.

        Per block: the constant, a GEMV over the one-factor functions' rows,
        and per level above a GEMM of its coefficients over its prefix rows,
        times its last rows, summed, each GEMM result dropped once read.
        Slopes read those rows and the product rows backwards, one column
        at a time (_columns), so that no column depends on its neighbours.
        """
        (head, mats), span = layout or self._layout(coef), self._head[1]
        mul = np.matmul if slopes is None else _columns
        m, buffer, densities = self.factor_count - 1 - self.single_count, None, None
        for rows, S in blocks:
            n = S.shape[1]
            buffer = np.empty(m * n) if buffer is None else buffer
            densities = np.empty(n) if densities is None else densities
            P, r = buffer[:m * n].reshape(m, n), densities[:n]
            self._products(S, P)
            r[:] = mul(head, S[span])
            r += coef[0]  # the constant
            if slopes is not None:
                D, dP = slopes[:, rows], np.zeros_like(P)
                D[span] += head[:, None]
            for C, (_, products, arows, brows, _, _) in zip(mats, self._groups):
                T = mul(C, (P if products else S)[arows])
                if slopes is not None:
                    D[brows] += T
                    (dP if products else D)[arows] += _columns(C.T, S[brows])
                T *= S[brows]
                r += T.sum(axis=0)
                del T  # before the next level's GEMM, and the next block's rows
            if slopes is not None:  # back through the product rows, longest prefixes first
                for k, (prows, left, right) in reversed(list(enumerate(self._prefixes))):
                    np.add.at(D, right, dP[prows] * (P if k else S)[left])
                    np.add.at(dP if k else D, left, dP[prows] * S[right])
                del D, dP
            yield rows, r, S, P

    def _sums(self, S: np.ndarray, P=None, w=None) -> np.ndarray:
        """Sum of w times f over the columns of single rows S for every
        selected function f, the sum of w for the constant (w None: every
        weight 1).  P holds the product rows of S (_products), built here
        when None.  One GEMV over the one-factor functions' rows and, per
        level above, one GEMM of its prefix rows against its last rows
        times w, each group's sums gathered from its product matrix."""
        if P is None:
            P = np.empty((self.factor_count - 1 - self.single_count, S.shape[1]))
            self._products(S, P)
        (funs, span, cols), lo = self._head, self._lasts.start
        lasts = S[self._lasts] if w is None else S[self._lasts] * w
        out = np.empty(len(self))
        out[0] = S.shape[1] if w is None else w.sum()
        out[funs] = (S[span].sum(axis=1) if w is None else S[span] @ w)[cols]
        for fun, products, arows, brows, ai, bi in self._groups:
            G = (P if products else S)[arows] @ lasts[brows.start - lo:brows.stop - lo].T
            out[fun] = G[ai, bi]
        return out

    def _refill(self, S: np.ndarray, i: int, at, x: np.ndarray) -> None:
        """Write coordinate i's single rows at x (in [0,1], unchecked) into
        the columns at of single rows S, with one _write_orders call."""
        rows = self._slope_rows[i, 1:]
        rows = rows[rows <= self.single_count] - 1
        table = np.empty((len(rows), len(at)))
        self.families[i]._write_orders(x, table)
        S[rows[:, None], at] = table

    def single_blocks(self, points):
        """(rows, _singles(points[rows])) for each row block of _blocks
        over an (n, d) array of points; every block's single rows are
        written into one buffer sized for the first (the largest), so a
        block's rows are valid until the next block is read."""
        buffer = None
        for rows in _blocks(self, len(points)):
            n = rows.stop - rows.start
            buffer = np.empty(self.single_count * n) if buffer is None else buffer
            S = buffer[:self.single_count * n].reshape(self.single_count, n)
            yield rows, self._singles(points[rows], S)

    def eval_function(self, j: MultiIndex, x: Sequence[float]) -> float:
        """Product of 1-D factors over support(j); other slots never read."""
        j = tuple(j)
        if j not in self._position:
            raise ValueError(f"multi-index {j} not in the selected set")
        out = 1.0
        for i in support(j):
            xi = x[i]
            if xi is None or (isinstance(xi, float) and np.isnan(xi)):
                raise MissingCoordinateError(
                    f"coordinate {i} is required by multi-index {j} but missing"
                )
            out *= self.families[i].eval(j[i], xi)
        return out


def _whole(value) -> bool:
    """Whether value is an int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _blocks(spec: BasisSpec, n: int, per_value: int = 1):
    """Row slices of n rows, at most FIT_BLOCK // per_value function
    values each (one row at least); the last one stops at n."""
    step = max(1, FIT_BLOCK // (per_value * len(spec)))
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def _view(cols: np.ndarray):
    """cols as a slice when they are consecutive (a view, not a gather),
    None when there are none."""
    if not cols.size:
        return None
    return slice(int(cols[0]), int(cols[-1]) + 1) if cols[-1] - cols[0] == len(cols) - 1 else cols


def _columns(C: np.ndarray, X: np.ndarray) -> np.ndarray:
    """C @ X as one vector-matrix product per contiguous copy of a column of
    X, so a column sums alike wherever it stands (a GEMM's edges may not)."""
    return np.matmul(np.ascontiguousarray(X.T)[:, None, :], C.T)[:, 0].T


def _span(rows: np.ndarray):
    """The range of rows a group reads, and each function's row in it."""
    lo = int(rows.min()) if rows.size else 0
    return slice(lo, int(rows.max()) + 1 if rows.size else 0), rows - lo


def _as_families(d: int, families) -> tuple[Family1D, ...]:
    if isinstance(families, Family1D):
        return (families,) * d
    families = tuple(families)
    if len(families) != d:
        raise ValueError(f"expected {d} families, got {len(families)}")
    return families


def _expand(d: int, families, pairs: Iterable[tuple[tuple[int, ...], int]]) -> BasisSpec:
    """The basis of every multi-index with orders 1..m on the coordinates
    of a (coords, m) pair and 0 elsewhere; each m is checked against its
    coordinates' families before its functions are listed."""
    fams = _as_families(d, families)
    selected: list[MultiIndex] = [(0,) * d]
    for coords, m in pairs:
        _check_index(tuple(m if i in coords else 0 for i in range(d)), fams)
        for orders in product(range(1, m + 1), repeat=len(coords)):
            j = [0] * d
            for i, o in zip(coords, orders):
                j[i] = o
            selected.append(tuple(j))
    return BasisSpec(d, fams, tuple(selected))


def build_full(d: int, families, level_orders) -> BasisSpec:
    """All multi-indices with per-level maximal order.

    level_orders maps correlation level |C| (1..d) to the maximal 1-D
    order used at that level; an int applies one order to every level.
    Order 0 at a level drops that level entirely.  The constant is always
    selected, so a level-0 entry is accepted but redundant.
    """
    if isinstance(level_orders, int):
        level_orders = {lvl: level_orders for lvl in range(1, d + 1)}
    for lvl in range(1, d + 1):
        if lvl not in level_orders:
            raise ValueError(f"level_orders missing level {lvl}")
        if level_orders[lvl] < 0:
            raise ValueError(f"level {lvl} has negative order {level_orders[lvl]}")
    levels = [(lvl, level_orders[lvl]) for lvl in range(1, d + 1) if level_orders[lvl] > 0]
    count = 1 + sum(comb(d, lvl) * m ** lvl for lvl, m in levels)
    if count > MAX_FUNCTIONS:
        raise ValueError(f"basis would have {count} functions, more than the "
                         f"limit of {MAX_FUNCTIONS}; lower the orders or drop levels")
    return _expand(d, families, ((coords, m) for lvl, m in levels
                                 for coords in combinations(range(d), lvl)))


def build_sparse(d: int, families, subsets: Iterable[Iterable[int]], orders) -> BasisSpec:
    """Basis populated only for the whitelisted coordinate subsets.

    orders is an int shared by every subset, or a mapping from frozenset
    to the maximal order used inside that subset.
    """
    pairs = []
    for raw in subsets:
        coords = tuple(sorted(set(raw)))
        if not coords:
            raise ValueError("whitelisted subsets must be nonempty")
        if coords[0] < 0 or coords[-1] >= d:
            raise ValueError(f"subset {coords} out of range for d={d}")
        pairs.append((coords, orders[frozenset(coords)] if isinstance(orders, Mapping)
                      else int(orders)))
    return _expand(d, families, pairs)
