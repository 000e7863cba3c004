"""One-dimensional orthonormal function families on [0,1].

Three families are provided: rescaled Legendre polynomials (continuous),
a sine/cosine family (continuous), and per-cardinality discrete vector
bases built by Gram-Schmidt on a uniform grid.  Order 0 is the constant
function 1 for every family, and every order >= 1 integrates to zero, so
a unit leading coefficient keeps any linear combination normalized.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Family1D",
    "legendre",
    "trig",
    "discrete",
    "gauss_nodes",
]

LEGENDRE = "legendre"
TRIG = "trig"
DISCRETE = "discrete"

_SQ3 = np.sqrt(3.0)
_SQ5 = np.sqrt(5.0)
_SQ7 = np.sqrt(7.0)
_SQ11 = np.sqrt(11.0)
_SQ2 = np.sqrt(2.0)


@lru_cache(maxsize=None)
def gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1,1] to [0,1]."""
    t, w = np.polynomial.legendre.leggauss(n)
    return (t + 1.0) / 2.0, w / 2.0


def _quad_count(degree: int) -> int:
    # exact for polynomials up to `degree`, with margin
    return (degree + 2 + 1) // 2 + 2


@lru_cache(maxsize=None)
def _discrete_table(v: int) -> np.ndarray:
    """Orthonormal vectors on the grid {k/(v-1)}, weight 1/v per point.

    Row j is the order-j function; Gram-Schmidt on monomials guarantees
    row 0 is constant 1 and row j is a degree-j polynomial on the grid.
    """
    x = np.arange(v) / (v - 1)
    w = 1.0 / v
    rows = []
    for p in range(v):
        f = x**p
        for g in rows:
            f = f - np.sum(w * f * g) * g
        norm = np.sqrt(np.sum(w * f * f))
        rows.append(f / norm)
    return np.array(rows)


def _legendre_closed(j: int, x):
    if j == 0:
        return np.ones_like(x)
    if j == 1:
        return _SQ3 * (2 * x - 1)
    if j == 2:
        return _SQ5 * (6 * x**2 - 6 * x + 1)
    if j == 3:
        return _SQ7 * (20 * x**3 - 30 * x**2 + 12 * x - 1)
    if j == 4:
        return 3.0 * (70 * x**4 - 140 * x**3 + 90 * x**2 - 20 * x + 1)
    if j == 5:
        return _SQ11 * (252 * x**5 - 630 * x**4 + 560 * x**3 - 210 * x**2 + 30 * x - 1)
    raise ValueError("closed forms stop at order 5")


def _legendre_recurrence(j: int, x):
    """Order-j shifted Legendre value via the three-term recurrence.

    Works on t = 2x-1 with P_n = ((2n-1) t P_{n-1} - (n-1) P_{n-2}) / n,
    then rescales by sqrt(2j+1) for unit norm on [0,1].
    """
    t = 2 * x - 1
    p_prev = np.ones_like(t)
    if j == 0:
        return p_prev
    p = t
    for n in range(2, j + 1):
        p, p_prev = ((2 * n - 1) * t * p - (n - 1) * p_prev) / n, p
    return np.sqrt(2 * j + 1) * p


@dataclass(frozen=True)
class Family1D:
    """Descriptor of one orthonormal family.

    kind is one of "legendre", "trig", "discrete"; v is the number of
    admissible grid values for discrete families and None otherwise.
    """

    kind: str
    max_order: int
    v: int | None = None

    def __post_init__(self):
        if self.kind not in (LEGENDRE, TRIG, DISCRETE):
            raise ValueError(f"unknown family kind: {self.kind!r}")
        if self.max_order < 0:
            raise ValueError("max_order must be non-negative")
        if self.kind == DISCRETE:
            if self.v is None or self.v < 2:
                raise ValueError("discrete family needs v >= 2 values")
            if self.max_order > self.v - 1:
                raise ValueError(
                    f"discrete family with {self.v} values supports orders <= {self.v - 1}"
                )
        elif self.v is not None:
            raise ValueError("v is only meaningful for discrete families")

    @property
    def is_discrete(self) -> bool:
        return self.kind == DISCRETE

    @property
    def grid(self) -> np.ndarray:
        """Admissible values of a discrete coordinate."""
        if not self.is_discrete:
            raise ValueError("grid is defined for discrete families only")
        return np.arange(self.v) / (self.v - 1)

    def _check_order(self, j: int):
        if not 0 <= j <= self.max_order:
            raise ValueError(f"order {j} outside 0..{self.max_order}")

    def _grid_index(self, x: np.ndarray) -> np.ndarray:
        k = np.rint(x * (self.v - 1)).astype(int)
        k = np.clip(k, 0, self.v - 1)
        if np.any(np.abs(x - k / (self.v - 1)) > 1e-9):
            raise ValueError(f"value not on the {self.v}-point discrete grid")
        return k

    def eval(self, j: int, x):
        """Value of the order-j function at x (scalar or array) in [0,1]."""
        self._check_order(j)
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("evaluation outside [0,1] is not defined")
        if self.kind == LEGENDRE:
            out = _legendre_closed(j, arr) if j <= 5 else _legendre_recurrence(j, arr)
        elif self.kind == TRIG:
            if j == 0:
                out = np.ones_like(arr)
            else:
                freq = (j + 1) // 2
                wave = np.sin if j % 2 == 1 else np.cos
                out = _SQ2 * wave(2 * np.pi * freq * arr)
        else:
            out = _discrete_table(self.v)[j][self._grid_index(arr)]
        return out if arr.ndim else float(out)

    def eval_all(self, x) -> np.ndarray:
        """Stack of all orders 0..max_order evaluated at x, shape (m+1, ...).

        Validates the input once, so it is the cheap path for bulk work.
        """
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("evaluation outside [0,1] is not defined")
        if self.kind == LEGENDRE:
            rows = [_legendre_closed(j, arr) if j <= 5 else _legendre_recurrence(j, arr)
                    for j in range(self.max_order + 1)]
        elif self.kind == TRIG:
            rows = [np.ones_like(arr)]
            for j in range(1, self.max_order + 1):
                freq = (j + 1) // 2
                wave = np.sin if j % 2 == 1 else np.cos
                rows.append(_SQ2 * wave(2 * np.pi * freq * arr))
        else:
            idx = self._grid_index(arr)
            table = _discrete_table(self.v)
            rows = [table[j][idx] for j in range(self.max_order + 1)]
        return np.stack([np.asarray(r, dtype=float) for r in rows])

    def inner_product(self, j1: int, j2: int) -> float:
        """<f_j1, f_j2> over [0,1] (quadrature) or the grid (weighted sum)."""
        self._check_order(j1)
        self._check_order(j2)
        if self.is_discrete:
            table = _discrete_table(self.v)
            return float(np.sum(table[j1] * table[j2]) / self.v)
        if self.kind == LEGENDRE:
            nodes, weights = gauss_nodes(_quad_count(j1 + j2))
        else:
            nodes, weights = gauss_nodes(96)
        return float(np.sum(weights * self.eval(j1, nodes) * self.eval(j2, nodes)))

    def integrate_moment(self, j: int, p: int) -> float:
        """Moment integral of x^p against the order-j function over [0,1].

        Closed forms for the polynomial family, quadrature for trig.
        Discrete coordinates have no Lebesgue moments; sum over the grid
        instead.
        """
        self._check_order(j)
        if p not in (0, 1, 2):
            raise ValueError("moment power must be 0, 1 or 2")
        return float(self.moment_table()[p, j])

    def moment_table(self) -> np.ndarray:
        """Read-only (3, max_order+1) array of integrate_moment(j, p) at [p, j]."""
        if self.is_discrete:
            raise ValueError("discrete family has no continuous moments")
        return _moment_table(self)


@lru_cache(maxsize=None)
def _moment_table(family: Family1D) -> np.ndarray:
    m = family.max_order
    if family.kind == LEGENDRE:
        # orthogonality kills every j > p; low-order cases are exact
        exact = {
            (0, 0): 1.0,
            (1, 0): 0.5,
            (1, 1): _SQ3 / 6.0,
            (2, 0): 1.0 / 3.0,
            (2, 1): _SQ3 / 6.0,
            (2, 2): _SQ5 / 30.0,
        }
        table = np.array([[exact.get((p, j), 0.0) for j in range(m + 1)] for p in range(3)])
    else:
        nodes, weights = gauss_nodes(96)
        values = family.eval_all(nodes)
        table = np.array([[np.sum(weights * nodes**p * values[j]) for j in range(m + 1)]
                          for p in range(3)])
    table.setflags(write=False)
    return table


def legendre(max_order: int) -> Family1D:
    return Family1D(LEGENDRE, max_order)


def trig(max_order: int) -> Family1D:
    return Family1D(TRIG, max_order)


def discrete(v: int, max_order: int | None = None) -> Family1D:
    if max_order is None:
        max_order = v - 1
    return Family1D(DISCRETE, max_order, v)
