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
_SQ2 = np.sqrt(2.0)


@lru_cache(maxsize=None)
def gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1,1] to [0,1]."""
    t, w = np.polynomial.legendre.leggauss(n)
    return (t + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def _discrete_table(v: int) -> np.ndarray:
    """Orthonormal vectors on the grid {k/(v-1)}, weight 1/v per point.

    Row 0 is exactly 1; row j is x times row j-1, orthogonalized twice
    against the earlier rows (the Stieltjes recurrence): the degree-j
    polynomial with a positive leading coefficient.
    """
    x = np.arange(v) / (v - 1)
    w = 1.0 / v
    rows = [np.ones(v)]
    for _ in range(1, v):
        f = x * rows[-1]
        for g in rows * 2:
            f = f - np.sum(w * f * g) * g
        rows.append(f / np.sqrt(np.sum(w * f * f)))
    return np.array(rows)


@lru_cache(maxsize=None)
def _legendre_scale(m: int, ndim: int = 0) -> np.ndarray:
    """Read-only sqrt(2n+1) for n = 1..m, the unit-norm factors on [0,1],
    shaped (m, 1, ...) with ndim trailing axes."""
    scale = np.sqrt(2.0 * np.arange(1, m + 1) + 1.0).reshape((m,) + (1,) * ndim)
    scale.setflags(write=False)
    return scale


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

    def _grid_index(self, x: np.ndarray) -> np.ndarray:
        k = np.minimum(np.maximum(np.rint(x * (self.v - 1)).astype(int), 0), self.v - 1)
        if (np.abs(x - k / (self.v - 1)) > 1e-9).any():
            raise ValueError(f"value not on the {self.v}-point discrete grid")
        return k

    def eval(self, j: int, x):
        """Value of the order-j function at x (scalar or array) in [0,1]."""
        if not 0 <= j <= self.max_order:
            raise ValueError(f"order {j} outside 0..{self.max_order}")
        out = self.eval_all(x)[j]
        return out if out.ndim else float(out)

    def eval_all(self, x) -> np.ndarray:
        """Stack of all orders 0..max_order evaluated at x, shape (m+1, ...).

        Checks that x lies in [0,1] (on the grid, for a discrete family),
        then evaluates as _stack does; NaN passes through.  Internal
        callers whose points lie in [0,1] by construction call _stack.
        """
        arr = np.asarray(x, dtype=float)
        index = self._check(arr)
        if index is not None:
            return _discrete_table(self.v)[:self.max_order + 1, index]
        return self._stack(arr)

    def _check(self, arr: np.ndarray):
        """Raise ValueError unless arr lies in [0,1] (on the grid, for a
        discrete family); NaN passes.  Returns a discrete family's grid
        indices of arr, else None."""
        if ((arr < 0.0) | (arr > 1.0)).any():
            raise ValueError("evaluation outside [0,1] is not defined")
        return self._grid_index(arr) if self.kind == DISCRETE else None

    def _stack(self, arr: np.ndarray) -> np.ndarray:
        """eval_all of a float array in [0,1], unchecked: the constant row,
        then _write_orders of orders 1..max_order."""
        out = np.empty((self.max_order + 1,) + arr.shape)
        out[0] = 1.0
        self._write_orders(arr, out[1:])
        return out

    def _write_orders(self, arr: np.ndarray, out: np.ndarray) -> None:
        """Orders 1..top of a float array in [0,1], unchecked, written into
        out, shape (top,) + arr.shape with top <= max_order, each row
        computed in place; NaN passes through a Legendre or trig row.
        Legendre rows follow the three-term recurrence on t = 2x-1,
        P_n = ((2n-1) t P_{n-1} - (n-1) P_{n-2}) / n with P_0 = 1, scaled
        by sqrt(2n+1) for unit norm on [0,1]."""
        top = len(out)
        if self.kind == DISCRETE:
            index = np.rint(arr * (self.v - 1)).astype(np.intp)
            # every index is valid, so "clip" only skips numpy's buffering
            _discrete_table(self.v)[1:top + 1].take(index, axis=1, out=out, mode="clip")
        elif self.kind == LEGENDRE:
            if top:
                t = np.multiply(arr, 2, out=out[0, ...])  # out[n - 1] holds P_n
                t -= 1
            for n in range(2, top + 1):  # unscaled P_n
                p = np.multiply(t, 2 * n - 1, out=out[n - 1, ...])
                p *= out[n - 2]
                p -= (n - 1) * out[n - 3] if n > 2 else 1.0
                p /= n
            out *= _legendre_scale(top, arr.ndim)
        else:
            for j in range(1, top + 1):
                p = np.multiply(arr, 2 * np.pi * ((j + 1) // 2), out=out[j - 1, ...])
                (np.sin if j % 2 == 1 else np.cos)(p, out=p)
                p *= _SQ2

    def snap(self, x):
        """x clipped into [0,1] (NaN to 0), then for a discrete family rounded
        to the nearest grid value (np.rint: exact halves go to the even index)."""
        x = np.fmin(np.fmax(x, 0.0), 1.0)
        if self.is_discrete:
            x = np.rint(x * (self.v - 1)) / (self.v - 1)
        return x


@lru_cache(maxsize=None)
def _moment_table(family: Family1D) -> np.ndarray:
    """Read-only moments of x^p against f_j at [p, j] under the family's
    measure: Lebesgue on [0,1], or weight 1/v per grid point."""
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
    elif family.kind == TRIG:
        # with k = ceil(j/2): sqrt(2) sin(2 pi k x) has x and x^2 moments
        # -sqrt(2)/(2 pi k); sqrt(2) cos(2 pi k x) has 0 and sqrt(2)/(2 pi^2 k^2)
        j = np.arange(1, m + 1)
        k, sine = (j + 1) // 2, j % 2 == 1
        x1 = np.where(sine, -_SQ2 / (2 * np.pi * k), 0.0)
        table = np.array([np.r_[1.0, np.zeros(m)], np.r_[0.5, x1],
                          np.r_[1.0 / 3.0, np.where(sine, x1, _SQ2 / (2 * np.pi**2 * k**2))]])
    else:  # weight 1/v per grid point
        nodes, weights = family.grid, np.full(family.v, 1.0 / family.v)
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
