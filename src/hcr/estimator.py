"""Coefficient estimation: batch averaging, online updates, pruning.

Every coefficient is the plain average of its basis function over the
records that know all of its support coordinates, so each one is
estimated independently and incomplete records still contribute to every
term they can support.
"""
from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .dataset import Dataset
from .tensor_basis import BasisSpec, MultiIndex, support

__all__ = ["Model", "fit", "adapt", "prune", "lambda_schedule"]

NO_EVIDENCE = "no-evidence"
UNCERTAINTY_UNDEFINED = "uncertainty-undefined"
FIT_BLOCK = 1 << 18  # function values (functions x records) that fit holds at once


def _aligned(spec: BasisSpec, values, constant, default=None):
    """One entry per spec.selected from an aligned sequence or a
    multi-index mapping, where an absent constant reads constant and any
    other absent index default (with default None, an error); a mapping
    key outside spec.selected is an error."""
    if not isinstance(values, Mapping):
        if len(values) != len(spec):
            raise ValueError(f"expected {len(spec)} aligned values, got {len(values)}")
        return values
    foreign = [j for j in values if j not in spec]
    if foreign:
        raise ValueError(f"index {foreign[0]} is not in the selected set")
    missing = [j for j in spec.selected[1:] if j not in values]
    if missing and default is None:
        raise ValueError(f"coefficient missing for selected index {missing[0]}")
    return [values.get(j, default if p else constant) for p, j in enumerate(spec.selected)]


class Model:
    """Fitted basis expansion: spec plus per-function statistics.

    The state is coef (a_f, the constant's pinned to 1 so the density
    integrates to 1), unc (standard errors, NaN with fewer than 2
    supporting records) and term_flags, read-only and aligned with
    spec.selected.  coefficients, uncertainty and flags are read-only
    multi-index views of them, and the constructor takes either form; a
    mapping may omit the constant, and any index but a coefficient's.
    evidence maps each tracked support subset to |K_C|.  A model copies
    the statistics it is given and is never mutated.
    """

    def __init__(self, spec: BasisSpec, coefficients, evidence: Mapping[tuple[int, ...], int],
                 uncertainty, flags=None, transforms: list | None = None,
                 names: tuple[str, ...] | None = None):
        self.spec = spec
        self.coef = np.array(_aligned(spec, coefficients, 1.0), dtype=float)
        self.coef[0] = 1.0
        if not np.isfinite(self.coef).all():
            bad = int(np.argmin(np.isfinite(self.coef)))
            raise ValueError(f"coefficient of {spec.selected[bad]} is not finite")
        self.unc = np.array(_aligned(spec, uncertainty, 0.0, float("nan")), dtype=float)
        for vec in (self.coef, self.unc):
            vec.setflags(write=False)
        self.term_flags = tuple(_aligned(spec, {} if flags is None else flags, "", ""))
        self.evidence = dict(evidence)
        self.transforms = transforms
        self.names = names

    @property
    def d(self) -> int:
        return self.spec.d

    @cached_property
    def coefficients(self) -> Mapping[MultiIndex, float]:
        return MappingProxyType(dict(zip(self.spec.selected, self.coef.tolist())))

    @cached_property
    def uncertainty(self) -> Mapping[MultiIndex, float]:
        return MappingProxyType(dict(zip(self.spec.selected, self.unc.tolist())))

    @cached_property
    def flags(self) -> Mapping[MultiIndex, str]:
        return MappingProxyType(dict(zip(self.spec.selected, self.term_flags)))

    def coordinate_names(self) -> tuple[str, ...]:
        if self.names is not None:
            return self.names
        return tuple(f"x{i + 1}" for i in range(self.d))

    def with_coefficients(self, coefficients, evidence=None) -> "Model":
        """The same model with new coefficients and, if given, evidence."""
        return Model(self.spec, coefficients,
                     self.evidence if evidence is None else evidence,
                     self.unc, self.term_flags, self.transforms, self.names)

    def restricted(self, rows: np.ndarray) -> "Model":
        """Sub-model of the functions a boolean mask over spec.selected
        keeps (the constant among them), with their supports' evidence."""
        selected = tuple(j for j, k in zip(self.spec.selected, rows) if k)
        spec = BasisSpec(self.d, self.spec.families, selected, self.spec.level_orders)
        supports = {support(j) for j in selected}
        evidence = {c: n for c, n in self.evidence.items() if c in supports}
        flags = [f for f, k in zip(self.term_flags, rows) if k]
        return Model(spec, self.coef[rows], evidence, self.unc[rows], flags,
                     self.transforms, self.names)


def _function_values(spec: BasisSpec, values: np.ndarray) -> np.ndarray:
    """V (functions x records): V[p, r] is selected function p at record r,
    exactly 0 where r misses a coordinate of p's support.

    Each coordinate's table has its order >= 1 rows zeroed at the missing
    cells (0 stands in for the cell, valid for every family), and only
    nonzero-order factors are multiplied into V, in place.
    """
    orders = spec.orders
    V = np.ones((len(orders), values.shape[0]))
    for i, family in enumerate(spec.families):
        missing = np.isnan(values[:, i])
        table = family.eval_all(np.where(missing, 0.0, values[:, i]))
        table[1:, missing] = 0.0
        for p in np.flatnonzero(orders[:, i]):
            V[p] *= table[orders[p, i]]
    return V


def _covered(spec: BasisSpec, present: np.ndarray) -> np.ndarray:
    """Functions x records: does the record know all of the function's support?"""
    groups = spec.supports()  # spec.selected runs through these in this order
    known = [np.ones(len(present), bool), *(present[:, c].all(axis=1) for c in groups)]
    return np.repeat(known, [1, *map(len, groups.values())], axis=0)


def fit(spec: BasisSpec, data: Dataset, names: tuple[str, ...] | None = None,
        transforms: list | None = None) -> Model:
    """Average every selected basis function over its evidence records.

    For support C the evidence set is every record knowing all of C;
    the coefficient is the sample mean of f there and the uncertainty
    its standard error (ddof=1).  Zero evidence yields coefficient 0
    with a flag rather than an error, keeping large sparse fits total.

    Records are read in blocks of at most FIT_BLOCK function values.  Each
    block's sums, and its squared deviations from its own means, are merged
    into the running ones (Chan et al.), so the memory does not grow with
    the record count and no digits cancel in the uncertainty.
    """
    if data.d != spec.d:
        raise ValueError(f"data has {data.d} coordinates, spec expects {spec.d}")
    count, coef, m2 = np.zeros((3, len(spec)))
    step = max(1, FIT_BLOCK // len(spec))
    for lo in range(0, data.n, step):
        block = data.values[lo:lo + step]
        V = _function_values(spec, block)
        cover = _covered(spec, ~np.isnan(block))
        c = cover.sum(axis=1)
        mean = np.divide(V.sum(axis=1), c, out=np.zeros_like(coef), where=c > 0)
        V -= mean[:, None]
        V *= cover  # deviations where covered, 0 elsewhere
        share = np.divide(c, count + c, out=np.zeros_like(coef), where=c > 0)
        delta = mean - coef
        coef += delta * share
        m2 += np.einsum("pr,pr->p", V, V) + delta * delta * count * share
        count += c
    unc = np.sqrt(np.divide(m2, count * (count - 1), out=np.full_like(m2, np.nan), where=count > 1))
    flags = np.where(count == 0, NO_EVIDENCE, np.where(count == 1, UNCERTAINTY_UNDEFINED, ""))
    unc[0], flags[0] = 0.0, ""
    groups = spec.supports().items()
    evidence = {(): data.n} | {s: int(count[spec.position(g[0])]) for s, g in groups}
    return Model(spec, coef, evidence, unc, flags.tolist(), transforms=transforms, names=names)


def adapt(model: Model, x, rate: float) -> Model:
    """One exponential-moving-average step toward the new record.

    Only functions whose support is fully known in x move:
    a_f <- (1-rate) a_f + rate f(x).  Evidence counters for the covered
    subsets increment; nothing ever decays.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie in (0,1)")
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise ValueError(f"expected a length-{model.d} record")
    spec = model.spec
    known = ~np.isnan(x)
    cover = ~spec.orders[:, ~known].any(axis=1)
    seen = np.flatnonzero(known).tolist()
    tables = {}  # one eval_all per family over the coordinates it serves
    for family in dict.fromkeys(spec.families[i] for i in seen):
        same = [i for i in seen if spec.families[i] == family]
        tables.update(zip(same, family.eval_all(x[same]).T))
    tables = dict(sorted(tables.items()))  # ascending, the order products multiplies in
    coef = model.coef.copy()
    coef[cover] = (1.0 - rate) * coef[cover] + rate * spec.products(tables, cover)
    evidence = dict(model.evidence)
    known_set = set(seen)
    for coords in [(), *spec.supports()]:
        if known_set.issuperset(coords):
            evidence[coords] = evidence.get(coords, 0) + 1
    return model.with_coefficients(coef, evidence)


def lambda_schedule(horizon: int, start: float = 0.05, end: float = 0.001) -> np.ndarray:
    """Geometrically decaying learning rates from start to end."""
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if horizon == 1:
        return np.array([start])
    return start * (end / start) ** (np.arange(horizon) / (horizon - 1))


def prune(model: Model, threshold_sigmas: float) -> tuple[Model, list[tuple]]:
    """Drop coefficients smaller than threshold_sigmas standard errors.

    Returns the reduced model and a report of (multi-index, coefficient,
    uncertainty) for everything removed.  The constant survives always;
    flagged entries with undefined uncertainty are kept for inspection.
    """
    drop = np.isfinite(model.unc) & (np.abs(model.coef) < threshold_sigmas * model.unc)
    drop[0] = False
    if not drop.any():
        return model, []
    removed = [(model.spec.selected[p], float(model.coef[p]), float(model.unc[p]))
               for p in np.flatnonzero(drop)]
    return model.restricted(~drop), removed
