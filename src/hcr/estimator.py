"""Coefficient estimation: batch averaging, online updates, pruning.

Every coefficient is the plain average of its basis function over the
records that know all of its support coordinates, so each one is
estimated independently and incomplete records still contribute to every
term they can support.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import Dataset
from .tensor_basis import BasisSpec, MultiIndex, support

__all__ = ["Model", "fit", "adapt", "prune", "lambda_schedule"]

NO_EVIDENCE = "no-evidence"
UNCERTAINTY_UNDEFINED = "uncertainty-undefined"


@dataclass
class Model:
    """Fitted basis expansion: spec plus per-function statistics.

    coefficients maps each selected multi-index to a_f; the all-zero
    index is pinned to 1 so the density integrates to 1.  evidence maps
    each tracked support subset to |K_C|; uncertainty holds the standard
    error of each average (NaN when fewer than 2 supporting records).
    coef holds the same coefficients as a read-only vector aligned with
    spec.selected; a model is never mutated after construction.
    """

    spec: BasisSpec
    coefficients: dict[MultiIndex, float]
    evidence: dict[tuple[int, ...], int]
    uncertainty: dict[MultiIndex, float]
    flags: dict[MultiIndex, str] = field(default_factory=dict)
    transforms: list | None = None
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        zero = (0,) * self.spec.d
        self.coefficients[zero] = 1.0
        for j in self.spec.selected:
            if j not in self.coefficients:
                raise ValueError(f"coefficient missing for selected index {j}")
        self.coef = np.array([self.coefficients[j] for j in self.spec.selected])
        self.coef.setflags(write=False)
        self.uncertainty.setdefault(zero, 0.0)
        self.flags = {j: self.flags.get(j, "") for j in self.spec.selected}

    @property
    def d(self) -> int:
        return self.spec.d

    def coordinate_names(self) -> tuple[str, ...]:
        if self.names is not None:
            return self.names
        return tuple(f"x{i + 1}" for i in range(self.d))

    def with_coefficients(self, coefficients: dict[MultiIndex, float]) -> "Model":
        new = dict(coefficients)
        new[(0,) * self.d] = 1.0
        return replace(self, coefficients=new, uncertainty=dict(self.uncertainty),
                       flags=dict(self.flags), evidence=dict(self.evidence))


def _coordinate_tables(spec: BasisSpec, values: np.ndarray) -> list[np.ndarray]:
    """Per-coordinate stacks f_j(x_i) with missing cells at a placeholder.

    Placeholder rows are masked out by the evidence masks before any
    statistic is taken, so the value it evaluates to never matters; 0 is
    used because it is valid for every family including discrete grids.
    """
    tables = []
    for i in range(spec.d):
        col = np.where(np.isnan(values[:, i]), 0.0, values[:, i])
        tables.append(spec.families[i].eval_all(col))
    return tables


def fit(spec: BasisSpec, data: Dataset, names: tuple[str, ...] | None = None,
        transforms: list | None = None) -> Model:
    """Average every selected basis function over its evidence records.

    For support C the evidence set is every record knowing all of C;
    the coefficient is the sample mean of f there and the uncertainty
    its standard error (ddof=1).  Zero evidence yields coefficient 0
    with a flag rather than an error, keeping large sparse fits total.
    """
    if data.d != spec.d:
        raise ValueError(f"data has {data.d} coordinates, spec expects {spec.d}")
    tables = _coordinate_tables(spec, data.values)
    present = data.present
    zero = (0,) * spec.d
    coefficients: dict[MultiIndex, float] = {zero: 1.0}
    uncertainty: dict[MultiIndex, float] = {zero: 0.0}
    flags: dict[MultiIndex, str] = {}
    evidence: dict[tuple[int, ...], int] = {(): data.n}
    for coords, group in spec.supports().items():
        mask = present[:, coords].all(axis=1)
        count = int(mask.sum())
        evidence[coords] = count
        for j in group:
            if count == 0:
                coefficients[j] = 0.0
                uncertainty[j] = float("nan")
                flags[j] = NO_EVIDENCE
                continue
            vals = np.ones(count)
            for i in coords:
                vals = vals * tables[i][j[i]][mask]
            coefficients[j] = float(vals.mean())
            if count == 1:
                uncertainty[j] = float("nan")
                flags[j] = UNCERTAINTY_UNDEFINED
            else:
                uncertainty[j] = float(vals.std(ddof=1) / np.sqrt(count))
    return Model(spec, coefficients, evidence, uncertainty, flags,
                 transforms=transforms, names=names)


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
    tables = {i: spec.families[i].eval_all(x[i]) for i in np.flatnonzero(known)}
    coef = model.coef.copy()
    coef[cover] = (1.0 - rate) * coef[cover] + rate * spec.products(tables, cover)
    evidence = dict(model.evidence)
    known_set = set(np.flatnonzero(known).tolist())
    for coords in spec.supports():
        if known_set.issuperset(coords):
            evidence[coords] = evidence.get(coords, 0) + 1
    evidence[()] = evidence.get((), 0) + 1
    return replace(model, coefficients=dict(zip(spec.selected, coef.tolist())),
                   evidence=evidence, uncertainty=dict(model.uncertainty),
                   flags=dict(model.flags))


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
    zero = (0,) * model.d
    removed = []
    keep = [zero]
    for j in model.spec.selected:
        if j == zero:
            continue
        u = model.uncertainty.get(j, float("nan"))
        if np.isfinite(u) and abs(model.coefficients[j]) < threshold_sigmas * u:
            removed.append((j, model.coefficients[j], u))
        else:
            keep.append(j)
    if not removed:
        return model, []
    new_spec = BasisSpec(model.spec.d, model.spec.families, tuple(keep),
                         model.spec.level_orders)
    kept_supports = {support(j) for j in keep if j != zero}
    evidence = {c: n for c, n in model.evidence.items() if c == () or c in kept_supports}
    new_model = Model(
        new_spec,
        {j: model.coefficients[j] for j in keep},
        evidence,
        {j: model.uncertainty[j] for j in keep},
        {j: model.flags.get(j, "") for j in keep},
        transforms=model.transforms,
        names=model.names,
    )
    return new_model, removed
