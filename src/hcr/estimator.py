"""Coefficient estimation: batch averaging, online updates, pruning.

Every coefficient is the plain average of its basis function over the
records that know all of its support coordinates, so each one is
estimated independently and incomplete records still contribute to every
term they can support.
"""
from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from itertools import compress
from types import MappingProxyType

import numpy as np

from .dataset import Dataset
from .tensor_basis import BasisSpec, MultiIndex, _whole, support

__all__ = ["Model", "fit", "adapt", "prune", "lambda_schedule"]

NO_EVIDENCE = "no-evidence"
UNCERTAINTY_UNDEFINED = "uncertainty-undefined"


def _aligned(spec: BasisSpec, values, constant, default=None, key=None):
    """One entry per spec.selected from an aligned sequence or a mapping
    keyed by multi-index, or by key(multi-index) when key is given, where
    an absent constant reads constant and any other absent key default
    (with default None, an error); a mapping key that no selected index
    has is an error."""
    if not isinstance(values, Mapping):
        if len(values) != len(spec):
            raise ValueError(f"expected {len(spec)} aligned values, got {len(values)}")
        return values
    keys = spec.selected if key is None else tuple(map(key, spec.selected))
    known = spec if key is None else set(keys)
    foreign = [k for k in values if k not in known]
    if foreign:
        raise ValueError(f"{'index' if key is None else 'support'} {foreign[0]} "
                         "is not in the selected set")
    missing = [k for k in keys[1:] if k not in values]
    if missing and default is None:
        raise ValueError(f"coefficient missing for selected index {missing[0]}")
    return [values.get(k, default if p else constant) for p, k in enumerate(keys)]


class Model:
    """Fitted basis expansion: spec plus per-function statistics.

    The state is coef (a_f, the constant's pinned to 1 so the density
    integrates to 1), unc (standard errors, NaN with fewer than 2
    supporting records), count (each function's evidence |K_C|, the
    records that know its support C) and term_flags, read-only and
    aligned with spec.selected.  coefficients, uncertainty and flags are
    read-only views of them keyed by multi-index, evidence one of count
    keyed by support, and the constructor takes either form.  A mapping
    may omit the constant, and any index but a coefficient's; an absent
    support has evidence 0, and one support's counts must agree.  A model
    copies the statistics it is given and is never mutated.
    """

    def __init__(self, spec: BasisSpec, coefficients, evidence, uncertainty, flags=None,
                 transforms: list | None = None, names: tuple[str, ...] | None = None):
        self.spec = spec
        self.coef = np.array(_aligned(spec, coefficients, 1.0), dtype=float)
        self.coef[0] = 1.0
        if not np.isfinite(self.coef).all():
            bad = int(np.argmin(np.isfinite(self.coef)))
            raise ValueError(f"coefficient of {spec.selected[bad]} is not finite")
        self.unc = np.array(_aligned(spec, uncertainty, 0.0, float("nan")), dtype=float)
        self.count = np.array(_aligned(spec, evidence, 0, 0, support), dtype=np.int64)
        first = self.count[spec.first]
        if (self.count != first).any():
            p = int(np.argmax(self.count != first))
            raise ValueError(f"support {support(spec.selected[p])} has evidence {first[p]} "
                             f"and {self.count[p]}")
        for vec in (self.coef, self.unc, self.count):
            vec.setflags(write=False)
        self.term_flags = tuple(_aligned(spec, {} if flags is None else flags, "", ""))
        self.transforms = transforms
        self.names = names

    @property
    def d(self) -> int:
        return self.spec.d

    @cached_property
    def layout(self):  # spec._layout(coef), built once for contract
        return self.spec._layout(self.coef)

    @cached_property
    def coefficients(self) -> Mapping[MultiIndex, float]:
        return MappingProxyType(dict(zip(self.spec.selected, self.coef.tolist())))

    @cached_property
    def uncertainty(self) -> Mapping[MultiIndex, float]:
        return MappingProxyType(dict(zip(self.spec.selected, self.unc.tolist())))

    @cached_property
    def flags(self) -> Mapping[MultiIndex, str]:
        return MappingProxyType(dict(zip(self.spec.selected, self.term_flags)))

    @cached_property
    def evidence(self) -> Mapping[tuple[int, ...], int]:
        return MappingProxyType(dict(zip(map(support, self.spec.selected), self.count.tolist())))

    def coordinate_names(self) -> tuple[str, ...]:
        if self.names is not None:
            return self.names
        return tuple(f"x{i + 1}" for i in range(self.d))

    def with_coefficients(self, coefficients, evidence=None) -> "Model":
        """The same model with new coefficients and, if given, evidence."""
        return Model(self.spec, coefficients,
                     self.count if evidence is None else evidence,
                     self.unc, self.term_flags, self.transforms, self.names)

    def restricted(self, rows: np.ndarray) -> "Model":
        """Sub-model of the functions a boolean mask over spec.selected
        keeps (the constant among them)."""
        spec = BasisSpec(self.d, self.spec.families, tuple(compress(self.spec.selected, rows)))
        return Model(spec, self.coef[rows], self.count[rows], self.unc[rows],
                     list(compress(self.term_flags, rows)), self.transforms, self.names)


def fit(spec: BasisSpec, data: Dataset, names: tuple[str, ...] | None = None,
        transforms: list | None = None) -> Model:
    """Average every selected basis function over its evidence records.

    For support C the evidence set is every record knowing all of C;
    the coefficient is the sample mean of f there and the uncertainty
    its standard error (ddof=1).  Zero evidence yields coefficient 0
    with a flag rather than an error, keeping large sparse fits total.

    Records are read in the row blocks of BasisSpec.single_blocks.  A
    block's zero-filled single rows give every function's sum of f (0 at
    a record missing its support) in one BasisSpec._sums pass and, squared
    in place, its sum of f^2 in a second, so no function values are
    formed; counts come from BasisSpec.covered.  A block's squared
    deviations from its own means are max(sum f^2 - mean * sum f, 0),
    which loses digits where a function's spread is small beside its
    mean, and the blocks merge with Chan et al.'s pairwise update.
    """
    if data.d != spec.d:
        raise ValueError(f"data has {data.d} coordinates, spec expects {spec.d}")
    count, coef, m2 = np.zeros((3, len(spec)))
    for rows, S in spec.single_blocks(data.values):
        # int32: no buffered bool-to-int64 cast
        c = spec.covered(~np.isnan(data.values[rows])).sum(axis=1, dtype=np.int32)
        total = spec._sums(S)
        S *= S  # the squared factors: their products are the squared functions
        mean = np.divide(total, c, out=np.zeros_like(coef), where=c > 0)
        squares = np.maximum(spec._sums(S) - mean * total, 0.0)
        share = np.divide(c, count + c, out=np.zeros_like(coef), where=c > 0)
        delta = mean - coef
        coef += delta * share
        m2 += squares + delta * delta * count * share
        count += c
    unc = np.sqrt(np.divide(m2, count * (count - 1), out=np.full_like(m2, np.nan), where=count > 1))
    flags = np.where(count == 0, NO_EVIDENCE, np.where(count == 1, UNCERTAINTY_UNDEFINED, ""))
    unc[0], flags[0] = 0.0, ""
    return Model(spec, coef, count, unc, flags.tolist(), transforms=transforms, names=names)


def adapt(model: Model, x, rate: float) -> Model:
    """One exponential-moving-average step toward the new record.

    Only functions whose support is fully known in x move:
    a_f <- (1-rate) a_f + rate f(x), f(x) from one one-row
    BasisSpec._sums pass over x's zero-filled single rows.  Their evidence
    counts increment; nothing ever decays.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie in (0,1)")
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise ValueError(f"expected a length-{model.d} record")
    spec, x = model.spec, x[None]
    cover = spec.covered(~np.isnan(x))[:, 0]
    coef = np.where(cover, (1.0 - rate) * model.coef + rate * spec._sums(spec._singles(x)),
                    model.coef)
    return model.with_coefficients(coef, model.count + cover)


def lambda_schedule(horizon: int, start: float = 0.05, end: float = 0.001) -> np.ndarray:
    """Geometrically decaying learning rates from start to end, each in
    (0, 1), adapt's rate range."""
    if not _whole(horizon) or horizon < 1:
        raise ValueError(f"horizon must be an integer >= 1, got {horizon!r}")
    for name, rate in (("start", start), ("end", end)):
        if not 0.0 < rate < 1.0:  # NaN fails
            raise ValueError(f"{name} rate must lie in (0,1), got {rate!r}")
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
