"""Likelihood evaluation, approximated gradient, ascent, and repair.

The objective F(a) averages log-density over complete records only; the
gradient follows the per-subset evidence averaging of the estimator, so
incomplete records still steer every coefficient they can support.  For
a record missing some coordinates the denominator is the density of the
model marginalized to that record's known set; this reading is a
documented interpretation, not a unique one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice, product
from typing import NamedTuple

import numpy as np

from .dataset import Dataset
from .density import evaluate, evaluate_points
from .errors import NonpositiveMassError, PositivityError
from .estimator import Model
from .tensor_basis import MultiIndex, _blocks, _whole

__all__ = [
    "RefineConfig",
    "TraceStep",
    "log_likelihood",
    "gradient",
    "refine",
    "repair_negative",
    "find_negative_witness",
    "RESCALE_ALL",
    "REDUCE_LARGEST",
]

RESCALE_ALL = "rescale-all"
REDUCE_LARGEST = "reduce-largest"

MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class RefineConfig:
    steps: int
    step_size: float
    ridge: float = 0.0
    positivity_margin: float = 1e-6
    backtrack_factor: float = 0.5

    def __post_init__(self):
        # written so that NaN fails every check
        if not _whole(self.steps) or self.steps < 0:
            raise ValueError(f"steps must be an integer >= 0, got {self.steps!r}")
        if not self.step_size > 0:
            raise ValueError("step_size must be positive")
        if not self.ridge >= 0:
            raise ValueError("ridge must be >= 0")
        if not self.positivity_margin >= 0:
            raise ValueError("positivity_margin must be >= 0")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack_factor must lie in (0,1)")


@dataclass(frozen=True)
class TraceStep:
    step: int
    loglik: float
    objective: float
    step_scale: float


_POSITIVE = np.finfo(float).smallest_subnormal  # a density is >= this iff it is > 0


class _Reading(NamedTuple):
    """What one workspace pass keeps of its densities rho, summed block
    by block; a pass that stops early keeps the blocks it read.

    loglik: the mean of log rho over the complete records (NaN without
    one), a sum of block sums, read while bad is empty.  lowest and
    worst: the lowest usable density and its record (inf and -1 without
    a usable record); a NaN density is the lowest, as it fails every
    floor.  bad and bad_count: the first 10 complete records with
    rho <= 0 and how many there are.  complete_low, read while bad is not
    empty: the lowest complete density (NaN if one is NaN), taken only in
    blocks whose lowest usable density is not > 0, as no other block
    holds it.  grad: the gradient at rho when asked for and every usable
    density is >= the floor, else None; a function's entry is the mean of
    f/rho over the records covering it, 0 for the constant and for
    functions without evidence.
    """

    loglik: float
    lowest: float
    worst: int
    bad: list
    bad_count: int
    complete_low: float
    grad: np.ndarray | None


class _Workspace:
    """A record set read in FIT_BLOCK row blocks.  It keeps the usable and
    complete masks (two bytes per record) from a first pass and, once the
    gradient asks for them, each function's evidence counts.  Every pass
    at a coefficient vector (read) reads the records through
    BasisSpec.single_blocks and BasisSpec.contract, which refill one
    buffer of single rows and one of product rows per block, and reduces
    each block's densities to a _Reading as it goes, so it keeps no
    density, single row or record copy beyond one block."""

    def __init__(self, model: Model, data: Dataset):
        if data.d != model.d:
            raise ValueError(f"data has {data.d} coordinates, model expects {model.d}")
        self.spec, self.records, n = model.spec, data.values, data.n
        self.usable, self.complete = np.empty((2, n), dtype=bool)
        for rows in _blocks(self.spec, n):
            present = ~np.isnan(self.records[rows])
            self.usable[rows] = present.any(axis=1)  # a fully-missing record supports nothing
            self.complete[rows] = present.all(axis=1)

    @cached_property
    def counts(self) -> np.ndarray:
        """Each function's evidence count: the records covering it."""
        counts = np.zeros(len(self.spec), dtype=np.int64)
        for rows in _blocks(self.spec, len(self.records)):
            # an int32 sum skips the buffered bool-to-int64 cast
            counts += self.spec.covered(~np.isnan(self.records[rows])).sum(axis=1, dtype=np.int32)
        return counts

    def read(self, coef: np.ndarray, floor: float = -np.inf, stop: bool = False,
             grad: bool = False) -> _Reading:
        """One pass at coef: per record the marginal density rho over the
        record's known set (1 for a fully-missing record), reduced block by
        block.  With grad, each block's BasisSpec._sums at weights 1/rho
        are added while every usable density so far is >= floor.  With
        stop, the first block holding a usable density below floor (or
        NaN) ends the pass."""
        spec = self.spec
        sums = np.zeros(len(spec)) if grad else None
        lowest, worst, held = np.inf, -1, True
        total, bad, bad_count, complete_low = 0.0, [], 0, np.inf
        for rows, r, S, P in spec.contract(coef, spec.single_blocks(self.records)):
            low, k = _lowest(r, self.usable[rows])
            if not math.isnan(lowest) and not low >= lowest:
                lowest, worst = low, rows.start + k
            complete = self.complete[rows]
            if not low > 0:  # complete records <= 0 or NaN are among the usable ones
                complete_low = np.minimum(complete_low,
                                          np.min(r, where=complete, initial=np.inf))
                nonpositive = np.flatnonzero(complete & (r <= 0))
                bad += (rows.start + nonpositive[:10 - len(bad)]).tolist()
                bad_count += nonpositive.size
            if not bad_count:  # the log-likelihood is read only without them
                logs = r[complete]
                total += np.log(logs, out=logs).sum()
                del logs
            if held and not low >= floor:
                held = False
                if stop:
                    break
            if held and grad:
                sums += spec._sums(S, P, 1.0 / r)
        if held and grad:
            sums = np.divide(sums, self.counts, out=np.zeros_like(sums), where=self.counts > 0)
            sums[0] = 0.0  # the constant coefficient is fixed
        else:
            sums = None
        n = int(self.complete.sum())
        return _Reading(float(total / n) if n else float("nan"), lowest, worst, bad, bad_count,
                        float(complete_low), sums)


def _lowest(values: np.ndarray, mask: np.ndarray) -> tuple[float, int]:
    """The lowest of values where mask holds and its index, (inf, 0) where
    it holds nowhere; a NaN is the lowest, the first one if several."""
    masked = np.where(mask, values, np.inf)
    k = int(np.argmin(masked))
    return float(masked[k]), k


def log_likelihood(model: Model, data: Dataset) -> float:
    """Average log-density over the complete records, from one workspace
    pass summed block by block.

    Records with any missing cell are skipped: the full-point density is
    undefined for them, and they enter through the gradient instead.
    """
    ws = _Workspace(model, data)
    if not ws.complete.any():
        raise ValueError("log-likelihood needs at least one complete record")
    reading = ws.read(model.coef)
    if reading.bad_count:
        raise NonpositiveMassError(
            f"nonpositive density at records {reading.bad}"
            f"{'...' if reading.bad_count > 10 else ''}; repair the model first",
            reading.complete_low,
        )
    return reading.loglik


def gradient(model: Model, data: Dataset) -> dict[MultiIndex, float]:
    """Approximated likelihood gradient using all per-subset evidence.

    For coefficient a_f with support C the entry averages f(x)/rho(x)
    over the records knowing C, where rho is each record's marginal
    density over its own known set.  The constant's entry is 0.  One
    workspace pass reads every block, so a nonpositive density is named
    by the worst record.
    """
    reading = _Workspace(model, data).read(model.coef, _POSITIVE, grad=True)
    _check_positive(reading)
    return dict(zip(model.spec.selected, reading.grad.tolist()))


def _check_positive(reading: _Reading):
    # a fully-missing record's density is 1, so only a usable record's can
    # fail; a NaN one fails too, as it fails the pass's floor
    if not reading.lowest > 0:
        raise NonpositiveMassError(
            f"record {reading.worst} has marginal density {reading.lowest:.6g}", reading.lowest)


def refine(model: Model, data: Dataset, config: RefineConfig) -> tuple[Model, list[TraceStep]]:
    """Fixed-step gradient ascent on F(a) - ridge * sum a_f^2.

    Each step shrinks geometrically until every usable record keeps
    density >= positivity_margin (and > 0, when the margin is 0); on
    fully complete data the shrink also enforces a non-decreasing
    penalized objective (with incomplete data the gradient is
    approximate, so the trace is indicative only).  Aborts after 60
    shrinks.  Each candidate costs one workspace pass over the records in
    row blocks, which yields its log-likelihood (a sum of block sums)
    and, when its densities keep the margin, the gradient at them: an
    accepted candidate's pass already holds the next step's gradient.
    The last step's candidates only check the margin, without the
    gradient sums.  A candidate's pass stops at the first block below the
    margin; the pass at the starting coefficients reads every block, so
    a nonpositive density is named by the worst record.
    """
    ws = _Workspace(model, data)
    coef = model.coef  # coef[0], the constant's, stays 1: its gradient entry is 0
    all_complete = ws.complete.size > 0 and bool(ws.complete.all())
    floor = config.positivity_margin or _POSITIVE
    start = ws.read(coef, _POSITIVE, grad=True)
    _check_positive(start)

    def objective(c, f):
        return f - config.ridge * float(np.sum(c[1:] ** 2))

    trace: list[TraceStep] = []
    g, current_obj = start.grad, objective(coef, start.loglik)
    for step in range(config.steps):
        g[1:] -= 2.0 * config.ridge * coef[1:]
        scale = config.step_size
        for attempt in range(MAX_BACKTRACKS + 1):
            candidate = coef + scale * g
            # no later step reads the last step's gradient
            reading = ws.read(candidate, floor, stop=True, grad=step < config.steps - 1)
            if reading.lowest >= floor:
                obj_new = objective(candidate, reading.loglik)
                monotone = (not all_complete or np.isnan(obj_new)
                            or obj_new >= current_obj - 1e-12 * (1 + abs(current_obj)))
                if monotone:
                    break
            scale *= config.backtrack_factor
        else:
            raise PositivityError(
                f"step {step}: no acceptable step after {MAX_BACKTRACKS} reductions"
            )
        coef, g = candidate, reading.grad
        current_obj = obj_new
        trace.append(TraceStep(step, reading.loglik, obj_new, scale))
    return model.with_coefficients(coef), trace


# ---------------------------------------------------------------------------
# negative-density handling


def repair_negative(model: Model, witness, strategy: str = RESCALE_ALL,
                    margin: float = 1e-6) -> Model:
    """Lift the density at a negative witness back up to the margin.

    rescale-all multiplies every non-constant coefficient by one factor
    t in (0,1), which cannot flip signs; reduce-largest moves only the
    coefficient with the largest negative contribution at the witness,
    just enough to reach the margin.  The functions at the witness come
    from one one-row BasisSpec._sums pass.
    """
    if strategy not in (RESCALE_ALL, REDUCE_LARGEST):
        raise ValueError(f"unknown strategy {strategy!r}")
    witness = np.asarray(witness, dtype=float)
    rho = evaluate(model, witness)
    if rho >= margin:
        raise ValueError(f"witness density {rho:.6g} already >= margin {margin:.6g}")
    terms = model.spec._sums(model.spec._singles(witness[None]))  # one row: each f at it
    contributions = model.coef * terms  # entry 0 is the constant's 1
    coef = model.coef.copy()
    if strategy == RESCALE_ALL:
        t = (margin - 1.0) / np.sum(contributions[1:])  # rho - 1
        coef[1:] *= t
    else:
        target = 1 + int(np.argmin(contributions[1:]))  # the largest negative one
        if contributions[target] >= 0:
            raise ValueError("no coefficient lowers the density at the witness")
        coef[target] += (margin - rho) / terms[target]
    return model.with_coefficients(coef)


def _primes(n: int) -> list[int]:
    out: list[int] = []
    k = 2
    while len(out) < n:
        if all(k % p for p in out):
            out.append(k)
        k += 1
    return out


def _halton(d: int, start: int, n: int) -> np.ndarray:
    """Points start..start+n-1 of the unscrambled Halton sequence: the
    radical inverse of the point index in the first d prime bases."""
    out = np.zeros((n, d))
    for col, base in enumerate(_primes(d)):
        index = np.arange(start, start + n)
        scale = 1.0 / base
        while index.any():
            out[:, col] += (index % base) * scale
            scale /= base
            index //= base
    return out


def _candidate_points(d: int):
    for corner in product((0.0, 1.0), repeat=d):
        yield corner
    for i in range(d):
        for corner in product((0.0, 1.0), repeat=d - 1):
            yield corner[:i] + (0.5,) + corner[i:]
    for start in count(0, 128):
        yield from _halton(d, start, 128)


def find_negative_witness(model: Model, budget: int = 512):
    """Scan corners, edge midpoints, then a low-discrepancy interior
    sequence; return the most negative point found, or None.

    Discrete coordinates snap to their nearest admissible grid value
    before evaluation.
    """
    if not _whole(budget) or budget < 1:
        raise ValueError(f"budget must be an integer >= 1, got {budget!r}")
    candidates = _candidate_points(model.d)
    best_point = None
    best_value = 0.0
    for rows in _blocks(model.spec, budget):
        block = np.array(list(islice(candidates, rows.stop - rows.start)))
        for i, fam in enumerate(model.spec.families):
            block[:, i] = fam.snap(block[:, i])
        values = evaluate_points(model, block)
        k = int(np.argmin(values))
        if values[k] < best_value:
            best_value = values[k]
            best_point = block[k]
    return best_point
