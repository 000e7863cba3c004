"""Likelihood evaluation, approximated gradient, ascent, and repair.

The objective F(a) averages log-density over complete records only; the
gradient follows the per-subset evidence averaging of the estimator, so
incomplete records still steer every coefficient they can support.  For
a record missing some coordinates the denominator is the density of the
model marginalized to that record's known set; this reading is a
documented interpretation, not a unique one.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice, product

import numpy as np

from .dataset import Dataset
from .density import evaluate, evaluate_points
from .errors import NonpositiveMassError, PositivityError
from .estimator import Model, _covered, _function_values
from .tensor_basis import MultiIndex

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
WITNESS_BLOCK = 256  # candidates evaluated per evaluate_points call


@dataclass(frozen=True)
class RefineConfig:
    steps: int
    step_size: float
    ridge: float = 0.0
    positivity_margin: float = 1e-6
    backtrack_factor: float = 0.5

    def __post_init__(self):
        # written so that NaN fails every check
        if not self.steps >= 0:
            raise ValueError("steps must be >= 0")
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


class _Workspace:
    """Per-record function values V (functions x records), 0 where a
    record misses a function's support, so a record reads only the
    functions its known set covers; counts holds each function's evidence.
    """

    def __init__(self, model: Model, data: Dataset):
        if data.d != model.d:
            raise ValueError(f"data has {data.d} coordinates, model expects {model.d}")
        present = data.present
        self.counts = _covered(model.spec, present).sum(axis=1)  # evidence per function
        self.V = _function_values(model.spec, data.values)
        self.usable = present.any(axis=1)  # a fully-missing record supports nothing
        self.complete_rows = np.flatnonzero(present.all(axis=1))

    def densities(self, coef: np.ndarray) -> np.ndarray:
        """Per-record marginal density over the record's known set (1 for
        a fully-missing record)."""
        return coef @ self.V

    def loglik(self, rho: np.ndarray) -> float:
        if self.complete_rows.size == 0:
            return float("nan")
        return float(np.mean(np.log(rho[self.complete_rows])))

    def gradient_vector(self, rho: np.ndarray) -> np.ndarray:
        """Per function, the mean of f/rho over the records covering it;
        0 for the constant and for functions without evidence."""
        sums = self.V @ (1.0 / rho)
        grad = np.divide(sums, self.counts, out=np.zeros_like(sums), where=self.counts > 0)
        grad[0] = 0.0  # the constant coefficient is fixed
        return grad


def log_likelihood(model: Model, data: Dataset) -> float:
    """Average log-density over the complete records.

    Records with any missing cell are skipped: the full-point density is
    undefined for them, and they enter through the gradient instead.
    """
    mask = data.complete_mask()
    if not mask.any():
        raise ValueError("log-likelihood needs at least one complete record")
    rho = evaluate_points(model, data.values[mask])
    rows = np.flatnonzero(mask)
    bad = rows[rho <= 0]
    if bad.size:
        raise NonpositiveMassError(
            f"nonpositive density at records {bad.tolist()[:10]}"
            f"{'...' if bad.size > 10 else ''}; repair the model first",
            float(rho.min()),
        )
    return float(np.mean(np.log(rho)))


def gradient(model: Model, data: Dataset) -> dict[MultiIndex, float]:
    """Approximated likelihood gradient using all per-subset evidence.

    For coefficient a_f with support C the entry averages f(x)/rho(x)
    over the records knowing C, where rho is each record's marginal
    density over its own known set.  The constant's entry is 0.
    """
    ws = _Workspace(model, data)
    rho = ws.densities(model.coef)
    _check_positive(rho)
    return dict(zip(model.spec.selected, ws.gradient_vector(rho).tolist()))


def _check_positive(rho: np.ndarray):
    # a fully-missing record's density is 1, so a nonpositive one is a usable record's
    if rho.size and rho.min() <= 0:
        k = int(np.argmin(rho))
        raise NonpositiveMassError(f"record {k} has marginal density {rho[k]:.6g}", float(rho[k]))


def refine(model: Model, data: Dataset, config: RefineConfig) -> tuple[Model, list[TraceStep]]:
    """Fixed-step gradient ascent on F(a) - ridge * sum a_f^2.

    Each step shrinks geometrically until every usable record keeps
    density >= positivity_margin; on fully complete data the shrink also
    enforces a non-decreasing penalized objective (with incomplete data
    the gradient is approximate, so the trace is indicative only).
    Aborts after 60 shrinks.
    """
    ws = _Workspace(model, data)
    coef = model.coef
    nonconst = model.spec.orders.any(axis=1)
    all_complete = 0 < ws.complete_rows.size == ws.usable.size
    rho = ws.densities(coef)
    _check_positive(rho)

    def objective(c, r):
        f = ws.loglik(r)
        return f, f - config.ridge * float(np.sum(c[nonconst] ** 2))

    trace: list[TraceStep] = []
    _, current_obj = objective(coef, rho)
    for step in range(config.steps):
        g = ws.gradient_vector(rho)
        g[nonconst] -= 2.0 * config.ridge * coef[nonconst]
        g[~nonconst] = 0.0
        scale = config.step_size
        for attempt in range(MAX_BACKTRACKS + 1):
            candidate = coef + scale * g
            candidate[~nonconst] = coef[~nonconst]
            cand_rho = ws.densities(candidate)
            used = cand_rho[ws.usable]
            positive = (not used.size) or np.min(used) >= config.positivity_margin
            if positive:
                f_new, obj_new = objective(candidate, cand_rho)
                monotone = (not all_complete or np.isnan(obj_new)
                            or obj_new >= current_obj - 1e-12 * (1 + abs(current_obj)))
                if monotone:
                    break
            scale *= config.backtrack_factor
        else:
            raise PositivityError(
                f"step {step}: no acceptable step after {MAX_BACKTRACKS} reductions"
            )
        coef, rho = candidate, cand_rho
        current_obj = obj_new
        trace.append(TraceStep(step, f_new, obj_new, scale))
    return model.with_coefficients(coef), trace


# ---------------------------------------------------------------------------
# negative-density handling


def repair_negative(model: Model, witness, strategy: str = RESCALE_ALL,
                    margin: float = 1e-6) -> Model:
    """Lift the density at a negative witness back up to the margin.

    rescale-all multiplies every non-constant coefficient by one factor
    t in (0,1), which cannot flip signs; reduce-largest moves only the
    coefficient with the largest negative contribution at the witness,
    just enough to reach the margin.
    """
    if strategy not in (RESCALE_ALL, REDUCE_LARGEST):
        raise ValueError(f"unknown strategy {strategy!r}")
    witness = np.asarray(witness, dtype=float)
    rho = evaluate(model, witness)
    if rho >= margin:
        raise ValueError(f"witness density {rho:.6g} already >= margin {margin:.6g}")
    spec = model.spec
    terms = spec.products({i: fam.eval_all(witness[i]) for i, fam in enumerate(spec.families)})
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
    if budget < 1:
        raise ValueError("budget must be >= 1")
    candidates = _candidate_points(model.d)
    best_point = None
    best_value = 0.0
    for done in range(0, budget, WITNESS_BLOCK):
        block = np.array(list(islice(candidates, min(WITNESS_BLOCK, budget - done))))
        for i, fam in enumerate(model.spec.families):
            block[:, i] = fam.snap(block[:, i])
        values = evaluate_points(model, block)
        k = int(np.argmin(values))
        if values[k] < best_value:
            best_value = values[k]
            best_point = block[k]
    return best_point
