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
from .estimator import Model, _blocks
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
    """The zero-filled factor rows of every record, spec.factors of each
    FIT_BLOCK row block (factor_count x rows), kept in place of the
    function values: function p is F[prefix[p]] * F[last[p]], 0 where a
    record misses its support, so a record reads only the functions its
    known set covers.  counts holds each function's evidence.

    The functions reduce in groups, one per level (levels 0 and 1, whose
    prefix is the constant row, together).  A group's prefix rows and
    last rows span two ranges of F, and its coefficients fill a small
    matrix over them, so on each block the constant-prefix group is one
    GEMV and every other group one GEMM, whose output has a row per last
    row: the single factors a level ends on, few beside its prefixes.
    BLAS orders these sums differently from coef @ V, so they differ
    from it in the last bits.
    """

    def __init__(self, model: Model, data: Dataset):
        if data.d != model.d:
            raise ValueError(f"data has {data.d} coordinates, model expects {model.d}")
        spec, present = model.spec, data.present
        # evidence per function; an int32 sum skips the buffered bool-to-int64 cast
        self.counts = spec.covered(present).sum(axis=1, dtype=np.int32)
        self.blocks = [(rows, spec.factors(data.values[rows], 0))
                       for rows in _blocks(spec, data.n)]
        self.usable = present.any(axis=1)  # a fully-missing record supports nothing
        self.complete_rows = np.flatnonzero(present.all(axis=1))
        level = np.maximum(spec.touch.sum(axis=1), 1)  # the constant joins level 1
        edges = [0, *(np.flatnonzero(np.diff(level)) + 1).tolist(), len(spec)]
        groups = []  # functions, prefix rows, last rows, each function's (row, column)
        for lo, hi in zip(edges[:-1], edges[1:]):
            a, b = spec.prefix[lo:hi], spec.last[lo:hi]
            groups.append((slice(lo, hi), slice(a.min(), a.max() + 1),
                           slice(b.min(), b.max() + 1), a - a.min(), b - b.min()))
        # the constant-prefix group reads its last rows only, from row 0 (the constant's)
        _, _, self.head, _, self.head_cols = groups[0]
        self.groups = groups[1:]
        # the last rows of every other group, which the gradient scales once
        self.lasts = slice(min((g[2].start for g in self.groups), default=0),
                           max((g[2].stop for g in self.groups), default=0))

    def densities(self, coef: np.ndarray) -> np.ndarray:
        """Per-record marginal density over the record's known set (1 for
        a fully-missing record)."""
        head = np.zeros(self.head.stop - self.head.start)
        head[self.head_cols] = coef[:len(self.head_cols)]
        mats = []
        for fun, arows, brows, ai, bi in self.groups:  # last rows x prefix rows
            C = np.zeros((brows.stop - brows.start, arows.stop - arows.start))
            C[bi, ai] = coef[fun]
            mats.append(C)
        rho = np.empty(len(self.usable))
        for rows, F in self.blocks:
            r = head @ F[self.head]  # the constant-prefix group: its prefix row is 1
            for C, (_, arows, brows, _, _) in zip(mats, self.groups):
                T = C @ F[arows]
                T *= F[brows]
                r += T.sum(axis=0)
            rho[rows] = r
        return rho

    def loglik(self, rho: np.ndarray) -> float:
        if self.complete_rows.size == 0:
            return float("nan")
        return float(np.mean(np.log(rho[self.complete_rows])))

    def gradient_vector(self, rho: np.ndarray) -> np.ndarray:
        """Per function, the mean of f/rho over the records covering it;
        0 for the constant and for functions without evidence."""
        w = 1.0 / rho
        head = np.zeros(self.head.stop - self.head.start)
        sums = [np.zeros((a.stop - a.start, b.stop - b.start)) for _, a, b, _, _ in self.groups]
        lo = self.lasts.start
        for rows, F in self.blocks:
            head += F[self.head] @ w[rows]
            scaled = F[self.lasts] * w[rows]
            for G, (_, arows, brows, _, _) in zip(sums, self.groups):
                G += F[arows] @ scaled[brows.start - lo:brows.stop - lo].T
        out = np.empty(len(self.counts))
        out[:len(self.head_cols)] = head[self.head_cols]
        for G, (fun, _, _, ai, bi) in zip(sums, self.groups):
            out[fun] = G[ai, bi]
        grad = np.divide(out, self.counts, out=np.zeros_like(out), where=self.counts > 0)
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
    coef = model.coef  # coef[0], the constant's, stays 1: its gradient entry is 0
    all_complete = 0 < ws.complete_rows.size == ws.usable.size
    rho = ws.densities(coef)
    _check_positive(rho)

    def objective(c, r):
        f = ws.loglik(r)
        return f, f - config.ridge * float(np.sum(c[1:] ** 2))

    trace: list[TraceStep] = []
    _, current_obj = objective(coef, rho)
    for step in range(config.steps):
        g = ws.gradient_vector(rho)
        g[1:] -= 2.0 * config.ridge * coef[1:]
        scale = config.step_size
        for attempt in range(MAX_BACKTRACKS + 1):
            candidate = coef + scale * g
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
    terms = model.spec.values(witness[None], 0)[:, 0]
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
