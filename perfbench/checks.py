"""Correctness checks and output fingerprints, independent of hcr's code.

The reference basis below is written from the documented definitions
(shifted Legendre scaled by sqrt(2j+1); sqrt(2) sin/cos pairs; discrete
vectors orthonormal under weight 1/v on the grid with a positive leading
coefficient), so a change inside hcr that alters a value shows here.
"""
from __future__ import annotations

import json
import math
import sys

import numpy as np

FINGERPRINT_TOL = 1e-9  # absolute; values are O(1) and summation order may change
COEF_TOL = 1e-9
SLICE_MASS_TOL = 1e-9


def _discrete_vectors(v: int) -> np.ndarray:
    grid = np.arange(v) / (v - 1)
    q, r = np.linalg.qr(np.vander(grid, v, increasing=True) / math.sqrt(v))
    return (q * np.sign(np.diag(r))).T * math.sqrt(v)  # row j = order-j values


def ref_eval(family, j: int, x: np.ndarray) -> np.ndarray:
    """Order-j function of an hcr Family1D at x, from the definitions."""
    x = np.asarray(x, dtype=float)
    if j == 0:
        return np.ones_like(x)
    if family.kind == "legendre":
        return math.sqrt(2 * j + 1) * np.polynomial.legendre.legval(
            2 * x - 1, np.eye(j + 1)[j])
    if family.kind == "trig":
        freq = (j + 1) // 2
        wave = np.sin if j % 2 else np.cos
        return math.sqrt(2.0) * wave(2 * math.pi * freq * x)
    k = np.rint(x * (family.v - 1)).astype(int)
    return _discrete_vectors(family.v)[j][k]


def ref_term(spec, j, points: np.ndarray) -> np.ndarray:
    out = np.ones(points.shape[0])
    for i, o in enumerate(j):
        if o:
            out = out * ref_eval(spec.families[i], o, points[:, i])
    return out


def ref_density(model, points: np.ndarray) -> np.ndarray:
    return sum(model.coefficients[j] * ref_term(model.spec, j, points)
               for j in model.spec.selected)


def check_fit(model, values: np.ndarray, rng, terms: int = 12) -> list[str]:
    """Sampled coefficients equal the masked mean of their product function."""
    selected = [j for j in model.spec.selected if any(j)]
    picks = rng.choice(len(selected), size=min(terms, len(selected)), replace=False)
    problems = []
    for p in sorted(picks):
        j = selected[p]
        coords = [i for i, o in enumerate(j) if o]
        rows = values[~np.isnan(values[:, coords]).any(axis=1)]
        expect = float(ref_term(model.spec, j, np.nan_to_num(rows)).mean())
        if abs(model.coefficients[j] - expect) > COEF_TOL:
            problems.append(f"fit coefficient {j}: {model.coefficients[j]!r} "
                            f"!= masked mean {expect!r}")
    return problems


def check_density(model, points: np.ndarray, got: np.ndarray, tol=1e-9) -> list[str]:
    diff = np.abs(ref_density(model, points) - got)
    if diff.max(initial=0.0) > tol:
        return [f"evaluate_points differs from the reference by {diff.max():.3g}"]
    return []


def slice_mass(sl) -> float:
    """Integral of a normalized hcr slice under Gauss quadrature (grid sum
    for discrete coordinates)."""
    fam = sl.family
    if fam.is_discrete:
        grid = np.arange(fam.v) / (fam.v - 1)
        return float(np.sum(sl.coef @ np.array([ref_eval(fam, o, grid)
                                                for o in range(sl.coef.size)])) / fam.v)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    x = (nodes + 1) / 2
    values = sl.coef @ np.array([ref_eval(fam, o, x) for o in range(sl.coef.size)])
    return float(np.sum(weights / 2 * values))


def check_cells(values: np.ndarray, families) -> list[str]:
    """Filled cells lie in [0,1]; discrete cells sit on their grid."""
    problems = []
    for i, fam in enumerate(families):
        col = values[..., i]
        if np.isnan(col).any() or (col < 0).any() or (col > 1).any():
            problems.append(f"imputed column {i} has cells outside [0,1]")
        elif fam.is_discrete:
            k = col * (fam.v - 1)
            if np.abs(k - np.rint(k)).max(initial=0.0) > 1e-12:
                problems.append(f"imputed discrete column {i} is off its grid")
    return problems


def check_monotone(objectives, start: float | None = None) -> list[str]:
    """Refine's objective does not decrease (the library's own tolerance)."""
    seq = ([start] if start is not None else []) + list(objectives)
    for a, b in zip(seq, seq[1:]):
        if b < a - 1e-12 * (1 + abs(a)):
            return [f"refine objective decreased from {a!r} to {b!r}"]
    return []


def write_fingerprints(path, fingerprints: dict):
    """Coefficient vector, imputed cells, witness point, final refine
    log-likelihood: enough to compare two commits at FINGERPRINT_TOL."""
    def plain(value):
        if value is None:
            return None
        arr = np.asarray(value, dtype=float)
        return arr.tolist() if arr.ndim else float(arr)

    body = {"tolerance": FINGERPRINT_TOL,
            **{k: plain(v) for k, v in fingerprints.items()}}
    with open(path, "w") as fh:
        json.dump(body, fh)


def compare_fingerprints(a: dict, b: dict, tol: float = FINGERPRINT_TOL) -> list[str]:
    """Keys whose values differ by more than tol (or in shape/presence)."""
    problems = []
    for key in sorted(set(a) | set(b)):
        if key == "tolerance":
            continue
        x, y = a.get(key), b.get(key)
        if x is None or y is None:
            if x is not y:
                problems.append(f"{key}: present on one side only")
            continue
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.shape != y.shape:
            problems.append(f"{key}: shape {x.shape} != {y.shape}")
        elif x.size and np.nanmax(np.abs(x - y)) > tol:
            problems.append(f"{key}: max difference {np.nanmax(np.abs(x - y)):.3g}")
        elif not np.array_equal(np.isnan(x), np.isnan(y)):
            problems.append(f"{key}: missing cells differ")
    return problems


if __name__ == "__main__":
    # python3 perfbench/checks.py A.json B.json: compare two fingerprint files
    with open(sys.argv[1]) as fa, open(sys.argv[2]) as fb:
        differences = compare_fingerprints(json.load(fa), json.load(fb))
    print("\n".join(differences) or f"fingerprints agree within {FINGERPRINT_TOL:g}")
    sys.exit(1 if differences else 0)
