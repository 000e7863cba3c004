"""Property tests of the vectorised query kernel against scalar references.

The references are written here from the definitions (shifted Legendre
scaled by sqrt(2j+1); sqrt(2) sin/cos pairs; discrete vectors orthonormal
under weight 1/v on the grid with a positive leading coefficient), one
coefficient and one point at a time.
"""
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hcr
from hcr import (BasisSpec, ConditionalSlice, Model, NonpositiveMassError,
                 build_full, conditional_slice, discrete, evaluate,
                 find_negative_witness, legendre, support, trig)
from hcr.likelihood import _candidate_points, _halton
from hcr.tensor_basis import MAX_FUNCTIONS


def ref_eval(fam, j, x):
    if j == 0:
        return 1.0
    if fam.kind == "legendre":
        return math.sqrt(2 * j + 1) * np.polynomial.legendre.legval(2 * x - 1, np.eye(j + 1)[j])
    if fam.kind == "trig":
        wave = math.sin if j % 2 else math.cos
        return math.sqrt(2.0) * wave(2 * math.pi * ((j + 1) // 2) * x)
    grid = np.arange(fam.v) / (fam.v - 1)
    q, r = np.linalg.qr(np.vander(grid, fam.v, increasing=True))
    vectors = (q * np.sign(np.diag(r))).T * math.sqrt(fam.v)
    return vectors[j][int(round(x * (fam.v - 1)))]


def random_family(rng):
    kind = rng.integers(3)
    if kind == 0:
        return legendre(int(rng.integers(1, 5)))
    if kind == 1:
        return trig(int(rng.integers(1, 5)))
    v = int(rng.integers(2, 6))
    return discrete(v, int(rng.integers(1, v)))


def random_value(rng, fam):
    if fam.is_discrete:
        return int(rng.integers(fam.v)) / (fam.v - 1)
    return float(rng.choice([0.0, 1.0, rng.random()], p=[0.1, 0.1, 0.8]))


def random_model(seed, d, scale=0.3, used=None):
    """Mixed families, a random subset of multi-indices up to each
    family's order, coefficients of size `scale` spread over them.
    Functions touching a coordinate >= used get coefficient 0, so the
    density ignores those coordinates and equal values (ties) occur."""
    rng = np.random.default_rng(seed)
    families = tuple(random_family(rng) for _ in range(d))
    every = list(itertools.product(*(range(f.max_order + 1) for f in families)))
    picks = rng.choice(len(every), size=min(len(every), 40), replace=False)
    spec = BasisSpec(d, families, tuple(every[p] for p in picks))
    used = d if used is None else used
    coefs = {j: float(rng.uniform(-scale, scale)) if max(support(j), default=0) < used
             else 0.0 for j in spec.selected}
    return Model(spec, coefs, {}, {}), rng


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5))
def test_slice_numerators_match_scalar_sum(seed, d):
    model, rng = random_model(seed, d)
    i = int(rng.integers(d))
    others = [k for k in range(d) if k != i]
    known = {k: random_value(rng, model.spec.families[k])
             for k in others if rng.random() < 0.6}
    want = np.zeros(model.spec.families[i].max_order + 1)
    for j in model.spec.selected:
        if not set(support(j)) <= set(known) | {i}:
            continue
        term = model.coefficients[j]
        for k in support(j):
            if k != i:
                term *= ref_eval(model.spec.families[k], j[k], known[k])
        want[j[i]] += term
    try:
        sl = conditional_slice(model, known, i)
    except NonpositiveMassError as exc:
        assert want[0] <= 0 and exc.denominator == pytest.approx(want[0], abs=1e-12)
        return
    assert np.allclose(sl.numerator, want, rtol=0, atol=1e-12)
    assert sl.denominator == sl.numerator[0]


def trig_derivative(coef, x):
    out = np.zeros_like(x)
    for o in range(1, coef.size):
        w = 2 * math.pi * ((o + 1) // 2)
        wave = np.cos if o % 2 else (lambda t: -np.sin(t))
        out += coef[o] * math.sqrt(2.0) * w * wave(w * x)
    return out


@given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=7))
def test_trig_stationary_points_match_derivative_sign_changes(ints):
    coef = np.array([1000, *ints], dtype=float) / 1000
    sl = ConditionalSlice(0, trig(coef.size - 1), coef, 1.0)
    roots = sl._derivative_roots()
    grid = np.linspace(0.0, 1.0, 20001)
    sign = np.sign(trig_derivative(coef, grid))
    cells = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    for k in cells:
        lo, hi = grid[k], grid[k + 1]
        if lo < 1e-9 or hi > 1 - 1e-9:
            continue  # endpoints are extrema candidates on their own
        assert np.any((roots >= lo - 1e-12) & (roots <= hi + 1e-12)), (lo, hi, roots)
    scale = np.sum(np.abs(coef)) * 2 * math.pi * math.sqrt(2.0) * coef.size
    assert np.all(np.abs(trig_derivative(coef, roots)) <= 1e-8 * scale)
    assert np.all(np.diff(roots) > 0) and np.all((roots > 0) & (roots < 1))


def snap(model, point):
    out = np.array(point, dtype=float)
    for i, fam in enumerate(model.spec.families):
        if fam.is_discrete:
            out[i] = round(out[i] * (fam.v - 1)) / (fam.v - 1)
    return out


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), used=st.integers(1, 5),
       scale=st.sampled_from([0.0, 0.05, 0.5, 2.0]), budget=st.integers(1, 700))
def test_witness_matches_scalar_scan(seed, d, used, scale, budget):
    model, _ = random_model(seed, d, scale, used)
    best_point, best_value = None, 0.0
    for raw in itertools.islice(_candidate_points(d), budget):
        point = snap(model, raw)
        value = evaluate(model, point)
        if value < best_value:
            best_point, best_value = point, value
    found = find_negative_witness(model, budget)
    if best_point is None:
        assert found is None
    else:
        assert np.array_equal(found, best_point)


@pytest.mark.parametrize("d", [1, 3, 6, 10])
def test_halton_points_equal_scipy(d):
    qmc = pytest.importorskip("scipy.stats.qmc")
    sampler = qmc.Halton(d=d, scramble=False)
    want = np.vstack([sampler.random(128) for _ in range(3)])
    assert np.array_equal(_halton(d, 0, 384), want)
    assert np.array_equal(_halton(d, 128, 256), want[128:])


def test_candidates_are_corners_then_midpoints_then_halton():
    points = np.array(list(itertools.islice(_candidate_points(2), 4 + 4 + 3)))
    assert points[:4].tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert points[4:8].tolist() == [[0.5, 0], [0.5, 1], [0, 0.5], [1, 0.5]]
    assert np.array_equal(points[8:], _halton(2, 0, 3))


def test_import_cli_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(hcr.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c",
                          "import sys, hcr.cli; print('scipy' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_orders_and_coef_align_with_selected():
    model, _ = random_model(5, 4)
    spec = model.spec
    assert spec.orders.tolist() == [list(j) for j in spec.selected]
    assert model.coef.tolist() == [model.coefficients[j] for j in spec.selected]
    with pytest.raises(ValueError):
        model.coef[0] = 2.0
    with pytest.raises(ValueError):
        spec.orders[0, 0] = 1


def test_build_full_refuses_oversized_basis_from_the_count():
    count = 3**30  # d=30, order 2 on every level: sum_l C(30,l) 2^l, plus 1
    assert count > MAX_FUNCTIONS
    with pytest.raises(ValueError, match=f"{count} functions"):
        build_full(30, legendre(2), 2)
