"""Property tests of the vectorised kernels against scalar references.

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
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hcr
from hcr import (BasisSpec, Completion, ConditionalSlice, Dataset, Family1D, Model,
                 NonpositiveMassError, PositivityError, RefineConfig, adapt, build_full,
                 build_sparse, conditional_slice, discrete, evaluate, find_negative_witness,
                 gradient, evaluate_points, impute, legendre, log_likelihood, refine,
                 support, trig)
from hcr.density import _clusters, _derivative_roots, _extremes, _impute_rows
from hcr.likelihood import _POSITIVE, _candidate_points, _halton, _Workspace
from hcr.tensor_basis import MAX_FUNCTIONS, _blocks


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
    roots, distinct = _derivative_roots(trig(coef.size - 1), coef[None])
    roots = roots[0][distinct[0]]
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


# a point's evaluate_points value depends on its block within 1e-12
# relative, so a scalar minimum that leads by less can lose to a near tie:
# here the corners (0, 1) and (1, 1) read -4.004147451342197 and
# ...198 one at a time, and both ...197 in the 4-point block
@example(seed=1, d=2, used=2, scale=2.0, budget=4)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), used=st.integers(1, 5),
       scale=st.sampled_from([0.0, 0.05, 0.5, 2.0]), budget=st.integers(1, 700))
def test_witness_matches_scalar_scan(seed, d, used, scale, budget):
    model, _ = random_model(seed, d, scale, used)
    points = [snap(model, raw) for raw in itertools.islice(_candidate_points(d), budget)]
    values = [evaluate(model, point) for point in points]
    best_value = min(values)
    found = []
    for rows in (None, 5):  # 5 rows per block: the scan crosses blocks
        block = hcr.tensor_basis.FIT_BLOCK if rows is None else rows * len(model.spec)
        with mock.patch.object(hcr.tensor_basis, "FIT_BLOCK", block):
            found.append(find_negative_witness(model, budget))
    if best_value >= 0.0:
        assert found == [None, None]
        return
    near = [p for p, v in zip(points, values) if v <= best_value * (1 - 1e-12)]
    for point in found:
        if len(near) == 1:  # the scalar minimum leads by more than 1e-12 relative
            assert np.array_equal(point, near[0])
        else:
            assert any(np.array_equal(point, p) for p in near)


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


# ---------------------------------------------------------------------------
# write side: gradient, refine and adapt against dense references


def random_records(rng, model, n, missing):
    """n records, cells missing at rate `missing`, and with probability
    1/2 one fully-missing record at a random row."""
    families = model.spec.families
    values = np.array([[random_value(rng, fam) for fam in families] for _ in range(n)])
    values[rng.random(values.shape) < missing] = np.nan
    if rng.random() < 0.5:
        values[rng.integers(n)] = np.nan
    return values


def ref_terms(model, values):
    """F[k, p] = f_p(record k) from the definitions, NaN where record k
    does not know the support of f_p."""
    spec = model.spec
    out = np.full((len(values), len(spec.selected)), np.nan)
    for k, x in enumerate(values):
        for p, j in enumerate(spec.selected):
            if not np.isnan(x[list(support(j))]).any():
                out[k, p] = math.prod(ref_eval(spec.families[i], j[i], x[i]) for i in support(j))
    return out


def ref_density(F, coef):
    """Each record's density marginalized to its known set."""
    return np.where(np.isnan(F), 0.0, F) @ coef


def ref_known_products(model, values):
    """G[k, p]: the product of f_p's factors over the support coordinates
    that record k knows (1 when it knows none of them)."""
    spec = model.spec
    return np.array([[math.prod(ref_eval(spec.families[i], j[i], x[i])
                                for i in support(j) if not np.isnan(x[i]))
                      for j in spec.selected] for x in values]).reshape(len(values), len(spec))


def random_sparse_spec(seed, d):
    """Mixed families and up to 30 functions on random supports of any
    size, so that supports reach every byte of a d-bit presence code."""
    rng = np.random.default_rng(seed)
    families = tuple(random_family(rng) for _ in range(d))
    selected = set()
    for _ in range(int(rng.integers(0, 31))):
        j = [0] * d
        for i in rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False):
            j[i] = int(rng.integers(1, families[i].max_order + 1))
        selected.add(tuple(j))
    return BasisSpec(d, families, tuple(selected)), rng


def level_tail_values(spec, points, fill):
    """Every selected function at each row of an (n, d) block of points,
    (functions, n), with each factor at a NaN cell read as fill (0: the
    function is 0 there; 1: its unknown factors drop out): a
    coordinate-major table of every order, then each function's factor l
    multiplied into the tail of the functions with more than l factors,
    level by level."""
    level = spec.touch.sum(axis=1)
    coords = np.argsort(spec.orders == 0, axis=1, kind="stable")
    rows = coords * spec.width + np.take_along_axis(spec.orders, coords, axis=1)
    starts = np.searchsorted(level, np.arange(1, level.max(initial=0) + 1))
    columns = {f: [k for k, g in enumerate(spec.families) if g == f] for f in spec.families}
    points = np.ascontiguousarray(np.asarray(points, dtype=float).T)
    n = points.shape[1]
    missing = np.isnan(points)
    x = np.where(missing, 0.0, points)
    table = np.empty((spec.d, spec.width, n))
    for family, cols in columns.items():
        table[cols, :family.max_order + 1] = family.eval_all(x[cols]).swapaxes(0, 1)
    np.copyto(table[:, 1:], fill, where=missing[:, None])
    table = table.reshape(spec.d * spec.width, n)
    out = np.empty((len(spec), n))
    out[0] = 1.0
    for lvl, start in enumerate(starts):
        if lvl:
            out[start:] *= table[rows[start:, lvl]]
        else:
            out[start:] = table[rows[start:, lvl]]
    return out


def deep_sparse_spec(seed, d):
    """Mixed families and up to 30 functions whose supports reach 4 to d
    coordinates as well as fewer, so that prefixes of two or more
    factors occur, and shared prefixes with them."""
    rng = np.random.default_rng(seed)
    families = tuple(random_family(rng) for _ in range(d))
    selected = set()
    for _ in range(int(rng.integers(0, 31))):
        size = int(rng.integers(4, d + 1)) if rng.random() < 0.5 else int(rng.integers(1, d + 1))
        j = [0] * d
        for i in rng.choice(d, size=size, replace=False):
            j[i] = int(rng.integers(1, families[i].max_order + 1))
        selected.add(tuple(j))
        if rng.random() < 0.5:  # the same support at other orders
            selected.add(tuple(o and int(rng.integers(1, f.max_order + 1))
                               for o, f in zip(j, families)))
    return BasisSpec(d, families, tuple(selected)), rng


def random_full_spec(seed, d):
    """build_full over mixed families, each level's order at most every
    family's capacity, and at most 1 above two factors."""
    rng = np.random.default_rng(seed)
    families = tuple(random_family(rng) for _ in range(d))
    cap = min(f.max_order for f in families)
    level_orders = {lvl: int(rng.integers(0, min(cap, 3 if lvl < 3 else 1) + 1))
                    for lvl in range(1, d + 1)}
    return build_full(d, families, level_orders), rng


def random_points(rng, spec, n, missing):
    """n points, cells missing at rate `missing`, and with probability 1/2
    each a fully-missing row and a fully-missing column."""
    points = np.array([[random_value(rng, f) for f in spec.families] for _ in range(n)])
    points = points.reshape(n, spec.d)
    points[rng.random(points.shape) < missing] = np.nan
    if n and rng.random() < 0.5:
        points[rng.integers(n)] = np.nan
    if n and rng.random() < 0.5:
        points[:, rng.integers(spec.d)] = np.nan
    return points


SPECS = {"full": random_full_spec, "sparse": random_sparse_spec,
         "deep": lambda seed, d: deep_sparse_spec(seed, max(d, 4))}  # supports of 4 and more


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), n=st.integers(0, 9),
       missing=st.sampled_from([0.0, 0.3, 0.6, 1.0]), kind=st.sampled_from(sorted(SPECS)),
       weighted=st.booleans())
def test_sums_match_the_level_tail_products(seed, d, n, missing, kind, weighted):
    """The reference against the scalar products (zero-filled, and with
    the unknown factors dropped), then _sums against the reference: each
    sum within 1e-12 of its terms' absolute sum, the constant's the sum
    of the weights."""
    spec, rng = SPECS[kind](seed, d)
    points = random_points(rng, spec, n, missing)
    V = level_tail_values(spec, points, 0)
    F = ref_terms(SimpleNamespace(spec=spec), points)
    assert np.allclose(V, np.where(np.isnan(F), 0.0, F).T, rtol=1e-12, atol=1e-12)
    assert np.allclose(level_tail_values(spec, points, 1),
                       ref_known_products(SimpleNamespace(spec=spec), points).T,
                       rtol=1e-12, atol=1e-12)
    w = rng.uniform(0.1, 10.0, n) if weighted else None
    got = spec._sums(spec._singles(points), w=w)
    w = np.ones(n) if w is None else w
    assert got.shape == (len(spec),)
    assert np.all(np.abs(got - V @ w) <= 1e-12 * (np.abs(V) @ w))  # V[0] is 1: the sum of w


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6),
       missing=st.sampled_from([0.0, 0.3, 1.0]), kind=st.sampled_from(sorted(SPECS)))
def test_one_row_sums_equal_the_level_tail_products_bit_for_bit(seed, d, missing, kind):
    """One row without weights, as adapt and repair_negative read it."""
    spec, rng = SPECS[kind](seed, d)
    point = random_points(rng, spec, 1, missing)
    assert np.array_equal(spec._sums(spec._singles(point)), level_tail_values(spec, point, 0)[:, 0])


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 17), n=st.integers(0, 12),
       missing=st.sampled_from([0.0, 0.3, 0.6, 1.0]))
def test_cover_matches_the_per_support_reference(seed, d, n, missing):
    spec, rng = random_sparse_spec(seed, d)
    present = rng.random((n, d)) >= missing
    if n and rng.random() < 0.5:
        present[rng.integers(n)] = False  # a fully-missing row
    if rng.random() < 0.5:
        present[:, rng.integers(d)] = False  # a fully-missing column
    want = [present[:, list(support(j))].all(axis=1) for j in spec.selected]
    got = spec.covered(present)
    assert got.dtype == bool and got.shape == (len(spec), n)
    assert np.array_equal(got, np.array(want).reshape(len(spec), n))


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 17), n=st.integers(1, 8),
       missing=st.sampled_from([0.0, 0.3, 0.6, 1.0]))
def test_adapt_evidence_matches_the_superset_reference(seed, d, n, missing):
    spec, rng = random_sparse_spec(seed, d)
    model = Model(spec, np.zeros(len(spec)), {(): 3}, {})
    stream = np.array([[random_value(rng, f) for f in spec.families] for _ in range(n)])
    stream[rng.random(stream.shape) < missing] = np.nan
    stream = np.insert(stream, rng.integers(n + 1), np.nan, axis=0)  # an all-missing record
    want = dict(model.evidence)
    adapted = model
    for x in stream:
        adapted = adapt(adapted, x, 0.1)
        known = set(np.flatnonzero(~np.isnan(x)).tolist())
        for coords in {support(j) for j in spec.selected}:
            if known.issuperset(coords):
                want[coords] = want.get(coords, 0) + 1
    assert adapted.evidence == want
    untouched = [p for p, j in enumerate(spec.selected)
                 if np.isnan(stream[:, list(support(j))]).any(axis=1).all()]
    assert np.array_equal(adapted.coef[untouched], model.coef[untouched])


@pytest.mark.parametrize("rows", [1, 2, 7])
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), n=st.integers(0, 16),
       sparse=st.booleans())
def test_evaluate_points_matches_reference_across_block_edges(rows, seed, d, n, sparse):
    if sparse:  # single rows that nothing reads, gaps in levels
        spec, rng = random_sparse_spec(seed, d)
        model = Model(spec, rng.uniform(-0.3, 0.3, len(spec)), {}, {})
    else:
        model, rng = random_model(seed, d)
    families = model.spec.families
    points = np.array([[random_value(rng, f) for f in families] for _ in range(n)]).reshape(n, d)
    with mock.patch.object(hcr.tensor_basis, "FIT_BLOCK", rows * len(model.spec)):
        got = evaluate_points(model, points)
    want = ref_density(ref_terms(model, points), model.coef)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def ref_gradient(F, rho, usable):
    grad = np.zeros(F.shape[1])
    for p in range(1, F.shape[1]):
        rows = usable & ~np.isnan(F[:, p])
        if rows.any():
            grad[p] = np.mean(F[rows, p] / rho[rows])
    return grad


def assert_names_worst_record(exc, rho, usable):
    k = int(str(exc).split()[1])
    assert usable[k] and rho[k] == pytest.approx(rho[usable].min(), abs=1e-12)
    assert exc.denominator == pytest.approx(rho[usable].min(), abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5),
       missing=st.sampled_from([0.0, 0.3, 0.6]), scale=st.sampled_from([0.02, 0.5]))
def test_gradient_matches_reference(seed, d, missing, scale):
    model, rng = random_model(seed, d, scale)
    values = random_records(rng, model, int(rng.integers(1, 10)), missing)
    F = ref_terms(model, values)
    rho = ref_density(F, model.coef)
    usable = ~np.isnan(values).all(axis=1)
    if usable.any() and rho[usable].min() <= 0:
        with pytest.raises(NonpositiveMassError) as err:
            gradient(model, Dataset(values))
        assert_names_worst_record(err.value, rho, usable)
        return
    got = gradient(model, Dataset(values))
    want = ref_gradient(F, rho, usable)
    assert np.allclose([got[j] for j in model.spec.selected], want, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("rows", [1, 3])
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6),
       missing=st.sampled_from([0.0, 0.3, 0.6]), sparse=st.booleans())
def test_workspace_reductions_match_the_function_values(rows, seed, d, missing, sparse):
    if sparse:  # random supports of any size: single rows that nothing reads, gaps in levels
        spec, rng = random_sparse_spec(seed, d)
        model = Model(spec, rng.uniform(-0.3, 0.3, len(spec)), {}, {})
    else:
        model, rng = random_model(seed, d)
    values = random_records(rng, model, int(rng.integers(1, 10)), missing)
    V = level_tail_values(model.spec, values, 0)
    with mock.patch.object(hcr.tensor_basis, "FIT_BLOCK", rows * len(model.spec)):
        ws = _Workspace(model, Dataset(values))
        # BLAS sums in its own order: each sum to 1e-12 of its terms' absolute sum
        rho = stored_reading(model.spec, model.coef, values)[0]
        assert np.all(np.abs(rho - model.coef @ V) <= 1e-12 * (np.abs(model.coef) @ np.abs(V)))
        # the gradient is taken at the pass's own densities, so shrink the
        # model toward the uniform density until every one is above 0.1
        coef = model.coef * (0.9 / max(0.9, 1.0 - float(rho.min())))
        coef[0] = 1.0
        rho = stored_reading(model.spec, coef, values)[0]
        reading = ws.read(coef, _POSITIVE, grad=True)
    assert_reduces(reading, rho, ws.usable, ws.complete)
    w = 1 / rho
    has = ws.counts > 0
    want = np.divide(V @ w, ws.counts, out=np.zeros(len(V)), where=has)
    want[0] = 0.0
    scale = np.divide(np.abs(V) @ np.abs(w), ws.counts, out=np.zeros(len(V)), where=has)
    assert np.all(np.abs(reading.grad - want) <= 1e-12 * scale)


def assert_reduces(reading, rho, usable, complete):
    """A pass's reading against the densities rho it read: the lowest usable
    one and its record (the first NaN, else the first lowest), the
    nonpositive complete records and their count and, with some, the lowest
    complete density, exactly; without any, the log-likelihood, a sum of
    block sums, to 1e-12 of the mean |log rho| of np.mean over the stored
    densities."""
    lows = np.where(usable, rho, np.inf)
    k = int(np.argmin(lows)) if usable.any() else -1
    assert reading.worst == k
    assert np.array_equal(reading.lowest, lows[k] if usable.any() else np.inf, equal_nan=True)
    bad = np.flatnonzero(complete & (rho <= 0))
    assert (reading.bad, reading.bad_count) == (bad[:10].tolist(), bad.size)
    if bad.size:
        assert np.array_equal(reading.complete_low, rho[complete].min(), equal_nan=True)
    elif not complete.any():
        assert np.isnan(reading.loglik)
    else:
        logs = np.log(rho[complete])
        assert abs(reading.loglik - np.mean(logs)) <= 1e-12 * np.mean(np.abs(logs))


def stored_reading(spec, coef, values):
    """The reference reading of a workspace that builds every row block's
    zero-filled single rows up front and keeps them: the densities over
    the stored blocks, then, when every density is positive, the gradient
    sums at them in a second pass over the same blocks (else None), each
    with the GEMMs of BasisSpec.contract."""
    blocks = []
    for rows in _blocks(spec, len(values)):
        S = spec._singles(values[rows])
        P = np.empty((spec.factor_count - 1 - spec.single_count, S.shape[1]))
        spec._products(S, P)
        blocks.append((rows, S, P))
    (head, mats), span = spec._layout(coef), spec._head[1]
    rho = np.empty(len(values))
    for rows, S, P in blocks:
        r = head @ S[span]
        r += coef[0]
        for C, (_, products, arows, brows, _, _) in zip(mats, spec._groups):
            T = C @ (P if products else S)[arows]
            T *= S[brows]
            r += T.sum(axis=0)
        rho[rows] = r
    if rho.size and rho.min() <= 0:
        return rho, None
    (funs, span, cols), lo = spec._head, spec._lasts.start
    head = np.zeros(span.stop - span.start)
    sums = [np.zeros(C.T.shape) for C in mats]
    for rows, S, P in blocks:
        w = 1.0 / rho[rows]
        head += S[span] @ w
        scaled = S[spec._lasts] * w
        for G, (_, products, arows, brows, _, _) in zip(sums, spec._groups):
            G += (P if products else S)[arows] @ scaled[brows.start - lo:brows.stop - lo].T
    out = np.zeros(len(spec))
    out[funs] = head[cols]
    for G, (fun, _, _, _, ai, bi) in zip(sums, spec._groups):
        out[fun] = G[ai, bi]
    return rho, out


@pytest.mark.parametrize("rows", [1, 3])
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5),
       missing=st.sampled_from([0.0, 0.3, 0.6]), sparse=st.booleans())
def test_streamed_pass_equals_the_stored_reading(rows, seed, d, missing, sparse):
    spec, rng = (random_sparse_spec if sparse else random_full_spec)(seed, d)
    model = Model(spec, rng.uniform(-0.3, 0.3, len(spec)), {}, {})
    values = random_records(rng, model, int(rng.integers(1, 13)), missing)
    with mock.patch.object(hcr.tensor_basis, "FIT_BLOCK", rows * len(spec)):
        ws = _Workspace(model, Dataset(values))
        want, _ = stored_reading(spec, model.coef, values)
        assert_reduces(ws.read(model.coef), want, ws.usable, ws.complete)
        # a model shrunk toward the uniform density, positive at every record
        coef = model.coef * (0.9 / max(0.9, 1.0 - float(want.min())))
        coef[0] = 1.0
        rho, sums = stored_reading(spec, coef, values)
        reading = ws.read(coef, _POSITIVE, grad=True)
    assert_reduces(reading, rho, ws.usable, ws.complete)
    want = np.divide(sums, ws.counts, out=np.zeros_like(sums), where=ws.counts > 0)
    want[0] = 0.0
    assert np.array_equal(reading.grad, want)


def test_a_pass_stops_at_the_first_block_below_the_floor():
    spec = build_full(1, legendre(1), 1)
    model = Model(spec, [1.0, 0.5], {}, {})  # density 1 + 0.5 sqrt(3) (2x - 1)
    values = np.array([[0.9], [0.0], [np.nan], [0.5]])  # densities 1.69, 0.13, 1, 1
    with mock.patch.object(hcr.tensor_basis, "FIT_BLOCK", len(spec)):  # one row per block
        ws = _Workspace(model, Dataset(values))
        with mock.patch.object(spec, "_singles", wraps=spec._singles) as singles:
            reading = ws.read(model.coef, 0.2, stop=True, grad=True)
            assert reading.grad is None and singles.call_count == 2  # the blocks of rows 0 and 1
            assert reading.worst == 1 and reading.lowest < 0.2
            reading = ws.read(model.coef, 0.2, grad=True)  # every block, no sums
            assert reading.grad is None and singles.call_count == 6
            assert reading.worst == 1 and reading.lowest < 0.2
            # the complete records 0, 1 and 3; record 2 knows nothing (density 1)
            want = np.mean(np.log(1 + 0.5 * math.sqrt(3) * np.array([0.8, -1.0, 0.0])))
            assert reading.loglik == pytest.approx(want, rel=1e-12)
            # every density clears 0.1
            assert ws.read(model.coef, 0.1, stop=True, grad=True).grad is not None


def test_the_last_step_checks_the_margin_without_gradient_sums():
    spec = build_full(2, legendre(3), 3)
    data = Dataset(np.random.default_rng(8).beta(2.0, 3.0, (40, 2)))
    model = hcr.fit(spec, data)
    config = RefineConfig(steps=2, step_size=1000.0, positivity_margin=0.05)  # backtracks
    with mock.patch.object(_Workspace, "read", autospec=True,
                           side_effect=_Workspace.read) as read, \
            mock.patch.object(spec, "_sums", wraps=spec._sums) as block_sums:
        _, trace = refine(model, data, config)
    asked = [call.kwargs["grad"] for call in read.call_args_list]
    # the starting pass and step 0's candidates ask for gradient sums; step 1's,
    # after the same number of shrinks, do not
    assert asked == [True] * 5 + [False] * 4
    # the 40 records are one block: the sums are built at the start and at
    # step 0's accepted candidate, not at a candidate below the margin
    assert block_sums.call_count == 2
    assert [t.step_scale for t in trace] == [125.0, 125.0]
    # as the last step, step 0 is accepted at the same scale, bit for bit
    _, first = refine(model, data, RefineConfig(steps=1, step_size=1000.0,
                                                positivity_margin=0.05))
    assert first == trace[:1]


@pytest.mark.parametrize("rows", [1, 3])
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), n=st.integers(1, 12),
       sparse=st.booleans())
def test_evaluate_points_and_refine_read_one_kernel(rows, seed, d, n, sparse):
    spec, rng = (random_sparse_spec if sparse else random_full_spec)(seed, d)
    model = Model(spec, rng.uniform(-0.1, 0.1, len(spec)), {}, {})
    values = np.array([[random_value(rng, f) for f in spec.families] for _ in range(n)])
    data = Dataset(values.reshape(n, d))  # complete records
    with mock.patch.object(hcr.tensor_basis, "FIT_BLOCK", rows * len(spec)):
        ws = _Workspace(model, data)
        rho = evaluate_points(model, data.values)
        assert np.array_equal(rho, stored_reading(spec, model.coef, data.values)[0])
        reading = ws.read(model.coef)
        assert_reduces(reading, rho, ws.usable, ws.complete)
        if rho.min() > 0:
            assert log_likelihood(model, data) == reading.loglik
        else:
            with pytest.raises(NonpositiveMassError) as err:
                log_likelihood(model, data)
            bad = np.flatnonzero(rho <= 0)
            assert str(err.value).startswith(f"nonpositive density at records {bad[:10].tolist()}"
                                             f"{'...' if bad.size > 10 else ''};")
            assert err.value.denominator == rho.min()


def test_workspace_keeps_only_the_single_rows_read():
    spec = build_sparse(10, legendre(4), [(0, 1)], 4)
    values = np.random.default_rng(3).random((5, 10))
    ws = _Workspace(Model(spec, np.zeros(len(spec)), {}, {}), Dataset(values))
    assert (len(spec), spec.factor_count) == (17, 9)  # the constant and the 8 single rows
    with mock.patch.object(spec, "_singles", wraps=spec._singles) as singles:
        ws.read(np.zeros(len(spec)), _POSITIVE, grad=True)
    # orders 1..4 of coordinates 0 and 1
    assert [call.args[0].shape for call in singles.call_args_list] == [(5, 10)]
    assert spec._singles(values).shape == (8, 5)


def test_unread_coordinates_are_checked_without_their_tables():
    families = (legendre(4),) * 9 + (discrete(5, 2),)
    spec = build_sparse(10, families, [(0, 1)], 4)
    model = Model(spec, np.zeros(len(spec)), {}, {})
    points = np.random.default_rng(3).random((5, 10))
    points[:, 9] = 0.25  # on the discrete grid
    with mock.patch.object(Family1D, "_write_orders", autospec=True,
                           side_effect=Family1D._write_orders) as write_orders:
        assert np.array_equal(evaluate_points(model, points), np.ones(5))
    # the tables of coordinates 0 and 1 only
    assert [np.shape(call.args[1]) for call in write_orders.call_args_list] == [(2, 5)]
    for i, bad in ((5, 1.5), (9, -0.1), (9, 0.3)):  # out of [0,1], and off the 5-point grid
        broken = points.copy()
        broken[2, i] = bad
        with pytest.raises(ValueError, match="outside|grid"):
            evaluate_points(model, broken)


def ref_first_step(model, values, config):
    """One step of refine written densely: the reference gradient, the
    ridge term, then backtracking until every usable record keeps the
    margin (and, on complete data, the objective does not fall).
    Returns (coefficients, step scale), or None when no scale works."""
    F = ref_terms(model, values)
    usable = ~np.isnan(values).all(axis=1)
    complete = ~np.isnan(values).any(axis=1)
    a = model.coef
    nonconst = np.arange(len(a)) > 0

    def objective(c):
        loglik = np.mean(np.log(ref_density(F, c)[complete])) if complete.any() else np.nan
        return loglik - config.ridge * np.sum(c[nonconst] ** 2)

    g = ref_gradient(F, ref_density(F, a), usable)
    g[nonconst] -= 2.0 * config.ridge * a[nonconst]
    current = objective(a)
    scale = config.step_size
    for _ in range(61):
        candidate = np.where(nonconst, a + scale * g, a)
        if np.all(ref_density(F, candidate)[usable] >= config.positivity_margin):
            new = objective(candidate)
            if (not complete.all() or np.isnan(new)
                    or new >= current - 1e-12 * (1 + abs(current))):
                return candidate, scale
        scale *= config.backtrack_factor
    return None


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5),
       missing=st.sampled_from([0.0, 0.3]), ridge=st.sampled_from([0.0, 0.1]),
       step=st.sampled_from([0.05, 1.0]))
def test_refine_first_step_matches_dense_reference(seed, d, missing, ridge, step):
    model, rng = random_model(seed, d, 0.02)
    values = random_records(rng, model, int(rng.integers(2, 10)), missing)
    usable = ~np.isnan(values).all(axis=1)
    rho = ref_density(ref_terms(model, values), model.coef)
    if usable.any() and rho[usable].min() <= 0:
        return  # refine refuses to start; covered by the gradient property
    config = RefineConfig(steps=1, step_size=step, ridge=ridge, positivity_margin=1e-3)
    want = ref_first_step(model, values, config)
    if want is None:
        with pytest.raises(PositivityError):
            refine(model, Dataset(values), config)
        return
    refined, trace = refine(model, Dataset(values), config)
    assert np.allclose(refined.coef, want[0], rtol=1e-10, atol=1e-10)
    assert trace[0].step_scale == want[1]


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5),
       missing=st.sampled_from([0.0, 0.3, 0.6]))
def test_adapt_matches_per_term_replay(seed, d, missing):
    model, rng = random_model(seed, d)
    stream = random_records(rng, model, int(rng.integers(1, 8)), missing)
    rate = 0.1
    adapted = model
    for x in stream:
        adapted = adapt(adapted, x, rate)
    F = ref_terms(model, stream)
    want = model.coef.copy()
    for p in range(1, len(want)):
        for value in F[~np.isnan(F[:, p]), p]:
            want[p] = (1 - rate) * want[p] + rate * value
    assert np.allclose(adapted.coef, want, rtol=1e-12, atol=1e-12)
    for coords in {support(j) for j in model.spec.selected[1:]}:
        knows = ~np.isnan(stream[:, list(coords)]).any(axis=1)
        assert adapted.evidence.get(coords, 0) == int(knows.sum())
    assert adapted.evidence[()] == len(stream)


def test_nonpositive_mass_names_the_callers_row():
    # a 2-d model negative where both coordinates are near 0; records
    # with different known sets interleave, so sorting moves the rows
    spec = build_full(2, legendre(1), 1)
    model = Model(spec, {(1, 0): 0.2, (0, 1): 0.2, (1, 1): -0.6}, {}, {})
    values = np.array([[0.5, np.nan], [0.9, 0.9], [np.nan, 0.5],
                       [0.0, 0.0], [np.nan, np.nan], [0.5, 0.5]])
    for k in range(len(values)):
        rolled = np.roll(values, k, axis=0)
        with pytest.raises(NonpositiveMassError, match=f"record {(3 + k) % 6} "):
            gradient(model, Dataset(rolled))


# ---------------------------------------------------------------------------
# slice queries, one path for every family: moments, negativity, top mode
# and clusters against brute force (grid sums for discrete coordinates,
# quadrature and a dense grid for continuous ones)

DENSE = np.linspace(0.0, 1.0, 20001)
GAUSS = np.polynomial.legendre.leggauss(200)


def ref_values(fam, coef, x):
    """sum_o coef[o] f_o(x) at the points x, from the definitions."""
    x = np.asarray(x, dtype=float)
    if fam.is_discrete:
        return np.array([sum(c * ref_eval(fam, o, g) for o, c in enumerate(coef)) for g in x])
    if fam.kind == "legendre":
        scale = np.sqrt(2 * np.arange(coef.size) + 1)
        return np.polynomial.legendre.legval(2 * x - 1, coef * scale)
    out = np.full(x.shape, coef[0])
    for o in range(1, coef.size):
        wave = np.sin if o % 2 else np.cos
        out += coef[o] * math.sqrt(2.0) * wave(2 * math.pi * ((o + 1) // 2) * x)
    return out


def ref_quadrature(fam, coef, lo=0.0, hi=1.0):
    """(mass, first moment, second moment) of the slice over [lo, hi]."""
    t, w = GAUSS
    x, w = lo + (hi - lo) * (t + 1) / 2, (hi - lo) * w / 2
    f = ref_values(fam, coef, x)
    return tuple(float(np.sum(w * x**p * f)) for p in range(3))


def random_slice(seed, d):
    """A conditional slice of a random mixed-family model at random
    evidence, or None when its mass is not positive."""
    model, rng = random_model(seed, d)
    i = int(rng.integers(d))
    known = {k: random_value(rng, model.spec.families[k])
             for k in range(d) if k != i and rng.random() < 0.6}
    try:
        return conditional_slice(model, known, i)
    except NonpositiveMassError:
        return None


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5))
def test_every_slice_integrates_to_one_and_its_moments_match_quadrature(seed, d):
    """Every free coordinate of a random known set: mass 1 within 1e-10,
    and expected_value's mean (clipped into [0, 1] on a negative slice)
    and variance as the 200-node Gauss rule, or the full grid for a
    discrete coordinate, gives them for the normalized slice."""
    model, rng = random_model(seed, d)
    known = {k: random_value(rng, f) for k, f in enumerate(model.spec.families)
             if rng.random() < 0.5}
    for i in sorted(set(range(d)) - set(known)):
        try:
            sl = conditional_slice(model, known, i)
        except NonpositiveMassError:
            continue
        if sl.family.is_discrete:
            f = ref_values(sl.family, sl.coef, sl.family.grid) / sl.family.v
            mass, first, second = (float(np.sum(f * sl.family.grid**p)) for p in range(3))
        else:
            mass, first, second = ref_quadrature(sl.family, sl.coef)
        assert mass == pytest.approx(1.0, rel=0, abs=1e-10)
        mom = sl.expected_value()
        mean = min(1.0, max(0.0, first)) if mom.negative_region else first
        assert mom.mean == pytest.approx(mean, rel=1e-10, abs=1e-10)
        assert mom.variance == pytest.approx(max(second - first**2, 0.0), rel=1e-10, abs=1e-10)


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5))
def test_slice_queries_match_brute_force(seed, d):
    sl = random_slice(seed, d)
    if sl is None:
        return
    fam, coef = sl.family, sl.coef
    mom = sl.expected_value()
    mode, tied = sl.top_mode()
    if fam.is_discrete:
        grid = fam.grid
        f = ref_values(fam, coef, grid)
        mean = float(np.sum(grid * f)) / fam.v
        var = float(np.sum(grid**2 * f)) / fam.v - mean**2
        assert mom.negative_region == bool(f.min() < 0)
        winners = grid[f >= f.max() - 1e-12 * np.abs(f).max()]  # the relative tie
        assert (mode, tied) == (winners[0], winners.size > 1)
    else:
        _, first, second = ref_quadrature(fam, coef)
        mean, var = first, second - first**2
        f = ref_values(fam, coef, DENSE)
        slack = float(np.max(np.abs(np.diff(f, 2)))) + 1e-12  # bounds the grid's miss
        if f.min() < 0:
            assert mom.negative_region
        if f.min() > slack:
            assert not mom.negative_region
        top = float(ref_values(fam, coef, [mode])[0])
        assert f.max() - 1e-12 * np.abs(f).max() <= top <= f.max() + slack
        near_top = np.flatnonzero(f >= f.max() - slack - 1e-12)
        if np.all(np.diff(near_top) == 1) and near_top.size < DENSE.size:
            assert not tied  # one peak, and not a constant slice
    if mom.negative_region:
        mean = min(1.0, max(0.0, mean))
    assert mom.mean == pytest.approx(mean, rel=1e-10, abs=1e-10)
    assert mom.variance == pytest.approx(max(var, 0.0), rel=1e-10, abs=1e-10)
    assert sl.variance == mom.variance


def discrete_slice(pmf):
    """Slice of a discrete coordinate with grid masses pmf."""
    fam = discrete(len(pmf))
    table = np.array([[ref_eval(fam, o, g) for g in fam.grid] for o in range(fam.v)])
    return ConditionalSlice(0, fam, table @ np.asarray(pmf, dtype=float), 1.0)


@pytest.mark.parametrize("sl, mode, tied", [
    (discrete_slice([0.25] * 4), 0.0, True),
    (discrete_slice([0.1, 0.4, 0.4, 0.1]), 1 / 3, True),
    (discrete_slice([0.1, 0.2, 0.4, 0.2, 0.1]), 0.5, False),
    (ConditionalSlice(0, legendre(2), np.array([1.0, 0.0, 0.0]), 1.0), 0.0, True),
    (ConditionalSlice(0, legendre(4), np.array([1.0, 0.0, 0.3, 0.0, 0.0]), 1.0), 0.0, True),
    (ConditionalSlice(0, legendre(4), np.array([1.0, 0.0, -0.3, 0.0, 0.0]), 1.0), 0.5, False),
    (ConditionalSlice(0, legendre(4), np.array([1.0, 0.0, 0.2, 0.0, -0.3]), 1.0), None, True),
    (ConditionalSlice(0, trig(4), np.array([1.0, 0.0, 0.0, 0.0, -0.3]), 1.0), 0.25, True),
    # values so large that max - 1e-12 rounds to max
    (ConditionalSlice(0, legendre(1), np.array([1.0, 4e4]), 1.0), 1.0, False),
    (ConditionalSlice(0, discrete(2), np.array([1.0, -4e4]), 1.0), 0.0, False),
])
def test_top_mode_exact_ties_resolve_to_the_smaller_coordinate(sl, mode, tied):
    if mode is None:  # two interior maxima mirrored about 1/2: the left one
        left = DENSE[DENSE < 0.5]
        mode = left[np.argmax(ref_values(sl.family, sl.coef, left))]
    got, got_tied = sl.top_mode()
    assert got == pytest.approx(mode, abs=1e-4)
    assert got_tied == tied


def ref_interior_minima(sl):
    """The stationary points at which the slice is above its value 1e-4
    to either side (less near an end): strict minima found by probing."""
    roots, distinct = _derivative_roots(sl.family, sl.coef[None])
    r = roots[0][distinct[0]]
    step = np.minimum(np.minimum(1e-4, r / 2), (1 - r) / 2)
    left, mid, right = sl.evaluate(np.concatenate([r - step, r, r + step])).reshape(3, -1)
    return r[(left > mid) & (right > mid)]


def ref_clusters(sl):
    """Clusters under the reference merge rule: discrete seeds are grid
    points and a merge sums masses and mass-weights means; continuous
    seeds are the intervals between the slice's interior minima and a
    merge integrates the reference slice over the union."""
    fam, coef = sl.family, sl.coef
    if fam.is_discrete:
        masses = ref_values(fam, coef, fam.grid) / fam.v
        clusters = [(g, g, g, m) for g, m in zip(fam.grid, masses)]
    else:
        def stats(lo, hi):
            mass, first, _ = ref_quadrature(fam, coef, lo, hi)
            return (lo, hi, first / mass if mass else (lo + hi) / 2, mass)
        cuts = [0.0, *ref_interior_minima(sl).tolist(), 1.0]
        clusters = [stats(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
    while len(clusters) > 1:
        k = int(np.argmin([c[3] for c in clusters]))
        if clusters[k][3] >= 0.01:
            break
        if 0 < k < len(clusters) - 1:
            left = abs(clusters[k - 1][2] - clusters[k][2])
            nb = k - 1 if left <= abs(clusters[k + 1][2] - clusters[k][2]) else k + 1
        else:
            nb = 1 if k == 0 else k - 1
        a, b = clusters[min(k, nb)], clusters[max(k, nb)]
        if fam.is_discrete:
            mass = a[3] + b[3]
            merged = (a[0], b[1], (a[2] * a[3] + b[2] * b[3]) / mass if mass
                      else (a[0] + b[1]) / 2, mass)
        else:
            merged = stats(a[0], b[1])
        clusters[min(k, nb):max(k, nb) + 1] = [merged]
    return clusters


# slices flat up to rounding (non-constant coefficients of 1e-16): one cluster
@example(seed=159, d=5)
@example(seed=119203, d=5)
@example(seed=17002, d=4)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5))
def test_clusters_match_reference_merge_rule(seed, d):
    sl = random_slice(seed, d)
    if sl is None:
        return
    got = sl.modes_and_clusters()
    assert all(a.mass >= b.mass - 1e-12 for a, b in zip(got, got[1:]))
    # mirror-symmetric slices have clusters of equal mass in either order
    got = sorted(got, key=lambda c: c.lo)
    want = sorted(ref_clusters(sl))
    assert [(c.lo, c.hi) for c in got] == [(c[0], c[1]) for c in want]
    for c, (_, _, mean, mass) in zip(got, want):
        # rel: a slice at a tiny denominator has masses of order 1e4 that cancel
        assert c.mass == pytest.approx(mass, rel=1e-9, abs=1e-9)
        assert c.mean == pytest.approx(mean, rel=1e-9, abs=1e-9)
    assert sum(c.mass for c in got) == pytest.approx(1.0, abs=1e-9)


def test_interior_sliver_between_equidistant_neighbours_merges_left():
    # grid 0, 1/4, 1/2, 3/4, 1: the sliver at 1/2 is 1/4 from both single-point
    # neighbours, exactly, so the tie goes left
    clusters = discrete_slice([0.3, 0.3, 0.005, 0.095, 0.3]).modes_and_clusters()
    merged = [c for c in clusters if c.lo != c.hi]
    assert len(clusters) == 4 and len(merged) == 1
    assert (merged[0].lo, merged[0].hi) == (0.25, 0.5)
    assert merged[0].mass == pytest.approx(0.305, abs=1e-12)
    assert merged[0].mean == pytest.approx((0.25 * 0.3 + 0.5 * 0.005) / 0.305, abs=1e-12)
    assert all(c.mean == c.lo for c in clusters if c.lo == c.hi)


# ---------------------------------------------------------------------------
# batch impute: a block of rows gives, per row, what that row gives alone,
# and what the greedy slice-by-slice definition gives

POLICIES = ("expected", "top-mode", "cluster-split")


def random_block(model, rng):
    """Rows of random cells, some missing at random, the first fully missing."""
    n = int(rng.integers(1, 9))
    block = np.array([[random_value(rng, f) for f in model.spec.families] for _ in range(n)])
    block[rng.random(block.shape) < rng.choice([0.2, 0.5, 0.8])] = np.nan
    block[0] = np.nan
    return block


def assert_same_result(got, want, tol=1e-12):
    if isinstance(want, NonpositiveMassError):
        assert isinstance(got, NonpositiveMassError)
        assert str(got) == str(want)
        assert got.denominator == pytest.approx(want.denominator, rel=tol, abs=tol)
        return
    assert not isinstance(got, NonpositiveMassError), got
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.allclose(a.values, b.values, rtol=0, atol=tol)
        assert a.weight == pytest.approx(b.weight, rel=0, abs=tol)
        assert list(a.variances) == list(b.variances)
        assert np.allclose(list(a.variances.values()), list(b.variances.values()),
                           rtol=tol, atol=tol)
        assert a.notes == b.notes


def one_row(model, row, policy):
    try:
        return impute(model, row, policy)
    except NonpositiveMassError as exc:
        return exc


def ref_impute(model, record, policy):
    """The greedy fill from the definitions: one conditional_slice per
    missing coordinate of every state, the least variance filled first."""
    names = model.coordinate_names()
    states = [(np.array(record, dtype=float), 1.0, {}, ())]
    while any(np.isnan(s[0]).any() for s in states):
        following = []
        for values, weight, variances, notes in states:
            missing = np.flatnonzero(np.isnan(values)).tolist()
            if not missing:
                following.append((values, weight, variances, notes))
                continue
            try:
                slices = {i: conditional_slice(model, values, i) for i in missing}
            except NonpositiveMassError:
                return _first_mass_error(model, values, missing)
            i = min(missing, key=lambda k: (slices[k].variance, k))
            mom = slices[i].expected_value()
            notes += (f"negative-region:{names[i]}",) * mom.negative_region
            fills = [(mom.mean, 1.0)]
            if policy == "top-mode":
                mode, tied = slices[i].top_mode()
                fills, notes = [(mode, 1.0)], notes + (f"mode-tie:{names[i]}",) * tied
            elif policy == "cluster-split":
                clusters = slices[i].modes_and_clusters()
                fills = [(c.mean, c.mass / sum(c.mass for c in clusters)) for c in clusters]
            for value, share in fills:
                filled = values.copy()
                filled[i] = model.spec.families[i].snap(value)
                following.append((filled, weight * share, {**variances, i: mom.variance}, notes))
        states = following
    total = sum(s[1] for s in states)
    return [Completion(v, w / total, var, n) for v, w, var, n in states]


def _first_mass_error(model, values, missing):
    for i in missing:
        try:
            conditional_slice(model, values, i)
        except NonpositiveMassError as exc:
            return exc


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), policy=st.sampled_from(POLICIES))
def test_block_impute_matches_one_row_calls_in_any_order(seed, d, policy):
    model, rng = random_model(seed, d)
    block = random_block(model, rng)
    got = _impute_rows(model, block, policy)
    assert len(got) == len(block)
    for row, res in zip(block, got):
        if np.isnan(row).any():
            assert_same_result(res, one_row(model, row, policy))
        else:
            assert len(res) == 1 and np.array_equal(res[0].values, row)
            assert (res[0].weight, res[0].variances, res[0].notes) == (1.0, {}, ())
    perm = rng.permutation(len(block))
    for k, res in zip(perm, _impute_rows(model, block[perm], policy)):
        assert_same_result(res, got[k], tol=0.0)


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), policy=st.sampled_from(POLICIES))
def test_block_impute_matches_the_slice_by_slice_definition(seed, d, policy):
    model, rng = random_model(seed, d)
    block = random_block(model, rng)
    for row, res in zip(block, _impute_rows(model, block, policy)):
        if np.isnan(row).any():
            assert_same_result(res, ref_impute(model, row, policy), tol=1e-9)


def ref_numerators(model, products, column, missing, cells):
    """_numerators one coordinate at a time: the cells of coordinate i,
    then one bincount over the functions that touch no unknown coordinate
    but i, functions outer and cells inner."""
    orders, touch = model.spec.orders, model.spec.orders > 0
    point, coord = np.nonzero(cells)
    source = np.asarray(column)[point]
    hits = touch @ missing.T.astype(np.int16)
    width = max(family.max_order for family in model.spec.families) + 1
    out = np.zeros((len(point), width))
    for i in set(coord.tolist()):
        (at,) = np.nonzero(coord == i)
        f, c = np.nonzero(hits[:, point[at]] == touch[:, i, None])
        weights = products[f, source[at][c]] * model.coef[f]
        bins = c * width + orders[f, i]
        out[at] = np.bincount(bins, weights, len(at) * width).reshape(-1, width)
    return out


# seed 0, d 5: 8 rows, 21 missing cells, 7 rows that branch and 1 that fails
@example(seed=0, d=5, policy="cluster-split", states_per_run=1)
@example(seed=0, d=5, policy="cluster-split", states_per_run=3)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), policy=st.sampled_from(POLICIES),
       states_per_run=st.sampled_from([None, 1, 3]))
def test_numerators_match_the_per_coordinate_reference(seed, d, policy, states_per_run):
    """On every step of a block impute (fully missing first row,
    cluster-split branches) and on conditional_slice, whose one cell is
    not all that is missing, with runs cut to 1 or 3 states: each
    numerator within 1e-12 of its terms' absolute sum, exactly 0 at an
    order that no function with a nonzero coefficient gives, and the
    single rows a state keeps equal to its own, bit for bit."""
    model, rng = random_model(seed, d)
    block = random_block(model, rng)
    numerators, seen = hcr.density._slice_numerators, []

    def checked(model, points, singles):
        assert np.array_equal(singles, model.spec._singles(points))
        got = numerators(model, points, singles)
        products, missing = level_tail_values(model.spec, points, 1), np.isnan(points)
        cells = (np.arange(len(points)), missing, missing)
        want = ref_numerators(model, products, *cells)
        scale = ref_numerators(SimpleNamespace(spec=model.spec, coef=np.abs(model.coef)),
                               np.abs(products), *cells)
        given = ref_numerators(SimpleNamespace(spec=model.spec, coef=1.0 * (model.coef != 0)),
                               np.ones_like(products), *cells)  # contributing functions
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        assert np.all(got[given == 0] == 0)
        seen.append(len(got))
        return got

    bound = (hcr.tensor_basis.FIT_BLOCK if states_per_run is None
             else len(model.spec) * states_per_run)
    with mock.patch.object(hcr.density, "_slice_numerators", checked), \
            mock.patch.object(hcr.tensor_basis, "FIT_BLOCK", bound):
        _impute_rows(model, block, policy)
        for row in block[1:]:
            for i in np.flatnonzero(np.isnan(row))[:1]:
                try:
                    conditional_slice(model, row, int(i))
                except NonpositiveMassError:
                    pass
    assert seen


# row 9 has a cluster of mass 0.0312 and first moment -0.555 on a slice of
# values up to 14: both agree with the reference to 4e-14, but their ratio,
# the mean -17.78, only to 1.2e-12 relative
@example(seed=879, rows=11)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12))
def test_stacked_roots_and_extremes_match_one_slice(seed, rows):
    rng = np.random.default_rng(seed)
    family = random_family(rng)
    coef = rng.uniform(-2, 2, (rows, family.max_order + 1)) * rng.choice([0.01, 0.3, 3.0])
    coef[:, 0] = 1.0
    coef[rng.random(rows) < 0.3, -1] = 0.0  # trailing zeros lower the degree
    extremes = _extremes(family, coef)
    minimum, mode, tied, *_ = extremes
    clusters = _clusters(family, coef, extremes)
    if not family.is_discrete:
        roots, distinct = _derivative_roots(family, coef)
    for r in range(rows):
        sl = ConditionalSlice(0, family, coef[r].copy(), 1.0)
        assert (minimum[r] < 0, float(mode[r]), bool(tied[r])) == (
            sl.expected_value().negative_region, *sl.top_mode())
        assert clusters[r] == sl.modes_and_clusters()  # the rows beside it do not matter
        got, want = sorted(clusters[r], key=lambda c: c.lo), ref_clusters(sl)
        assert [(c.lo, c.hi) for c in got] == [(c[0], c[1]) for c in want]
        for c, (_, _, mean, mass) in zip(got, want):
            # a mean is a ratio that a small signed mass magnifies: compare
            # the first moment
            assert c.mass == pytest.approx(mass, rel=1e-12, abs=1e-12)
            assert c.mean * c.mass == pytest.approx(mean * mass, rel=1e-12, abs=1e-12)
        if family.is_discrete:
            continue
        one_roots, one_distinct = _derivative_roots(family, coef[r][None])
        one = one_roots[0][one_distinct[0]]
        assert np.array_equal(roots[r][distinct[r]], one)
        # numpy.polynomial on the one slice
        if family.kind == "legendre":
            scale = np.sqrt(2 * np.arange(coef.shape[1]) + 1)
            z = np.atleast_1d(np.polynomial.legendre.Legendre(
                coef[r] * scale, domain=[0, 1]).deriv().roots())
            real = z[np.abs(z.imag) < 1e-9].real
        else:  # polyroots of the derivative times z^K, z = e^{2 pi i x}
            a, b = coef[r, 1::2], np.zeros(coef[r, 1::2].size)
            b[:coef[r, 2::2].size] = coef[r, 2::2]
            k = np.arange(1, a.size + 1)
            poly = np.zeros(2 * a.size + 1, dtype=complex)
            poly[a.size + k], poly[a.size - k] = k * (a + 1j * b), k * (a - 1j * b)
            z = np.polynomial.polynomial.polyroots(poly)
            real = np.angle(z[np.abs(np.abs(z) - 1.0) < 1e-6]) / (2 * np.pi) % 1.0
        real = np.sort(real[(real > 1e-10) & (real < 1 - 1e-10)])
        assert np.array_equal(one, real[np.r_[True, np.diff(real) > 1e-9]] if real.size else real)


@pytest.mark.parametrize("policy", POLICIES)
def test_cli_impute_output_does_not_depend_on_the_chunk_size(tmp_path, monkeypatch, policy):
    from hcr import cli, save_model
    model, rng = random_model(11, 3, scale=0.2)
    block = np.vstack([random_block(model, rng) for _ in range(6)])
    table, model_path = tmp_path / "holes.csv", tmp_path / "m.model"
    table.write_text("x1,x2,x3\n" + "".join(
        ",".join("" if np.isnan(c) else repr(float(c)) for c in row) + "\n" for row in block))
    save_model(model, model_path)
    outputs = []
    for chunk in (hcr.tensor_basis.FIT_BLOCK, len(model.spec) * 3, 1):  # 1: one row per block
        monkeypatch.setattr(hcr.tensor_basis, "FIT_BLOCK", chunk)
        out = tmp_path / f"filled-{chunk}.csv"
        assert cli.main(["impute", "--model", str(model_path), "--input", str(table),
                         "--out", str(out), "--report", "--policy", policy]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].count(b"\n") >= len(block) + 1
