import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hcr import (NO_EVIDENCE, UNCERTAINTY_UNDEFINED, Dataset, adapt,
                 build_full, discrete, estimator, fit, lambda_schedule, legendre,
                 prune, support, trig)

SQ3 = math.sqrt(3.0)
SQ5 = math.sqrt(5.0)


def f1(x):
    return SQ3 * (2 * np.asarray(x, dtype=float) - 1)


def f2(x):
    x = np.asarray(x, dtype=float)
    return SQ5 * (6 * x * x - 6 * x + 1)


def test_constant_coefficient_pinned():
    data = Dataset(np.array([[0.2], [0.9]]))
    m = fit(build_full(1, legendre(2), 2), data)
    assert m.coefficients[(0,)] == 1.0
    assert m.uncertainty[(0,)] == 0.0
    assert m.evidence[()] == 2


def test_fit_is_plain_average():
    xs = np.array([0.1, 0.4, 0.7, 0.95])
    m = fit(build_full(1, legendre(2), 2), Dataset(xs[:, None]))
    assert m.coefficients[(1,)] == pytest.approx(np.mean(f1(xs)), abs=1e-14)
    assert m.coefficients[(2,)] == pytest.approx(np.mean(f2(xs)), abs=1e-14)
    assert m.uncertainty[(1,)] == pytest.approx(
        np.std(f1(xs), ddof=1) / 2.0, abs=1e-14)


def test_fit_pairwise_uses_pair_evidence():
    # layout with |K_1| = 5, |K_2| = 4, |K_12| = 3
    nan = float("nan")
    rows = np.array([
        [0.10, 0.30],
        [0.20, nan],
        [0.35, 0.60],
        [0.50, 0.80],
        [0.90, nan],
        [nan, 0.25],
    ])
    data = Dataset(rows)
    assert data.evidence_count((0,)) == 5
    assert data.evidence_count((1,)) == 4
    assert data.evidence_count((0, 1)) == 3
    m = fit(build_full(2, legendre(1), 1), data)
    x_known = rows[~np.isnan(rows[:, 0]), 0]
    y_known = rows[~np.isnan(rows[:, 1]), 1]
    both = rows[~np.isnan(rows).any(axis=1)]
    assert m.coefficients[(1, 0)] == pytest.approx(np.mean(f1(x_known)), abs=1e-14)
    assert m.coefficients[(0, 1)] == pytest.approx(np.mean(f1(y_known)), abs=1e-14)
    assert m.coefficients[(1, 1)] == pytest.approx(
        np.mean(f1(both[:, 0]) * f1(both[:, 1])), abs=1e-14)
    assert m.evidence[(0,)] == 5 and m.evidence[(1,)] == 4 and m.evidence[(0, 1)] == 3


def test_fit_complete_data_matches_naive_average():
    rng = np.random.default_rng(11)
    pts = rng.random((60, 2))
    m = fit(build_full(2, legendre(2), 2), Dataset(pts))
    fs = {0: np.ones(60), 1: f1, 2: f2}
    for j in m.spec.selected:
        if not any(j):
            continue
        vals = np.ones(60)
        for i in support(j):
            vals = vals * fs[j[i]](pts[:, i])
        assert m.coefficients[j] == pytest.approx(np.mean(vals), abs=1e-12)


def test_fit_flags_no_evidence_and_single_record():
    nan = float("nan")
    data = Dataset(np.array([[0.5, nan], [0.25, nan], [0.75, 0.5]]))
    m = fit(build_full(2, legendre(1), 1), data)
    # pair support has exactly one record
    assert m.flags[(1, 1)] == UNCERTAINTY_UNDEFINED
    assert np.isnan(m.uncertainty[(1, 1)])
    assert m.coefficients[(1, 1)] == pytest.approx(f1(0.75) * f1(0.5))
    empty = Dataset(np.array([[0.5, nan], [0.25, nan]]))
    m2 = fit(build_full(2, legendre(1), 1), empty)
    assert m2.flags[(0, 1)] == NO_EVIDENCE
    assert m2.coefficients[(0, 1)] == 0.0
    assert np.isnan(m2.uncertainty[(0, 1)])
    assert m2.evidence[(1,)] == 0


def test_fit_recovers_density_from_stratified_sample():
    # deterministic inverse-cdf sample of rho = 1 + 0.4 f1: the average
    # of f1 over it approaches the true coefficient at quadrature speed
    a = 0.4
    k = 4000
    u = (np.arange(1, k + 1) - 0.5) / k
    # invert U = int_0^x (1 + a f1) analytically: a*sq3*x^2 + (1-a*sq3)x - u = 0
    ca = a * SQ3
    xs = (-(1 - ca) + np.sqrt((1 - ca) ** 2 + 4 * ca * u)) / (2 * ca)
    m = fit(build_full(1, legendre(1), 1), Dataset(xs[:, None]))
    assert m.coefficients[(1,)] == pytest.approx(a, abs=1e-5)


def test_fit_discrete_binary_cell_frequencies():
    rng = np.random.default_rng(12)
    pts = rng.integers(0, 2, size=(300, 2)).astype(float)
    m = fit(build_full(2, discrete(2), 1), Dataset(pts))
    counts = np.zeros((2, 2))
    for a, b in pts.astype(int):
        counts[a, b] += 1
    # with the complete binary basis the model reproduces cell masses
    from hcr import evaluate
    for a in (0, 1):
        for b in (0, 1):
            rho = evaluate(m, (float(a), float(b)))
            assert rho / 4 == pytest.approx(counts[a, b] / 300, abs=1e-12)


def test_adapt_single_step():
    data = Dataset(np.array([[0.5], [0.5]]))  # start from the uniform fit
    m = fit(build_full(1, legendre(1), 1), data)
    assert m.coefficients[(1,)] == 0.0
    x_star = (1 + 1 / SQ3) / 2  # f1 = 1 there
    m2 = adapt(m, [x_star], 0.5)
    assert m2.coefficients[(1,)] == pytest.approx(0.5, abs=1e-12)
    assert m2.evidence[(0,)] == m.evidence[(0,)] + 1
    assert m2.evidence[()] == m.evidence[()] + 1
    assert m.coefficients[(1,)] == 0.0  # original untouched


def test_adapt_skips_unknown_supports():
    nan = float("nan")
    rng = np.random.default_rng(13)
    m = fit(build_full(2, legendre(2), 2), Dataset(rng.random((20, 2))))
    m2 = adapt(m, [0.3, nan], 0.1)
    for j in m.spec.selected:
        if support(j) and set(support(j)) <= {0}:
            assert m2.coefficients[j] != m.coefficients[j]
        elif support(j):
            assert m2.coefficients[j] == m.coefficients[j]
    assert m2.evidence[(0,)] == m.evidence[(0,)] + 1
    assert m2.evidence[(1,)] == m.evidence[(1,)]
    assert m2.evidence[(0, 1)] == m.evidence[(0, 1)]


def test_adapt_geometric_forgetting():
    m = fit(build_full(1, legendre(1), 1), Dataset(np.array([[0.5], [0.5]])))
    x_star = (1 + 1 / SQ3) / 2
    rate = 0.25
    for _ in range(30):
        m = adapt(m, [x_star], rate)
    # distance to the stationary value contracts by (1-rate) per step
    assert abs(m.coefficients[(1,)] - 1.0) == pytest.approx(0.75**30, rel=1e-9)


def test_adapt_validates_inputs():
    m = fit(build_full(1, legendre(1), 1), Dataset(np.array([[0.5], [0.6]])))
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            adapt(m, [0.5], bad)
    with pytest.raises(ValueError):
        adapt(m, [0.5, 0.5], 0.1)


def test_adapt_long_run_tracks_batch_fit():
    # stationary stream: the moving average hovers around the batch value
    rng = np.random.default_rng(14)
    xs = rng.beta(2.0, 3.0, 4000)
    batch = fit(build_full(1, legendre(2), 2), Dataset(xs[:, None]))
    m = fit(build_full(1, legendre(2), 2), Dataset(xs[:200, None]))
    rate = 0.005
    tail = []
    for t, x in enumerate(xs):
        m = adapt(m, [x], rate)
        if t >= 2000:
            tail.append([m.coefficients[(1,)], m.coefficients[(2,)]])
    avg = np.mean(tail, axis=0)
    for k, j in enumerate([(1,), (2,)]):
        assert abs(avg[k] - batch.coefficients[j]) < 3 * batch.uncertainty[j]


def test_lambda_schedule():
    s = lambda_schedule(5)
    assert s[0] == pytest.approx(0.05) and s[-1] == pytest.approx(0.001)
    ratios = s[1:] / s[:-1]
    assert np.allclose(ratios, ratios[0])
    assert len(lambda_schedule(1)) == 1
    with pytest.raises(ValueError):
        lambda_schedule(0)


def test_prune_removes_insignificant_terms():
    rng = np.random.default_rng(15)
    m = fit(build_full(2, legendre(2), 2), Dataset(rng.random((40, 2))))
    # uniform data: every coefficient is noise at scale 1/sqrt(n)
    pruned, removed = prune(m, 50.0)
    assert len(pruned.spec.selected) == 1
    assert len(removed) == 8
    for j, a, u in removed:
        assert abs(a) < 50.0 * u
    same, none_removed = prune(m, 0.0)
    assert none_removed == [] and same is m


def test_prune_keeps_flagged_terms():
    nan = float("nan")
    data = Dataset(np.array([[0.5, nan], [0.25, nan], [0.75, nan]]))
    m = fit(build_full(2, legendre(1), 1), data)
    pruned, removed = prune(m, 1e6)
    kept = set(pruned.spec.selected)
    assert (0, 1) in kept and (1, 1) in kept  # undefined uncertainty survives
    assert (1, 0) not in kept


def test_prune_result_still_evaluates():
    from hcr import evaluate
    rng = np.random.default_rng(16)
    m = fit(build_full(2, legendre(2), 2), Dataset(rng.random((30, 2))))
    pruned, _ = prune(m, 1.0)
    got = evaluate(pruned, (0.3, 0.7))
    want = sum(pruned.coefficients[j]
               * (f1(0.3) if j[0] == 1 else f2(0.3) if j[0] == 2 else 1.0)
               * (f1(0.7) if j[1] == 1 else f2(0.7) if j[1] == 2 else 1.0)
               for j in pruned.spec.selected)
    assert got == pytest.approx(want, abs=1e-12)


def test_evidence_nested_monotone():
    rng = np.random.default_rng(17)
    vals = rng.random((80, 3))
    vals[rng.random((80, 3)) < 0.3] = np.nan
    m = fit(build_full(3, legendre(1), 1), Dataset(vals))
    for coords, count in m.evidence.items():
        for other, count2 in m.evidence.items():
            if set(coords) <= set(other):
                assert count >= count2


def test_fit_keeps_names_and_transforms():
    from hcr import Identity
    data = Dataset(np.array([[0.1], [0.9]]), names=("height",))
    m = fit(build_full(1, legendre(1), 1), data, names=data.names,
            transforms=[Identity()])
    assert m.coordinate_names() == ("height",)
    assert m.transforms[0].kind == "none"


def test_model_views_are_read_only():
    m = fit(build_full(1, legendre(2), 2), Dataset(np.array([[0.2], [0.9], [0.4]])))
    for view, value in ((m.coefficients, 0.9), (m.uncertainty, 0.1), (m.flags, "x")):
        with pytest.raises(TypeError):
            view[(1,)] = value
    for vec in (m.coef, m.unc):
        with pytest.raises(ValueError):
            vec[1] = 0.9
    assert m.coefficients[(1,)] == m.coef[1]


def test_model_neither_changes_nor_keeps_the_callers_mappings():
    from hcr import Model
    spec = build_full(1, legendre(2), 2)
    coefficients = {(1,): 0.25, (2,): -0.125}
    uncertainty = {(1,): 0.01}
    flags = {(2,): NO_EVIDENCE}
    evidence = {(0,): 7}
    m = Model(spec, coefficients, evidence, uncertainty, flags)
    assert coefficients == {(1,): 0.25, (2,): -0.125}
    assert uncertainty == {(1,): 0.01}
    assert flags == {(2,): NO_EVIDENCE} and evidence == {(0,): 7}
    coefficients[(1,)] = 0.9
    evidence[(0,)] = 99
    assert m.coefficients[(1,)] == 0.25 and m.evidence == {(0,): 7}
    assert list(m.coef) == [1.0, 0.25, -0.125]
    assert m.unc[0] == 0.0 and m.unc[1] == 0.01 and np.isnan(m.unc[2])
    assert m.term_flags == ("", "", NO_EVIDENCE)
    with pytest.raises(ValueError, match="coefficient missing"):
        Model(spec, {(1,): 0.25}, evidence, uncertainty)
    with pytest.raises(ValueError, match="expected 3 aligned values"):
        Model(spec, [1.0, 0.25], evidence, uncertainty)


def test_model_rejects_a_mapping_key_outside_the_selected_set():
    from hcr import Model
    spec = build_full(1, legendre(2), 2)
    with pytest.raises(ValueError, match=r"index \(3,\) is not in the selected set"):
        Model(spec, {(1,): 0.2, (2,): 0.1, (3,): 0.5}, {}, {})
    with pytest.raises(ValueError, match=r"index \(0, 1\) is not in the selected set"):
        Model(spec, {(1,): 0.2, (2,): 0.1}, {}, {(0, 1): 0.01})
    with pytest.raises(ValueError, match=r"index \(5,\) is not in the selected set"):
        Model(spec, {(1,): 0.2, (2,): 0.1}, {}, {}, {(5,): NO_EVIDENCE})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_model_rejects_non_finite_coefficients_and_allows_nan_uncertainty(bad):
    from hcr import Model
    spec = build_full(2, legendre(1), 1)
    coef = {(1, 0): 0.1, (0, 1): bad, (1, 1): 0.2}
    with pytest.raises(ValueError, match=r"coefficient of \(0, 1\) is not finite"):
        Model(spec, coef, {}, {})
    model = Model(spec, {(1, 0): 0.1, (0, 1): 0.0, (1, 1): 0.2}, {}, {(1, 0): float("nan")})
    assert np.isnan(model.uncertainty[(1, 0)])
    with pytest.raises(ValueError, match=r"coefficient of \(0, 1\) is not finite"):
        model.with_coefficients(coef)


def _random_fit_case(seed):
    """Mixed families, d from 1 to 5, random level orders within every
    family's capacity, and a small table with random missingness: some
    columns fully missing, some constant, and one fully-missing row, so
    supports with 0 and 1 records and zero spreads occur."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 6))
    families = []
    for _ in range(d):
        kind = rng.integers(3)
        v = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        families.append(legendre(m) if kind == 0 else trig(m) if kind == 1
                        else discrete(v, int(rng.integers(1, v))))
    cap = min(f.max_order for f in families)
    spec = build_full(d, families, {lvl: int(rng.integers(0, cap + 1)) for lvl in range(1, d + 1)})
    n = int(rng.integers(0, 12))
    x = np.empty((n, d))
    for i, f in enumerate(families):
        pool = f.grid if f.is_discrete else np.r_[0.0, 1.0, rng.random(3)]
        x[:, i] = rng.choice(pool[:1] if rng.random() < 0.2 else pool, size=n)
        x[rng.random(n) < rng.choice([0.0, 0.3, 0.6, 1.0]), i] = np.nan
    return spec, np.vstack([x, np.full((1, d), np.nan)])


@pytest.mark.parametrize("rows", [1, 2, 3, 7, None])
@given(seed=st.integers(0, 2**32 - 1))
def test_fit_equals_the_masked_mean(rows, seed):
    spec, x = _random_fit_case(seed)
    block = estimator.FIT_BLOCK if rows is None else rows * len(spec)
    with mock.patch.object(estimator, "FIT_BLOCK", block):
        m = fit(spec, Dataset(x))
    want_flags, want_ev = [], {(): len(x)}
    for p, j in enumerate(spec.selected):
        known = ~np.isnan(x[:, list(support(j))]).any(axis=1)
        want_ev[support(j)] = int(known.sum())
        vals = np.ones(int(known.sum()))
        for i in support(j):
            vals = vals * spec.families[i].eval_all(x[known, i])[j[i]]
        if p == 0:
            want_flags.append("")
            assert m.unc[0] == 0.0
        elif vals.size == 0:
            want_flags.append(NO_EVIDENCE)
            assert m.coef[p] == 0.0 and np.isnan(m.unc[p])
        elif vals.size == 1:
            want_flags.append(UNCERTAINTY_UNDEFINED)
            assert abs(m.coef[p] - vals[0]) <= 1e-12 and np.isnan(m.unc[p])
        else:
            want_flags.append("")
            assert abs(m.coef[p] - vals.mean()) <= 1e-12
            assert abs(m.unc[p] - vals.std(ddof=1) / np.sqrt(vals.size)) <= 1e-12
    assert list(m.term_flags) == want_flags
    assert m.evidence == want_ev


def _fit_peak_mb(n):
    rng = np.random.default_rng([7, n])
    x = rng.beta(2.0, 3.0, size=(n, 6))
    x[rng.random((n, 6)) < 0.2] = np.nan
    spec = build_full(6, legendre(4), {1: 4, 2: 2, 3: 1, 4: 0, 5: 0, 6: 0})
    data = Dataset(x)
    tracemalloc.start()
    try:
        fit(spec, data)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_fit_memory_does_not_grow_with_the_record_count():
    small, large = _fit_peak_mb(20_000), _fit_peak_mb(80_000)
    assert large < 1.5 * small, (small, large)
