import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hcr import (NO_EVIDENCE, UNCERTAINTY_UNDEFINED, BasisSpec, Dataset, Model,
                 RefineConfig, adapt, build_full, discrete, evaluate_points, fit, gradient,
                 lambda_schedule, legendre, log_likelihood, prune, refine, support,
                 tensor_basis, trig)
from hcr.likelihood import _Workspace

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
    knows = ~np.isnan(rows)
    assert knows[:, 0].sum() == 5 and knows[:, 1].sum() == 4 and knows.all(axis=1).sum() == 3
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
    assert len(lambda_schedule(np.int64(3))) == 3
    with pytest.raises(ValueError):
        lambda_schedule(0)
    for bad in (2.5, True, 3.0):  # 2.5 and 3.0 gave 3 rates, True gave 1
        with pytest.raises(ValueError, match=f"horizon must be an integer >= 1, got {bad!r}"):
            lambda_schedule(bad)
    # adapt's rate range (0, 1), NaN outside it
    for start, end in ((float("nan"), 0.001), (0.05, float("nan")), (0.0, 0.001),
                       (1.0, 0.001), (0.05, 0.0), (0.05, -0.1), (1.5, 0.5)):
        with pytest.raises(ValueError, match="rate must lie in"):
            lambda_schedule(3, start, end)


def test_prune_removes_insignificant_terms():
    rng = np.random.default_rng(15)
    m = fit(build_full(2, legendre(2), 2), Dataset(rng.random((40, 2))))
    # uniform data: every coefficient is noise at scale 1/sqrt(n)
    pruned, removed = prune(m, 50.0)
    assert len(pruned.spec.selected) == 1
    assert pruned.spec == BasisSpec(2, m.spec.families, ((0, 0),))
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
    for view, value in ((m.coefficients, 0.9), (m.uncertainty, 0.1), (m.flags, "x"),
                        (m.evidence, 7)):
        with pytest.raises(TypeError):
            view[(1,)] = value
    for vec in (m.coef, m.unc, m.count):
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
    assert m.coefficients[(1,)] == 0.25 and m.evidence == {(): 0, (0,): 7}
    assert list(m.count) == [0, 7, 7]
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
    # evidence is keyed by support: a key no selected function has raises
    spec = build_full(2, legendre(2), {1: 2, 2: 0})
    coefficients = dict.fromkeys(spec.selected[1:], 0.0)
    for key in [(4,), (0, 1), (1, 0)]:
        with pytest.raises(ValueError) as err:
            Model(spec, coefficients, {(0,): 7, key: 3}, {})
        assert str(err.value) == f"support {key} is not in the selected set"
    with pytest.raises(ValueError, match="expected 5 aligned values"):
        Model(spec, coefficients, [0, 7, 7], {})


def test_model_rejects_aligned_evidence_that_differs_within_a_support():
    from hcr import Model
    spec = build_full(1, legendre(2), 2)
    with pytest.raises(ValueError, match=r"support \(0,\) has evidence 7 and 8"):
        Model(spec, [1.0, 0.1, 0.2], [9, 7, 8], [0.0, 0.1, 0.1])
    assert Model(spec, [1.0, 0.1, 0.2], [9, 7, 7], [0.0, 0.1, 0.1]).evidence == {(): 9, (0,): 7}
    # the constant's count is its own, and each pair support is checked on its own
    spec = build_full(2, legendre(2), {1: 1, 2: 2})
    count = [5, 3, 4, 2, 2, 2, 2]
    assert Model(spec, [0.0] * 7, count, [0.0] * 7).count.tolist() == count
    with pytest.raises(ValueError, match=r"support \(0, 1\) has evidence 2 and 1"):
        Model(spec, [0.0] * 7, count[:6] + [1], [0.0] * 7)


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


def _unc_tolerance(vals):
    """fit's uncertainty tolerance: a block's squared deviations are
    sum f^2 - mean * sum f, which loses up to about 1e-14 of sum f^2 to
    cancellation (2.2e-16 seen); through the square root that is
    sqrt(1e-14 * sum f^2 / (c (c - 1))) for c records, on top of 1e-12."""
    return 1e-12 + np.sqrt(1e-14 * np.sum(vals * vals) / (vals.size * (vals.size - 1)))


@pytest.mark.parametrize("rows", [1, 2, 3, 7, None])
@given(seed=st.integers(0, 2**32 - 1))
def test_fit_equals_the_masked_mean(rows, seed):
    spec, x = _random_fit_case(seed)
    block = tensor_basis.FIT_BLOCK if rows is None else rows * len(spec)
    with mock.patch.object(tensor_basis, "FIT_BLOCK", block):
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
            assert abs(m.unc[p] - vals.std(ddof=1) / np.sqrt(vals.size)) <= _unc_tolerance(vals)
    assert list(m.term_flags) == want_flags
    assert m.evidence == want_ev


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(9, 12), rows=st.sampled_from([1, 3, None]))
def test_fit_evidence_and_flags_are_exact_past_one_byte(seed, d, rows):
    # 9 to 12 coordinates pack into two presence bytes
    rng = np.random.default_rng(seed)
    selected = set()
    for _ in range(int(rng.integers(1, 25))):
        j = np.zeros(d, int)
        j[rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)] = 1
        selected.add(tuple(j.tolist()))
    spec = BasisSpec(d, (legendre(1),) * d, tuple(selected))
    n = int(rng.integers(0, 30))
    x = rng.random((n, d))
    x[rng.random((n, d)) < rng.choice([0.0, 0.1, 0.3])] = np.nan
    x[:, rng.integers(d)] = np.nan if rng.random() < 0.3 else x[:, 0]
    x = np.vstack([x, np.full((1, d), np.nan)])
    block = tensor_basis.FIT_BLOCK if rows is None else rows * len(spec)
    with mock.patch.object(tensor_basis, "FIT_BLOCK", block):
        m = fit(spec, Dataset(x))
    want_ev, want_flags = {}, []
    for j in spec.selected:
        count = int((~np.isnan(x[:, list(support(j))])).all(axis=1).sum())
        want_ev[support(j)] = count
        want_flags.append(NO_EVIDENCE if count == 0 else UNCERTAINTY_UNDEFINED if count == 1
                          else "")
    want_flags[0] = ""
    assert m.evidence == want_ev
    assert list(m.term_flags) == want_flags


def test_fit_keeps_the_uncertainty_of_concentrated_data():
    # sd / |mean| of 2.5e-4 for the order-1 functions: a block's sum f^2 and
    # mean * sum f agree to 8 digits, so the one-pass spread keeps about 8
    # (4.4e-9 relative here); a constant coordinate's spread is 0, and the
    # m2 clamp keeps its uncertainty a number
    rng = np.random.default_rng(21)
    x = np.clip(0.9 + 1e-4 * rng.standard_normal((20_000, 4)), 0.0, 1.0)
    x[:, 3] = 0.9
    x[rng.random(x.shape) < 0.2] = np.nan
    spec = build_full(4, legendre(2), {1: 2, 2: 2, 3: 1, 4: 0})
    m = fit(spec, Dataset(x))
    assert np.array_equal(np.isnan(m.unc[1:]), m.count[1:] < 2)
    for p, j in enumerate(spec.selected[1:], start=1):
        known = ~np.isnan(x[:, list(support(j))]).any(axis=1)
        vals = np.ones(int(known.sum()))
        for i in support(j):
            vals = vals * spec.families[i].eval_all(x[known, i])[j[i]]
        want = vals.std(ddof=1) / np.sqrt(vals.size)
        if support(j) == (3,):
            assert want < 1e-15 and abs(m.unc[p] - want) <= _unc_tolerance(vals)
        else:
            assert m.unc[p] == pytest.approx(want, rel=1e-7)
    assert min(m.unc[1:4] * np.sqrt(m.count[1:4]) / np.abs(m.coef[1:4])) < 3e-4


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


def _twenty_k_by_six(n=20_000):
    """20k (or n) records of six beta(2, 3) coordinates with 20% of cells
    missing, and the 6-d Legendre basis with orders {1: 4, 2: 2, 3: 1}."""
    rng = np.random.default_rng([7, n])
    x = rng.beta(2.0, 3.0, size=(n, 6))
    x[rng.random(x.shape) < 0.2] = np.nan
    return build_full(6, legendre(4), {1: 4, 2: 2, 3: 1, 4: 0, 5: 0, 6: 0}), Dataset(x)


def _workspace_pass_peak(model, data):
    """The peak of the first pass and one density and gradient pass that
    reads every block (no floor stops it)."""
    tracemalloc.start()
    try:
        _Workspace(model, data).read(model.coef, -np.inf, grad=True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_refine_workspace_holds_factors_not_function_values():
    spec, data = _twenty_k_by_six()
    peak = _workspace_pass_peak(fit(spec, data), data)
    # the function values alone would take len(spec) * n * 8 bytes
    assert peak < len(spec) * data.n * 8 / 2, peak


def test_refine_workspace_holds_single_rows_and_one_block():
    spec, data = _twenty_k_by_six()
    peak = _workspace_pass_peak(fit(spec, data), data)
    # single_count = 24 single rows per record, where the product rows would
    # add 11, is more than a pass holds: a few floats per record, and one
    # row block's temporaries (its tables, single and product rows)
    assert peak < (spec.single_count * data.n + tensor_basis.FIT_BLOCK) * 8, peak


def _pass_peak(op, n):
    """The tracemalloc peak of refine (two steps), log_likelihood or
    gradient at the uniform density on n records of _twenty_k_by_six."""
    spec, data = _twenty_k_by_six(n)
    model = Model(spec, np.zeros(len(spec)), {}, {})  # the uniform density
    call = {"refine": lambda d: refine(model, d, RefineConfig(steps=2, step_size=0.01)),
            "log_likelihood": lambda d: log_likelihood(model, d),
            "gradient": lambda d: gradient(model, d)}[op]
    call(Dataset(data.values[:100]))  # first-call allocations stay out
    tracemalloc.start()
    try:
        call(data)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _bytes_per_added_record(op):
    return (_pass_peak(op, 80_000) - _pass_peak(op, 20_000)) / 60_000


def test_refine_memory_grows_by_a_few_floats_per_record():
    spec, _ = _twenty_k_by_six(10)
    per_record = _bytes_per_added_record("refine")
    # the usable and complete masks, one byte each; keeping the densities
    # took 18 bytes per record, and keeping every record's single rows would
    # add spec.single_count = 24 floats
    assert per_record < 4 < spec.single_count * 8, per_record


@pytest.mark.parametrize("op", ["log_likelihood", "gradient"])
def test_likelihood_passes_grow_by_their_masks_per_record(op):
    # the masks of the workspace pass; log_likelihood's copy of the complete
    # records and its densities took 17 bytes per record, gradient's
    # densities 10
    per_record = _bytes_per_added_record(op)
    assert per_record < 4, per_record


def test_fit_holds_one_block_of_values_at_a_time():
    spec, data = _twenty_k_by_six()
    fit(spec, Dataset(data.values[:10]))  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        fit(spec, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of values would be FIT_BLOCK * 8 bytes; fit holds a block's
    # single and product rows and its cover (0.43 of it), never a value of
    # a function (0.71 when it formed them a chunk at a time)
    assert peak < 0.6 * tensor_basis.FIT_BLOCK * 8, peak


def _peak(call, *args):
    """The tracemalloc peak of call(*args), after an untraced call that
    keeps first-call allocations out of it."""
    call(*args)
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_singles_of_one_block_peak_below_twice_their_rows():
    spec, data = _twenty_k_by_six()
    block = data.values[:2496]  # one FIT_BLOCK row block, with missing cells
    # the rows are written in place: beside them only the points' transposed
    # copy, its NaN mask and one row of the recurrence
    assert _peak(spec._singles, block) < 2 * spec.single_count * len(block) * 8


def test_covered_holds_its_result_and_at_most_one_byte_array():
    spec, data = _twenty_k_by_six()
    present = ~np.isnan(data.values[:2496])
    assert _peak(spec.covered, present) < 2 * len(spec) * len(present)


def test_evaluate_points_holds_less_than_one_block_of_values():
    spec, data = _twenty_k_by_six()
    model = fit(spec, data)
    complete = data.values[data.complete_mask()]
    # one refilled buffer of single rows and one of product rows and
    # densities, one level's GEMM result and the output (0.53 blocks of
    # values while the NaN mask, a transposed copy of each block and the
    # previous level's GEMM result stayed alive)
    assert _peak(evaluate_points, model, complete) < 0.47 * tensor_basis.FIT_BLOCK * 8
