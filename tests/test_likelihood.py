import math

import numpy as np
import pytest

from hcr import (REDUCE_LARGEST, RESCALE_ALL, Dataset, Model,
                 NonpositiveMassError, PositivityError, RefineConfig,
                 build_full, discrete, evaluate, find_negative_witness, fit,
                 gradient, legendre, log_likelihood, refine, repair_negative,
                 support, trig)

SQ3 = math.sqrt(3.0)
SQ5 = math.sqrt(5.0)
nan = float("nan")


def make_model(spec, coefs):
    full = {j: coefs.get(j, 0.0) for j in spec.selected}
    ev = {support(j): 25 for j in spec.selected}
    unc = {j: nan for j in spec.selected}
    return Model(spec, full, ev, unc)


def test_loglik_uniform_is_zero():
    rng = np.random.default_rng(31)
    data = Dataset(rng.random((20, 2)))
    m = make_model(build_full(2, legendre(2), 2), {})
    assert log_likelihood(m, data) == 0.0


def test_loglik_constant_density_two():
    a = 0.7
    x0 = (1 + 10 / (7 * SQ3)) / 2  # 1 + a f1 = 2 there
    m = make_model(build_full(1, legendre(1), 1), {(1,): a})
    data = Dataset(np.full((4, 1), x0))
    assert log_likelihood(m, data) == pytest.approx(math.log(2.0), abs=1e-12)


def test_loglik_uses_complete_records_only():
    m = make_model(build_full(2, legendre(1), 1), {(1, 0): 0.2})
    data = Dataset(np.array([[0.25, 0.5], [0.75, nan], [1.0, 0.1]]))
    want = np.mean([math.log(1 + 0.2 * SQ3 * (2 * x - 1)) for x in (0.25, 1.0)])
    assert log_likelihood(m, data) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        log_likelihood(m, Dataset(np.array([[0.5, nan], [nan, 0.5]])))


def test_loglik_rejects_nonpositive_density():
    m = make_model(build_full(1, legendre(2), 2), {(2,): 0.9})
    data = Dataset(np.array([[0.5], [0.1]]))
    with pytest.raises(NonpositiveMassError) as err:
        log_likelihood(m, data)
    assert "0" in str(err.value)  # names the offending record


def test_gradient_at_uniform_start_equals_fit():
    rng = np.random.default_rng(32)
    vals = rng.random((50, 2))
    spec = build_full(2, legendre(2), 2)
    batch = fit(spec, Dataset(vals))
    uniform = make_model(spec, {})
    g = gradient(uniform, Dataset(vals))
    for j in spec.selected:
        if any(j):
            assert abs(g[j] - batch.coefficients[j]) < 1e-12
        else:
            assert g[j] == 0.0


def test_gradient_at_uniform_start_with_missing_cells():
    rng = np.random.default_rng(33)
    vals = rng.random((60, 2))
    vals[rng.random((60, 2)) < 0.25] = nan
    vals[0] = [0.5, 0.5]  # keep at least one complete record
    spec = build_full(2, legendre(1), 1)
    batch = fit(spec, Dataset(vals))
    g = gradient(make_model(spec, {}), Dataset(vals))
    for j in spec.selected:
        if any(j):
            assert abs(g[j] - batch.coefficients[j]) < 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(34)
    data = Dataset(rng.random((50, 2)))
    spec = build_full(2, legendre(2), 2)
    m = fit(spec, data)
    m = m.with_coefficients({j: 0.5 * a for j, a in m.coefficients.items()})
    g = gradient(m, data)
    h = 1e-6
    for j in spec.selected:
        if not any(j):
            continue
        up = dict(m.coefficients)
        dn = dict(m.coefficients)
        up[j] += h
        dn[j] -= h
        fd = (log_likelihood(m.with_coefficients(up), data)
              - log_likelihood(m.with_coefficients(dn), data)) / (2 * h)
        assert abs(g[j] - fd) / max(abs(fd), 1e-12) < 1e-6


def test_gradient_denominator_is_per_record_marginal():
    # hand evaluation of mean f(x)/rho_known(x) with mixed missingness
    rows = np.array([[0.2, 0.7], [0.6, nan], [nan, 0.4], [0.9, 0.1]])
    data = Dataset(rows)
    spec = build_full(2, legendre(1), 1)
    m = make_model(spec, {(1, 0): 0.15, (0, 1): -0.2, (1, 1): 0.1})

    def f1(x):
        return SQ3 * (2 * x - 1)

    def fval(j, x):
        out = 1.0
        for i in support(j):
            out *= f1(x[i]) if j[i] == 1 else 1.0
        return out

    def rho_known(x):
        known = {i for i in range(2) if not np.isnan(x[i])}
        out = 0.0
        for j in spec.selected:
            if set(support(j)) <= known:
                out += m.coefficients[j] * fval(j, x)
        return out

    g = gradient(m, data)
    for j in spec.selected:
        if not any(j):
            continue
        rows_j = [x for x in rows if all(not np.isnan(x[i]) for i in support(j))]
        want = np.mean([fval(j, x) / rho_known(x) for x in rows_j])
        assert g[j] == pytest.approx(want, abs=1e-12)


def test_gradient_rejects_nonpositive_marginal():
    m = make_model(build_full(1, legendre(2), 2), {(2,): 0.9})
    with pytest.raises(NonpositiveMassError):
        gradient(m, Dataset(np.array([[0.5], [0.2]])))


def test_nonpositive_marginal_names_the_callers_record():
    # records of different known sets interleave; record 3 is the bad one
    m = make_model(build_full(2, legendre(2), 2), {(2, 0): 0.9})
    rows = np.array([[nan, 0.3], [0.1, 0.3], [nan, nan], [0.5, nan], [0.9, 0.2]])
    for call in (lambda: gradient(m, Dataset(rows)),
                 lambda: refine(m, Dataset(rows), RefineConfig(steps=1, step_size=0.1))):
        with pytest.raises(NonpositiveMassError, match=r"^record 3 has marginal density -0\.00623"):
            call()


def test_gradient_skips_unsupported_terms():
    spec = build_full(2, legendre(1), 1)
    m = make_model(spec, {})
    data = Dataset(np.array([[0.2, nan], [0.6, nan], [0.9, 0.6]]))
    g = gradient(m, data)
    assert g[(1, 1)] != 0.0  # one pair record
    g2 = gradient(m, Dataset(np.array([[0.2, nan], [0.6, nan]])))
    assert g2[(0, 1)] == 0.0 and g2[(1, 1)] == 0.0  # no evidence at all


def test_refine_config_validation():
    with pytest.raises(ValueError):
        RefineConfig(steps=-1, step_size=0.1)
    with pytest.raises(ValueError):
        RefineConfig(steps=1, step_size=0.0)
    with pytest.raises(ValueError):
        RefineConfig(steps=1, step_size=0.1, ridge=-1.0)
    with pytest.raises(ValueError):
        RefineConfig(steps=1, step_size=0.1, backtrack_factor=1.5)


def test_refine_zero_steps_is_identity():
    rng = np.random.default_rng(35)
    data = Dataset(rng.random((30, 1)))
    m = fit(build_full(1, legendre(2), 2), data)
    out, trace = refine(m, data, RefineConfig(steps=0, step_size=0.1))
    assert trace == []
    assert out.coefficients == m.coefficients


def test_refine_increases_log_likelihood():
    rng = np.random.default_rng(36)
    xs = rng.beta(2.0, 4.0, 300)
    data = Dataset(xs[:, None])
    m = fit(build_full(1, legendre(3), 3), data)
    start = m.with_coefficients({j: 0.4 * a for j, a in m.coefficients.items()})
    before = log_likelihood(start, data)
    out, trace = refine(start, data, RefineConfig(steps=12, step_size=0.5))
    after = log_likelihood(out, data)
    assert after > before
    objs = [t.objective for t in trace]
    assert all(b >= a - 1e-10 for a, b in zip(objs, objs[1:]))
    assert len(trace) == 12
    assert out.coefficients[(0,)] == 1.0


def test_refine_ridge_pulls_coefficients_down():
    rng = np.random.default_rng(37)
    data = Dataset(rng.beta(0.7, 0.7, 200)[:, None])
    m = fit(build_full(1, legendre(2), 2), data)
    plain, _ = refine(m, data, RefineConfig(steps=8, step_size=0.3))
    shrunk, _ = refine(m, data, RefineConfig(steps=8, step_size=0.3, ridge=5.0))

    def norm(model):
        return sum(a * a for j, a in model.coefficients.items() if any(j))

    assert norm(shrunk) < norm(plain)
    assert norm(shrunk) < norm(m)


def test_refine_rejects_nonpositive_start():
    m = make_model(build_full(1, legendre(1), 1), {(1,): 0.7})
    data = Dataset(np.array([[0.0], [0.5]]))  # density at 0 is 1 - 0.7 sq3 < 0
    with pytest.raises(NonpositiveMassError):
        refine(m, data, RefineConfig(steps=1, step_size=0.1))


def test_refine_exhausts_backtracking_when_margin_unreachable():
    # the worst record sits below the margin and the ascent direction
    # pushes it further down, so no step scale is acceptable
    m = make_model(build_full(1, legendre(1), 1), {(1,): 0.35})
    rows = np.concatenate([[0.0], np.ones(9)])[:, None]
    data = Dataset(rows)
    cfg = RefineConfig(steps=1, step_size=0.1, positivity_margin=0.4)
    assert evaluate(m, (0.0,)) < 0.4  # rho = 1 - 0.35 sq3
    g = gradient(m, data)
    assert g[(1,)] > 0  # confirms the direction lowers rho(0)
    with pytest.raises(PositivityError):
        refine(m, data, cfg)


def test_repair_rescale_all_worked_example():
    m = make_model(build_full(1, legendre(2), 2), {(2,): 3 / SQ5})
    assert evaluate(m, (0.5,)) == pytest.approx(-0.5, abs=1e-12)
    fixed = repair_negative(m, (0.5,), strategy=RESCALE_ALL, margin=0.0)
    # t = (0 - 1)/(-1.5) = 2/3 scales every non-constant coefficient
    assert fixed.coefficients[(2,)] == pytest.approx(2 / SQ5, abs=1e-12)
    assert fixed.coefficients[(0,)] == 1.0
    assert evaluate(fixed, (0.5,)) == pytest.approx(0.0, abs=1e-12)


def test_repair_strategies_agree_on_single_coefficient():
    m = make_model(build_full(1, legendre(2), 2), {(2,): 3 / SQ5})
    a = repair_negative(m, (0.5,), strategy=RESCALE_ALL, margin=1e-6)
    b = repair_negative(m, (0.5,), strategy=REDUCE_LARGEST, margin=1e-6)
    assert a.coefficients[(2,)] == pytest.approx(b.coefficients[(2,)], abs=1e-12)


def test_repair_rescale_keeps_signs_and_hits_margin():
    coefs = {(1,): 0.3, (2,): 1.2}
    m = make_model(build_full(1, legendre(2), 2), coefs)
    w = (0.5,)
    assert evaluate(m, w) < 0
    fixed = repair_negative(m, w, strategy=RESCALE_ALL, margin=1e-6)
    assert evaluate(fixed, w) == pytest.approx(1e-6, abs=1e-12)
    for j, a in coefs.items():
        b = fixed.coefficients[j]
        assert 0 < b / a < 1  # shrunk, same sign


def test_repair_reduce_largest_touches_one_coefficient():
    coefs = {(1,): 0.3, (2,): 1.2}
    m = make_model(build_full(1, legendre(2), 2), coefs)
    fixed = repair_negative(m, (0.5,), strategy=REDUCE_LARGEST, margin=1e-6)
    assert fixed.coefficients[(1,)] == 0.3  # f1 contributes nothing at 0.5
    assert fixed.coefficients[(2,)] != 1.2
    assert evaluate(fixed, (0.5,)) == pytest.approx(1e-6, abs=1e-12)


def test_repair_validation():
    m = make_model(build_full(1, legendre(2), 2), {(2,): 0.1})
    with pytest.raises(ValueError):
        repair_negative(m, (0.5,))  # density there is positive
    bad = make_model(build_full(1, legendre(2), 2), {(2,): 0.9})
    with pytest.raises(ValueError):
        repair_negative(bad, (0.5,), strategy="clip")


def test_witness_none_for_safe_model():
    m = make_model(build_full(2, legendre(2), 2), {(1, 1): 0.05})
    assert find_negative_witness(m) is None


def test_witness_finds_center_dip():
    m = make_model(build_full(1, legendre(2), 2), {(2,): 0.9})
    w = find_negative_witness(m)
    assert w is not None
    assert w[0] == pytest.approx(0.5)
    assert evaluate(m, w) < 0
    # corners alone miss it
    assert find_negative_witness(m, budget=2) is None
    with pytest.raises(ValueError):
        find_negative_witness(m, budget=0)


def test_witness_snaps_to_discrete_grid():
    m = make_model(build_full(1, discrete(3), 2), {(1,): -2.0})
    w = find_negative_witness(m)
    assert w is not None
    assert w[0] in (0.0, 0.5, 1.0)
    assert evaluate(m, w) < 0


def test_witness_scans_interior_for_trig():
    # negative pocket away from corners and edge midpoints
    m = make_model(build_full(2, trig(2), 2), {(1, 1): 1.4})
    w = find_negative_witness(m)
    assert w is not None
    assert evaluate(m, w) < 0
