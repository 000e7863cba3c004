import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from hcr import (CLUSTER_SPLIT, TOP_MODE, ConditionalSlice, Dataset,
                 MissingCoordinateError, NonpositiveMassError, build_full,
                 build_sparse, clamp, conditional_slice, discrete, evaluate,
                 evaluate_points, fit, impute, legendre, marginalize, support,
                 trig)

SQ3 = math.sqrt(3.0)
SQ5 = math.sqrt(5.0)
nan = float("nan")


def make_model(spec, coefs):
    from hcr import Model
    full = {j: coefs.get(j, 0.0) for j in spec.selected}
    ev = {support(j): 25 for j in spec.selected}
    unc = {j: nan for j in spec.selected}
    return Model(spec, full, ev, unc)


def unit_nodes(n):
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def test_constant_model_is_uniform():
    m = make_model(build_full(2, legendre(2), 2), {})
    for pt in [(0.0, 0.0), (0.5, 0.5), (1.0, 0.25)]:
        assert evaluate(m, pt) == 1.0


def test_evaluate_known_expansion():
    m = make_model(build_full(2, legendre(1), 1), {(1, 0): 0.2})
    assert evaluate(m, (1.0, 0.3)) == pytest.approx(1 + 0.2 * SQ3, abs=1e-14)
    m2 = make_model(build_full(2, legendre(1), 1), {(1, 1): 0.5})
    assert evaluate(m2, (1.0, 1.0)) == pytest.approx(1 + 0.5 * 3.0, abs=1e-13)


def test_evaluate_validates_point():
    m = make_model(build_full(2, legendre(1), 1), {})
    with pytest.raises(MissingCoordinateError):
        evaluate(m, (0.5, nan))
    with pytest.raises(ValueError):
        evaluate(m, (0.5,))
    with pytest.raises(ValueError):
        evaluate(m, (1.5, 0.5))


def test_evaluate_points_tolerates_off_support_nan():
    spec = build_sparse(2, legendre(1), [{0}], 1)
    m = make_model(spec, {(1, 0): 0.1})
    out = evaluate_points(m, np.array([[0.5, nan], [1.0, 0.25]]))
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(1 + 0.1 * SQ3)


def test_clamp():
    assert clamp(-0.3, 0.01) == 0.01
    assert clamp(0.005, 0.01) == 0.01
    assert clamp(0.7, 0.01) == 0.7
    for bad in (0.0, -0.01, float("nan")):  # a NaN floor would let -1.0 through
        with pytest.raises(ValueError):
            clamp(-1.0, bad)


def test_marginalize_drops_foreign_supports():
    rng = np.random.default_rng(21)
    m = fit(build_full(2, legendre(2), 2), Dataset(rng.random((50, 2))))
    mx = marginalize(m, {0})
    assert all(set(support(j)) <= {0} for j in mx.spec.selected)
    assert mx.d == m.d
    for j in mx.spec.selected:
        assert mx.coefficients[j] == m.coefficients[j]
    # the marginal matches integrating the joint over x2
    x, w = unit_nodes(32)
    for x1 in (0.1, 0.5, 0.8):
        joint = sum(wk * evaluate(m, (x1, xk)) for xk, wk in zip(x, w))
        got = evaluate_points(mx, np.array([[x1, nan]]))[0]
        assert got == pytest.approx(joint, abs=1e-12)
    with pytest.raises(ValueError):
        marginalize(m, set())
    with pytest.raises(ValueError):
        marginalize(m, {0, 5})
    # a bool or float is no coordinate index, as for conditional_slice
    for bad in (True, 1.0, "1"):
        with pytest.raises(ValueError, match=f"coordinate {bad!r} is not an index in 0..1"):
            marginalize(m, {bad})
    assert marginalize(m, {np.int64(0)}).spec.selected == mx.spec.selected


def test_slice_of_constant_model():
    m = make_model(build_full(2, legendre(2), 2), {})
    sl = conditional_slice(m, {1: 0.3}, 0)
    x = np.linspace(0, 1, 11)
    assert np.allclose(sl.evaluate(x), 1.0, atol=1e-14)
    assert sl.denominator == pytest.approx(1.0)


def test_slice_groups_by_free_order():
    m = make_model(build_full(2, legendre(2), 2),
                   {(1, 0): 0.2, (0, 1): 0.1, (1, 1): 0.3, (2, 1): -0.2})
    y = 0.7
    sl = conditional_slice(m, {1: y}, 0)
    den = 1 + 0.1 * SQ3 * (2 * y - 1)
    assert sl.denominator == pytest.approx(den, abs=1e-14)
    assert sl.numerator[1] == pytest.approx(0.2 + 0.3 * SQ3 * (2 * y - 1), abs=1e-14)
    assert sl.numerator[2] == pytest.approx(-0.2 * SQ3 * (2 * y - 1), abs=1e-14)
    # matches the joint density ratio pointwise
    x, w = unit_nodes(24)
    for x1 in (0.2, 0.9):
        joint = evaluate(m, (x1, y))
        marg = sum(wk * evaluate(m, (xk, y)) for xk, wk in zip(x, w))
        assert sl.evaluate(x1) == pytest.approx(joint / marg, abs=1e-12)


def test_slice_validation():
    m = make_model(build_full(2, legendre(1), 1), {})
    with pytest.raises(ValueError):
        conditional_slice(m, {1: 0.5}, 1)  # free coordinate already known
    with pytest.raises(ValueError):
        conditional_slice(m, {1: 0.5}, 5)
    with pytest.raises(ValueError):
        conditional_slice(m, {1: 1.5}, 0)


@pytest.mark.parametrize("known, i, named", [
    ({0.5: 0.5}, 1, "coordinate 0.5 "), ({"0": 0.5}, 1, "coordinate '0' "),
    ({0: 0.5}, 1.0, "coordinate 1.0 "), ({0: 0.5}, True, "coordinate True "),
    ({0: nan}, 1, "known coordinate 0 has value nan"),
    ({0: "abc"}, 1, "known coordinate 0 has value 'abc', not a number"),
    ({0: [0.5]}, 1, "known coordinate 0 has value [0.5], not a number")])
def test_slice_names_a_key_that_is_no_index_and_a_nan_known_value(known, i, named):
    m = make_model(build_full(2, legendre(1), 1), {(1, 0): 0.2})
    with pytest.raises(ValueError) as err:
        conditional_slice(m, known, i)
    assert str(err.value).startswith(named)
    assert conditional_slice(m, {np.int64(0): 0.5}, np.int64(1)).free_coordinate == 1


def test_slice_nonpositive_mass_error_carries_value():
    m = make_model(build_full(2, legendre(2), 2), {(0, 2): 0.9})
    # at x2 = 0.5 the evidence restriction is 1 - 0.9*sq5/2 < 0
    with pytest.raises(NonpositiveMassError) as err:
        conditional_slice(m, {1: 0.5}, 0)
    assert err.value.denominator == pytest.approx(1 - 0.9 * SQ5 / 2, abs=1e-12)


def test_slice_integrates_to_one():
    rng = np.random.default_rng(22)
    x, w = unit_nodes(48)
    for _ in range(25):
        spec = build_full(2, (legendre(3), trig(3)), 3)
        coefs = {j: 0.3 * rng.standard_normal() for j in spec.selected if any(j)}
        m = make_model(spec, coefs)
        known = {1: float(rng.random())}
        try:
            sl = conditional_slice(m, known, 0)
        except NonpositiveMassError:
            continue
        assert np.sum(w * sl.evaluate(x)) == pytest.approx(1.0, abs=1e-10)


def test_slice_matches_brute_force_conditional():
    rng = np.random.default_rng(23)
    spec = build_full(3, legendre(2), 2)
    coefs = {j: 0.15 * rng.standard_normal() for j in spec.selected if any(j)}
    m = make_model(spec, coefs)
    x, w = unit_nodes(32)
    sl = conditional_slice(m, {0: 0.3, 2: 0.8}, 1)
    den = np.sum(w * np.array([evaluate(m, (0.3, t, 0.8)) for t in x]))
    for t in (0.1, 0.5, 0.77):
        want = evaluate(m, (0.3, t, 0.8)) / den
        assert sl.evaluate(t) == pytest.approx(want, abs=1e-10)


def test_slice_moments_uniform():
    m = make_model(build_full(1, legendre(3), 3), {})
    mom = conditional_slice(m, {}, 0).expected_value()
    assert mom.mean == pytest.approx(0.5)
    assert mom.variance == pytest.approx(1 / 12)
    assert mom.negative_region is False


def test_slice_moments_shifted():
    a = 0.2
    m = make_model(build_full(1, legendre(1), 1), {(1,): a})
    mom = conditional_slice(m, {}, 0).expected_value()
    # E x = 1/2 + a/(2 sqrt(3)) for rho = 1 + a f1
    assert mom.mean == pytest.approx(0.5 + a / (2 * SQ3), abs=1e-12)
    x, w = unit_nodes(16)
    rho = 1 + a * SQ3 * (2 * x - 1)
    var = np.sum(w * x * x * rho) - np.sum(w * x * rho) ** 2
    assert mom.variance == pytest.approx(var, abs=1e-12)


def test_slice_moments_flag_negative_region():
    m = make_model(build_full(1, legendre(1), 1), {(1,): 0.8})
    mom = conditional_slice(m, {}, 0).expected_value()
    assert mom.negative_region is True  # 1 + 0.8 f1 dips below 0 at x=0
    assert 0.0 <= mom.mean <= 1.0


def test_slice_moments_discrete():
    m = make_model(build_full(1, discrete(3), 2), {(1,): 0.3})
    sl = conditional_slice(m, {}, 0)
    grid = np.array([0.0, 0.5, 1.0])
    p = sl.evaluate(grid) / 3
    assert np.sum(p) == pytest.approx(1.0, abs=1e-12)
    mom = sl.expected_value()
    assert mom.mean == pytest.approx(np.sum(grid * p), abs=1e-12)
    assert mom.variance == pytest.approx(
        np.sum(grid**2 * p) - np.sum(grid * p) ** 2, abs=1e-12)


def test_top_mode_unimodal():
    # rho = 1 - 0.4 f2 peaks at the center
    m = make_model(build_full(1, legendre(2), 2), {(2,): -0.4})
    value, tied = conditional_slice(m, {}, 0).top_mode()
    assert value == pytest.approx(0.5, abs=1e-9)
    assert tied is False


def test_top_mode_tie_prefers_smaller_coordinate():
    # rho = 1 + 0.3 f2 is symmetric with maxima at both ends
    m = make_model(build_full(1, legendre(2), 2), {(2,): 0.3})
    value, tied = conditional_slice(m, {}, 0).top_mode()
    assert value == 0.0
    assert tied is True


def test_top_mode_tie_is_relative_to_the_slice_scale():
    # grid values 3e5 and 3e5 + 3e-8 differ by 1e-13 of the largest: a tie,
    # which an absolute 1e-12 rule missed above 1e4
    fam = discrete(3)
    table = fam.eval_all(fam.grid)
    sl = ConditionalSlice(0, fam, table @ np.array([1e5, 1e5 + 1e-8, 1.0]), 1.0)
    assert sl.top_mode() == (0.0, True)
    sl = ConditionalSlice(0, fam, table @ np.array([1e5, 1e5 + 1e-6, 1.0]), 1.0)
    assert sl.top_mode() == (0.5, False)


def test_top_mode_discrete():
    m = make_model(build_full(1, discrete(3), 2), {(1,): 0.4})
    value, tied = conditional_slice(m, {}, 0).top_mode()
    assert value == 1.0 and tied is False


def test_clusters_uniform_single():
    m = make_model(build_full(1, legendre(2), 2), {})
    clusters = conditional_slice(m, {}, 0).modes_and_clusters()
    assert len(clusters) == 1
    c = clusters[0]
    assert (c.lo, c.hi) == (0.0, 1.0)
    assert c.mass == pytest.approx(1.0, abs=1e-12)
    assert c.mean == pytest.approx(0.5, abs=1e-12)


def test_clusters_symmetric_bimodal():
    m = make_model(build_full(1, legendre(2), 2), {(2,): 0.3})
    clusters = conditional_slice(m, {}, 0).modes_and_clusters()
    assert len(clusters) == 2
    by_lo = sorted(clusters, key=lambda c: c.lo)
    assert by_lo[0].hi == pytest.approx(0.5, abs=1e-9)
    assert by_lo[0].mass + by_lo[1].mass == pytest.approx(1.0, abs=1e-10)
    assert by_lo[0].mass == pytest.approx(by_lo[1].mass, abs=1e-9)
    assert by_lo[0].mean + by_lo[1].mean == pytest.approx(1.0, abs=1e-9)


def test_clusters_ordered_by_mass():
    m = make_model(build_full(1, legendre(2), 2), {(1,): 0.25, (2,): 0.3})
    clusters = conditional_slice(m, {}, 0).modes_and_clusters()
    masses = [c.mass for c in clusters]
    assert masses == sorted(masses, reverse=True)


def test_clusters_sliver_absorbed_entirely():
    # left cluster holds ~0.002 mass: merged away, one cluster remains
    coefs = {(1,): 0.18, (2,): -0.23, (3,): -0.045, (4,): 0.04}
    m = make_model(build_full(1, legendre(4), 4), coefs)
    clusters = conditional_slice(m, {}, 0).modes_and_clusters()
    assert len(clusters) == 1
    assert clusters[0].lo == 0.0 and clusters[0].hi == 1.0
    assert clusters[0].mass == pytest.approx(1.0, abs=1e-10)


def test_clusters_sliver_merges_into_neighbor():
    # three raw clusters; the right sliver (~0.003) joins the middle one
    coefs = {(1,): 0.2415, (2,): 0.1217, (3,): -0.2857, (4,): 0.1107}
    m = make_model(build_full(1, legendre(4), 4), coefs)
    clusters = conditional_slice(m, {}, 0).modes_and_clusters()
    assert len(clusters) == 2
    assert all(c.mass >= 0.01 for c in clusters)
    big = clusters[0]
    assert big.hi == 1.0  # absorbed the sliver at the right edge
    assert big.mass == pytest.approx(0.80838, abs=1e-3)
    assert sum(c.mass for c in clusters) == pytest.approx(1.0, abs=1e-10)


def test_clusters_discrete_per_grid_value():
    m = make_model(build_full(1, discrete(3), 2), {(1,): 0.3})
    clusters = conditional_slice(m, {}, 0).modes_and_clusters()
    assert sum(c.mass for c in clusters) == pytest.approx(1.0, abs=1e-12)
    assert all(c.lo == c.hi == c.mean for c in clusters)


def test_impute_uniform_expected():
    m = make_model(build_full(2, legendre(2), 2), {})
    out = impute(m, (0.3, nan))
    assert len(out) == 1
    assert out[0].values[1] == pytest.approx(0.5)
    assert out[0].values[0] == 0.3
    assert out[0].weight == 1.0
    assert out[0].variances[1] == pytest.approx(1 / 12)


def test_impute_validates_record():
    m = make_model(build_full(2, legendre(1), 1), {})
    with pytest.raises(ValueError):
        impute(m, (0.3, 0.5))  # nothing missing
    with pytest.raises(ValueError):
        impute(m, (0.3,))
    with pytest.raises(ValueError):
        impute(m, (0.3, nan), policy="median")


def test_impute_additive_model_conditions_sequentially():
    # no cross terms, but the additive density still couples the two
    # coordinates: once x1 is filled at its marginal mean, the x2 slice
    # renormalizes by the x1 restriction 1 + 0.2*f1(x1) = 1.04 exactly
    spec = build_sparse(2, legendre(2), [{0}, {1}], 2)
    m = make_model(spec, {(1, 0): 0.2, (0, 1): -0.1})
    out = impute(m, (nan, nan))
    assert len(out) == 1
    assert out[0].values[0] == pytest.approx(0.5 + 0.2 / (2 * SQ3), abs=1e-12)
    assert out[0].values[1] == pytest.approx(0.5 - 0.1 / (1.04 * 2 * SQ3),
                                             abs=1e-12)


def test_impute_fills_smallest_variance_first():
    # x2 has the narrower marginal, so it is filled first and its mean
    # feeds the x1 slice through the pair term
    m = make_model(build_full(2, legendre(1), 1), {(0, 1): 0.3, (1, 1): 0.4})
    out = impute(m, (nan, nan))
    assert len(out) == 1
    x2 = 0.5 + 0.3 / (2 * SQ3)
    assert SQ3 * (2 * x2 - 1) == pytest.approx(0.3)  # f1 at the fill
    x1 = 0.5 + (0.4 * 0.3 / (1 + 0.3 * 0.3)) / (2 * SQ3)
    assert out[0].values[1] == pytest.approx(x2, abs=1e-12)
    assert out[0].values[0] == pytest.approx(x1, abs=1e-12)
    # wrong order would leave x1 at 0.5
    assert abs(out[0].values[0] - 0.5) > 1e-3


def test_impute_top_mode_policy():
    m = make_model(build_full(2, legendre(2), 2), {(0, 2): -0.4})
    out = impute(m, (0.5, nan), policy=TOP_MODE)
    assert len(out) == 1
    assert out[0].values[1] == pytest.approx(0.5, abs=1e-9)
    tie = make_model(build_full(2, legendre(2), 2), {(0, 2): 0.3})
    out = impute(tie, (0.5, nan), policy=TOP_MODE)
    assert out[0].values[1] == 0.0
    assert any(note.startswith("mode-tie:") for note in out[0].notes)


def test_impute_cluster_split_branches():
    m = make_model(build_full(2, legendre(2), 2), {(0, 2): 0.3})
    out = impute(m, (0.5, nan), policy=CLUSTER_SPLIT)
    assert len(out) == 2
    assert sum(c.weight for c in out) == pytest.approx(1.0, abs=1e-12)
    values = sorted(c.values[1] for c in out)
    assert values[0] + values[1] == pytest.approx(1.0, abs=1e-8)
    assert out[0].weight == pytest.approx(out[1].weight, abs=1e-8)


def test_impute_cluster_split_on_unimodal_slice_is_single():
    m = make_model(build_full(2, legendre(2), 2), {(0, 2): -0.3})
    out = impute(m, (0.5, nan), policy=CLUSTER_SPLIT)
    assert len(out) == 1 and out[0].weight == 1.0


def test_impute_notes_negative_region():
    m = make_model(build_full(2, legendre(1), 1), {(0, 1): 0.8})
    out = impute(m, (1.0, nan))
    assert any(note.startswith("negative-region:") for note in out[0].notes)


def test_impute_discrete_snaps_to_grid():
    m = make_model(build_full(2, (legendre(1), discrete(3)), 1), {(0, 1): 0.5})
    out = impute(m, (0.9, nan))
    # the raw conditional mean is ~0.704; the grid admits only thirds
    assert out[0].values[1] == 0.5


def test_impute_weights_renormalized_in_two_steps():
    m = make_model(build_full(2, legendre(2), 2), {(2, 0): 0.3, (0, 2): 0.3})
    out = impute(m, (nan, nan), policy=CLUSTER_SPLIT)
    assert len(out) == 4  # both coordinates branch
    assert sum(c.weight for c in out) == pytest.approx(1.0, abs=1e-12)
    for c in out:
        assert not np.any(np.isnan(c.values))
        assert np.all((c.values >= 0) & (c.values <= 1))


def test_impute_propagates_mass_error_from_bad_evidence():
    m = make_model(build_full(2, legendre(2), 2), {(0, 2): 0.9})
    # filling x2 only restricts to x1 = 0.5, which has positive mass
    out = impute(m, (0.5, nan))
    assert len(out) == 1
    # the record knowing x2 = 0.5 restricts to a nonpositive region
    with pytest.raises(NonpositiveMassError):
        impute(m, (nan, 0.5))


def test_evaluate_points_rejects_nan_in_a_read_coordinate():
    m = make_model(build_full(2, legendre(2), 2), {(1, 0): 0.2, (0, 1): 0.1})
    with pytest.raises(MissingCoordinateError, match=r"point 0 is missing coordinates \[0\]"):
        evaluate_points(m, [[nan, 0.5], [0.0, 0.5]])
    with pytest.raises(MissingCoordinateError, match=r"point 1 is missing coordinates \[0, 1\]"):
        evaluate_points(m, [[0.5, 0.5], [nan, nan]])


def test_evaluate_points_rejects_the_wrong_point_width():
    m = make_model(build_full(3, legendre(2), 2), {(1, 0, 0): 0.2})
    for width in (1, 2, 4):
        with pytest.raises(ValueError, match="width 3"):
            evaluate_points(m, np.full((5, width), 0.5))


def test_conditional_slice_rejects_a_known_point_of_the_wrong_length():
    m = make_model(build_full(3, legendre(2), 2), {(1, 1, 0): 0.2})
    for known in ([nan, 0.2], [nan, 0.2, 0.3, 0.4], [[nan, 0.2, 0.3]]):
        with pytest.raises(ValueError, match="length-3"):
            conditional_slice(m, known, 0)
    assert conditional_slice(m, [nan, 0.2, nan], 0).free_coordinate == 0


def _ten_d_mixed():
    """A model shaped like the benchmark's impute_mixed one: six
    legendre(3), two trig(3) and two discrete(5, 3) columns with orders
    {1: 3, 2: 2} (211 functions), fitted on 2000 beta(2, 3) records."""
    rng = np.random.default_rng(5)
    x = rng.beta(2.0, 3.0, (2000, 10))
    x[:, 1] = np.clip(x[:, 0] + rng.normal(0.0, 0.1, 2000), 0.0, 1.0)
    x[:, 8:] = np.rint(x[:, 8:] * 4) / 4
    families = [legendre(3)] * 6 + [trig(3)] * 2 + [discrete(5, 3)] * 2
    spec = build_full(10, families, {1: 3, 2: 2, **dict.fromkeys(range(3, 11), 0)})
    return fit(spec, Dataset(x)), x


def _peak(call, *args):
    """The tracemalloc peak of call(*args), after an untraced call that
    keeps first-call allocations (the model's layout, cached tables) out."""
    call(*args)
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_row_impute_holds_no_functions_by_cells_table():
    model, x = _ten_d_mixed()
    record = x[3].copy()
    record[[1, 4, 6, 9]] = np.nan
    # 32.9 KB when a row carried its functions' products and a step
    # bincounted functions x cells tables; 11.0 KB on its single rows
    assert _peak(impute, model, record) < 32908 / 2


def test_conditional_slice_holds_no_functions_by_cells_table():
    model, x = _ten_d_mixed()
    known = x[7].copy()
    known[[2, 5]] = np.nan
    # 11.6 KB with the point's products and the bincount; 4.9 KB through contract
    assert _peak(conditional_slice, model, known, 2) < 11565 / 2
