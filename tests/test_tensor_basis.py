import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from hcr import (MissingCoordinateError, build_full, build_sparse,
                 canonical_key, discrete, legendre, support, trig)


def supports(spec):
    # selected non-constant functions grouped by support, in selected order
    groups = {}
    for j in spec.selected:
        if support(j):
            groups.setdefault(support(j), []).append(j)
    return groups


def test_support():
    assert support((0, 0, 0)) == ()
    assert support((2, 0, 1)) == (0, 2)
    assert support((1, 1)) == (0, 1)


def test_canonical_key_orders_by_level_then_support():
    keys = [canonical_key(j) for j in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]]
    assert keys == sorted(keys)
    assert canonical_key((0, 2)) < canonical_key((1, 1))


def test_build_full_counts():
    spec = build_full(2, legendre(2), 2)
    assert len(spec) == 9
    spec = build_full(3, legendre(2), {1: 2, 2: 1, 3: 0})
    assert len(spec) == 1 + 3 * 2 + 3 * 1
    assert list(np.bincount(spec.touch.sum(axis=1))) == [1, 6, 3]


def test_build_full_cardinality_per_subset():
    # every support subset C carries exactly m^|C| functions
    spec = build_full(3, legendre(2), 2)
    groups = supports(spec)
    for coords, members in groups.items():
        assert len(members) == 2 ** len(coords)
    assert len(spec) == 1 + sum(len(m) for m in groups.values())


def test_build_full_zero_level_is_constant_only():
    spec = build_full(2, legendre(3), 0)
    assert spec.selected == ((0, 0),)


def test_build_full_validation():
    with pytest.raises(ValueError):
        build_full(2, discrete(2), 2)  # binary family caps at order 1
    with pytest.raises(ValueError):
        build_full(2, legendre(2), {1: 2})  # level 2 unspecified


def test_build_full_rejects_a_negative_level_order():
    with pytest.raises(ValueError, match="level 2 has negative order -1"):
        build_full(2, legendre(3), {1: 2, 2: -1})
    with pytest.raises(ValueError, match="level 1 has negative order -3"):
        build_full(3, legendre(3), -3)


def test_build_sparse_pair_whitelist():
    spec = build_sparse(4, legendre(1), [{0, 1}, {2, 3}], 1)
    nonconstant = [j for j in spec.selected if any(j)]
    assert nonconstant == [(1, 1, 0, 0), (0, 0, 1, 1)] or \
        sorted(nonconstant) == [(0, 0, 1, 1), (1, 1, 0, 0)]
    assert len(spec) == 3


def test_build_sparse_mixed_orders():
    orders = {frozenset({0}): 2, frozenset({1}): 2, frozenset({0, 1}): 2}
    spec = build_sparse(2, legendre(2), [{0}, {1}, {0, 1}], orders)
    assert len(spec) == 1 + 2 + 2 + 4
    only_pairs = build_sparse(2, legendre(2), [{0, 1}], {frozenset({0, 1}): 1})
    assert [j for j in only_pairs.selected if any(j)] == [(1, 1)]


def test_build_sparse_validation():
    with pytest.raises(ValueError):
        build_sparse(2, legendre(2), [set()], 1)
    with pytest.raises(ValueError):
        build_sparse(2, legendre(2), [{0, 2}], 1)
    with pytest.raises(ValueError):
        build_sparse(2, discrete(3), [{0, 1}], 3)
    with pytest.raises(ValueError, match="order 1000000 exceeds"):  # before expanding
        build_sparse(2, legendre(2), [{0, 1}], 10**6)


def test_selected_is_canonical_and_has_constant():
    spec = build_full(2, legendre(2), 2)
    assert spec.selected[0] == (0, 0)
    keys = [canonical_key(j) for j in spec.selected]
    assert keys == sorted(keys)
    for k, j in enumerate(spec.selected):
        assert spec.position(j) == k


def test_eval_function_values():
    spec = build_full(2, legendre(2), 2)
    s3 = math.sqrt(3.0)
    assert spec.eval_function((0, 0), (0.4, 0.9)) == 1.0
    assert spec.eval_function((1, 0), (1.0, 0.2)) == pytest.approx(s3)
    assert spec.eval_function((1, 1), (1.0, 1.0)) == pytest.approx(3.0)
    assert spec.eval_function((1, 1), (0.25, 0.75)) == pytest.approx(
        (s3 * -0.5) * (s3 * 0.5))


def test_eval_function_ignores_off_support_slots():
    spec = build_full(2, legendre(2), 2)
    # junk outside the support must never be read
    assert spec.eval_function((1, 0), (0.5, float("nan"))) == 0.0
    assert spec.eval_function((0, 1), (7.0, 0.5)) == 0.0
    with pytest.raises(MissingCoordinateError):
        spec.eval_function((1, 1), (0.5, float("nan")))
    with pytest.raises(MissingCoordinateError):
        spec.eval_function((1, 0), (None, 0.5))
    with pytest.raises(ValueError):
        spec.eval_function((2, 2, 2), (0.5, 0.5))


def test_mixed_family_product_orthonormality():
    fams = (legendre(3), trig(3))
    spec = build_full(2, fams, 3)
    x, w = leggauss(30)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    xx, yy = np.meshgrid(x, x, indexing="ij")
    ww = np.outer(w, w).ravel()
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    F = np.array([[spec.eval_function(j, p) for p in pts] for j in spec.selected])
    gram = (F * ww) @ F.T
    assert np.max(np.abs(gram - np.eye(len(spec)))) < 1e-9


def test_three_way_product_orthonormality():
    spec = build_full(3, legendre(2), 2)
    x, w = leggauss(12)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    grids = np.meshgrid(x, x, x, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    ww = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    F = np.array([[spec.eval_function(j, p) for p in pts] for j in spec.selected])
    gram = (F * ww) @ F.T
    assert np.max(np.abs(gram - np.eye(len(spec)))) < 1e-10


def test_supports_grouping():
    spec = build_full(2, legendre(2), {1: 2, 2: 1})
    groups = supports(spec)
    assert set(groups) == {(0,), (1,), (0, 1)}
    assert groups[(0,)] == [(1, 0), (2, 0)]
    assert groups[(0, 1)] == [(1, 1)]
    # first: the position where each function's support starts
    mixed = build_full(3, (legendre(3), trig(2), discrete(3)), {1: 2, 2: 2, 3: 1})
    for s in (spec, mixed):
        want = [[support(k) for k in s.selected].index(support(j)) for j in s.selected]
        assert s.first.tolist() == want


def test_families_broadcast_and_length_check():
    spec = build_full(3, legendre(2), 1)
    assert all(f.kind == "legendre" for f in spec.families)
    with pytest.raises(ValueError):
        build_full(3, (legendre(2), trig(2)), 1)


def test_spec_rejects_negative_orders_and_wrong_lengths():
    from hcr import BasisSpec
    fams = (legendre(2), legendre(2))
    for bad in [(-1, 0), (0, -2), (1,), (1, 0, 0)]:
        with pytest.raises(ValueError, match=r"is not 2 non-negative orders"):
            BasisSpec(2, fams, ((1, 0), bad))
    with pytest.raises(ValueError, match="order 3 exceeds coordinate 1"):
        BasisSpec(2, fams, ((0, 3),))
