"""Round trips over random inputs: model and transforms files, category grids."""
import io
import re

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from hcr import (NO_EVIDENCE, UNCERTAINTY_UNDEFINED, CategoryGrid, Identity,
                 Logistic, Model, Rescale, build_full, discrete, fit_empirical_cdf,
                 legendre, load_model, save_model, support, trig)
from hcr.model_io import load_transforms, save_transforms

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NAMES = st.text(st.sampled_from("ab_ 1\t"), max_size=4)


@st.composite
def transform_lists(draw, d):
    out = []
    for _ in range(d):
        kind = draw(st.sampled_from(["none", "rescale", "logistic", "cdf", "grid"]))
        if kind == "none":
            out.append(Identity())
        elif kind == "rescale":
            lo = draw(st.floats(-1e6, 1e6))
            out.append(Rescale(lo, lo + draw(st.floats(1e-3, 1e6))))
        elif kind == "logistic":
            out.append(Logistic())
        elif kind == "cdf":
            out.append(fit_empirical_cdf(draw(st.lists(st.floats(-1e3, 1e3), min_size=2,
                                                       max_size=12, unique=True))))
        else:
            cats = draw(st.lists(FINITE, min_size=2, max_size=5, unique=True))
            out.append(CategoryGrid(cats))
    return out


@st.composite
def models(draw):
    d = draw(st.integers(1, 4))
    kinds = st.sampled_from([legendre(2), legendre(3), trig(2), discrete(3), discrete(5, 2)])
    families = [draw(kinds) for _ in range(d)]
    spec = build_full(d, families, {lvl: draw(st.integers(0, 2)) for lvl in range(1, d + 1)})
    n = len(spec)
    coef = draw(st.lists(FINITE, min_size=n, max_size=n))
    unc = draw(st.lists(st.floats(allow_nan=True), min_size=n, max_size=n))
    flags = draw(st.lists(st.sampled_from(["", NO_EVIDENCE, UNCERTAINTY_UNDEFINED]),
                          min_size=n, max_size=n))
    supports = sorted({support(j) for j in spec.selected})
    evidence = {s: draw(st.integers(0, 10**6))
                for s in draw(st.sets(st.sampled_from(supports)))}  # possibly none
    if draw(st.booleans()):  # aligned, one count possibly off from its support's
        evidence = [evidence.get(support(j), 0) for j in spec.selected]
        evidence[draw(st.integers(0, n - 1))] += draw(st.integers(0, 1))
    transforms = draw(st.one_of(st.none(), transform_lists(d)))
    names = draw(st.one_of(st.none(), st.lists(NAMES, min_size=d, max_size=d).map(tuple)))
    try:
        return Model(spec, coef, evidence, unc, flags, transforms=transforms, names=names)
    except ValueError as exc:  # counts that disagree within a support: no model to save
        assert re.fullmatch(r"support \(.*\) has evidence \d+ and \d+", str(exc))
        reject()


@given(models())
def test_model_save_load_save_is_byte_identical(model):
    first, second = io.StringIO(), io.StringIO()
    save_model(model, first)
    back = load_model(io.StringIO(first.getvalue()))
    save_model(back, second)
    assert second.getvalue() == first.getvalue()
    assert back.spec == model.spec
    assert back.coef.tobytes() == model.coef.tobytes()
    assert np.array_equal(back.unc, model.unc, equal_nan=True)
    assert back.term_flags == model.term_flags
    # evidence lists every selected support, 0 where none was given
    assert back.evidence == model.evidence
    assert set(back.evidence) == {support(j) for j in model.spec.selected}
    assert back.count.dtype == model.count.dtype and np.array_equal(back.count, model.count)


@given(st.integers(1, 5).flatmap(lambda d: st.tuples(
    transform_lists(d), st.lists(NAMES, min_size=d, max_size=d))))
def test_transforms_save_load_save_is_byte_identical(case):
    transforms, names = case
    first, second = io.StringIO(), io.StringIO()
    save_transforms(names, transforms, first)
    back = load_transforms(io.StringIO(first.getvalue()), len(transforms))
    save_transforms(names, back, second)
    assert second.getvalue() == first.getvalue()
    assert [t.tokens() for t in back] == [t.tokens() for t in transforms]
    assert all(type(a) is type(b) for a, b in zip(back, transforms))


# ---------------------------------------------------------------------------
# CategoryGrid against a scalar reference

def reference_apply(categories, value):
    grid = np.arange(len(categories)) / (len(categories) - 1)
    hit = [i for i, c in enumerate(categories) if abs(value - c) <= 1e-9]
    if not hit:
        raise ValueError(f"value {value} is not a declared category")
    return grid[hit[0]]


def reference_invert(categories, u):
    v = len(categories)
    return categories[int(np.clip(np.rint(u * (v - 1)).astype(int), 0, v - 1))]


@st.composite
def grid_cases(draw):
    # categories may sit closer than the 1e-9 tolerance: the first declared wins
    base = draw(st.lists(st.floats(-100, 100), min_size=2, max_size=6, unique=True))
    cats = list(dict.fromkeys(base + draw(st.lists(
        st.sampled_from(base).map(lambda c: c + 5e-10), max_size=2))))
    values = draw(st.lists(st.one_of(
        st.sampled_from(cats), st.sampled_from(cats).map(lambda c: c - 4e-10),
        st.just(float("nan")), st.floats(-100, 100)), max_size=12))
    return cats, np.array(values, dtype=float)


@given(grid_cases(), st.sampled_from([(-1,), (1, -1), (-1, 1)]))
def test_category_grid_apply_matches_the_scalar_rule(case, shape):
    cats, values = case
    grid = CategoryGrid(cats)
    x = values.reshape(shape) if values.size else values
    try:
        want = [reference_apply(grid.categories, v) for v in values]
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            grid.apply(x)
        assert str(got.value) == str(exc)
        return
    got = grid.apply(x)
    assert got.shape == x.shape
    assert got.ravel().tobytes() == np.array(want, dtype=float).tobytes()
    for v, w in zip(values, want):
        one = grid.apply(v)
        assert type(one) is float and one == w


@given(st.lists(st.integers(-800, 800), min_size=2, max_size=6, unique=True).map(
           lambda ks: [k / 8 for k in ks]),
       st.lists(st.floats(-0.5, 1.5), max_size=12))
def test_category_grid_invert_matches_the_scalar_rule(cats, us):
    grid = CategoryGrid(cats)
    u = np.array(us, dtype=float)
    got = grid.invert(u[:, None])
    assert got.shape == (len(us), 1)
    assert got.ravel().tolist() == [reference_invert(grid.categories, x) for x in us]
    for x in us:
        one = grid.invert(x)
        assert type(one) is float and one == reference_invert(grid.categories, x)
    assert np.array_equal(grid.invert(grid.apply(np.array(grid.categories))), grid.categories)
