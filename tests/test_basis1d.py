import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import eval_sh_legendre

from hcr import Family1D, discrete, gauss_nodes, legendre, trig
from hcr.basis1d import _discrete_table, _moment_table

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)


def poly_oracle(j, x):
    # independent closed forms for the rescaled polynomials
    x = np.asarray(x, dtype=float)
    if j == 0:
        return np.ones_like(x)
    if j == 1:
        return SQ3 * (2 * x - 1)
    if j == 2:
        return math.sqrt(5.0) * (6 * x**2 - 6 * x + 1)
    if j == 3:
        return math.sqrt(7.0) * (20 * x**3 - 30 * x**2 + 12 * x - 1)
    if j == 4:
        return 3.0 * (70 * x**4 - 140 * x**3 + 90 * x**2 - 20 * x + 1)
    if j == 5:
        return math.sqrt(11.0) * (252 * x**5 - 630 * x**4 + 560 * x**3
                                  - 210 * x**2 + 30 * x - 1)
    raise ValueError(j)


def trig_oracle(j, x):
    x = np.asarray(x, dtype=float)
    if j == 0:
        return np.ones_like(x)
    freq = (j + 1) // 2
    if j % 2 == 1:
        return SQ2 * np.sin(2 * np.pi * freq * x)
    return SQ2 * np.cos(2 * np.pi * freq * x)


def unit_nodes(n):
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def test_polynomial_point_values():
    fam = legendre(3)
    assert fam.eval(0, 0.73) == 1.0
    assert fam.eval(1, 0.5) == 0.0
    assert fam.eval(1, 1.0) == pytest.approx(SQ3, abs=1e-15)
    assert fam.eval(2, 0.0) == pytest.approx(math.sqrt(5.0), abs=1e-15)
    assert fam.eval(3, 1.0) == pytest.approx(math.sqrt(7.0), abs=1e-13)
    out = fam.eval(2, np.array([0.0, 1.0]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)
    assert isinstance(fam.eval(2, 0.3), float)


def test_polynomials_match_closed_forms():
    rng = np.random.default_rng(101)
    x = rng.random(257)
    fam = legendre(5)
    for j in range(6):
        assert np.max(np.abs(fam.eval(j, x) - poly_oracle(j, x))) < 1e-12


def test_high_order_polynomials_match_scipy():
    # orders past the closed-form table come from the recurrence
    rng = np.random.default_rng(102)
    x = rng.random(200)
    fam = legendre(10)
    for j in range(11):
        want = math.sqrt(2 * j + 1) * eval_sh_legendre(j, x)
        assert np.max(np.abs(fam.eval(j, x) - want)) < 1e-10


def test_trig_point_values():
    fam = trig(4)
    assert fam.eval(1, 0.25) == pytest.approx(SQ2, abs=1e-15)
    assert fam.eval(2, 0.5) == pytest.approx(-SQ2, abs=1e-15)
    assert fam.eval(3, 0.125) == pytest.approx(SQ2, abs=1e-15)
    assert fam.eval(4, 0.25) == pytest.approx(-SQ2, abs=1e-15)


def test_trig_frequency_mapping():
    rng = np.random.default_rng(103)
    x = rng.random(64)
    fam = trig(8)
    for j in range(9):
        assert np.max(np.abs(fam.eval(j, x) - trig_oracle(j, x))) < 1e-13


def test_discrete_two_levels():
    fam = discrete(2)
    assert fam.max_order == 1
    assert fam.eval(1, 0.0) == pytest.approx(-1.0, abs=1e-12)
    assert fam.eval(1, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_discrete_three_levels():
    fam = discrete(3)
    r = math.sqrt(1.5)
    got = fam.eval_all(fam.grid)
    assert np.allclose(got[1], [-r, 0.0, r], atol=1e-12)
    assert np.allclose(got[2], [1 / SQ2, -SQ2, 1 / SQ2], atol=1e-12)


def test_discrete_four_levels():
    fam = discrete(4)
    got = fam.eval_all(fam.grid)
    a, b = 3 / math.sqrt(5.0), 1 / math.sqrt(5.0)
    assert np.allclose(got[1], [-a, -b, b, a], atol=1e-12)
    assert np.allclose(got[2], [1.0, -1.0, -1.0, 1.0], atol=1e-12)
    assert np.allclose(got[3], [-b, a, -a, b], atol=1e-12)


def test_discrete_tables_are_orthonormal():
    for v in range(2, 7):
        fam = discrete(v)
        table = fam.eval_all(fam.grid)
        gram = table @ table.T / v
        assert np.max(np.abs(gram - np.eye(v))) < 1e-12
        # sign convention: first-order function increases along the grid
        assert np.all(np.diff(table[1]) > 0)


def test_discrete_tables_for_many_values():
    for v in range(2, 41):
        table = discrete(v).eval_all(discrete(v).grid)
        x = np.arange(v) / (v - 1)
        assert np.all(table[0] == 1.0)
        assert np.max(np.abs(table @ table.T / v - np.eye(v))) < 1e-12
        # row j is the degree-j polynomial with a positive leading
        # coefficient iff x times row j lies in rows j-1..j+1 with a
        # positive weight on row j+1: the Jacobi matrix is tridiagonal
        jacobi = table * x @ table.T / v
        assert np.max(np.abs(np.triu(jacobi, 2))) < 1e-12
        assert np.all(np.diag(jacobi, 1) > 0)


def test_orthonormality_by_quadrature():
    x, w = unit_nodes(48)
    for fam in (legendre(4), trig(4)):
        table = fam.eval_all(x)
        gram = (table * w) @ table.T
        assert np.max(np.abs(gram - np.eye(5))) < 1e-12


def test_nonconstant_functions_have_zero_mean():
    x, w = unit_nodes(64)
    for fam in (legendre(6), trig(6)):
        for j in range(1, 7):
            assert abs(np.sum(w * fam.eval(j, x))) < 1e-13


def inner_product(fam, j1, j2):
    # Gauss quadrature, or the grid sum with weight 1/v, of eval_all
    if fam.is_discrete:
        nodes, weights = fam.grid, np.full(fam.v, 1.0 / fam.v)
    else:
        nodes, weights = gauss_nodes(96)
    values = fam.eval_all(nodes)
    return float(np.sum(weights * values[j1] * values[j2]))


def test_inner_product():
    fam = legendre(5)
    assert inner_product(fam, 3, 3) == pytest.approx(1.0, abs=1e-12)
    assert inner_product(fam, 2, 3) == pytest.approx(0.0, abs=1e-12)
    assert inner_product(fam, 0, 5) == pytest.approx(0.0, abs=1e-12)
    t = trig(4)
    assert inner_product(t, 2, 2) == pytest.approx(1.0, abs=1e-12)
    assert inner_product(t, 1, 2) == pytest.approx(0.0, abs=1e-12)
    d = discrete(3)
    assert inner_product(d, 1, 2) == pytest.approx(0.0, abs=1e-14)
    assert inner_product(d, 2, 2) == pytest.approx(1.0, abs=1e-14)


def test_moment_integrals_polynomial():
    table = _moment_table(legendre(2))  # [p, j]: x^p against the order-j function
    assert table[0, 0] == pytest.approx(1.0)
    assert table[1, 0] == pytest.approx(0.5)
    assert table[2, 0] == pytest.approx(1.0 / 3.0)
    assert table[1, 1] == pytest.approx(SQ3 / 6.0)
    assert table[2, 1] == pytest.approx(SQ3 / 6.0)
    assert table[1, 2] == pytest.approx(0.0, abs=1e-15)
    assert table[2, 2] == pytest.approx(math.sqrt(5.0) / 30.0)


def test_moment_integrals_trig():
    x, w = unit_nodes(200)
    for m in (4, 9, 40, 101, 200):
        table = _moment_table(trig(m))  # closed form
        for j in range(m + 1):
            for p in (0, 1, 2):
                want = float(np.sum(w * x**p * trig_oracle(j, x)))
                assert table[p, j] == pytest.approx(want, abs=1e-12), (m, j, p)


def test_eval_range_validation():
    fam = legendre(2)
    for bad in (-0.01, 1.01):
        with pytest.raises(ValueError):
            fam.eval(1, bad)
        with pytest.raises(ValueError):
            fam.eval_all(np.array([0.5, bad]))
    with pytest.raises(ValueError):
        fam.eval(3, 0.5)
    with pytest.raises(ValueError):
        fam.eval(-1, 0.5)


def test_discrete_grid_validation():
    fam = discrete(4)
    fam.eval(1, 1 / 3)
    fam.eval(1, 1 / 3 + 1e-10)  # inside snap tolerance
    with pytest.raises(ValueError):
        fam.eval(1, 0.3)
    with pytest.raises(ValueError):
        fam.eval_all(np.array([0.0, 0.5]))


def test_family_construction_validation():
    with pytest.raises(ValueError):
        discrete(1)
    with pytest.raises(ValueError):
        discrete(3, 3)  # at most v-1 orders
    with pytest.raises(ValueError):
        Family1D("legendre", 2, v=3)
    with pytest.raises(ValueError):
        Family1D("nope", 2)
    with pytest.raises(ValueError):
        legendre(-1)


def test_eval_all_matches_eval():
    rng = np.random.default_rng(104)
    x = rng.random(40)
    for fam in (legendre(6), trig(5)):
        table = fam.eval_all(x)
        assert table.shape == (fam.max_order + 1, 40)
        for j in range(fam.max_order + 1):
            assert np.array_equal(table[j], fam.eval(j, x))
    fam = discrete(3)
    xg = fam.grid[np.array([0, 2, 1, 1])]
    assert np.allclose(fam.eval_all(xg)[2], fam.eval(2, xg))


def ref_eval_all(fam, x):
    """The recurrence written out with fresh temporaries: t = 2x-1,
    P_n = ((2n-1) t P_{n-1} - (n-1) P_{n-2}) / n, then sqrt(2n+1) per row;
    sqrt(2) sin/cos of frequency (j+1)//2; a discrete family's table at
    the nearest grid point."""
    arr = np.asarray(x, dtype=float)
    m = fam.max_order
    if fam.kind == "discrete":
        return _discrete_table(fam.v)[:m + 1, np.abs(arr[..., None] - fam.grid).argmin(axis=-1)]
    out = np.empty((m + 1,) + arr.shape)
    out[0] = 1.0
    if fam.kind == "legendre":
        t = 2 * arr - 1
        for n in range(1, m + 1):
            out[n] = t if n == 1 else ((2 * n - 1) * t * out[n - 1] - (n - 1) * out[n - 2]) / n
        out[1:] *= np.sqrt(2.0 * np.arange(1, m + 1) + 1.0).reshape((m,) + (1,) * arr.ndim)
    else:
        for j in range(1, m + 1):
            wave = np.sin if j % 2 == 1 else np.cos
            out[j] = np.sqrt(2.0) * wave(2 * np.pi * ((j + 1) // 2) * arr)
    return out


@pytest.mark.parametrize("kind", ["legendre", "trig", "discrete"])
def test_eval_all_matches_the_reference_recurrence_bit_for_bit(kind):
    rng = np.random.default_rng(105)
    for m in range(21):
        if kind == "discrete":  # grid points; NaN is not a grid value
            fam = Family1D(kind, m, max(2, m + 1))
            grid = fam.grid
            inputs = (float(grid[-1]), np.float64(grid[0]), np.array(grid[m // 2]),
                      rng.choice(grid, 9), rng.choice(grid, (3, 4)))
        else:
            fam = Family1D(kind, m)
            inputs = (0.3, np.float64(1.0), np.array(0.0), rng.random(9), rng.random((3, 4)),
                      np.array([[0.0, np.nan], [1.0, 0.5]]))
        for x in inputs:
            got, want = fam.eval_all(x), ref_eval_all(fam, x)
            assert got.shape == want.shape == (m + 1,) + np.shape(x)
            assert got.tobytes() == want.tobytes()
            assert fam._stack(np.asarray(x, dtype=float)).tobytes() == want.tobytes()
            for top in range(m + 1):  # orders 1..top written into a caller's buffer
                out = np.full((top,) + np.shape(x), -7.0)
                fam._write_orders(np.asarray(x, dtype=float), out)
                assert out.tobytes() == want[1:top + 1].tobytes()
        if kind != "discrete":  # NaN passes through
            nan_column = fam.eval_all(inputs[-1])[:, 0, 1]
            assert nan_column[0] == 1.0 and np.isnan(nan_column[1:]).all()
            out = np.zeros((m,) + inputs[-1].shape)
            fam._write_orders(inputs[-1], out)
            assert (np.isnan(out) == np.isnan(inputs[-1])).all()  # at the NaN cell only


def test_gauss_nodes():
    x, w = gauss_nodes(4)
    assert np.all((0 < x) & (x < 1))
    assert np.sum(w) == pytest.approx(1.0, abs=1e-14)
    # degree-7 polynomials integrate exactly with 4 nodes
    assert np.sum(w * x**7) == pytest.approx(1.0 / 8.0, abs=1e-14)
    assert gauss_nodes(4) is gauss_nodes(4)  # cached


def test_snap_clips_then_rounds_onto_a_discrete_grid():
    x = np.array([-0.3, 0.1, 0.29, 0.5, 0.7, 1.4])
    assert np.array_equal(legendre(2).snap(x), [0.0, 0.1, 0.29, 0.5, 0.7, 1.0])
    # a NaN fill must not stay missing: impute would loop on it
    assert np.array_equal(legendre(2).snap([np.nan, np.inf, -np.inf]), [0.0, 1.0, 0.0])
    assert discrete(3).snap(np.nan) == 0.0
    assert np.array_equal(trig(2).snap(x), legendre(2).snap(x))
    grid = discrete(4).grid  # 0, 1/3, 2/3, 1
    assert np.array_equal(discrete(4).snap(x), grid[[0, 0, 1, 2, 2, 3]])
    # np.rint rounds an exact half to the even index
    assert discrete(3).snap(0.25) == 0.0 and discrete(3).snap(0.75) == 1.0
    assert discrete(5).snap(0.5) == 0.5


def test_discrete_moments_are_grid_sums():
    fam = discrete(5, 3)
    grid = fam.grid
    table = _moment_table(fam)
    for j in range(4):
        row = fam.eval_all(grid)[j]
        for p in range(3):
            assert table[p, j] == pytest.approx(np.sum(grid**p * row) / 5, abs=1e-15)
