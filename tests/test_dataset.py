import io

import numpy as np
import pytest

from hcr import (CategoryGrid, Dataset, EmpiricalCDF, Identity, Logistic,
                 Rescale, TableError, column_specs, fit_empirical_cdf,
                 fit_transform, load_table, parse_schema,
                 transform_from_tokens, write_table)

CSV = """a,b,c
0.1,0.2,0.3
0.4,NA,0.6
0.7,0.8,
0.9,0.25,0.5
?,0.5,0.75
"""


def test_load_table_basic():
    ds = load_table(io.StringIO(CSV))
    assert ds.n == 5 and ds.d == 3
    assert ds.names == ("a", "b", "c")
    assert np.isnan(ds.values[1, 1]) and np.isnan(ds.values[2, 2])
    assert np.isnan(ds.values[4, 0])
    assert ds.values[0, 0] == 0.1


def test_presence_bookkeeping():
    ds = load_table(io.StringIO(CSV))
    present = ds.present
    assert tuple(np.flatnonzero(present[0])) == (0, 1, 2)
    assert tuple(np.flatnonzero(present[1])) == (0, 2)
    assert list(present.sum(axis=0)) == [4, 4, 4]
    assert list(ds.complete_mask()) == [True, False, False, True, False]
    assert present[:, [0]].all(axis=1).sum() == 4
    assert present[:, [0, 1]].all(axis=1).sum() == 3
    assert list(present[:, [1, 2]].all(axis=1)) == [True, False, False, True, True]


def test_load_table_from_path(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y\n1,0\n0.5,0.25\n")
    ds = load_table(p)
    assert ds.n == 2
    assert ds.values[1, 1] == 0.25


def test_load_table_custom_tokens_and_sep():
    ds = load_table(io.StringIO("x;y\n0.5;miss\n0.25;0.75\n"),
                    missing_tokens={"miss", ""}, sep=";")
    assert np.isnan(ds.values[0, 1])
    assert ds.values[1, 0] == 0.25


def test_load_table_rejects_bad_input():
    with pytest.raises(TableError):
        load_table(io.StringIO("x,y\n1,2,3\n"))  # ragged
    with pytest.raises(TableError):
        load_table(io.StringIO("x,y\nfoo,1\n"))  # non-numeric
    with pytest.raises(TableError):
        load_table(io.StringIO("x,y\ninf,1\n"))  # non-finite
    with pytest.raises(TableError):
        load_table(io.StringIO("x,y\n"))  # no data rows
    with pytest.raises(TableError):
        load_table(io.StringIO(""))


def test_dataset_requires_2d():
    with pytest.raises(TableError):
        Dataset(np.zeros(3))
    ds = Dataset(np.zeros((3, 2)))
    assert ds.names == ("x1", "x2")


def test_write_table_round_trip(tmp_path):
    p = tmp_path / "out.csv"
    rows = [[0.1, None], [float("nan"), 0.25], [1 / 3, 0.7]]
    write_table(p, ("u", "v"), rows)
    ds = load_table(p)
    assert np.isnan(ds.values[0, 1]) and np.isnan(ds.values[1, 0])
    assert ds.values[2, 0] == 1 / 3  # 17 digits survive the round trip


def test_write_table_to_stream():
    buf = io.StringIO()
    write_table(buf, ("x",), [[0.5]])
    assert buf.getvalue().splitlines() == ["x", "0.5"]


def test_identity():
    t = Identity()
    x = np.array([0.0, 0.3, 1.0])
    assert np.array_equal(t.apply(x), x)
    assert np.array_equal(t.invert(x), x)
    assert t.tokens() == ["none"]


def test_rescale():
    t = Rescale(0.0, 10.0)
    assert t.apply(2.5) == pytest.approx(0.25)
    assert t.invert(0.25) == pytest.approx(2.5)
    assert t.apply(-1.0) == 0.0 and t.apply(11.0) == 1.0  # clips
    strict = Rescale(0.0, 10.0, strict=True)
    with pytest.raises(ValueError):
        strict.apply(11.0)
    with pytest.raises(ValueError):
        Rescale(1.0, 1.0)
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 10, 100)
    assert np.max(np.abs(t.invert(t.apply(x)) - x)) < 1e-9


def test_logistic():
    t = Logistic()
    assert t.apply(0.0) == pytest.approx(0.5)
    assert t.invert(0.5) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(1)
    x = rng.normal(0, 3, 200)
    back = t.invert(t.apply(x))
    assert np.max(np.abs(back - x) / np.maximum(np.abs(x), 1.0)) < 1e-9
    assert np.all(t.apply(np.array([-1e3, 1e3])) >= 0.0)
    assert np.isfinite(t.invert(np.array([0.0, 1.0]))).all()  # nudged inside


def test_fit_empirical_cdf_plotting_positions():
    t = fit_empirical_cdf([2.0, 4.0, 6.0, 8.0])
    assert t.apply(2.0) == pytest.approx(0.125)  # (1 - 0.5)/4
    assert t.apply(8.0) == pytest.approx(0.875)
    assert t.apply(5.0) == pytest.approx(0.5)  # linear between ranks


def test_fit_empirical_cdf_ties_share_mean_position():
    t = fit_empirical_cdf([1.0, 1.0, 2.0])
    # positions 1/6, 3/6, 5/6; the two ties average to 1/3
    assert t.apply(1.0) == pytest.approx(1 / 3)
    assert t.apply(2.0) == pytest.approx(5 / 6)
    with pytest.raises(ValueError):
        fit_empirical_cdf([3.0, 3.0, 3.0])


def test_empirical_cdf_clamps_at_delta():
    t = fit_empirical_cdf([2.0, 4.0, 6.0, 8.0])
    assert t.delta == 0.125
    assert t.apply(-100.0) == pytest.approx(t.delta)
    assert t.apply(100.0) == pytest.approx(1 - t.delta)
    assert np.all(t.apply(np.linspace(-5, 15, 50)) >= t.delta)


def test_empirical_cdf_tracks_sample_cdf():
    rng = np.random.default_rng(2)
    x = np.round(rng.normal(0, 1, 400), 1)  # rounding forces ties
    t = fit_empirical_cdf(x)
    u = t.apply(x)
    sort = np.sort(u)
    emp = (np.arange(1, x.size + 1) - 0.5) / x.size
    # tie groups share one averaged position, so allow (g-1)/(2n)
    _, counts = np.unique(x, return_counts=True)
    assert np.max(np.abs(sort - emp)) <= (counts.max() - 1) / (2 * x.size) + 1e-12
    # invert round-trips the support points exactly
    assert np.max(np.abs(t.invert(t.apply(np.unique(x))) - np.unique(x))) < 1e-12


def test_category_grid():
    t = CategoryGrid([3.0, 5.0, 9.0])
    assert t.apply(3.0) == 0.0
    assert t.apply(5.0) == 0.5
    assert t.apply(9.0) == 1.0
    assert t.invert(0.5) == 5.0
    assert np.array_equal(t.apply(np.array([9.0, 3.0])), [1.0, 0.0])
    with pytest.raises(ValueError):
        t.apply(4.0)
    with pytest.raises(ValueError):
        CategoryGrid([1.0])
    with pytest.raises(ValueError):
        CategoryGrid([1.0, 1.0])


def test_transform_tokens_round_trip():
    for t in (Identity(), Rescale(-2.0, 7.5), Logistic(),
              fit_empirical_cdf([1.0, 2.0, 5.0]), CategoryGrid([0.0, 2.0, 4.0])):
        back = transform_from_tokens(t.tokens())
        assert type(back) is type(t)
        x = {"none": 0.3, "rescale": 4.0, "logistic": 1.2,
             "cdf": 2.0, "grid": 2.0}[t.kind]
        assert float(np.asarray(back.apply(x))) == pytest.approx(
            float(np.asarray(t.apply(x))), abs=1e-15)
    with pytest.raises(ValueError):
        transform_from_tokens(["warp"])


def test_dataset_transformed_preserves_missingness():
    ds = load_table(io.StringIO("x,y\n1,NA\n5,0.5\n3,0.25\n"))
    out = ds.transformed([Rescale(1.0, 5.0), Identity()])
    assert np.isnan(out.values[0, 1])
    assert out.values[0, 0] == 0.0
    assert out.values[1, 0] == 1.0
    back = out.transformed([Rescale(1.0, 5.0), Identity()], invert=True)
    assert back.values[2, 0] == pytest.approx(3.0)
    assert np.isnan(back.values[0, 1])


def test_parse_schema():
    schema = parse_schema("""
# comment
x1: legendre cdf
x2: trig logistic
x3: legendre rescale 0 10
grade: discrete 1 2 3
""")
    assert schema["x1"].transform == "cdf"
    assert schema["x2"].family == "trig"
    assert schema["x3"].args == (0.0, 10.0)
    assert schema["grade"].family == "discrete"
    assert schema["grade"].categories == (1.0, 2.0, 3.0)
    assert schema["grade"].transform == "grid"


def test_parse_schema_validation():
    with pytest.raises(ValueError):
        parse_schema("x1 legendre")  # missing colon
    with pytest.raises(ValueError):
        parse_schema("x1: fourier")
    with pytest.raises(ValueError):
        parse_schema("x1: legendre warp")
    with pytest.raises(ValueError):
        parse_schema("g: discrete 1")  # one category


def test_parse_schema_rejects_a_repeated_name_naming_both_lines():
    with pytest.raises(ValueError) as err:
        parse_schema("a: legendre cdf\nb: trig\n\na: trig\n")
    assert str(err.value) == "schema line 4: duplicate name 'a' (first on line 1)"


@pytest.mark.parametrize("xs, ps, l, message", [
    ([0.0, 1.0], [0.25, 0.75], 0, "integer >= 1"),
    ([0.0, 1.0], [0.25, 0.75], -3, "integer >= 1"),
    ([0.0, 1.0], [0.25, 0.75], 2.0, "integer >= 1"),
    ([0.0, np.nan], [0.25, 0.75], 2, "finite"),
    ([0.0, 1.0], [0.25, np.inf], 2, "finite"),
])
def test_empirical_cdf_rejects_a_bad_sample_size_or_support(xs, ps, l, message):
    with pytest.raises(ValueError, match=message):
        EmpiricalCDF(xs, ps, l)


def test_column_specs_ordering_and_defaults():
    schema = parse_schema("b: trig\n")
    specs = column_specs(schema, ("a", "b"))
    assert [s.name for s in specs] == ["a", "b"]
    assert specs[0].family == "legendre" and specs[0].transform == "none"
    assert specs[1].family == "trig"
    with pytest.raises(ValueError, match=r"^schema line 1: schema names not in table: \['zz'\]$"):
        column_specs(parse_schema("zz: trig\n"), ("a", "b"))


def test_fit_transform():
    schema = parse_schema("a: legendre rescale\nb: legendre cdf\n")
    t = fit_transform(schema["a"], np.array([2.0, 8.0, 5.0, np.nan]))
    assert t.lo == 2.0 and t.hi == 8.0
    t = fit_transform(schema["b"], np.array([1.0, 2.0, 3.0]))
    assert isinstance(t, EmpiricalCDF)
    with pytest.raises(ValueError):
        fit_transform(schema["a"], np.array([4.0, 4.0]))
    with pytest.raises(ValueError):
        fit_transform(schema["b"], np.array([4.0, 4.0]))
