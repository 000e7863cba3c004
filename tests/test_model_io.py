import io

import numpy as np
import pytest

from hcr import (Dataset, build_full, discrete, evaluate, fit,
                 fit_empirical_cdf, legendre, load_model, save_model,
                 trig)

nan = float("nan")


def fitted_model(seed=41, n=40):
    rng = np.random.default_rng(seed)
    vals = rng.random((n, 2))
    vals[rng.random((n, 2)) < 0.2] = nan
    return fit(build_full(2, legendre(2), 2), Dataset(vals))


def test_round_trip_exact():
    m = fitted_model()
    buf = io.StringIO()
    save_model(m, buf)
    back = load_model(io.StringIO(buf.getvalue()))
    assert back.spec.selected == m.spec.selected
    for j in m.spec.selected:
        assert back.coefficients[j] == m.coefficients[j]  # bitwise
        u1, u2 = m.uncertainty[j], back.uncertainty[j]
        assert (u1 == u2) or (np.isnan(u1) and np.isnan(u2))
        assert back.flags.get(j, "") == m.flags.get(j, "")
    assert back.evidence == m.evidence
    assert back.coordinate_names() == m.coordinate_names()


def test_save_load_save_is_byte_identical(tmp_path):
    m = fitted_model(seed=42)
    p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
    save_model(m, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_file_layout():
    m = fitted_model()
    buf = io.StringIO()
    save_model(m, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "hcrmodel 1"
    assert lines[1] == "dim 2"
    assert lines[2].startswith("column 0 x1 legendre 2 -")
    assert lines[3].startswith("column 1 x2 legendre 2 -")
    coef_lines = [ln for ln in lines if ln.startswith("coef")]
    assert len(coef_lines) == len(m.spec.selected)
    assert coef_lines[0].split()[1] == "0,0"  # canonical order, constant first


def test_round_trip_preserves_evaluation():
    m = fitted_model(seed=43)
    buf = io.StringIO()
    save_model(m, buf)
    back = load_model(io.StringIO(buf.getvalue()))
    rng = np.random.default_rng(44)
    for _ in range(10):
        pt = rng.random(2)
        assert evaluate(back, pt) == evaluate(m, pt)


def test_round_trip_discrete_and_trig_families():
    rng = np.random.default_rng(45)
    vals = np.column_stack([
        rng.integers(0, 3, 30) / 2.0,
        rng.random(30),
    ])
    spec = build_full(2, (discrete(3), trig(2)), {1: 2, 2: 1})
    m = fit(spec, Dataset(vals))
    buf = io.StringIO()
    save_model(m, buf)
    back = load_model(io.StringIO(buf.getvalue()))
    assert back.spec.families[0].kind == "discrete"
    assert back.spec.families[0].v == 3
    assert back.spec.families[1].kind == "trig"
    assert back.spec.families[1].max_order == 2
    for j in m.spec.selected:
        assert back.coefficients[j] == m.coefficients[j]


def test_round_trip_transforms():
    rng = np.random.default_rng(46)
    raw = rng.normal(10, 2, 25)
    cdf = fit_empirical_cdf(raw)
    data = Dataset(cdf.apply(raw)[:, None], names=("income",))
    m = fit(build_full(1, legendre(2), 2), data, names=data.names,
            transforms=[cdf])
    buf = io.StringIO()
    save_model(m, buf)
    back = load_model(io.StringIO(buf.getvalue()))
    assert back.coordinate_names() == ("income",)
    t = back.transforms[0]
    x = np.linspace(raw.min(), raw.max(), 50)
    assert np.max(np.abs(t.apply(x) - cdf.apply(x))) < 1e-15
    assert np.max(np.abs(t.invert(cdf.apply(x)) - cdf.invert(cdf.apply(x)))) < 1e-15


def test_names_with_spaces_are_sanitized():
    data = Dataset(np.array([[0.5], [0.25]]), names=("body mass",))
    m = fit(build_full(1, legendre(1), 1), data, names=data.names)
    buf = io.StringIO()
    save_model(m, buf)
    back = load_model(io.StringIO(buf.getvalue()))
    assert back.coordinate_names() == ("body_mass",)


def test_flags_round_trip():
    data = Dataset(np.array([[0.5, nan], [0.25, nan], [0.75, 0.5]]))
    m = fit(build_full(2, legendre(1), 1), data)
    assert m.flags[(1, 1)] != ""
    buf = io.StringIO()
    save_model(m, buf)
    back = load_model(io.StringIO(buf.getvalue()))
    assert back.flags[(1, 1)] == m.flags[(1, 1)]
    assert back.flags[(1, 0)] == ""


def test_load_rejects_malformed_input():
    with pytest.raises(ValueError):
        load_model(io.StringIO(""))
    with pytest.raises(ValueError):
        load_model(io.StringIO("notamodel 1\ndim 1\n"))
    with pytest.raises(ValueError, match="model file line 1: unsupported format version 9"):
        load_model(io.StringIO("hcrmodel 9\ndim 1\n"))
    with pytest.raises(ValueError):
        load_model(io.StringIO("hcrmodel 1\nnope\n"))


def test_load_reports_line_numbers():
    m = fitted_model()
    buf = io.StringIO()
    save_model(m, buf)
    lines = buf.getvalue().splitlines()
    lines[5] = "coef 1,0 not-a-number 4 0.1 -"
    with pytest.raises(ValueError) as err:
        load_model(io.StringIO("\n".join(lines)))
    assert "line 6" in str(err.value)
    truncated = buf.getvalue().splitlines()
    truncated[4] = "coef 0,0"
    with pytest.raises(ValueError) as err:
        load_model(io.StringIO("\n".join(truncated)))
    assert "line 5" in str(err.value)


def test_load_rejects_missing_columns():
    text = "hcrmodel 1\ndim 2\ncolumn 0 x1 legendre 1 - none\ncoef 0,0 1 4 0 -\ncoef 1,0 0.5 4 0.1 -\n"
    with pytest.raises(ValueError):
        load_model(io.StringIO(text))


def test_load_rejects_wrong_index_length():
    text = ("hcrmodel 1\ndim 2\n"
            "column 0 x1 legendre 1 - none\n"
            "column 1 x2 legendre 1 - none\n"
            "coef 1 0.5 4 0.1 -\n")
    with pytest.raises(ValueError) as err:
        load_model(io.StringIO(text))
    assert "line 5" in str(err.value)


def test_load_rejects_duplicate_coef_lines():
    text = ("hcrmodel 1\ndim 1\n"
            "column 0 x1 legendre 2 - none\n"
            "coef 0 1 4 0 -\n"
            "coef 1 0.5 4 0.1 -\n"
            "coef 1 0.7 4 0.1 -\n")
    with pytest.raises(ValueError, match="line 6: duplicate coef 1 .*line 5"):
        load_model(io.StringIO(text))


def test_load_rejects_evidence_that_disagrees_within_a_support():
    # at the parent the last line's count won and was saved back on both lines
    head = "hcrmodel 1\ndim 2\ncolumn 0 x1 legendre 2 - none\ncolumn 1 x2 legendre 2 - none\n"
    text = head + "coef 1,0 0.5 5 0.1 -\ncoef 0,1 0.5 4 0.1 -\ncoef 2,0 0.1 4 0.1 -\n"
    with pytest.raises(ValueError, match="model file line 7: evidence 4 disagrees with 5 "
                                         "on line 5, which has the same support"):
        load_model(io.StringIO(text))
    text = head + "coef 1,0 0.5 5 0.1 -\ncoef 0,1 0.5 4 0.1 -\ncoef 2,0 0.1 5 0.1 -\n"
    m = load_model(io.StringIO(text))
    assert m.evidence == {(): 0, (0,): 5, (1,): 4} and list(m.count) == [0, 5, 5, 4]


@pytest.mark.parametrize("token", ["x", "-1", "1.0"])
def test_load_names_line_1_on_a_bad_version_token(token):
    with pytest.raises(ValueError, match=f"model file line 1: bad format version '{token}'"):
        load_model(io.StringIO(f"hcrmodel {token}\ndim 1\n"))


def test_mapping_and_vector_forms_build_the_same_model():
    from hcr import Model
    rng = np.random.default_rng(43)
    vals = rng.random((20, 2))
    vals[1:, 1] = nan  # one record knows x2: its terms are flagged
    m = fit(build_full(2, legendre(2), 2), Dataset(vals), names=("a", "b"))
    s = m.spec
    by_index = Model(s, dict(m.coefficients), m.evidence, dict(m.uncertainty),
                     dict(m.flags), m.transforms, m.names)
    by_position = Model(s, list(m.coef), m.evidence, list(m.unc), list(m.term_flags),
                        m.transforms, m.names)
    texts = []
    for built in (by_index, by_position):
        assert np.array_equal(built.coef, m.coef)
        assert np.array_equal(built.unc, m.unc, equal_nan=True)
        assert built.term_flags == m.term_flags
        buf = io.StringIO()
        save_model(built, buf)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]
    assert any(m.term_flags)


def test_load_names_the_coef_line_of_a_bad_order():
    head = "hcrmodel 1\ndim 1\ncolumn 0 x1 legendre 2 - none\ncoef 0 1 4 0 -\n"
    # a negative order once loaded onto (-1,) and read the highest order's row
    with pytest.raises(ValueError, match=r"model file line 5: multi-index \(-1,\) is not 1"):
        load_model(io.StringIO(head + "coef -1 0.5 4 0.1 -\n"))
    with pytest.raises(ValueError, match="model file line 5: order 3 exceeds coordinate 0"):
        load_model(io.StringIO(head + "coef 3 0.5 4 0.1 -\n"))
    # the coef line may come before the column line it is checked against
    text = "hcrmodel 1\ndim 1\ncoef 3 0.5 4 0.1 -\ncolumn 0 x1 legendre 2 - none\n"
    with pytest.raises(ValueError, match="model file line 3: order 3 exceeds"):
        load_model(io.StringIO(text))


def test_load_rejects_duplicate_column_lines():
    text = ("hcrmodel 1\ndim 1\n"
            "column 0 x1 legendre 2 - none\n"
            "column 0 x1 trig 2 - none\n"
            "coef 0 1 4 0 -\n")
    with pytest.raises(ValueError, match="line 4: duplicate column 0 .*line 3"):
        load_model(io.StringIO(text))


def test_load_family_fields_are_checked():
    for column, message in [("legendre 2 3", "v is only meaningful"),
                            ("discrete 1 -", "needs v >= 2"),
                            ("spline 2 -", "unknown family kind"),
                            ("discrete 1 x", "invalid literal")]:
        text = f"hcrmodel 1\ndim 1\ncolumn 0 x1 {column} none\ncoef 0 1 4 0 -\n"
        with pytest.raises(ValueError, match=f"model file line 3: .*{message}"):
            load_model(io.StringIO(text))


def test_load_does_not_allocate_for_an_unbacked_dim():
    import tracemalloc
    text = "hcrmodel 1\ndim 1000000\ncolumn 0 x1 legendre 1 - none\n"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="column lines for 1 of 1000000 coordinates"):
            load_model(io.StringIO(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    with pytest.raises(ValueError, match="model file line 2: dimension 0 is not positive"):
        load_model(io.StringIO("hcrmodel 1\ndim 0\n"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_rejects_a_non_finite_coefficient(value):
    # at the parent such a model loaded, and top-mode impute then raised IndexError
    text = f"hcrmodel 1\ndim 1\ncolumn 0 x1 legendre 2 - none\ncoef 1 {value} 4 0.1 -\n"
    with pytest.raises(ValueError, match=f"model file line 4: coefficient {value} is not finite"):
        load_model(io.StringIO(text))


def test_transforms_file_save_load_save_is_byte_identical(tmp_path):
    from hcr import CategoryGrid, Identity, Logistic, Rescale
    from hcr.model_io import load_transforms, save_transforms
    rng = np.random.default_rng(5)
    transforms = [Identity(), Rescale(-2.5, 7.125), Logistic(),
                  fit_empirical_cdf(rng.normal(size=30)), CategoryGrid([3.0, 1.5, 10.0])]
    names = ["a", "two words", "", "d", "e"]
    first, second = tmp_path / "first.maps", tmp_path / "second.maps"
    save_transforms(names, transforms, first)
    back = load_transforms(first, len(transforms))
    save_transforms(names, back, second)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().splitlines()[:4] == [
        "hcrtransforms 1", "column 0 a none", "column 1 two_words rescale -2.5 7.125",
        "column 2 x3 logistic"]
    assert [t.kind for t in back] == [t.kind for t in transforms]
    # a column without a line keeps the identity
    assert load_transforms(io.StringIO("hcrtransforms 1\n"), 2)[1].kind == "none"


def test_crlf_model_and_transforms_files_load_as_with_lf(tmp_path):
    from hcr import CategoryGrid, Logistic, Rescale
    from hcr.model_io import load_transforms, save_transforms
    m = fitted_model(seed=44)
    buf = io.StringIO()
    save_model(m, buf)
    path = tmp_path / "crlf.model"
    path.write_bytes(buf.getvalue().replace("\n", "\r\n").encode())
    for source in (path, io.StringIO(path.read_bytes().decode())):
        out = io.StringIO()
        save_model(load_model(source), out)
        assert out.getvalue() == buf.getvalue()
    transforms = [Rescale(-1.0, 3.0), Logistic(), CategoryGrid([2.0, 5.0])]
    buf = io.StringIO()
    save_transforms(["a", "b", "c"], transforms, buf)
    path = tmp_path / "crlf.maps"
    path.write_bytes(buf.getvalue().replace("\n", "\r\n").encode())
    back = load_transforms(path, 3)
    assert [t.tokens() for t in back] == [t.tokens() for t in transforms]
