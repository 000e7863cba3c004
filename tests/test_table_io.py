"""Block-wise table reader and column-wise writer against per-cell references.

The references below are the per-cell reader and writer that the block
versions replaced; the block versions must agree with them value for
value, message for message and byte for byte.
"""
import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hcr import TableError, load_table, write_table
from hcr import dataset
from hcr.cli import main
from hcr.dataset import DEFAULT_MISSING_TOKENS, TABLE_BLOCK


def reference_load_table(source, missing_tokens=DEFAULT_MISSING_TOKENS, sep=","):
    rows = list(csv.reader(source, delimiter=sep))
    rows = [r for r in rows if r]
    if len(rows) < 2:
        raise TableError("table needs a header row and at least one record")
    names = [c.strip() for c in rows[0]]
    d = len(names)
    data = np.empty((len(rows) - 1, d))
    tokens = set(missing_tokens)
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != d:
            raise TableError(f"row {r} has {len(row)} cells, expected {d}")
        for c, cell in enumerate(row):
            cell = cell.strip()
            if cell in tokens:
                data[r - 2, c] = np.nan
                continue
            try:
                value = float(cell)
            except ValueError:
                raise TableError(f"row {r}, column {names[c]!r}: non-numeric cell {cell!r}") from None
            if not np.isfinite(value):
                raise TableError(f"row {r}, column {names[c]!r}: non-finite value {cell!r}")
            data[r - 2, c] = value
    return names, data


def reference_write_table(stream, names, rows, sep=",", fmt=lambda x: format(x, ".17g")):
    def render(cell):
        if cell is None or (isinstance(cell, float) and np.isnan(cell)):
            return ""
        if isinstance(cell, str):
            return cell
        return fmt(float(cell))

    writer = csv.writer(stream, delimiter=sep, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        writer.writerow([render(c) for c in row])


def outcome(read, text, tokens, sep):
    """('ok', names, values as bytes) or ('error', message)."""
    try:
        if read is load_table:
            ds = load_table(io.StringIO(text), tokens, sep)
            names, values = list(ds.names), ds.values
        else:
            names, values = read(io.StringIO(text), tokens, sep)
    except TableError as exc:
        return ("error", str(exc))
    return ("ok", names, values.shape, values.tobytes())


# ---------------------------------------------------------------------------
# reader fuzz

NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda x: format(x, ".3f")),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_0", "1e5", "-0", ".5", "5.", "+3", "1E-3", "0001"]),
)
SPECIAL = st.sampled_from(["", "NA", "nan", "NaN", "?", "miss", "inf", "-inf", "Infinity",
                           "1e999", "foo", "1.2.3", "--1", "1__0", "_1", "0x10", "é", "1,5",
                           'say "hi"', "NA NA"])
CELLS = st.tuples(st.one_of(NUMBERS, NUMBERS, SPECIAL),
                  st.sampled_from(["", " ", "  ", "\t"]),
                  st.sampled_from(["", " ", "\t"])).map(lambda t: t[1] + t[0] + t[2])
TOKENS = st.sampled_from([DEFAULT_MISSING_TOKENS, frozenset({""}), frozenset({"", "miss", "?"}),
                          frozenset({"", "NA", "inf", "-inf", "NaN"}), frozenset({"", "foo"})])


@st.composite
def tables(draw):
    """Text of a random table, its missing tokens and its separator."""
    sep = draw(st.sampled_from([",", ";", "\t", "|"]))
    d = draw(st.integers(1, 4))
    buf = io.StringIO()
    names = [f"c{i}" for i in range(d)]
    csv.writer(buf, delimiter=sep, lineterminator="\n").writerow(names)
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            buf.write(draw(st.sampled_from(["\n", "\n\n", " \n"])))
        width = d if draw(st.integers(0, 9)) else draw(st.integers(0, d + 2))
        row = draw(st.lists(CELLS, min_size=width, max_size=width))
        quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
        csv.writer(buf, delimiter=sep, lineterminator="\n", quoting=quoting).writerow(row)
    return buf.getvalue(), draw(TOKENS), sep


@given(tables(), st.integers(1, 20))
def test_block_reader_matches_the_per_cell_reader(table, block):
    text, tokens, sep = table
    with mock.patch.object(dataset, "TABLE_BLOCK", block):
        got = outcome(load_table, text, tokens, sep)
    assert got == outcome(reference_load_table, text, tokens, sep)


@given(tables())
def test_block_reader_matches_with_the_default_block(table):
    text, tokens, sep = table
    want = outcome(reference_load_table, text, tokens, sep)
    assert outcome(load_table, text, tokens, sep) == want


def test_large_table_matches_the_per_cell_reader():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(3 * TABLE_BLOCK // 5 + 7, 5))
    cells = [["" if rng.random() < 0.2 else repr(v) for v in row] for row in values.tolist()]
    text = "a,b,c,d,e\n" + "".join(",".join(row) + "\n" for row in cells)
    got = outcome(load_table, text, DEFAULT_MISSING_TOKENS, ",")
    assert got[0] == "ok"
    assert got == outcome(reference_load_table, text, DEFAULT_MISSING_TOKENS, ",")


# ---------------------------------------------------------------------------
# fixed cases: the first bad cell in file order

def _two_column_text(records):
    return "a,b\n" + "".join(f"{x},{y}\n" for x, y in records)


def test_an_earlier_non_finite_cell_is_named_before_a_later_non_numeric_one():
    text = _two_column_text([(1, 2), (3, "inf"), (4, "foo")])
    with pytest.raises(TableError) as exc:
        load_table(io.StringIO(text))
    assert str(exc.value) == "row 3, column 'b': non-finite value 'inf'"
    with pytest.raises(TableError, match="^row 2, column 'a': non-finite value 'nan'$"):
        load_table(io.StringIO("a,b\nnan,foo\n"), missing_tokens={""})
    with pytest.raises(TableError, match="^row 2, column 'a': non-numeric cell 'foo'$"):
        load_table(io.StringIO("a,b\nfoo,inf\n"))


def test_a_bad_cell_before_a_ragged_row_is_named_first():
    with pytest.raises(TableError, match="^row 2, column 'b': non-numeric cell 'x'$"):
        load_table(io.StringIO("a,b\n1,x\n1,2,3\n"))
    with pytest.raises(TableError, match="^row 3 has 3 cells, expected 2$"):
        load_table(io.StringIO("a,b\n1,2\n\n1,2,3\n4,foo\n"))


@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_first_bad_cell_near_a_block_boundary(shift):
    per_block = TABLE_BLOCK // 2
    good = [(k, 0.5) for k in range(per_block + shift)]
    # blank lines are skipped and not counted
    text = _two_column_text(good).replace("a,b\n", "a,b\n\n", 1) + "7,foo\n8,inf\n"
    row = 2 + len(good)
    with pytest.raises(TableError) as exc:
        load_table(io.StringIO(text))
    assert str(exc.value) == f"row {row}, column 'b': non-numeric cell 'foo'"
    # the same file with the non-finite cell first names that one, across blocks too
    text = _two_column_text(good[:-1]) + f"{good[-1][0]},inf\n7,foo\n"
    with pytest.raises(TableError) as exc:
        load_table(io.StringIO(text))
    assert str(exc.value) == f"row {row - 1}, column 'b': non-finite value 'inf'"
    text = _two_column_text(good) + "1,2,3\n"
    with pytest.raises(TableError, match=f"^row {row} has 3 cells, expected 2$"):
        load_table(io.StringIO(text))


MALFORMED = [
    ("x,y\n1,2\n3,4,5\n", "row 3 has 3 cells, expected 2"),
    ("x,y\n\n1,2\n\n3,oops\n", "row 3, column 'y': non-numeric cell 'oops'"),
    ("x,y\n1,2\n3,inf\n4,foo\n", "row 3, column 'y': non-finite value 'inf'"),
    ("x,y\n1,2\n 1e999 ,4\n", "row 3, column 'x': non-finite value '1e999'"),
    ("x,y\n1,2\n1__0,4\n", "row 3, column 'x': non-numeric cell '1__0'"),
    ("x,y\n1\n", "row 2 has 1 cells, expected 2"),
]


@pytest.mark.parametrize("text, message", MALFORMED)
def test_hcr_fit_on_a_malformed_table_exits_2_and_names_the_row(tmp_path, capsys, text, message):
    table, model = tmp_path / "t.csv", tmp_path / "m.model"
    table.write_text(text)
    code = main(["fit", "--input", str(table), "--out", str(model), "--orders", "2"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err == f"error: {message}\n"
    assert "Traceback" not in out + err
    assert not model.exists()


@pytest.mark.parametrize("text", ["", "\n\n", "x,y\n", "x,y\n\n\n"])
def test_hcr_fit_on_a_table_without_records_exits_2(tmp_path, capsys, text):
    table = tmp_path / "t.csv"
    table.write_text(text)
    code = main(["fit", "--input", str(table), "--out", str(tmp_path / "m"), "--orders", "2"])
    assert code == 2
    assert capsys.readouterr().err == "error: table needs a header row and at least one record\n"


# ---------------------------------------------------------------------------
# writer

FMTS = [lambda x: format(x, ".17g"), repr, lambda x: f"{x:.3e}"]
WRITE_CELLS = st.one_of(
    st.floats(), st.none(), st.integers(-10**6, 10**6),
    st.floats(allow_nan=True).map(np.float64),
    st.sampled_from(["", "a", "nan", "a,b", 'q"uote', " pad ", "1.5"]),
)


@given(st.integers(0, 4), st.integers(0, 6), st.data(), st.sampled_from(range(len(FMTS))),
       st.sampled_from([",", ";", "\t"]))
def test_writer_matches_the_per_cell_writer_on_mixed_columns(d, n, data, k, sep):
    # per column: floats only, floats with None, or floats with text
    kinds = data.draw(st.lists(st.sampled_from(["float", "none", "mixed"]), min_size=d, max_size=d))
    cell = {"float": st.floats(), "none": st.one_of(st.floats(), st.none()), "mixed": WRITE_CELLS}
    rows = [[data.draw(cell[kind]) for kind in kinds] for _ in range(n)]
    names = [f"c{i}" for i in range(d)]
    got, want = io.StringIO(), io.StringIO()
    write_table(got, names, rows, sep, fmt=FMTS[k])
    reference_write_table(want, names, rows, sep, fmt=FMTS[k])
    assert got.getvalue() == want.getvalue()


@given(st.lists(st.lists(WRITE_CELLS, max_size=5), max_size=6), st.sampled_from(range(len(FMTS))))
def test_writer_keeps_ragged_rows_as_given(rows, k):
    got, want = io.StringIO(), io.StringIO()
    write_table(got, ["a", "b"], rows, fmt=FMTS[k])
    reference_write_table(want, ["a", "b"], rows, fmt=FMTS[k])
    assert got.getvalue() == want.getvalue()


def test_writer_accepts_an_array_and_row_iterators():
    values = np.array([[0.1, np.nan], [-0.0, 1e300]])
    want = io.StringIO()
    reference_write_table(want, ["a", "b"], values.tolist(), fmt=repr)
    for rows in (values, iter(values), (tuple(r) for r in values.tolist())):
        got = io.StringIO()
        write_table(got, ["a", "b"], rows, fmt=repr)
        assert got.getvalue() == want.getvalue() == "a,b\n0.1,\n-0.0,1e+300\n"


@given(st.integers(1, 4), st.integers(1, 8), st.data(), st.sampled_from(FMTS[:2]))
def test_write_then_load_is_bit_exact(d, n, data, fmt):
    values = np.array(data.draw(st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=d, max_size=d),
        min_size=n, max_size=n)))
    holes = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=d, max_size=d),
                                        min_size=n, max_size=n)))
    values[holes] = np.nan
    buf = io.StringIO()
    write_table(buf, [f"x{i}" for i in range(d)], values, fmt=fmt)
    back = load_table(io.StringIO(buf.getvalue())).values
    assert back.shape == values.shape
    assert np.array_equal(np.isnan(back), holes)
    assert back[~holes].tobytes() == values[~holes].tobytes()
