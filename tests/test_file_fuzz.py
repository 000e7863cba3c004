"""Mutation fuzz of the schema and transforms readers.

A valid file has a token replaced, inserted or deleted, or a line
duplicated.  The reader either parses the result or raises an error whose
message names a line, and the CLI ends on it with exit 2, never with a
traceback.
"""
import io
import re

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hcr import (CategoryGrid, HcrError, Identity, Logistic, Rescale, fit_empirical_cdf,
                 parse_schema)
from hcr.cli import main
from hcr.model_io import load_transforms, save_transforms

NAMES = ["a", "b", "c", "d", "g", "e"]
# every family, and every transform a schema can declare
SCHEMA = """# a comment
a: legendre cdf
b: trig logistic
c: legendre rescale 0 10

d: legendre rescale
g: discrete 1 2 3
e: trig none
"""
JUNK = ["", "x", "-", "#", ":", "a:", "0", "1", "-1", "7", "2.5", "1e400", "nan", "inf",
        "-inf", "99999999999999999999", "column", "none", "rescale", "logistic", "cdf",
        "grid", "legendre", "trig", "discrete"]
NAMES_A_LINE = re.compile(r"\bline \d+\b|\bmagic line\b")


def transforms_file() -> str:
    rng = np.random.default_rng(7)
    buf = io.StringIO()
    save_transforms(NAMES, [fit_empirical_cdf(rng.normal(size=9)), Logistic(),
                            Rescale(0.0, 10.0), Rescale(-1.5, 2.25), CategoryGrid([1, 2, 3]),
                            Identity()], buf)
    return buf.getvalue()


MAPS = transforms_file()


@st.composite
def mutated(draw, text):
    lines = text.splitlines()
    tokens = st.sampled_from(sorted(set(text.split())) + JUNK)
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        words = lines[k].split(" ")
        edit = draw(st.sampled_from(["replace", "insert", "delete", "duplicate"]))
        if edit == "replace":
            words[draw(st.integers(0, len(words) - 1))] = draw(tokens)
        elif edit == "insert":
            words.insert(draw(st.integers(0, len(words))), draw(tokens))
        elif edit == "delete":
            del words[draw(st.integers(0, len(words) - 1))]
        else:
            lines.insert(draw(st.integers(0, len(lines))), lines[k])
        lines[k] = " ".join(words)
    return "\n".join(lines) + "\n"


def rejection(read, text):
    """The message read raises on text, or None when text parses."""
    try:
        read(text)
    except (ValueError, HcrError) as exc:
        return str(exc)
    return None


def read_transforms(text):
    return load_transforms(io.StringIO(text), len(NAMES))


@given(mutated(SCHEMA))
def test_schema_reader_parses_or_names_the_line(text):
    message = rejection(parse_schema, text)
    assert message is None or NAMES_A_LINE.search(message), message


@given(mutated(MAPS))
def test_transforms_reader_parses_or_names_the_line(text):
    message = rejection(read_transforms, text)
    assert message is None or NAMES_A_LINE.search(message), message


def write_tables(tmp_path):
    rng = np.random.default_rng(3)
    n = 40
    raw = np.column_stack([rng.normal(size=n), rng.normal(size=n), rng.uniform(0, 10, n),
                           rng.uniform(-5, 5, n), rng.integers(1, 4, n), rng.random(n)])
    unit = rng.random((n, len(NAMES)))
    unit[rng.random(unit.shape) < 0.2] = np.nan
    paths = []
    for name, values in (("raw.csv", raw), ("unit.csv", unit)):
        rows = [",".join("" if np.isnan(v) else repr(float(v)) for v in row) for row in values]
        (tmp_path / name).write_text("\n".join([",".join(NAMES), *rows]) + "\n")
        paths.append(str(tmp_path / name))
    return paths


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(schema=mutated(SCHEMA), maps=mutated(MAPS))
def test_cli_ends_a_fuzzed_file_with_exit_0_or_2(tmp_path, capsys, schema, maps):
    raw, unit = write_tables(tmp_path)
    schema_path, maps_path = tmp_path / "schema.txt", tmp_path / "maps.txt"
    schema_path.write_text(schema)
    maps_path.write_text(maps)
    runs = [(parse_schema, schema, ["fit", "--input", raw, "--out", str(tmp_path / "m"),
                                    "--orders", "2", "--schema", str(schema_path)]),
            (read_transforms, maps, ["transform", "--input", unit, "--direction", "backward",
                                     "--transforms", str(maps_path),
                                     "--out", str(tmp_path / "back.csv")])]
    for read, text, argv in runs:
        message = rejection(read, text)
        code = main(argv)  # an uncaught exception fails the test: no traceback
        err = capsys.readouterr().err
        if message is not None:
            assert (code, err) == (2, f"error: {message}\n")
        else:
            assert code in (0, 2) and (code == 0) == (err == ""), err
