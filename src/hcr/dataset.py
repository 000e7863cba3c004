"""Tabular records with missing cells and coordinate transforms to [0,1].

Records are stored as a dense float matrix with NaN marking missing
cells; the known-coordinate set of a record is derived from the NaN
pattern.  Transforms map original units onto [0,1] (rescaling, logistic
squash, empirical CDF, category grid) and back.
"""
from __future__ import annotations

import csv
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import chain, filterfalse, islice, repeat, zip_longest

import numpy as np

from .errors import TableError

__all__ = [
    "Dataset",
    "load_table",
    "Identity",
    "Rescale",
    "Logistic",
    "EmpiricalCDF",
    "CategoryGrid",
    "fit_empirical_cdf",
    "transform_from_tokens",
    "ColumnSpec",
    "parse_schema",
    "column_specs",
    "fit_transform",
    "DEFAULT_MISSING_TOKENS",
]

DEFAULT_MISSING_TOKENS = frozenset({"", "NA", "nan", "?"})
# cells per block that load_table parses at once: bounds its lists of cells
TABLE_BLOCK = 1 << 14


class Dataset:
    """n records of d coordinate slots, NaN where a cell is missing."""

    def __init__(self, values, names=None):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise TableError("dataset requires a 2-D table of records")
        self.values = values
        if names is None:
            names = tuple(f"x{i + 1}" for i in range(values.shape[1]))
        self.names = tuple(names)
        if len(self.names) != values.shape[1]:
            raise TableError("one name per column required")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def present(self) -> np.ndarray:
        """Boolean (n,d) mask of present cells."""
        return ~np.isnan(self.values)

    def complete_mask(self) -> np.ndarray:
        return self.present.all(axis=1)

    def transformed(self, transforms, invert: bool = False) -> "Dataset":
        """Apply per-coordinate transforms to present cells; NaN stays NaN."""
        if len(transforms) != self.d:
            raise ValueError("one transform per coordinate required")
        out = self.values.copy()
        for i, tr in enumerate(transforms):
            mask = self.present[:, i]
            if mask.any():
                col = out[mask, i]
                out[mask, i] = tr.invert(col) if invert else tr.apply(col)
        return Dataset(out, self.names)


def _opened(target, mode: str):
    """A context for the path target, or target itself if it is a stream."""
    if hasattr(target, "read" if mode == "r" else "write"):
        return nullcontext(target)
    return open(target, mode, newline="")


def load_table(source, missing_tokens=DEFAULT_MISSING_TOKENS, sep: str = ",") -> Dataset:
    """Read a character-separated table with a header row into a Dataset.

    source may be a path or an open text stream.  Cells equal to any
    missing token (after stripping whitespace) become NaN; anything else
    must parse as a finite Python float.  Blank lines are skipped and not
    counted; an error names the first malformed row or cell in file order.
    """
    with _opened(source, "r") as fh:
        rows = filter(None, csv.reader(fh, delimiter=sep))
        names = [c.strip() for c in next(iter(_take(rows, 1, 1)), ())]
        tokens, blocks, first = set(missing_tokens), [], 2
        while block := _take(rows, max(1, TABLE_BLOCK // max(len(names), 1)), first):
            blocks.append(_parse_block(block, first, names, tokens))
            first += len(block)
    if not blocks:
        raise TableError("table needs a header row and at least one record")
    return Dataset(np.concatenate(blocks), names)


def _take(rows, n: int, first: int) -> list:
    """The next n rows, numbered from first, with a csv.Error as a TableError."""
    block = []
    try:
        block.extend(islice(rows, n))  # keeps the rows read before an error
    except csv.Error as exc:  # a cell over the csv module's field size limit, say
        raise TableError(f"row {first + len(block)}: {exc}") from None
    return block


def _parse_block(rows, first: int, names, tokens) -> np.ndarray:
    """The cells of rows numbered from first as an (n, d) array."""
    d = len(names)
    ragged = np.flatnonzero(np.fromiter(map(len, rows), int, len(rows)) != d)
    cells = list(map(str.strip, chain.from_iterable(rows[:ragged[0]] if ragged.size else rows)))
    missing = np.fromiter(map(tokens.__contains__, cells), bool, len(cells))
    parsed = []
    try:  # on a non-numeric cell, parsed keeps the cells before it
        parsed.extend(map(float, filterfalse(tokens.__contains__, cells)))
    except ValueError:
        pass
    at = np.flatnonzero(~missing)  # flat position of each non-missing cell
    bad = np.flatnonzero(~np.isfinite(parsed))
    if bad.size or len(parsed) < at.size:
        p = at[bad[0] if bad.size else len(parsed)]
        r, c = divmod(p, d)
        what = "non-finite value" if bad.size else "non-numeric cell"
        raise TableError(f"row {first + r}, column {names[c]!r}: {what} {cells[p]!r}")
    if ragged.size:
        r = ragged[0]
        raise TableError(f"row {first + r} has {len(rows[r])} cells, expected {d}")
    values = np.full(len(cells), np.nan)
    values[~missing] = parsed
    return values.reshape(-1, d)


def write_table(path_or_stream, names, rows, sep: str = ",", fmt=lambda x: format(x, ".17g")):
    """Write rows (sequences of cells) under a header; floats via fmt.

    Cells are rendered a column at a time.  A column without str cells
    goes through one float array, its NaN and None cells written empty;
    the cells of a column holding text are str as is, empty for None or
    a float NaN, fmt(float(cell)) otherwise.  Each row keeps its length.
    """
    rows = rows.tolist() if isinstance(rows, np.ndarray) else list(rows)
    lengths = list(map(len, rows))
    cols = [_render_column(col, fmt) for col in zip_longest(*rows)]
    lines = zip(*cols) if cols else rows  # no columns: every row is empty
    if len(set(lengths)) > 1:
        lines = map(lambda line, n: line[:n], lines, lengths)
    with _opened(path_or_stream, "w") as fh:
        writer = csv.writer(fh, delimiter=sep, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(lines)


def _render_column(col, fmt) -> list:
    if any(map(isinstance, col, repeat(str))):
        return [_cell_text(c, fmt) for c in col]
    values = np.asarray(col, dtype=float)
    text = np.full(values.shape, "", dtype=object)
    keep = ~np.isnan(values)
    text[keep] = list(map(fmt, values[keep].tolist()))
    return text.tolist()


def _cell_text(cell, fmt) -> str:
    if cell is None or (isinstance(cell, float) and np.isnan(cell)):
        return ""
    return cell if isinstance(cell, str) else fmt(float(cell))


# ---------------------------------------------------------------------------
# transforms


class Identity:
    """No-op transform for coordinates already in [0,1]."""

    kind = "none"

    def apply(self, x):
        return np.asarray(x, dtype=float) + 0.0

    def invert(self, u):
        return np.asarray(u, dtype=float) + 0.0

    def tokens(self) -> list[str]:
        return ["none"]


class Rescale:
    """Affine map of [lo, hi] onto [0,1]; out-of-range input clips unless strict."""

    kind = "rescale"

    def __init__(self, lo: float, hi: float, strict: bool = False):
        if not hi > lo:
            raise ValueError("rescale needs hi > lo")
        self.lo = float(lo)
        self.hi = float(hi)
        self.strict = strict

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if self.strict and (np.any(x < self.lo) or np.any(x > self.hi)):
            raise ValueError(f"value outside rescale range [{self.lo}, {self.hi}]")
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def invert(self, u):
        return self.lo + np.asarray(u, dtype=float) * (self.hi - self.lo)

    def tokens(self) -> list[str]:
        return ["rescale", format(self.lo, ".17g"), format(self.hi, ".17g")]


class Logistic:
    """Squash the real line onto (0,1) with 1/(1+e^-x)."""

    kind = "logistic"
    _edge = 1e-15

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        e = np.exp(-np.abs(x))  # in (0,1], so neither branch overflows
        return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))[()]

    def invert(self, u):
        # endpoints would map to +-inf; nudge inside instead
        u = np.clip(np.asarray(u, dtype=float), self._edge, 1.0 - self._edge)
        return np.log(u / (1.0 - u))

    def tokens(self) -> list[str]:
        return ["logistic"]


class EmpiricalCDF:
    """Piecewise-linear empirical CDF through rank plotting positions.

    Values below/above the observed range clamp to delta = 1/(2l) from
    the interval ends, so no transformed value ever reaches an exact 0
    or 1 where the basis polynomials peak.  l, the sample size, is an
    integer >= 1, and the support points are finite.
    """

    kind = "cdf"

    def __init__(self, xs, ps, l: int):
        xs = np.asarray(xs, dtype=float)
        ps = np.asarray(ps, dtype=float)
        if not isinstance(l, (int, np.integer)) or l < 1:
            raise ValueError(f"cdf sample size must be an integer >= 1, got {l}")
        if xs.size < 2 or xs.size != ps.size:
            raise ValueError("need matching xs/ps with at least 2 support points")
        if not (np.isfinite(xs).all() and np.isfinite(ps).all()):
            raise ValueError("cdf support points must be finite")
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ps) <= 0):
            raise ValueError("cdf support must be strictly increasing")
        self.xs = xs
        self.ps = ps
        self.l = int(l)

    @property
    def delta(self) -> float:
        return 1.0 / (2 * self.l)

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        u = np.interp(x, self.xs, self.ps)
        return np.clip(u, self.delta, 1.0 - self.delta)

    def invert(self, u):
        u = np.asarray(u, dtype=float)
        return np.interp(u, self.ps, self.xs)

    def tokens(self) -> list[str]:
        out = ["cdf", str(self.l)]
        for x, p in zip(self.xs, self.ps):
            out.append(format(x, ".17g"))
            out.append(format(p, ".17g"))
        return out


class CategoryGrid:
    """Map v declared category values onto the grid {k/(v-1)}."""

    kind = "grid"

    def __init__(self, categories):
        cats = tuple(float(c) for c in categories)
        if len(cats) < 2:
            raise ValueError("need at least 2 categories")
        if len(set(cats)) != len(cats):
            raise ValueError("duplicate category values")
        self.categories = cats
        self.v = len(cats)
        self._grid = np.arange(self.v) / (self.v - 1)

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        hit = np.abs(x[..., None] - np.asarray(self.categories)) <= 1e-9
        known = hit.any(axis=-1)
        if not known.all():
            raise ValueError(f"value {x[~known][0]} is not a declared category")
        out = self._grid[hit.argmax(axis=-1)]  # the first declared match
        return out if x.ndim else float(out)

    def invert(self, u):
        u = np.asarray(u, dtype=float)
        idx = np.clip(np.rint(u * (self.v - 1)).astype(int), 0, self.v - 1)
        out = np.asarray(self.categories)[idx]
        return out if u.ndim else float(out)

    def tokens(self) -> list[str]:
        return ["grid"] + [format(c, ".17g") for c in self.categories]


def fit_empirical_cdf(values) -> EmpiricalCDF:
    """Fit the rank-based CDF transform to the present values of a coordinate.

    Sorted values get plotting positions (k - 0.5)/l; tied values share
    the mean of their positions, keeping the map strictly increasing on
    distinct support.
    """
    values = np.asarray(values, dtype=float)
    values = values[~np.isnan(values)]
    l = values.size
    xs, inverse = np.unique(values, return_inverse=True)
    if xs.size < 2:
        raise ValueError("empirical cdf needs at least 2 distinct values")
    positions = (np.arange(1, l + 1) - 0.5) / l
    order = np.argsort(values, kind="stable")
    pos_of_value = np.empty(l)
    pos_of_value[order] = positions
    ps = np.zeros(xs.size)
    counts = np.bincount(inverse, minlength=xs.size)
    np.add.at(ps, inverse, pos_of_value)
    ps = ps / counts
    return EmpiricalCDF(xs, ps, l)


def transform_from_tokens(tokens) -> object:
    kind, args = tokens[0], tokens[1:]
    if kind == "none":
        return Identity()
    if kind == "rescale":
        return Rescale(float(args[0]), float(args[1]))
    if kind == "logistic":
        return Logistic()
    if kind == "cdf":
        l = int(args[0])
        flat = np.asarray(args[1:], dtype=float)
        return EmpiricalCDF(flat[0::2], flat[1::2], l)
    if kind == "grid":
        return CategoryGrid([float(a) for a in args])
    raise ValueError(f"unknown transform kind {kind!r}")


# ---------------------------------------------------------------------------
# schema


@dataclass
class ColumnSpec:
    """Declared handling of one coordinate: family kind plus transform,
    and the schema line it was read from (None for a default)."""

    name: str
    family: str = "legendre"
    categories: tuple[float, ...] | None = None
    transform: str = "none"
    args: tuple[float, ...] = ()
    line: int | None = field(default=None, compare=False)


def parse_schema(text: str) -> dict[str, ColumnSpec]:
    """Parse `name: family [categories...] [transform [args...]]` lines.

    Examples of accepted lines:
        x1: legendre cdf
        x2: trig logistic
        x3: legendre rescale 0 10
        grade: discrete 1 2 3
    Blank lines and lines starting with # are skipped.  Categories and
    transform arguments are finite numbers, and a name is declared once;
    an error names the line.
    """
    out: dict[str, ColumnSpec] = {}
    seen: dict[str, int] = {}  # name -> its line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if ":" not in line:
                raise ValueError("expected `name: ...`")
            name, rest = line.split(":", 1)
            name = name.strip()
            if name in seen:
                raise ValueError(f"duplicate name {name!r} (first on line {seen[name]})")
            seen[name] = lineno
            words = rest.split()
            if not words:
                raise ValueError("empty declaration")
            family = words[0]
            if family == "discrete":
                cats = tuple(map(_finite, words[1:]))
                if len(cats) < 2:
                    raise ValueError("discrete needs >= 2 category values")
                CategoryGrid(cats)  # repeated categories fail here, where the line is known
                out[name] = ColumnSpec(name, "discrete", cats, "grid", cats, lineno)
                continue
            if family not in ("legendre", "trig"):
                raise ValueError(f"unknown family {family!r}")
            transform = words[1] if len(words) > 1 else "none"
            if transform not in ("none", "rescale", "logistic", "cdf"):
                raise ValueError(f"unknown transform {transform!r}")
            args = tuple(map(_finite, words[2:]))
            if transform == "rescale" and args:
                if len(args) != 2:
                    raise ValueError("rescale takes `lo hi`")
                Rescale(*args)  # lo >= hi fails here, too
            out[name] = ColumnSpec(name, family, None, transform, args, lineno)
        except ValueError as exc:
            raise ValueError(f"schema line {lineno}: {exc}") from None
    return out


def _finite(word: str) -> float:
    """word as a float; an error unless it is a finite number."""
    try:
        value = float(word)
    except ValueError:
        raise ValueError(f"{word!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{word!r} is not a finite number")
    return value


def column_specs(schema: dict[str, ColumnSpec], names) -> list[ColumnSpec]:
    """Per-column specs in table order; unlisted columns get the default.
    A schema name that is not a column is an error naming its line."""
    unknown = [spec for name, spec in schema.items() if name not in names]
    if unknown:
        where = "" if unknown[0].line is None else f"schema line {unknown[0].line}: "
        raise ValueError(f"{where}schema names not in table: {[s.name for s in unknown]}")
    return [schema.get(name, ColumnSpec(name)) for name in names]


def fit_transform(spec: ColumnSpec, values):
    """Build the declared transform, fitting data-dependent ones to values."""
    if spec.transform == "none":
        return Identity()
    if spec.transform == "rescale":
        if spec.args:
            return Rescale(*spec.args)
        values = np.asarray(values, dtype=float)
        values = values[~np.isnan(values)]
        if values.size == 0 or values.min() == values.max():
            raise ValueError(f"column {spec.name!r}: cannot fit rescale range")
        return Rescale(values.min(), values.max())
    if spec.transform == "logistic":
        return Logistic()
    if spec.transform == "cdf":
        try:
            return fit_empirical_cdf(values)
        except ValueError as exc:
            raise ValueError(f"column {spec.name!r}: {exc}") from None
    if spec.transform == "grid":
        return CategoryGrid(spec.args)
    raise ValueError(f"unknown transform {spec.transform!r}")
