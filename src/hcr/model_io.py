"""Versioned plain-text model and transforms files.

Line-oriented and diffable: a magic header, one `column` line per
coordinate (family plus transform tokens), then one `coef` line per
selected multi-index in canonical order.  A transforms file holds the
magic line and the column lines' name and transform only.  Floats are
written with 17 significant digits so save -> load -> save is
byte-identical.
"""
from __future__ import annotations

import math

from .basis1d import Family1D
from .dataset import Identity, _opened, transform_from_tokens
from .errors import TableError
from .estimator import Model
from .tensor_basis import BasisSpec, _check_index, support

__all__ = ["save_model", "load_model", "save_transforms", "load_transforms", "MAGIC",
           "FORMAT_VERSION"]

MAGIC = "hcrmodel"
FORMAT_VERSION = 1
TRANSFORMS_MAGIC = "hcrtransforms 1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _name(names, i: int) -> str:
    return "_".join(str(names[i]).split()) or f"x{i + 1}"


def _write(lines: list[str], dest) -> None:
    with _opened(dest, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read(source) -> list[str]:
    with _opened(source, "r") as fh:
        return fh.read().splitlines()


def _column(parts, d: int, seen: dict, lineno: int) -> int:
    """A `column` line's index: in [0, d) and not in seen, which maps it to its line."""
    i = int(parts[1])
    if not 0 <= i < d:
        raise ValueError(f"column index {i} out of range")
    if i in seen:
        raise ValueError(f"duplicate column {i} (first on line {seen[i]})")
    seen[i] = lineno
    return i


def save_model(model: Model, dest) -> None:
    """Write the model to a path or text stream."""
    names = model.coordinate_names()
    transforms = model.transforms or [Identity() for _ in range(model.d)]
    lines = [f"{MAGIC} {FORMAT_VERSION}", f"dim {model.d}"]
    for i, (fam, tr) in enumerate(zip(model.spec.families, transforms, strict=True)):
        lines.append(" ".join(["column", str(i), _name(names, i), fam.kind, str(fam.max_order),
                               "-" if fam.v is None else str(fam.v), *tr.tokens()]))
    for j, a, n, u, flag in zip(model.spec.selected, model.coef, model.count.tolist(),
                                model.unc, model.term_flags):
        lines.append(" ".join(["coef", ",".join(map(str, j)), _fmt(a), str(n), _fmt(u),
                               flag or "-"]))
    _write(lines, dest)


def save_transforms(names, transforms, dest) -> None:
    """Write per-column transforms to a path or text stream."""
    _write([TRANSFORMS_MAGIC, *(" ".join(["column", str(i), _name(names, i), *tr.tokens()])
                                for i, tr in enumerate(transforms))], dest)


def load_transforms(source, d: int) -> list:
    """Read the transforms of a d-column table written by save_transforms;
    a column without a line keeps the identity.  Errors are TableErrors
    that name the line."""
    lines = _read(source)
    if not lines or lines[0].strip() != TRANSFORMS_MAGIC:
        raise TableError("not a transforms file (bad magic line)")
    transforms = [Identity() for _ in range(d)]
    seen = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts:
            continue
        try:
            if parts[0] != "column" or len(parts) < 4:
                raise ValueError("expected 'column <index> <name> <transform...>'")
            transforms[_column(parts, d, seen, lineno)] = transform_from_tokens(parts[3:])
        except (IndexError, ValueError) as exc:
            raise TableError(f"transforms file line {lineno}: {exc}") from None
    return transforms


def load_model(source) -> Model:
    """Read a model written by save_model."""
    lines = _read(source)
    if not lines:
        raise ValueError("empty model file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != MAGIC:
        raise ValueError("not a model file (bad magic line)")
    if not head[1].isdecimal():
        raise ValueError(f"model file line 1: bad format version {head[1]!r}")
    if int(head[1]) != FORMAT_VERSION:
        raise ValueError(f"model file line 1: unsupported format version {head[1]}")
    dim = lines[1].split() if len(lines) > 1 else []
    if len(dim) != 2 or dim[0] != "dim":
        raise ValueError("model file line 2: expected 'dim <d>'")
    try:
        d = int(dim[1])
    except ValueError:
        raise ValueError(f"model file line 2: bad dimension {dim[1]!r}") from None
    if d < 1:
        raise ValueError(f"model file line 2: dimension {d} is not positive")
    seen, columns = {}, {}  # coordinate -> its line; -> (name, family, transform)
    coefs = {}  # multi-index -> (line, coefficient, evidence, uncertainty, flag)
    evidence = {}  # support -> (evidence, the line of its first coef)
    for lineno, raw in enumerate(lines[2:], start=3):
        parts = raw.split()
        if not parts:
            continue
        try:
            if parts[0] == "column":
                i = _column(parts, d, seen, lineno)
                family = Family1D(parts[3], int(parts[4]),
                                  None if parts[5] == "-" else int(parts[5]))
                columns[i] = (parts[2], family, transform_from_tokens(parts[6:]))
            elif parts[0] == "coef":
                j = tuple(int(t) for t in parts[1].split(","))
                if len(j) != d:
                    raise ValueError(f"multi-index {parts[1]} is not length {d}")
                if j in coefs:
                    raise ValueError(f"duplicate coef {parts[1]} (first on line {coefs[j][0]})")
                a = float(parts[2])
                if not math.isfinite(a):
                    raise ValueError(f"coefficient {parts[2]} is not finite")
                n = int(parts[3])
                m, first = evidence.setdefault(support(j), (n, lineno))
                if m != n:
                    raise ValueError(f"evidence {n} disagrees with {m} on line {first}, "
                                     "which has the same support")
                coefs[j] = (lineno, a, n, float(parts[4]), "" if parts[5] == "-" else parts[5])
            else:
                raise ValueError(f"unknown record {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"model file line {lineno}: {exc}") from None
    if len(columns) != d:
        raise ValueError(f"model file has column lines for {len(columns)} of {d} coordinates")
    names, families, transforms = zip(*(columns[i] for i in range(d)))
    for j, (lineno, *_) in coefs.items():
        try:
            _check_index(j, families)
        except ValueError as exc:
            raise ValueError(f"model file line {lineno}: {exc}") from None
    spec = BasisSpec(d, families, tuple(coefs))
    no_line = (0, 1.0, 0, 0.0, "")  # the constant, when no coef line holds it
    _, coef, count, unc, flags = zip(*(coefs.get(j, no_line) for j in spec.selected))
    return Model(spec, coef, count, unc, flags, transforms=list(transforms), names=names)
