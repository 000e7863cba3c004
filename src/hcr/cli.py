"""Command-line surface: fit, impute, density, refine, report, transform.

Exit codes: 0 success, 1 usage, 2 data error, 3 numeric failure
(nonpositive conditional mass or exhausted positivity backtracking).
"""
from __future__ import annotations

import argparse
import sys
from itertools import groupby, repeat

import numpy as np

from .basis1d import Family1D, discrete
from .dataset import (DEFAULT_MISSING_TOKENS, _finite, _opened, column_specs, fit_transform,
                      load_table, parse_schema, write_table)
from .density import (CLUSTER_SPLIT, EXPECTED, TOP_MODE, _impute_rows, clamp,
                      conditional_slice, evaluate)
from .errors import HcrError, NonpositiveMassError, PositivityError, TableError
from .estimator import fit
from .likelihood import RefineConfig, find_negative_witness, refine
from .model_io import load_model, load_transforms, save_model, save_transforms
from .tensor_basis import _blocks, build_full, support

__all__ = ["main"]

ORDER_LABELS = {1: "trend", 2: "focus/spread", 3: "skew-like", 4: "kurtosis-like"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _missing_tokens(arg: str) -> frozenset:
    return frozenset(t.strip() for t in arg.split(",")) | {""}


def _parse_orders(text: str, d: int) -> dict[int, int]:
    """Comma list per correlation level; one value applies to all levels,
    short lists leave the remaining deeper levels empty."""
    try:
        values = [int(t) for t in text.split(",")]
    except ValueError:
        raise _UsageError(f"--orders expects integers, got {text!r}") from None
    if any(v < 0 for v in values):
        raise _UsageError("--orders values must be >= 0")
    if len(values) == 1:
        values = values * d
    if len(values) > d:
        raise _UsageError(f"--orders lists {len(values)} levels for {d} coordinates")
    return dict(enumerate(values + [0] * (d - len(values)), start=1))


def _declared(data, schema_path):
    """The --schema file's column specs (defaults without one) and their fitted transforms."""
    schema = {}
    if schema_path:
        with _opened(schema_path, "r") as fh:
            schema = parse_schema(fh.read())
    specs = column_specs(schema, data.names)
    return specs, [fit_transform(s, data.values[:, i]) for i, s in enumerate(specs)]


def _function_name(j, names) -> str:
    return "*".join(f"{names[i]}^{j[i]}" for i in support(j)) or "1"


def _interpret(j, names, a: float) -> str:
    s = support(j)
    if not s:
        return "normalization"
    if len(s) >= 2 and all(j[i] == 1 for i in s):
        coords = ",".join(str(i + 1) for i in s)
        return f"coordinates {coords}: {'co-increase' if a > 0 else 'co-decrease'}"
    return ", ".join(
        f"{names[i]}: {ORDER_LABELS.get(j[i], f'order-{j[i]}')}" for i in s)


# ---------------------------------------------------------------------------
# subcommands


def cmd_fit(args) -> int:
    data = load_table(args.input, args.missing_tokens, args.sep)
    specs, transforms = _declared(data, args.schema)
    unit = data.transformed(transforms)
    orders = _parse_orders(args.orders, data.d)
    max_m = max(orders.values())
    families = [discrete(len(s.categories)) if s.categories else Family1D(s.family, max_m)
                for s in specs]
    spec = build_full(data.d, families, orders)
    model = fit(spec, unit, names=data.names, transforms=transforms)
    save_model(model, args.out)

    names = data.names
    print(f"records: {data.n}, coordinates: {data.d}")
    counts = data.present.sum(axis=0)
    print("presence: " + ", ".join(f"{nm} {int(c)}/{data.n}" for nm, c in zip(names, counts)))
    if any(c == 0 for c in counts):
        empty = [nm for nm, c in zip(names, counts) if c == 0]
        print(f"warning: fully-missing columns {empty}: their terms are flagged no-evidence")
    levels = np.bincount(spec.touch.sum(axis=1))
    print("basis: " + ", ".join(f"level {lvl}: {n}" for lvl, n in enumerate(levels) if n)
          + f" ({len(spec)} functions)")
    if len(spec) == 1:
        print("warning: uniform model (no non-constant functions selected)")
    # evidence keeps selected's canonical order: by level, then by subset
    print("evidence: " + ", ".join(
        "{" + ",".join(names[i] for i in c) + "}: " + str(n) for c, n in model.evidence.items()))
    rows = np.flatnonzero(spec.touch.any(axis=1) & np.isfinite(model.unc) & (model.unc > 0))
    ratio = np.abs(model.coef[rows]) / model.unc[rows]
    ranked = rows[np.argsort(-ratio, kind="stable")[:5]].tolist()
    if ranked:
        print("top coefficients by |a|/uncertainty:")
        for p in ranked:
            a, u = float(model.coef[p]), float(model.unc[p])
            print(f"  {_function_name(spec.selected[p], names)} a={a:.6g} u={u:.6g} "
                  f"ratio={abs(a) / u:.3g}")
    return 0


def cmd_impute(args) -> int:
    model = load_model(args.model)
    data = load_table(args.input, args.missing_tokens, args.sep)
    if data.d != model.d:
        raise TableError(f"table has {data.d} coordinates, model expects {model.d}")
    unit = data.transformed(model.transforms)
    results = []
    for rows in _blocks(model.spec, data.n):
        results += _impute_rows(model, unit.values[rows], args.policy)
    # per output row: its input row, unit values, weight, note and variances;
    # a row left unfilled is written as it was read
    source, filled, extras = [], [], []
    failures = 0
    for k, res in enumerate(results):
        if isinstance(res, NonpositiveMassError):
            failures += 1
            res = [(unit.values[k], 1.0, f"nonpositive-mass:{res.denominator:.6g}", {})]
        else:
            res = [(c.values, c.weight, ";".join(c.notes), c.variances) for c in res]
        for values, *extra in res:
            source.append(k)
            filled.append(values)
            extras.append(extra)
    cells = data.values[source]
    filled = np.reshape(filled, cells.shape)
    holes = np.isnan(unit.values[source]) & ~np.isnan(filled)
    for i, tr in enumerate(model.transforms):
        if holes[:, i].any():
            cells[holes[:, i], i] = tr.invert(filled[holes[:, i], i])
    # the output built column by column, handed to write_table as rows
    header = list(data.names)
    columns = cells.T.tolist()
    weights, notes, variances = zip(*extras)
    if args.policy == CLUSTER_SPLIT:
        header.append("__hcr_weight")
        columns.append(weights)
    if any(notes):
        header.append("__hcr_note")
        columns.append(notes)
    if args.report:
        header.extend(f"__hcr_var_{nm}" for nm in data.names)
        columns.extend(map(dict.get, variances, repeat(i)) for i in range(model.d))
    write_table(args.out if args.out else sys.stdout, header, zip(*columns), args.sep,
                fmt=repr)
    if failures:
        print(f"warning: {failures} rows left unfilled (nonpositive conditional mass)",
              file=sys.stderr)
    return 0


def cmd_density(args) -> int:
    if args.grid < 2:
        raise _UsageError(f"--grid must be >= 2, got {args.grid}")
    if args.epsilon is not None and not args.epsilon > 0:
        raise _UsageError(f"--epsilon must be > 0, got {args.epsilon}")
    model = load_model(args.model)
    parts = [p.strip() for p in args.point.split(",")]
    if len(parts) != model.d:
        raise _UsageError(f"point has {len(parts)} cells, model expects {model.d}")
    free = [i for i, p in enumerate(parts) if p == "?"]
    if len(free) > 1:
        raise _UsageError("at most one '?' coordinate; use impute for joint queries")
    point = np.full(model.d, np.nan)
    for i, p in enumerate(parts):
        if p == "?":
            continue
        try:
            raw = _finite(p)
        except ValueError as exc:
            raise _UsageError(f"coordinate {i + 1}: {exc}") from None
        point[i] = float(np.asarray(model.transforms[i].apply(raw)))
    if not free:
        rho = evaluate(model, point)
        if args.epsilon is not None:
            rho = clamp(rho, args.epsilon)
        print(repr(rho))
        return 0
    i = free[0]
    sl = conditional_slice(model, point, i)
    fam = model.spec.families[i]
    grid = fam.grid if fam.is_discrete else np.linspace(0.0, 1.0, args.grid)
    values = np.asarray(sl.evaluate(grid))
    if args.epsilon is not None:
        values = np.maximum(values, args.epsilon)
    name = model.coordinate_names()[i]
    rows = np.column_stack([grid, model.transforms[i].invert(grid), values])
    write_table(args.out if args.out else sys.stdout, ["x", name, "density"],
                rows, args.sep, fmt=repr)
    return 0


def cmd_refine(args) -> int:
    try:
        config = RefineConfig(steps=args.steps, step_size=args.rate, ridge=args.ridge,
                              positivity_margin=1e-6 if args.epsilon is None else args.epsilon)
    except ValueError as exc:  # the message starts with the RefineConfig field
        field = str(exc).split()[0]
        flag = {"step_size": "rate", "positivity_margin": "epsilon"}.get(field, field)
        raise _UsageError(f"--{flag}: {exc}") from None
    model = load_model(args.model)
    data = load_table(args.input, args.missing_tokens, args.sep)
    if data.d != model.d:
        raise TableError(f"table has {data.d} coordinates, model expects {model.d}")
    unit = data.transformed(model.transforms)
    try:
        refined, trace = refine(model, unit, config)
    except (PositivityError, NonpositiveMassError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        witness = find_negative_witness(model, budget=512)
        if witness is not None:
            cells = ",".join(repr(float(w)) for w in witness)
            print(f"negative-density witness (unit coordinates): {cells}", file=sys.stderr)
        return 3
    save_model(refined, args.out)
    print("step loglik objective step_scale")
    for t in trace:
        print(f"{t.step} {t.loglik:.12g} {t.objective:.12g} {t.step_scale:.6g}")
    return 0


def cmd_transform(args) -> int:
    forward = args.direction == "forward"
    if forward and not args.schema:
        raise _UsageError("forward transform requires --schema")
    if not forward and not args.transforms:
        raise _UsageError("backward transform requires --transforms")
    data = load_table(args.input, args.missing_tokens, args.sep)
    if forward:
        _, transforms = _declared(data, args.schema)
        out = data.transformed(transforms)
    else:
        out = data.transformed(load_transforms(args.transforms, data.d), invert=True)
    write_table(args.out if args.out else sys.stdout, data.names, out.values, args.sep, fmt=repr)
    if forward and args.transforms:
        save_transforms(data.names, transforms, args.transforms)
    return 0


def cmd_report(args) -> int:
    model = load_model(args.model)
    names = model.coordinate_names()
    print(f"model: {model.d} coordinates, {len(model.spec.selected)} functions")
    for i, fam in enumerate(model.spec.families):
        extra = f" v={fam.v}" if fam.is_discrete else ""
        print(f"  column {names[i]}: {fam.kind} order<={fam.max_order}{extra} "
              f"transform={model.transforms[i].kind}")
    rows = zip(model.spec.selected, model.coef, model.unc, model.term_flags)
    # selected is in canonical order, so each level is one run of rows
    for lvl, run in groupby(rows, key=lambda row: len(support(row[0]))):
        run = list(run)
        print(f"level {lvl} ({len(run)} functions):")
        for j, a, u, flag in run:
            ratio = abs(a) / u if (np.isfinite(u) and u > 0) else float("nan")
            line = (f"  {_function_name(j, names)} a={a:.6g} u={u:.6g} "
                    f"ratio={ratio:.3g} {_interpret(j, names, a)}")
            if flag:
                line += f" [{flag}]"
            print(line)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="hcr", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--sep", default=",", help="cell separator (default ,)")
    common.add_argument("--missing-tokens", type=_missing_tokens, default=DEFAULT_MISSING_TOKENS,
                        help="comma list of missing-value tokens (empty cell always counts)")

    p = sub.add_parser("fit", parents=[common], help="fit a model to a table")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--schema", help="per-column family/transform declarations")
    p.add_argument("--orders", required=True,
                   help="comma list of max order per correlation level, e.g. 3,2")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("impute", parents=[common], help="fill missing cells")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", help="output table (default stdout)")
    p.add_argument("--policy", default=EXPECTED,
                   choices=[EXPECTED, TOP_MODE, CLUSTER_SPLIT])
    p.add_argument("--report", action="store_true",
                   help="append per-cell variance columns")
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("density", parents=[common],
                       help="density at a point, or a slice table with one '?'")
    p.add_argument("--model", required=True)
    p.add_argument("--point", required=True,
                   help="comma list in original units; '?' marks the free coordinate")
    p.add_argument("--out", help="slice table output (default stdout)")
    p.add_argument("--grid", type=int, default=101, help="slice table resolution, >= 2")
    p.add_argument("--epsilon", type=float, default=None,
                   help="clamp floor applied to reported densities, > 0")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("refine", parents=[common],
                       help="gradient-ascent refinement of a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=10, help="ascent steps, >= 0 (default 10)")
    p.add_argument("--rate", type=float, default=0.1, help="ascent step size, > 0")
    p.add_argument("--ridge", type=float, default=0.0, help="ridge penalty, >= 0 (default 0)")
    p.add_argument("--epsilon", type=float, default=None,
                   help="positivity margin, >= 0 (default 1e-6)")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("report", parents=[common], help="human-readable model report")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("transform", parents=[common],
                       help="map a table to [0,1] coordinates and back")
    p.add_argument("--input", required=True)
    p.add_argument("--out", help="output table (default stdout)")
    p.add_argument("--schema", help="required for forward")
    p.add_argument("--direction", choices=["forward", "backward"], default="forward")
    p.add_argument("--transforms", help="transform tables to write (forward) or read (backward)")
    p.set_defaults(func=cmd_transform)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.error("a subcommand is required")
    try:
        return args.func(args) or 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (NonpositiveMassError, PositivityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (HcrError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
