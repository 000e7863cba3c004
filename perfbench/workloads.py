"""The benchmark's workloads, each with its note beside its definition.

Every workload is closed-loop with one client in one process: the next
operation starts when the previous one has returned.  Inputs come only
from the workload seed (`generate`).  A run times the workload's `ops` in
cycles and reports, with tracing off, these end-to-end metrics:

  setup_s  (s, lower)   median over repetitions of one set-up: a fresh
                        interpreter importing the library, plus input
                        generation, files written, basis build and the
                        set-up fit/repair.
  round_s  (s, lower)   one cycle of the workload's ops: the sum of each
                        op's median wall time.
  peak_mb  (MB, lower)  in-process workloads: tracemalloc peak of a
                        separate untimed pass over the workload's
                        peak-pass ops; cli_session: the largest resident
                        set of any command it ran.

Each workload also prints its own named metrics (listed in its note) and
the failed fraction, failed ops / attempted ops (lower).
"""
from __future__ import annotations

import contextlib
import csv
import io
import re
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks

POLICIES = ("expected", "top-mode", "cluster-split")
REPAIR_MARGIN = 0.05
REFINE_STEPS = 10


def generate(seed: int, n: int, d: int) -> np.ndarray:
    """beta(2,3) draws; x2 = clip(x1 + N(0, 0.1), 0, 1); 20% of cells MCAR.

    The strong x1-x2 correlation is what drives fits negative at some
    training records (a known defect), so the benchmark keeps it.
    """
    rng = np.random.default_rng([seed, n, d])
    x = rng.beta(2.0, 3.0, size=(n, d))
    x[:, 1] = np.clip(x[:, 0] + rng.normal(0.0, 0.1, n), 0.0, 1.0)
    x[rng.random((n, d)) < 0.2] = np.nan
    return x


def orders(d: int, given: dict) -> dict:
    return {lvl: given.get(lvl, 0) for lvl in range(1, d + 1)}


def repaired_for_refine(hcr, model, complete: np.ndarray):
    """One rescale-all repair at the worst complete record.

    rho'(x) = 1 + t*s(x) >= 1 + t*s(x*) = margin for every complete x,
    since s(x) >= s(x*) at the minimum, so every record refine reads
    starts at or above the margin.  repair_negative raises when the
    witness already meets the margin, so that case keeps the model.
    """
    rho = hcr.evaluate_points(model, complete)
    worst = int(np.argmin(rho))
    if rho[worst] >= REPAIR_MARGIN:
        return model
    return hcr.repair_negative(model, complete[worst], hcr.RESCALE_ALL,
                               margin=REPAIR_MARGIN)


def coef_vector(model) -> np.ndarray:
    return np.array([model.coefficients[j] for j in model.spec.selected])


def refine_start_objective(model, complete: np.ndarray) -> float:
    return float(np.mean(np.log(checks.ref_density(model, complete))))


class _Workload:
    def peak_mb(self, hcr, st) -> float:
        tracemalloc.start()
        try:
            self.peak_pass(hcr, st)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def in_process_cycle(self, hcr, st) -> tuple[int, int]:
        """One cycle of the ops inside this process (the traced form)."""
        counts = [self.run_op(hcr, op, st) for op in self.ops]
        return sum(a for a, _ in counts), sum(f for _, f in counts)

    def warm_up(self, hcr, st):
        """Untimed cycle before timing, so first-call costs (allocator
        growth, lazily built tables) stay out of the op samples."""
        self.in_process_cycle(hcr, st)


class FitBatch(_Workload):
    """fit_batch: the write side.

    Why: nearly all time is vectorised averaging over many rows, with
    almost no scalar query work, so a query-side change should leave it
    unchanged.
    Inputs: 100k x 6, Legendre, orders {1:4, 2:2, 3:1} (105 functions),
    held in memory.
    Ops per cycle: `fit` of the whole table; `evaluate_points` over the
    complete rows; an `adapt` stream of 1000 records; `refine` for 10 steps
    on the complete rows from the repaired model (step 0.03); `save_model` ->
    `load_model` -> `save_model` through files.
    Stresses: estimator, basis1d.eval_all, likelihood (refine), model_io.
    Bypasses: basis1d.eval, conditional slices, impute, table I/O, cli.
    Metrics: fit_rows_per_s (rows/s, higher), eval_points_per_s (points/s,
    higher), adapt_records_per_s (records/s, higher), refine_s (s, lower),
    io_roundtrip_s (s, lower), failed_frac, peak_mb (the cycle less adapt),
    setup_s.
    """

    name = "fit_batch"
    why = "write side: vectorised averaging over 100k rows (fit, adapt, refine), almost no scalar query work"
    import_module = "hcr"
    ops = ("fit", "evaluate_points", "adapt", "refine", "io")
    N, D = 100_000, 6
    ADAPT_RECORDS = 1000
    ADAPT_RATE = 0.01
    # Small enough that backtracks, whose number varies by seed, stay rare
    # (0-3 over 10 steps for seeds 1-10); at the CLI's 0.1 they ranged 1-15.
    REFINE_STEP = 0.03

    def setup(self, hcr, seed: int, ctx):
        st = SimpleNamespace(work=ctx.work, out={}, items=[])
        st.values = generate(seed, self.N, self.D)
        st.data = hcr.Dataset(st.values)
        st.spec = hcr.build_full(self.D, hcr.legendre(4), orders(self.D, {1: 4, 2: 2, 3: 1}))
        st.model = hcr.fit(st.spec, st.data)
        st.complete = st.values[st.data.complete_mask()]
        st.complete_data = hcr.Dataset(st.complete)
        st.repaired = repaired_for_refine(hcr, st.model, st.complete)
        st.stream = st.values[:self.ADAPT_RECORDS]
        st.config = hcr.RefineConfig(steps=REFINE_STEPS, step_size=self.REFINE_STEP)
        return st

    def run_op(self, hcr, op: str, st) -> tuple[int, int]:
        if op == "fit":
            st.out.setdefault("fit", hcr.fit(st.spec, st.data))
            return 1, 0
        if op == "evaluate_points":
            st.out.setdefault("evaluate_points", hcr.evaluate_points(st.model, st.complete))
            return 1, 0
        if op == "adapt":
            model = st.model
            for record in st.stream:
                model = hcr.adapt(model, record, self.ADAPT_RATE)
            st.out.setdefault("adapt", model)
            return len(st.stream), 0
        if op == "refine":
            try:
                st.out.setdefault("refine", hcr.refine(st.repaired, st.complete_data, st.config))
            except (hcr.PositivityError, hcr.NonpositiveMassError) as exc:
                st.out.setdefault("refine_error", str(exc))
                return 1, 1
            return 1, 0
        if op == "io":
            first, second = st.work / "fit_batch.model", st.work / "fit_batch.resaved.model"
            hcr.save_model(st.model, first)
            hcr.save_model(hcr.load_model(first), second)
            st.out.setdefault("io", (first.read_bytes(), second.read_bytes()))
            return 1, 0
        raise ValueError(op)

    def peak_pass(self, hcr, st):
        """The cycle less adapt, which allocates little (about 0.05 MB)
        but runs ten times slower under tracemalloc."""
        for op in ("fit", "evaluate_points", "refine", "io"):
            self.run_op(hcr, op, st)

    def check(self, hcr, st, rng) -> tuple[list[str], dict]:
        problems = checks.check_fit(st.out["fit"], st.values, rng)
        idx = rng.choice(len(st.complete), size=50, replace=False)
        problems += checks.check_density(st.model, st.complete[idx],
                                         st.out["evaluate_points"][idx])
        problems += self._check_adapt(st, rng)
        if "refine" not in st.out:
            problems.append(f"refine failed from the repaired model: {st.out['refine_error']}")
            final = None
        else:
            trace = st.out["refine"][1]
            start = refine_start_objective(st.repaired, st.complete)
            problems += checks.check_monotone([t.objective for t in trace], start)
            final = trace[-1].loglik
        first, second = st.out["io"]
        if first != second:
            problems.append("model file changed after load -> save")
        return problems, {"coefficients": coef_vector(st.out["fit"]),
                          "refine_final_loglik": final}

    def _check_adapt(self, st, rng) -> list[str]:
        """EMA replayed from the definitions on sampled terms."""
        adapted = st.out["adapt"]
        selected = [j for j in st.spec.selected if any(j)]
        problems = []
        for p in rng.choice(len(selected), size=6, replace=False):
            j = selected[p]
            coords = [i for i, o in enumerate(j) if o]
            a = st.model.coefficients[j]
            values = checks.ref_term(st.spec, j, np.nan_to_num(st.stream))
            known = ~np.isnan(st.stream[:, coords]).any(axis=1)
            for v in values[known]:
                a = (1.0 - self.ADAPT_RATE) * a + self.ADAPT_RATE * v
            if abs(adapted.coefficients[j] - a) > checks.COEF_TOL:
                problems.append(f"adapt coefficient {j}: {adapted.coefficients[j]!r} != {a!r}")
        return problems

    def named(self, med: dict, st) -> list[tuple]:
        return [("fit_rows_per_s", self.N / med["fit"], "rows/s", "higher"),
                ("eval_points_per_s", len(st.complete) / med["evaluate_points"],
                 "points/s", "higher"),
                ("adapt_records_per_s", len(st.stream) / med["adapt"], "records/s", "higher"),
                ("refine_s", med["refine"], "s", "lower"),
                ("io_roundtrip_s", med["io"], "s", "lower")]


class ImputeMixed(_Workload):
    """impute_mixed: the read side.

    Why: time goes to scalar per-coefficient basis calls, the trig
    finite-difference/brentq extrema scan and 512 scalar `evaluate` calls;
    fit is only set-up.  The trig and discrete columns make the
    slice-extrema paths show.
    Inputs: 20k x 10; columns 1-6 legendre(3), 7-8 trig(3), 9-10
    discrete(5, 3) with cells snapped to the grid; orders {1:3, 2:2}
    (211 functions); fit once in set-up.
    Ops per cycle: `impute` of 150 incomplete rows, policies expected,
    top-mode and cluster-split in turn; 30 slice queries, three per
    column, each `conditional_slice` -> `expected_value` -> `top_mode` ->
    `modes_and_clusters`; `find_negative_witness(512)`.  The 150 rows are
    drawn per seed in fixed numbers per count of missing cells (45, 51, 34,
    15, 5 rows with 1..5 missing, the MCAR mix), so seeds differ in which
    rows, not in how much work they are.
    Stresses: basis1d.eval, density (slices, impute), likelihood witness.
    Bypasses: estimator beyond set-up, refine, model_io, table I/O, cli.
    Metrics: impute_rows_per_s (rows/s, higher), impute_p50_ms and
    impute_p95_ms (ms per row, lower; p95 only while ten samples lie
    beyond it, else the highest percentile that has ten),
    slice_queries_per_s (queries/s, higher), witness_scan_s (s, lower),
    failed_frac, peak_mb (every tenth row and query; the witness scan
    allocates little), setup_s.
    """

    name = "impute_mixed"
    why = "read side: scalar basis calls in slices, trig extrema scans and the witness scan on a 10-d mixed-family model"
    import_module = "hcr"
    ops = ("impute", "slices", "witness")
    N, D = 20_000, 10
    STRATA = {1: 45, 2: 51, 3: 34, 4: 15, 5: 5}
    SLICE_QUERIES = 30
    WITNESS_BUDGET = 512

    def setup(self, hcr, seed: int, ctx):
        st = SimpleNamespace(work=ctx.work, out={}, items=[])
        x = generate(seed, self.N, self.D)
        x[:, 8:] = np.rint(x[:, 8:] * 4) / 4
        st.values = x
        st.families = [hcr.legendre(3)] * 6 + [hcr.trig(3)] * 2 + [hcr.discrete(5, 3)] * 2
        st.spec = hcr.build_full(self.D, st.families, orders(self.D, {1: 3, 2: 2}))
        st.model = hcr.fit(st.spec, hcr.Dataset(x))
        rng = np.random.default_rng([seed, 1])
        missing = np.isnan(x).sum(axis=1)
        st.rows = []
        for k, count in self.STRATA.items():
            picks = rng.choice(np.flatnonzero(missing == k), size=count, replace=False)
            st.rows += [(int(r), POLICIES[n % 3]) for n, r in enumerate(picks)]
        complete = x[~np.isnan(x).any(axis=1)]
        picks = rng.choice(len(complete), size=self.SLICE_QUERIES, replace=False)
        st.queries = []
        for q, r in enumerate(picks):
            point = complete[r].copy()
            point[q % self.D] = np.nan
            st.queries.append((point, q % self.D))
        return st

    def _impute(self, hcr, st, rows) -> tuple[int, int]:
        failed = 0
        for r, policy in rows:
            t0 = time.perf_counter()
            try:
                st.out.setdefault(("impute", r, policy),
                                  hcr.impute(st.model, st.values[r], policy))
            except hcr.NonpositiveMassError:
                failed += 1
            st.items.append(time.perf_counter() - t0)
        return len(rows), failed

    def _slices(self, hcr, st, queries) -> tuple[int, int]:
        failed = 0
        for n, (point, i) in enumerate(queries):
            try:
                sl = hcr.conditional_slice(st.model, point, i)
                answers = (sl.expected_value(), sl.top_mode(), sl.modes_and_clusters())
            except hcr.NonpositiveMassError:
                failed += 1
                continue
            st.out.setdefault(("slice", n), (sl, answers))
        return len(queries), failed

    def run_op(self, hcr, op: str, st) -> tuple[int, int]:
        if op == "impute":
            return self._impute(hcr, st, st.rows)
        if op == "slices":
            return self._slices(hcr, st, st.queries)
        if op == "witness":
            st.out.setdefault("witness", hcr.find_negative_witness(st.model, self.WITNESS_BUDGET))
            return 1, 0
        raise ValueError(op)

    def warm_up(self, hcr, st):
        """Every tenth row and query: enough for first-call costs, and a
        full cycle would take a quarter of the run."""
        self._impute(hcr, st, st.rows[::10])
        self._slices(hcr, st, st.queries[::10])

    def peak_pass(self, hcr, st):
        self.warm_up(hcr, st)

    def check(self, hcr, st, rng) -> tuple[list[str], dict]:
        problems = checks.check_fit(st.model, st.values, rng, terms=20)
        for n in range(len(st.queries)):
            if ("slice", n) in st.out:
                mass = checks.slice_mass(st.out[("slice", n)][0])
                if abs(mass - 1.0) > checks.SLICE_MASS_TOL:
                    problems.append(f"slice query {n} integrates to {mass!r}")
        cells = []
        for r, policy in st.rows:
            completions = st.out.get(("impute", r, policy))
            if completions is None:
                continue
            filled = np.array([c.values for c in completions])
            known = ~np.isnan(st.values[r])
            if not np.array_equal(filled[:, known], np.broadcast_to(
                    st.values[r][known], filled[:, known].shape)):
                problems.append(f"row {r}: impute changed a known cell")
            if abs(sum(c.weight for c in completions) - 1.0) > 1e-12:
                problems.append(f"row {r}: completion weights do not sum to 1")
            problems += checks.check_cells(filled, st.families)
            cells.append(filled.ravel())
        witness = st.out["witness"]
        if witness is not None and checks.ref_density(st.model, witness[None, :])[0] >= 0:
            problems.append("witness point has nonnegative density")
        return problems, {"coefficients": coef_vector(st.model),
                          "imputed_cells": np.concatenate(cells) if cells else None,
                          "witness": witness}

    def named(self, med: dict, st) -> list[tuple]:
        ms = sorted(1000.0 * s for s in st.items)
        pct = min(95, int(100 * (1 - 10 / len(ms))))  # ten samples beyond it
        return [("impute_rows_per_s", len(st.rows) / med["impute"], "rows/s", "higher"),
                ("impute_p50_ms", statistics.median(ms), "ms", "lower"),
                (f"impute_p{pct}_ms", float(np.percentile(ms, pct)), "ms", "lower"),
                ("slice_queries_per_s", len(st.queries) / med["slices"], "queries/s", "higher"),
                ("witness_scan_s", med["witness"], "s", "lower")]


class CliSession(_Workload):
    """cli_session: the command line end to end.

    Why: the only workload that pays interpreter start, imports, text
    table parsing and writing, and model-file I/O.  All columns are
    Legendre, so the trig path is bypassed; a batch-impute change in
    `cmd_impute` shows here and not in impute_mixed's per-row API calls.
    Inputs: a 20k x 6 table written as CSV in set-up, a holes file of its
    first 2000 rows, a table of its complete rows, and the model fitted
    and repaired in process.
    Ops per cycle, each a `python -m hcr.cli` subprocess run one at a
    time: `fit --orders 4,2,1`; `impute` of the 2000 rows with
    `--report`; `refine --steps 10` on the repaired model over the
    complete rows; `refine` on the raw fitted model, attempted and
    counted (it exits 3 while fits go negative at training records).
    Stresses: cli (import, cmd_*), dataset table I/O, model_io, the
    per-row impute path.  Bypasses: trig/discrete slice paths, adapt.
    Metrics: cli_fit_s, cli_impute_s, cli_refine_s, cli_refine_raw_s (wall s
    per subprocess, lower), failed_frac (failed = nonzero exits plus rows
    left unfilled with a nonpositive-mass note), peak_mb (largest
    resident set of a command), setup_s.
    """

    name = "cli_session"
    why = "command line end to end: interpreter start, imports, CSV parse/write, model files, per-row impute in cmd_impute"
    import_module = "hcr.cli"
    ops = ("fit", "impute", "refine", "refine_raw")
    N, D = 20_000, 6
    HOLES = 2000
    EXPECTED_EXIT = {"fit": {0}, "impute": {0}, "refine": {0}, "refine_raw": {0, 3}}

    def setup(self, hcr, seed: int, ctx):
        st = SimpleNamespace(work=ctx.work, env=ctx.env, out={}, items=[], exits=[])
        st.values = generate(seed, self.N, self.D)
        st.names = [f"x{i + 1}" for i in range(self.D)]
        complete = st.values[~np.isnan(st.values).any(axis=1)]
        st.complete = complete
        st.paths = {k: str(st.work / f"cli_{k}") for k in (
            "table.csv", "holes.csv", "complete.csv", "repaired.model",
            "fitted.model", "filled.csv", "refined.model", "raw_refined.model")}
        self._write_csv(st.paths["table.csv"], st.names, st.values)
        self._write_csv(st.paths["holes.csv"], st.names, st.values[:self.HOLES])
        self._write_csv(st.paths["complete.csv"], st.names, complete)
        spec = hcr.build_full(self.D, hcr.legendre(4), orders(self.D, {1: 4, 2: 2, 3: 1}))
        model = hcr.fit(spec, hcr.Dataset(st.values), names=tuple(st.names),
                        transforms=[hcr.Identity() for _ in range(self.D)])
        st.repaired = repaired_for_refine(hcr, model, complete)
        hcr.save_model(st.repaired, st.paths["repaired.model"])
        st.incomplete_holes = int(np.isnan(st.values[:self.HOLES]).any(axis=1).sum())
        return st

    @staticmethod
    def _write_csv(path, names, values):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(names)
            writer.writerows(["" if np.isnan(v) else repr(float(v)) for v in row]
                             for row in values)

    def argv(self, op: str, st) -> list[str]:
        p = st.paths
        if op == "fit":
            return ["fit", "--input", p["table.csv"], "--out", p["fitted.model"],
                    "--orders", "4,2,1"]
        if op == "impute":
            return ["impute", "--model", p["fitted.model"], "--input", p["holes.csv"],
                    "--out", p["filled.csv"], "--report"]
        model, out = (("repaired.model", "refined.model") if op == "refine"
                      else ("fitted.model", "raw_refined.model"))
        return ["refine", "--model", p[model], "--input", p["complete.csv"],
                "--out", p[out], "--steps", str(REFINE_STEPS)]

    def _record(self, op: str, st, code: int, stdout: str, stderr: str) -> tuple[int, int]:
        st.exits.append((op, code))
        st.out.setdefault(op, (code, stdout, stderr))
        if op == "impute":
            unfilled = self._unfilled(st) if code == 0 else 0
            if code == 0 and "filled" not in st.out:
                st.out["filled"] = self._read_filled(st)
            return 1 + st.incomplete_holes, int(code != 0) + unfilled
        return 1, int(code != 0)

    def warm_up(self, hcr, st):
        """None: every timed command starts a fresh interpreter."""

    def run_op(self, hcr, op: str, st) -> tuple[int, int]:
        proc = subprocess.run([sys.executable, "-m", "hcr.cli", *self.argv(op, st)],
                              env=st.env, cwd=st.work, capture_output=True, text=True,
                              timeout=150)
        return self._record(op, st, proc.returncode, proc.stdout, proc.stderr)

    def run_in_process(self, hcr, op: str, st) -> tuple[int, int]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = hcr.cli.main(self.argv(op, st))
        return self._record(op, st, code, out.getvalue(), err.getvalue())

    def in_process_cycle(self, hcr, st) -> tuple[int, int]:
        counts = [self.run_in_process(hcr, op, st) for op in self.ops]
        return sum(a for a, _ in counts), sum(f for _, f in counts)

    def peak_mb(self, hcr, st) -> float:
        """What a user of the command sees: the largest resident set of
        any child this process has waited for (Linux reports KiB)."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def _unfilled(self, st) -> int:
        with open(st.paths["filled.csv"]) as fh:
            return sum("nonpositive-mass" in line for line in fh)

    def _read_filled(self, st) -> np.ndarray:
        with open(st.paths["filled.csv"], newline="") as fh:
            rows = list(csv.reader(fh))
        return np.array([[float(c) if c else np.nan for c in row[:self.D]]
                         for row in rows[1:]])

    def check(self, hcr, st, rng) -> tuple[list[str], dict]:
        problems = [f"{op} exited {code}, expected {sorted(self.EXPECTED_EXIT[op])}"
                    for op, code in st.exits if code not in self.EXPECTED_EXIT[op]]
        fitted_text = Path(st.paths["fitted.model"]).read_text()
        model = hcr.load_model(st.paths["fitted.model"])
        problems += checks.check_fit(model, st.values, rng)
        buf = io.StringIO()
        hcr.save_model(model, buf)
        if buf.getvalue() != fitted_text:
            problems.append("fitted model file changed after load -> save")
        filled = st.out.get("filled")
        if filled is None:
            problems.append("impute wrote no table")
        else:
            holes = st.values[:self.HOLES]
            if filled.shape != holes.shape:
                problems.append(f"impute wrote {filled.shape}, expected {holes.shape}")
            else:
                known = ~np.isnan(holes)
                if not np.array_equal(filled[known], holes[known]):
                    problems.append("impute changed a known cell")
                done = ~np.isnan(filled).any(axis=1)
                problems += checks.check_cells(filled[done], model.spec.families)
        code, stdout, _ = st.out["refine"]
        final = None
        if code == 0:
            trace = [line.split() for line in stdout.splitlines()[1:] if line.strip()]
            start = refine_start_objective(st.repaired, st.complete)
            problems += checks.check_monotone([float(t[2]) for t in trace], start)
            final = float(trace[-1][1])
        match = re.search(r"witness \(unit coordinates\): (\S+)", st.out["refine_raw"][2])
        witness = [float(v) for v in match.group(1).split(",")] if match else None
        return problems, {"coefficients": coef_vector(model), "imputed_cells": filled,
                          "witness": witness, "refine_final_loglik": final}

    def named(self, med: dict, st) -> list[tuple]:
        return [("cli_fit_s", med["fit"], "s", "lower"),
                ("cli_impute_s", med["impute"], "s", "lower"),
                ("cli_refine_s", med["refine"], "s", "lower"),
                ("cli_refine_raw_s", med["refine_raw"], "s", "lower")]


WORKLOADS = {w.name: w for w in (FitBatch(), ImputeMixed(), CliSession())}
