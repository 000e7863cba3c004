"""Run one benchmark workload, or all of them, against the hcr in ./src.

    python3 perfbench/run.py --workload fit_batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

With --trace 0 a run sets up several times (setup_s is the median),
times the workload's ops in cycles for --seconds, checks every output,
measures peak memory after timing, and prints the
end-to-end metrics.  With --trace 1 it sets up once and runs cycles with
wrappers around every hcr layer boundary, and prints the per-layer
metrics plus the tracing overhead.  Either way the last stdout line is
one JSON object {correct, attempted, failed, metrics}; the exit code is
nonzero when a correctness check fails.  Working files, results, output
fingerprints and spans go to .bench_work/ at the checkout root.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHECK_SEED = 7  # which terms and points the checks sample; independent of the workload seed


def _blas_threads() -> int:
    """At most one BLAS thread per usable CPU, and at most 2: the BLAS calls
    here are small, and extra threads only add run-to-run noise."""
    cap = min(len(os.sched_getaffinity(0)), 2)
    for var in BLAS_VARS:
        try:
            wanted = int(os.environ.get(var, cap))
        except ValueError:
            wanted = cap
        os.environ[var] = str(max(1, min(wanted, cap)))
    return int(os.environ[BLAS_VARS[0]])


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _wall(argv, env) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, cwd=WORK, check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _calibration_s() -> float:
    """A fixed pure-Python loop; recorded with each result, never gated."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def machine_record(threads: int) -> dict:
    import numpy
    import scipy
    return {"cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "blas_threads_used": threads, "calibration_s": _calibration_s()}


class Tally:
    """Attempted and failed counts of each op, taken from its first run.

    Every repeat of an op does the same work on the same inputs, so its
    outcome repeats too; counting repeats would make the totals depend on
    how many fit into the run rather than on the seed.  A repeat whose
    counts differ from the first is reported as a problem.
    """

    def __init__(self):
        self.first, self.problems = {}, []

    def add(self, op: str, counts: tuple[int, int]):
        first = self.first.setdefault(op, counts)
        if counts != first and len(self.problems) < 10:
            self.problems.append(f"op {op}: attempted/failed {counts} on a repeat, "
                                 f"{first} on its first run")

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.first.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.first.values())


def _paired_cycles(wl, hcr, st, seconds: float, tracer, hooks, tally):
    """The workload's warm-up, then untraced and traced cycles in turn
    until `seconds` have passed (at least one of each)."""
    wl.warm_up(hcr, st)
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for times, trace in ((plain, False), (traced, True)):
            if trace:
                tracer.install(hooks)
            try:
                t0 = time.perf_counter()
                counts = wl.in_process_cycle(hcr, st)
                times.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            tally.add("cycle", counts)
    return plain, traced


def _timed_ops(wl, hcr, st, seconds: float, tally):
    """Ops in cycle order, each timed alone, until `seconds` have passed
    and every op has at least one sample."""
    samples = {op: [] for op in wl.ops}
    start = time.perf_counter()
    while True:
        for op in wl.ops:
            if time.perf_counter() - start >= seconds and all(samples.values()):
                return samples
            t0 = time.perf_counter()
            counts = wl.run_op(hcr, op, st)
            samples[op].append(time.perf_counter() - t0)
            tally.add(op, counts)


def run_untraced(wl, hcr, seed, seconds, ctx, report, tally):
    import_argv = [sys.executable, "-c", f"import {wl.import_module}"]
    setups = []
    for _ in range(SETUP_REPEATS):
        import_s = _wall(import_argv, ctx.env)
        t0 = time.perf_counter()
        st = wl.setup(hcr, seed, ctx)
        setups.append(import_s + time.perf_counter() - t0)
    phases = {"setup": time.perf_counter()}
    wl.warm_up(hcr, st)
    st.items.clear()
    phases["warm_up"] = time.perf_counter()
    samples = _timed_ops(wl, hcr, st, seconds, tally)
    phases["timed"] = time.perf_counter()
    med = {op: statistics.median(v) for op, v in samples.items()}
    named = wl.named(med, st)
    peak = wl.peak_mb(hcr, st)
    phases["peak_pass"] = time.perf_counter()
    metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
               "round_s": {"value": sum(med.values()), "unit": "s"},
               "peak_mb": {"value": peak, "unit": "MB"}}
    named = [("setup_s", metrics["setup_s"]["value"], "s", "lower"),
             ("round_s", metrics["round_s"]["value"], "s", "lower"),
             *named,
             ("failed_frac", tally.failed / tally.attempted, "failed/attempted", "lower"),
             ("peak_mb", metrics["peak_mb"]["value"], "MB", "lower")]
    report.update(setups=setups, op_samples=samples, phase_end_s=phases,
                  named={n: {"value": v, "unit": u, "better": b} for n, v, u, b in named})
    return st, metrics


def run_traced(wl, hcr, seed, seconds, ctx, report, tally):
    import tracer as tr
    bare = [_wall([sys.executable, "-c", "pass"], ctx.env) for _ in range(IMPORT_REPEATS)]
    cli = [_wall([sys.executable, "-c", "import hcr.cli"], ctx.env)
           for _ in range(IMPORT_REPEATS)]
    import_s = statistics.median(cli) - statistics.median(bare)

    tracer = tr.Tracer()
    hooks = tr.standard_hooks(tracer)
    tracer.install(hooks)
    try:
        st = wl.setup(hcr, seed, ctx)
    finally:
        tracer.uninstall()
    after_setup = tracer.snapshot()
    plain, traced = _paired_cycles(wl, hcr, st, seconds, tracer, hooks, tally)
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    agg = tr.combine(after_setup, tracer.snapshot(), len(traced))
    spans = WORK / f"spans-{wl.name}-seed{seed}.json"
    tracer.write_spans(spans)
    report.update(untraced_cycle_s=plain, traced_cycle_s=traced, spans=str(spans),
                  tracing_overhead_frac=overhead)
    return st, tr.layer_metrics(agg, import_s, overhead)


def run_one(args) -> int:
    if not (SRC / "hcr" / "__init__.py").is_file():
        print(f"error: no hcr package under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    threads = _blas_threads()
    sys.path.insert(0, str(SRC))
    import checks
    import numpy as np
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    import hcr
    import hcr.cli  # noqa: F401  (the tracer wraps its commands)
    WORK.mkdir(exist_ok=True)
    ctx = SimpleNamespace(work=WORK, env=_child_env())
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(threads)}
    runner = run_traced if args.trace else run_untraced
    tally = Tally()
    st, metrics = runner(wl, hcr, args.seed, args.seconds, ctx, report, tally)
    attempted, failed = tally.attempted, tally.failed

    problems, fingerprints = wl.check(hcr, st, np.random.default_rng(CHECK_SEED))
    problems += tally.problems
    report["wall_s"] = time.perf_counter() - started
    if "phase_end_s" in report:
        report["phase_end_s"] = {k: t - started for k, t in report["phase_end_s"].items()}
    fp_path = WORK / f"fingerprints-{wl.name}-seed{args.seed}.json"
    checks.write_fingerprints(fp_path, fingerprints)
    report.update(attempted=attempted, failed=failed, problems=problems,
                  fingerprints=str(fp_path), metrics=metrics)
    result_path = WORK / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1, default=float))

    print(f"machine {json.dumps(report['machine'])}")
    for name, m in report.get("named", {}).items():
        print(f"{wl.name} {name} {m['value']:.6g} {m['unit']} ({m['better']} is better)")
    if args.trace:
        for name, m in metrics.items():
            print(f"{wl.name} {name} {m['value']:.6g} {m['unit']}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"detail {json.dumps({'workload': wl.name, 'named': report.get('named', {}), 'result': str(result_path)})}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


def run_all(args) -> int:
    """Every workload in its own interpreter, then one table of metrics."""
    from workloads import WORKLOADS
    status, rows = 0, []
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: exited {proc.returncode} without a result")
            continue
        detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
        named = detail["named"] or result["metrics"]
        rows += [(name, k, v["value"], v["unit"], v.get("better", "")) for k, v in named.items()]
        rows.append((name, "correct", result["correct"], "", ""))
        rows.append((name, "attempted/failed", f"{result['attempted']}/{result['failed']}", "", ""))
    for name, metric, value, unit, better in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:13s} {metric:38s} {shown:>14s} {unit:16s} {better}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="fit_batch, impute_mixed, cli_session, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.workload == "all":
        return run_all(args)
    if args.workload not in ("fit_batch", "impute_mixed", "cli_session"):
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
