"""circuq benchmark: one workload per process, closed loop, checked outputs.

    python3 benchmarks/run.py --workload mid-batch --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` splits the time
between an untraced phase and a traced phase that repeats the same set-ups
and rounds with every public circuq function wrapped in a span, and reports
the per-layer metrics.  ``--workload all`` runs each workload in a fresh
process, one after the other.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table of every metric with its unit and sample count, and
every correctness check.  The library is imported from ``src/`` of the
checkout that holds this file; without it the run exits with an error and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("mid-batch", "small-pipeline", "small-rows")

# Cap BLAS/OpenMP pools at the CPUs this process may use, before numpy loads.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    if not os.environ.get(_var, "").isdigit() or int(os.environ[_var]) > NPROC:
        os.environ[_var] = str(NPROC)


def import_library():
    """Import circuq from this checkout's src/, never from anywhere else."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    try:
        import circuq
    except ImportError as exc:
        sys.exit(f"error: cannot import circuq from {SRC}: {exc}")
    if Path(circuq.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"error: circuq was imported from {circuq.__file__}, not from {SRC}")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from harness import Checks, Session
    from metrics import end_to_end, op_breakdown, op_table, per_layer
    from tracing import SpanRecorder, install
    from workloads import WORKLOADS

    wl = WORKLOADS[name]

    def phase(session, rounds=None, budget=None):
        """Rounds, a fixed count or until the budget is spent; the session
        interleaves the timed set-ups."""
        with session.monitor:
            state = session.run_setup()
            if state is None:
                sys.exit(f"error: set-up of {name} failed:\n{session.errors[-1]}")
            outputs = []
            start = time.perf_counter()
            while (len(outputs) < rounds) if rounds is not None else (
                    not outputs or time.perf_counter() - start < budget):
                with session.stage("round"):
                    outputs.append(wl.round(session, state, len(outputs)))
        session.finish()
        return state, outputs

    def new_session(recorder=None):
        return Session(lambda: wl.setup(seed), wl.setup_every, recorder)

    session = new_session()
    state, outputs = phase(session, budget=seconds / 2 if trace else seconds)
    checks = Checks()
    try:
        wl.check(state, outputs, checks, seed)
    except Exception:  # a crashed check counts as a failed one; the run still reports
        checks.add("checks completed", False, traceback.format_exc(limit=3))
    sessions = [session]
    if trace:
        recorder = SpanRecorder()
        uninstall = install(recorder)
        try:
            traced = new_session(recorder)
            tstate, toutputs = phase(traced, rounds=len(outputs))
        finally:
            uninstall()
        sessions.append(traced)
        metrics = per_layer(wl, tstate, toutputs, traced, session, recorder.spans)
        # The untraced phase's end-to-end figures are printed too, so one
        # command shows every metric; the result line keeps the per-layer ones.
        extra = [*op_breakdown(recorder.spans, traced.monitor.correct),
                 *end_to_end(wl, session), *op_table(wl, session)]
    else:
        metrics = end_to_end(wl, session)
        extra = op_table(wl, session)
    attempted = sum(s.attempted for s in sessions) + len(checks.results)
    failed = sum(s.failed for s in sessions) + checks.failed
    errors = [e for s in sessions for e in s.errors]
    return metrics, extra, checks, attempted, failed, errors


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(header: str, metrics, extra, checks, attempted, failed, errors) -> None:
    print(header)
    print(f"{'metric':44s} {'value':>14s} {'unit':8s} {'n':>6s}  note")
    for m in [*metrics, *extra]:
        print(f"{m.name:44s} {_fmt(m.value):>14s} {m.unit:8s} {m.samples:>6d}  {m.note}")
    print("checks:")
    for name, ok, detail in checks.results:
        print(f"  {'PASS' if ok else 'FAIL'} {name}: {detail}")
    for error in errors:
        print(f"  ERROR {error}")
    print(f"attempted {attempted}, failed {failed}")


def result_line(metrics, attempted: int, failed: int) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": m.value, "unit": m.unit} for m in metrics},
    })


def run_all(args) -> int:
    """Each workload in its own fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        print()
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_library()
    metrics, extra, checks, attempted, failed, errors = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
                 f"trace {args.trace}, {NPROC} CPUs", metrics, extra, checks, attempted, failed,
                 errors)
    print(result_line(metrics, attempted, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
