#!/usr/bin/env python3
"""Paired benchmark runs of two commits, written as one BENCH file.

    python3 tools/paired.py PARENT CHANGE --workload W --pairs N --seconds S [--label L]

PARENT and CHANGE are any commits that git names in the repository that
holds this script.  Both are checked out into
temporary git worktrees, so the working tree is never touched.  For each
workload (``W`` is a workload of BENCHMARK.json, or ``all``), N pairs of
fresh-process ``benchmarks/run.py --seed 0 --seconds S --trace 0`` runs are
made, one of each commit per pair, alternating which runs first.  Each run's
last line must be strict JSON (a bare NaN or Infinity is an error).

Printed per workload, and written with every run: for each metric, both
commits' medians and quartiles, the median of the paired ratios, oriented
so that above 1 the change is better, and the pairs the change won.  Metrics
are oriented by BENCHMARK.json, and table metrics without an entry there by
their unit (rows/s and 1/s higher; s, ms, MB and bytes lower); others are
not paired.  Then the change runs once with ``--trace 1`` per workload and
once through the criterion 11 acceptance test.  The file, BENCH_<L>.json in
the current directory (L defaults to the change's short hash), follows
ROADMAP item 16: commit, host, command lines, each side's line count of
``src/**/*.py``, runs, medians, paired figures, the traced run and the
paper's ratios.

Only the standard library and git are used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

RUN = [sys.executable, "benchmarks/run.py"]
CRITERION_11 = [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                "tests/test_acceptance.py::test_criterion_11_single_pass_cost"]
HIGHER_UNITS = {"rows/s", "1/s"}
LOWER_UNITS = {"s", "ms", "MB", "bytes"}


def git(*args: str, cwd=None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def strict_json(line: str) -> dict:
    def reject(token):
        raise ValueError(f"result line holds {token}")
    return json.loads(line, parse_constant=reject)


def parse_output(text: str) -> dict:
    """The strict-JSON result on the last line of a run, and the rows of its
    table: metric, value, unit, sample count and note."""
    lines = text.rstrip("\n").splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    table, inside = {}, False
    for line in lines[:-1]:
        if line.startswith("metric ") and line.split()[:2] == ["metric", "value"]:
            inside = True
        elif inside and (not line.strip() or line.startswith("checks:")):
            inside = False
        elif inside:
            name, value, unit, n, *note = line.split(None, 4)
            table[name] = {"value": float(value), "unit": unit, "n": int(n),
                           "note": note[0].strip() if note else ""}
    return {"result": strict_json(lines[-1]), "table": table}


def run(tree: Path, command: list) -> str:
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": "src"})
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {tree} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return done.stdout


def src_lines(tree: Path) -> int:
    """The lines of the tree's ``src/**/*.py`` files, as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src").rglob("*.py"))


def benchmark(tree: Path, workload: str, seconds: float, trace: int) -> dict:
    return parse_output(run(tree, RUN + ["--workload", workload, "--seed", "0",
                                         "--seconds", str(seconds), "--trace", str(trace)]))


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def higher_is_better(name: str, unit: str, declared: dict):
    """True or False by BENCHMARK.json, else by unit; None where unknown."""
    if name in declared:
        return declared[name] == "higher"
    return True if unit in HIGHER_UNITS else False if unit in LOWER_UNITS else None


def paired(parent_runs: list, change_runs: list, declared: dict) -> dict:
    """Per metric that both sides report: medians, quartiles, the median
    paired ratio (> 1: the change is better) and the change's wins."""
    out = {}
    first, last = parent_runs[0], change_runs[0]
    names = list(first["result"]["metrics"]) + [n for n in first["table"]
                                                if n not in first["result"]["metrics"]]
    for name in names:
        unit = first["table"].get(name, first["result"]["metrics"].get(name, {})).get("unit")
        higher = higher_is_better(name, unit, declared)
        if higher is None or name not in last["table"] and name not in last["result"]["metrics"]:
            continue
        a, b = ([(r["result"]["metrics"].get(name) or r["table"][name])["value"] for r in runs]
                for runs in (parent_runs, change_runs))
        ratios = [(y / x if higher else x / y) if x > 0 and y > 0 else 1.0 for x, y in zip(a, b)]
        out[name] = {"unit": unit, "better": "higher" if higher else "lower",
                     "parent_median": statistics.median(a), "parent_quartiles": quartiles(a),
                     "change_median": statistics.median(b), "change_quartiles": quartiles(b),
                     "median_paired_gain": statistics.median(ratios),
                     "change_better": f"{sum(r > 1.0 for r in ratios)}/{len(ratios)}"}
    return out


def print_paired(workload: str, pairs: int, metrics: dict) -> None:
    print(f"\n{workload}, {pairs} pairs: parent median [quartiles] -> change median "
          "[quartiles], median paired gain (> 1 better), change better in")
    for name, m in metrics.items():
        (p1, p3), (c1, c3) = m["parent_quartiles"], m["change_quartiles"]
        print(f"  {name:28s} {m['parent_median']:.6g} [{p1:.6g}-{p3:.6g}] -> "
              f"{m['change_median']:.6g} [{c1:.6g}-{c3:.6g}]  "
              f"{m['median_paired_gain']:.3f}x  {m['change_better']}")


def medians(runs: list) -> dict:
    names = runs[0]["table"] or runs[0]["result"]["metrics"]
    return {n: statistics.median((r["table"].get(n) or r["result"]["metrics"][n])["value"]
                                 for r in runs) for n in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--label")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = Path(git("rev-parse", "--show-toplevel", cwd=Path(__file__).resolve().parent))
    shas = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}", cwd=root)
            for side, ref in (("parent", args.parent), ("change", args.change))}
    label = args.label or shas["change"][:7]
    with tempfile.TemporaryDirectory(prefix="paired-") as tmp:
        trees = {side: Path(tmp) / side for side in shas}
        try:
            for side, sha in shas.items():
                git("worktree", "add", "--detach", str(trees[side]), sha, cwd=root)
            spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
            declared = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
            names = [w["name"] for w in spec["workloads"]]
            workloads = names if args.workload == "all" else [args.workload]
            if not set(workloads) <= set(names):
                parser.error(f"--workload must be one of {', '.join(names)} or all")
            doc = {"label": label, "commit": shas["change"], "parent": shas["parent"],
                   "host": {"cpus": len(os.sched_getaffinity(0)),
                            "python": platform.python_version(),
                            "machine": platform.machine(),
                            "system": f"{platform.system()} {platform.release()}"},
                   "commands": {
                       "paired": " ".join(["python3 tools/paired.py", args.parent, args.change,
                                           "--workload", args.workload, "--pairs",
                                           str(args.pairs), "--seconds", f"{args.seconds:g}"]),
                       "trace0": f"python3 benchmarks/run.py --workload {{workload}} --seed 0 "
                                 f"--seconds {args.seconds:g} --trace 0",
                       "trace1": f"python3 benchmarks/run.py --workload {{workload}} --seed 0 "
                                 f"--seconds {args.seconds:g} --trace 1",
                       "criterion_11": " ".join(["PYTHONPATH=src python3"] + CRITERION_11[1:])},
                   "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
                   "procedure": (f"For each workload, {args.pairs} pairs of fresh-process "
                                 "--trace 0 runs of the parent and of the change, alternating "
                                 "which ran first; 'runs' and 'parent_runs' hold each run's "
                                 "strict-JSON result and its parsed table, 'medians' the "
                                 "change's per-metric medians, 'paired' per metric both "
                                 "sides' medians and quartiles, the median paired ratio "
                                 "(> 1 means the change is better) and the change's wins. "
                                 "Then one --trace 1 run of the change per workload and one "
                                 "run of the criterion 11 test."),
                   "workloads": {}}
            print(f"src lines: {doc['src_lines']['parent']} -> {doc['src_lines']['change']}",
                  flush=True)
            for workload in workloads:
                runs = {"parent": [], "change": []}
                for i in range(args.pairs):
                    for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                        runs[side].append(benchmark(trees[side], workload, args.seconds, 0))
                        print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                              f"{json.dumps(runs[side][-1]['result']['metrics'])}", flush=True)
                metrics = paired(runs["parent"], runs["change"], declared)
                print_paired(workload, args.pairs, metrics)
                doc["workloads"][workload] = {
                    "runs": runs["change"], "parent_runs": runs["parent"],
                    "medians": medians(runs["change"]),
                    "paired": {"pairs": args.pairs, "metrics": metrics},
                    "trace1": benchmark(trees["change"], workload, args.seconds, 1)}
            ratios = {}
            rows = doc["workloads"].get("small-rows", {}).get("medians", {})
            if {"row_tdi_p50_ms", "row_ll_p50_ms", "row_mcd_p50_ms"} <= set(rows):
                ratios["row_tdi_p50_ms / row_ll_p50_ms (small-rows, change medians)"] = (
                    rows["row_tdi_p50_ms"] / rows["row_ll_p50_ms"])
                ratios["row_tdi_p50_ms / row_mcd_p50_ms (small-rows, change medians)"] = (
                    rows["row_tdi_p50_ms"] / rows["row_mcd_p50_ms"])
            ratios["criterion 11"] = [line for line in run(trees["change"], CRITERION_11)
                                      .splitlines() if line.startswith("ACCEPTANCE 11")]
            doc["ratios"] = ratios
        finally:
            for tree in trees.values():
                if tree.exists():
                    git("worktree", "remove", "--force", str(tree), cwd=root)
            git("worktree", "prune", cwd=root)
    out = Path(f"BENCH_{label}.json")
    out.write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
