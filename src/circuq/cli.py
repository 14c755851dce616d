"""Command-line entry point wiring the library into reproducible runs.

Every subcommand writes its outputs plus a ``config.snapshot`` of the
effective flag values into the output directory, and can be rerun from that
snapshot alone via ``--config``.  Exit codes: 0 success, 2 usage error,
3 missing input file, 4 validation failure, 1 anything else.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .circuit import load, save, log_likelihood_batch
from .datasets import CORRUPTION_KINDS, load_csv
from .enumeration import enumerate_dropout_moments
from .errors import CircuitError, SerializationError
from .evaluation import (
    EvalConfig,
    corrupt_sweep,
    ood_sweep,
    perturb_sweep,
    results_to_json,
    write_curve_csv,
)
from .mcd import McdConfig, mcd_infer, mcd_vs_tdi_report
from .moments import (
    CovarianceStrategy,
    DropoutConfig,
    posterior_summary_batch,
    tdi_pass,
    write_moment_csv,
)
from .structures import RatConfig, build_rat, random_evidence, random_tree_circuit, structure_stats
from .train import OBJECTIVES, OPTIMIZERS, TrainConfig, fit

EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_VALIDATION = 4

_STRATEGIES = {s.value: s for s in CovarianceStrategy}


def _fail(code: int, kind: str, message: str) -> int:
    print(f"error: code={code} kind={kind} msg={message}", file=sys.stderr)
    return code


class _NoRows(ValueError):
    """An input CSV has a header but no data rows."""


def _load_rows(path):
    """load_csv for the subcommands that fit or summarize over rows."""
    data = load_csv(path)
    if data.num_rows == 0:
        raise _NoRows(f"{path} has no data rows")
    return data


def _write_snapshot(args: argparse.Namespace, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    skip = {"config", "func"}
    with open(os.path.join(out_dir, "config.snapshot"), "w") as fh:
        fh.write(f"subcommand = {args.subcommand}\n")
        for key, value in sorted(vars(args).items()):
            if key in skip or key == "subcommand" or callable(value):
                continue
            fh.write(f"{key} = {value}\n")


def _load_snapshot(path: str) -> dict:
    values: dict = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, _, raw = line.partition("=")
            values[key.strip()] = raw.strip()
    return values


# ---------------------------------------------------------------------------
# Subcommand implementations


def cmd_build(args) -> int:
    config = RatConfig(
        num_sums=args.S,
        num_input_dists=args.I,
        depth=args.D,
        num_repetitions=args.R,
        num_classes=args.classes,
        num_variables=args.variables,
        rng_seed=args.seed,
    )
    circuit = build_rat(config)
    stats = structure_stats(circuit)
    save(circuit, os.path.join(args.out, "model.circuit"))
    with open(os.path.join(args.out, "structure_stats.csv"), "w") as fh:
        fh.write(",".join(stats) + "\n")
        fh.write(",".join(str(v) for v in stats.values()) + "\n")
    print(
        f"built circuit: {stats['nodes']} nodes, {stats['edges']} edges, "
        f"{stats['parameters']} parameters ({stats['gaussian_parameters']} Gaussian)"
    )
    return 0


def cmd_train(args) -> int:
    circuit = load(args.model)
    data = _load_rows(args.data)
    if data.labels is None:
        return _fail(EXIT_VALIDATION, "validation", "training data has no label column")
    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        optimizer=args.optimizer,
        rng_seed=args.seed,
        objective=args.objective,
    )
    trained, history = fit(circuit, data.features, data.labels, config)
    save(trained, os.path.join(args.out, "model.circuit"))
    history.write_csv(os.path.join(args.out, "history.csv"))
    if history.aborted:
        print(f"training aborted: {history.abort_reason}; last finite state saved")
    else:
        last = history.epochs[-1]
        print(f"trained {len(history.epochs)} epochs; loss {last[1]:.6g} accuracy {last[2]:.4f}")
    return 0


def cmd_eval(args) -> int:
    circuit = load(args.model)
    data = _load_rows(args.data)
    ll = log_likelihood_batch(circuit, data.features)
    joint = ll + circuit.log_class_priors[None, :]
    pred = np.argmax(joint, axis=1)
    out_path = os.path.join(args.out, "eval.csv")
    with open(out_path, "w") as fh:
        fh.write("sample_id,prediction,log_likelihood_max\n")
        for i in range(len(pred)):
            fh.write(f"{i},{pred[i]},{ll[i].max():.17g}\n")
    if data.labels is not None:
        acc = float(np.mean(pred == data.labels))
        print(f"accuracy {acc:.4f} over {len(pred)} rows")
    else:
        print(f"evaluated {len(pred)} rows")
    return 0


def cmd_tdi(args) -> int:
    circuit = load(args.model)
    data = load_csv(args.input)
    if args.dump_moments and data.num_rows == 0:
        return _fail(EXIT_VALIDATION, "validation", "--dump-moments needs at least one input row")
    config = DropoutConfig.with_p(args.p, _STRATEGIES[args.strategy])
    pm = posterior_summary_batch(circuit, data.features, config, first_frame=args.dump_moments)
    out_path = os.path.join(args.out, "posterior.csv")
    with open(out_path, "w") as fh:
        fh.write("sample_id,class,mean,variance,std,entropy,normalized_entropy\n")
        for i in range(data.num_rows):
            for c in range(circuit.num_classes):
                fh.write(
                    f"{i},{c},{pm.mean[i, c]:.17g},{pm.variance[i, c]:.17g},{pm.std[i, c]:.17g},"
                    f"{pm.entropy[i]:.17g},{pm.normalized_entropy[i]:.17g}\n"
                )
    if args.dump_moments:
        write_moment_csv(
            pm.metadata["first_frame"],
            os.path.join(args.out, "moments_nodes.csv"),
            os.path.join(args.out, "moments_cov.csv"),
        )
    print(f"wrote {out_path}")
    return 0


def cmd_mcd(args) -> int:
    circuit = load(args.model)
    data = load_csv(args.input)
    res = mcd_infer(circuit, data.features, McdConfig(args.p, args.L, args.seed))
    out_path = os.path.join(args.out, "mcd.csv")
    with open(out_path, "w") as fh:
        fh.write("sample_id,class,posterior_mean,posterior_variance,root_mean,root_variance\n")
        for i in range(data.num_rows):
            for c in range(circuit.num_classes):
                fh.write(
                    f"{i},{c},{res.posterior_sample_mean[i, c]:.17g},"
                    f"{res.posterior_sample_variance[i, c]:.17g},"
                    f"{res.sample_mean[i, c]:.17g},{res.sample_variance[i, c]:.17g}\n"
                )
    print(f"wrote {out_path} ({args.L} passes per sample)")
    return 0


def cmd_compare(args) -> int:
    circuit = load(args.model)
    data = load_csv(args.input)
    table = mcd_vs_tdi_report(circuit, data.features, args.p, args.L, args.seed)
    out_path = os.path.join(args.out, "comparison.csv")
    table.write_csv(out_path)
    print(
        f"wrote {out_path}; tdi {table.tdi_seconds:.4g}s ({table.tdi_passes} pass) vs "
        f"mcd {table.mcd_seconds:.4g}s ({table.mcd_passes} passes)"
    )
    return 0


def _eval_config(args) -> EvalConfig:
    return EvalConfig(
        method=args.method,
        p=args.p,
        mcd_passes=args.L,
        rng_seed=args.seed,
        normalized_entropy=args.normalized,
    )


def cmd_ood(args) -> int:
    circuit = load(args.model)
    id_ds = _load_rows(args.id_data)
    ood_ds = _load_rows(args.ood_data)
    result = ood_sweep(circuit, id_ds, ood_ds, _eval_config(args))
    result.write_csv(os.path.join(args.out, "ood_sweep.csv"))
    if args.json:
        results_to_json(result.to_json(), os.path.join(args.out, "ood_sweep.json"))
    # per-sample entropies for downstream comparisons
    with open(os.path.join(args.out, "id_entropy.csv"), "w") as fh:
        fh.write("sample_id,entropy\n")
        for i, h in enumerate(result.id_entropy):
            fh.write(f"{i},{h:.17g}\n")
    print(f"auc {result.auc:.4f} ({result.metadata['method']})")
    return 0


def cmd_perturb(args) -> int:
    circuit = load(args.model)
    data = _load_rows(args.data)
    angles = [float(a) for a in args.angles.split(",")]
    points = perturb_sweep(circuit, data, angles, _eval_config(args), args.width, args.height)
    out_path = os.path.join(args.out, "perturb.csv")
    write_curve_csv(points, out_path, "angle")
    if args.json:
        results_to_json(points, os.path.join(args.out, "perturb.json"))
    print(f"wrote {out_path}")
    return 0


def cmd_corrupt(args) -> int:
    circuit = load(args.model)
    data = _load_rows(args.data)
    kinds = args.kinds.split(",")
    for kind in kinds:
        if kind not in CORRUPTION_KINDS:
            return _fail(EXIT_USAGE, "usage", f"unknown corruption kind {kind!r}")
    severities = [int(s) for s in args.severities.split(",")]
    points = corrupt_sweep(circuit, data, kinds, severities, _eval_config(args), args.seed)
    out_path = os.path.join(args.out, "corrupt.csv")
    write_curve_csv(points, out_path, "kind,severity")
    if args.json:
        results_to_json(points, os.path.join(args.out, "corrupt.json"))
    print(f"wrote {out_path}")
    return 0


def cmd_oracle(args) -> int:
    """Random tree circuits: closed-form moments against mask enumeration."""
    rng = np.random.default_rng(args.seed)
    worst_e = worst_v = 0.0
    p_values = [float(p) for p in args.p.split(",")]
    for _ in range(args.trials):
        circuit = random_tree_circuit(rng, max_sum_edges=args.max_edges)
        evidence = random_evidence(rng, circuit)
        for p in p_values:
            en = enumerate_dropout_moments(circuit, evidence, p, keep_values=False)
            frame = tdi_pass(circuit, evidence, DropoutConfig.with_p(p))
            r = circuit.roots[0]
            e = math.exp(frame.log_expectation[r])
            v = math.exp(frame.log_variance[r]) if frame.log_variance[r] > -np.inf else 0.0
            worst_e = max(worst_e, _rel(e, en.expectation[r]))
            worst_v = max(worst_v, _rel(v, en.variance[r]))
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "oracle.csv"), "w") as fh:
        fh.write("metric,max_relative_error\n")
        fh.write(f"expectation,{worst_e:.17g}\nvariance,{worst_v:.17g}\n")
    ok = worst_e < args.tolerance and worst_v < args.tolerance
    print(
        f"oracle over {args.trials} trees, p in {p_values}: max rel err "
        f"E {worst_e:.3g}, Var {worst_v:.3g} -> {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circuq",
        description="Probabilistic circuits with closed-form dropout uncertainty.",
    )
    parser.add_argument("--version", action="version", version=f"circuq {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output directory (default runs/<subcommand>)")
        p.add_argument("--config", default=None, help="load flag defaults from a config.snapshot")

    p = sub.add_parser("build", help="construct a random tensorized circuit")
    p.add_argument("-S", type=int, default=20, help="sum nodes per internal region")
    p.add_argument("-I", type=int, default=20, help="input distributions per leaf region")
    p.add_argument("-D", type=int, default=5, help="depth: number of binary splits")
    p.add_argument("-R", type=int, default=5, help="number of repetitions")
    p.add_argument("--classes", type=int, default=10, help="number of class heads")
    p.add_argument("--variables", type=int, required=False, default=784)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("train", help="train sum weights and Gaussian leaves")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="CSV with feature columns and a label column")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=200)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--optimizer", choices=OPTIMIZERS, default="adam")
    p.add_argument("--objective", choices=OBJECTIVES, default="head")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="plain likelihood evaluation and accuracy")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tdi", help="closed-form dropout posterior moments")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="CSV of evidence rows")
    p.add_argument("--p", type=float, default=0.1, help="dropout probability")
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), default="tree_zero")
    p.add_argument("--dump-moments", action=argparse.BooleanOptionalAction, default=False,
                   help="also dump per-node moment CSVs for the first row")
    common(p)
    p.set_defaults(func=cmd_tdi)

    p = sub.add_parser("mcd", help="Monte Carlo dropout sampling")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("-L", type=int, default=100, help="number of stochastic passes")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_mcd)

    p = sub.add_parser("compare", help="side-by-side closed-form vs sampling report")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("-L", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_compare)

    def eval_common(p):
        p.add_argument("--method", choices=("plain", "tdi", "mcd"), default="tdi")
        p.add_argument("--p", type=float, default=0.1)
        p.add_argument("-L", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--normalized", action=argparse.BooleanOptionalAction, default=False,
                       help="normalize entropy by ln(num classes)")
        p.add_argument("--json", action=argparse.BooleanOptionalAction, default=False,
                       help="also emit a JSON document")

    p = sub.add_parser("ood", help="ID vs OOD entropy threshold sweep")
    p.add_argument("--model", required=True)
    p.add_argument("--id-data", required=True)
    p.add_argument("--ood-data", required=True)
    eval_common(p)
    common(p)
    p.set_defaults(func=cmd_ood)

    p = sub.add_parser("perturb", help="rotation sweep over a test set")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--angles", default="0,15,30,45,60,75,90", help="comma-separated degrees")
    eval_common(p)
    common(p)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("corrupt", help="corruption severity sweep")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--kinds", default="gaussian_noise,brightness,contrast")
    p.add_argument("--severities", default="0,1,2,3,4,5")
    eval_common(p)
    common(p)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("oracle", help="closed-form moments vs exhaustive enumeration")
    p.add_argument("--max-edges", type=int, default=12)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--p", default="0.05,0.1,0.2", help="comma-separated dropout probabilities")
    p.add_argument("--tolerance", type=float, default=1e-6)
    common(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)

    subparser = None
    if "--config" in argv:
        idx = argv.index("--config")
        try:
            snapshot = _load_snapshot(argv[idx + 1])
        except (IndexError, OSError) as exc:
            return _fail(EXIT_MISSING_FILE, "missing-file", f"cannot read config: {exc}")
        if argv[0].startswith("-") and "subcommand" in snapshot:
            argv.insert(0, snapshot["subcommand"])
        # The snapshot only sets defaults: explicit flags win, and argparse
        # converts each string default with its option's own type.
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        subparser = subparsers.choices.get(argv[0])
        for action in subparser._actions if subparser else ():
            raw = snapshot.get(action.dest)
            if raw is not None:
                action.required = False
                action.default = (raw == "True" if action.nargs == 0
                                  else None if raw == "None" else raw)
    args = parser.parse_args(argv)
    # argparse checks choices on the command line only, so a snapshot's
    # default, unless an explicit flag replaced it, is checked here
    for action in subparser._actions if subparser else ():
        if action.choices is not None:
            try:
                subparser._check_value(action, getattr(args, action.dest))
            except argparse.ArgumentError as exc:
                subparser.error(str(exc))

    if args.out is None:
        args.out = os.path.join("runs", args.subcommand)
    try:
        os.makedirs(args.out, exist_ok=True)
        _write_snapshot(args, args.out)
        return args.func(args)
    except FileNotFoundError as exc:
        return _fail(EXIT_MISSING_FILE, "missing-file", str(exc))
    except (SerializationError, _NoRows) as exc:
        return _fail(EXIT_VALIDATION, "validation", str(exc))
    except CircuitError as exc:
        return _fail(EXIT_VALIDATION, "circuit", str(exc))
    except ValueError as exc:
        return _fail(1, "error", str(exc))


if __name__ == "__main__":
    sys.exit(main())
