"""End-to-end metrics from the untraced phase, per-layer metrics from the
traced phase.  Names are listed in BENCHMARK.json; README.md says which
end-to-end metric each per-layer metric should move, and on which workload."""

from __future__ import annotations

import resource

import circuq

from harness import REFERENCE_PROBE_S, Metric, median, percentile
from tracing import SpanIndex

ROLES = ("forward", "tdi", "mcd", "train")
MODULES = ("structures", "datasets", "circuit", "moments", "mcd", "train", "evaluation")

# User-visible forward calls; log_likelihood_batch delegates to forward_log_values.
FORWARD_CALLS = {"circuit.log_likelihood", "circuit.log_likelihood_batch",
                 "circuit.forward_log_values"}
# The pass itself: the scalar call is its own pass, the batch call runs one.
FORWARD_PASS = {"circuit.log_likelihood", "circuit.forward_log_values"}
MOMENT_PASS = {"moments.tdi_pass", "moments.tdi_pass_batch"}
POSTERIOR = {"moments.posterior_moments", "moments.posterior_moments_batch"}

# Bytes per edge and pass of one MCD chunk: a float64 uniform draw and the
# boolean keep mask it thresholds into.
MCD_MASK_BYTES_PER_EDGE = 8 + 1
MCD_CHUNK_PASSES = 8192


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else float("nan")


def end_to_end(wl, session) -> list[Metric]:
    """Medians of reference-scaled samples (see ``harness.SpeedProbe``)."""
    scaled = session.scaled
    out = [
        Metric("setup_s", median(scaled["setup"]), "s", len(scaled["setup"])),
        Metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "MB", 1, "max RSS of this process"),
    ]
    for role in ROLES:
        op = wl.roles[role]
        rows = session.rows.get(op, 0)
        out.append(Metric(f"{role}_rows_per_s", _rate(rows, median(scaled[op])), "rows/s",
                          len(scaled[op]), f"op {op}, {rows} rows"))
    out.append(Metric("pipeline_s", median(scaled["pipeline"]), "s", len(scaled["pipeline"])))
    return out


def op_table(wl, session) -> list[Metric]:
    """Latency of every operation as measured, the workload's aliases, and
    the machine speed the scaled figures were corrected by."""
    probes = session.monitor.seconds
    out = [Metric("speed.probe_ms", 1e3 * median(probes), "ms", len(probes),
                  f"median probe time; reference {1e3 * REFERENCE_PROBE_S:g} ms"),
           Metric("speed.factor", session.monitor.speed, "ratio", len(probes),
                  "reference / mean probe time")]
    for op, samples in session.times.items():
        out.append(Metric(f"op.{op}.p50_ms", 1e3 * median(samples), "ms", len(samples),
                          "as measured"))
        out.append(Metric(f"op.{op}.p95_ms", 1e3 * percentile(samples, 95), "ms", len(samples),
                          "as measured"))
    for alias, (op, scale, unit) in wl.aliases.items():
        samples = session.scaled[op]
        out.append(Metric(alias, scale * median(samples), unit, len(samples),
                          f"median of op {op}, reference-scaled"))
    return out


def per_layer(wl, st, outputs, traced, untraced, spans) -> list[Metric]:
    """Per-layer figures of the traced phase, in reference seconds."""
    rounds = len(outputs)
    ix = SpanIndex(spans, traced.monitor.correct)
    sp = ix.spans
    dur = ix.duration
    circuit = st.circuit
    stats = circuq.structure_stats(circuit)
    edges, sum_edges, nodes = stats["edges"], stats["sum_edges"], stats["nodes"]
    role_op = {role: f"bench.{wl.roles[role]}" for role in ROLES}

    def under(name):
        return lambda i: ix.has_ancestor(i, lambda a: a.name == name)

    def total(indices):
        return sum(dur[i] for i in indices)

    def rows(indices):
        return sum(sp[i].rows for i in indices)

    out: list[Metric] = []
    module_self = ix.module_self()
    for module in MODULES:
        out.append(Metric(f"{module}.self_s", module_self.get(module, 0.0) / rounds, "s", rounds,
                          "self time per round, set-up amortized"))

    def span_median(metric, name, unit="s"):
        d = ix.durations(name)
        out.append(Metric(metric, median(d), unit, len(d)))

    span_median("structures.build_rat_s", "structures.build_rat")
    out += [Metric("structures.nodes", nodes, "count", 1),
            Metric("structures.edges", edges, "count", 1),
            Metric("structures.sum_edges", sum_edges, "count", 1)]
    span_median("circuit.serialize_s", "circuit.serialize")
    span_median("circuit.deserialize_s", "circuit.deserialize")
    out.append(Metric("circuit.file_bytes", len(circuq.serialize(circuit)), "bytes", 1))
    span_median("datasets.synth_blobs_s", "datasets.synth_blobs")

    in_round = lambda i: ix.round_of(i) >= 0  # noqa: E731
    fwd = ix.outermost(FORWARD_CALLS, in_round)
    fwd_train = [i for i in fwd if ix.has_ancestor(i, lambda a: a.module == "train")]
    out.append(Metric("circuit.forward_s", median(ix.per_round(fwd, lambda i: dur[i])),
                      "s", rounds, "per round"))
    out.append(Metric("circuit.forward_edge_rows_per_s", _rate(edges * rows(fwd), total(fwd)),
                      "1/s", len(fwd), f"{edges} edges x rows"))
    out.append(Metric("circuit.forward_in_train_s",
                      median(ix.per_round(fwd_train, lambda i: dur[i])), "s", rounds,
                      "per round"))
    fwd_op = ix.durations(role_op["forward"])
    out.append(Metric("circuit.forward_p95_ms", 1e3 * percentile(fwd_op, 95), "ms", len(fwd_op),
                      f"op {wl.roles['forward']}"))

    not_exact = lambda i: not ix.has_ancestor(i, lambda a: a.name == "bench.exact")  # noqa: E731
    moment = ix.outermost(MOMENT_PASS, lambda i: in_round(i) and not_exact(i))
    posterior = [i for i, s in enumerate(sp) if s.name in POSTERIOR and in_round(i) and not_exact(i)]
    out.append(Metric("moments.tdi_pass_s", median(ix.per_round(moment, lambda i: dur[i])),
                      "s", rounds, "per round, RAT_EXACT excluded"))
    out.append(Metric("moments.taylor_s",
                      median(ix.per_round(posterior, lambda i: ix.self_time[i])), "s", rounds,
                      "posterior self time per round"))
    out.append(Metric("moments.edge_rows_per_s", _rate(edges * rows(moment), total(moment)),
                      "1/s", len(moment), f"{edges} edges x rows"))
    out.append(Metric("moments.computed_bytes",
                      16 * nodes * max((sp[i].rows for i in moment), default=0), "bytes", 1,
                      "computed: log E and log Var arrays of the largest pass"))
    fwd_pass = ix.outermost(FORWARD_PASS, under(role_op["forward"]))
    tdi_pass = ix.outermost(MOMENT_PASS, under(role_op["tdi"]))
    fwd_ms_row = 1e3 * _rate(total(fwd_pass), rows(fwd_pass))
    tdi_ms_row = 1e3 * _rate(total(tdi_pass), rows(tdi_pass))
    out.append(Metric("moments.tdi_over_forward", tdi_ms_row / fwd_ms_row, "ratio",
                      len(tdi_pass), "moment pass / forward pass per row; base below"))
    out.append(Metric("moments.tdi_over_forward_base_ms", fwd_ms_row, "ms", len(fwd_pass),
                      "forward pass per row"))
    tdi_op = ix.durations(role_op["tdi"])
    out.append(Metric("moments.tdi_p95_ms", 1e3 * percentile(tdi_op, 95), "ms", len(tdi_op),
                      f"op {wl.roles['tdi']}"))

    mcd_spans = [i for i, s in enumerate(sp) if s.name == "mcd.mcd_infer" and in_round(i)]
    passes = sum(sp[i].counts["passes"] for i in mcd_spans)
    degenerate = sum(sp[i].counts["degenerate"] for i in mcd_spans)
    mcd_row_s = median([dur[i] for i in mcd_spans])
    out.append(Metric("mcd.row_s", mcd_row_s, "s", len(mcd_spans), "one mcd_infer call"))
    out.append(Metric("mcd.pass_edge_rate", _rate(sum_edges * passes, total(mcd_spans)), "1/s",
                      len(mcd_spans), f"{sum_edges} sum edges x passes"))
    out.append(Metric("mcd.passes", passes / rounds, "count", rounds, "per round"))
    out.append(Metric("mcd.degenerate_share", _rate(degenerate, passes), "ratio", passes,
                      "degenerate / attempted passes; useful share is 1 minus this"))
    out.append(Metric("mcd.mask_bytes_computed",
                      MCD_MASK_BYTES_PER_EDGE * sum_edges * min(passes // max(len(mcd_spans), 1),
                                                                MCD_CHUNK_PASSES),
                      "bytes", 1, "computed: draws and keep mask of one chunk"))
    tdi_row = _rate(median(tdi_op), traced.rows[wl.roles["tdi"]])
    mcd_row = _rate(median(ix.durations(role_op["mcd"])), traced.rows[wl.roles["mcd"]])
    out.append(Metric("mcd.tdi_over_mcd", tdi_row / mcd_row, "ratio", len(tdi_op),
                      f"TDI {1e3 * tdi_row:.4g} ms / MCD {1e3 * mcd_row:.4g} ms per row"))
    out.append(Metric("mcd.tdi_over_mcd_base_ms", 1e3 * mcd_row, "ms", len(mcd_spans),
                      f"MCD per row, L={passes // max(len(mcd_spans), 1)}"))
    out.append(Metric("mcd.tdi_gap", wl.tdi_gap(st, outputs), "prob", 1,
                      "mean |TDI - MCD| posterior mean, same rows"))

    lag = [i for i, s in enumerate(sp) if s.name == "train.loss_and_grad"]
    lag_set = set(lag)
    forward_in_lag: dict = {}
    for i, s in enumerate(sp):
        if s.name in FORWARD_CALLS and s.parent in lag_set:
            forward_in_lag[s.parent] = forward_in_lag.get(s.parent, 0.0) + dur[i]
    backward = [dur[i] - forward_in_lag.get(i, 0.0) for i in lag]
    span_median("train.loss_and_grad_s", "train.loss_and_grad")
    out.append(Metric("train.backward_s", median(backward), "s", len(backward),
                      "loss_and_grad minus its forward"))
    span_median("train.apply_s", "train.apply")
    span_median("train.accuracy_s", "train.accuracy")
    fits = [i for i, s in enumerate(sp) if s.name == "train.fit" and in_round(i)]
    out.append(Metric("train.fit_self_s", median(ix.per_round(fits, lambda i: ix.self_time[i])),
                      "s", rounds, "per round"))
    out.append(Metric("train.steps", len(lag) / rounds, "count", rounds, "per round"))
    histories = [o["history"] for o in outputs if o["history"] is not None]
    out.append(Metric("train.final_accuracy", histories[-1].epochs[-1][2] if histories else 0.0,
                      "ratio", 1, "last epoch of the last fit"))
    out.append(Metric("train.aborted", sum(h.aborted for h in histories), "count",
                      len(histories)))

    in_setup = under("bench.setup")
    library = [i for i, s in enumerate(sp) if s.module != "bench" and not in_setup(i)]
    round_self = median(ix.per_round(library, lambda i: ix.self_time[i]))
    untraced_round = median(untraced.scaled["round"])
    out.append(Metric("trace.overhead_share", median(traced.scaled["round"]) / untraced_round - 1,
                      "ratio", rounds, "median round, traced over untraced, reference-scaled"))
    out.append(Metric("trace.self_sum_over_untraced", round_self / untraced_round, "ratio",
                      rounds, "library self times of a round summed, over the untraced round"))
    out.append(Metric("trace.spans", len(sp) / rounds, "count", rounds, "per round"))
    return out


def op_breakdown(spans, correct) -> list[Metric]:
    """Self time per module inside each benchmark operation, per call, in
    reference seconds."""
    ix = SpanIndex(spans, correct)
    ops: dict = {}
    for i, span in enumerate(ix.spans):
        owner = next((a for a in [i, *ix.ancestors(i)]
                      if ix.spans[a].module == "bench"
                      and ix.spans[a].name not in ("bench.round", "bench.pipeline")), None)
        if owner is None or span.module == "bench":
            continue
        key = (ix.spans[owner].name[len("bench."):], span.module)
        ops[key] = ops.get(key, 0.0) + ix.self_time[i]
    calls: dict = {}
    for span in ix.spans:
        if span.module == "bench":
            calls[span.name[len("bench."):]] = calls.get(span.name[len("bench."):], 0) + 1
    return [Metric(f"op.{op}.{module}.self_ms", 1e3 * t / calls[op], "ms", calls[op],
                   "per call")
            for (op, module), t in sorted(ops.items())]
