"""Monte Carlo dropout: stochastic forward passes as the sampling baseline.

Every sum-node edge keeps its child with probability q = 1 - p, independently
per pass and per edge.  Passes are the columns of one forward pass whose sum
weights are zero on dropped edges; a sum node whose children are all dropped
evaluates to zero (log -inf), as the masked mixture prescribes.  Sample
moments use divisor L.

Mask bits come from a counter-based Philox stream keyed by the seed and are
consumed in a fixed chunk order, so results are reproducible no matter how
the work is scheduled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .circuit import Circuit, as_evidence, forward_log_values, node_blocks
from .errors import DegenerateSampleError
from .moments import DropoutConfig, posterior_moments_batch, TaylorMethod

_CHUNK_PASSES = 8192  # fixed so chunking never affects the stream


@dataclass(frozen=True)
class McdConfig:
    p: float
    num_passes: int
    rng_seed: int = 0
    keep_samples: bool = False

    def check(self) -> None:
        if not (0.0 <= self.p < 1.0):
            raise ValueError(f"dropout probability must be in [0, 1), got {self.p}")
        if self.num_passes < 1:
            raise ValueError("num_passes must be at least 1")


@dataclass
class McdResult:
    sample_mean: np.ndarray  # per-root linear-space mean, divisor L
    sample_variance: np.ndarray  # per-root population variance, divisor L
    posterior_sample_mean: np.ndarray
    posterior_sample_variance: np.ndarray
    raw_samples: Optional[np.ndarray] = None  # (L, C) linear root values
    metadata: dict = field(default_factory=dict)


def _mask_generator(seed: int):
    return np.random.Generator(np.random.Philox(key=seed))


def mcd_infer(circuit: Circuit, evidence, config: McdConfig) -> McdResult:
    """L stochastic forward passes; first and second sample moments.

    A pass where every class likelihood underflows to zero has no defined
    posterior and contributes a uniform one; if every pass degenerates this
    raises :class:`DegenerateSampleError`.
    """
    config.check()
    values = as_evidence(evidence, circuit.num_variables)
    num_edges = circuit.layout().num_sum_edges
    L = config.num_passes
    C = circuit.num_classes
    rng = _mask_generator(config.rng_seed)

    log_priors = np.asarray(circuit.log_class_priors, dtype=np.float64)
    sum_v = np.zeros(C)
    sum_v2 = np.zeros(C)
    post_sum = np.zeros(C)
    post_sum2 = np.zeros(C)
    degenerate = 0
    raw = np.empty((L, C)) if config.keep_samples else None

    done = 0
    while done < L:
        m = min(_CHUNK_PASSES, L - done)
        keep = np.empty((num_edges, m), dtype=bool)
        for b in node_blocks(num_edges, 1, m):  # rows in order, so the bits of one draw
            keep[b] = rng.random(keep[b].shape) >= config.p
        log_roots = forward_log_values(circuit, values[None, :], keep)[circuit.roots]  # (C, m)
        lin = np.exp(log_roots)
        sum_v += lin.sum(axis=1)
        sum_v2 += (lin * lin).sum(axis=1)
        if raw is not None:
            raw[done : done + m] = lin.T

        joint = log_roots + log_priors[:, None]
        top = joint.max(axis=0)
        dead = np.isneginf(top)
        degenerate += int(dead.sum())
        safe_top = np.where(dead, 0.0, top)
        with np.errstate(divide="ignore"):
            post = np.exp(joint - safe_top[None, :])
        norm = post.sum(axis=0)
        post = np.where(dead[None, :], 1.0 / C, post / np.where(dead, 1.0, norm)[None, :])
        post_sum += post.sum(axis=1)
        post_sum2 += (post * post).sum(axis=1)
        done += m

    if degenerate == L:
        raise DegenerateSampleError(
            f"all {L} passes underflowed to zero likelihood for every class"
        )

    mean = sum_v / L
    pmean = post_sum / L
    if config.p == 0.0:
        # every pass is the same deterministic forward pass
        var = np.zeros_like(mean)
        pvar = np.zeros_like(pmean)
    else:
        var = np.maximum(sum_v2 / L - mean**2, 0.0)
        pvar = np.maximum(post_sum2 / L - pmean**2, 0.0)
    return McdResult(
        sample_mean=mean,
        sample_variance=var,
        posterior_sample_mean=pmean,
        posterior_sample_variance=pvar,
        raw_samples=raw,
        metadata={"p": config.p, "num_passes": L, "degenerate_passes": degenerate},
    )


# ---------------------------------------------------------------------------
# Side-by-side comparison against the closed-form pass


@dataclass
class ComparisonRow:
    sample_id: int
    class_id: int
    tdi_mean: float
    tdi_var: float
    mcd_mean: float
    mcd_var: float


@dataclass
class ComparisonTable:
    rows: list[ComparisonRow]
    tdi_seconds: float
    mcd_seconds: float
    tdi_passes: int
    mcd_passes: int

    def mean_abs_gap(self) -> float:
        return float(np.mean([abs(r.tdi_mean - r.mcd_mean) for r in self.rows]))

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("sample_id,class,tdi_mean,tdi_var,mcd_mean,mcd_var\n")
            for r in self.rows:
                fh.write(
                    f"{r.sample_id},{r.class_id},{r.tdi_mean:.17g},{r.tdi_var:.17g},"
                    f"{r.mcd_mean:.17g},{r.mcd_var:.17g}\n"
                )
            fh.write(
                f"# timing,tdi_seconds={self.tdi_seconds:.6g},"
                f"mcd_seconds={self.mcd_seconds:.6g},"
                f"tdi_passes={self.tdi_passes},mcd_passes={self.mcd_passes}\n"
            )


def mcd_vs_tdi_report(
    circuit: Circuit,
    evidence_batch: np.ndarray,
    p: float,
    num_passes: int,
    rng_seed: int = 0,
    taylor: TaylorMethod = TaylorMethod.SIMPLE,
) -> ComparisonTable:
    """Posterior means/variances from both methods, with wall-clock timing."""
    X = np.asarray(evidence_batch, dtype=np.float64)
    config = DropoutConfig.with_p(p)

    t0 = time.perf_counter()
    tdi_mean, tdi_var = posterior_moments_batch(circuit, X, config, taylor)
    tdi_seconds = time.perf_counter() - t0

    rows: list[ComparisonRow] = []
    t0 = time.perf_counter()
    for s in range(X.shape[0]):
        res = mcd_infer(circuit, X[s], McdConfig(p, num_passes, rng_seed + s))
        for c in range(circuit.num_classes):
            rows.append(
                ComparisonRow(
                    sample_id=s,
                    class_id=c,
                    tdi_mean=float(tdi_mean[s, c]),
                    tdi_var=float(tdi_var[s, c]),
                    mcd_mean=float(res.posterior_sample_mean[c]),
                    mcd_var=float(res.posterior_sample_variance[c]),
                )
            )
    mcd_seconds = time.perf_counter() - t0
    return ComparisonTable(
        rows=rows,
        tdi_seconds=tdi_seconds,
        mcd_seconds=mcd_seconds,
        tdi_passes=1,
        mcd_passes=num_passes,
    )
