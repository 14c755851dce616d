"""Monte Carlo dropout: stochastic forward passes as the sampling baseline.

Every sum-node edge keeps its child with probability q = 1 - p, independently
per pass and per edge.  Passes are the columns of one forward pass whose sum
weights are zero on dropped edges; a sum node whose children are all dropped
evaluates to zero (log -inf), as the masked mixture prescribes.  Sample
moments use divisor L.  The evidence is one row, so the leaves and the
product layers below the first sum layer, the layout's invariant prefix,
take the same values in every pass: the masked forward pass computes them
once, in one column, and the sum layers above them mix that column under
each pass's keep bits (:func:`circuq.circuit.forward_log_values`).

Keep bits come from counter-based Philox streams (Salmon et al., SC 2011)
keyed by the seed, one random byte per bit.  A bit is kept when a 53-bit
uniform k (U = k 2^-53, as numpy draws doubles) satisfies k >= T =
ceil(p 2^53), which is exactly U >= p.  With k = hi 2^45 + lo and T = T_hi
2^45 + T_lo, the bit is kept when hi > T_hi, and on a tie (hi == T_hi, one
bit in 256) when lo >= T_lo.  hi is the next byte of ``Philox(key=seed)``'s
raw 64-bit words in little-endian byte order; each tie takes lo from the top
45 bits of the next word of a second stream, ``Philox(key=seed).jumped()``
(the same key, 2^128 draws on), in (pass, edge) order.  Pass j uses bytes
[j E, (j + 1) E) of the first stream, its E bits in the plan order of the sum
edges (:attr:`Layout.sum_edge_order`), so a chunk of passes is a slice of one
sequence and results never depend on how passes are chunked.  At p = 0 no
bits are drawn: every pass is the plain forward pass.  Memory is the chunk
budget plus the root values of all L passes, O(classes L), from which the
moments are summed once at the end.

Over a batch (:func:`mcd_infer_rows`), row r is its own :func:`mcd_infer`
call with seed ``rng_seed + r``, so a row's result does not depend on the
rows around it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .circuit import Circuit, as_batch, as_evidence, forward_log_values
from .errors import DegenerateSampleError
from .moments import DropoutConfig, posterior_moments_batch

_CHUNK_BYTES = 1 << 25  # node values plus keep bits of one chunk of passes
_BLOCK_BYTES = 1 << 16  # random bytes thresholded at a time, a multiple of 8
_LO_BITS = 45  # bits of a 53-bit uniform below its top byte


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


def keep_masks(p: float, seed: int, num_edges: int, num_passes: int,
               chunk_passes: int) -> Iterator[np.ndarray]:
    """The (passes, edges) keep bits of ``num_passes`` passes, ``chunk_passes``
    at a time, drawn as the module docstring describes.  Every chunk but the
    last must hold whole 8-byte words: chunk_passes * num_edges % 8 == 0."""
    words = np.random.Philox(key=seed)
    ties = words.jumped()
    for done in range(0, num_passes, chunk_passes):
        keep = np.empty((min(chunk_passes, num_passes - done), num_edges), dtype=bool)
        flat = keep.reshape(-1)
        for s in range(0, len(flat), _BLOCK_BYTES):  # cache-sized, in order
            n = min(_BLOCK_BYTES, len(flat) - s)
            hi = words.random_raw(-(-n // 8)).astype("<u8", copy=False).view(np.uint8)[:n]
            flat[s : s + n] = byte_keep(hi, p, ties)
        yield keep


def byte_keep(hi: np.ndarray, p: float, ties) -> np.ndarray:
    """Keep bits of the random bytes ``hi``: hi > T_hi, and on a tie the top
    45 bits of the next raw word of ``ties`` against T_lo, ties in order."""
    hi_threshold, lo_threshold = divmod(math.ceil(p * 2.0**53), 1 << _LO_BITS)
    keep = hi > hi_threshold
    tie = np.flatnonzero(hi == hi_threshold)
    keep[tie] = ties.random_raw(len(tie)) >> (64 - _LO_BITS) >= lo_threshold
    return keep


def mcd_infer(circuit: Circuit, evidence, config: McdConfig) -> McdResult:
    """L stochastic forward passes; first and second sample moments.

    Passes run in chunks whose node values and keep bits fit in
    ``_CHUNK_BYTES``, a multiple of 8 passes each, so chunking changes
    neither the bits nor the results.  A pass where every class likelihood
    underflows to zero has no defined posterior and contributes a uniform
    one; if every pass degenerates this raises :class:`DegenerateSampleError`.
    """
    config.check()
    values = as_evidence(evidence, circuit.num_variables)
    layout = circuit.layout()
    num_edges = layout.num_sum_edges
    L = config.num_passes
    C = circuit.num_classes

    if config.p == 0.0:
        log_roots = np.repeat(forward_log_values(circuit, values[None, :], nodes=circuit.roots),
                              L, 1)
    else:
        pass_bytes = 8 * len(layout.order) + num_edges  # node values and keep bits
        chunk = max(1, _CHUNK_BYTES // pass_bytes // 8) * 8
        log_roots = np.empty((C, L))
        masks = keep_masks(config.p, config.rng_seed, num_edges, L, chunk)
        for done, keep in zip(range(0, L, chunk), masks):
            log_roots[:, done : done + len(keep)] = forward_log_values(
                circuit, values[None, :], keep, nodes=circuit.roots)

    # (C, L) arrays: lin, log_roots turned into post in place, and lin's
    # deviations below
    lin = np.exp(log_roots)
    joint = log_roots
    joint += np.asarray(circuit.log_class_priors, dtype=np.float64)[:, None]
    top = joint.max(axis=0)
    dead = np.isneginf(top)
    degenerate = int(dead.sum())
    if degenerate == L:
        raise DegenerateSampleError(
            f"all {L} passes underflowed to zero likelihood for every class"
        )
    joint -= np.where(dead, 0.0, top)
    post = np.exp(joint, out=joint)
    post /= np.where(dead, 1.0, post.sum(axis=0))
    post[:, dead] = 1.0 / C

    mean = lin.sum(axis=1) / L
    pmean = post.sum(axis=1) / L
    if config.p == 0.0:
        # every pass is the same deterministic forward pass
        var = np.zeros_like(mean)
        pvar = np.zeros_like(pmean)
    else:
        # sums of squared deviations from the mean, which cannot be negative
        dev = lin - mean[:, None]
        var = np.einsum("cl,cl->c", dev, dev) / L
        post -= pmean[:, None]
        pvar = np.einsum("cl,cl->c", post, post) / L
    return McdResult(
        sample_mean=mean,
        sample_variance=var,
        posterior_sample_mean=pmean,
        posterior_sample_variance=pvar,
        raw_samples=lin.T.copy() if config.keep_samples else None,
        metadata={"p": config.p, "num_passes": L, "degenerate_passes": degenerate},
    )


def mcd_infer_rows(circuit: Circuit, X, p: float, num_passes: int,
                   rng_seed: int) -> Iterator[McdResult]:
    """:func:`mcd_infer` on each row of ``X`` in turn, row r with seed
    ``rng_seed + r``.  Raises ShapeError unless X is (rows, variables)."""
    for r, x in enumerate(as_batch(X, circuit.num_variables)):
        yield mcd_infer(circuit, x, McdConfig(p, num_passes, rng_seed + r))


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
) -> ComparisonTable:
    """Posterior means/variances from both methods, with wall-clock timing."""
    X = np.asarray(evidence_batch, dtype=np.float64)
    config = DropoutConfig.with_p(p)

    t0 = time.perf_counter()
    tdi_mean, tdi_var = posterior_moments_batch(circuit, X, config)
    tdi_seconds = time.perf_counter() - t0

    rows: list[ComparisonRow] = []
    t0 = time.perf_counter()
    for s, res in enumerate(mcd_infer_rows(circuit, X, p, num_passes, rng_seed)):
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
