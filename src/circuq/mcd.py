"""Monte Carlo dropout: stochastic forward passes as the sampling baseline.

Every sum-node edge keeps its child with probability q = 1 - p, independently
per pass and per edge.  Passes are the columns of one forward pass whose sum
weights are zero on dropped edges; a sum node whose children are all dropped
evaluates to zero (log -inf), as the masked mixture prescribes.  Sample
moments use divisor L.  Within a row, the leaves and the product layers
below the first sum layer, the layout's invariant prefix, take the same
values in every pass: the masked forward pass computes them once per row,
in one column, and the sum layers above them mix that column under each of
the row's passes' keep bits (:func:`circuq.circuit.forward_log_values`).

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
bits are drawn: every pass is the plain forward pass.

Row r of a batch draws from the streams keyed ``rng_seed + r``, so its
results equal, bit for bit, those of a one-row call with that seed, and do
not depend on the rows around it.  A chunk of passes holds whole rows, as
many as keep its node values and keep bits under ``_SPARE_MIN`` bytes, the
size below which pass arrays are left to the allocator; a row whose passes
do not fit in ``_CHUNK_BYTES`` runs alone, a multiple of 8 passes at a
time.  Each chunk's root values, O(rows classes L), are reduced to its rows'
moments with the same per-row reductions, so memory is the chunk plus
O(rows classes) results.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .circuit import _SPARE_MIN, Circuit, Evidence, as_batch, as_evidence, forward_log_values
from .errors import DegenerateSampleError
from .moments import DropoutConfig, posterior_moments_batch

_CHUNK_BYTES = 1 << 25  # node values plus keep bits of one row's chunk of passes
_BLOCK_BYTES = 1 << 16  # random bytes thresholded at a time, a multiple of 8
_LO_BITS = 45  # bits of a 53-bit uniform below its top byte
_KEYS = 1 << 128  # Philox keys are the integers in [0, 2^128)


def _is_count(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class McdConfig:
    p: float
    num_passes: int
    rng_seed: int = 0
    keep_samples: bool = False

    def check(self, rows: int = 1) -> None:
        """Raise ValueError, naming the field, unless p is in [0, 1),
        num_passes is a positive integer and the seeds of ``rows`` rows,
        rng_seed to rng_seed + rows - 1, are Philox keys."""
        if not (0.0 <= self.p < 1.0):
            raise ValueError(f"dropout probability must be in [0, 1), got {self.p}")
        if not _is_count(self.num_passes) or self.num_passes < 1:
            raise ValueError(f"num_passes must be a positive integer, got {self.num_passes!r}")
        last = _KEYS - max(rows, 1)
        if not _is_count(self.rng_seed) or not 0 <= self.rng_seed <= last:
            raise ValueError(f"rng_seed must be an integer in [0, 2**128 - {_KEYS - last}] "
                             f"for {rows} rows, got {self.rng_seed!r}")


@dataclass
class McdResult:
    """Per-class results of one row, or per row and class of a batch."""

    sample_mean: np.ndarray  # linear-space root means, divisor L
    sample_variance: np.ndarray  # population variances of the roots, divisor L
    posterior_sample_mean: np.ndarray
    posterior_sample_variance: np.ndarray
    raw_samples: Optional[np.ndarray] = None  # (L, C), or (rows, L, C), linear root values
    metadata: dict = field(default_factory=dict)


def mask_stream(p: float, seed: int) -> Callable[[np.ndarray], np.ndarray]:
    """A function that fills a C-contiguous (passes, edges) boolean array
    with the keep bits of the next passes of the stream keyed ``seed``,
    drawn as the module docstring describes, and returns it.  Every fill but
    the last must take whole 8-byte words: passes * edges % 8 == 0."""
    words = np.random.Philox(key=seed)
    ties = words.jumped()

    def fill(keep: np.ndarray) -> np.ndarray:
        flat = keep.reshape(-1)
        for s in range(0, len(flat), _BLOCK_BYTES):  # cache-sized, in order
            n = min(_BLOCK_BYTES, len(flat) - s)
            hi = words.random_raw(-(-n // 8)).astype("<u8", copy=False).view(np.uint8)[:n]
            byte_keep(hi, p, ties, flat[s : s + n])
        return keep

    return fill


def byte_keep(hi: np.ndarray, p: float, ties, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Keep bits of the random bytes ``hi``, written into ``out`` if given:
    hi > T_hi, and on a tie the top 45 bits of the next raw word of ``ties``
    against T_lo, ties in order."""
    hi_threshold, lo_threshold = divmod(math.ceil(p * 2.0**53), 1 << _LO_BITS)
    keep = np.greater(hi, hi_threshold, out=out)
    tie = np.flatnonzero(hi == hi_threshold)
    keep[tie] = ties.random_raw(len(tie)) >> (64 - _LO_BITS) >= lo_threshold
    return keep


def mcd_infer(circuit: Circuit, evidence, config: McdConfig) -> McdResult:
    """L stochastic forward passes per evidence row; first and second sample
    moments.

    ``evidence`` is one row, whose results are per class, or a (rows,
    variables) batch, whose results are per row and class; row r uses the
    seed ``rng_seed + r``.  Passes run in chunks of whole rows, or of a
    multiple of 8 passes of one row, whose node values and keep bits fit the
    budgets of the module docstring, so chunking changes neither the bits
    nor the results.  A pass where every class likelihood underflows to zero
    has no defined posterior and contributes a uniform one; a row whose
    every pass degenerates raises :class:`DegenerateSampleError` naming the
    row.  ``metadata`` counts the passes of every row, and those that
    degenerated.
    """
    one = isinstance(evidence, Evidence) or np.ndim(evidence) != 2
    X = (as_evidence(evidence, circuit.num_variables)[None] if one
         else as_batch(evidence, circuit.num_variables))
    config.check(len(X))
    layout = circuit.layout()
    L, C = config.num_passes, circuit.num_classes
    pass_bytes = 8 * len(layout.order) + layout.num_sum_edges  # node values and keep bits
    chunk = max(1, _CHUNK_BYTES // pass_bytes // 8) * 8
    rows_per_chunk = max(1, _SPARE_MIN // (pass_bytes * L)) if L <= chunk else 1
    moments = np.empty((4, len(X), C))  # mean, var, posterior mean and var
    raw = np.empty((len(X), L, C)) if config.keep_samples else None
    degenerate = 0
    for s in range(0, len(X), rows_per_chunk):
        rows = slice(s, s + rows_per_chunk)
        lin, degenerate_here = _row_moments(circuit, _log_roots(circuit, X[rows], config, s, chunk),
                                            config.p, s, moments[:, rows])
        degenerate += degenerate_here
        if raw is not None:
            raw[rows] = lin.swapaxes(1, 2)
    mean, var, pmean, pvar = moments[:, 0] if one else moments
    return McdResult(
        sample_mean=mean,
        sample_variance=var,
        posterior_sample_mean=pmean,
        posterior_sample_variance=pvar,
        raw_samples=None if raw is None else raw[0] if one else raw,
        metadata={"p": config.p, "num_passes": len(X) * L, "degenerate_passes": degenerate},
    )


def _log_roots(circuit: Circuit, X: np.ndarray, config: McdConfig, first: int,
               chunk: int) -> np.ndarray:
    """The (rows, classes, L) log root values of every pass of the rows of
    X, rows ``first`` on of the call, in passes of at most ``chunk``
    columns per row."""
    L, E = config.num_passes, circuit.layout().num_sum_edges
    if config.p == 0.0:
        return np.repeat(forward_log_values(circuit, X, nodes=circuit.roots).T[:, :, None], L, 2)
    log_roots = np.empty((len(X), circuit.num_classes, L))
    streams = [mask_stream(config.p, config.rng_seed + first + r) for r in range(len(X))]
    keep = np.empty((len(X), min(L, chunk), E), dtype=bool)
    for done in range(0, L, chunk):
        n = min(chunk, L - done)
        for fill, row_keep in zip(streams, keep[:, :n]):
            fill(row_keep)
        log_roots[:, :, done : done + n] = forward_log_values(
            circuit, X, keep[:, :n].reshape(len(X) * n, E), nodes=circuit.roots,
        ).reshape(-1, len(X), n).swapaxes(0, 1)
    return log_roots


def _row_moments(circuit: Circuit, log_roots: np.ndarray, p: float, first: int,
                 out: np.ndarray) -> tuple[np.ndarray, int]:
    """Reduce the (rows, C, L) ``log_roots`` of rows ``first`` on, in place,
    to their linear root and posterior means and variances, written into
    ``out``'s four (rows, C) arrays; returns the linear (rows, C, L) root
    values and the count of degenerate passes.  Each row's reductions run
    along its own contiguous passes, so its bits do not depend on the rows
    reduced with it."""
    L, C = log_roots.shape[2], log_roots.shape[1]
    lin = np.exp(log_roots)
    joint = log_roots
    joint += np.asarray(circuit.log_class_priors, dtype=np.float64)[:, None]
    top = joint.max(axis=1)
    dead = np.isneginf(top)
    lost = np.flatnonzero(dead.all(axis=1))
    if len(lost):
        raise DegenerateSampleError(f"row {first + int(lost[0])}: all {L} passes underflowed "
                                    f"to zero likelihood for every class")
    joint -= np.where(dead, 0.0, top)[:, None]
    post = np.exp(joint, out=joint)
    post /= np.where(dead, 1.0, post.sum(axis=1))[:, None]
    post.swapaxes(1, 2)[dead] = 1.0 / C

    mean, var, pmean, pvar = out
    mean[...] = lin.sum(axis=2) / L
    pmean[...] = post.sum(axis=2) / L
    if p == 0.0:  # every pass is the same deterministic forward pass
        var[...] = 0.0
        pvar[...] = 0.0
    else:  # sums of squared deviations from the mean, which cannot be negative
        dev = lin - mean[:, :, None]
        var[...] = np.einsum("rcl,rcl->rc", dev, dev) / L
        post -= pmean[:, :, None]
        pvar[...] = np.einsum("rcl,rcl->rc", post, post) / L
    return lin, int(dead.sum())


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
    X = as_batch(evidence_batch, circuit.num_variables)
    config = DropoutConfig.with_p(p)

    t0 = time.perf_counter()
    tdi_mean, tdi_var = posterior_moments_batch(circuit, X, config)
    tdi_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    res = mcd_infer(circuit, X, McdConfig(p, num_passes, rng_seed))
    mcd_seconds = time.perf_counter() - t0
    rows = [
        ComparisonRow(
            sample_id=s,
            class_id=c,
            tdi_mean=float(tdi_mean[s, c]),
            tdi_var=float(tdi_var[s, c]),
            mcd_mean=float(res.posterior_sample_mean[s, c]),
            mcd_var=float(res.posterior_sample_variance[s, c]),
        )
        for s in range(len(X))
        for c in range(circuit.num_classes)
    ]
    return ComparisonTable(
        rows=rows,
        tdi_seconds=tdi_seconds,
        mcd_seconds=mcd_seconds,
        tdi_passes=1,
        mcd_passes=num_passes,
    )
