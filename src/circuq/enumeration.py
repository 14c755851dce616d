"""Exhaustive dropout-mask enumeration.

The brute-force reference for everything the moment propagation computes in
closed form: enumerate all 2^k keep/drop masks over the k sum edges, evaluate
the circuit in plain linear space for every mask, and take moments under the
Bernoulli mask distribution.  Deliberately shares no code with the log-space
propagation it is used to check.

Cost is exponential in the number of sum edges, so this is a test oracle for
small circuits, not an inference path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .circuit import Circuit, as_evidence
from .errors import StructureError

_MAX_EDGES = 22  # 2^22 masks: the largest enumeration this oracle runs
_CHUNK = 1 << 16  # masks evaluated at a time


def linear_leaf_value(node, x: float) -> float:
    """Leaf density/mass in linear space; marginalized (NaN) contributes 1."""
    if math.isnan(x):
        return 1.0
    if node.kind == "gaussian":
        std = math.exp(node.log_std)
        z = (x - node.mean) / std
        return math.exp(-0.5 * z * z) / (std * math.sqrt(2.0 * math.pi))
    return math.exp(float(node.log_probs[int(x)]))


def linear_forward(circuit: Circuit, evidence) -> np.ndarray:
    """Linear-space value of every node with all edges kept, shape (nodes,)."""
    values = as_evidence(evidence, circuit.num_variables)
    out = np.empty(len(circuit.nodes), dtype=np.float64)
    for i, node in enumerate(circuit.nodes):
        if node.kind == "sum":
            out[i] = float(np.dot(np.exp(node.log_weights), out[node.children]))
        elif node.kind == "product":
            out[i] = float(np.prod(out[node.children]))
        else:
            out[i] = linear_leaf_value(node, float(values[node.variable]))
    return out


@dataclass
class EnumeratedMoments:
    """Exact dropout moments of every node, from full mask enumeration."""

    circuit: Circuit
    p: float
    num_edges: int
    expectation: np.ndarray  # (nodes,)
    variance: np.ndarray  # (nodes,)
    mass: float  # total mask probability, which variances and covariances divide by
    values: Optional[np.ndarray]  # (nodes, 2^k) when retained
    probs: Optional[np.ndarray]  # (2^k,) when retained

    def cov(self, a: int, b: int) -> float:
        """Cov[a, b] from deviations from the values a_0, b_0 under the first
        mask, as the variances are taken: the mean of (a - a_0)(b - b_0) over
        the mass the variances divide by, less (E[a] - a_0)(E[b] - b_0).  A
        node that no mask changes has covariance exactly 0 with every node."""
        if a == b:
            return float(self.variance[a])
        if self.values is None:
            raise StructureError("mask values were not retained; rerun with keep_values=True")
        a0, b0 = self.values[a, 0], self.values[b, 0]
        shift = (self.expectation[a] - a0) * (self.expectation[b] - b0)
        return float(np.dot(self.probs, (self.values[a] - a0) * (self.values[b] - b0)) / self.mass
                     - shift)

    def posterior_moments(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Exact per-class posterior mean and variance over the mask distribution.

        Masks where every class likelihood is zero leave the posterior
        undefined; moments are taken conditional on a nonzero denominator.
        Returns (means, variances, excluded probability mass).
        """
        if self.values is None:
            raise StructureError("mask values were not retained; rerun with keep_values=True")
        priors = np.exp(np.asarray(self.circuit.log_class_priors, dtype=np.float64))
        numer = self.values[self.circuit.roots] * priors[:, None]  # (C, masks)
        denom = numer.sum(axis=0)
        keep = denom > 0.0
        mass = float(self.probs[keep].sum())
        if mass <= 0.0:
            raise StructureError("denominator is zero for every mask")
        w = self.probs[keep] / mass
        post = numer[:, keep] / denom[keep]
        means = post @ w
        dev = post - means[:, None]  # deviations from the mean: no cancellation
        return means, (dev * dev) @ w, 1.0 - mass


def enumerate_dropout_moments(
    circuit: Circuit,
    evidence,
    p: float,
    keep_values: bool = True,
) -> EnumeratedMoments:
    """Moments of every node under independent Bernoulli(1-p) edge keeps.

    Each sum edge carries its own keep variable; an edge shared through a DAG
    (one child, one parent) is still a single edge with a single variable, so
    enumeration reflects the true dependence structure that the tree-shaped
    closed forms may only approximate.

    Each chunk of masks gives its probability mass, its mean and its sum of
    squared deviations from that mean, M2, of every node's value less the
    node's value under the first mask; chunks merge by the pairwise update
    M2 = M2_a + M2_b + delta^2 W_a W_b / W (Chan et al.), whose terms are
    never negative, so a variance is never negative, and a node whose value
    is the same under every mask has variance exactly 0.
    """
    values = as_evidence(evidence, circuit.num_variables)
    edges = circuit.sum_edges()
    k = len(edges)
    if k > _MAX_EDGES:
        raise StructureError(f"{k} sum edges exceeds enumeration limit {_MAX_EDGES}")
    q = 1.0 - p
    num_masks = 1 << k
    edge_offset = {}
    for e, (node_id, pos) in enumerate(edges):
        edge_offset.setdefault(node_id, {})[pos] = e

    n = len(circuit.nodes)
    mass, mean, m2 = 0.0, np.zeros(n), np.zeros(n)  # of values less ``first``
    first = None  # every node's value under mask 0
    store = keep_values and num_masks * n <= 8_000_000
    all_values = np.empty((n, num_masks)) if store else None
    all_probs = np.empty(num_masks) if store else None

    leaf_vals = {
        i: linear_leaf_value(node, float(values[node.variable]))
        for i, node in enumerate(circuit.nodes)
        if node.kind in ("gaussian", "categorical")
    }

    with np.errstate(over="ignore"):
        log_q = math.log(q) if q > 0 else -np.inf
        log_p = math.log(p) if p > 0 else -np.inf
        for start in range(0, num_masks, _CHUNK):
            masks = np.arange(start, min(start + _CHUNK, num_masks), dtype=np.uint64)
            m = masks.shape[0]
            vals = np.empty((n, m))
            for i, node in enumerate(circuit.nodes):
                if node.kind == "sum":
                    acc = np.zeros(m)
                    w = np.exp(node.log_weights)
                    for pos, c in enumerate(node.children):
                        e = edge_offset[i][pos]
                        bit = ((masks >> np.uint64(e)) & np.uint64(1)).astype(np.float64)
                        acc += bit * w[pos] * vals[c]
                    vals[i] = acc
                elif node.kind == "product":
                    acc = np.ones(m)
                    for c in node.children:
                        acc = acc * vals[c]
                    vals[i] = acc
                else:
                    vals[i] = leaf_vals[i]
            keeps = np.bitwise_count(masks).astype(np.float64)
            if p == 0.0:
                probs = np.where(keeps == k, 1.0, 0.0)
            else:
                probs = np.exp(keeps * log_q + (k - keeps) * log_p)
            if store:
                all_values[:, start : start + m] = vals
                all_probs[start : start + m] = probs
            if first is None:
                first = vals[:, 0].copy()
            chunk_mass = probs.sum()
            if chunk_mass > 0.0:
                dev = vals  # in place: the chunk's values are not read again
                dev -= first[:, None]
                chunk_mean = (dev @ probs) / chunk_mass
                dev -= chunk_mean[:, None]
                delta = chunk_mean - mean
                total = mass + chunk_mass
                mean += delta * (chunk_mass / total)
                m2 += np.square(dev, out=dev) @ probs + delta * delta * (mass * chunk_mass / total)
                mass = total

    return EnumeratedMoments(
        circuit=circuit,
        p=p,
        num_edges=k,
        expectation=first + mean,
        variance=m2 / mass,
        mass=mass,
        values=all_values,
        probs=all_probs,
    )
