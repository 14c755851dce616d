"""Closed-form dropout moments in a single bottom-up pass.

Dropping each sum-node edge independently with probability p turns every node
value into a random variable.  Expectations, variances, and sibling
covariances of those values propagate bottom-up through the circuit in closed
form, so the model uncertainty at the roots costs one traversal instead of
many stochastic forward passes.

Moments are stored in log space, expectations and variances of nonnegative
circuit values as log magnitudes and covariances as (sign, log|x|) pairs,
because deep circuits underflow linear doubles long before they get
interesting.  The pass runs on the circuit's layer plan: each group of sums
that shares a child list mixes its children's moments in linear space as
matrix products, shifted per group and row by the largest child moment, and
each group of products combines its factors over their outer product.

Covariance handling between siblings is pluggable:

* ``TREE_ZERO`` ignores sibling covariances.  Exact on tree circuits; on a
  DAG it is exactly the moments of the circuit with every shared child
  duplicated per parent path (each duplicate drawing fresh dropout masks).
* ``RAT_EXACT`` resolves covariances exactly on binary RAT region graphs,
  where a product's two children always come from independent partitions.
* ``CAUCHY`` keeps the point estimate at zero covariance and attaches
  per-node variance intervals derived from the Cauchy-Schwarz bound
  |Cov[a,b]| <= sqrt(Var[a] Var[b]) to the frame metadata, for diagnostics.

The class posterior moments are one Taylor expansion over (nodes, rows)
moment arrays, shared by the single-row and the batch API.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .circuit import SHIFT_FLOOR, Circuit, as_evidence, log_shifted, logsumexp_axis0, mix
from .errors import StructureError, UnderflowError
from .signedlog import SignedLog, sl_sum

_NEG_INF = float("-inf")

ENTROPY_CLAMP = 1e-12

_LOG_DUST = math.log(1e-12)  # negative rounding dust, relative to the positive term


class CovarianceStrategy(enum.Enum):
    TREE_ZERO = "tree_zero"
    RAT_EXACT = "rat_exact"
    CAUCHY = "cauchy"


class TaylorMethod(enum.Enum):
    SIMPLE = "simple"
    EXTENDED = "extended"


@dataclass(frozen=True)
class DropoutConfig:
    """Dropout probability and sibling-covariance strategy.

    The keep probability q is the stored quantity and p is derived as 1 - q,
    so p + q == 1 holds exactly in floating point.  ``exclude_root_heads``
    evaluates root sum nodes without dropout on their outgoing edges.
    """

    q: float
    covariance_strategy: CovarianceStrategy = CovarianceStrategy.TREE_ZERO
    exclude_root_heads: bool = False

    @staticmethod
    def with_p(
        p: float,
        covariance_strategy: CovarianceStrategy = CovarianceStrategy.TREE_ZERO,
        exclude_root_heads: bool = False,
    ) -> "DropoutConfig":
        if not (0.0 <= p < 1.0):
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        return DropoutConfig(1.0 - p, covariance_strategy, exclude_root_heads)

    @property
    def p(self) -> float:
        return 1.0 - self.q


@dataclass
class MomentFrame:
    """Per-evaluation store of node moments in signed log space.

    ``log_expectation`` and ``log_variance`` are log magnitudes (the values
    themselves are nonnegative).  ``sibling_cov`` holds signed covariances for
    node pairs that were materialized during the pass: pairs sharing a parent,
    plus same-region pairs the exact RAT strategy resolves recursively.
    """

    circuit: Circuit
    config: DropoutConfig
    log_expectation: np.ndarray
    log_variance: np.ndarray
    sibling_cov: dict[tuple[int, int], SignedLog] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def pair_cov(self, a: int, b: int) -> SignedLog:
        """Covariance of two arbitrary nodes under this frame's strategy."""
        return _pair_cov(self, a, b)

    @staticmethod
    def from_linear(
        circuit: Circuit, expectation: np.ndarray, variance: np.ndarray
    ) -> "MomentFrame":
        """Wrap externally computed linear-space moments (e.g. enumerated ones)."""
        with np.errstate(divide="ignore"):
            log_e = np.log(np.asarray(expectation, dtype=np.float64))
            log_v = np.log(np.asarray(variance, dtype=np.float64))
        frame = MomentFrame(
            circuit=circuit,
            config=DropoutConfig.with_p(0.0),
            log_expectation=log_e,
            log_variance=log_v,
        )
        frame.metadata["source"] = "external"
        return frame


# ---------------------------------------------------------------------------
# The bottom-up pass


def tdi_pass(
    circuit: Circuit,
    evidence,
    config: DropoutConfig,
    leaf_log_variance: Optional[dict[int, float]] = None,
) -> MomentFrame:
    """One bottom-up pass filling expectation, variance, and covariances.

    Sum node:      E = q sum_i w_i E[N_i]
                   Var = q sum_i w_i^2 (Var[N_i] + p E[N_i]^2)
                         + q^2 sum_{i != j} w_i w_j Cov[N_i, N_j]
    Product node:  E = prod_i E[N_i]
                   Var = prod_i (Var[N_i] + E[N_i]^2) - prod_i E[N_i]^2
    Leaf:          E = leaf value, Var = 0 (unless a prior leaf variance is
                   supplied through ``leaf_log_variance``).

    The row runs through the batch moment pass as a batch of one.  The
    covariance term follows the configured strategy: RAT_EXACT adds it to
    each sum layer before the next layer reads it, at most quadratic in local
    fan-in; the other strategies leave it out.
    """
    values = as_evidence(evidence, circuit.num_variables)
    strategy = config.covariance_strategy
    if strategy is CovarianceStrategy.RAT_EXACT and circuit.rat is None:
        raise StructureError("RAT_EXACT requires a circuit tagged with RAT structure")

    frame = MomentFrame(circuit, config, np.empty(0), np.empty(0))
    frame.metadata["p"] = config.p
    frame.metadata["strategy"] = strategy.value
    if strategy is CovarianceStrategy.TREE_ZERO and not circuit.is_tree():
        frame.metadata["treezero_on_dag"] = True

    on_sum_layer = None
    if strategy is CovarianceStrategy.RAT_EXACT:
        on_sum_layer = functools.partial(_add_sum_covariances, frame)
    elif strategy is CovarianceStrategy.CAUCHY:
        frame.metadata["cauchy_var_bounds"] = {}
        on_sum_layer = functools.partial(_cauchy_var_bounds, frame.metadata["cauchy_var_bounds"])
    log_e, log_v = _moment_pass(circuit, values[None, :], config, leaf_log_variance, on_sum_layer)
    frame.log_expectation, frame.log_variance = log_e[:, 0], log_v[:, 0]
    return frame


def tdi_pass_batch(circuit: Circuit, X: np.ndarray, config: DropoutConfig):
    """Per-node log expectation and log variance for a batch of rows.

    Covers the strategies whose point estimates drop sibling covariances
    (TREE_ZERO and the Cauchy diagnostics).  Returns two (nodes, rows) arrays.
    """
    if config.covariance_strategy is CovarianceStrategy.RAT_EXACT:
        raise StructureError("the batch pass supports zero-covariance strategies only")
    return _moment_pass(circuit, np.asarray(X, dtype=np.float64), config)


def _moment_pass(circuit, X, config, leaf_log_variance=None, on_sum_layer=None):
    """Log expectation and zero-covariance log variance of every node, as
    (nodes, rows) arrays, from one loop over the circuit's layers.

    ``on_sum_layer(layer, log_weights, log_q, log_e, log_v)`` is the
    covariance strategy's hook, called after each sum layer and before the
    next layer reads it; RAT_EXACT adds the sibling covariances to the layer's
    variances in place.  A ``leaf_log_variance`` key that is not a leaf id
    raises StructureError.
    """
    plan = circuit.plan()
    n, rows = len(circuit.nodes), X.shape[0]
    log_e = np.empty((n, rows))
    log_v = np.full((n, rows), _NEG_INF)
    plan.leaf_log_values(X, log_e)
    for i, lv in (leaf_log_variance or {}).items():
        if not 0 <= i < n or circuit.nodes[i].kind not in ("gaussian", "categorical"):
            raise StructureError(f"leaf_log_variance key {i} is not a leaf id")
        log_v[i] = lv
    q = np.full((n, 1), config.q)
    if config.exclude_root_heads:
        q[circuit.roots] = 1.0  # root heads keep every edge
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_q = np.log(q)
        for layer, lw, w in zip(plan.layout.layers, plan.log_weights, plan.weights):
            for b in layer.blocks(rows):
                ids = layer.nodes[b]
                if lw is None:
                    log_e[ids], log_v[ids] = _product_moments(
                        layer, [log_e[f[b]] for f in layer.factors],
                        [log_v[f[b]] for f in layer.factors])
                else:
                    kids = layer.children[b]
                    log_e[ids], log_v[ids] = _sum_moments(
                        w[b], lw[b], log_e[kids], log_v[kids], log_q[ids], 1.0 - q[ids])
            if on_sum_layer is not None and lw is not None:
                on_sum_layer(layer, lw, log_q, log_e, log_v)
    return log_e, log_v


def _product_moments(layer, ce: list, cv: list):
    """log E and log Var of a block of product groups of independent factors.

    Takes each factor's (groups, S_f, rows) moments.  Var = prod(E^2)
    (prod(1 + r_f) - 1) with r_f = Var_f / E_f^2, and the bracket accumulates
    over the outer product as acc + r_f (1 + acc), which cannot cancel.
    Where a factor's mean is zero the subtracted product vanishes, and Var is
    the product of the factors' second moments.
    """
    log_e = layer.outer(ce)
    if max(v.max() for v in cv) == _NEG_INF:  # constant factors: a constant product
        return log_e, np.full(log_e.shape, _NEG_INF)
    r = [np.exp(v - 2.0 * e) for e, v in zip(ce, cv)]
    acc = layer.outer(r, lambda acc, rf: acc + rf * (1.0 + acc))
    log_v = 2.0 * log_e + np.log(acc)
    if log_e.min() == _NEG_INF:
        second = layer.outer([np.logaddexp(v, 2.0 * e) for e, v in zip(ce, cv)])
        log_v = np.where(log_e == _NEG_INF, second, log_v)
    return log_e, log_v


def _sum_moments(w, lw, ce, cv, log_q, p):
    """log E and zero-covariance log Var of a block of sum groups.

    E = q W E_k and Var = q (W o W) (Var_k + p E_k^2), from the groups'
    (g, K, rows) child moments.  E is mixed in linear space under each
    group's per-row largest child mean, Var under its largest Var_k or
    E_k^2, and entries that flush to zero or a subnormal are recomputed
    exactly (:func:`log_shifted`).  At p = 0 with zero child variances Var
    is exactly 0.
    """
    me, mv = ce.max(axis=1, keepdims=True), cv.max(axis=1, keepdims=True)
    se = np.maximum(me, SHIFT_FLOOR)
    sv = np.maximum(np.maximum(mv, 2.0 * me), SHIFT_FLOOR)
    a = np.exp(ce - se)
    w2 = w * w
    var = p * mix(w2, a * a) * np.exp(2.0 * se - sv)
    if mv.max() > _NEG_INF:
        var += mix(w2, np.exp(cv - sv))
    log_e = log_shifted(mix(w, a), se, lambda: me > _NEG_INF,
                        lambda g, s, c: lw[g, s] + ce[g, :, c])
    log_var = log_shifted(
        var, sv, lambda: (mv > _NEG_INF) | ((p > 0.0) & (me > _NEG_INF)),
        lambda g, s, c: np.concatenate(
            [2.0 * lw[g, s] + cv[g, :, c], np.log(p[g, s]) + 2.0 * (lw[g, s] + ce[g, :, c])],
            axis=1))
    return log_q + log_e, log_q + log_var


def _add_sum_covariances(frame: MomentFrame, layer, lw, log_q, log_e, log_v) -> None:
    """Add 2 q^2 sum_{i < j} w_i w_j Cov[N_i, N_j] to each sum node's variance."""
    frame.log_expectation, frame.log_variance = log_e[:, 0], log_v[:, 0]
    for i in layer.nodes.ravel().tolist():
        node = frame.circuit.nodes[i]
        kids, weights = node.children, node.log_weights
        cov_term = SignedLog.zero()
        for a in range(len(kids)):
            for b in range(a + 1, len(kids)):
                c = _pair_cov(frame, kids[a], kids[b])
                if not c.is_zero:
                    cov_term = cov_term + c.scale_log(float(weights[a] + weights[b]))
        t1 = float(log_v[i, 0])
        var = SignedLog.from_log(t1) + cov_term.scale_log(2.0 * log_q[i, 0] + math.log(2.0))
        log_v[i, 0] = _nonnegative_log(var, t1, context=f"variance of sum node {i}")


def _cauchy_var_bounds(bounds: dict, layer, lw, log_q, log_e, log_v) -> None:
    """Record, per sum node, the variance interval the Cauchy-Schwarz bound
    |Cov[a,b]| <= sqrt(Var[a] Var[b]) allows around the zero-covariance point:
    +- q^2 sum_{i != j} w_i w_j sqrt(Var_i Var_j), clipped at zero.

    The interval is rounded outward by one ulp, so that it holds the point
    however exp(log Var) is evaluated: np.exp and math.exp differ by up to
    one ulp."""
    terms = (lw + 0.5 * log_v[layer.children, 0][:, None, :]).transpose(2, 0, 1)  # (K, G, S)
    total = 2.0 * logsumexp_axis0(terms)  # log (sum_i t_i)^2
    gap = logsumexp_axis0(2.0 * terms) - total
    spread = np.where(gap < 0.0, total + np.log(-np.expm1(gap)), _NEG_INF)
    point = np.exp(log_v[layer.nodes, 0])
    half = np.exp(2.0 * log_q[layer.nodes, 0] + spread)
    lo = np.maximum(np.nextafter(point - half, -np.inf), 0.0)
    hi = np.nextafter(point + half, np.inf)
    bounds.update(zip(layer.nodes.ravel().tolist(), zip(lo.ravel().tolist(), hi.ravel().tolist())))


def _nonnegative_log(value: SignedLog, log_scale: float, context: str) -> float:
    """log of a quantity that exact math keeps nonnegative.

    ``log_scale`` is the log of the positive term the value was computed
    from.  A negative result within 1e-12 of that scale is rounding dust and
    becomes zero; a larger one is an error.
    """
    if value.sign >= 0:
        return value.log_mag if value.sign > 0 else _NEG_INF
    if value.log_mag <= log_scale + _LOG_DUST:
        return _NEG_INF
    raise StructureError(
        f"{context} is negative: -{math.exp(value.log_mag):.3e} against a positive "
        f"term of {math.exp(log_scale):.3e}"
    )


# ---------------------------------------------------------------------------
# Pairwise covariances


def _pair_cov(frame: MomentFrame, a: int, b: int) -> SignedLog:
    if a == b:
        return SignedLog.from_log(float(frame.log_variance[a]))
    key = (a, b) if a < b else (b, a)
    cached = frame.sibling_cov.get(key)
    if cached is not None:
        return cached
    result = _pair_cov_uncached(frame, a, b)
    frame.sibling_cov[key] = result
    return result


def _pair_cov_uncached(frame: MomentFrame, a: int, b: int) -> SignedLog:
    strategy = frame.config.covariance_strategy
    if np.isneginf(frame.log_variance[a]) or np.isneginf(frame.log_variance[b]):
        return SignedLog.zero()  # Cauchy-Schwarz: zero variance forces zero covariance
    scopes = frame.circuit.scopes()
    if scopes[a] & scopes[b] == 0:
        return SignedLog.zero()  # disjoint scopes share no descendants
    if strategy is not CovarianceStrategy.RAT_EXACT:
        return SignedLog.zero()  # Cauchy bounds, if any, live in the metadata
    return _rat_pair_cov(frame, a, b)


def _rat_pair_cov(frame: MomentFrame, a: int, b: int) -> SignedLog:
    circuit = frame.circuit
    rat = circuit.rat
    na, nb = circuit.nodes[a], circuit.nodes[b]
    if na.kind == "sum" and nb.kind == "sum":
        ra = rat.sum_region.get(a)
        rb = rat.sum_region.get(b)
        if ra is not None and rb is not None:
            if ra[0] != rb[0]:
                return SignedLog.zero()  # different repetitions share nothing
            if ra != rb:
                raise StructureError(
                    f"covariance between sums {a} and {b} of different regions is not "
                    "resolvable on a RAT structure"
                )
            return _sum_sum_cov(frame, a, b)
        if ra is None and rb is None:
            return _sum_sum_cov(frame, a, b)  # class heads over tagged products
        raise StructureError(f"sums {a} and {b} are inconsistently tagged")
    if na.kind == "product" and nb.kind == "product":
        pa = rat.product_partition.get(a)
        pb = rat.product_partition.get(b)
        if pa is None or pb is None:
            raise StructureError(f"products {a} and {b} lack partition tags")
        if pa[0] != pb[0]:
            return SignedLog.zero()  # different repetitions share nothing
        if pa != pb:
            raise StructureError(
                f"covariance between products {a} and {b} of different partitions is "
                "not resolvable on a RAT structure"
            )
        return rat_product_covariance(frame, a, b)
    raise StructureError(
        f"covariance between nodes {a} ({na.kind}) and {b} ({nb.kind}) is not "
        "resolvable on a RAT structure"
    )


def _sum_sum_cov(frame: MomentFrame, a: int, b: int) -> SignedLog:
    """Cov of two sum nodes: q^2 sum_i sum_j w_i^A w_j^B Cov[N_i^A, N_j^B]."""
    circuit = frame.circuit
    na, nb = circuit.nodes[a], circuit.nodes[b]
    config = frame.config
    qq = math.prod(1.0 if config.exclude_root_heads and s in circuit.roots else config.q
                   for s in (a, b))
    log_qq = math.log(qq) if qq > 0 else _NEG_INF
    terms = []
    for wi, ci in zip(na.log_weights, na.children):
        for wj, cj in zip(nb.log_weights, nb.children):
            c = _pair_cov(frame, ci, cj)
            if not c.is_zero:
                terms.append(c.scale_log(float(wi + wj)))
    return sl_sum(terms).scale_log(log_qq)


def sum_covariance(frame: MomentFrame, sum_a: int, sum_b: int) -> SignedLog:
    """Covariance of two sum nodes with child covariances per the frame's strategy."""
    circuit = frame.circuit
    for s in (sum_a, sum_b):
        if circuit.nodes[s].kind != "sum":
            raise StructureError(f"node {s} is not a sum node")
    return _sum_sum_cov(frame, sum_a, sum_b)


def rat_product_covariance(frame: MomentFrame, prod_a: int, prod_b: int) -> SignedLog:
    """Covariance of two binary RAT products via their partition factors:

    Cov[P_lr, P_l'r'] = Cov[L_l, L_l'] E[R_r] E[R_r']
                        + Cov[R_r, R_r'] E[L_l] E[L_l']
                        + Cov[L_l, L_l'] Cov[R_r, R_r']
    """
    circuit = frame.circuit
    na, nb = circuit.nodes[prod_a], circuit.nodes[prod_b]
    for node_id, node in ((prod_a, na), (prod_b, nb)):
        if node.kind != "product" or len(node.children) != 2:
            raise StructureError(f"node {node_id} is not a binary product")
    la, ra = na.children
    lb, rb = nb.children
    scopes = circuit.scopes()
    if scopes[la] != scopes[lb] or scopes[ra] != scopes[rb]:
        raise StructureError(f"products {prod_a} and {prod_b} are not partition-aligned")
    cov_l = _pair_cov(frame, la, lb)
    cov_r = _pair_cov(frame, ra, rb)
    le = frame.log_expectation
    term1 = cov_l.scale_log(float(le[ra] + le[rb]))
    term2 = cov_r.scale_log(float(le[la] + le[lb]))
    term3 = cov_l * cov_r
    return term1 + term2 + term3


def cauchy_bounds(frame: MomentFrame, a: int, b: int) -> tuple[SignedLog, SignedLog]:
    """Cauchy-Schwarz covariance interval +-sqrt(Var[a] Var[b])."""
    half = 0.5 * (float(frame.log_variance[a]) + float(frame.log_variance[b]))
    if half == _NEG_INF or math.isnan(half):
        return SignedLog.zero(), SignedLog.zero()
    return SignedLog(-1, half), SignedLog(1, half)


# ---------------------------------------------------------------------------
# Posterior classification moments


@dataclass
class PosteriorMoments:
    """Approximate moments of the class posterior under dropout."""

    mean: np.ndarray
    variance: np.ndarray
    std: np.ndarray
    entropy: float
    normalized_entropy: float
    metadata: dict = field(default_factory=dict)


def posterior_moments(
    circuit: Circuit,
    evidence,
    config: DropoutConfig,
    method: TaylorMethod = TaylorMethod.SIMPLE,
) -> PosteriorMoments:
    """Taylor-approximated mean and variance of each class posterior.

    With A = S_i c_i for class i and B = sum_j S_j c_j, the ratio moments are

        E[A/B]   ~= E[A]/E[B] - Cov[A,B]/E[B]^2 + Var[B] E[A]/E[B]^3
        Var[A/B] ~= (E[A]/E[B])^2 (Var[A]/E[A]^2 - 2 Cov[A,B]/(E[A]E[B])
                                   + Var[B]/E[B]^2)

    for the SIMPLE method.  The mean is the full second-order expansion of
    E[A/B], so both methods share it.  EXTENDED's variance additionally
    carries cross terms for the dependence between a root and the sum of all
    roots; its product-variance term uses the crude local-independence
    shortcut Var[XY] = Var[X] Var[Y].
    """
    if circuit.num_classes < 2:
        raise StructureError("posterior moments need at least two class roots")
    frame = tdi_pass(circuit, evidence, config)
    mean, var, log_t = _taylor(
        circuit,
        frame.log_expectation[:, None],
        frame.log_variance[:, None],
        _root_cov(frame)[:, :, None],
        method,
    )
    mean, var = mean[:, 0], np.maximum(var[:, 0], 0.0)
    mean_clamped = np.clip(mean, 0.0, 1.0)
    entropy = predictive_entropy(mean_clamped)
    out = PosteriorMoments(
        mean=mean_clamped,
        variance=var,
        std=np.sqrt(var),
        entropy=entropy,
        normalized_entropy=entropy / math.log(circuit.num_classes),
        metadata=dict(frame.metadata),
    )
    if log_t is not None:
        out.metadata["taylor_t"] = log_t[:, 0]
    out.metadata["method"] = method.value
    out.metadata["raw_mean"] = mean
    return out


def posterior_moments_batch(
    circuit: Circuit,
    X: np.ndarray,
    config: DropoutConfig,
    method: TaylorMethod = TaylorMethod.SIMPLE,
):
    """Posterior means and variances for a batch, shape (rows, classes) each.

    The same Taylor expansion as :func:`posterior_moments`, once for all rows.
    Zero-covariance strategies take the vectorized pass; RAT_EXACT runs the
    per-row pass, which also yields the covariances between class roots.
    Means are returned unclamped.
    """
    if circuit.num_classes < 2:
        raise StructureError("posterior moments need at least two class roots")
    X = np.asarray(X, dtype=np.float64)
    C, rows = circuit.num_classes, X.shape[0]
    root_cov = np.zeros((C, C, rows))
    if config.covariance_strategy is CovarianceStrategy.RAT_EXACT:
        log_e = np.empty((len(circuit.nodes), rows))
        log_v = np.empty_like(log_e)
        for r in range(rows):
            frame = tdi_pass(circuit, X[r], config)
            log_e[:, r] = frame.log_expectation
            log_v[:, r] = frame.log_variance
            root_cov[:, :, r] = _root_cov(frame)
    else:
        log_e, log_v = tdi_pass_batch(circuit, X, config)
    mean, var, _ = _taylor(circuit, log_e, log_v, root_cov, method)
    return mean.T, np.maximum(var.T, 0.0)


def _root_shift(circuit: Circuit, log_e: np.ndarray) -> np.ndarray:
    """Per-row max_i log E[A_i], the scale every Taylor term is shifted by."""
    log_c = np.asarray(circuit.log_class_priors, dtype=np.float64)[:, None]
    shift = np.max(log_e[circuit.roots] + log_c, axis=0)
    dead = np.isneginf(shift)
    if np.any(dead):
        idx = int(np.flatnonzero(dead)[0])
        raise UnderflowError(
            f"all class likelihoods vanished for row {idx}; the posterior "
            "denominator is zero"
        )
    return shift


def _root_cov(frame: MomentFrame) -> np.ndarray:
    """Cov[S_i, S_j] between distinct class roots of one frame, shape (C, C).

    Linear and scaled by exp(-2 shift), the units :func:`_taylor` expects.
    Only RAT_EXACT resolves these; the other strategies take them as zero.
    """
    roots = frame.circuit.roots
    C = len(roots)
    cov = np.zeros((C, C))
    if frame.config.covariance_strategy is not CovarianceStrategy.RAT_EXACT:
        return cov
    # exp(-2 shift); a frame whose roots all vanish has zero covariances here
    # and fails in _taylor with its row number
    log_c = np.asarray(frame.circuit.log_class_priors, dtype=np.float64)
    log_scale = -2.0 * float(np.max(frame.log_expectation[roots] + log_c))
    for i in range(C):
        for j in range(i + 1, C):
            c = _pair_cov(frame, roots[i], roots[j]).scale_log(log_scale)
            cov[i, j] = cov[j, i] = c.to_float()
    return cov


def _taylor(circuit, log_e, log_v, root_cov, method):
    """Taylor moments of the class posteriors A_i / B for every row.

    ``log_e`` and ``log_v`` are (nodes, rows) log moments; ``root_cov`` is the
    (C, C, rows) linear covariance between distinct roots, zero on its
    diagonal, scaled like the variances.  Each Taylor term is a degree-zero
    ratio of moments, so shifting every moment by its degree in the per-row
    scale max_i log E[A_i] keeps the arithmetic linear and in float range.

    SIMPLE writes its variance as (Var[A_i] - 2 t_i Cov[A_i,B] + t_i^2 Var[B])
    / E[B]^2 with t_i = E[A_i]/E[B], the docstring formula of
    :func:`posterior_moments` without the division by E[A_i].  EXTENDED keeps
    the mean and adds dependence terms to the variance.  Returns the (C, rows)
    means and variances, and EXTENDED's log T_i (None under SIMPLE).  Classes
    with E[A_i] = 0 get zeros.
    """
    roots = circuit.roots
    log_c = np.asarray(circuit.log_class_priors, dtype=np.float64)[:, None]
    shift = _root_shift(circuit, log_e)
    with np.errstate(divide="ignore"):
        les = log_e[roots] - shift  # E[S_i], shifted
        lvs = log_v[roots] - 2.0 * shift  # Var[S_i], shifted
        c = np.exp(log_c)
        ea = np.exp(les + log_c)  # E[A_i]
        va = np.exp(lvs + 2.0 * log_c)  # Var[A_i]
        eb = ea.sum(axis=0)
        ck = np.einsum("j,ijr->ir", c[:, 0], root_cov)  # sum_j c_j Cov[S_i, S_j]
        cov_ab = va + c * ck  # Cov[A_i, B]
        var_b = np.maximum(cov_ab.sum(axis=0), 0.0)
        t = ea / eb
        mean = t - cov_ab / eb**2 + t * var_b / eb**2
        if method is TaylorMethod.SIMPLE:
            var = (va - 2.0 * t * cov_ab + t * t * var_b) / eb**2
            log_t = None
        else:
            # Var[S_i S_j] is expanded over the root sum nodes' children as
            # sum_{k,l} (w_k w_l)^2 Var[N_k] Var[N_l], which factors into
            # T_i T_j with T_i = sum_k w_k^2 Var[N_k]; non-sum roots fall back
            # to T_i = Var[S_i].
            log_t = lvs.copy()
            for i, r in enumerate(roots):
                node = circuit.nodes[r]
                if node.kind == "sum":
                    lw = node.log_weights[:, None]
                    log_t[i] = logsumexp_axis0(2.0 * lw + log_v[node.children]) - 2.0 * shift
            tt = np.exp(log_t)
            es = np.exp(les)
            vs = np.exp(lvs)
            zni = eb - ea  # E[B] without class i
            # Each expansion term contributes its squared coefficient times the
            # variance of its moment combination; combo[i, j] pairs classes i, j.
            combo = (
                tt[:, None] * tt[None, :] - es[None] ** 2 * vs[:, None] - es[:, None] ** 2 * vs[None]
            )
            combo[np.arange(len(roots)), np.arange(len(roots))] = 0.0
            var = (
                (c * zni / eb**2) ** 2 * vs
                + ((2.0 * ea + eb) / eb**3) ** 2 * np.einsum("j,ijr->ir", c[:, 0] ** 2, combo)
                + (2.0 * c * zni / eb**3) ** 2 * (tt**2 - 4.0 * es**2 * vs)
            )
    dead = ea <= 0.0
    mean[dead] = 0.0
    var[dead] = 0.0
    return mean, var, log_t


def predictive_entropy(means) -> float:
    """Entropy of the class posterior after clamping and renormalization."""
    m = np.asarray(means, dtype=np.float64)
    if np.any(m < 0.0):
        raise ValueError("posterior means must be nonnegative")
    if float(m.sum()) <= 0.0:
        raise ValueError("all posterior means are zero")
    return float(predictive_entropy_batch(m[None, :])[0])


def predictive_entropy_batch(means: np.ndarray) -> np.ndarray:
    """Row-wise predictive entropy for an array of posterior means."""
    m = np.asarray(means, dtype=np.float64)
    m = np.clip(m, ENTROPY_CLAMP, 1.0)
    m = m / m.sum(axis=1, keepdims=True)
    return -(m * np.log(m)).sum(axis=1)


# ---------------------------------------------------------------------------
# Moment dumps (debug/test interchange format)


def write_moment_csv(frame: MomentFrame, nodes_path, cov_path) -> None:
    """Write node moments and materialized covariances as two CSV files."""
    circuit = frame.circuit
    with open(nodes_path, "w") as fh:
        fh.write("node_id,kind,expectation,variance\n")
        for i, node in enumerate(circuit.nodes):
            e = math.exp(frame.log_expectation[i]) if frame.log_expectation[i] > _NEG_INF else 0.0
            v = math.exp(frame.log_variance[i]) if frame.log_variance[i] > _NEG_INF else 0.0
            fh.write(f"{i},{node.kind},{e:.17g},{v:.17g}\n")
    with open(cov_path, "w") as fh:
        fh.write("node_a,node_b,cov\n")
        for (a, b), c in sorted(frame.sibling_cov.items()):
            fh.write(f"{a},{b},{c.to_float():.17g}\n")
