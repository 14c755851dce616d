"""Closed-form dropout moments in a single bottom-up pass.

Dropping each sum-node edge independently with probability p turns every node
value into a random variable.  Expectations, variances, and sibling
covariances of those values propagate bottom-up through the circuit in closed
form, so the model uncertainty at the roots costs one traversal instead of
many stochastic forward passes.

Moments are stored in log space as log magnitudes, because deep circuits
underflow linear doubles long before they get interesting.  Covariances are
log magnitudes too: every node value is a polynomial in the keep bits with
nonnegative coefficients, so it never decreases when a bit turns on, and by
Harris's inequality no two node values have a negative covariance.  The
pass runs on the circuit's layer plan: each group of sums that shares a
child list mixes its children's moments in linear space as matrix products,
shifted per group and row by the largest child moment, and each group of
products combines its factors over their outer product.  Each sum group
mixes its children's moments from their factors' moments, each factor
shifted by its own largest one, without making the children's moments
where they are fused products (:func:`_factor_terms`).

Two strategies handle the covariance between siblings:

* ``TREE_ZERO`` ignores sibling covariances.  Exact on tree circuits; on a
  DAG it is exactly the moments of the circuit with every shared child
  duplicated per parent path (each duplicate drawing fresh dropout masks).
* ``RAT_EXACT`` resolves covariances exactly from the circuit's own
  structure (:func:`_pair_cov`).  Every pair of a binary RAT region graph
  resolves; elsewhere a pair that no rule covers raises StructureError.

The class posterior moments are one Taylor expansion over (nodes, rows)
moment arrays.  The single-row call is the batch call on a batch of one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import (BATCH_ROWS, Circuit, ProductLayer, _log_mixed, as_batch, as_evidence,
                      factor_shifts, factored_exp, gathered_factors, log_shifted, logsumexp,
                      logsumexp_axis0, mix, step_inputs)
from .errors import ShapeError, StructureError, UnderflowError

_NEG_INF = float("-inf")

ENTROPY_CLAMP = 1e-12


class CovarianceStrategy(enum.Enum):
    TREE_ZERO = "tree_zero"
    RAT_EXACT = "rat_exact"


class TaylorMethod(enum.Enum):
    SIMPLE = "simple"
    EXTENDED = "extended"


@dataclass(frozen=True)
class DropoutConfig:
    """Dropout probability and sibling-covariance strategy.

    The keep probability q is the stored quantity and p is derived as 1 - q,
    so p + q == 1 holds exactly in floating point.  Every sum edge, the class
    roots' included, keeps its child with probability q, which must lie in
    (0, 1]: p in [0, 1).
    """

    q: float
    covariance_strategy: CovarianceStrategy = CovarianceStrategy.TREE_ZERO

    def __post_init__(self) -> None:
        if not (0.0 < self.q <= 1.0):
            raise ValueError(f"dropout probability p must be in [0, 1), got p = {self.p}")

    @staticmethod
    def with_p(
        p: float,
        covariance_strategy: CovarianceStrategy = CovarianceStrategy.TREE_ZERO,
    ) -> "DropoutConfig":
        return DropoutConfig(1.0 - p, covariance_strategy)

    @property
    def p(self) -> float:
        return 1.0 - self.q


@dataclass(frozen=True, slots=True)
class SignedLog:
    """A covariance as its sign, 0 or +1, and the log of its magnitude."""

    sign: int
    log_mag: float

    @staticmethod
    def zero() -> "SignedLog":
        return SignedLog(0, _NEG_INF)

    @staticmethod
    def from_log(log_mag: float) -> "SignedLog":
        """Wrap a log magnitude; -inf is zero."""
        return SignedLog.zero() if log_mag == _NEG_INF else SignedLog(1, log_mag)

    def to_float(self) -> float:
        return math.exp(self.log_mag) if self.sign else 0.0

    @property
    def is_zero(self) -> bool:
        return self.sign == 0


@dataclass
class MomentFrame:
    """Per-evaluation store of node moments in log space.

    ``log_expectation`` and ``log_variance`` are log magnitudes (the values
    themselves are nonnegative).  ``sibling_cov`` holds the log magnitudes of
    the covariances, -inf for zero, of node pairs that were materialized
    during the pass: pairs sharing a parent, plus the pairs below them that
    RAT_EXACT resolves recursively (:func:`_pair_cov`).
    """

    circuit: Circuit
    config: DropoutConfig
    log_expectation: np.ndarray
    log_variance: np.ndarray
    sibling_cov: dict[tuple[int, int], float] = field(default_factory=dict)

    def pair_cov(self, a: int, b: int) -> SignedLog:
        """Covariance of two arbitrary nodes under this frame's strategy."""
        return SignedLog.from_log(_pair_cov(self, a, b))


# ---------------------------------------------------------------------------
# The bottom-up pass


def tdi_pass(circuit: Circuit, evidence, config: DropoutConfig) -> MomentFrame:
    """One bottom-up pass filling expectation, variance, and covariances.

    Sum node:      E = q sum_i w_i E[N_i]
                   Var = q sum_i w_i^2 (Var[N_i] + p E[N_i]^2)
                         + q^2 sum_{i != j} w_i w_j Cov[N_i, N_j]
    Product node:  E = prod_i E[N_i]
                   Var = prod_i (Var[N_i] + E[N_i]^2) - prod_i E[N_i]^2
    Leaf:          E = leaf value, Var = 0.

    Every sum node, the class roots included, keeps each edge with the one
    probability q = ``config.q``.  The row runs through the batch moment pass
    as a batch of one.  The covariance term follows the configured strategy:
    RAT_EXACT adds it to each sum layer before the next layer reads it, at
    most quadratic in local fan-in, and raises StructureError where the
    circuit's structure cannot resolve a pair (:func:`_pair_cov`);
    TREE_ZERO leaves it out.
    """
    values = as_evidence(evidence, circuit.num_variables)
    exact = config.covariance_strategy is CovarianceStrategy.RAT_EXACT
    frame = MomentFrame(circuit, config, np.empty(0), np.empty(0))
    log_e, log_v = _moment_pass(circuit, values[None, :], config, frame if exact else None)
    frame.log_expectation, frame.log_variance = log_e[:, 0], log_v[:, 0]
    return frame


def tdi_pass_batch(circuit: Circuit, X: np.ndarray, config: DropoutConfig, nodes=None):
    """Log expectation and log variance of ``nodes`` for a batch of rows; by
    default every node, in node order.

    Covers TREE_ZERO, the strategy that drops sibling covariances.  Returns
    two (len(nodes), rows) arrays.
    """
    if config.covariance_strategy is CovarianceStrategy.RAT_EXACT:
        raise StructureError("the batch pass supports zero-covariance strategies only")
    return _moment_pass(circuit, as_batch(X, circuit.num_variables), config, nodes=nodes)


def _moment_pass(circuit, X, config, exact_frame=None, nodes=None):
    """Log expectation and zero-covariance log variance of ``nodes`` (every
    node, in node order, by default), from one loop over the circuit's layers.

    The pass holds node moments in the layout's slot order, reads each
    layer's inputs through its views and writes each layer as one slice;
    the arrays and views come from :meth:`Layout.prepared` and
    :meth:`Layout.pass_steps`.  Each sum layer's step mixes each block's
    products from their factors (:func:`_factor_terms`): a fused product
    layer's, which runs inside it (:meth:`Layout.steps`), or its children
    as products of one factor.  A request for more than the roots then
    also writes a fused layer's moments into its slots
    (:func:`_product_moments`).  Given the one-row RAT_EXACT
    ``exact_frame``, the sibling covariances are added to each sum layer's
    variances in place, before the next layer reads them
    (:func:`_add_sum_covariances`).
    """
    plan = circuit.plan()
    layout = plan.layout
    rows = X.shape[0]
    roots_only = nodes is circuit.roots
    key = ("moments", rows, roots_only)
    prepared = layout.prepared(key, rows, 2, lambda log_e, log_v: layout.pass_steps(
        (log_e, log_v), roots_only))
    log_e, log_v = prepared.arrays
    log_v[: layout.num_leaves] = _NEG_INF  # every layer writes its own slots
    plan.leaf_log_values(X, log_e)
    log_q, p = np.log(config.q), config.p
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k, layer, blocks in prepared.steps:
            # a layer whose inputs are invariant slots reads no variance
            constant = layout.narrow[k] if layer.kind == "sum" else layer.start < layout.invariant
            lw, w, w2 = plan.log_weights[k], plan.weights[k], plan.squared_weights[k]
            for b, products, factors, made, children, out in blocks:
                if children is None:  # a product layer's own step
                    _product_moments(products, *step_inputs(factors), made, constant)
                    continue
                ce, cv = step_inputs(factors)
                _sum_moments(w[b], lw[b], log_q, p, out,
                             *_factor_terms(w2[b], products, ce, cv, children, p, constant))
                if made is not None:  # over the linear values, which are mixed
                    _product_moments(products, ce.swapaxes(0, 1), cv.swapaxes(0, 1), made,
                                     constant)
            if exact_frame is not None and lw is not None:
                _add_sum_covariances(exact_frame, layer, log_q, log_e, log_v)
    return layout.finish(key, prepared, nodes, roots_only)


def _product_moments(layer, ce: list, cv: list, out, constant: bool) -> None:
    """log E and log Var of a block of product groups of independent factors,
    written into the pair of (groups, products, rows) arrays ``out``.

    Takes each factor's (groups, S_f, rows) moments.  Var = prod(E^2)
    (prod(1 + r_f) - 1) with r_f = Var_f / E_f^2, and the bracket accumulates
    over the outer product as acc + r_f (1 + acc), which cannot cancel.
    Node values are nonnegative, so a factor whose mean is zero is zero under
    every mask: there the product is zero, with zero variance, and r_f is NaN.
    ``constant`` factors, the layout's invariant slots, have no variance,
    and neither has their product; factors whose variances are all zero for
    another reason get the same -inf from the general path.
    """
    log_e, log_v = out
    layer.outer(ce, out=log_e)
    if constant:
        log_v[...] = _NEG_INF
        return
    r = [np.exp(v - 2.0 * e) for e, v in zip(ce, cv)]
    acc = layer.outer(r, lambda acc, rf: acc + rf * (1.0 + acc))
    np.add(2.0 * log_e, np.log(acc), out=log_v)
    log_v[log_e == _NEG_INF] = _NEG_INF


def _factor_terms(w2, products, ce, cv, lin, p, constant: bool):
    """:func:`_sum_moments`' terms of a block of sum groups whose children
    are whole groups of ``products``, from the factors' stacked (groups, F,
    S, rows) moments ``ce`` and ``cv``, without the products' moments.  A
    sum layer over no fused layer reads its children as products of one
    factor (:attr:`circuq.circuit.Layout.mixes`): F = 1 and S = K.

    The mean's terms are the forward's (:func:`circuq.circuit.factored_exp`),
    made in ``lin[0]``.  For the variance, each factor f is shifted per
    group and row by t_f, the larger of its largest log Var_f and twice its
    largest log E_f, into alpha_f = E_f^2 e^-t_f and beta_f = Var_f e^-t_f.
    A product's Var + p E^2 is then e^(t_1 + ... + t_F) (B_F + p A_F), where
    A_1 = alpha_1, B_1 = beta_1, A_f = A_{f-1} o alpha_f and B_f = B_{f-1} o
    (alpha_f + beta_f) + A_{f-1} o beta_f over the outer product; for two
    factors, alpha_L o (beta_R + p alpha_R) + beta_L o (alpha_R + beta_R).
    Every term is nonnegative, so nothing cancels.  It is made in ``lin[1]``
    under the sum group's common shift (:func:`circuq.circuit.factor_shifts`)
    and mixed by the squared weights.  ``constant`` factors have no
    variance: their beta is 0, and the terms that carry it are left out,
    which gives the general path's bits.
    """
    me, a, s = factored_exp(ce, lin[0])
    out = lin[1]
    t = 2.0 * s
    if not constant:
        mv = cv.max(axis=2, keepdims=True)
        t = np.maximum(mv, t)
    sv, top = factor_shifts(t, len(out))
    alpha = np.subtract(2.0 * ce, top)
    np.exp(alpha, out=alpha)
    last = alpha[:, -1] * p
    if constant:
        ProductLayer.outer([*alpha[:, :-1].swapaxes(0, 1), last], np.multiply, out=out)
    else:
        beta = np.subtract(cv, top)
        np.exp(beta, out=beta)
        both = alpha + beta
        head, tail = alpha[:, 0], beta[:, 0]  # A_f and B_f
        for f in range(1, ce.shape[1] - 1):
            head, tail = (ProductLayer.outer([head, alpha[:, f]], np.multiply),
                          ProductLayer.outer([tail, both[:, f]], np.multiply)
                          + ProductLayer.outer([head, beta[:, f]], np.multiply))
        last += beta[:, -1]
        if ce.shape[1] == 1:
            out.reshape(last.shape)[...] = last
        else:
            ProductLayer.outer([head, last], np.multiply, out=out)
            out.reshape(len(ce), -1, out.shape[-1])[...] += ProductLayer.outer(
                [tail, both[:, -1]], np.multiply)
    per_sum = len(ce) // len(out)

    def has_var():
        some = (mv > _NEG_INF).any(axis=1) & (t.sum(axis=1) > _NEG_INF)
        return some if per_sum == 1 else some.reshape(len(out), per_sum, 1, -1).any(axis=1)

    def children(g, c):
        """The flagged entries' (entries, K) child moments, made from their
        factors as the products' own slots are."""
        shape = (len(g) * per_sum, products.nodes.shape[1], 1)
        made = np.empty(shape), np.empty(shape)
        _product_moments(products, gathered_factors(ce, per_sum, g, c),
                         gathered_factors(cv, per_sum, g, c), made, constant)
        return tuple(m.reshape(len(g), -1) for m in made)

    return (me, me, a, mix(w2, out), sv,
            (lambda: False) if constant else has_var, children)


def _sum_moments(w, lw, log_q, p, out, me, se, a, var, sv, has_var, children) -> None:
    """log E and zero-covariance log Var of a block of sum groups, written
    into the pair of (g, S, rows) arrays ``out``.

    E = q W E_k and Var = q (W o W) (Var_k + p E_k^2), from the plan's
    weights ``w`` and their logs ``lw``, and the terms of the children's
    moments that :func:`_factor_terms` makes: the mean's (me, se, a) as
    :func:`circuq.circuit.factored_exp` gives them, the variance, one
    (W o W) mix in linear space, under its shift ``sv``, whether any
    child has a variance, and ``children(g, c)``, the (entries, K) child
    moments of groups g in columns c.  E / q is the forward pass's mix of
    the child means (:func:`circuq.circuit._log_mixed`).  Entries of Var
    that flush to zero or a subnormal are recomputed exactly from the child
    moments (:func:`log_shifted`).  At p = 0 with zero child variances Var
    is exactly 0.
    """
    log_e = _log_mixed(w, lw, me, se, a, lambda g, c: children(g, c)[0])

    def log_terms(g, s, c):
        ce, cv = children(g, c)
        return np.concatenate([2.0 * lw[g, s] + cv, np.log(p) + 2.0 * (lw[g, s] + ce)], axis=1)

    log_var = log_shifted(var, sv, lambda: has_var() | ((p > 0.0) & (me > _NEG_INF)), log_terms)
    np.add(log_q, log_e, out=out[0])
    np.add(log_q, log_var, out=out[1])


def _add_sum_covariances(frame: MomentFrame, layer, log_q, log_e, log_v) -> None:
    """Add 2 q^2 sum_{i < j} w_i w_j Cov[N_i, N_j] to each sum node's variance.

    ``log_q`` is log q; ``log_e`` and ``log_v`` are the pass's slot-order
    arrays, and the frame reads node-order copies of the moments of the
    layers below.  Every term is nonnegative, so the sum stays in log space.
    """
    slot = frame.circuit.layout().slot
    frame.log_expectation, frame.log_variance = log_e[slot, 0], log_v[slot, 0]
    for k, i in zip(range(layer.start, layer.start + layer.nodes.size),
                    layer.nodes.ravel().tolist()):
        node = frame.circuit.nodes[i]
        kids, weights = node.children, node.log_weights
        cov_term = _NEG_INF
        for a in range(len(kids)):
            for b in range(a + 1, len(kids)):
                c = _pair_cov(frame, kids[a], kids[b]) + float(weights[a] + weights[b])
                cov_term = _log_add(cov_term, c)
        log_v[k, 0] = _log_add(float(log_v[k, 0]), cov_term + (2.0 * log_q + math.log(2.0)))


def _log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b)), the larger operand first; -inf is zero."""
    if a < b:
        a, b = b, a
    if b == _NEG_INF:
        return a
    return a + math.log1p(math.exp(b - a))


# ---------------------------------------------------------------------------
# Pairwise covariances


def _pair_cov(frame: MomentFrame, a: int, b: int) -> float:
    """log Cov[a, b], -inf for zero.

    RAT_EXACT decides a pair of nodes with variance and overlapping scopes
    from the circuit's structure (:attr:`Layout.regions`): nodes of two
    components share no descendant, so they are independent; two sums over
    one set of children expand bilinearly (:func:`_sum_sum_cov`); two
    products split into their factors (:func:`_product_product_cov`).  Any
    other pair raises StructureError.  The bilinear expansion is wrong where
    one sum is the other's ancestor, since the lower sum's keep bits then lie
    inside the upper sum's children; two sums over one set of children cannot
    be that.
    """
    if a == b:
        return float(frame.log_variance[a])
    key = (a, b) if a < b else (b, a)
    cached = frame.sibling_cov.get(key)
    if cached is not None:
        return cached
    scopes = frame.circuit.scopes()
    if frame.log_variance[a] == _NEG_INF or frame.log_variance[b] == _NEG_INF:
        result = _NEG_INF  # Cauchy-Schwarz: zero variance forces zero covariance
    elif scopes[a] & scopes[b] == 0:
        result = _NEG_INF  # disjoint scopes share no descendants
    elif frame.config.covariance_strategy is not CovarianceStrategy.RAT_EXACT:
        result = _NEG_INF  # TREE_ZERO: distinct nodes are uncorrelated
    else:
        component, group = frame.circuit.layout().regions
        ca, cb = component[a], component[b]
        if ca != cb and ca >= 0 and cb >= 0:
            result = _NEG_INF
        elif group[a] >= 0 and group[a] == group[b]:
            result = _sum_sum_cov(frame, a, b)
        elif frame.circuit.nodes[a].kind == frame.circuit.nodes[b].kind == "product":
            result = _product_product_cov(frame, a, b)
        else:
            kinds = frame.circuit.nodes[a].kind, frame.circuit.nodes[b].kind
            raise StructureError(
                f"covariance between nodes {a} ({kinds[0]}) and {b} ({kinds[1]}) is not "
                "resolvable: they may share a descendant, and are neither two sums over "
                "one set of children nor two products")
    frame.sibling_cov[key] = result
    return result


def _sum_sum_cov(frame: MomentFrame, a: int, b: int) -> float:
    """log Cov of two sum nodes: q^2 sum_i sum_j w_i^A w_j^B Cov[N_i^A, N_j^B]."""
    na, nb = frame.circuit.nodes[a], frame.circuit.nodes[b]
    qq = frame.config.q * frame.config.q
    log_qq = math.log(qq) if qq > 0 else _NEG_INF
    terms = []
    for wi, ci in zip(na.log_weights, na.children):
        for wj, cj in zip(nb.log_weights, nb.children):
            c = _pair_cov(frame, ci, cj) + float(wi + wj)
            if c > _NEG_INF:
                terms.append(c)
    return logsumexp(np.array(terms)) + log_qq


def _product_product_cov(frame: MomentFrame, a: int, b: int) -> float:
    """log Cov of two binary partition-aligned products, via their factors:

    Cov[P_lr, P_l'r'] = Cov[L_l, L_l'] E[R_r] E[R_r']
                        + Cov[R_r, R_r'] E[L_l] E[L_l']
                        + Cov[L_l, L_l'] Cov[R_r, R_r']

    The factors of two partition-aligned products split into two scopes that
    share no variable, so (L_l, L_l') is independent of (R_r, R_r').  A
    product that is not binary, or whose factors' scopes differ from its
    partner's, raises StructureError.
    """
    circuit = frame.circuit
    for node_id in (a, b):
        if len(circuit.nodes[node_id].children) != 2:
            raise StructureError(f"node {node_id} is not a binary product")
    la, ra = circuit.nodes[a].children
    lb, rb = circuit.nodes[b].children
    scopes = circuit.scopes()
    if scopes[la] != scopes[lb] or scopes[ra] != scopes[rb]:
        raise StructureError(f"products {a} and {b} are not partition-aligned")
    cov_l = _pair_cov(frame, la, lb)
    cov_r = _pair_cov(frame, ra, rb)
    le = frame.log_expectation
    term1 = cov_l + float(le[ra] + le[rb])
    term2 = cov_r + float(le[la] + le[lb])
    return _log_add(_log_add(term1, term2), cov_l + cov_r)


# ---------------------------------------------------------------------------
# Posterior classification moments


@dataclass
class PosteriorMoments:
    """Approximate moments of the class posterior under dropout, for one row,
    or for a batch with a leading row axis on every field."""

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
    """Taylor-approximated mean and variance of each class posterior for one
    row: :func:`posterior_summary_batch` on a batch of one.
    """
    x = as_evidence(evidence, circuit.num_variables)
    _need_classes(circuit)
    raw, var, _ = _posterior_moments(circuit, x[None, :], config, method)
    mean, std, entropy, normalized = _summary(circuit, raw, var)
    return PosteriorMoments(
        mean=mean[0],
        variance=var[0],
        std=std[0],
        entropy=float(entropy[0]),
        normalized_entropy=float(normalized[0]),
        metadata={"method": method.value, "raw_mean": raw[0]},
    )


def posterior_summary_batch(
    circuit: Circuit,
    X: np.ndarray,
    config: DropoutConfig,
    method: TaylorMethod = TaylorMethod.SIMPLE,
    *,
    first_frame: bool = False,
) -> PosteriorMoments:
    """:func:`posterior_moments_batch` summarized per row: the means clamped
    to [0, 1], their stds, and the predictive entropy of the clamped means,
    raw and over ln C.  ``metadata`` holds the ``method`` and the unclamped
    ``raw_mean``, and with ``first_frame`` also the first row's
    :class:`MomentFrame` (``"first_frame"``), the one :func:`tdi_pass` gives,
    taken from the posterior's own pass.

    The entropy is :func:`predictive_entropy_batch`'s, so a row whose clamped
    means are all zero gets the uniform entropy ln C.
    """
    metadata = {"method": method.value}
    if first_frame:
        _need_classes(circuit)
        X = as_batch(X, circuit.num_variables)
        if not len(X):
            raise ShapeError("the first row's moment frame needs a row")
        raw, var, metadata["first_frame"] = _posterior_moments(circuit, X, config, method, True)
    else:
        raw, var = posterior_moments_batch(circuit, X, config, method)
    metadata["raw_mean"] = raw
    mean, std, entropy, normalized = _summary(circuit, raw, var)
    return PosteriorMoments(mean=mean, variance=var, std=std, entropy=entropy,
                            normalized_entropy=normalized, metadata=metadata)


def _summary(circuit: Circuit, raw: np.ndarray, var: np.ndarray):
    """The clamped means, stds, entropies and entropies over ln C of the
    (rows, classes) raw means and variances."""
    mean = raw.clip(0.0, 1.0)
    entropy = predictive_entropy_batch(mean)
    return mean, np.sqrt(var), entropy, entropy / math.log(circuit.num_classes)


def posterior_moments_batch(
    circuit: Circuit,
    X: np.ndarray,
    config: DropoutConfig,
    method: TaylorMethod = TaylorMethod.SIMPLE,
):
    """Taylor-approximated posterior means and variances for a batch, shape
    (rows, classes) each.

    With A = S_i c_i for class i and B = sum_j S_j c_j, the ratio moments are

        E[A/B]   ~= E[A]/E[B] - Cov[A,B]/E[B]^2 + Var[B] E[A]/E[B]^3
        Var[A/B] ~= (E[A]/E[B])^2 (Var[A]/E[A]^2 - 2 Cov[A,B]/(E[A]E[B])
                                   + Var[B]/E[B]^2)

    for the SIMPLE method.  The mean is the full second-order expansion of
    E[A/B], so both methods share it.  EXTENDED's variance additionally
    carries cross terms for the dependence between a root and the sum of all
    roots; its product-variance term uses the crude local-independence
    shortcut Var[XY] = Var[X] Var[Y].

    Rows run BATCH_ROWS at a time.  Zero-covariance strategies take the
    vectorized pass, which hands back only the roots' rows (every node's for
    EXTENDED, which reads the root heads' children); RAT_EXACT runs the
    per-row pass, which also yields the covariances between class roots.
    Means are returned unclamped.
    """
    _need_classes(circuit)
    return _posterior_moments(circuit, as_batch(X, circuit.num_variables), config, method)[:2]


def _need_classes(circuit: Circuit) -> None:
    if circuit.num_classes < 2:
        raise StructureError("posterior moments need at least two class roots")


def _posterior_moments(circuit: Circuit, X: np.ndarray, config: DropoutConfig,
                       method: TaylorMethod, first_frame: bool = False):
    """:func:`posterior_moments_batch` on a checked (rows, variables) batch,
    and with ``first_frame`` the first row's :class:`MomentFrame` (else
    None): RAT_EXACT's own, or else the first chunk's pass asks for every
    node, whose root rows are the roots-only pass's bits, and its first
    column is that row's pass, a row being a batch of one."""
    C, rows = circuit.num_classes, X.shape[0]
    roots = circuit.roots
    mean, var = np.empty((rows, C)), np.empty((rows, C))
    first = None
    for s in range(0, rows, BATCH_ROWS):
        chunk = X[s : s + BATCH_ROWS]
        n = chunk.shape[0]
        root_cov = None  # zero, unless RAT_EXACT resolves it
        log_v = None  # every node's log variance, where EXTENDED needs it
        if config.covariance_strategy is CovarianceStrategy.RAT_EXACT:
            log_e = np.empty((len(circuit.layout().order), n))
            log_v = np.empty_like(log_e)
            root_cov = np.empty((C, C, n))
            for r in range(n):
                frame = tdi_pass(circuit, chunk[r], config)
                log_e[:, r] = frame.log_expectation
                log_v[:, r] = frame.log_variance
                root_cov[:, :, r] = _root_cov(frame)
                first = frame if first_frame and first is None else first
            root_e, root_v = log_e[roots], log_v[roots]
        elif method is TaylorMethod.EXTENDED or (first_frame and s == 0):
            log_e, log_v = tdi_pass_batch(circuit, chunk, config)
            root_e, root_v = log_e[roots], log_v[roots]
            if first_frame and s == 0:
                first = MomentFrame(circuit, config, log_e[:, 0].copy(), log_v[:, 0].copy())
        else:
            root_e, root_v = tdi_pass_batch(circuit, chunk, config, nodes=roots)
        m, v = _taylor(circuit, root_e, root_v, root_cov, method, first_row=s, log_v=log_v)
        log_e = log_v = None  # free this chunk's node moments before the next chunk's pass
        mean[s : s + n] = m.T
        var[s : s + n] = np.maximum(v.T, 0.0)
    return mean, var, first


def _root_shift(root_e: np.ndarray, log_c: np.ndarray, first_row: int = 0) -> np.ndarray:
    """Per-row max_i log E[A_i], the scale every Taylor term is shifted by,
    from the roots' (C, rows) log expectations and the (C, 1) log priors."""
    shift = (root_e + log_c).max(axis=0)
    dead = np.isneginf(shift)
    if dead.any():
        idx = first_row + int(np.flatnonzero(dead)[0])
        raise UnderflowError(
            f"all class likelihoods vanished for row {idx}; the posterior "
            "denominator is zero"
        )
    return shift


def _root_cov(frame: MomentFrame) -> np.ndarray:
    """Cov[S_i, S_j] between distinct class roots of one frame, shape (C, C).

    Linear and scaled by exp(-2 shift), the units :func:`_taylor` expects.
    Called on RAT_EXACT frames; TREE_ZERO takes these as zero.
    """
    roots = frame.circuit.roots
    C = len(roots)
    cov = np.zeros((C, C))
    # exp(-2 shift); a frame whose roots all vanish has zero covariances here
    # and fails in _taylor with its row number
    log_c = np.asarray(frame.circuit.log_class_priors, dtype=np.float64)
    log_scale = -2.0 * float(np.max(frame.log_expectation[roots] + log_c))
    for i in range(C):
        for j in range(i + 1, C):
            c = _pair_cov(frame, roots[i], roots[j]) + log_scale
            cov[i, j] = cov[j, i] = math.exp(c) if c > _NEG_INF else 0.0
    return cov


def _taylor(circuit, root_e, root_v, root_cov, method, first_row=0, log_v=None):
    """Taylor moments of the class posteriors A_i / B for every row.

    ``root_e`` and ``root_v`` are the roots' (C, rows) log moments, and
    ``log_v`` is every node's (nodes, rows) log variance in node order, which
    only EXTENDED reads, at the root heads' children.  ``root_cov`` is the
    (C, C, rows) linear covariance between distinct roots, zero on its
    diagonal, scaled like the variances, or None where it is zero.  Each
    Taylor term is a degree-zero ratio of moments, so shifting every moment
    by its degree in the per-row scale max_i log E[A_i] keeps the arithmetic
    linear and in float range.

    SIMPLE writes its variance as (Var[A_i] - 2 t_i Cov[A_i,B] + t_i^2 Var[B])
    / E[B]^2 with t_i = E[A_i]/E[B], the docstring formula of
    :func:`posterior_moments_batch` without the division by E[A_i].  EXTENDED
    keeps the mean and adds dependence terms to the variance.  Returns the
    (C, rows) means and variances.  Classes with E[A_i] = 0 get zeros.  Errors
    number rows from ``first_row``.
    """
    roots = circuit.roots
    log_c = np.asarray(circuit.log_class_priors, dtype=np.float64)[:, None]
    c = np.exp(log_c)
    shift = _root_shift(root_e, log_c, first_row)
    les = root_e - shift  # E[S_i], shifted
    lvs = root_v - 2.0 * shift  # Var[S_i], shifted
    ea = np.exp(les + log_c)  # E[A_i]
    va = np.exp(lvs + 2.0 * log_c)  # Var[A_i]
    eb = ea.sum(axis=0)  # at least 1: the shift makes the largest E[A_i] 1
    eb2 = eb**2
    cov_ab = va  # Cov[A_i, B]
    if root_cov is not None:
        ck = np.einsum("j,ijr->ir", c[:, 0], root_cov)  # sum_j c_j Cov[S_i, S_j]
        cov_ab = va + c * ck
    # Var[B] needs no clamp: va is an exp, and root_cov is zero or an exp
    var_b = cov_ab.sum(axis=0)
    t = ea / eb
    mean = t - cov_ab / eb2 + t * var_b / eb2
    if method is TaylorMethod.SIMPLE:
        var = (va - 2.0 * t * cov_ab + t * t * var_b) / eb2
    else:
        # Var[S_i S_j] is expanded over the root sum nodes' children as
        # sum_{k,l} (w_k w_l)^2 Var[N_k] Var[N_l], which factors into
        # T_i T_j with T_i = sum_k w_k^2 Var[N_k]; non-sum roots fall back
        # to T_i = Var[S_i].
        log_t = lvs.copy()
        with np.errstate(divide="ignore"):
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
            (c * zni / eb2) ** 2 * vs
            + ((2.0 * ea + eb) / eb**3) ** 2 * np.einsum("j,ijr->ir", c[:, 0] ** 2, combo)
            + (2.0 * c * zni / eb**3) ** 2 * (tt**2 - 4.0 * es**2 * vs)
        )
    dead = ea <= 0.0
    mean[dead] = 0.0
    var[dead] = 0.0
    return mean, var


def predictive_entropy_batch(means: np.ndarray) -> np.ndarray:
    """Row-wise predictive entropy for an array of posterior means."""
    m = np.asarray(means, dtype=np.float64)
    m = m.clip(ENTROPY_CLAMP, 1.0)
    m = m / m.sum(axis=1, keepdims=True)
    return -(m * np.log(m)).sum(axis=1)


# ---------------------------------------------------------------------------
# Moment dumps (debug/test interchange format)


def write_moment_csv(frame: MomentFrame, nodes_path, cov_path) -> None:
    """Write node moments and materialized covariances as two CSV files.

    The covariances between class roots, which the posterior reads, are
    materialized first, so every strategy's dump holds them.
    """
    circuit = frame.circuit
    for i, a in enumerate(circuit.roots):
        for b in circuit.roots[i + 1 :]:
            frame.pair_cov(a, b)
    with open(nodes_path, "w") as fh:
        fh.write("node_id,kind,expectation,variance\n")
        for i, node in enumerate(circuit.nodes):
            e = math.exp(frame.log_expectation[i]) if frame.log_expectation[i] > _NEG_INF else 0.0
            v = math.exp(frame.log_variance[i]) if frame.log_variance[i] > _NEG_INF else 0.0
            fh.write(f"{i},{node.kind},{e:.17g},{v:.17g}\n")
    with open(cov_path, "w") as fh:
        fh.write("node_a,node_b,cov\n")
        for (a, b), c in sorted(frame.sibling_cov.items()):
            fh.write(f"{a},{b},{math.exp(c) if c > _NEG_INF else 0.0:.17g}\n")
