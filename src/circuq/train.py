"""Discriminative training of sum weights and Gaussian leaf parameters.

The objective is the class-conditional log likelihood of the head attributed
to each observed label: loss = -(1/B) sum_b log S_{y_b}(x_b).  A conventional
cross-entropy objective over the Bayes posterior is available behind a flag.

Gradients come from one reverse pass that walks the forward pass's steps
backwards (linear in edges), through each sum block's transposed matrix
products under the forward's shift and each product group's outer-product
axes.  The two products per sum block run on BLAS, in row chunks small
enough that OpenBLAS keeps them on its calling thread; so a gradient's bits,
unlike the forward's values, may change with the batch width.  Sum weights
are parameterized as unconstrained logits mapped through a per-node
log-softmax, so every update lands back on the weight simplex by
construction.  Parameters live in one flat vector θ laid out as the plan's
arrays: each sum layer's (G, S, K) logits in plan order, then the Gaussian
means, then their log stds.  Applying θ reshapes its slices into the plan's
parameter arrays, not nodes, and the reverse pass writes each layer's
gradient into the same slice of the gradient vector.  Training touches
parameters only.

The forward pass is the roots-only pass that inference runs
(:func:`circuq.circuit.forward_pass`): a (nodes, rows) array in the layout's
slot order (:class:`circuq.circuit.Layout`) that holds every node's log
value except those of the fused product layers, which no step writes.  The
adjoints are an array of the same order.  Each sum block remakes its
shifted linear children from their factors
(:func:`circuq.circuit.factored_exp`), as the forward mixed them, and their
adjoints go through :meth:`circuq.circuit.ProductLayer.factor_sums`
straight into the factors' slots: no fused product's log value is written,
exponentiated or given an adjoint.  Each layer reads its values and
adjoints as slices and its inputs through its slot views, and adds the
inputs' adjoints in place through them.  θ's order, the plan edge order,
does not depend on slots.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import (
    SHIFT_FLOOR,
    Circuit,
    Layout,
    _forward_layers,
    as_batch,
    factored_children,
    factored_exp,
    forward_pass,
    log_likelihood_batch,
    logsumexp_axis0,
    node_blocks,
    step_inputs,
)
from .errors import ParameterError, ShapeError

LOG_STD_CLAMP = 7.0  # keep sigma within e^[-7, 7] so densities cannot blow up

_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8  # Adam's usual moment decays and floor

_LOG_TINY = math.log(np.finfo(np.float64).tiny)  # below it a shifted mixture flushed

# Most multiply-adds (S * K * rows) per matrix product of the reverse pass.
# OpenBLAS hands larger products to its thread pool, whose wake-ups cost far
# more than a product this size takes on one thread; so the reverse pass
# splits a block's rows to keep every product within it.
_PRODUCT_MACS = 1 << 18

OPTIMIZERS = ("adam", "sgd")
OBJECTIVES = ("head", "cross_entropy")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 200
    learning_rate: float = 1e-3
    optimizer: str = "adam"  # one of OPTIMIZERS
    rng_seed: int = 0
    objective: str = "head"  # one of OBJECTIVES

    def check(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")


# ---------------------------------------------------------------------------
# Parameter vector layout


def _blocks(theta: np.ndarray, layout: Layout):
    """θ's blocks as views, in plan order: each sum layer's (G, S, K) logits
    (None for a product layer), then the Gaussian means, then their log stds."""
    logits, start = [], 0
    for layer in layout.layers:
        if layer.kind == "sum":
            size = math.prod(layer.shape)
            logits.append(theta[start : start + size].reshape(layer.shape))
            start += size
        else:
            logits.append(None)
    n = len(layout.leaves["gaussian"][0])
    return logits, theta[start : start + n], theta[start + n : start + 2 * n]


@dataclass
class ParameterSpace:
    """The trainable parameters of a circuit as one flat vector θ, laid out
    as the plan's arrays.

    θ holds each sum layer's (G, S, K) logits, the layers in the order of
    :attr:`Layout.sum_edge_order` (initialized to the current log weights,
    which already are normalized logits), then every Gaussian leaf's mean in
    the plan's leaf order, then their log stds.  Categorical leaves stay
    fixed.
    """

    circuit: Circuit

    @staticmethod
    def of(circuit: Circuit) -> "ParameterSpace":
        return ParameterSpace(circuit)

    @property
    def size(self) -> int:
        layout = self.circuit.layout()
        return layout.num_sum_edges + 2 * len(layout.leaves["gaussian"][0])

    def initial_vector(self) -> np.ndarray:
        plan = self.circuit.plan()
        logits = [lw.ravel() for lw in plan.log_weights if lw is not None]
        return np.concatenate(logits + [plan.mean, plan.log_std])

    def apply(self, theta: np.ndarray) -> Circuit:
        """A circuit with these parameters, sharing everything else.

        Builds only the plan's parameter arrays: one log-softmax per sum layer
        and one clip of the log stds, none of them a view of θ.  The circuit
        carries that plan, so its passes compile nothing, and its columns are
        derived from the plan on first read (:meth:`Circuit.with_plan`).
        Raises ParameterError for a non-finite leaf parameter.
        """
        plan = self.circuit.plan()
        logits, mean, log_std = _blocks(theta, plan.layout)
        log_weights = [None if lg is None
                       else lg - logsumexp_axis0(lg.transpose(2, 0, 1))[..., None]
                       for lg in logits]
        plan = dataclasses.replace(plan, log_weights=log_weights, mean=mean.copy(),
                                   log_std=np.clip(log_std, -LOG_STD_CLAMP, LOG_STD_CLAMP))
        return self.circuit.with_plan(plan)


# ---------------------------------------------------------------------------
# Loss and gradient


def loss_and_grad(
    circuit: Circuit,
    X: np.ndarray,
    labels: np.ndarray,
    objective: str = "head",
):
    """Mean negative log likelihood of the labeled heads, and its gradient.

    The gradient is taken at the circuit's current parameters, laid out as
    :class:`ParameterSpace`'s θ.  One forward and one reverse pass over the
    circuit's layers, both linear in the number of edges.  Raises ShapeError
    for labels that are not one class index per row (:func:`_class_labels`).
    """
    X = as_batch(X, circuit.num_variables)
    labels = _class_labels(labels, X.shape[0], circuit.num_classes)
    B = X.shape[0]
    plan = circuit.plan()
    layout = plan.layout
    key, prepared = forward_pass(layout, B, roots_only=True)
    (logv,), (_, prefix, rest) = prepared.arrays, prepared.steps
    steps = prefix + rest
    adjoint = layout.values(B)  # d loss / d log value per slot
    try:
        plan.leaf_log_values(X, logv)
        with np.errstate(divide="ignore"):
            _forward_layers(plan, steps)
        layout.finish(key, prepared, layout.order)  # lent until logv is given back
        loss, seed = _loss_seed(circuit, logv[layout.roots], labels, objective)

        start = 0  # the reverse reads every slot but those of fused products
        for layer, fused in zip(layout.layers, layout.fused):
            if fused:
                adjoint[start : layer.start] = 0.0
                start = layer.start + layer.nodes.size
        adjoint[start:] = 0.0
        np.add.at(adjoint, layout.roots, seed)
        grad = np.zeros(ParameterSpace(circuit).size)
        logits_grad, mean_grad, log_std_grad = _blocks(grad, layout)  # views that fill grad
        for k, layer, blocks in reversed(steps):
            for b, products, factors, _, children, (v,) in blocks:
                adj = layer.output(adjoint, b)
                if layer.kind == "product":
                    _add_factor_sums(layer, adjoint, b, adj)
                    continue
                x = step_inputs(factors)[0]
                m, lin, _ = factored_exp(x, children[0])
                logits_grad[k][b], part = _sum_reverse(
                    plan.weights[k][b], plan.log_weights[k][b], np.maximum(m, SHIFT_FLOOR), lin,
                    factored_children(x, len(lin)), v, adj)
                _add_factor_sums(products, adjoint, products.feeding(layer, b), part)
        _leaf_gradients(plan, X, adjoint[layout.leaf_slots("gaussian")], mean_grad, log_std_grad)
        return loss, grad
    finally:
        layout.spare.give(logv, adjoint)


def _class_labels(labels, rows: int, classes: int) -> np.ndarray:
    """``labels`` as one int64 class index per row.  Raises ShapeError for
    a count other than ``rows``, or naming the first row whose label is not
    a whole number in [0, classes): a fractional label is never truncated."""
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != (rows,):
        raise ShapeError(f"labels of shape {y.shape} for {rows} rows")
    bad = np.flatnonzero(~((y == np.floor(y)) & (y >= 0) & (y < classes)))
    if len(bad):
        raise ShapeError(f"label {y[bad[0]]:g} of row {bad[0]} is not a class index in "
                         f"[0, {classes})")
    return y.astype(np.int64)


def _loss_seed(circuit: Circuit, root_ll: np.ndarray, labels: np.ndarray, objective: str):
    """The loss and its (C, B) derivative by the class roots' log values
    ``root_ll``; raises ParameterError where the loss is not finite."""
    B = len(labels)
    rows = np.arange(B)
    if objective == "head":
        loss = float(-root_ll[labels, rows].mean())
        seed = np.zeros(root_ll.shape)
        seed[labels, rows] = -1.0 / B
    elif objective == "cross_entropy":
        joint = root_ll + np.asarray(circuit.log_class_priors)[:, None]
        lse = logsumexp_axis0(joint)
        loss = float(-(joint[labels, rows] - lse).mean())
        seed = np.exp(joint - lse[None, :]) / B
        seed[labels, rows] -= 1.0 / B
    else:
        raise ValueError(f"unknown objective {objective!r}")
    if not math.isfinite(loss):
        bad = int(np.flatnonzero(~np.isfinite(root_ll[labels, rows]))[0])
        raise ParameterError(f"non-finite loss; first offending sample index {bad}")
    return loss, seed


def _add_factor_sums(products, adjoint: np.ndarray, g: slice, adj: np.ndarray) -> None:
    """Add the adjoints ``adj`` of the product groups ``g`` to their
    factors' slots (:meth:`circuq.circuit.ProductLayer.factor_sums`)."""
    for read, part in zip(products.reads, products.factor_sums(adj)):
        read.add(adjoint, g, part, products.distinct)


def _leaf_gradients(plan, X: np.ndarray, leaf_adjoint: np.ndarray, mean_grad: np.ndarray,
                    log_std_grad: np.ndarray) -> None:
    """Write the Gaussian leaves' mean and log std gradients from their
    (leaves, rows) adjoints; categorical leaves carry no trainable
    parameters."""
    _, variables = plan.layout.leaves["gaussian"]
    values = np.ascontiguousarray(X.T)  # (variables, rows)
    for b in node_blocks(len(variables), 1, X.shape[0]):
        x = values[variables[b]]
        inv_std = plan.inv_std[b]
        u = x - plan.mean[b, None]
        u *= inv_std[:, None]
        adj = leaf_adjoint[b]
        # Only rows where the leaf is observed and the loss depends on it
        # contribute: elsewhere the derivative is 0, even where u * u overflows.
        # d log_std = sum adj (u^2 - 1) = sum (adj u) u - sum adj over those rows.
        used = ~np.isnan(x) & (adj != 0.0)
        adj_u = np.multiply(adj, u, out=np.zeros_like(adj), where=used)
        mean_grad[b] = adj_u.sum(axis=1) * inv_std
        np.multiply(adj_u, u, out=adj_u, where=used)
        log_std_grad[b] = adj_u.sum(axis=1) - adj.sum(axis=1, where=used)


def _sum_reverse(w, lw, shift, a, children, v, adj):
    """Logit gradients and child adjoints of a block of sum groups.

    Takes the (g, S, K) weights and their logs, the children's shift and
    shifted linear values a, the (shift, lin, children) of
    :func:`circuq.circuit._log_mixed` as the forward mixed them from the
    children's factors (:func:`circuq.circuit.factored_exp`), under their
    shift floored at SHIFT_FLOOR.  Then the sums' (g, S, rows) log values
    v and adjoints.  With A = adj exp(shift - v), the logit
    gradients are w o (A a^T) - w o sum_rows adj and the child adjoints
    a o (W^T A): per-group matrix products, taken by BLAS in row chunks of at
    most :data:`_PRODUCT_MACS` multiply-adds each.  Where the forward's
    shifted mixture flushed, A would overflow; there the edge shares
    exp(lw + x - v) are taken exactly from the (entries, K) child log
    values ``children(g, c)``, as :func:`circuq.circuit.log_shifted` takes
    the values.  A sum whose value is 0 passes nothing back.
    """
    w = np.ascontiguousarray(w)  # the plan's weights lie apart, which BLAS would not take
    flushed = v - shift < _LOG_TINY
    A = np.where(flushed, 0.0, adj * np.exp(np.minimum(shift - v, -_LOG_TINY)))
    _, S, K = w.shape
    step = max(1, _PRODUCT_MACS // (S * K))
    dots = np.zeros_like(w)
    part = np.empty_like(a)
    for start in range(0, a.shape[-1], step):
        rows = slice(start, start + step)
        dots += A[..., rows] @ a[..., rows].transpose(0, 2, 1)
        np.matmul(w.transpose(0, 2, 1), A[..., rows], out=part[..., rows])
    grad = w * (dots - adj.sum(axis=-1)[..., None])
    part *= a
    g, s, c = np.nonzero(flushed & (adj != 0.0) & (v > -np.inf))
    if len(g):
        share = adj[g, s, c, None] * np.exp(lw[g, s] + children(g, c) - v[g, s, c, None])
        np.add.at(grad, (g, s), share)
        np.add.at(part, (g[:, None], np.arange(a.shape[1]), c[:, None]), share)
    return grad, part


# ---------------------------------------------------------------------------
# Optimizers and the fit loop


@dataclass
class TrainHistory:
    epochs: list = field(default_factory=list)  # (epoch, loss, accuracy)
    aborted: bool = False
    abort_reason: str = ""

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("epoch,loss,accuracy\n")
            for epoch, loss, acc in self.epochs:
                fh.write(f"{epoch},{loss:.17g},{acc:.17g}\n")


def fit(
    circuit: Circuit,
    X: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig = TrainConfig(),
) -> tuple[Circuit, TrainHistory]:
    """Mini-batch gradient training; returns the trained circuit and history.

    Raises ValueError for an invalid config, and ShapeError for labels that
    are not one class index per row, before any pass.  Aborts on a
    non-finite loss, step or leaf parameter, returning the last finite state.
    Weights stay normalized because updates act on logits.
    """
    config.check()
    X = as_batch(X, circuit.num_variables)
    if X.shape[0] == 0:
        raise ShapeError("dataset is empty")
    labels = _class_labels(labels, X.shape[0], circuit.num_classes)
    space = ParameterSpace.of(circuit)
    layout = circuit.layout()
    theta = space.initial_vector()
    m = v = 0.0  # Adam's moment estimates, θ-sized after its first step
    step = 0
    rng = np.random.default_rng(config.rng_seed)
    history = TrainHistory()
    B = X.shape[0]
    batch = min(config.batch_size, B)

    current = space.apply(theta)
    last_good = theta.copy()
    for epoch in range(config.epochs):
        order = rng.permutation(B)
        losses = []
        try:
            for start in range(0, B, batch):
                idx = order[start : start + batch]
                loss, grad = loss_and_grad(current, X[idx], labels[idx], config.objective)
                losses.append(loss)
                with np.errstate(over="ignore", invalid="ignore"):  # checked below
                    if config.optimizer == "sgd":
                        theta = theta - config.learning_rate * grad
                    else:
                        step += 1
                        m = _BETA1 * m + (1.0 - _BETA1) * grad
                        v = _BETA2 * v + (1.0 - _BETA2) * grad * grad
                        m_hat = m / (1.0 - _BETA1**step)
                        v_hat = v / (1.0 - _BETA2**step)
                        theta = theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + _EPSILON)
                if not np.all(np.isfinite(theta)):
                    raise ParameterError("non-finite parameter after an optimizer step")
                log_std = _blocks(theta, layout)[2]
                np.clip(log_std, -LOG_STD_CLAMP, LOG_STD_CLAMP, out=log_std)
                # raises ParameterError for a non-finite leaf parameter
                current = space.apply(theta)
            acc = accuracy(current, X, labels)
        except ParameterError as exc:
            history.aborted = True
            history.abort_reason = str(exc)
            current = space.apply(last_good)
            break
        last_good = theta.copy()
        history.epochs.append((epoch, float(np.mean(losses)), acc))
    return current, history


def accuracy(circuit: Circuit, X: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose Bayes-posterior argmax matches the label.

    Ties break toward the lowest class index (argmax over classes is taken in
    index order).  :func:`log_likelihood_batch` runs the rows in blocks, so
    scoring a training set at each epoch's end holds no more node values than
    a training step.
    """
    joint = log_likelihood_batch(circuit, X) + np.asarray(circuit.log_class_priors)[None, :]
    pred = np.argmax(joint, axis=1)
    return float(np.mean(pred == np.asarray(labels)))
