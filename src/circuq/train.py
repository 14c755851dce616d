"""Discriminative training of sum weights and Gaussian leaf parameters.

The objective is the class-conditional log likelihood of the head attributed
to each observed label: loss = -(1/B) sum_b log S_{y_b}(x_b).  A conventional
cross-entropy objective over the Bayes posterior is available behind a flag.

Gradients come from one reverse pass over the groups of the circuit's plan
(linear in edges), through each sum group's transposed matrix products under
the forward's shift and each product group's outer-product axes.  The two
products per sum group run on BLAS, in row chunks small enough that OpenBLAS
keeps them on its calling thread; so a gradient's bits, unlike the forward's
values, may change with the batch width.  Sum
weights are parameterized as unconstrained logits mapped through a per-node
log-softmax, so every update lands back on the weight simplex by
construction.  Parameters live in one flat vector θ laid out as the plan's
arrays: each sum layer's (G, S, K) logits in plan order, then the Gaussian
means, then their log stds.  Applying θ reshapes its slices into the plan's
parameter arrays, not nodes, and the reverse pass writes each layer's
gradient into the same slice of the gradient vector.  Training touches
parameters only.

The forward values and the adjoints are (nodes, rows) arrays in the layout's
slot order (:class:`circuq.circuit.Layout`): the reverse pass reads each
layer's values and adjoints as one slice, reads its children through the
layer's slot views, and adds the children's adjoints in place through them.
θ's order, the plan edge order, does not depend on slots.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import (
    Circuit,
    _shifted_exp,
    as_batch,
    Layout,
    forward_log_values,
    log_likelihood_batch,
    logsumexp_axis0,
    node_blocks,
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
    circuit's layers, both linear in the number of edges.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.shape[0] != X.shape[0]:
        raise ShapeError("labels must be one class index per row")
    C = circuit.num_classes
    if np.any(labels < 0) or np.any(labels >= C):
        raise ShapeError(f"labels must lie in [0, {C})")

    B = X.shape[0]
    plan = circuit.plan()
    layout = plan.layout
    logv = forward_log_values(circuit, X, nodes=layout.order)  # (nodes, B), slot order
    adjoint = layout.values(B)  # d loss / d log value per slot
    try:
        root_ll = logv[layout.roots]  # (C, B)

        if objective == "head":
            picked = root_ll[labels, np.arange(B)]
            loss = float(-picked.mean())
            seed = np.zeros((C, B))
            seed[labels, np.arange(B)] = -1.0 / B
        elif objective == "cross_entropy":
            joint = root_ll + np.asarray(circuit.log_class_priors)[:, None]
            lse = logsumexp_axis0(joint)
            loss = float(-(joint[labels, np.arange(B)] - lse).mean())
            softmax = np.exp(joint - lse[None, :])
            seed = softmax / B
            seed[labels, np.arange(B)] -= 1.0 / B
        else:
            raise ValueError(f"unknown objective {objective!r}")

        if not math.isfinite(loss):
            bad = int(np.flatnonzero(~np.isfinite(root_ll[labels, np.arange(B)]))[0])
            raise ParameterError(f"non-finite loss; first offending sample index {bad}")

        adjoint.fill(0.0)
        np.add.at(adjoint, layout.roots, seed)
        grad = np.zeros(ParameterSpace(circuit).size)
        logits_grad, mean_grad, log_std_grad = _blocks(grad, layout)  # views that fill grad
        layers = zip(layout.layers, plan.log_weights, plan.weights, logits_grad)
        for layer, lw, w, layer_grad in reversed(list(layers)):
            for b in layer.blocks(B):
                adj = layer.output(adjoint, b)
                if lw is None:
                    for read, part in zip(layer.reads, layer.factor_sums(adj)):
                        read.add(adjoint, b, part, layer.distinct)
                else:
                    children = layer.reads[0]
                    layer_grad[b], part = _sum_reverse(w[b], lw[b], children.read(logv, b),
                                                       layer.output(logv, b), adj)
                    children.add(adjoint, b, part, layer.distinct)

        _, variables = layout.leaves["gaussian"]
        leaf_adjoint = adjoint[layout.leaf_slots("gaussian")]
        values = np.ascontiguousarray(X.T)  # (variables, rows)
        for b in node_blocks(len(variables), 1, B):
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
        # categorical leaves carry no trainable parameters
        return loss, grad
    finally:
        layout.spare.give(logv, adjoint)


def _sum_reverse(w, lw, x, v, adj):
    """Logit gradients and child adjoints of a block of sum groups.

    Takes the (g, S, K) weights and their logs, the children's (g, K, rows)
    and the sums' (g, S, rows) log values, and the sums' adjoints.  Under the
    forward pass's shift, a = exp(x - shift) and A = adj exp(shift - v) give
    logit gradients w o (A a^T) - w o sum_rows adj and child adjoints
    a o (W^T A): per-group matrix products, taken by BLAS in row chunks of
    at most :data:`_PRODUCT_MACS` multiply-adds each.  Where the forward's
    shifted mixture flushed, A would overflow; there the edge shares
    exp(lw + x - v) are taken exactly, as :func:`circuq.circuit.log_shifted`
    takes the values.  A sum whose value is 0 passes nothing back.
    """
    w = np.ascontiguousarray(w)  # the plan's weights lie apart, which BLAS would not take
    _, shift, a = _shifted_exp(x)
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
        share = adj[g, s, c, None] * np.exp(lw[g, s] + x[g, :, c] - v[g, s, c, None])
        np.add.at(grad, (g, s), share)
        np.add.at(part, (g[:, None], np.arange(x.shape[1]), c[:, None]), share)
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

    Raises ValueError for an invalid config before any pass.  Aborts on a
    non-finite loss, step or leaf parameter, returning the last finite state.
    Weights stay normalized because updates act on logits.
    """
    config.check()
    X = as_batch(X, circuit.num_variables)
    labels = np.asarray(labels, dtype=np.int64)
    if X.shape[0] == 0:
        raise ShapeError("dataset is empty")
    if labels.shape != (X.shape[0],):
        raise ShapeError(f"labels of shape {labels.shape} for {X.shape[0]} rows")
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
