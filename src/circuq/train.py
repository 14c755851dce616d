"""Discriminative training of sum weights and Gaussian leaf parameters.

The objective is the class-conditional log likelihood of the head attributed
to each observed label: loss = -(1/B) sum_b log S_{y_b}(x_b).  A conventional
cross-entropy objective over the Bayes posterior is available behind a flag.

Gradients come from one reverse pass over the layers of the circuit's plan
(linear in edges), in blocks of children, each layer's edges grouped by child
once per layout.  Sum weights are parameterized as unconstrained logits
mapped through a per-node log-softmax, so every update lands back on the
weight simplex by construction.  Parameters live in one flat vector; applying
it builds the plan's parameter arrays, not nodes.  Training touches
parameters only, never structure.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .circuit import (
    Circuit,
    GaussianLeaf,
    Plan,
    SumNode,
    forward_log_values,
    logsumexp_axis0,
    node_blocks,
)
from .errors import ParameterError, ShapeError

LOG_STD_CLAMP = 7.0  # keep sigma within e^[-7, 7] so densities cannot blow up


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 200
    learning_rate: float = 1e-3
    optimizer: str = "adam"  # "adam" or "sgd"
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    rng_seed: int = 0
    objective: str = "head"  # "head" or "cross_entropy"


# ---------------------------------------------------------------------------
# Parameter vector layout


@dataclass
class ParameterSpace:
    """Flat view of the trainable parameters of a circuit.

    Sum nodes contribute one logit per child (initialized to the current log
    weights, which already are normalized logits); Gaussian leaves contribute
    (mean, log_std).  Categorical leaves stay fixed.  ``segments`` lists them
    in node order as (node_id, kind, offset, size).  The same layout as
    index arrays: ``weight_offsets`` holds, per layer of the circuit's layout,
    the (G, S, K) offset of each sum edge's logit (None for a product layer),
    and ``leaf_offsets`` each Gaussian leaf's mean in the plan's leaf order,
    its log_std following.
    """

    circuit: Circuit
    segments: list
    size: int
    weight_offsets: list
    leaf_offsets: np.ndarray

    @staticmethod
    def of(circuit: Circuit) -> "ParameterSpace":
        segments = []
        first = np.zeros(len(circuit.nodes), dtype=np.int64)  # offset of each node's parameters
        offset = 0
        for i, node in enumerate(circuit.nodes):
            first[i] = offset
            if node.kind == "sum":
                k = len(node.children)
                segments.append((i, "sum", offset, k))
                offset += k
            elif node.kind == "gaussian":
                segments.append((i, "gaussian", offset, 2))
                offset += 2
        layout = circuit.layout()
        weight_offsets = [
            None if layer.kind != "sum"
            else first[layer.nodes][:, :, None] + np.arange(layer.children.shape[1])
            for layer in layout.layers
        ]
        return ParameterSpace(circuit, segments, offset, weight_offsets,
                              first[layout.leaves["gaussian"][0]])

    def initial_vector(self) -> np.ndarray:
        plan = self.circuit.plan()
        theta = np.empty(self.size)
        for offsets, lw in zip(self.weight_offsets, plan.log_weights):
            if offsets is not None:
                theta[offsets] = lw
        theta[self.leaf_offsets] = plan.mean
        theta[self.leaf_offsets + 1] = plan.log_std
        return theta

    def apply(self, theta: np.ndarray) -> Circuit:
        """A circuit with these parameters, sharing everything else.

        Builds only the plan's parameter arrays: one log-softmax per sum layer
        and one clip of the log stds.  The circuit carries that plan, so its
        passes compile nothing, and its nodes are built on first read.
        Raises ParameterError for a non-finite leaf parameter.
        """
        log_weights = []
        for offsets in self.weight_offsets:
            if offsets is None:
                log_weights.append(None)
            else:
                logits = theta[offsets]  # (G, S, K)
                log_weights.append(logits - logsumexp_axis0(logits.transpose(2, 0, 1))[..., None])
        plan = dataclasses.replace(
            self.circuit.plan(), log_weights=log_weights, mean=theta[self.leaf_offsets],
            log_std=np.clip(theta[self.leaf_offsets + 1], -LOG_STD_CLAMP, LOG_STD_CLAMP))
        return dataclasses.replace(self.circuit, nodes=_PlanNodes(self.circuit.nodes, plan),
                                   _layout=plan.layout, _plan=plan)


class _PlanNodes(Sequence):
    """The node list of a circuit made by :meth:`ParameterSpace.apply`: the
    structure's nodes with the plan's parameters, built on first read, since
    training itself reads only the plan."""

    def __init__(self, structure: Sequence, plan: Plan):
        self._structure = structure
        self._plan = plan
        self._nodes: Optional[list] = None

    def __len__(self) -> int:
        return len(self._structure)

    def __getitem__(self, i):
        return self._built()[i]

    def __iter__(self):
        return iter(self._built())

    def _built(self) -> list:
        if self._nodes is None:
            nodes = list(self._structure)
            layout = self._plan.layout
            for layer, lw in zip(layout.layers, self._plan.log_weights):
                if lw is not None:
                    rows = lw.reshape(-1, lw.shape[-1])
                    for i, row in zip(layer.nodes.ravel().tolist(), rows):
                        nodes[i] = SumNode(list(nodes[i].children), row.copy())
            for i, mean, log_std in zip(layout.leaves["gaussian"][0].tolist(),
                                        self._plan.mean.tolist(), self._plan.log_std.tolist()):
                nodes[i] = GaussianLeaf(nodes[i].variable, mean, log_std)
            self._nodes = nodes
        return self._nodes


# ---------------------------------------------------------------------------
# Loss and gradient


def loss_and_grad(
    circuit: Circuit,
    X: np.ndarray,
    labels: np.ndarray,
    objective: str = "head",
    space: Optional[ParameterSpace] = None,
):
    """Mean negative log likelihood of the labeled heads, and its gradient.

    The gradient is taken at the circuit's current parameters, laid out per
    :class:`ParameterSpace`.  One forward and one reverse pass over the
    circuit's layers, both linear in the number of edges.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.shape[0] != X.shape[0]:
        raise ShapeError("labels must be one class index per row")
    C = circuit.num_classes
    if np.any(labels < 0) or np.any(labels >= C):
        raise ShapeError(f"labels must lie in [0, {C})")
    if space is None:
        space = ParameterSpace.of(circuit)

    B = X.shape[0]
    plan = circuit.plan()
    layout = plan.layout
    logv = forward_log_values(circuit, X)  # (nodes, B)
    root_ll = logv[circuit.roots]  # (C, B)

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

    # d loss / d log value per node; the last row stays 0 for the pads' parent
    adjoint = np.zeros((layout.num_nodes + 1, B))
    np.add.at(adjoint, circuit.roots, seed)
    grad = np.zeros(space.size)
    layers = zip(layout.layers, layout.reverse_layers, plan.log_weights, space.weight_offsets)
    for layer, reverse, lw, offsets in reversed(list(layers)):
        if lw is not None:
            slot_lw = np.append(lw.ravel(), -np.inf)
            slot_grad = np.zeros(lw.size + 1)
        for block in reverse.blocks(B):
            parents, slots = reverse.parents[:, block], reverse.slots[:, block]
            adj = adjoint[parents]  # (fan-out, targets, rows)
            if lw is not None:
                # ratio = w v_child / v_parent.  A sum's log value is at least
                # each weighted child's, and leaf log densities are bounded
                # above (log stds are clamped, log_probs <= 0), so the ratio
                # is at most about 1, never +inf.  It is undefined (-inf minus
                # -inf) only where the parent's value is 0; that parent's
                # adjoint is 0, and so is its ratio.  Pads clip to a real row
                # of logv, and their -inf log weight makes their ratio 0.
                log_parent = np.take(logv, parents, axis=0, mode="clip")
                w = slot_lw[slots]
                with np.errstate(invalid="ignore"):
                    ratio = np.exp(w[:, :, None] + logv[reverse.targets[block]] - log_parent)
                ratio[np.isneginf(log_parent)] = 0.0
                adj_sum = adj.sum(axis=-1)
                adj *= ratio
                slot_grad[slots] = adj.sum(axis=-1) - np.exp(w) * adj_sum
            adjoint[reverse.targets[block]] += adj.sum(axis=0)
        if lw is not None:
            grad[offsets] = slot_grad[:-1].reshape(lw.shape)

    ids, variables = layout.leaves["gaussian"]
    for b in node_blocks(len(ids), 1, B):
        x = X[:, variables[b]].T
        inv_std = plan.inv_std[b]
        u = (x - plan.mean[b, None]) * inv_std[:, None]
        adj = adjoint[ids[b]]
        # Only rows where the leaf is observed and the loss depends on it
        # contribute: elsewhere the derivative is 0, even where u * u overflows.
        used = ~np.isnan(x) & (adj != 0.0)
        d_mean = np.multiply(adj, u, out=np.zeros_like(adj), where=used)
        d_log_std = np.multiply(adj, u * u - 1.0, out=np.zeros_like(adj), where=used)
        grad[space.leaf_offsets[b]] = d_mean.sum(axis=1) * inv_std
        grad[space.leaf_offsets[b] + 1] = d_log_std.sum(axis=1)
    # categorical leaves carry no trainable parameters
    return loss, grad


# ---------------------------------------------------------------------------
# Optimizers and the fit loop


@dataclass
class OptimizerState:
    kind: str
    step: int = 0
    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None


@dataclass
class TrainHistory:
    epochs: list = field(default_factory=list)  # (epoch, loss, accuracy)
    aborted: bool = False
    abort_reason: str = ""
    optimizer_state: Optional["OptimizerState"] = None

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

    Aborts on a non-finite loss or leaf parameter, returning the last finite
    state.  Weights stay normalized because updates act on logits.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if X.shape[0] == 0:
        raise ShapeError("dataset is empty")
    space = ParameterSpace.of(circuit)
    theta = space.initial_vector()
    state = OptimizerState(
        kind=config.optimizer,
        m=np.zeros_like(theta),
        v=np.zeros_like(theta),
    )
    rng = np.random.default_rng(config.rng_seed)
    history = TrainHistory()
    B = X.shape[0]
    batch = max(1, min(config.batch_size, B))

    current = space.apply(theta)
    last_good = theta.copy()
    for epoch in range(config.epochs):
        order = rng.permutation(B)
        losses = []
        try:
            for start in range(0, B, batch):
                idx = order[start : start + batch]
                loss, grad = loss_and_grad(
                    current, X[idx], labels[idx], config.objective, space
                )
                losses.append(loss)
                theta = _update(theta, grad, state, config)
                _clamp_log_stds(theta, space)
                current = space.apply(theta)
            # a non-finite parameter after the epoch's last step aborts here
            acc = accuracy(current, X, labels)
        except ParameterError as exc:
            history.aborted = True
            history.abort_reason = str(exc)
            current = space.apply(last_good)
            break
        last_good = theta.copy()
        history.epochs.append((epoch, float(np.mean(losses)), acc))
    history.optimizer_state = state
    return current, history


def _update(theta, grad, state: OptimizerState, config: TrainConfig) -> np.ndarray:
    if state.kind == "sgd":
        return theta - config.learning_rate * grad
    if state.kind != "adam":
        raise ValueError(f"unknown optimizer {state.kind!r}")
    state.step += 1
    state.m = config.beta1 * state.m + (1.0 - config.beta1) * grad
    state.v = config.beta2 * state.v + (1.0 - config.beta2) * grad * grad
    m_hat = state.m / (1.0 - config.beta1**state.step)
    v_hat = state.v / (1.0 - config.beta2**state.step)
    return theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)


def _clamp_log_stds(theta: np.ndarray, space: ParameterSpace) -> None:
    log_stds = space.leaf_offsets + 1
    theta[log_stds] = np.clip(theta[log_stds], -LOG_STD_CLAMP, LOG_STD_CLAMP)


def accuracy(circuit: Circuit, X: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose Bayes-posterior argmax matches the label.

    Ties break toward the lowest class index (argmax over classes is taken in
    index order).
    """
    ll = forward_log_values(circuit, np.asarray(X, dtype=np.float64))[circuit.roots]
    joint = ll + np.asarray(circuit.log_class_priors)[:, None]
    pred = np.argmax(joint, axis=0)
    return float(np.mean(pred == np.asarray(labels)))


def save_optimizer_state(state: OptimizerState, path) -> None:
    np.savez(path, kind=state.kind, step=state.step, m=state.m, v=state.v)


def load_optimizer_state(path) -> OptimizerState:
    data = np.load(path, allow_pickle=False)
    return OptimizerState(
        kind=str(data["kind"]),
        step=int(data["step"]),
        m=data["m"],
        v=data["v"],
    )
