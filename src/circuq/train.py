"""Discriminative training of sum weights and Gaussian leaf parameters.

The objective is the class-conditional log likelihood of the head attributed
to each observed label: loss = -(1/B) sum_b log S_{y_b}(x_b).  A conventional
cross-entropy objective over the Bayes posterior is available behind a flag.

Gradients come from one reverse sweep through the log-space circuit (linear
in edges).  Sum weights are parameterized as unconstrained logits mapped
through a per-node log-softmax, so every update lands back on the weight
simplex by construction.  Training touches parameters only, never structure.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .circuit import (
    Circuit,
    GaussianLeaf,
    SumNode,
    forward_log_values,
    log_softmax,
    logsumexp_axis0,
)
from .errors import ParameterError, ShapeError

_NEG_INF = float("-inf")

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
    (mean, log_std).  Categorical leaves stay fixed.
    """

    circuit: Circuit
    segments: list = field(default_factory=list)  # (node_id, kind, offset, size)
    size: int = 0

    @staticmethod
    def of(circuit: Circuit) -> "ParameterSpace":
        space = ParameterSpace(circuit)
        offset = 0
        for i, node in enumerate(circuit.nodes):
            if node.kind == "sum":
                k = len(node.children)
                space.segments.append((i, "sum", offset, k))
                offset += k
            elif node.kind == "gaussian":
                space.segments.append((i, "gaussian", offset, 2))
                offset += 2
        space.size = offset
        return space

    def initial_vector(self) -> np.ndarray:
        theta = np.empty(self.size)
        for i, kind, off, size in self.segments:
            node = self.circuit.nodes[i]
            if kind == "sum":
                theta[off : off + size] = node.log_weights
            else:
                theta[off] = node.mean
                theta[off + 1] = node.log_std
        return theta

    def apply(self, theta: np.ndarray) -> Circuit:
        """A circuit with these parameters; shares everything else, the
        compiled layout included, so only its parameter arrays are built anew."""
        nodes = list(self.circuit.nodes)
        for i, kind, off, size in self.segments:
            if kind == "sum":
                nodes[i] = SumNode(list(nodes[i].children), log_softmax(theta[off : off + size]))
            else:
                nodes[i] = GaussianLeaf(
                    nodes[i].variable,
                    float(theta[off]),
                    float(np.clip(theta[off + 1], -LOG_STD_CLAMP, LOG_STD_CLAMP)),
                )
        return dataclasses.replace(self.circuit, nodes=nodes, _layout=self.circuit.layout(),
                                   _plan=None)


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
    :class:`ParameterSpace`.  One forward and one backward sweep, both linear
    in the number of edges.
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

    adjoint = np.zeros_like(logv)
    for c, r in enumerate(circuit.roots):
        adjoint[r] += seed[c]

    grad = np.zeros(space.size)
    seg_by_node = {i: (kind, off, size) for i, kind, off, size in space.segments}

    for i in range(len(circuit.nodes) - 1, -1, -1):
        node = circuit.nodes[i]
        adj = adjoint[i]
        if not np.any(adj):
            continue
        if node.kind == "sum":
            with np.errstate(invalid="ignore"):
                a = np.exp(node.log_weights[:, None] + logv[node.children] - logv[i][None, :])
            a = np.nan_to_num(a, nan=0.0, posinf=0.0)
            for pos, c in enumerate(node.children):
                adjoint[c] += a[pos] * adj
            kind, off, size = seg_by_node[i]
            w = np.exp(node.log_weights)
            grad[off : off + size] = a @ adj - w * float(adj.sum())
        elif node.kind == "product":
            for c in node.children:
                adjoint[c] += adj
        elif node.kind == "gaussian":
            x = X[:, node.variable]
            observed = ~np.isnan(x)
            if np.any(observed):
                inv_std = math.exp(-node.log_std)
                u = (x[observed] - node.mean) * inv_std
                ao = adj[observed]
                kind, off, size = seg_by_node[i]
                grad[off] = float((ao * u).sum()) * inv_std
                grad[off + 1] = float((ao * (u * u - 1.0)).sum())
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
    for i, kind, off, size in space.segments:
        if kind == "gaussian":
            theta[off + 1] = min(max(theta[off + 1], -LOG_STD_CLAMP), LOG_STD_CLAMP)


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
