"""Circuit data model, structural validation, the layer plan, and log-space
likelihood inference.

A circuit is a dense arena of nodes in topological order (children strictly
before parents).  Sum nodes mix same-scope children with normalized weights,
product nodes factorize disjoint-scope children, and leaves are univariate
distributions.  On first use a circuit compiles into a layer plan, which every
pass runs on: the forward pass here (one row is a batch of one, and a keep
mask turns its columns into Monte Carlo dropout passes), the moment pass, and
training's reverse pass, which walks the layers backwards.

Circuits are treated as immutable after construction: evaluation never writes
to the node arena, and the cached plan is derived from it, so a circuit can be
shared freely across threads.  Validation is a separate pass rather than a
constructor check, which keeps it possible to build deliberately broken
circuits for negative tests.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ParameterError, SerializationError, ShapeError

LOG_2PI = math.log(2.0 * math.pi)

NORMALIZATION_TOL = 1e-9

CIRCUIT_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Node types


@dataclass
class SumNode:
    children: list[int]
    log_weights: np.ndarray  # natural log of the mixture weights

    kind = "sum"


@dataclass
class ProductNode:
    children: list[int]

    kind = "product"


@dataclass
class GaussianLeaf:
    variable: int
    mean: float
    log_std: float  # log sigma, so sigma > 0 is unconstrained during training

    kind = "gaussian"
    children: tuple[int, ...] = ()


@dataclass
class CategoricalLeaf:
    variable: int
    log_probs: np.ndarray

    kind = "categorical"
    children: tuple[int, ...] = ()


Node = Union[SumNode, ProductNode, GaussianLeaf, CategoricalLeaf]


@dataclass
class RatAnnotation:
    """Structural tags attached to circuits built as binary RAT region graphs.

    ``sum_region`` maps a sum node to its (repetition, region) pair and
    ``product_partition`` maps a product node to its (repetition, partition)
    pair.  Class heads carry the reserved repetition index -1.  The exact
    covariance strategy needs these tags to know which node pairs live in the
    same partition.
    """

    sum_region: dict[int, tuple[int, int]] = field(default_factory=dict)
    product_partition: dict[int, tuple[int, int]] = field(default_factory=dict)


@dataclass
class Circuit:
    """Arena of nodes in topological order plus one root per class."""

    nodes: list[Node]
    roots: list[int]
    num_variables: int
    log_class_priors: np.ndarray
    rat: Optional[RatAnnotation] = None

    _scopes: Optional[list[int]] = field(default=None, repr=False, compare=False)
    _layout: Optional["Layout"] = field(default=None, repr=False, compare=False)
    _plan: Optional["Plan"] = field(default=None, repr=False, compare=False)

    @property
    def num_classes(self) -> int:
        return len(self.roots)

    def scopes(self) -> list[int]:
        """Per-node variable scope as a bitmask over variable indices."""
        if self._scopes is None:
            scopes: list[int] = []
            for node in self.nodes:
                if node.kind in ("gaussian", "categorical"):
                    scopes.append(1 << node.variable)
                else:
                    s = 0
                    for c in node.children:
                        s |= scopes[c]
                    scopes.append(s)
            self._scopes = scopes
        return self._scopes

    def sum_edges(self) -> list[tuple[int, int]]:
        """All (sum node id, child position) pairs, in node order."""
        edges = []
        for i, node in enumerate(self.nodes):
            if node.kind == "sum":
                edges.extend((i, j) for j in range(len(node.children)))
        return edges

    def layout(self) -> "Layout":
        """The compiled layer structure, built on first use and cached."""
        if self._layout is None:
            self._layout = _compile_layout(self)
        return self._layout

    def plan(self) -> "Plan":
        """The layout plus parameter arrays that every pass runs on.

        Built on first use and cached; raises ParameterError for a
        non-finite leaf parameter.
        """
        if self._plan is None:
            self._plan = _compile_plan(self, self.layout())
        return self._plan

    def is_tree(self) -> bool:
        """True when no node is shared between parents (roots included)."""
        return self.layout().is_tree


# ---------------------------------------------------------------------------
# Evidence


@dataclass
class Evidence:
    """Observed values per variable; NaN marks a marginalized variable."""

    values: np.ndarray

    @staticmethod
    def of(values: Sequence[Optional[float]]) -> "Evidence":
        arr = np.array([np.nan if v is None else float(v) for v in values], dtype=np.float64)
        return Evidence(arr)

    @staticmethod
    def marginal_all(num_variables: int) -> "Evidence":
        return Evidence(np.full(num_variables, np.nan))


def as_evidence(evidence, num_variables: int) -> np.ndarray:
    if isinstance(evidence, Evidence):
        values = evidence.values
    else:
        values = np.asarray(evidence, dtype=np.float64)
    if values.ndim != 1 or values.shape[0] != num_variables:
        raise ShapeError(
            f"evidence has shape {values.shape}, expected ({num_variables},)"
        )
    return values


# ---------------------------------------------------------------------------
# Validation


@dataclass
class Violation:
    node: Optional[int]
    constraint: str
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(f"[{v.constraint}] node={v.node}: {v.message}" for v in self.violations)


def validate(circuit: Circuit) -> ValidationReport:
    """Check every structural invariant; violations are data, not exceptions."""
    out: list[Violation] = []
    n = len(circuit.nodes)

    def bad(node, constraint, message):
        out.append(Violation(node, constraint, message))

    # Topological order and index density first: scope computation needs them.
    order_ok = True
    for i, node in enumerate(circuit.nodes):
        for c in node.children:
            if not (0 <= c < n):
                bad(i, "index", f"child {c} out of range 0..{n - 1}")
                order_ok = False
            elif c >= i:
                bad(i, "topological-order", f"child {c} does not precede parent {i}")
                order_ok = False
    for r in circuit.roots:
        if not (0 <= r < n):
            bad(None, "index", f"root {r} out of range 0..{n - 1}")
            order_ok = False
    if not order_ok:
        return ValidationReport(out)

    scopes = circuit.scopes()
    full_scope = (1 << circuit.num_variables) - 1

    for i, node in enumerate(circuit.nodes):
        if node.kind == "sum":
            if not node.children:
                bad(i, "empty-children", "sum node has no children")
                continue
            if len(node.log_weights) != len(node.children):
                bad(i, "weight-arity", "weight count differs from child count")
                continue
            total = float(np.exp(np.asarray(node.log_weights, dtype=np.float64)).sum())
            if not math.isfinite(total) or abs(total - 1.0) > NORMALIZATION_TOL:
                bad(i, "weight-normalization", f"weights sum to {total!r}, expected 1")
            first = scopes[node.children[0]]
            for c in node.children[1:]:
                if scopes[c] != first:
                    bad(i, "smoothness", f"children scopes differ (child {c})")
                    break
        elif node.kind == "product":
            if not node.children:
                bad(i, "empty-children", "product node has no children")
                continue
            seen = 0
            for c in node.children:
                if seen & scopes[c]:
                    bad(i, "decomposability", f"child {c} overlaps earlier siblings' scope")
                    break
                seen |= scopes[c]
        elif node.kind == "gaussian":
            if not (0 <= node.variable < circuit.num_variables):
                bad(i, "variable-range", f"variable {node.variable} out of range")
            if not (math.isfinite(node.mean) and math.isfinite(node.log_std)):
                bad(i, "leaf-parameter", "non-finite Gaussian parameter")
        elif node.kind == "categorical":
            if not (0 <= node.variable < circuit.num_variables):
                bad(i, "variable-range", f"variable {node.variable} out of range")
            probs = np.exp(np.asarray(node.log_probs, dtype=np.float64))
            total = float(probs.sum())
            if not math.isfinite(total) or abs(total - 1.0) > NORMALIZATION_TOL:
                bad(i, "leaf-normalization", f"probabilities sum to {total!r}, expected 1")
        else:  # pragma: no cover - unreachable with the declared node types
            bad(i, "unknown-kind", f"unknown node kind {node.kind!r}")

    if len(circuit.roots) < 1:
        bad(None, "roots", "circuit declares no roots")
    for r in circuit.roots:
        if scopes[r] != full_scope:
            bad(r, "root-scope", "root scope does not cover all variables")

    priors = np.asarray(circuit.log_class_priors, dtype=np.float64)
    if priors.shape != (len(circuit.roots),):
        bad(None, "prior-arity", f"{priors.shape[0]} priors for {len(circuit.roots)} roots")
    else:
        total = float(np.exp(priors).sum())
        if not math.isfinite(total) or abs(total - 1.0) > NORMALIZATION_TOL:
            bad(None, "prior-normalization", f"class priors sum to {total!r}, expected 1")

    return ValidationReport(out)


# ---------------------------------------------------------------------------
# Layer plan
#
# A circuit compiles once into layers: its leaves, then its products and sums
# grouped by depth (one more than the deepest child), so that each layer is
# one vectorized step over (width, nodes, rows) arrays.  Child lists are padded
# to the widest node of their layer; a pad points at a sentinel row after the
# last node, which holds log value 0, and carries log weight -inf.  The
# reverse pass walks the same layers backwards, each one's edges regrouped by
# child into (fan-out, children) arrays padded the same way.

_BLOCK_ELEMENTS = 1 << 16  # gathered (width, nodes, columns) elements per step


def node_blocks(count: int, width: int, columns: int) -> list[slice]:
    """Slices of ``count`` nodes whose gathered (width, nodes, columns)
    elements stay within the block budget."""
    step = max(1, _BLOCK_ELEMENTS // max(1, width * columns))
    return [slice(s, s + step) for s in range(0, count, step)]


@dataclass(frozen=True)
class Layer:
    """One depth's product or sum nodes.  ``children`` and, for sums, ``edges``
    (indices in :meth:`Circuit.sum_edges` order, 0 on pads) are (width, nodes)."""

    kind: str
    nodes: np.ndarray
    children: np.ndarray
    edges: Optional[np.ndarray]

    def blocks(self, columns: int) -> list[slice]:
        """Node slices whose gathered children stay within the element budget."""
        return node_blocks(len(self.nodes), self.children.shape[0], columns)


@dataclass(frozen=True)
class ReverseLayer:
    """A layer's edges grouped by child, for the reverse pass.

    ``targets`` are the layer's distinct children.  ``parents`` and ``slots``
    are (fan-out, targets): each edge's parent and its flat position in the
    layer's (width, nodes) arrays.  Pads point at the row after the last node
    and at the position after the last slot.
    """

    targets: np.ndarray
    parents: np.ndarray
    slots: np.ndarray

    def blocks(self, columns: int) -> list[slice]:
        """Target slices whose gathered parents stay within the element budget."""
        return node_blocks(len(self.targets), self.parents.shape[0], columns)


@dataclass(frozen=True)
class Layout:
    """Compiled structure, shared by circuits that differ only in parameters."""

    layers: list[Layer]
    leaves: dict  # leaf kind -> (node ids, variables)
    num_nodes: int
    num_sum_edges: int
    is_tree: bool

    @functools.cached_property
    def reverse_layers(self) -> list[ReverseLayer]:
        """One :class:`ReverseLayer` per layer, built on first use and cached,
        so every circuit sharing this layout shares them."""
        return _compile_reverse(self)


@dataclass(frozen=True)
class Plan:
    """A layout plus one circuit's parameters as arrays, validated once: a
    non-finite leaf parameter raises ParameterError on construction.

    ``log_weights`` holds each layer's (width, nodes) log weights, -inf on
    pads, or None for a product layer; ``log_probs`` is -inf past each
    categorical leaf's states.
    """

    layout: Layout
    log_weights: list
    mean: np.ndarray
    log_std: np.ndarray
    log_probs: np.ndarray
    states: np.ndarray
    inv_std: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        gaussian = self.layout.leaves["gaussian"][0]
        categorical = self.layout.leaves["categorical"][0]
        bad_tables = np.any(np.isnan(self.log_probs) | np.isposinf(self.log_probs), axis=1)
        bad = np.concatenate([gaussian[~(np.isfinite(self.mean) & np.isfinite(self.log_std))],
                              categorical[bad_tables]])
        if len(bad):
            i = int(bad.min())
            kind = "gaussian" if i in gaussian else "categorical"
            raise ParameterError(f"non-finite {kind} parameter at node {i}")
        object.__setattr__(self, "inv_std", np.exp(-self.log_std))

    def leaf_log_values(self, X: np.ndarray, out: np.ndarray) -> None:
        """Write each leaf's log value for the rows of X into ``out``, in blocks
        of leaves; NaN (marginalized) gives log 1 = 0, and a single row fills
        every column."""
        for kind, (ids, variables) in self.layout.leaves.items():
            evaluate = self._gaussian if kind == "gaussian" else self._categorical
            for b in node_blocks(len(ids), 1, len(X)):
                out[ids[b]] = evaluate(X[:, variables[b]].T, b)

    def _gaussian(self, x: np.ndarray, b: slice) -> np.ndarray:
        z = (x - self.mean[b, None]) * self.inv_std[b, None]
        return np.where(np.isnan(x), 0.0, -0.5 * z * z - self.log_std[b, None] - 0.5 * LOG_2PI)

    def _categorical(self, x: np.ndarray, b: slice) -> np.ndarray:
        states = self.states[b, None]
        observed = ~np.isnan(x)
        bad = observed & ((x != np.floor(x)) | (x < 0) | (x >= states))
        if np.any(bad):
            states = states[np.flatnonzero(bad.any(axis=1))[0], 0]
            raise ShapeError(f"categorical values invalid for {states} states")
        k = np.where(observed, x, 0.0).astype(np.int64)
        return np.where(observed, self.log_probs[b][np.arange(len(k))[:, None], k], 0.0)


def _compile_layout(circuit: Circuit) -> Layout:
    nodes = circuit.nodes
    n = len(nodes)
    fan_in = np.array([len(node.children) if node.kind == "sum" else 0 for node in nodes])
    edge_start = np.cumsum(fan_in) - fan_in
    depth = [0] * n
    groups: dict[tuple[int, str], list[int]] = {}
    for i, node in enumerate(nodes):
        depth[i] = 1 + max((depth[c] for c in node.children), default=-1)
        groups.setdefault((depth[i], node.kind), []).append(i)

    layers = []
    leaves = {kind: (np.zeros(0, dtype=np.int64),) * 2 for kind in ("gaussian", "categorical")}
    for (_, kind), ids in sorted(groups.items()):
        ids = np.array(ids, dtype=np.int64)
        if kind in ("gaussian", "categorical"):
            leaves[kind] = (ids, np.array([nodes[i].variable for i in ids], dtype=np.int64))
            continue
        kids = [nodes[i].children for i in ids]
        real = np.arange(max(map(len, kids), default=0) or 1)[:, None] < [len(k) for k in kids]
        children = np.full(real.shape, n, dtype=np.int64)
        children.T[real.T] = np.concatenate(kids)
        edges = None
        if kind == "sum":
            edges = np.where(real, edge_start[ids] + np.arange(len(real))[:, None], 0)
        layers.append(Layer(kind, ids, children, edges))

    references = np.concatenate([layer.children.ravel() for layer in layers] + [circuit.roots])
    parents = np.bincount(references.astype(np.int64), minlength=n + 1)[:n]
    return Layout(layers, leaves, n, int(fan_in.sum()), bool(np.all(parents <= 1)))


def _compile_reverse(layout: Layout) -> list[ReverseLayer]:
    reverse = []
    for layer in layout.layers:
        flat = layer.children.ravel()  # slot w * nodes + j is child w of node j
        slots = np.flatnonzero(flat < layout.num_nodes)
        slots = slots[np.argsort(flat[slots], kind="stable")]
        targets, first, fan_out = np.unique(flat[slots], return_index=True, return_counts=True)
        column = np.repeat(np.arange(len(targets)), fan_out)
        padded = np.full((fan_out.max(initial=0), len(targets)), flat.size)
        padded[np.arange(len(slots)) - first[column], column] = slots
        parent = np.append(np.tile(layer.nodes, layer.children.shape[0]), layout.num_nodes)
        reverse.append(ReverseLayer(targets, parent[padded], padded))
    return reverse


def _compile_plan(circuit: Circuit, layout: Layout) -> Plan:
    nodes = circuit.nodes
    gaussian = [nodes[i] for i in layout.leaves["gaussian"][0]]
    mean = np.array([g.mean for g in gaussian], dtype=np.float64)
    log_std = np.array([g.log_std for g in gaussian], dtype=np.float64)
    tables = [np.asarray(nodes[i].log_probs, dtype=np.float64)
              for i in layout.leaves["categorical"][0]]
    states = np.array([len(t) for t in tables], dtype=np.int64)
    log_probs = np.full((len(tables), states.max(initial=0)), -np.inf)
    for k, t in enumerate(tables):
        log_probs[k, : len(t)] = t
    log_weights = []
    for layer in layout.layers:
        lw = None
        if layer.kind == "sum":
            lw = np.full(layer.children.shape, -np.inf)
            lw.T[(layer.children < len(nodes)).T] = np.concatenate(
                [nodes[i].log_weights for i in layer.nodes])
        log_weights.append(lw)
    return Plan(layout, log_weights, mean, log_std, log_probs, states)


# ---------------------------------------------------------------------------
# Log-space likelihood inference


def log_likelihood(circuit: Circuit, evidence) -> np.ndarray:
    """Log value of every class root for one evidence row: a batch of one.

    Sum nodes use log-sum-exp of (log weight + child log value); product nodes
    add child log values; marginalized leaves contribute 0.
    """
    values = as_evidence(evidence, circuit.num_variables)
    return forward_log_values(circuit, values[None, :])[circuit.roots, 0]


def log_likelihood_batch(circuit: Circuit, X: np.ndarray) -> np.ndarray:
    """Log value of every class root for a batch: returns (rows, classes)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != circuit.num_variables:
        raise ShapeError(f"batch has shape {X.shape}, expected (rows, {circuit.num_variables})")
    return forward_log_values(circuit, X)[circuit.roots].T.copy()


def forward_log_values(circuit: Circuit, X: np.ndarray, keep: Optional[np.ndarray] = None):
    """Per-node log values, shape (nodes, columns), from one loop over layers.

    Without ``keep`` the columns are the rows of X.  Monte Carlo dropout
    passes a (sum edges, passes) boolean mask with one row in X: column j is
    then the pass in which sum edge e (in :meth:`Circuit.sum_edges` order)
    contributes only where ``keep[e, j]`` holds.
    """
    plan = circuit.plan()
    X = np.asarray(X, dtype=np.float64)
    columns = X.shape[0] if keep is None else keep.shape[1]
    logv = np.empty((len(circuit.nodes) + 1, columns))
    logv[-1] = 0.0
    plan.leaf_log_values(X, logv)
    with np.errstate(divide="ignore"):
        for layer, lw in zip(plan.layout.layers, plan.log_weights):
            for block in layer.blocks(columns):
                kids = logv[layer.children[:, block]]
                if lw is None:
                    logv[layer.nodes[block]] = kids.sum(axis=0)
                    continue
                terms = lw[:, block, None] + kids
                if keep is not None:
                    terms = np.where(keep[layer.edges[:, block]], terms, -np.inf)
                logv[layer.nodes[block]] = logsumexp_axis0(terms)
    return logv[:-1]


# ---------------------------------------------------------------------------
# Log-space helpers, shared by every pass.  None of them enters np.errstate;
# a caller that can hit an all -inf column sets it once around its loop.


def logsumexp(terms: np.ndarray) -> float:
    """log(sum(exp(terms))) of a 1-D array; -inf when empty or all -inf."""
    m = float(terms.max(initial=-np.inf))
    if m == -np.inf:
        return -np.inf
    return m + math.log(float(np.exp(terms - m).sum()))


def logsumexp_axis0(terms: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the first axis of a (k, ...) array; all -inf gives -inf."""
    m = np.max(terms, axis=0)
    safe = np.where(np.isneginf(m), 0.0, m)
    out = safe + np.log(np.exp(terms - safe[None, :]).sum(axis=0))
    return np.where(np.isneginf(m), -np.inf, out)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Normalized log weights from unconstrained logits."""
    return logits - logsumexp(logits)


# ---------------------------------------------------------------------------
# Serialization (versioned JSON circuit files)


def _node_to_json(node: Node) -> dict:
    if node.kind == "sum":
        return {
            "kind": "sum",
            "children": list(node.children),
            "log_weights": [float(w) for w in node.log_weights],
        }
    if node.kind == "product":
        return {"kind": "product", "children": list(node.children)}
    if node.kind == "gaussian":
        return {
            "kind": "gaussian",
            "variable": node.variable,
            "mean": float(node.mean),
            "log_std": float(node.log_std),
        }
    return {
        "kind": "categorical",
        "variable": node.variable,
        "log_probs": [float(p) for p in node.log_probs],
    }


def _node_from_json(obj: dict) -> Node:
    kind = obj.get("kind")
    try:
        if kind == "sum":
            return SumNode(list(obj["children"]), np.array(obj["log_weights"], dtype=np.float64))
        if kind == "product":
            return ProductNode(list(obj["children"]))
        if kind == "gaussian":
            return GaussianLeaf(int(obj["variable"]), float(obj["mean"]), float(obj["log_std"]))
        if kind == "categorical":
            return CategoricalLeaf(int(obj["variable"]), np.array(obj["log_probs"], dtype=np.float64))
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed node record: {exc}") from exc
    raise SerializationError(f"unknown node kind {kind!r}")


def _json_17(obj, out: list) -> None:
    """Minimal JSON writer printing floats with 17 significant digits.

    The stdlib encoder formats floats with repr and cannot be overridden from
    the C path, hence the hand-rolled writer.  Infinities use the tokens the
    stdlib parser accepts.
    """
    if obj is None:
        out.append("null")
    elif obj is True or obj is False:
        out.append("true" if obj else "false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if math.isnan(obj):
            out.append("NaN")
        elif math.isinf(obj):
            out.append("Infinity" if obj > 0 else "-Infinity")
        else:
            out.append(f"{obj:.17g}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(", ")
            _json_17(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for k, (key, value) in enumerate(obj.items()):
            if k:
                out.append(", ")
            out.append(json.dumps(str(key)) + ": ")
            _json_17(value, out)
        out.append("}")
    else:  # pragma: no cover - document construction bug
        raise SerializationError(f"cannot serialize {type(obj)}")


def serialize(circuit: Circuit) -> bytes:
    """Encode a valid circuit as the versioned JSON file format.

    Numbers carry 17 significant digits, so every double round-trips exactly.
    """
    report = validate(circuit)
    if not report.ok:
        raise SerializationError(f"refusing to serialize an invalid circuit:\n{report}")
    doc = {
        "version": CIRCUIT_FORMAT_VERSION,
        "num_variables": circuit.num_variables,
        "log_class_priors": [float(p) for p in circuit.log_class_priors],
        "roots": list(circuit.roots),
        "nodes": [_node_to_json(n) for n in circuit.nodes],
    }
    if circuit.rat is not None:
        doc["rat"] = {
            "sum_region": {str(k): list(v) for k, v in circuit.rat.sum_region.items()},
            "product_partition": {
                str(k): list(v) for k, v in circuit.rat.product_partition.items()
            },
        }
    out: list = []
    _json_17(doc, out)
    return "".join(out).encode("utf-8")


def deserialize(data: bytes) -> Circuit:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"not a circuit file: {exc}") from exc
    if not isinstance(doc, dict):
        raise SerializationError("not a circuit file: top level is not an object")
    version = doc.get("version")
    if version != CIRCUIT_FORMAT_VERSION:
        raise SerializationError(f"unknown circuit file version {version!r}")
    try:
        circuit = Circuit(
            nodes=[_node_from_json(n) for n in doc["nodes"]],
            roots=[int(r) for r in doc["roots"]],
            num_variables=int(doc["num_variables"]),
            log_class_priors=np.array(doc["log_class_priors"], dtype=np.float64),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed circuit file: {exc}") from exc
    if "rat" in doc:
        try:
            circuit.rat = RatAnnotation(
                sum_region={int(k): tuple(v) for k, v in doc["rat"]["sum_region"].items()},
                product_partition={
                    int(k): tuple(v) for k, v in doc["rat"]["product_partition"].items()
                },
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"malformed rat annotation: {exc}") from exc
    report = validate(circuit)
    if not report.ok:
        raise SerializationError(f"circuit file fails validation:\n{report}")
    return circuit


def save(circuit: Circuit, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(circuit))


def load(path) -> Circuit:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
