"""Circuit data model, structural validation, the layer plan, and log-space
likelihood inference.

A circuit is a dense arena of nodes in topological order (children strictly
before parents).  Sum nodes mix same-scope children with normalized weights,
product nodes factorize disjoint-scope children, and leaves are univariate
distributions.  On first use a circuit compiles into a layer plan, stacks of
node groups that each run as one dense step: sums that share a child list mix
it as one matrix product, and products that are every combination of their
factors' nodes add them as one outer sum.  Every pass runs on the plan: the
forward pass here (one row is a batch of one, and a keep mask turns its
columns into Monte Carlo dropout passes), the moment pass, and training's
reverse pass, which walks the layers backwards.

Circuits are treated as immutable after construction: evaluation never writes
to the node arena, and the cached plan is derived from it, so a circuit can be
shared freely across threads.  Validation is a separate pass rather than a
constructor check, which keeps it possible to build deliberately broken
circuits for negative tests.
"""

from __future__ import annotations

import functools
import itertools
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
# grouped by depth (one more than the deepest child), so that no node reads a
# node of its own layer or a later one.  Within a depth, nodes fall into
# groups.  A sum group is every sum over one child list, such as the S sums
# of a RAT region over its partition's products.  A product group is every
# combination of its factors' nodes, one factor list per child position, such
# as a RAT partition's outer product of its two child regions.  A node that
# shares nothing is a group of one.  Groups of one shape stack into a layer,
# so that each layer is one vectorized step: a sum layer is a batched matrix
# product of the groups' weights with their children's linear values, shifted
# per group and row, and a product layer adds its factors' log values over
# their outer product.  The reverse pass walks the same layers backwards, each
# one's edges regrouped by child into (fan-out, children) arrays.

_BLOCK_ELEMENTS = 1 << 16  # gathered or produced (groups, width, columns) elements per step

_TINY = np.finfo(np.float64).tiny  # below it a linear mixture has lost precision
SHIFT_FLOOR = np.finfo(np.float64).min  # the shift of a column of -inf, which mixes to 0


def node_blocks(count: int, width: int, columns: int) -> list[slice]:
    """Slices of ``count`` items of ``width`` values per column each, whose
    (items, width, columns) elements stay within the block budget."""
    if 0 < count * width * columns <= _BLOCK_ELEMENTS:
        return [slice(0, count)]
    step = max(1, _BLOCK_ELEMENTS // max(1, width * columns))
    return [slice(s, s + step) for s in range(0, count, step)]


@dataclass(frozen=True)
class SumLayer:
    """Stacked groups of sums, each group mixing one child list.

    ``nodes`` is (G, S), ``children`` (G, K), and ``edges`` (G, S, K) holds
    each sum edge's index in :meth:`Circuit.sum_edges` order.
    """

    nodes: np.ndarray
    children: np.ndarray
    edges: np.ndarray

    kind = "sum"

    def blocks(self, columns: int) -> list[slice]:
        """Group slices whose gathered children and mixed sums stay within
        the element budget."""
        return node_blocks(len(self.nodes), max(self.nodes.shape[1], self.children.shape[1]),
                           columns)

    def edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """(parent, child) of every edge, flat in (G, S, K) order."""
        shape = self.edges.shape
        return (np.broadcast_to(self.nodes[:, :, None], shape).ravel(),
                np.broadcast_to(self.children[:, None, :], shape).ravel())


@dataclass(frozen=True)
class ProductLayer:
    """Stacked groups of products, each group every combination of its
    factors' nodes.

    ``factors`` holds one (G, S_f) array per child position, and ``nodes`` is
    (G, S_1 ... S_F): the products in outer (row-major) order of the factors.
    """

    nodes: np.ndarray
    factors: tuple

    kind = "product"

    def blocks(self, columns: int) -> list[slice]:
        """Group slices whose products stay within the element budget."""
        return node_blocks(len(self.nodes), self.nodes.shape[1], columns)

    def outer(self, parts: list, fold=np.add) -> np.ndarray:
        """Fold per-factor (groups, S_f, columns) arrays, factor by factor,
        into the groups' (groups, products, columns) outer combinations."""
        acc = None
        for f, x in enumerate(parts):
            shape = [x.shape[0]] + [1] * len(parts) + [x.shape[-1]]
            shape[1 + f] = x.shape[1]
            x = x.reshape(shape)
            acc = x if acc is None else fold(acc, x)
        return acc.reshape(acc.shape[0], -1, acc.shape[-1])

    def edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """(parent, child) of every edge, flat in (G, products, F) order."""
        G, P = self.nodes.shape
        position = np.unravel_index(np.arange(P), [f.shape[1] for f in self.factors])
        kids = np.stack([f[:, i] for f, i in zip(self.factors, position)], axis=-1)
        return np.repeat(self.nodes.ravel(), len(self.factors)), kids.ravel()


@dataclass(frozen=True)
class ReverseLayer:
    """A layer's edges grouped by child, for the reverse pass.

    ``targets`` are the layer's distinct children.  ``parents`` and ``slots``
    are (fan-out, targets): each edge's parent and its position in the
    layer's ``edge_ends`` order, which for a sum layer is the (G, S, K) order
    of its weights.  Pads point at the row after the last node and at the
    position after the last edge.
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

    layers: list
    leaves: dict  # leaf kind -> (node ids, variables)
    num_nodes: int
    num_sum_edges: int
    is_tree: bool

    @functools.cached_property
    def reverse_layers(self) -> list[ReverseLayer]:
        """One :class:`ReverseLayer` per layer, built once per layout, so
        every circuit sharing this layout shares them."""
        return _compile_reverse(self)


@dataclass(frozen=True)
class Plan:
    """A layout plus one circuit's parameters as arrays, validated once: a
    non-finite leaf parameter raises ParameterError on construction.

    ``log_weights`` holds each sum layer's (G, S, K) log weights, None for a
    product layer; ``weights`` are their exponentials.  ``log_probs`` is
    -inf past each categorical leaf's states.
    """

    layout: Layout
    log_weights: list
    mean: np.ndarray
    log_std: np.ndarray
    log_probs: np.ndarray
    states: np.ndarray
    inv_std: np.ndarray = field(init=False, repr=False)
    weights: list = field(init=False, repr=False)

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
        object.__setattr__(self, "weights",
                           [None if lw is None else np.exp(lw) for lw in self.log_weights])

    def leaf_log_values(self, X: np.ndarray, out: np.ndarray) -> None:
        """Write each leaf's log value for the rows of X into ``out``, in blocks
        of leaves; NaN (marginalized) gives log 1 = 0, and a single row fills
        every column."""
        values = np.ascontiguousarray(X.T)  # (variables, rows)
        for kind, (ids, variables) in self.layout.leaves.items():
            evaluate = self._gaussian if kind == "gaussian" else self._categorical
            for b in node_blocks(len(ids), 1, len(X)):
                out[ids[b]] = evaluate(values[variables[b]], b)

    def _gaussian(self, x: np.ndarray, b: slice) -> np.ndarray:
        # -0.5 z^2 - log_std - log(2 pi) / 2, in place on cache-sized blocks
        z = x - self.mean[b, None]
        z *= self.inv_std[b, None]
        out = z * -0.5
        out *= z
        out -= self.log_std[b, None]
        out -= 0.5 * LOG_2PI
        missing = np.isnan(x)
        if missing.any():
            out[missing] = 0.0
        return out

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
    levels: dict[tuple[int, str], list[int]] = {}
    for i, node in enumerate(nodes):
        depth[i] = 1 + max((depth[c] for c in node.children), default=-1)
        levels.setdefault((depth[i], node.kind), []).append(i)

    layers = []
    leaves = {kind: (np.zeros(0, dtype=np.int64),) * 2 for kind in ("gaussian", "categorical")}
    for (_, kind), ids in sorted(levels.items()):
        if kind in ("gaussian", "categorical"):
            ids = np.array(ids, dtype=np.int64)
            leaves[kind] = (ids, np.array([nodes[i].variable for i in ids], dtype=np.int64))
            continue
        grouping = _sum_groups if kind == "sum" else _product_groups
        stacks: dict[tuple, list] = {}  # group shape -> groups, in order of first node
        for members, factors in grouping(nodes, ids):
            stacks.setdefault((len(members), *map(len, factors)), []).append((members, factors))
        for groups in stacks.values():
            ids = np.array([members for members, _ in groups], dtype=np.int64)
            factors = tuple(np.array(f, dtype=np.int64) for f in zip(*(fs for _, fs in groups)))
            if kind == "sum":
                edges = edge_start[ids][:, :, None] + np.arange(factors[0].shape[1])
                layers.append(SumLayer(ids, factors[0], edges))
            else:
                layers.append(ProductLayer(ids, factors))

    references = np.concatenate([layer.edge_ends()[1] for layer in layers] + [circuit.roots])
    parents = np.bincount(references.astype(np.int64), minlength=n)
    layout = Layout(layers, leaves, n, int(fan_in.sum()), bool(np.all(parents <= 1)))
    # The reverse layers are built now, while the heap is small.  Built inside
    # training's first step, after a moment pass, their lasting arrays kept
    # the heap from shrinking below that step's temporaries (mid RAT: a peak
    # RSS of 176 MB against 133 MB).
    layout.reverse_layers
    return layout


def _sum_groups(nodes, ids: list[int]) -> list:
    """(members, [children]) per distinct child list, members in node order."""
    groups: dict[tuple, list[int]] = {}
    for i in ids:
        groups.setdefault(tuple(nodes[i].children), []).append(i)
    return [(members, [list(children)]) for children, members in groups.items()]


def _product_groups(nodes, ids: list[int]) -> list:
    """(members, factor lists) per outer group of products.

    Each product points at its earliest same-arity sibling that shares a
    child at some position, and follows those pointers to their end; in an
    outer group that end is the group's first product.  A set of products
    with one end is a group when its products are, in node order, every
    combination of each position's distinct children in first-seen order;
    otherwise each of its products is a group of one.
    """
    by_arity: dict[int, list[int]] = {}
    for i in ids:
        by_arity.setdefault(len(nodes[i].children), []).append(i)
    groups = []
    for members in by_arity.values():
        kids = np.array([nodes[i].children for i in members], dtype=np.int64)
        end = np.arange(len(members))
        for column in kids.T:
            _, first, inverse = np.unique(column, return_index=True, return_inverse=True)
            end = np.minimum(end, first[inverse])
        while np.any(end[end] != end):
            end = end[end]
        parts: dict[int, list[int]] = {}
        for k, e in enumerate(end.tolist()):
            parts.setdefault(e, []).append(k)
        for part in parts.values():
            rows = [nodes[members[k]].children for k in part]
            factors = [list(dict.fromkeys(column)) for column in zip(*rows)]
            if len(rows) == 1 or list(map(list, itertools.product(*factors))) == rows:
                groups.append(([members[k] for k in part], factors))
            else:
                groups.extend(([members[k]], [[c] for c in row]) for k, row in zip(part, rows))
    return groups


def _compile_reverse(layout: Layout) -> list[ReverseLayer]:
    reverse = []
    for layer in layout.layers:
        parent, child = layer.edge_ends()  # edge e sits at slot e
        slots = np.argsort(child, kind="stable")
        targets, first, fan_out = np.unique(child[slots], return_index=True, return_counts=True)
        column = np.repeat(np.arange(len(targets)), fan_out)
        padded = np.full((fan_out.max(initial=0), len(targets)), len(child))
        padded[np.arange(len(slots)) - first[column], column] = slots
        reverse.append(ReverseLayer(targets, np.append(parent, layout.num_nodes)[padded], padded))
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
    log_weights = [
        None if layer.kind != "sum" else np.array(
            [nodes[i].log_weights for i in layer.nodes.ravel()], dtype=np.float64
        ).reshape(layer.edges.shape)
        for layer in layout.layers
    ]
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
    contributes only where ``keep[e, j]`` holds, and each sum takes a
    log-sum-exp over its own edges.
    """
    plan = circuit.plan()
    X = np.asarray(X, dtype=np.float64)
    columns = X.shape[0] if keep is None else keep.shape[1]
    logv = np.empty((len(circuit.nodes), columns))
    plan.leaf_log_values(X, logv)
    with np.errstate(divide="ignore"):
        for layer, lw, w in zip(plan.layout.layers, plan.log_weights, plan.weights):
            if layer.kind == "product":
                for b in layer.blocks(columns):
                    logv[layer.nodes[b]] = layer.outer([logv[f[b]] for f in layer.factors])
            elif keep is None:
                for b in layer.blocks(columns):
                    logv[layer.nodes[b]] = log_mix(w[b], lw[b], logv[layer.children[b]])
            else:
                _masked_sums(layer, lw, logv, keep)
    return logv


def _masked_sums(layer: SumLayer, lw: np.ndarray, logv: np.ndarray, keep: np.ndarray) -> None:
    """One sum layer of masked passes: each sum's log-sum-exp over its kept
    edges, in blocks of sums with their (K, sums, passes) terms."""
    G, S, K = lw.shape
    kids = np.repeat(layer.children, S, axis=0).T  # (K, sums), like lw and edges
    lw, edges, nodes = lw.reshape(-1, K).T, layer.edges.reshape(-1, K).T, layer.nodes.ravel()
    for b in node_blocks(G * S, K, keep.shape[1]):
        terms = lw[:, b, None] + logv[kids[:, b]]
        logv[nodes[b]] = logsumexp_axis0(np.where(keep[edges[:, b]], terms, -np.inf))


def log_mix(w: np.ndarray, log_w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log sum_k w_k exp(x_k) for every sum of a block of groups.

    ``w`` and ``log_w`` are the (g, S, K) weights and their logs, ``x`` the
    groups' (g, K, columns) child log values.  Each group and column is
    shifted by its largest child value and mixed in linear space as one
    matrix product.  The shift ignores the weights, so a sum whose weighted
    children all sit far below a zero-weight sibling flushes to zero or a
    subnormal; those entries are recomputed as exact log-sum-exps.
    """
    m = x.max(axis=1, keepdims=True)
    shift = np.maximum(m, SHIFT_FLOOR)
    return log_shifted(mix(w, np.exp(x - shift)), shift, lambda: m > -np.inf,
                       lambda g, s, c: log_w[g, s] + x[g, :, c])


def mix(w: np.ndarray, lin: np.ndarray) -> np.ndarray:
    """(g, S, K) weights times (g, K, columns) linear values, one matrix
    product per group, in einsum's own loops: np.matmul hands products this
    size to BLAS threads, which cost far more than the product itself when
    other work shares the CPUs."""
    return np.einsum("gsk,gkr->gsr", w, lin)


def log_shifted(mixed: np.ndarray, shift: np.ndarray, nonzero, log_terms) -> np.ndarray:
    """log(mixed) + shift for (g, S, columns) linear mixtures taken under a
    shift.  Where ``nonzero()`` holds but the mixture flushed to zero or a
    subnormal, the entry is recomputed as the exact log-sum-exp of
    ``log_terms(g, s, c)``, an (entries, terms) array."""
    out = np.log(mixed) + shift
    if mixed.min() < _TINY:
        g, s, c = np.nonzero((mixed < _TINY) & nonzero())
        if len(g):
            out[g, s, c] = logsumexp_axis0(log_terms(g, s, c).T)
    return out


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
