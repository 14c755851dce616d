"""Circuit data model, structural validation, the layer plan, and log-space
likelihood inference.

A circuit is a dense arena of nodes in topological order (children strictly
before parents).  Sum nodes mix same-scope children with normalized weights,
product nodes factorize disjoint-scope children, and leaves are univariate
distributions.  On first use a circuit compiles into a layer plan, stacks of
node groups that each run as one dense step: sums that share a child list mix
it as one matrix product, and products that are every combination of their
factors' nodes add them as one outer sum.  Every pass runs on these groups:
the forward pass here (one row is a batch of one, and a keep mask turns its
columns into Monte Carlo dropout passes), the moment pass, and training's
reverse pass, which walks the groups backwards.

Circuits are treated as immutable after construction: evaluation never writes
to the node arena, and the cached plan is derived from it, so a circuit can be
shared freely across threads.  The one thing passes share is the layout's
store of spare pass arrays, and each array is taken from it whole.
Validation is a separate pass rather than a constructor check, which keeps it
possible to build deliberately broken circuits for negative tests.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
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
class Circuit:
    """Arena of nodes in topological order plus one root per class."""

    nodes: list[Node]
    roots: list[int]
    num_variables: int
    log_class_priors: np.ndarray

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


def as_batch(X, num_variables: int) -> np.ndarray:
    """A batch of evidence rows as a float64 (rows, num_variables) array."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != num_variables:
        raise ShapeError(f"batch has shape {X.shape}, expected (rows, {num_variables})")
    return X


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


def _unnormalized(log_values) -> Optional[str]:
    """Why the exponentials of ``log_values`` are no distribution, or None
    when they are real numbers that sum to 1."""
    values = np.asarray(log_values)
    if values.dtype.kind not in "biuf":  # strings and complex numbers
        return f"have logs {log_values!r} that are not real numbers"
    total = float(np.exp(values.astype(np.float64, copy=False)).sum())
    if not math.isfinite(total) or abs(total - 1.0) > NORMALIZATION_TOL:
        return f"sum to {total!r}, expected 1"
    return None


def validate(circuit: Circuit) -> ValidationReport:
    """Check every structural invariant, including that node ids are integers
    and parameters real numbers; violations are data, not exceptions."""
    out: list[Violation] = []
    n = len(circuit.nodes)

    def bad(node, constraint, message):
        out.append(Violation(node, constraint, message))

    # Node ids, their topological order and leaf variables first: scope
    # computation needs them.  An id is an int or a numpy integer; testing
    # against numbers.Integral would cost several times as much per edge.
    order_ok = True
    for i, node in enumerate(circuit.nodes):
        if node.kind in ("gaussian", "categorical") and not (
                (type(node.variable) is int or isinstance(node.variable, np.integer))
                and 0 <= node.variable < circuit.num_variables):
            bad(i, "variable-range", f"variable {node.variable!r} out of range")
            order_ok = False
        for c in node.children:
            if not ((type(c) is int or isinstance(c, np.integer)) and 0 <= c < n):
                bad(i, "index", f"child {c!r} is not a node id in 0..{n - 1}")
                order_ok = False
            elif c >= i:
                bad(i, "topological-order", f"child {c} does not precede parent {i}")
                order_ok = False
    for r in circuit.roots:
        if not ((type(r) is int or isinstance(r, np.integer)) and 0 <= r < n):
            bad(None, "index", f"root {r!r} is not a node id in 0..{n - 1}")
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
            if np.shape(node.log_weights) != (len(node.children),):
                bad(i, "weight-arity", "weight count differs from child count")
                continue
            if problem := _unnormalized(node.log_weights):
                bad(i, "weight-normalization", f"weights {problem}")
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
            if not all(isinstance(v, numbers.Real) and math.isfinite(v)
                       for v in (node.mean, node.log_std)):
                bad(i, "leaf-parameter", f"Gaussian mean {node.mean!r} and log_std "
                    f"{node.log_std!r} must be finite real numbers")
        elif node.kind == "categorical":
            if problem := _unnormalized(node.log_probs):
                bad(i, "leaf-normalization", f"probabilities {problem}")
        else:  # pragma: no cover - unreachable with the declared node types
            bad(i, "unknown-kind", f"unknown node kind {node.kind!r}")

    if len(circuit.roots) < 1:
        bad(None, "roots", "circuit declares no roots")
    for r in circuit.roots:
        if scopes[r] != full_scope:
            bad(r, "root-scope", "root scope does not cover all variables")

    priors = circuit.log_class_priors
    if np.shape(priors) != (len(circuit.roots),):
        bad(None, "prior-arity", f"{np.size(priors)} priors for {len(circuit.roots)} roots")
    elif problem := _unnormalized(priors):
        bad(None, "prior-normalization", f"class priors {problem}")

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
# their outer product.  The reverse pass walks the same groups backwards, through
# transposed matrix products and sums over the outer products' axes.
#
# Every pass holds its values in one (nodes, columns) array whose rows are
# slots, not node ids.  Slots follow the plan: the leaves first, in the order
# of Layout.leaves, then each layer's (G, S) nodes, so a layer writes one
# contiguous slice.  Each layer input is compiled to its (G, S) slots; where
# they are affine, start + g * group stride + s * width stride, as a RAT's
# region and partition blocks are, the layer reads the input in place as a
# strided view, and otherwise it gathers the slots.  Only the layout knows
# this order: callers get node-order rows from Layout.finish.
#
# A product layer that only the next sum layer reads, as its groups'
# children in slot order, is fused (Layout.fused): in a RAT, every partition
# layer.  Every pass runs it inside that sum layer's step, one block of sum
# groups and the products they read at a time.  The request decides only
# where a block's products go: a roots-only request makes them in a
# block-sized array and never writes their slots, and any other request,
# training's included, writes them into their slots.

_BLOCK_ELEMENTS = 1 << 16  # gathered or produced (groups, width, columns) elements per step

_TINY = np.finfo(np.float64).tiny  # below it a linear mixture has lost precision
SHIFT_FLOOR = np.finfo(np.float64).min  # the shift of a column of -inf, which mixes to 0
BATCH_ROWS = 256  # rows per pass of the batch calls; a pass holds (nodes, rows) doubles


def node_blocks(count: int, width: int, columns: int) -> list[slice]:
    """Slices of ``count`` items of ``width`` values per column each, whose
    (items, width, columns) elements stay within the block budget."""
    if 0 < count * width * columns <= _BLOCK_ELEMENTS:
        return [slice(0, count)]
    step = max(1, _BLOCK_ELEMENTS // max(1, width * columns))
    return [slice(s, min(s + step, count)) for s in range(0, count, step)]


@dataclass(frozen=True)
class SlotRead:
    """One layer input: the (G, W) slots it reads, and their (group, width)
    ``strides`` when the slots are affine, first + g * stride_g + w * stride_w,
    None otherwise."""

    slots: np.ndarray
    strides: Optional[tuple[int, int]]
    first: int = 0

    @staticmethod
    def of(slots: np.ndarray) -> "SlotRead":
        G, W = slots.shape
        if slots.size == 0:
            return SlotRead(slots, None)
        first = int(slots[0, 0])
        strides = (int(slots[1, 0]) - first if G > 1 else 0,
                   int(slots[0, 1]) - first if W > 1 else 0)
        affine = first + strides[0] * np.arange(G)[:, None] + strides[1] * np.arange(W)
        return SlotRead(slots, strides if np.array_equal(slots, affine) else None, first)

    def read(self, values: np.ndarray, b: slice) -> np.ndarray:
        """The (groups, W, columns) values of groups ``b``: a view of
        ``values`` where the slots are affine, else a gathered copy."""
        if self.strides is None:
            return values[self.slots[b]]
        by_group, by_width = self.strides
        row, column = values.strides
        return np.ndarray((b.stop - b.start, self.slots.shape[1], values.shape[1]), values.dtype,
                          values, (self.first + b.start * by_group) * row,
                          (by_group * row, by_width * row, column))

    def add(self, values: np.ndarray, b: slice, part: np.ndarray, distinct: bool) -> None:
        """values[slots of groups b] += part, summing repeated slots; in place
        through the view where the slots are affine and ``distinct``."""
        if not distinct:
            np.add.at(values, self.slots[b], part)
        elif self.strides is None:
            values[self.slots[b]] += part
        else:
            view = self.read(values, b)
            view += part


class _Output:
    """The output slots of a layer: G * W consecutive slots from ``start``,
    its (G, W) ``nodes`` in row-major order."""

    def output(self, values: np.ndarray, b: slice) -> np.ndarray:
        """The (groups, W, columns) view of the values of groups ``b``."""
        W = self.nodes.shape[1]
        return values[self.start + b.start * W : self.start + b.stop * W].reshape(
            b.stop - b.start, W, values.shape[1])


@dataclass(frozen=True)
class SumLayer(_Output):
    """Stacked groups of sums, each group mixing one child list.

    ``nodes`` is (G, S) and ``children`` (G, K); the layer's (G, S, K) sum
    edges are its weights.  ``distinct`` holds when no node appears twice in
    ``children``.  The sums hold the slots from ``start`` on, and ``reads``
    is one :class:`SlotRead` of the children.
    """

    nodes: np.ndarray
    children: np.ndarray
    distinct: bool
    start: int
    reads: tuple

    kind = "sum"

    @property
    def shape(self) -> tuple[int, int, int]:
        """(G, S, K): groups, sums per group, children per group."""
        return (*self.nodes.shape, self.children.shape[1])

    def blocks(self, columns: int) -> list[slice]:
        """Group slices whose gathered children and mixed sums stay within
        the element budget."""
        return node_blocks(len(self.nodes), max(self.nodes.shape[1], self.children.shape[1]),
                           columns)

    def edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """(parent, child) of every edge, flat in (G, S, K) order."""
        shape = self.shape
        return (np.broadcast_to(self.nodes[:, :, None], shape).ravel(),
                np.broadcast_to(self.children[:, None, :], shape).ravel())


@dataclass(frozen=True)
class ProductLayer(_Output):
    """Stacked groups of products, each group every combination of its
    factors' nodes.

    ``factors`` holds one (G, S_f) array per child position, and ``nodes`` is
    (G, S_1 ... S_F): the products in outer (row-major) order of the factors.
    ``distinct`` holds when no node appears twice in one factor's array.  The
    products hold the slots from ``start`` on, and ``reads`` has one
    :class:`SlotRead` per factor.
    """

    nodes: np.ndarray
    factors: tuple
    distinct: bool
    start: int
    reads: tuple

    kind = "product"

    def blocks(self, columns: int) -> list[slice]:
        """Group slices whose products stay within the element budget."""
        return node_blocks(len(self.nodes), self.nodes.shape[1], columns)

    def outer(self, parts: list, fold=np.add, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Fold per-factor (groups, S_f, columns) arrays, factor by factor,
        into the groups' (groups, products, columns) outer combinations.
        Given a contiguous ``out`` of that shape, the last fold writes there,
        so ``fold`` must then take ``out=``."""
        acc = None
        for f, x in enumerate(parts):
            shape = [x.shape[0]] + [1] * len(parts) + [x.shape[-1]]
            shape[1 + f] = x.shape[1]
            x = x.reshape(shape)
            if acc is None:
                acc = x
            elif out is not None and f == len(parts) - 1:
                shape[1:-1] = [part.shape[1] for part in parts]
                acc = fold(acc, x, out=out.reshape(shape))
            else:
                acc = fold(acc, x)
        acc = acc.reshape(acc.shape[0], -1, acc.shape[-1])
        if out is not None and len(parts) == 1:
            out[...] = acc
        return acc

    def factor_sums(self, adj: np.ndarray) -> list:
        """The reverse of :meth:`outer` with np.add: each factor's (groups,
        S_f, columns) sum of the products' (groups, products, columns)
        ``adj`` over the other factors' axes."""
        adj = adj.reshape(len(adj), *(f.shape[1] for f in self.factors), adj.shape[-1])
        axes = range(1, adj.ndim - 1)
        return [adj.sum(axis=tuple(a for a in axes if a != f)) for f in axes]

    def edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """(parent, child) of every edge, flat in (G, products, F) order."""
        G, P = self.nodes.shape
        position = np.unravel_index(np.arange(P), [f.shape[1] for f in self.factors])
        kids = np.stack([f[:, i] for f, i in zip(self.factors, position)], axis=-1)
        return np.repeat(self.nodes.ravel(), len(self.factors)), kids.ravel()

    def feeding(self, sums: SumLayer, b: slice) -> slice:
        """The groups of this layer that the groups ``b`` of ``sums``, the
        sum layer it is fused into, read as their children, in order."""
        per_sum = sums.children.shape[1] // self.nodes.shape[1]
        return slice(b.start * per_sum, b.stop * per_sum)


_SPARE_BYTES = 1 << 26  # pass arrays a layout keeps for its next passes
_SPARE_MIN = 1 << 22  # smaller pass arrays are left to the allocator


class _SpareArrays:
    """Value arrays of finished passes, kept by width for later passes of the
    same layout: those of at least ``_SPARE_MIN`` bytes, while they total at
    most ``_SPARE_BYTES``.

    A pass's (nodes, columns) arrays can be large (25 MB each at mid and 256
    rows).  Allocated fresh for every pass, they cost page faults whenever
    glibc has returned the last pass's arrays to the system, which it does
    once freed memory at the top of its heap passes its trim threshold.  A
    kept array is reused in place.  Small arrays cost little to fault in, and
    kept for every width a pipeline uses, they would only add to its memory.
    Taking and giving are single list operations, atomic under the
    interpreter lock, so two passes never get one array.  A pickled layout
    keeps none.
    """

    def __init__(self):
        self._by_width: dict[int, list] = {}

    def __reduce__(self):
        return (_SpareArrays, ())

    def take(self, rows: int, columns: int) -> np.ndarray:
        """An uninitialized (rows, columns) array."""
        kept = self._by_width.get(columns)
        if kept:
            try:
                return kept.pop()
            except IndexError:  # another thread took the last one
                pass
        return np.empty((rows, columns))

    def give(self, *arrays: np.ndarray) -> None:
        """Keep arrays that nothing else refers to any more, while they fit."""
        for a in arrays:
            if a.nbytes < _SPARE_MIN:
                continue
            held = sum(x.nbytes for kept in list(self._by_width.values()) for x in list(kept))
            if held + a.nbytes <= _SPARE_BYTES:
                self._by_width.setdefault(a.shape[1], []).append(a)


@dataclass(frozen=True)
class Layout:
    """Compiled structure, shared by circuits that differ only in parameters.

    Passes keep node values in slots (see the layer-plan comment above):
    ``slot`` maps a node id to its slot and ``order`` a slot to its node id.
    The leaves of each kind hold consecutive slots (:meth:`leaf_slots`), and
    each layer holds G * W of them from its ``start``.  Node ids, the order of
    :attr:`sum_edge_order` and of training's parameters do not depend on slots.

    The leaves and the product layers before the first sum layer have no
    sum below them, so a masked pass computes their ``invariant`` slots,
    the first ones, once for all its passes (:func:`forward_log_values`).
    ``prefix`` is the first layer that runs in every pass's column: the
    first sum layer, or the product layer fused into it.  ``narrow`` flags
    each sum layer that reads only the invariant slots, and ``shared``
    lists those slots that the other layers past the prefix read.

    ``fused`` flags each product layer that only the next layer reads: a
    sum layer whose groups' children are the products' slots in order,
    whole product groups per sum group, with no root among the products.
    Every pass makes those products inside the sum layer's step, a block of
    sum groups at a time (:meth:`steps`).
    """

    layers: list
    leaves: dict  # leaf kind -> (node ids, variables)
    # Plan order of the sum edges: sum layers in plan order, each layer's
    # (G, S, K) edges flattened.  Entry e is the :meth:`Circuit.sum_edges`
    # index of the e-th edge in that order.
    sum_edge_order: np.ndarray
    is_tree: bool
    slot: np.ndarray
    order: np.ndarray
    prefix: int
    invariant: int
    narrow: tuple
    shared: np.ndarray
    fused: tuple
    spare: _SpareArrays = field(default_factory=_SpareArrays, repr=False, compare=False)

    @property
    def num_sum_edges(self) -> int:
        return len(self.sum_edge_order)

    @property
    def num_leaves(self) -> int:
        return sum(len(ids) for ids, _ in self.leaves.values())

    def leaf_slots(self, kind: str) -> slice:
        """The slots of the leaves of one kind, in the order of ``leaves``."""
        start = 0
        for k, (ids, _) in self.leaves.items():
            if k == kind:
                return slice(start, start + len(ids))
            start += len(ids)
        raise KeyError(kind)

    def steps(self, layers: range):
        """(k, products, layer) for each step of a pass over ``layers``, which
        holds both layers of a fused pair or neither: layer k alone, with
        ``products`` None, or, where :attr:`fused` flags product layer k - 1,
        that product layer inside the step of sum layer k, which makes each
        block's products itself (:meth:`ProductLayer.feeding`)."""
        for k in layers:
            if not self.fused[k]:
                yield k, self.layers[k - 1] if k and self.fused[k - 1] else None, self.layers[k]

    @functools.cached_property
    def regions(self) -> tuple[list[int], list[int]]:
        """Per node, as plain ints built on first use: its connected component
        once the nodes that no node reads, the roots, are taken out (-1 for
        those), and the first sum over its set of children (-1 for a node that
        is no sum).  On a RAT the components are the repetitions, and the sums
        over one set of children are the sums of one region."""
        ends = [layer.edge_ends() for layer in self.layers]
        parents, children = (np.concatenate([np.zeros(0, dtype=np.int64)] + [e[k] for e in ends])
                             for k in (0, 1))
        read = np.zeros(len(self.order), dtype=bool)
        read[children] = True
        parents, children = parents[read[parents]], children[read[parents]]
        label = np.arange(len(self.order))
        while True:  # each edge lowers both its ends to the lower label
            low = np.minimum(label[parents], label[children])
            lowered = label.copy()
            np.minimum.at(lowered, parents, low)
            np.minimum.at(lowered, children, low)
            if np.array_equal(lowered, label):
                break
            label = lowered
        group, first = [-1] * len(self.order), {}
        for layer in self.layers:
            if layer.kind == "sum":
                for members, kids in zip(layer.nodes.tolist(), layer.children.tolist()):
                    g = first.setdefault(frozenset(kids), members[0])
                    for i in members:
                        group[i] = g
        return np.where(read, label, -1).tolist(), group

    def values(self, columns: int) -> np.ndarray:
        """An uninitialized (nodes, columns) array for one pass, in slot order."""
        return self.spare.take(len(self.order), columns)

    def finish(self, values: np.ndarray, nodes=None) -> np.ndarray:
        """The rows of ``nodes`` of a finished pass's slot-order array, in the
        order given; by default every node, in node order.  Asking for
        :attr:`order` returns ``values`` itself; otherwise the rows are
        copied and ``values`` is kept for a later pass, so the caller must
        hold no other reference to it."""
        if nodes is None:
            rows = values[self.slot]
        else:
            slots = self.slot[nodes]
            if len(slots) == len(values) and np.array_equal(slots, np.arange(len(values))):
                return values
            rows = values[slots]
        self.spare.give(values)
        return rows


@dataclass(frozen=True)
class Plan:
    """A layout plus one circuit's parameters as arrays, validated once: a
    non-finite leaf parameter raises ParameterError on construction.

    ``log_weights`` holds each sum layer's (G, S, K) log weights, None for a
    product layer; ``weights`` are their exponentials.
    ``log_probs`` is -inf past each categorical leaf's states.
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
        """Write each leaf's log value for the rows of X into its slots of
        ``out``, in blocks of leaves; NaN (marginalized) gives log 1 = 0, and
        a single row fills every column."""
        values = np.ascontiguousarray(X.T)  # (variables, rows)
        missing = np.isnan(values)
        any_missing = missing.any()
        first = 0
        for kind, (ids, variables) in self.layout.leaves.items():
            evaluate = self._gaussian if kind == "gaussian" else self._categorical
            for b in node_blocks(len(ids), 1, len(X)):
                evaluate(values[variables[b]], missing[variables[b]] if any_missing else None,
                         b, out[first + b.start : first + b.stop])
            first += len(ids)

    def _gaussian(self, x: np.ndarray, missing: Optional[np.ndarray], b: slice,
                  out: np.ndarray) -> None:
        # -0.5 z^2 - log_std - log(2 pi) / 2, in place on cache-sized blocks;
        # x is a gathered copy, so z may take its place
        z = np.subtract(x, self.mean[b, None], out=x)
        z *= self.inv_std[b, None]
        np.multiply(z, -0.5, out=out)
        out *= z
        out -= self.log_std[b, None]
        out -= 0.5 * LOG_2PI
        if missing is not None:
            np.copyto(out, 0.0, where=missing)

    def _categorical(self, x: np.ndarray, missing: Optional[np.ndarray], b: slice,
                     out: np.ndarray) -> None:
        states = self.states[b, None]
        observed = np.ones(x.shape, dtype=bool) if missing is None else ~missing
        bad = observed & ((x != np.floor(x)) | (x < 0) | (x >= states))
        if np.any(bad):
            states = states[np.flatnonzero(bad.any(axis=1))[0], 0]
            raise ShapeError(f"categorical values invalid for {states} states")
        k = np.where(observed, x, 0.0).astype(np.int64)
        out[...] = np.where(observed, self.log_probs[b][np.arange(len(k))[:, None], k], 0.0)


def _compile_layout(circuit: Circuit) -> Layout:
    nodes = circuit.nodes
    n = len(nodes)
    fan_in = np.array([len(node.children) if node.kind == "sum" else 0 for node in nodes])
    edge_start = np.cumsum(fan_in) - fan_in
    depth = [0] * n
    levels: dict[tuple[int, str], list[int]] = {}
    for i, node in enumerate(nodes):
        if node.children:
            depth[i] = 1 + max(map(depth.__getitem__, node.children))
        levels.setdefault((depth[i], node.kind), []).append(i)

    stacked, edge_order = [], []  # (kind, nodes, factors, distinct) per layer
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
            distinct = all(len(np.unique(f)) == f.size for f in factors)
            if kind == "sum":
                edges = edge_start[ids][:, :, None] + np.arange(factors[0].shape[1])
                edge_order.append(edges.ravel())
            stacked.append((kind, ids, factors, distinct))

    order = np.concatenate([ids for ids, _ in leaves.values()]
                           + [ids.ravel() for _, ids, _, _ in stacked])
    slot = np.empty(n, dtype=np.int64)
    slot[order] = np.arange(n)
    layers, start = [], sum(len(ids) for ids, _ in leaves.values())
    for kind, ids, factors, distinct in stacked:
        reads = tuple(SlotRead.of(slot[f]) for f in factors)
        if kind == "sum":
            layers.append(SumLayer(ids, factors[0], distinct, start, reads))
        else:
            layers.append(ProductLayer(ids, factors, distinct, start, reads))
        start += ids.size

    references = np.concatenate([layer.edge_ends()[1] for layer in layers] + [circuit.roots])
    parents = np.bincount(references.astype(np.int64), minlength=n)
    first_sum = next((k for k, layer in enumerate(layers) if layer.kind == "sum"), len(layers))
    invariant = layers[first_sum].start if first_sum < len(layers) else n
    narrow = tuple(layer.kind == "sum" and bool(np.all(layer.reads[0].slots < invariant))
                   for layer in layers)
    wide_reads = [read.slots.ravel() for layer, one in zip(layers[first_sum:], narrow[first_sum:])
                  if not one for read in layer.reads]
    shared = np.unique(np.concatenate([np.zeros(0, dtype=np.int64)] + wide_reads))
    # reads per slot: a sum group reads each child once, and the roots are read too
    readers = np.bincount(np.concatenate([read.slots.ravel() for layer in layers
                                          for read in layer.reads] + [slot[circuit.roots]]),
                          minlength=n)
    fused = tuple(
        layer.kind == "product" and sums is not None and sums.kind == "sum"
        and sums.children.shape[1] % layer.nodes.shape[1] == 0
        and np.array_equal(sums.reads[0].slots.ravel(),
                           np.arange(layer.start, layer.start + layer.nodes.size))
        and bool(np.all(readers[layer.start : layer.start + layer.nodes.size] == 1))
        for layer, sums in zip(layers, layers[1:] + [None]))
    prefix = first_sum - 1 if first_sum and fused[first_sum - 1] else first_sum
    return Layout(layers, leaves, np.concatenate([np.zeros(0, dtype=np.int64)] + edge_order),
                  bool(np.all(parents <= 1)), slot, order, prefix, invariant, narrow,
                  shared[shared < invariant], fused)


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
        ).reshape(layer.shape)
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
    return forward_log_values(circuit, values[None, :], nodes=circuit.roots)[:, 0]


def log_likelihood_batch(circuit: Circuit, X: np.ndarray) -> np.ndarray:
    """Log value of every class root for a batch: returns (rows, classes).

    Rows run BATCH_ROWS at a time, so the node values held stay bounded for
    any batch size.
    """
    X = as_batch(X, circuit.num_variables)
    out = np.empty((X.shape[0], circuit.num_classes))
    for s in range(0, X.shape[0], BATCH_ROWS):
        rows = slice(s, s + BATCH_ROWS)
        out[rows] = forward_log_values(circuit, X[rows], nodes=circuit.roots).T
    return out


def forward_log_values(circuit: Circuit, X: np.ndarray, keep: Optional[np.ndarray] = None,
                       nodes=None) -> np.ndarray:
    """Log values of ``nodes``, shape (len(nodes), columns), from one loop
    over layers; by default every node, in node order.

    Without ``keep`` the columns are the rows of X.  Monte Carlo dropout
    passes a (passes, sum edges) boolean mask with one row in X, its edges in
    the plan order of :attr:`Layout.sum_edge_order`: column j is then the pass
    in which a sum edge contributes only where its bit in row j of ``keep``
    holds; its weight is zero elsewhere.  Each sum layer reads its edges' bits
    as a (passes, G, S, K) view.  With one row, the leaves and the product
    layers below the first sum layer (the layout's invariant prefix) are the
    same in every pass, so a masked pass computes them in one column.  The
    sum layers that read only those values shift and exponentiate that
    column once and mix it under each pass's bits, which does each pass's
    arithmetic unchanged.  The other layers run on every pass's column, and
    only the prefix values they read, or that ``nodes`` asks for, are copied
    into every column.  The pass holds node values in slot order
    (:meth:`Layout.finish`): asking for :attr:`Layout.order` returns that
    array itself, and asking for the roots copies only their rows.  Each
    product layer that :attr:`Layout.fused` flags runs inside the step of
    the sum layer that reads it (:meth:`Layout.steps`), the first one
    included in a masked pass, where it stays in one column.  A request for
    the circuit's roots list itself makes those products in block-sized
    arrays and leaves their slots unwritten; any other request writes them
    into their slots.  Raises ShapeError unless X is (rows, variables) and,
    with ``keep``, one row with a (passes, sum edges) boolean mask.
    """
    plan = circuit.plan()
    layout = plan.layout
    X = as_batch(X, circuit.num_variables)
    if keep is not None:
        keep = np.asarray(keep)
        if keep.dtype != bool:
            raise ShapeError(f"a keep mask of dtype {keep.dtype}; expected boolean keep bits")
        if X.shape[0] != 1 or keep.ndim != 2 or keep.shape[1] != layout.num_sum_edges:
            raise ShapeError(f"a keep mask of shape {keep.shape} with evidence of shape "
                             f"{X.shape}; expected one row and (passes, "
                             f"{layout.num_sum_edges}) keep bits")
    roots_only = nodes is circuit.roots
    head = layout.values(X.shape[0]) if keep is None else np.empty((layout.invariant, 1))
    plan.leaf_log_values(X, head)
    with np.errstate(divide="ignore"):
        _forward_layers(plan, range(layout.prefix), head, head, roots_only)
        if keep is None:
            logv = head
        else:
            logv = layout.values(len(keep))
            logv[layout.shared] = head[layout.shared]
        _forward_layers(plan, range(layout.prefix, len(layout.layers)), logv, head, roots_only,
                        keep)
    if keep is not None:  # after the layers, which make the fused prefix products in head
        wanted = np.arange(layout.invariant) if nodes is None else layout.slot[nodes]
        wanted = wanted[wanted < layout.invariant]
        logv[wanted] = head[wanted]
    return layout.finish(logv, nodes)


def _forward_layers(plan: Plan, layers: range, values: np.ndarray, head: np.ndarray,
                    roots_only: bool, keep: Optional[np.ndarray] = None) -> None:
    """Run the plan's ``layers`` on the slot-order ``values``, step by step
    (:meth:`Layout.steps`), with the first sum edge of ``keep`` in the first
    of them.  Sum layers that :attr:`Layout.narrow` flags, and the product
    layer fused into one, read from ``head``, which holds the invariant
    prefix's slots.  A fused product layer writes its slots, in the array
    it reads from, unless the pass is ``roots_only``."""
    layout = plan.layout
    columns = values.shape[1]
    start = 0  # the layer's first edge in plan order
    for k, products, layer in layout.steps(layers):
        if layer.kind == "product":
            for b in layer.blocks(columns):
                layer.outer([read.read(values, b) for read in layer.reads],
                            out=layer.output(values, b))
            continue
        w, lw = plan.weights[k], plan.log_weights[k]
        kept = None if keep is None else keep[:, start : start + w.size].reshape(-1, *w.shape)
        start += w.size
        source = head if layout.narrow[k] else values
        for b in layer.blocks(columns):
            if products is None:
                x = layer.reads[0].read(source, b)
            else:
                g = products.feeding(layer, b)
                x = products.outer([read.read(source, g) for read in products.reads],
                                   out=None if roots_only else products.output(source, g))
                x = x.reshape(b.stop - b.start, -1, x.shape[-1])
            layer.output(values, b)[...] = log_mix(w[b], lw[b], x,
                                                   None if kept is None else kept[:, b])


def log_mix(w: np.ndarray, log_w: np.ndarray, x: np.ndarray,
            kept: Optional[np.ndarray] = None) -> np.ndarray:
    """log sum_k w_k exp(x_k) for every sum of a block of groups.

    ``w`` and ``log_w`` are the (g, S, K) weights and their logs, ``x`` the
    groups' (g, K, columns) child log values; a (columns, g, S, K) boolean
    ``kept`` drops each column's edges where it is False, as masked passes
    do, and is read in place.  Under ``kept``, ``x`` may instead hold one
    column that every pass shares.  Each group and column is shifted by its
    largest child value and mixed in linear space as one matrix product.  The
    shift ignores the weights, so a sum whose weighted children all sit far
    below a zero-weight or dropped sibling flushes to zero or a subnormal;
    those entries are recomputed as exact log-sum-exps.
    """
    m = x.max(axis=1, keepdims=True)
    shift = np.maximum(m, SHIFT_FLOOR)
    lin = np.subtract(x, shift)
    np.exp(lin, out=lin)
    if kept is None:
        mixed = mix(w, lin)
    else:  # a shared column is read at stride 0 along the passes
        x = np.broadcast_to(x, (*x.shape[:2], len(kept)))
        mixed = np.einsum("gsk,cgsk,gkc->gsc", w, kept, np.broadcast_to(lin, x.shape))
    return log_shifted(mixed, shift, lambda: m > -np.inf, lambda g, s, c: x[g, :, c] + (
        log_w[g, s] if kept is None else np.where(kept[c, g, s], log_w[g, s], -np.inf)))


def mix(w: np.ndarray, lin: np.ndarray) -> np.ndarray:
    """(g, S, K) weights times (g, K, columns) linear values, one matrix
    product per group, in einsum's own loops, so that each column's bits do
    not depend on how many columns a pass holds: a single row is a batch of
    one to the bit, and a batch split into passes equals one pass.  BLAS
    (np.matmul) picks its kernel by the product's width, gemv for one column
    and other kernels for other widths, so there a column's bits change
    with the batch width.  einsum has such a case too: where both operands
    hold their K values contiguously, as the weights and a single column
    do, it sums them in SIMD lanes, while it adds them one k at a time
    otherwise.  So a single column is mixed from a copy with a gap after
    each value."""
    if lin.shape[-1] == 1:
        spaced = np.empty((*lin.shape[:-1], 2))
        spaced[..., :1] = lin
        lin = spaced[..., :1]
    return np.einsum("gsk,gkc->gsc", w, lin)


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
            "children": [int(c) for c in node.children],
            "log_weights": [float(w) for w in node.log_weights],
        }
    if node.kind == "product":
        return {"kind": "product", "children": [int(c) for c in node.children]}
    if node.kind == "gaussian":
        return {
            "kind": "gaussian",
            "variable": int(node.variable),
            "mean": float(node.mean),
            "log_std": float(node.log_std),
        }
    return {
        "kind": "categorical",
        "variable": int(node.variable),
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
            return GaussianLeaf(obj["variable"], float(obj["mean"]), float(obj["log_std"]))
        if kind == "categorical":
            return CategoricalLeaf(obj["variable"], np.array(obj["log_probs"], dtype=np.float64))
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed node record: {exc}") from exc
    raise SerializationError(f"unknown node kind {kind!r}")


def serialize(circuit: Circuit) -> bytes:
    """Encode a valid circuit as the versioned JSON file format.

    Floats are written as their ``repr``, the shortest decimal that parses
    back to the same double, so every parameter round-trips bit for bit,
    -0.0 included; infinities and NaN use the tokens ``Infinity``,
    ``-Infinity`` and ``NaN``, which the stdlib parser reads back.
    """
    report = validate(circuit)
    if not report.ok:
        raise SerializationError(f"refusing to serialize an invalid circuit:\n{report}")
    doc = {
        "version": CIRCUIT_FORMAT_VERSION,
        "num_variables": int(circuit.num_variables),
        "log_class_priors": [float(p) for p in circuit.log_class_priors],
        "roots": [int(r) for r in circuit.roots],
        "nodes": [_node_to_json(n) for n in circuit.nodes],
    }
    return json.dumps(doc).encode()


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
            roots=list(doc["roots"]),
            num_variables=int(doc["num_variables"]),
            log_class_priors=np.array(doc["log_class_priors"], dtype=np.float64),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed circuit file: {exc}") from exc
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
