"""Circuit data model, structural validation, the circuit file, the layer
plan, and log-space likelihood inference.

A circuit is nodes in topological order (children strictly before parents),
held as columns, one array per field of every node of a kind, the arrays of
the circuit file; node objects are built from them only when read.  Sum
nodes mix same-scope children with normalized weights, product nodes
factorize disjoint-scope children, and leaves are univariate distributions.
On first use a circuit compiles from its columns into a layer plan, stacks of
node groups that each run as one dense step: sums that share a child list mix
it as one matrix product, and products that are every combination of their
factors' nodes add them as one outer sum.  Every pass runs on these groups:
the forward pass here (one row is a batch of one, and a keep mask turns its
columns into Monte Carlo dropout passes), the moment pass, and training's
reverse pass, which walks the groups backwards.

Circuits are treated as immutable after construction: evaluation never writes
to the columns, and the cached plan is derived from them, so a circuit can be
shared freely across threads.  The one thing passes share is the layout's
store of spare pass arrays, and each array is taken from it whole.
Validation is a separate pass rather than a constructor check, which keeps it
possible to build deliberately broken circuits for negative tests.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
import numbers
import threading
import zipfile
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Optional, Sequence, Union

import numpy as np
from numpy.lib import format as npy_format

from .errors import ParameterError, SerializationError, ShapeError, StructureError

LOG_2PI = math.log(2.0 * math.pi)

NORMALIZATION_TOL = 1e-9

# The least Gaussian log std whose 1 / std, exp(-log_std), is finite.
MIN_LOG_STD = -math.log(np.finfo(np.float64).max)

CIRCUIT_FORMAT_VERSION = 2  # the version serialize() writes


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


class Circuit:
    """Nodes in topological order plus one root per class.

    A circuit holds its nodes as columns (:class:`_Columns`), the arrays of
    the circuit file: :func:`circuq.structures.build_rat`,
    :func:`deserialize` and training make such circuits, and validation,
    the file and the layer plan read the columns.  ``nodes`` is a list of
    node objects built from them on first read; from then on that list is
    the circuit's nodes, so an edit to it shows in :func:`validate` and
    :func:`serialize`.  ``Circuit(nodes, roots, num_variables,
    log_class_priors)`` makes a circuit of node objects, as hand-built
    circuits are made; their columns are converted from the nodes where
    they are read.
    """

    def __init__(self, nodes: Optional[list], roots: list, num_variables: int,
                 log_class_priors: np.ndarray):
        if nodes is not None:
            self.nodes = nodes
        self._source = None  # the columns, or a function that makes them
        self.roots = roots
        self.num_variables = num_variables
        self.log_class_priors = log_class_priors
        self._scopes: Optional[list[int]] = None
        self._layout: Optional[Layout] = None
        self._plan: Optional[Plan] = None

    @functools.cached_property
    def nodes(self) -> list:
        """The node objects, built from the columns on first read and then
        kept as a plain attribute, which the exact covariance recursion reads
        once per node pair."""
        return _node_view(_columns(self))

    @property
    def num_classes(self) -> int:
        return len(self.roots)

    def scopes(self) -> list[int]:
        """Per-node variable scope as a bitmask over variable indices."""
        if self._scopes is None:
            scopes: list[int] = []
            for node in self.nodes:
                if node.kind in ("gaussian", "categorical"):
                    scopes.append(1 << int(node.variable))  # a numpy integer would overflow
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

    def with_plan(self, plan: "Plan") -> "Circuit":
        """This circuit with the parameters of ``plan``, a plan of its layout.

        The new circuit carries that plan, so its passes compile nothing, and
        its columns are derived from this circuit's and the plan when first
        read.
        """
        circuit = _backed(functools.partial(_planned_columns, self, plan), self.roots,
                          self.num_variables, self.log_class_priors)
        circuit._layout, circuit._plan = plan.layout, plan
        return circuit


def _backed(source, roots: list, num_variables: int, log_class_priors: np.ndarray) -> Circuit:
    """A circuit whose nodes are the columns ``source``, or the columns that
    the function ``source`` makes when first called."""
    circuit = Circuit(None, roots, num_variables, log_class_priors)
    circuit._source = source
    return circuit


def _of_columns(c: "_Columns") -> Circuit:
    """The circuit whose columns ``c`` are."""
    return _backed(c, c.roots.tolist(), c.num_variables, c.log_class_priors)


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
    and parameters real numbers; violations are data, not exceptions.

    The check runs over the circuit's columns with numpy; only a circuit
    that it does not find valid is walked node by node to name what fails.
    """
    columns = _columns(circuit)
    if columns is not None and columns.valid:
        return ValidationReport([])
    return _node_report(circuit)


# A circuit as columns: one array per field, over every node of a kind in
# node order, with each node's children, weights or probabilities in turn
# (compressed sparse rows).  A circuit holds its nodes in these arrays, the
# circuit file holds them, validate() checks them and the layer plan is
# compiled from them.  Columns are not written once made, so each object
# checks itself (valid, from _holds) and analyses its runs once; a circuit
# with other parameters has new columns (dataclasses.replace).

_SUM, _PRODUCT, _GAUSSIAN, _CATEGORICAL = range(4)  # kind codes, the leaves' last
_TYPE_CODE = {SumNode: _SUM, ProductNode: _PRODUCT, GaussianLeaf: _GAUSSIAN,
              CategoricalLeaf: _CATEGORICAL}
_INT, _REAL = np.dtype("<i8"), np.dtype("<f8")


@dataclass
class _Columns:
    num_variables: int
    kinds: np.ndarray  # uint8 kind code per node
    counts: np.ndarray  # children per node, 0 for a leaf
    children: np.ndarray  # each node's child ids in turn
    log_weights: np.ndarray  # each sum's log weights in turn
    variables: np.ndarray  # per leaf, Gaussian or categorical
    means: np.ndarray  # per Gaussian leaf
    log_stds: np.ndarray  # per Gaussian leaf
    states: np.ndarray  # per categorical leaf, its number of log probabilities
    log_probs: np.ndarray  # each categorical leaf's log probabilities in turn
    roots: np.ndarray
    log_class_priors: np.ndarray

    valid = functools.cached_property(lambda self: _holds(self))

    @functools.cached_property
    def runs(self) -> tuple:
        """(starts, head, runs, fan, first, kids): each node's first child,
        its run's first node (:func:`_run_heads`), the runs' first nodes
        that have children, their child counts, each one's first child in
        ``kids``, and their children in turn."""
        starts = np.cumsum(self.counts) - self.counts
        head = _run_heads(self.kinds, self.counts, starts, self.children)
        runs = np.flatnonzero((head == np.arange(len(head))) & (self.counts > 0))
        fan = self.counts[runs]
        first = np.cumsum(fan) - fan
        kids = self.children[np.repeat(starts[runs] - first, fan) + np.arange(fan.sum())]
        return starts, head, runs, fan, first, kids


_MEMBERS = {"kinds": np.dtype(np.uint8), "counts": _INT, "children": _INT,
            "log_weights": _REAL, "variables": _INT, "means": _REAL, "log_stds": _REAL,
            "states": _INT, "log_probs": _REAL, "roots": _INT, "log_class_priors": _REAL}


def _ids(values: list) -> Optional[np.ndarray]:
    """Node ids or variables as int64 when each is an int or a numpy integer,
    as :func:`_node_report` requires, else None.  The types are tested as a
    set: np.array would take a bool as 1 and truncate a float."""
    if not all(t is int or issubclass(t, np.integer) for t in set(map(type, values))):
        return None
    try:
        return np.array(values, dtype=_INT)
    except OverflowError:  # out of range for any node or variable
        return None


def _reals(values: list) -> Optional[np.ndarray]:
    """Gaussian parameters as float64 when each is a real number, else None."""
    if not all(issubclass(t, numbers.Real) for t in set(map(type, values))):
        return None
    try:
        return np.array(values, dtype=_REAL)
    except OverflowError:
        return None


def _tables(tables: list) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(float64 concatenation, lengths) of one-axis tables of real numbers,
    else None."""
    if not tables:
        return np.zeros(0, dtype=_REAL), np.zeros(0, dtype=_INT)
    try:
        flat = np.concatenate(tables)
        lengths = np.fromiter(map(len, tables), dtype=_INT, count=len(tables))
    except (TypeError, ValueError):  # a scalar, a zero-axis array, or types numpy cannot mix
        return None
    if flat.ndim != 1 or flat.dtype.kind not in "biuf":
        return None
    return flat.astype(_REAL, copy=False), lengths


def _columns(circuit: Circuit) -> Optional[_Columns]:
    """The circuit's columns: its own, made on first call where they are
    derived, until its nodes are read; from then on the nodes' columns,
    converted afresh on each call (:func:`_node_columns`)."""
    if "nodes" in vars(circuit):
        return _node_columns(circuit)
    if not isinstance(circuit._source, _Columns):
        circuit._source = circuit._source()
    return circuit._source


def _node_columns(circuit: Circuit) -> Optional[_Columns]:
    """The columns of the circuit's nodes, or None when a value is of a type
    that :func:`_node_report` reports or that the columns cannot hold
    exactly: an id or variable that is no integer, a parameter that is no
    real number, a weight table whose length is not its sum's child count, a
    leaf with children, or a ``num_variables`` that is no int."""
    num_variables = circuit.num_variables
    if type(num_variables) is not int or num_variables < 0:
        return None
    nodes = circuit.nodes
    try:
        codes = np.fromiter(map(_TYPE_CODE.__getitem__, map(type, nodes)), dtype=np.uint8,
                            count=len(nodes))
    except KeyError:  # a node of another type, which the node report judges by its kind
        return None
    kids = list(map(attrgetter("children"), nodes))
    counts = np.fromiter(map(len, kids), dtype=_INT, count=len(kids))
    children = _ids(list(itertools.chain.from_iterable(kids)))
    roots = _ids(list(circuit.roots))

    def of_kind(mask, field):
        return list(map(attrgetter(field), itertools.compress(nodes, mask.tolist())))

    weights = _tables(of_kind(codes == _SUM, "log_weights"))
    variables = _ids(of_kind(codes >= _GAUSSIAN, "variable"))
    gaussian = codes == _GAUSSIAN
    means = _reals(of_kind(gaussian, "mean"))
    log_stds = _reals(of_kind(gaussian, "log_std"))
    probs = _tables(of_kind(codes == _CATEGORICAL, "log_probs"))
    priors = np.asarray(circuit.log_class_priors)
    if (children is None or roots is None or weights is None or variables is None
            or means is None or log_stds is None or probs is None
            or not np.array_equal(weights[1], counts[codes == _SUM])
            or np.any(counts[codes >= _GAUSSIAN])
            or priors.ndim != 1 or priors.dtype.kind not in "biuf"):
        return None
    return _Columns(num_variables, codes, counts, children, weights[0], variables, means,
                    log_stds, probs[1], probs[0], roots, priors.astype(_REAL, copy=False))


def _planned_columns(circuit: Circuit, plan: "Plan") -> _Columns:
    """The columns of ``circuit`` with the sum log weights and Gaussian
    parameters of ``plan``, a plan of its layout: the plan's edges go back to
    node order through :attr:`Layout.sum_edge_order`, and its Gaussian
    leaves are in node order already."""
    layout = plan.layout
    log_weights = np.empty(layout.num_sum_edges)
    log_weights[layout.sum_edge_order] = np.concatenate(
        [np.zeros(0)] + [lw.ravel() for lw in plan.log_weights if lw is not None])
    return replace(_columns(circuit), log_weights=log_weights, means=plan.mean,
                   log_stds=plan.log_std)


# validate() decides a circuit valid from its columns only where a
# normalization sum clears NORMALIZATION_TOL by this many ulps per term: the
# columns sum each table's exponentials in another order than the node
# report does, and the two may differ in the last bits.
_SUM_ULPS = 4

# Scopes are filled by relaxation, one pass per level of the circuit; a
# circuit deeper than this is left to the node report.
_SCOPE_ROUNDS = 64


def _normalized(log_values: np.ndarray, lengths: np.ndarray) -> bool:
    """True when every table of ``lengths`` consecutive log values has
    exponentials that sum to 1 within NORMALIZATION_TOL, with a margin for
    rounding; False when one does not, or is too close to tell."""
    if not len(lengths):
        return True
    if np.any(lengths == 0):
        return False
    totals = np.add.reduceat(np.exp(log_values), np.cumsum(lengths) - lengths)
    margin = _SUM_ULPS * np.finfo(np.float64).eps * lengths
    return bool(np.all(np.abs(totals - 1.0) <= NORMALIZATION_TOL - margin))


def _holds(c: _Columns) -> bool:
    """True when the columns meet every rule of :func:`_node_report`; False
    when one fails, or when the arithmetic is too close to tell.

    The rules on a node's children hold for a node of a run (:func:`_run_heads`)
    when they hold for its run's first node, which has the same kind and
    children and a lower id; so they are checked on the first nodes alone
    (:attr:`_Columns.runs`).
    """
    n, kinds, counts = len(c.kinds), c.kinds, c.counts
    _, head, runs, fan, edge, kids = c.runs
    if (np.any(counts[kinds < _GAUSSIAN] == 0) or not len(c.roots)
            # a root covers every variable only if each is some leaf's
            or c.num_variables > len(c.variables)
            or not np.all((c.roots >= 0) & (c.roots < n))
            or not np.all((kids >= 0) & (kids < np.repeat(runs, fan)))
            or not np.all((c.variables >= 0) & (c.variables < c.num_variables))
            or not (np.all(np.isfinite(c.means)) and np.all(np.isfinite(c.log_stds)))
            or np.any(c.log_stds < MIN_LOG_STD)
            or not _normalized(c.log_weights, counts[kinds == _SUM])
            or not _normalized(c.log_probs, c.states)
            or len(c.log_class_priors) != len(c.roots)
            or _unnormalized(c.log_class_priors) is not None):
        return False

    # Scopes as bit-words, 64 variables to a uint64, a row of words per node.
    # A sum takes its first child's scope and a product the union of its
    # children's, level by level until none changes, on the runs' first
    # nodes, which read their children's runs' first nodes; then each node
    # takes its run's scope.  Then, when each sum's children all share its
    # scope, every scope is the union of the node's children's, as the node
    # report computes it.
    words = max(1, -(-c.num_variables // 64))
    scope = np.zeros((n, words), dtype=np.uint64)
    scope[np.flatnonzero(kinds >= _GAUSSIAN), c.variables // 64] = (
        np.uint64(1) << (c.variables % 64).astype(np.uint64))
    summing = kinds[runs] == _SUM
    # A round ORs each node's k-th scope-setting child into it, for every k;
    # with the nodes ranked by how many they have, those that have a k-th
    # are a prefix.
    fan_in = np.where(summing, 1, fan)
    rank = np.argsort(-fan_in, kind="stable")
    ranked, first = runs[rank], edge[rank]
    have = np.searchsorted(-fan_in[rank], -np.arange(fan_in.max(initial=0)))
    settings = head[kids]
    columns = [settings[first[:m] + k] for k, m in enumerate(have.tolist())]
    for _ in range(_SCOPE_ROUNDS):
        relaxed = np.zeros((len(ranked), words), dtype=np.uint64)
        for column in columns:
            relaxed[: len(column)] |= np.take(scope, column, axis=0)
        if np.array_equal(relaxed, np.take(scope, ranked, axis=0)):
            break
        scope[ranked] = relaxed
    else:
        return False
    scope = np.take(scope, head, axis=0)  # rows taken whole: faster than indexing
    if not np.array_equal(np.take(scope, kids[np.repeat(summing, fan)], axis=0),
                          np.repeat(scope[runs[summing]], fan[summing], axis=0)):
        return False
    bits = np.bitwise_count(scope).sum(axis=1, dtype=_INT)
    products = fan[~summing]
    if not np.array_equal(np.add.reduceat(bits[kids[np.repeat(~summing, fan)]],
                                          np.cumsum(products) - products),
                          bits[runs[~summing]]):
        return False
    full = np.full(words, np.iinfo(np.uint64).max, dtype=np.uint64)
    if c.num_variables % 64:
        full[-1] = (np.uint64(1) << np.uint64(c.num_variables % 64)) - np.uint64(1)
    return bool(np.all(scope[c.roots] == full))


def _node_report(circuit: Circuit) -> ValidationReport:
    """The report of :func:`validate`, node by node: the reference that the
    array check (:func:`_holds`) must agree with, and what names violations."""
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
            elif node.log_std < MIN_LOG_STD:
                bad(i, "leaf-parameter", f"Gaussian log_std {node.log_std!r} is below "
                    f"{MIN_LOG_STD:.6g}, where 1 / std overflows")
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
# groups and the products they read at a time, and mixes the products in
# linear space from their factors (factored_exp): each factor is shifted by
# its own largest value and exponentiated, and the shifted linear factors
# multiply over the outer product, so no log product is formed or
# exponentiated.  Every other sum layer, as in trees and DAGs, runs the same
# kernel on its children read as products of one factor (Layout.mixes), so
# each pass has one sum kernel.  The request decides only whether the log
# products of a fused layer, which no sum reads, are also written: a
# roots-only request never writes their slots, and any other request writes
# them there.  Training runs the roots-only steps, and its reverse pass
# remakes each block's shifted linear products from the factors and sends
# their adjoints straight to the factors' slots (circuq.train), so it
# neither writes nor reads them.

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
    """One layer input: the (G, W) slots it reads, or the (G, F, W) slots
    of F inputs of one width read as one, and their strides, one per axis,
    when the slots are affine, first + g * stride_g + ... + w * stride_w,
    None otherwise."""

    slots: np.ndarray
    strides: Optional[tuple]
    first: int = 0

    @staticmethod
    def of(slots: np.ndarray) -> "SlotRead":
        if slots.size == 0:
            return SlotRead(slots, None)
        first = int(slots.flat[0])
        strides = tuple(int(slots.take(1, axis).flat[0]) - first if n > 1 else 0
                        for axis, n in enumerate(slots.shape))
        affine = first + sum(stride * np.arange(n).reshape((-1,) + (1,) * (slots.ndim - 1 - axis))
                             for axis, (stride, n) in enumerate(zip(strides, slots.shape)))
        return SlotRead(slots, strides if np.array_equal(slots, affine) else None, first)

    def read(self, values: np.ndarray, b: slice) -> np.ndarray:
        """The (groups, W, columns) or (groups, F, W, columns) values of
        groups ``b``: a view of ``values`` where the slots are affine, else a
        gathered copy."""
        if self.strides is None:
            return values[self.slots[b]]
        row, column = values.strides
        return np.ndarray((b.stop - b.start, *self.slots.shape[1:], values.shape[1]), values.dtype,
                          values, (self.first + b.start * self.strides[0]) * row,
                          tuple(stride * row for stride in self.strides) + (column,))

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
    :class:`SlotRead` per factor.  Where every factor has one width S,
    ``stacked`` reads them all as one (G, F, S) input, else it is None.
    A sum layer over no fused layer mixes its children as products of one
    factor (:attr:`Layout.mixes`), which hold no slots: ``start`` is None.
    """

    nodes: np.ndarray
    factors: tuple
    distinct: bool
    start: Optional[int]
    reads: tuple
    stacked: Optional[SlotRead]

    kind = "product"

    def blocks(self, columns: int) -> list[slice]:
        """Group slices whose products stay within the element budget."""
        return node_blocks(len(self.nodes), self.nodes.shape[1], columns)

    @staticmethod
    def outer(parts, fold=np.add, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Fold per-factor (groups, S_f, columns) arrays, factor by factor,
        into the groups' (groups, products, columns) outer combinations; a
        stacked (groups, F, S, columns) input is passed as its
        ``swapaxes(0, 1)``.  Given a contiguous ``out`` of that size, the
        last fold writes there, so ``fold`` must then take ``out=``."""
        acc = parts[0]
        for f in range(1, len(parts)):
            x = parts[f]
            if out is None or f < len(parts) - 1:
                acc = fold(acc[:, :, None], x[:, None])
            else:
                acc = fold(acc[:, :, None], x[:, None],
                           out=out.reshape(len(acc), acc.shape[1], x.shape[1], -1))
            acc = acc.reshape(len(acc), -1, acc.shape[-1])
        if out is not None and len(parts) == 1:
            out.reshape(acc.shape)[...] = acc
        return acc

    def factor_sums(self, adj: np.ndarray) -> list:
        """The reverse of :meth:`outer` with np.add: each factor's (groups,
        S_f, columns) sum of the products' (groups, products, columns)
        ``adj`` over the other factors' axes.  ``adj`` may also be a fused sum
        block's (g, per_sum * products, columns) children, the product groups
        that :meth:`feeding` gives."""
        adj = adj.reshape(-1, *(f.shape[1] for f in self.factors), adj.shape[-1])
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
_PREPARED_BYTES = 1 << 20  # prepared passes a layout keeps for its next passes


@dataclass
class PreparedPass:
    """A pass's (nodes, columns) ``arrays`` and its ``steps``: per layer
    step, the views of those arrays, and of any scratch arrays, that its
    kernels read and write, made once.  ``nbytes`` counts the arrays and
    the scratch."""

    arrays: tuple
    steps: list
    nbytes: int


class _SpareArrays:
    """Value arrays of finished passes, kept by width for later passes of the
    same layout: those of at least ``_SPARE_MIN`` bytes, while they total at
    most ``_SPARE_BYTES``.  And prepared passes (:class:`PreparedPass`),
    kept by request while their bytes total at most ``_PREPARED_BYTES``; a
    pass that does not fit evicts those kept longest ago, lent or not.  A
    pass whose first array its caller holds, as training's does, is kept
    lent: no pass takes it until the caller gives that array back.

    A pass's (nodes, columns) arrays can be large (25 MB each at mid and 256
    rows).  Allocated fresh for every pass, they cost page faults whenever
    glibc has returned the last pass's arrays to the system, which it does
    once freed memory at the top of its heap passes its trim threshold.  A
    kept array is reused in place.  Small arrays cost little to fault in, and
    kept for every width a pipeline uses, they would only add to its memory.
    A small pass costs instead the numpy views that each of its layers
    makes, which a kept prepared pass has made already.  Taking and giving
    arrays are single list operations, atomic under the interpreter lock,
    and prepared passes are taken and given under a lock, so two passes
    never get one array.  A pickled layout keeps none.
    """

    def __init__(self):
        self._by_width: dict[int, list] = {}
        self._prepared: list[list] = []  # [key, pass, lent], the first kept first
        self._lock = threading.Lock()

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
        """Keep arrays that nothing else refers to any more, while they fit;
        the first array of a lent prepared pass returns that pass."""
        for a in arrays:
            with self._lock:
                lent = next((e for e in self._prepared if e[2] and e[1].arrays[0] is a), None)
                if lent is not None:
                    lent[2] = False
                    continue
            if a.nbytes < _SPARE_MIN:
                continue
            held = sum(x.nbytes for kept in list(self._by_width.values()) for x in list(kept))
            if held + a.nbytes <= _SPARE_BYTES:
                self._by_width.setdefault(a.shape[1], []).append(a)

    def take_prepared(self, key: tuple) -> Optional[PreparedPass]:
        """The prepared pass for ``key`` kept last and not lent, or None."""
        with self._lock:
            for i in range(len(self._prepared) - 1, -1, -1):
                if self._prepared[i][0] == key and not self._prepared[i][2]:
                    return self._prepared.pop(i)[1]
        return None

    def give_prepared(self, key: tuple, prepared: PreparedPass, lent: bool = False) -> bool:
        """Keep a prepared pass that nothing else refers to any more, or,
        if ``lent``, whose first array the caller holds until it gives it
        back, if it fits once the passes kept longest ago are dropped;
        returns whether it was kept."""
        with self._lock:
            if prepared.nbytes > _PREPARED_BYTES:
                return False
            held = sum(x.nbytes for _, x, _ in self._prepared)
            while held + prepared.nbytes > _PREPARED_BYTES:
                held -= self._prepared.pop(0)[1].nbytes
            self._prepared.append([key, prepared, lent])
            return True


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
    the first ones, once per evidence row for all of that row's passes
    (:func:`forward_log_values`).
    ``prefix`` is the first layer that runs in every pass's column: the
    first sum layer, or the product layer fused into it.  ``narrow`` flags
    each sum layer that reads only the invariant slots, and ``shared``
    lists those slots that the other layers past the prefix read.

    ``fused`` flags each product layer that only the next layer reads: a
    sum layer whose groups' children are the products' slots in order,
    whole product groups per sum group, with no root among the products,
    and whose factors have one width (:attr:`ProductLayer.stacked`).
    Every pass makes those products inside the sum layer's step, a block of
    sum groups at a time (:meth:`steps`).  ``mixes`` holds per sum layer
    the product layer whose products it mixes: the fused one before it, or
    else its children as the (G, K) products of one factor, F = 1 and S =
    K, each group one whole product group; None per product layer.
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
    mixes: tuple
    roots: np.ndarray  # the slots of the circuit's roots, in its order
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
        holds both layers of a fused pair or neither: a product layer k
        alone, with ``products`` None, or a sum layer k with the products it
        mixes (:attr:`mixes`), which it makes a block at a time itself
        (:meth:`ProductLayer.feeding`), a fused product layer included."""
        for k in layers:
            if not self.fused[k]:
                yield k, self.mixes[k], self.layers[k]

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

    def _rows(self, values: np.ndarray, nodes, roots_only: bool) -> np.ndarray:
        """The rows of ``nodes`` of a finished pass's slot-order array, in the
        order given; by default every node, in node order.  ``roots_only``
        says that ``nodes`` is the circuit's roots list, whose slots the
        layout holds.  Asking for :attr:`order` returns ``values`` itself;
        otherwise the rows are copied."""
        if nodes is None:
            return values[self.slot]
        slots = self.roots if roots_only else self.slot[nodes]
        if len(slots) == len(values) and np.array_equal(slots, np.arange(len(values))):
            return values
        return values[slots]

    def prepared(self, key: tuple, columns: int, count: int, make_steps) -> PreparedPass:
        """A pass of ``count`` (nodes, columns) arrays and its steps: one
        kept for ``key``, which names the pass and its request, or a new one
        whose steps ``make_steps(*arrays)`` makes, returning them and the
        bytes of any scratch arrays they hold."""
        kept = self.spare.take_prepared(key)
        if kept is not None:
            return kept
        arrays = tuple(self.values(columns) for _ in range(count))
        steps, scratch = make_steps(*arrays)
        return PreparedPass(arrays, steps, sum(a.nbytes for a in arrays) + scratch)

    def finish(self, key: tuple, prepared: PreparedPass, nodes=None,
               roots_only: bool = False) -> list:
        """Per array of a finished prepared pass, the rows of ``nodes``
        (:meth:`_rows`).  The pass is kept for the next pass of ``key`` while
        it fits (:class:`_SpareArrays`), and otherwise its arrays are, so the
        caller must hold no other reference to them.  Where the arrays
        themselves were asked for, the pass is kept lent until the caller
        gives the first back (:meth:`_SpareArrays.give`), or evicted."""
        rows = [self._rows(a, nodes, roots_only) for a in prepared.arrays]
        lent = rows[0] is prepared.arrays[0]
        if not self.spare.give_prepared(key, prepared, lent) and not lent:
            self.spare.give(*prepared.arrays)
        return rows

    def pass_steps(self, arrays: tuple, roots_only: bool, head: Optional[tuple] = None):
        """The steps of a pass on its slot-order ``arrays``, one per moment
        the pass carries, and the bytes of the scratch arrays they hold.

        Each step of :meth:`steps` is (k, layer, blocks), with per block of
        the layer's groups b a tuple (b, products, factors, made, children,
        out).  ``products`` is the product layer the block runs: the step's
        own or the one that its sums mix.  ``factors`` holds per array its
        factors' views, a sum step's as one stacked (g, F, S, columns) view,
        and ``made`` per array where its log products go, or None.  A
        product step's ``children`` is None; a sum step's holds per array
        where the sums' kernel makes their shifted linear (g, K, columns)
        children from the factors (:func:`factored_exp`): a scratch array of
        the largest block's size where ``made`` is None, else ``made``
        itself, which the log products overwrite once the linear values are
        mixed.  ``out`` holds per array the layer's output.  A layer that
        gathers its inputs, where its slots are not affine, reads copies
        that each pass makes anew: its ``factors`` are then a function that
        makes them (:func:`step_inputs`).  ``made`` is None for products
        without slots of their own (``start`` None) and, for a request for
        the circuit's roots list itself, for fused products too; any other
        request writes their log values there.  Given ``head``, the masked
        pass's (invariant, rows) arrays, the layers before :attr:`prefix` run on
        those, and the sum layers that :attr:`narrow` flags read them, as
        does a product layer fused into one.
        """
        schedule = []
        for k, products, layer in self.steps(range(len(self.layers))):
            before = head is not None and k < self.prefix
            target = head if before else arrays
            source = head if before or (head is not None and self.narrow[k]) else arrays
            schedule.append((k, products, layer, source, target,
                             layer.blocks(target[0].shape[1])))
        size = max([(b.stop - b.start) * layer.children.shape[1] * source[0].shape[1]
                    for _, products, layer, source, _, blocks in schedule
                    if layer.kind == "sum" and (roots_only or products.start is None)
                    for b in blocks], default=0)
        scratch = [np.empty(size) for _ in arrays] if size else []
        steps = []
        for k, products, layer, source, target, blocks in schedule:
            made_here = []
            for b in blocks:
                out = [layer.output(a, b) for a in target]
                if layer.kind == "product":
                    made_here.append((b, layer, _reads(layer.reads, b, source), out, None, out))
                else:
                    g = products.feeding(layer, b)
                    shape = (b.stop - b.start, layer.children.shape[1], source[0].shape[1])
                    made = (None if roots_only or products.start is None
                            else [products.output(a, g) for a in source])
                    lin = ([x[: math.prod(shape)].reshape(shape) for x in scratch] if made is None
                           else [m.reshape(shape) for m in made])
                    made_here.append((b, products, _reads((products.stacked,), g, source, True),
                                      made, lin, out))
            steps.append((k, layer, made_here))
        return steps, sum(x.nbytes for x in scratch)


def _reads(reads: tuple, b: slice, arrays: tuple, one: bool = False):
    """Per array, the views of ``reads`` for groups ``b`` (the first read
    alone if ``one``), or, where a read gathers, a function that makes the
    copies."""
    for read in reads:
        if read.strides is None:
            return functools.partial(_read, reads, b, arrays, one)
    return _read(reads, b, arrays, one)


def _read(reads: tuple, b: slice, arrays: tuple, one: bool) -> list:
    if one:
        return [reads[0].read(a, b) for a in arrays]
    return [[read.read(a, b) for read in reads] for a in arrays]


def step_inputs(inputs):
    """The inputs of a step of :meth:`Layout.pass_steps`, made now where
    they are gathered."""
    return inputs() if callable(inputs) else inputs


@dataclass(frozen=True)
class Plan:
    """A layout plus one circuit's parameters as arrays, validated once: a
    non-finite leaf parameter, or a Gaussian log std below MIN_LOG_STD,
    raises ParameterError on construction.

    ``log_weights`` holds each sum layer's (G, S, K) log weights, None for a
    product layer; ``weights`` are their exponentials and ``squared_weights``
    the squares of those, made on first use.  Both are (G, S, K) views of one
    (G, S, 2K) array per layer that interleaves them, so a weight's K values
    lie apart in memory and :func:`mix` sums one k at a time at any width.
    A pickled plan is rebuilt from its parameters, so it keeps that layout.
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
        narrow = gaussian[self.log_std < MIN_LOG_STD]
        if len(narrow):
            raise ParameterError(f"Gaussian log std below {MIN_LOG_STD:.6g}, where 1 / std "
                                 f"overflows, at node {int(narrow.min())}")
        object.__setattr__(self, "inv_std", np.exp(-self.log_std))
        weights = []
        for lw in self.log_weights:
            w = None
            if lw is not None:
                w = np.empty((*lw.shape[:2], 2 * lw.shape[2]))[..., ::2]
                w[...] = np.exp(lw)
            weights.append(w)
        object.__setattr__(self, "weights", weights)

    def __reduce__(self):
        return (Plan, (self.layout, self.log_weights, self.mean, self.log_std, self.log_probs,
                       self.states))

    @functools.cached_property
    def squared_weights(self) -> list:
        """Each sum layer's squared weights, beside its weights: only the
        moment pass reads them."""
        return [None if w is None else np.multiply(w, w, out=w.base[..., 1::2])
                for w in self.weights]

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
        # x is a gathered copy, so z may take its place.  A value far out
        # overflows z or z^2 to inf, and its exact log density is -inf.
        with np.errstate(over="ignore"):
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


def _compiled_columns(circuit: Circuit) -> _Columns:
    c = _columns(circuit)
    if c is None:
        raise StructureError("the circuit has node ids, variables or parameters of a type "
                             "no pass can run on; validate() names them")
    return c


def _compile_layout(circuit: Circuit) -> Layout:
    c = _compiled_columns(circuit)
    kinds, counts, children = c.kinds, c.counts, c.children
    n = len(kinds)
    starts, head = c.runs[:2]
    fan_in = np.where(kinds == _SUM, counts, 0)
    edge_start = np.cumsum(fan_in) - fan_in  # each sum's first log weight
    depth = _depths(c)

    stacked, edge_order = [], []  # (kind, nodes, factors, distinct) per layer
    level = 2 * depth + (kinds == _SUM)  # by depth, products before sums
    inner = np.flatnonzero(counts > 0)
    inner = inner[np.argsort(level[inner], kind="stable")]
    for ids in np.split(inner, np.flatnonzero(np.diff(level[inner])) + 1) if len(inner) else ():
        kind = "sum" if kinds[ids[0]] == _SUM else "product"
        for members, factors in (_sum_stacks(ids, counts, starts, children, head)
                                 if kind == "sum" else _product_stacks(ids, counts, starts, children)):
            if kind == "sum":
                edges = edge_start[members][:, :, None] + np.arange(factors[0].shape[1])
                edge_order.append(edges.ravel())
            stacked.append((kind, members, factors, all(map(_distinct, factors))))
    leaf_kinds = kinds[kinds >= _GAUSSIAN]
    leaves = {kind: (np.flatnonzero(kinds == code), c.variables[leaf_kinds == code])
              for kind, code in (("gaussian", _GAUSSIAN), ("categorical", _CATEGORICAL))}

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
            one_width = len({f.shape[1] for f in factors}) == 1
            stacked = SlotRead.of(np.stack([slot[f] for f in factors], 1)) if one_width else None
            layers.append(ProductLayer(ids, factors, distinct, start, reads, stacked))
        start += ids.size

    parents = np.bincount(np.concatenate([children, c.roots]), minlength=n)
    first_sum = next((k for k, layer in enumerate(layers) if layer.kind == "sum"), len(layers))
    invariant = layers[first_sum].start if first_sum < len(layers) else n
    narrow = tuple(layer.kind == "sum" and bool(np.all(layer.reads[0].slots < invariant))
                   for layer in layers)
    wide_reads = [read.slots.ravel() for layer, one in zip(layers[first_sum:], narrow[first_sum:])
                  if not one for read in layer.reads]
    shared = np.zeros(n, dtype=bool)
    shared[np.concatenate([np.zeros(0, dtype=np.int64)] + wide_reads)] = True
    shared = np.flatnonzero(shared)
    # reads per slot: a sum group reads each child once, and the roots are read too
    readers = np.bincount(np.concatenate([read.slots.ravel() for layer in layers
                                          for read in layer.reads] + [slot[c.roots]]),
                          minlength=n)
    fused = tuple(
        layer.kind == "product" and layer.stacked is not None
        and sums is not None and sums.kind == "sum"
        and sums.children.shape[1] % layer.nodes.shape[1] == 0
        and np.array_equal(sums.reads[0].slots.ravel(),
                           np.arange(layer.start, layer.start + layer.nodes.size))
        and bool(np.all(readers[layer.start : layer.start + layer.nodes.size] == 1))
        for layer, sums in zip(layers, layers[1:] + [None]))
    mixes = tuple(None if layer.kind == "product" else layers[k - 1] if k and fused[k - 1]
                  else ProductLayer(layer.children, (layer.children,), layer.distinct, None,
                                    layer.reads, SlotRead.of(slot[layer.children][:, None]))
                  for k, layer in enumerate(layers))
    prefix = first_sum - 1 if first_sum and fused[first_sum - 1] else first_sum
    return Layout(layers, leaves, np.concatenate([np.zeros(0, dtype=np.int64)] + edge_order),
                  bool(np.all(parents <= 1)), slot, order, prefix, invariant, narrow,
                  shared[shared < invariant], fused, mixes, slot[c.roots])


def _run_heads(kinds, counts, starts, children) -> np.ndarray:
    """Per node, the first node of its run: a run is consecutive nodes of one
    kind over one child list, such as the sums of one RAT region."""
    n = len(kinds)
    same = np.zeros(n, dtype=bool)
    same[1:] = (kinds[1:] == kinds[:-1]) & (counts[1:] == counts[:-1]) & (counts[1:] > 0)
    candidates = np.flatnonzero(same)
    for end in (0, 1):  # the first and the last child first
        at = starts[candidates] + end * (counts[candidates] - 1)
        same[candidates] &= children[at] == children[at - counts[candidates]]
    candidates = np.flatnonzero(same)
    # each stretch of candidates shares its child count: their children and
    # the node's before them form one block of rows, compared with itself
    # one row on
    for stretch in np.split(candidates, np.flatnonzero(np.diff(candidates) != 1) + 1):
        if len(stretch):
            first, last = int(stretch[0]), int(stretch[-1])
            k = int(counts[first])
            block = children[starts[first] - k : starts[last] + k]
            same[first : last + 1] = (block[k:] == block[:-k]).reshape(-1, k).all(axis=1)
    return np.maximum.accumulate(np.where(same, 0, np.arange(n)))


def _depths(c: _Columns) -> np.ndarray:
    """Per node, 0 for a leaf, else one more than its deepest child: relaxed
    round by round over the children of each run's first node, whose depth
    its run shares."""
    _, head, runs, _, first, kids = c.runs
    n = len(head)
    depth = np.zeros(n, dtype=np.int64)
    for _ in range(n):  # a circuit's depth is below its node count
        deeper = np.maximum.reduceat(depth[kids], first) + 1 if len(runs) else runs
        if np.array_equal(deeper, depth[runs]):
            break
        depth[runs] = deeper
        depth = depth[head]
    return depth


def _distinct(ids: np.ndarray) -> bool:
    """True when no id appears twice."""
    ids = np.sort(ids, axis=None)
    return not np.any(ids[1:] == ids[:-1])


def _distinct_per(keys: np.ndarray, base: int, parts: int) -> np.ndarray:
    """The number of distinct ``keys`` of each part, the keys of part p
    lying in [p * base, (p + 1) * base)."""
    keys = np.sort(keys)
    return np.bincount(keys[np.r_[True, keys[1:] != keys[:-1]]] // base, minlength=parts)


def _stacks(shapes: np.ndarray):
    """(groups, shape) per distinct row of ``shapes``, the groups' shapes, in
    order of each shape's first group: groups of one shape stack into one
    layer."""
    distinct, first, which = np.unique(shapes, axis=0, return_index=True, return_inverse=True)
    which = which.reshape(-1)
    for s in np.argsort(first).tolist():
        yield np.flatnonzero(which == s), distinct[s].tolist()


def _sum_stacks(ids, counts, starts, children, head) -> list:
    """(members, (children,)) per stack of sum groups among the sums ``ids``
    of one level: the sums over one child list are a group, in node order,
    and the groups go in order of their first member."""
    runs = head[ids]  # non-decreasing, as ids are
    runs = runs[np.r_[True, runs[1:] != runs[:-1]]]  # the first sum of each run
    group = np.empty(len(runs), dtype=np.int64)  # each run's group: its list's first run
    for k in np.unique(counts[runs]).tolist():
        these = runs[counts[runs] == k]
        rows = children[starts[these][:, None] + np.arange(k)]  # as bytes, one item per row
        _, first, which = np.unique(rows.view(np.dtype((np.void, rows.itemsize * k))).ravel(),
                                    return_index=True, return_inverse=True)
        group[counts[runs] == k] = these[first[which.reshape(-1)]]
    group = group[np.searchsorted(runs, head[ids])]
    order = np.lexsort((ids, group))
    ids, group = ids[order], group[order]
    lead = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])  # each group's first sum
    size = np.diff(np.r_[lead, len(ids)])
    return [(ids[lead[g, None] + np.arange(members)],
             (children[starts[ids[lead[g]]][:, None] + np.arange(k)],))
            for g, (members, k) in _stacks(np.column_stack([size, counts[ids[lead]]]))]


def _product_stacks(ids, counts, starts, children) -> list:
    """(members, factors) per stack of outer product groups among the
    products ``ids`` of one level, those of one arity at a time, in order of
    each arity's first product.

    Each product points at its earliest same-arity sibling that shares a
    child at some position, and follows those pointers to their end; in an
    outer group that end is the group's first product.  A set of products
    with one end is a group when its products are, in node order, every
    combination of each position's distinct children in first-seen order;
    otherwise each of its products is a group of one.
    """
    arity = counts[ids]
    stacks = []
    for a in arity[np.sort(np.unique(arity, return_index=True)[1])].tolist():
        members = ids[arity == a]
        kids = children[starts[members][:, None] + np.arange(a)]
        end = np.arange(len(members))
        for column in kids.T:
            _, first, inverse = np.unique(column, return_index=True, return_inverse=True)
            end = np.minimum(end, first[inverse])
        while np.any(end[end] != end):
            end = end[end]
        order = np.argsort(end, kind="stable")
        members, kids, end = members[order], kids[order], end[order]
        lead = np.flatnonzero(np.r_[True, end[1:] != end[:-1]])  # each set's first product
        size = np.diff(np.r_[lead, len(members)])
        part = np.repeat(np.arange(len(lead)), size)
        base = int(kids.max()) + 1
        width = np.stack([_distinct_per(part * base + column, base, len(lead))
                          for column in kids.T], axis=1)
        combinations = np.ones(len(lead), dtype=np.int64)
        for w in width.T:  # capped, since no width exceeds its set's size
            combinations = np.minimum(combinations * w, size + 1)
        outer = combinations == size
        width[~outer] = 1
        stride = np.cumprod(width[:, ::-1], axis=1)[:, ::-1] // width  # later widths' product
        row = np.arange(len(members)) - lead[part]
        at = lead[part, None] + row[:, None] // stride[part] % width[part] * stride[part]
        outer &= np.logical_and.reduceat(np.all(kids[at, np.arange(a)] == kids, axis=1), lead)
        width[~outer] = 1
        groups = np.flatnonzero((row == 0) | ~outer[part])  # each group's first product
        shapes = np.column_stack([np.where(outer[part[groups]], size[part[groups]], 1),
                                  width[part[groups]]])
        for g, (count, *widths) in _stacks(shapes):
            first = groups[g, None]
            strides = np.cumprod([1] + widths[:0:-1])[::-1].tolist()
            stacks.append((members[first + np.arange(count)],
                           tuple(kids[first + np.arange(w) * s, f]
                                 for f, (w, s) in enumerate(zip(widths, strides)))))
    return stacks


def _compile_plan(circuit: Circuit, layout: Layout) -> Plan:
    c = _compiled_columns(circuit)
    tables = len(c.states)
    row = np.repeat(np.arange(tables), c.states)
    log_probs = np.full((tables, c.states.max(initial=0)), -np.inf)
    log_probs[row, np.arange(len(row)) - (np.cumsum(c.states) - c.states)[row]] = c.log_probs
    log_weights, start = [], 0
    for layer in layout.layers:
        if layer.kind == "sum":
            edges = layout.sum_edge_order[start : start + math.prod(layer.shape)]
            log_weights.append(c.log_weights[edges].reshape(layer.shape))
            start += len(edges)
        else:
            log_weights.append(None)
    return Plan(layout, log_weights, c.means, c.log_stds, log_probs, c.states)


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
    passes a (passes, sum edges) boolean mask, its edges in the plan order of
    :attr:`Layout.sum_edge_order`, whose passes are the rows of X in turn,
    the same number each: column j is then the pass of row j // (passes /
    rows) in which a sum edge contributes only where its bit in row j of
    ``keep`` holds; its weight is zero elsewhere.  Each sum layer reads its
    edges' bits as a (passes, G, S, K) view.  The leaves and the product
    layers below the first sum layer (the layout's invariant prefix) are the
    same in every pass of a row, so a masked pass computes them in one
    column per row.  The sum layers that read only those values shift and
    exponentiate those columns once and mix each row's column under that
    row's passes' bits, which does each pass's arithmetic unchanged.  The
    other layers run on every pass's column, and only the prefix values they
    read, or that ``nodes`` asks for, are copied into every pass's column.
    The pass holds node values in slot order
    (:meth:`Layout.finish`): asking for :attr:`Layout.order` returns that
    array itself, lent until the caller hands it to ``layout.spare.give``
    or keeps it, and asking for the roots copies only their rows.  Each
    product layer that :attr:`Layout.fused` flags runs inside the step of
    the sum layer that reads it (:meth:`Layout.steps`), the first one
    included in a masked pass, where it stays in one column per row, and
    the sums mix its products from their factors (:func:`log_mix`), as
    every sum layer mixes its children, products of one factor where no
    product layer is fused into it.  A
    request for the circuit's roots list itself leaves the products' slots
    unwritten; any other request writes their log values there.  Raises
    ShapeError unless X is (rows, variables) and, with ``keep``, a (passes,
    sum edges) boolean mask with a positive multiple of rows passes.
    """
    plan = circuit.plan()
    layout = plan.layout
    X = as_batch(X, circuit.num_variables)
    rows = X.shape[0]
    if keep is not None:
        keep = np.asarray(keep)
        if keep.dtype != bool:
            raise ShapeError(f"a keep mask of dtype {keep.dtype}; expected boolean keep bits")
        if (keep.ndim != 2 or keep.shape[1] != layout.num_sum_edges or not rows
                or not len(keep) or len(keep) % rows):
            raise ShapeError(f"a keep mask of shape {keep.shape} with evidence of shape "
                             f"{X.shape}; expected (passes, {layout.num_sum_edges}) keep "
                             f"bits, the same positive number of passes per row")
    roots_only = nodes is circuit.roots
    masked = keep is not None
    key, prepared = forward_pass(layout, len(keep) if masked else rows, roots_only,
                                 rows if masked else 0)
    (logv,), (head, prefix, rest) = prepared.arrays, prepared.steps
    plan.leaf_log_values(X, head)
    with np.errstate(divide="ignore"):
        _forward_layers(plan, prefix)
        if masked:
            logv[layout.shared] = pass_columns(head[layout.shared], len(keep) // rows)
        _forward_layers(plan, rest, keep)
    if masked:  # after the layers, which make the fused prefix products in head
        wanted = np.arange(layout.invariant) if nodes is None else layout.slot[nodes]
        wanted = wanted[wanted < layout.invariant]
        logv[wanted] = pass_columns(head[wanted], len(keep) // rows)
    return layout.finish(key, prepared, nodes, roots_only)[0]


def forward_pass(layout: Layout, columns: int, roots_only: bool, rows: int = 0):
    """The key and the prepared pass (:meth:`Layout.prepared`) of a forward
    pass of ``columns`` columns, whose steps are :func:`_forward_steps`':
    a masked pass of ``rows`` evidence rows, or an unmasked one where
    ``rows`` is 0."""
    key = ("forward", columns, roots_only, rows)
    return key, layout.prepared(key, columns, 1, lambda logv: _forward_steps(
        layout, logv, roots_only, rows))


def _forward_steps(layout: Layout, logv: np.ndarray, roots_only: bool, rows: int):
    """The forward pass's steps on ``logv`` (:meth:`Layout.pass_steps`), as
    (head, prefix steps, other steps), and the bytes of their scratch; a
    masked pass of ``rows`` rows has its own (invariant, rows) head."""
    head = np.empty((layout.invariant, rows)) if rows else logv
    steps, scratch = layout.pass_steps((logv,), roots_only, (head,) if rows else None)
    split = sum(k < layout.prefix for k, _, _ in steps)
    return (head, steps[:split], steps[split:]), scratch + (head.nbytes if rows else 0)


def _forward_layers(plan: Plan, steps: list, keep: Optional[np.ndarray] = None) -> None:
    """Run the forward pass's ``steps`` (:meth:`Layout.pass_steps`), with the
    first sum edge of ``keep`` in the first of them."""
    start = 0  # the layer's first edge in plan order
    for k, layer, blocks in steps:
        if layer.kind == "product":
            for _, products, factors, (out,), _, _ in blocks:
                products.outer(step_inputs(factors)[0], out=out)
            continue
        w, lw = plan.weights[k], plan.log_weights[k]
        kept = None if keep is None else keep[:, start : start + w.size].reshape(-1, *w.shape)
        start += w.size
        for b, products, factors, made, children, (out,) in blocks:
            kept_b = None if kept is None else kept[:, b]
            stacked = step_inputs(factors)[0]
            out[...] = log_mix(w[b], lw[b], stacked, children[0], kept_b)
            if made is not None:  # over the linear values, which are mixed
                products.outer(stacked.swapaxes(0, 1), out=made[0])


def log_mix(w: np.ndarray, log_w: np.ndarray, x: np.ndarray, lin: np.ndarray,
            kept: Optional[np.ndarray] = None) -> np.ndarray:
    """log sum_k w_k exp(x_k) for every sum of a block of groups, whose
    children x_k are products (:attr:`Layout.mixes`), from their factors.

    ``w`` and ``log_w`` are the (g, S, K) weights and their logs, and ``x``
    the factors' stacked (groups, F, S, columns) log values
    (:attr:`ProductLayer.stacked`) of the product groups that the sum
    groups read, in order.  The shifted linear products are made in
    ``lin``, a contiguous (g, K, columns) array (:func:`factored_exp`), and
    mixed in linear space.  A (passes, g, S, K) boolean ``kept`` drops each
    pass's edges where it is False, as masked passes do, and is read in
    place; ``x`` may then hold one column per evidence row that the row's
    passes, as many per row, share.  The shift ignores the weights, so a sum
    whose weighted children all sit far below a zero-weight or dropped
    sibling flushes to zero or a subnormal; those entries are recomputed as
    exact log-sum-exps of their products' log values, made from the factors
    (:func:`factored_children`).
    """
    m, lin, _ = factored_exp(x, lin)
    return _log_mixed(w, log_w, m, m, lin, factored_children(x, len(lin)), kept)


def factored_exp(x: np.ndarray, lin: np.ndarray):
    """(m, lin, s): the shift and shifted linear values of the log products
    that a block of sum groups reads, made from the factors' stacked
    (groups, F, S, columns) log values ``x``, and the factors' largest
    values s.

    Each factor f is shifted per group and column by its own largest value
    s_f, floored at SHIFT_FLOOR (:func:`factor_shifts`), and a product
    group's shifted linear values, the outer product of the factors'
    exp(x_f - s_f), are written into ``lin``.  So a group takes F S
    exponentials instead of S^F, and no transcendental runs on the
    products.  A group's shift, the sum of its s_f, is the largest of its
    log products but for rounding; with one factor it is their largest,
    and ``lin`` is exp(x - max(m, SHIFT_FLOOR)).  Where m is -inf, every
    value in ``lin`` is 0, so m can shift their log as it is.
    """
    s = x.max(axis=2, keepdims=True)
    m, shift = factor_shifts(s, len(lin))
    a = np.subtract(x, shift)
    np.exp(a, out=a)
    ProductLayer.outer(a.swapaxes(0, 1), np.multiply, out=lin)
    return m, lin, s


def factor_shifts(top: np.ndarray, groups: int):
    """(m, shift) for the factors' stacked (groups * per_sum, F, 1,
    columns) shifts ``top`` of the product groups that ``groups`` sum
    groups read, per_sum each.  A product group is shifted by the sum of
    its factors' shifts, and m is each sum group's (groups, 1, columns)
    largest such sum.  ``shift`` is ``top`` floored at SHIFT_FLOOR, so that
    a factor of -inf values exponentiates to 0; where per_sum > 1, each
    group's first factor is shifted further by m less its group's sum, so
    that every product group a sum group reads is shifted by m."""
    total = top[:, 0]
    for f in range(1, top.shape[1]):
        total = total + top[:, f]
    shift = np.maximum(top, SHIFT_FLOOR)
    if len(total) == groups:
        return total, shift
    total = total.reshape(groups, -1, 1, total.shape[-1])
    m = total.max(axis=1)
    shift[:, 0] += (np.maximum(m, SHIFT_FLOOR)[:, None] - total).reshape(-1, 1, total.shape[-1])
    return m, shift


def factored_children(x: np.ndarray, groups: int):
    """``children(g, c)`` for the flush repair of ``groups`` sum groups
    whose children are fused products: the (entries, K) log products that
    the flagged entries of sum groups g mix in columns c, made from the
    factors' stacked (groups * per_sum, F, S, columns) log values ``x``."""
    per_sum = len(x) // groups
    return lambda g, c: ProductLayer.outer(gathered_factors(x, per_sum, g, c)).reshape(len(g), -1)


def gathered_factors(x: np.ndarray, per_sum: int, g: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The factors, as :meth:`ProductLayer.outer` takes them, of the
    products that flagged entries of sum groups ``g`` mix in columns ``c``:
    from the stacked (groups, F, S, columns) ``x``, where each sum group
    reads per_sum product groups, an (F, entries * per_sum, S, 1) array."""
    picked = x.reshape(-1, per_sum, *x.shape[1:])[g, :, :, :, c]  # (entries, per_sum, F, S)
    return picked.reshape(-1, *x.shape[1:3]).swapaxes(0, 1)[..., None]


def _log_mixed(w, log_w, m, shift, lin, children, kept=None) -> np.ndarray:
    """:func:`log_mix` from the children's largest log values m, their
    shift and their shifted linear values (:func:`factored_exp`);
    ``children(g, c)`` gives the (entries, K) child log values of groups g
    in columns c, which the flush repair reads."""
    if kept is None:
        mixed = mix(w, lin)
    else:  # lin holds a column per pass, or per row, read at stride 0 along its passes
        per_row = len(kept) // lin.shape[2]
        if per_row == 1 or lin.shape[2] == 1:
            mixed = np.einsum("gsk,cgsk,gkc->gsc", w, kept, lin)
        else:  # several rows: a 5-D view, where the repeated columns would be a copy
            mixed = np.einsum("gsk,rlgsk,gkrl->gsrl", w, kept.reshape(-1, per_row, *kept.shape[1:]),
                              lin[..., None]).reshape(*w.shape[:2], -1)
        m, shift = pass_columns(m, per_row), pass_columns(shift, per_row)
        if per_row > 1:  # the flush repair reads a pass's children in its row's column
            row_children = children
            children = lambda g, c: row_children(g, c // per_row)
    return log_shifted(mixed, shift, lambda: m > -np.inf, lambda g, s, c: children(g, c) + (
        log_w[g, s] if kept is None else np.where(kept[c, g, s], log_w[g, s], -np.inf)))


def pass_columns(a: np.ndarray, per_row: int) -> np.ndarray:
    """(..., rows * per_row) ``a``: each of its (..., rows) columns, one per
    evidence row of a masked pass, repeated for each of that row's passes;
    ``a`` itself where it holds one column, which numpy broadcasts along
    every pass, or where each row has one pass."""
    if per_row == 1 or a.shape[-1] == 1:
        return a
    return np.repeat(a, per_row, axis=-1)


def mix(w: np.ndarray, lin: np.ndarray) -> np.ndarray:
    """(g, S, K) weights of a :class:`Plan` times (g, K, columns) linear
    values, such as the shifted products that :func:`factored_exp` makes,
    one matrix product per group, in einsum's own loops, so that each
    column's bits do not depend on how many columns a pass holds: a single
    row is a batch of one to the bit, and a batch split into passes equals
    one pass.  BLAS
    (np.matmul) picks its kernel by the product's width, gemv for one
    column and other kernels for other widths, so there a column's bits
    change with the batch width.  einsum has such a case too: where both
    operands hold their K values contiguously, as a single column does, it
    sums them in SIMD lanes, while it adds them one k at a time otherwise.
    The plan's weights hold their K values apart, so every width takes the
    k-at-a-time loop."""
    return np.einsum("gsk,gkc->gsc", w, lin)


def log_shifted(mixed: np.ndarray, shift: np.ndarray, nonzero, log_terms) -> np.ndarray:
    """log(mixed) + shift for (g, S, columns) linear mixtures taken under a
    shift.  Where ``nonzero()`` holds but the mixture flushed to zero or a
    subnormal, the entry is recomputed as the exact log-sum-exp of
    ``log_terms(g, s, c)``, an (entries, terms) array."""
    out = np.log(mixed)
    out += shift
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
    """Normalized log weights from the unconstrained logits of each row of a
    2-D array; a row's log normalizer has the bits of its :func:`logsumexp`."""
    m = logits.max(axis=1)
    total = np.exp(logits - m[:, None]).sum(axis=1)
    return logits - (m + np.array([math.log(t) for t in total.tolist()]))[:, None]


# ---------------------------------------------------------------------------
# Circuit files
#
# Format version 2 is an uncompressed .npz archive (a zip of .npy arrays):
# a "header" member with the JSON {"version": 2, "num_variables": V} as
# bytes, and one member per column of _Columns.  Raw doubles keep every
# parameter's bits, -0.0 included.  Version 1, the JSON format of earlier
# writers, is still read; a zip file is told from it by its first bytes.

_ZIP_MAGIC = b"PK\x03\x04"


def serialize(circuit: Circuit) -> bytes:
    """Encode a valid circuit as a circuit file of format version 2."""
    report = validate(circuit)
    if not report.ok:
        raise SerializationError(f"refusing to serialize an invalid circuit:\n{report}")
    columns = _columns(circuit)
    if columns is None:
        raise SerializationError("refusing to serialize a circuit whose num_variables is no "
                                 "int, or whose leaves have children or tables of two axes")
    header = json.dumps({"version": CIRCUIT_FORMAT_VERSION, "num_variables": columns.num_variables})
    members = {"header": np.frombuffer(header.encode(), dtype=np.uint8),
               **{name: getattr(columns, name) for name in _MEMBERS}}
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as archive:
        for name, array in members.items():
            # np.savez would stamp each member with the current time; the
            # fixed stamp of a bare ZipInfo gives one circuit one file
            with archive.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as fh:
                npy_format.write_array(fh, array, allow_pickle=False)
    return out.getvalue()


def deserialize(data: bytes) -> Circuit:
    """Decode a circuit file of format version 2, or 1; raises
    SerializationError for a malformed file or an invalid circuit."""
    circuit = (_of_columns(_read_columns(data)) if data[:4] == _ZIP_MAGIC
               else _deserialize_json(data))
    report = validate(circuit)
    if not report.ok:
        raise SerializationError(f"circuit file fails validation:\n{report}")
    return circuit


def _malformed(message: str) -> SerializationError:
    return SerializationError(f"malformed circuit file: {message}")


def _num_variables(doc: dict, data: bytes) -> int:
    """The file's number of variables: an int from 0 up to the file's size,
    since each variable is some leaf's and each leaf takes some bytes."""
    count = doc.get("num_variables")
    if type(count) is not int or not 0 <= count <= len(data):
        raise _malformed(f"num_variables {count!r} is not a number of variables")
    return count


def _read_columns(data: bytes) -> _Columns:
    """A version-2 file's columns, each member's presence, dtype and shape
    checked before it is read, and their lengths checked against each
    other."""
    try:
        with zipfile.ZipFile(io.BytesIO(data)) as archive:
            arrays = {name: _read_member(archive, name, dtype)
                      for name, dtype in {"header": np.dtype(np.uint8), **_MEMBERS}.items()}
    except SerializationError:
        raise
    # a damaged archive; ValueError covers bad offsets and undecodable names
    except (zipfile.BadZipFile, EOFError, NotImplementedError, ValueError) as exc:
        raise SerializationError(f"not a circuit file: {exc}") from exc
    try:
        header = json.loads(arrays.pop("header").tobytes())
    except ValueError as exc:  # undecodable bytes or no JSON
        raise _malformed(f"header: {exc}") from exc
    if not isinstance(header, dict):
        raise _malformed("the header is not an object")
    version = header.get("version")
    if version != CIRCUIT_FORMAT_VERSION:
        raise SerializationError(f"unknown circuit file version {version!r}")
    c = _Columns(_num_variables(header, data), **arrays)

    kinds, counts, states = c.kinds, c.counts, c.states
    if np.any(kinds > _CATEGORICAL):
        raise _malformed(f"unknown node kind code {int(kinds[kinds > _CATEGORICAL][0])}")
    leaves = kinds >= _GAUSSIAN
    if (len(counts) != len(kinds) or np.any(counts < 0) or np.any(counts > len(c.children))
            or np.any(counts[leaves])):
        raise _malformed("counts must hold one child count per node, 0 for a leaf")
    if np.any(states < 0) or np.any(states > len(c.log_probs)):
        raise _malformed("states must lie between 0 and the number of log probabilities")
    gaussian = np.sum(kinds == _GAUSSIAN)
    implied = {"children": counts.sum(), "log_weights": counts[kinds == _SUM].sum(),
               "variables": leaves.sum(), "means": gaussian, "log_stds": gaussian,
               "states": np.sum(kinds == _CATEGORICAL), "log_probs": states.sum()}
    for name, length in implied.items():
        if len(getattr(c, name)) != length:
            raise _malformed(f"{name} holds {len(getattr(c, name))} values, "
                             f"but the other members imply {length}")
    return c


def _read_member(archive: zipfile.ZipFile, name: str, dtype: np.dtype) -> np.ndarray:
    """Member ``name`` as a one-axis array of ``dtype``, its .npy header
    checked against the bytes stored before an array is allocated."""
    try:
        info = archive.getinfo(f"{name}.npy")
    except KeyError:
        raise _malformed(f"no member {name!r}") from None
    if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1:
        raise _malformed(f"member {name!r} is compressed or encrypted")
    member = archive.read(info)
    raw = io.BytesIO(member)
    try:
        version = npy_format.read_magic(raw)
        if version not in ((1, 0), (2, 0)):
            raise ValueError(f"unsupported .npy version {version}")
        read_header = (npy_format.read_array_header_1_0 if version == (1, 0)
                       else npy_format.read_array_header_2_0)
        shape, _, found = read_header(raw)
    except ValueError as exc:
        raise _malformed(f"member {name!r}: {exc}") from exc
    if found != dtype or len(shape) != 1:
        raise _malformed(f"member {name!r} is an array of {found} with shape {shape}, "
                         f"expected one axis of {dtype}")
    stored = len(member) - raw.tell()
    if shape[0] * dtype.itemsize != stored:
        raise _malformed(f"member {name!r} declares {shape[0]} values in {stored} bytes")
    raw.seek(0)
    return np.load(raw, allow_pickle=False)


def _node_view(c: _Columns) -> list:
    """The node objects whose columns ``c`` are, with the types the
    version-1 reader gives: Python ints and floats, and a float64 array per
    table."""
    kids = c.children.tolist()
    ends = np.cumsum(c.counts).tolist()
    weights = iter(_split(c.log_weights, c.counts[c.kinds == _SUM]))
    tables = iter(_split(c.log_probs, c.states))
    variables, means, log_stds = (iter(a.tolist()) for a in (c.variables, c.means, c.log_stds))
    make = (lambda a, b: SumNode(kids[a:b], next(weights)),  # by kind code
            lambda a, b: ProductNode(kids[a:b]),
            lambda a, b: GaussianLeaf(next(variables), next(means), next(log_stds)),
            lambda a, b: CategoricalLeaf(next(variables), next(tables)))
    return [make[k](a, b) for k, a, b in zip(c.kinds.tolist(), [0] + ends, ends)]


def _split(values: np.ndarray, lengths: np.ndarray) -> list:
    """Consecutive slices of ``values`` of the given lengths."""
    ends = np.cumsum(lengths).tolist()
    return [values[a:b] for a, b in zip([0] + ends, ends)]


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


def _deserialize_json(data: bytes) -> Circuit:
    """Decode a file of format version 1: a JSON object whose floats are
    decimals that read back as the written doubles."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"not a circuit file: {exc}") from exc
    if not isinstance(doc, dict):
        raise SerializationError("not a circuit file: top level is not an object")
    version = doc.get("version")
    if version != 1:
        raise SerializationError(f"unknown circuit file version {version!r}")
    num_variables = _num_variables(doc, data)
    try:
        return Circuit(
            nodes=[_node_from_json(n) for n in doc["nodes"]],
            roots=list(doc["roots"]),
            num_variables=num_variables,
            log_class_priors=np.array(doc["log_class_priors"], dtype=np.float64),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed circuit file: {exc}") from exc


def save(circuit: Circuit, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(circuit))


def load(path) -> Circuit:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
