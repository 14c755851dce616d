"""Circuit construction: random tensorized structures and test fixtures.

``build_rat`` grows the binary-tree region-graph family: every repetition
recursively splits the variable set into two balanced random parts, leaf
regions hold factorized Gaussian input distributions, internal regions hold
sum nodes over all cross products of their child regions, and the class heads
mix the root-partition products of every repetition.

``build_manual`` parses a small line-oriented text description into a
circuit, which is how the hand-crafted fixtures for the enumeration oracle
tests are written.  Random tree and DAG generators live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    CategoricalLeaf,
    Circuit,
    GaussianLeaf,
    ProductNode,
    RatAnnotation,
    SumNode,
    log_softmax,
    validate,
)
from .errors import ManualSpecError, StructureError


@dataclass(frozen=True)
class RatConfig:
    """Hyperparameters of a random tensorized structure."""

    num_sums: int  # S: sum nodes per internal region
    num_input_dists: int  # I: input distributions per leaf region
    depth: int  # D: number of recursive binary splits
    num_repetitions: int  # R: independently drawn region graphs
    num_classes: int  # C: class heads
    num_variables: int
    rng_seed: int = 0

    def check(self) -> None:
        for name in ("num_sums", "num_input_dists", "depth", "num_repetitions", "num_classes"):
            if getattr(self, name) < 1:
                raise StructureError(f"{name} must be positive")
        if 2**self.depth > self.num_variables:
            raise StructureError(
                f"2^depth = {2**self.depth} exceeds {self.num_variables} variables; "
                "every split needs a nonempty part"
            )


def build_rat(config: RatConfig) -> Circuit:
    """Deterministically construct the tensorized structure for ``config``."""
    config.check()
    rng = np.random.default_rng(config.rng_seed)
    nodes: list = []
    rat = RatAnnotation()
    region_serial = [0]

    def add(node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def build_region(variables: np.ndarray, level: int, rep: int) -> list[int]:
        """Returns the ids of this region's nodes (dists or sums)."""
        region_id = region_serial[0]
        region_serial[0] += 1
        if level == config.depth:
            dists = []
            for _ in range(config.num_input_dists):
                leaves = [
                    add(GaussianLeaf(int(v), float(rng.normal(0.0, 1.0)), 0.0))
                    for v in variables
                ]
                dists.append(leaves[0] if len(leaves) == 1 else add(ProductNode(leaves)))
            return dists
        perm = rng.permutation(variables)
        half = len(perm) // 2
        left = build_region(np.sort(perm[:half]), level + 1, rep)
        right = build_region(np.sort(perm[half:]), level + 1, rep)
        products = []
        for l in left:
            for r in right:
                pid = add(ProductNode([l, r]))
                rat.product_partition[pid] = (rep, region_id)
                products.append(pid)
        if level == 0:
            return products  # root-partition products feed the class heads
        sums = []
        for _ in range(config.num_sums):
            logits = rng.normal(0.0, 0.1, size=len(products))
            sid = add(SumNode(list(products), log_softmax(logits)))
            rat.sum_region[sid] = (rep, region_id)
            sums.append(sid)
        return sums

    variables = np.arange(config.num_variables)
    top: list[int] = []
    for rep in range(config.num_repetitions):
        top.extend(build_region(variables, 0, rep))

    roots = []
    for _ in range(config.num_classes):
        logits = rng.normal(0.0, 0.1, size=len(top))
        roots.append(add(SumNode(list(top), log_softmax(logits))))

    circuit = Circuit(
        nodes=nodes,
        roots=roots,
        num_variables=config.num_variables,
        log_class_priors=np.full(config.num_classes, -math.log(config.num_classes)),
        rat=rat,
    )
    report = validate(circuit)
    if not report.ok:  # pragma: no cover - construction bug guard
        raise StructureError(f"generated structure fails validation:\n{report}")
    return circuit


def structure_stats(circuit: Circuit) -> dict:
    """Node, edge, and parameter counts of a circuit, read off its layout."""
    layout = circuit.layout()
    gauss = 2 * len(layout.leaves["gaussian"][0])
    return {
        "nodes": len(circuit.nodes),
        "edges": sum(len(layer.edge_ends()[1]) for layer in layout.layers),
        "sum_edges": layout.num_sum_edges,
        "parameters": layout.num_sum_edges + gauss,
        "gaussian_parameters": gauss,
    }


# ---------------------------------------------------------------------------
# Manual circuit descriptions


def build_manual(text: str) -> Circuit:
    """Build a circuit from a line-oriented description.

    One node per line, children referenced by id (forward references are
    fine; the parser sorts topologically and rejects cycles)::

        <id> gaussian <variable> <mean> <std>
        <id> categorical <variable> <p0> <p1> ...
        <id> sum <w1> <child1> <w2> <child2> ...
        <id> product <child1> <child2> ...
        root <id> [<id> ...]
        prior <p1> ... <pC>       # optional, defaults to uniform

    ``#`` starts a comment.  The resulting circuit must validate.
    """
    raw_nodes: dict[str, tuple] = {}
    root_ids: list[str] = []
    priors: list[float] | None = None

    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        try:
            if head == "root":
                root_ids.extend(tokens[1:])
                continue
            if head == "prior":
                priors = [float(t) for t in tokens[1:]]
                continue
            node_id, kind, args = tokens[0], tokens[1], tokens[2:]
            if node_id in raw_nodes:
                raise ManualSpecError(f"line {lineno}: duplicate node id {node_id!r}")
            if kind == "gaussian":
                var, mean, std = int(args[0]), float(args[1]), float(args[2])
                if std <= 0:
                    raise ManualSpecError(f"line {lineno}: std must be positive")
                raw_nodes[node_id] = ("gaussian", var, mean, math.log(std))
            elif kind == "categorical":
                var = int(args[0])
                probs = [float(a) for a in args[1:]]
                raw_nodes[node_id] = ("categorical", var, probs)
            elif kind == "sum":
                if len(args) < 2 or len(args) % 2 != 0:
                    raise ManualSpecError(f"line {lineno}: sum needs (weight child) pairs")
                weights = [float(a) for a in args[0::2]]
                children = list(args[1::2])
                raw_nodes[node_id] = ("sum", weights, children)
            elif kind == "product":
                if not args:
                    raise ManualSpecError(f"line {lineno}: product needs children")
                raw_nodes[node_id] = ("product", list(args))
            else:
                raise ManualSpecError(f"line {lineno}: unknown kind {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ManualSpecError(f"line {lineno}: {exc}") from exc

    if not root_ids:
        raise ManualSpecError("no root declaration")
    for rid in root_ids:
        if rid not in raw_nodes:
            raise ManualSpecError(f"root {rid!r} is not a declared node")

    # Topological sort with cycle detection.
    order: list[str] = []
    state: dict[str, int] = {}

    def visit(nid: str, stack: list[str]) -> None:
        if state.get(nid) == 2:
            return
        if state.get(nid) == 1:
            raise ManualSpecError(f"cyclic reference through node {nid!r}")
        if nid not in raw_nodes:
            raise ManualSpecError(f"unknown child id {nid!r}")
        state[nid] = 1
        spec = raw_nodes[nid]
        children = spec[2] if spec[0] == "sum" else spec[1] if spec[0] == "product" else []
        for c in children:
            visit(c, stack + [nid])
        state[nid] = 2
        order.append(nid)

    for nid in raw_nodes:
        visit(nid, [])

    index = {nid: i for i, nid in enumerate(order)}
    nodes: list = []
    num_variables = 0
    for nid in order:
        spec = raw_nodes[nid]
        if spec[0] == "gaussian":
            _, var, mean, log_std = spec
            nodes.append(GaussianLeaf(var, mean, log_std))
            num_variables = max(num_variables, var + 1)
        elif spec[0] == "categorical":
            _, var, probs = spec
            with np.errstate(divide="ignore"):
                nodes.append(CategoricalLeaf(var, np.log(np.array(probs, dtype=np.float64))))
            num_variables = max(num_variables, var + 1)
        elif spec[0] == "sum":
            _, weights, children = spec
            with np.errstate(divide="ignore"):
                log_w = np.log(np.array(weights, dtype=np.float64))
            nodes.append(SumNode([index[c] for c in children], log_w))
        else:
            nodes.append(ProductNode([index[c] for c in spec[1]]))

    C = len(root_ids)
    if priors is None:
        log_priors = np.full(C, -math.log(C))
    else:
        if len(priors) != C:
            raise ManualSpecError(f"{len(priors)} priors for {C} roots")
        with np.errstate(divide="ignore"):
            log_priors = np.log(np.array(priors, dtype=np.float64))
    circuit = Circuit(
        nodes=nodes,
        roots=[index[r] for r in root_ids],
        num_variables=num_variables,
        log_class_priors=log_priors,
    )
    report = validate(circuit)
    if not report.ok:
        raise ManualSpecError(f"manual circuit fails validation:\n{report}")
    return circuit


# ---------------------------------------------------------------------------
# Randomized fixtures for oracle tests


def random_tree_circuit(
    rng: np.random.Generator,
    max_sum_edges: int = 12,
    num_classes: int = 1,
    num_variables: int | None = None,
    gaussian_only: bool = False,
) -> Circuit:
    """A random smooth, decomposable tree circuit with a bounded edge budget.

    Each class root is an independent subtree over the full variable set, a
    sum node whenever the budget allows.  Variables commit to one leaf family
    (Gaussian or binary categorical) so any value is valid circuit-wide.
    """
    n = int(num_variables) if num_variables else int(rng.integers(2, 5))
    var_kind = [
        "gaussian" if (gaussian_only or rng.random() < 0.7) else "categorical"
        for _ in range(n)
    ]
    nodes: list = []
    budget = [max_sum_edges]

    def add(node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def leaf(v: int) -> int:
        if var_kind[v] == "gaussian":
            return add(
                GaussianLeaf(v, float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-0.5, 0.3)))
            )
        probs = rng.uniform(0.2, 1.0, size=2)
        probs /= probs.sum()
        return add(CategoricalLeaf(v, np.log(probs)))

    def subtree(scope: tuple[int, ...], depth: int) -> int:
        want_sum = budget[0] >= 2 and depth < 5 and rng.random() < 0.65
        if want_sum:
            k = int(rng.integers(2, 4))
            k = min(k, budget[0])
            budget[0] -= k
            children = [subtree(scope, depth + 1) for _ in range(k)]
            w = rng.uniform(0.2, 1.0, size=k)
            w /= w.sum()
            return add(SumNode(children, np.log(w)))
        if len(scope) == 1:
            return leaf(scope[0])
        cut = int(rng.integers(1, len(scope)))
        parts = (scope[:cut], scope[cut:])
        return add(ProductNode([subtree(part, depth + 1) for part in parts]))

    scope = tuple(range(n))
    roots = []
    for _ in range(num_classes):
        if budget[0] >= 2:
            k = min(int(rng.integers(2, 4)), budget[0])
            budget[0] -= k
            children = [subtree(scope, 1) for _ in range(k)]
            w = rng.uniform(0.2, 1.0, size=k)
            w /= w.sum()
            roots.append(add(SumNode(children, np.log(w))))
        else:
            roots.append(subtree(scope, 0))

    priors = rng.uniform(0.5, 1.0, size=num_classes)
    priors /= priors.sum()
    circuit = Circuit(nodes, roots, n, np.log(priors))
    if not validate(circuit).ok or not circuit.sum_edges():
        return random_tree_circuit(rng, max_sum_edges, num_classes, num_variables, gaussian_only)
    return circuit


def random_dag_circuit(
    rng: np.random.Generator,
    max_sum_edges: int = 14,
    num_variables: int = 3,
) -> Circuit:
    """A random circuit where sum children are shared across parents.

    Grows a pool of nodes keyed by scope; sums draw children (sometimes
    repeatedly) from an existing scope group, so the result is a DAG whose
    sibling covariances are genuinely nonzero.
    """
    n = num_variables
    nodes: list = []
    budget = max_sum_edges

    def add(node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    pool: dict[int, list[int]] = {}
    for v in range(n):
        group = []
        for _ in range(int(rng.integers(2, 4))):
            group.append(
                add(GaussianLeaf(v, float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-0.3, 0.3))))
            )
        pool[1 << v] = group

    def make_sum(scope: int) -> None:
        nonlocal budget
        group = pool[scope]
        k = int(rng.integers(2, 4))
        k = min(k, budget)
        if k < 2:
            return
        budget -= k
        children = [group[int(rng.integers(len(group)))] for _ in range(k)]
        w = rng.uniform(0.2, 1.0, size=k)
        w /= w.sum()
        pool[scope].append(add(SumNode(children, np.log(w))))

    def make_product() -> None:
        scopes = list(pool)
        rng.shuffle(scopes)
        for i in range(len(scopes)):
            for j in range(i + 1, len(scopes)):
                if scopes[i] & scopes[j] == 0:
                    a = pool[scopes[i]][int(rng.integers(len(pool[scopes[i]])))]
                    b = pool[scopes[j]][int(rng.integers(len(pool[scopes[j]])))]
                    merged = scopes[i] | scopes[j]
                    pool.setdefault(merged, []).append(add(ProductNode([a, b])))
                    return

    steps = int(rng.integers(6, 14))
    for _ in range(steps):
        if budget >= 2 and rng.random() < 0.6:
            make_sum(list(pool)[int(rng.integers(len(pool)))])
        else:
            make_product()

    full = (1 << n) - 1
    guard = 0
    while full not in pool and guard < 50:
        make_product()
        guard += 1
    if full not in pool:
        return random_dag_circuit(rng, max_sum_edges, num_variables)
    if budget >= 2 and len(pool[full]) >= 2:
        make_sum(full)
    root = pool[full][-1]
    circuit = Circuit(nodes, [root], n, np.zeros(1))
    if not validate(circuit).ok or not circuit.sum_edges():
        return random_dag_circuit(rng, max_sum_edges, num_variables)
    return circuit


def random_evidence(rng: np.random.Generator, circuit: Circuit, marginal_prob: float = 0.15):
    """Evidence compatible with every leaf on each variable; NaN marginalizes."""
    values = np.empty(circuit.num_variables)
    kinds: dict[int, str] = {}
    cards: dict[int, int] = {}
    for node in circuit.nodes:
        if node.kind == "gaussian":
            kinds.setdefault(node.variable, "gaussian")
        elif node.kind == "categorical":
            kinds[node.variable] = "categorical"
            cards[node.variable] = len(node.log_probs)
    for v in range(circuit.num_variables):
        if rng.random() < marginal_prob:
            values[v] = np.nan
        elif kinds.get(v) == "categorical":
            values[v] = float(rng.integers(cards[v]))
        else:
            values[v] = float(rng.normal(0.0, 1.0))
    return values


# ---------------------------------------------------------------------------
# Copy-paste expansion: the explicit tree a DAG's zero-covariance pass models


def copy_paste_expand(circuit: Circuit, max_nodes: int = 200_000) -> Circuit:
    """Duplicate every shared node per parent path, yielding a tree.

    Each duplicated sum edge carries its own dropout variable, so exact
    moments on the expansion equal the zero-covariance pass on the original.
    """
    nodes: list = []

    def expand(i: int) -> int:
        if len(nodes) > max_nodes:
            raise StructureError(f"expansion exceeds {max_nodes} nodes")
        node = circuit.nodes[i]
        if node.kind == "sum":
            children = [expand(c) for c in node.children]
            nodes.append(SumNode(children, node.log_weights.copy()))
        elif node.kind == "product":
            children = [expand(c) for c in node.children]
            nodes.append(ProductNode(children))
        elif node.kind == "gaussian":
            nodes.append(GaussianLeaf(node.variable, node.mean, node.log_std))
        else:
            nodes.append(CategoricalLeaf(node.variable, node.log_probs.copy()))
        return len(nodes) - 1

    roots = [expand(r) for r in circuit.roots]
    return Circuit(nodes, roots, circuit.num_variables, np.array(circuit.log_class_priors))
