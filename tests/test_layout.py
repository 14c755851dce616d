"""The layer plan: how sums and products group, and that grouped and
ungrouped evaluation of one circuit agree."""

import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuq import (
    Circuit,
    DropoutConfig,
    RatConfig,
    ShapeError,
    build_manual,
    build_rat,
    log_likelihood,
    log_likelihood_batch,
    tdi_pass,
    tdi_pass_batch,
)
import circuq.circuit as circuit_module
from circuq.circuit import forward_log_values, log_mix
from circuq.enumeration import enumerate_dropout_moments, linear_forward
from circuq.structures import random_dag_circuit, random_evidence, random_tree_circuit
from circuq.train import ParameterSpace, loss_and_grad
from circuq.moments import _product_moments, _sum_moments, posterior_moments_batch

from conftest import partition_products, permuted, repetitions

SMALL_RAT = RatConfig(5, 5, 3, 2, 5, 16, rng_seed=1)
MID_RAT = RatConfig(10, 10, 4, 5, 10, 64, rng_seed=1)


def group_count(circuit, kind):
    return sum(len(layer.nodes) for layer in circuit.layout().layers if layer.kind == kind)


class TestCompiledGroups:
    def test_rat_sums_group_by_region(self):
        for config, groups in ((SMALL_RAT, 13), (MID_RAT, 71)):
            c = build_rat(config)
            assert group_count(c, "sum") == groups
            for layer in c.layout().layers:
                if layer.kind == "sum":
                    for ids, kids in zip(layer.nodes, layer.children):
                        assert all(c.nodes[i].children == kids.tolist() for i in ids)

    def test_rat_partitions_compile_to_outer_groups(self):
        c = build_rat(MID_RAT)
        partitions = [layer for layer in c.layout().layers
                      if layer.kind == "product" and layer.nodes.shape == (40, 100)]
        assert len(partitions) == 1
        layer = partitions[0]
        assert [f.shape for f in layer.factors] == [(40, 10), (40, 10)]
        for g in range(40):
            products = layer.nodes[g].reshape(10, 10)
            for i in range(10):
                for j in range(10):
                    assert c.nodes[products[i, j]].children == [
                        layer.factors[0][g, i], layer.factors[1][g, j]]
        # every RAT partition of every depth is one outer group; the input
        # distributions (products over fresh leaves) are groups of one
        for config in (SMALL_RAT, MID_RAT):
            c = build_rat(config)
            # a partition is one repetition's split of one region's scope
            scopes, rep = c.scopes(), repetitions(c, config.num_repetitions)
            partition = {i: (rep[i], *(scopes[k] for k in c.nodes[i].children))
                         for i in partition_products(c)}
            seen = []
            for layer in c.layout().layers:
                if layer.kind == "product":
                    for ids in layer.nodes.tolist():
                        group = {partition.get(i) for i in ids}
                        assert len(group) == 1
                        assert None not in group or len(ids) == 1
                        seen.extend(group - {None})
            assert sorted(seen) == sorted(set(partition.values()))

    def test_tree_compiles_to_groups_of_one(self):
        for seed in range(5):
            c = random_tree_circuit(np.random.default_rng(seed), 12, num_classes=2)
            for layer in c.layout().layers:
                assert layer.nodes.shape[1] == 1
                if layer.kind == "product":
                    assert all(f.shape[1] == 1 for f in layer.factors)
            assert group_count(c, "sum") == sum(n.kind == "sum" for n in c.nodes)

    def test_products_missing_a_combination_stay_single(self):
        # p1..p3 share children but lack the combination (b, d)
        c = build_manual("""
        a gaussian 0 0.0 1.0
        b gaussian 0 1.0 1.0
        c gaussian 1 0.0 1.0
        d gaussian 1 1.0 1.0
        p1 product a c
        p2 product a d
        p3 product b c
        s sum 0.2 p1 0.3 p2 0.5 p3
        root s
        """)
        products = [layer for layer in c.layout().layers if layer.kind == "product"]
        assert [layer.nodes.shape for layer in products] == [(3, 1)]
        x = np.array([0.3, -0.4])
        assert log_likelihood(c, x)[0] == pytest.approx(math.log(linear_forward(c, x)[-1]),
                                                        rel=1e-14)


class TestSlots:
    """Passes hold node values in slots: the leaves, then each layer's (G, S)
    nodes as one contiguous range, read in place where the slots are affine."""

    @staticmethod
    def numbered(layout):
        """A (slots, 2) value array whose entries are their own slot."""
        return np.repeat(np.arange(len(layout.order), dtype=np.float64)[:, None], 2, axis=1)

    def test_rat_layers_write_one_range_and_read_every_input_as_a_view(self):
        for config in (SMALL_RAT, MID_RAT):
            c = build_rat(config)
            layout = c.layout()
            np.testing.assert_array_equal(layout.slot[layout.order], np.arange(len(c.nodes)))
            values = self.numbered(layout)
            start = 0
            for kind, (ids, _) in layout.leaves.items():
                assert layout.leaf_slots(kind) == slice(start, start + len(ids))
                np.testing.assert_array_equal(layout.slot[ids], start + np.arange(len(ids)))
                start += len(ids)
            for layer in layout.layers:
                G, W = layer.nodes.shape
                assert layer.start == start
                np.testing.assert_array_equal(layout.slot[layer.nodes],
                                              start + np.arange(G * W).reshape(G, W))
                start += G * W
                every = slice(0, G)
                assert np.shares_memory(layer.output(values, every), values)
                for read in layer.reads:
                    view = read.read(values, every)
                    assert read.strides is not None and np.shares_memory(view, values)
                    np.testing.assert_array_equal(view[..., 1], read.slots)
            assert start == len(c.nodes)

    def test_permuted_children_fall_back_to_gathered_slots(self):
        c, _ = permuted(build_rat(SMALL_RAT), np.random.default_rng(0))
        layout = c.layout()
        values = self.numbered(layout)
        reads = [read for layer in layout.layers for read in layer.reads]
        gathered = [read for read in reads if read.strides is None]
        assert gathered
        for read in gathered:
            got = read.read(values, slice(0, len(read.slots)))
            assert not np.shares_memory(got, values)
            np.testing.assert_array_equal(got[..., 1], read.slots)

    def test_rows_map_slots_back_to_nodes(self):
        c = build_rat(SMALL_RAT)
        layout = c.layout()
        X = np.random.default_rng(2).normal(size=(5, c.num_variables))
        every = forward_log_values(c, X)
        slots = forward_log_values(c, X, nodes=layout.order)
        np.testing.assert_array_equal(slots[layout.slot], every)
        assert layout.finish(slots, layout.order) is slots
        np.testing.assert_array_equal(forward_log_values(c, X, nodes=c.roots), every[c.roots])


def fused_slots(layout) -> np.ndarray:
    """True at each slot of a product layer that :attr:`Layout.fused` flags."""
    hidden = np.zeros(len(layout.order), dtype=bool)
    for layer, fused in zip(layout.layers, layout.fused):
        if fused:
            hidden[layer.start : layer.start + layer.nodes.size] = True
    return hidden


# Every combination of {a, b} and {c, d}, one product group that the two sums
# read in slot order: the product layer fuses into the sum layer.
FUSED_DAG = """
a gaussian 0 0.0 1.0
b gaussian 0 1.0 1.0
c gaussian 1 0.0 1.0
d gaussian 1 1.0 1.0
p1 product a c
p2 product a d
p3 product b c
p4 product b d
s1 sum 0.1 p1 0.2 p2 0.3 p3 0.4 p4
s2 sum 0.4 p1 0.3 p2 0.2 p3 0.1 p4
"""


def unfused_passes(circuit, X, config):
    """The forward and the moment pass layer by layer, each product layer
    whole and written into its slots before the sum layer that reads it
    runs: the schedule without fused steps.  Returns the slot-order log
    values, and the log expectations and variances in node order."""
    plan = circuit.plan()
    layout = plan.layout
    logv, log_e, log_v = (np.empty((len(layout.order), len(X))) for _ in range(3))
    plan.leaf_log_values(X, logv)
    plan.leaf_log_values(X, log_e)
    log_v[: layout.num_leaves] = -np.inf
    log_q = np.log(config.q)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for layer, lw, w in zip(layout.layers, plan.log_weights, plan.weights):
            for b in layer.blocks(len(X)):
                out = layer.output(log_e, b), layer.output(log_v, b)
                if layer.kind == "product":
                    layer.outer([read.read(logv, b) for read in layer.reads],
                                out=layer.output(logv, b))
                    _product_moments(layer, [read.read(log_e, b) for read in layer.reads],
                                     [read.read(log_v, b) for read in layer.reads], out)
                else:
                    children = layer.reads[0]
                    layer.output(logv, b)[...] = log_mix(w[b], lw[b], children.read(logv, b))
                    _sum_moments(w[b], lw[b], children.read(log_e, b), children.read(log_v, b),
                                 log_q, config.p, out)
    return logv, log_e[layout.slot], log_v[layout.slot]


class TestFusedLayers:
    """A product layer that only the next sum layer reads, as its children in
    slot order, runs inside that layer's step in every pass.  A request for
    the roots alone never writes its slots; any other request does."""

    def test_rat_partition_layers_fuse_into_their_regions_and_heads(self):
        small, mid = build_rat(SMALL_RAT).layout(), build_rat(MID_RAT).layout()
        # the input distributions' products (layer 0) feed the partitions'
        # products, and the last partitions (5 at small, 7 at mid) feed the heads
        assert small.fused == (False, True, False, True, False, True, False)
        assert mid.fused == (False, True, False, True, False, True, False, True, False)

    @pytest.mark.parametrize("extra, fuses", [
        ("root s1 s2", True),
        ("root s1 s2 p4", False),  # a root lies in the product layer
        ("t sum 1.0 p4\nroot s1 s2 t", False),  # p4 also feeds a second sum layer
    ], ids=["only-the-sums-read", "a-root", "a-second-parent"])
    def test_a_product_read_elsewhere_does_not_fuse(self, extra, fuses):
        c = build_manual(FUSED_DAG + extra)
        layout = c.layout()
        assert [layer.kind for layer in layout.layers][:2] == ["product", "sum"]
        assert layout.fused[0] is fuses and not any(layout.fused[1:])
        X = np.random.default_rng(0).normal(size=(3, 2))
        X[1, 0] = np.nan
        bits = lambda a: np.ascontiguousarray(a).view(np.int64)  # noqa: E731
        np.testing.assert_array_equal(bits(forward_log_values(c, X, nodes=c.roots)),
                                      bits(forward_log_values(c, X)[c.roots]))
        config = DropoutConfig.with_p(0.2)
        for root, every in zip(tdi_pass_batch(c, X, config, nodes=c.roots),
                               tdi_pass_batch(c, X, config)):
            np.testing.assert_array_equal(bits(root), bits(every[c.roots]))

    def test_root_only_passes_never_write_a_fused_layer(self, monkeypatch):
        monkeypatch.setattr(circuit_module, "_SPARE_MIN", 0)  # keep every pass array
        c = build_rat(SMALL_RAT)
        layout = c.layout()
        hidden = fused_slots(layout)
        assert hidden.any()
        X = np.random.default_rng(1).normal(size=(5, c.num_variables))
        keep = np.random.default_rng(2).random((3, layout.num_sum_edges)) >= 0.2
        config = DropoutConfig.with_p(0.1)

        def poisoned(count, columns):
            arrays = [layout.values(columns) for _ in range(count)]
            for a in arrays:
                a.fill(np.nan)
            layout.spare.give(*arrays)
            return arrays

        # a request for the roots writes no fused slot, and any other request
        # writes every slot; a masked pass fills its slots below the
        # invariant ones only where later layers or the request read them
        every, past = slice(None), slice(layout.invariant, None)
        for run, count, columns, rows, roots_only in (
                (lambda: forward_log_values(c, X, nodes=c.roots), 1, len(X), every, True),
                (lambda: tdi_pass_batch(c, X, config, nodes=c.roots), 2, len(X), every, True),
                (lambda: forward_log_values(c, X[:1], keep, nodes=c.roots), 1, len(keep), past,
                 True),
                (lambda: tdi_pass_batch(c, X, config), 2, len(X), every, False),
                (lambda: forward_log_values(c, X[:1], keep), 1, len(keep), every, False)):
            arrays = poisoned(count, columns)
            run()
            taken = [layout.values(columns) for _ in arrays]  # the same arrays, reused
            assert sorted(map(id, taken)) == sorted(map(id, arrays))
            for a in arrays:
                np.testing.assert_array_equal(np.isnan(a[rows]), np.broadcast_to(
                    (hidden & roots_only)[rows, None], a[rows].shape))
        arrays = poisoned(1, len(X))
        assert forward_log_values(c, X, nodes=layout.order) is arrays[0]
        assert not np.isnan(arrays[0]).any()

    @pytest.mark.parametrize("name", ["small", "mid", "fused-dag", "trees", "dags"])
    def test_the_fused_steps_equal_an_unfused_pass(self, name):
        """The every-node forward, which training reads, and the every-node
        moment pass equal, bit for bit, a pass that runs each product layer
        whole before the sum layer that reads it, with marginalized evidence
        and a row of it."""
        rng = np.random.default_rng(7)
        circuits = {
            "small": lambda: [build_rat(SMALL_RAT)],
            "mid": lambda: [build_rat(MID_RAT)],
            "fused-dag": lambda: [build_manual(FUSED_DAG + "root s1 s2")],
            "trees": lambda: [random_tree_circuit(rng, num_classes=2) for _ in range(6)],
            "dags": lambda: [random_dag_circuit(rng) for _ in range(6)],
        }[name]()
        bits = lambda a: np.ascontiguousarray(a).view(np.int64)  # noqa: E731
        for c in circuits:
            X = np.array([random_evidence(rng, c, 0.3) for _ in range(6)])
            X[0] = np.nan
            for p in (0.0, 0.1, 0.3):
                config = DropoutConfig.with_p(p)
                logv, log_e, log_v = unfused_passes(c, X, config)
                np.testing.assert_array_equal(
                    bits(forward_log_values(c, X, nodes=c.layout().order)), bits(logv))
                for got, want in zip(tdi_pass_batch(c, X, config), (log_e, log_v)):
                    np.testing.assert_array_equal(bits(got), bits(want))


class TestSpareArrays:
    """A layout keeps the large value arrays of finished passes for later
    ones; these tests keep arrays of any size."""

    def test_a_finished_pass_array_is_reused_and_pickles_drop_it(self, monkeypatch):
        c = build_rat(SMALL_RAT)
        layout = c.layout()
        X = np.random.default_rng(1).normal(size=(5, c.num_variables))
        slots = forward_log_values(c, X, nodes=layout.order)  # the caller's own array
        layout.finish(slots, c.roots)
        assert layout.values(len(X)) is not slots  # too small to keep
        monkeypatch.setattr(circuit_module, "_SPARE_MIN", 0)
        roots = layout.finish(slots, c.roots)  # copies the roots and keeps the array
        assert layout.values(len(X)) is slots
        layout.finish(slots, c.roots)
        again = pickle.loads(pickle.dumps(c))
        assert again.layout().values(len(X)) is not slots
        np.testing.assert_array_equal(forward_log_values(again, X, nodes=c.roots), roots)

    def test_threads_sharing_a_circuit_never_share_a_pass_array(self, monkeypatch):
        monkeypatch.setattr(circuit_module, "_SPARE_MIN", 0)
        c = build_rat(SMALL_RAT)
        rng = np.random.default_rng(2)
        batches = [rng.normal(size=(9, c.num_variables)) for _ in range(4)]
        labels = rng.integers(c.num_classes, size=9)
        config = DropoutConfig.with_p(0.1)

        def passes(x):
            return (log_likelihood_batch(c, x), *posterior_moments_batch(c, x, config),
                    *loss_and_grad(c, x, labels)[1:])

        expected = [passes(x) for x in batches]
        wrong = []

        def work():
            for _ in range(8):
                for x, want in zip(batches, expected):
                    if not all(np.array_equal(a, b) for a, b in zip(passes(x), want)):
                        wrong.append(x)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong


def test_a_row_is_a_batch_of_one_to_the_bit():
    """Every node's value and moments for one row equal that row's column of
    a wider pass bit for bit, sums over many children included, in groups
    of many sums (the RAT) and of one (its permuted copy)."""
    rat = build_rat(MID_RAT)
    bits = lambda a: np.ascontiguousarray(a).view(np.int64)  # noqa: E731
    config = DropoutConfig.with_p(0.1)
    for c in (rat, permuted(rat, np.random.default_rng(3))[0]):
        X = np.random.default_rng(4).normal(size=(7, c.num_variables))
        X[2, ::5] = np.nan
        values = forward_log_values(c, X)
        log_e, log_v = tdi_pass_batch(c, X, config)
        for r in (0, 2, 6):
            np.testing.assert_array_equal(bits(forward_log_values(c, X[r : r + 1])[:, 0]),
                                          bits(values[:, r]))
            one_e, one_v = tdi_pass_batch(c, X[r : r + 1], config)
            np.testing.assert_array_equal(bits(one_e[:, 0]), bits(log_e[:, r]))
            np.testing.assert_array_equal(bits(one_v[:, 0]), bits(log_v[:, r]))


def test_keep_mask_needs_one_row_and_every_sum_edge():
    c = build_rat(SMALL_RAT)
    edges = c.layout().num_sum_edges
    X = np.random.default_rng(0).normal(size=(2, c.num_variables))
    for rows, shape in ((2, (2, edges)), (1, (2, edges + 1)), (1, (2, edges - 1)),
                        (1, (edges,))):
        with pytest.raises(ShapeError):
            forward_log_values(c, X[:rows], np.ones(shape, dtype=bool))
    for bad in (X[0], np.zeros((2, c.num_variables + 1))):  # 1-D; one variable too many
        with pytest.raises(ShapeError):
            forward_log_values(c, bad)
    kept = forward_log_values(c, X[:1], np.ones((2, edges), dtype=bool), nodes=c.roots)
    np.testing.assert_allclose(kept, np.repeat(forward_log_values(c, X[:1])[c.roots], 2, 1),
                               rtol=1e-13)


def test_keep_mask_must_be_boolean():
    """A float or integer mask would scale the weights by its values
    instead of keeping or dropping edges."""
    c = build_rat(SMALL_RAT)
    x = np.random.default_rng(0).normal(size=(1, c.num_variables))
    edges = c.layout().num_sum_edges
    for mask in (np.full((2, edges), 0.5), np.full((2, edges), 2), np.ones((2, edges), np.uint8)):
        with pytest.raises(ShapeError, match="boolean"):
            forward_log_values(c, x, mask)


def test_shifted_mix_recovers_sums_below_a_zero_weight_sibling():
    # The group shift is the largest child value, a's, which carries weight 0;
    # b sits 800 nats below it, so exp(b - a) flushes to zero.  b's log value
    # is about -110, so the root's moments stay representable for the oracle.
    c = build_manual("""
    a gaussian 0 0.0 1e-300
    b gaussian 0 14.78 1.0
    s sum 0.0 a 1.0 b
    root s
    """)
    x = np.array([0.0])
    root = c.roots[0]
    # the oracle squares a's value (about e^690) in linear space
    with np.errstate(over="ignore", invalid="ignore"):
        plain = enumerate_dropout_moments(c, x, 0.0)
        dropped = enumerate_dropout_moments(c, x, 0.1)
    log_b = math.log(plain.expectation[1])
    assert forward_log_values(c, x[None])[0, 0] - log_b == pytest.approx(800.0, abs=0.01)
    want = math.log(plain.expectation[root])
    assert log_likelihood(c, x)[0] == pytest.approx(want, rel=1e-14)
    assert log_likelihood_batch(c, np.array([[0.0], [0.0]]))[:, 0] == pytest.approx(
        [want, want], rel=1e-14)
    frame = tdi_pass(c, x, DropoutConfig.with_p(0.1))
    assert frame.log_expectation[root] == pytest.approx(
        math.log(dropped.expectation[root]), rel=1e-14)
    assert frame.log_variance[root] == pytest.approx(math.log(dropped.variance[root]), rel=1e-12)
    # Under the same shift, b's share of s overflows in the reverse pass and
    # is recomputed exactly: b's share is 1 and a's is 0.
    loss, grad = loss_and_grad(c, x[None], np.array([0]))
    assert loss == pytest.approx(-want, rel=1e-14)
    # θ: s's two logits, then the means of a and b, then their log stds
    np.testing.assert_allclose(grad, [0.0, 0.0, 0.0, 14.78, 0.0, 1.0 - 14.78**2], rtol=1e-13)
    # Masked passes that keep both edges, drop a, and drop b.
    keep = np.array([[True, False, True], [True, True, False]])
    masked = forward_log_values(c, x[None], in_plan_order(c, keep))[root]
    assert masked[:2] == pytest.approx([want, want], rel=1e-14)
    assert masked[2] == -np.inf


# ---------------------------------------------------------------------------
# Cross-path property: permuting each sum's children splits every group into
# groups of one, and must not change any result.


def edge_map(circuit: Circuit, perms: dict) -> np.ndarray:
    """Index, in the original circuit's sum-edge order, of each sum edge of
    the permuted circuit; the same map reorders the parameter vector."""
    start = {}
    for e, (i, k) in enumerate(circuit.sum_edges()):
        start.setdefault(i, e)
    return np.array([start[i] + perms[i][k] for i, k in circuit.sum_edges()])


def in_plan_order(circuit: Circuit, keep: np.ndarray) -> np.ndarray:
    """A (sum edges, passes) mask in :meth:`Circuit.sum_edges` order as the
    (passes, sum edges) plan-order mask that masked passes take."""
    return keep[circuit.layout().sum_edge_order].T


def theta_map(circuit: Circuit, other: Circuit, perms: dict) -> np.ndarray:
    """Index, in the circuit's parameter vector, of each entry of the permuted
    circuit's: sum edges through both plan orders, leaf parameters in place."""
    order = circuit.layout().sum_edge_order
    position = np.empty_like(order)
    position[order] = np.arange(len(order))  # sum_edges() index -> plan position
    index = np.arange(ParameterSpace.of(circuit).size)
    index[: len(order)] = position[edge_map(circuit, perms)[other.layout().sum_edge_order]]
    return index


rat_configs = st.builds(
    lambda s, i, d, r, c, extra, seed: RatConfig(s, i, d, r, c, 2**d + extra, rng_seed=seed),
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 2), st.integers(1, 2),
    st.integers(1, 3), st.integers(0, 2), st.integers(0, 1000))
circuits = st.one_of(
    rat_configs.map(build_rat),
    st.integers(0, 2**32 - 1).map(lambda s: random_dag_circuit(np.random.default_rng(s))),
)


@settings(max_examples=30, deadline=None)
@given(circuits, st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.1, 0.3]))
def test_grouped_and_single_groups_agree(circuit, seed, p):
    rng = np.random.default_rng(seed)
    other, perms = permuted(circuit, rng)
    X = np.array([random_evidence(rng, circuit, 0.2) for _ in range(6)])
    tol = dict(rtol=1e-12, atol=1e-12)

    np.testing.assert_allclose(log_likelihood_batch(other, X), log_likelihood_batch(circuit, X),
                               **tol)
    config = DropoutConfig.with_p(p)
    for a, b in zip(tdi_pass_batch(other, X, config), tdi_pass_batch(circuit, X, config)):
        assert np.array_equal(np.isneginf(a), np.isneginf(b))
        np.testing.assert_allclose(a[~np.isneginf(a)], b[~np.isneginf(b)], **tol)

    # The masked passes of Monte Carlo dropout, with each edge's keep bits
    # following the edge: the MCD posterior means are means over these roots.
    keep = rng.random((circuit.layout().num_sum_edges, 16)) >= 0.3
    keep[:, 0] = True  # a pass that keeps every edge is the plain forward pass
    masked = forward_log_values(other, X[:1],
                                in_plan_order(other, keep[edge_map(circuit, perms)]))[other.roots]
    expected = forward_log_values(circuit, X[:1], in_plan_order(circuit, keep))[circuit.roots]
    assert np.array_equal(np.isneginf(masked), np.isneginf(expected))
    np.testing.assert_allclose(masked[~np.isneginf(masked)],
                               expected[~np.isneginf(expected)], **tol)
    np.testing.assert_allclose(expected[:, 0], log_likelihood_batch(circuit, X[:1])[0], **tol)

    labels = rng.integers(circuit.num_classes, size=len(X))
    loss_a, grad_a = loss_and_grad(other, X, labels)
    loss_b, grad_b = loss_and_grad(circuit, X, labels)
    assert loss_a == pytest.approx(loss_b, rel=1e-12)
    index = theta_map(circuit, other, perms)
    np.testing.assert_allclose(grad_a, grad_b[index], rtol=0,
                               atol=1e-12 * max(1.0, np.max(np.abs(grad_b))))
