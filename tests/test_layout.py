"""The layer plan: how sums and products group, and that grouped and
ungrouped evaluation of one circuit agree."""

import itertools
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
    deserialize,
    log_likelihood,
    log_likelihood_batch,
    serialize,
    tdi_pass,
    tdi_pass_batch,
)
import circuq.circuit as circuit_module
from circuq.circuit import forward_log_values, log_mix, mix
from circuq.enumeration import enumerate_dropout_moments, linear_forward
from circuq.structures import random_dag_circuit, random_evidence, random_tree_circuit
from circuq.train import ParameterSpace, TrainConfig, fit, loss_and_grad
from circuq.moments import (_factor_terms, _product_moments, _sum_moments, posterior_moments,
                            posterior_moments_batch, posterior_summary_batch)

from conftest import child_terms, log_space_mix, partition_products, permuted, repetitions

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
    runs: the schedule without fused steps, and with no layer taken as
    constant, so the moment kernels' general path also runs on the layers
    that read only leaves.  Each sum layer mixes its products from their
    factors, as every pass does: a fused product layer's, or its children
    as products of one factor (Layout.mixes).  Returns the slot-order log
    values, and the log expectations and variances in node order."""
    plan = circuit.plan()
    layout = plan.layout
    logv, log_e, log_v = (np.empty((len(layout.order), len(X))) for _ in range(3))
    plan.leaf_log_values(X, logv)
    plan.leaf_log_values(X, log_e)
    log_v[: layout.num_leaves] = -np.inf
    log_q = np.log(config.q)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k, (layer, lw, w, w2) in enumerate(zip(layout.layers, plan.log_weights, plan.weights,
                                                   plan.squared_weights)):
            products = layout.mixes[k]
            for b in layer.blocks(len(X)):
                out = layer.output(log_e, b), layer.output(log_v, b)
                if layer.kind == "product":
                    layer.outer([read.read(logv, b) for read in layer.reads],
                                out=layer.output(logv, b))
                    _product_moments(layer, [read.read(log_e, b) for read in layer.reads],
                                     [read.read(log_v, b) for read in layer.reads], out, False)
                else:
                    g = products.feeding(layer, b)
                    shape = (b.stop - b.start, layer.children.shape[1], len(X))
                    factors = [products.stacked.read(a, g) for a in (logv, log_e, log_v)]
                    layer.output(logv, b)[...] = log_mix(w[b], lw[b], factors[0], np.empty(shape))
                    terms = _factor_terms(w2[b], products, factors[1], factors[2],
                                          (np.empty(shape), np.empty(shape)), config.p, False)
                    _sum_moments(w[b], lw[b], log_q, config.p, out, *terms)
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
        monkeypatch.setattr(circuit_module, "_PREPARED_BYTES", 0)  # and no prepared pass
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

    def test_training_touches_no_fused_product_slot(self, monkeypatch):
        """Training runs the roots-only forward and remakes the fused
        products from their factors in its reverse: with the fused product
        rows of its value and adjoint arrays NaN, every other row of them is
        written, those rows stay NaN, and the loss and gradient keep their
        bits, under both objectives."""
        monkeypatch.setattr(circuit_module, "_SPARE_MIN", 0)  # keep every pass array
        monkeypatch.setattr(circuit_module, "_PREPARED_BYTES", 0)  # and no prepared pass
        c = build_rat(SMALL_RAT)
        layout = c.layout()
        hidden = fused_slots(layout)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, c.num_variables))
        X[1, ::3] = np.nan
        y = rng.integers(c.num_classes, size=len(X))
        bits = lambda a: np.asarray(a).view(np.int64)  # noqa: E731
        for objective in ("head", "cross_entropy"):
            loss, grad = loss_and_grad(c, X, y, objective)
            arrays = [layout.values(len(X)) for _ in range(2)]  # those the call gave back
            for a in arrays:
                a.fill(np.nan)
            layout.spare.give(*arrays)
            again, again_grad = loss_and_grad(c, X, y, objective)
            taken = [layout.values(len(X)) for _ in arrays]  # the same arrays, reused
            assert sorted(map(id, taken)) == sorted(map(id, arrays))
            for a in arrays:
                np.testing.assert_array_equal(np.isnan(a), np.broadcast_to(hidden[:, None],
                                                                           a.shape))
            layout.spare.give(*arrays)
            assert bits(again) == bits(loss)
            np.testing.assert_array_equal(bits(again_grad), bits(grad))

    @pytest.mark.parametrize("name", ["small", "mid", "fused-dag", "trees", "dags"])
    def test_the_fused_steps_equal_an_unfused_pass(self, name):
        """The every-node forward and the every-node moment pass equal, bit
        for bit, a pass that runs each product layer whole before the sum
        layer that reads it, with marginalized evidence and a row of it."""
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


def log_space_passes(circuit, X, config):
    """The forward and the moment pass with every product layer written
    whole and every sum layer mixed from its children's log values, shifted
    by the largest of them: the log-space arithmetic that fused sums
    replaced.  Returns the log values, expectations and variances in node
    order."""
    plan = circuit.plan()
    layout = plan.layout
    logv, log_e, log_v = (np.empty((len(layout.order), len(X))) for _ in range(3))
    plan.leaf_log_values(X, logv)
    plan.leaf_log_values(X, log_e)
    log_v[: layout.num_leaves] = -np.inf
    log_q = np.log(config.q)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for layer, lw, w, w2 in zip(layout.layers, plan.log_weights, plan.weights,
                                    plan.squared_weights):
            for b in layer.blocks(len(X)):
                out = layer.output(log_e, b), layer.output(log_v, b)
                if layer.kind == "product":
                    layer.outer([read.read(logv, b) for read in layer.reads],
                                out=layer.output(logv, b))
                    _product_moments(layer, [read.read(log_e, b) for read in layer.reads],
                                     [read.read(log_v, b) for read in layer.reads], out, False)
                else:
                    children = layer.reads[0]
                    layer.output(logv, b)[...] = log_space_mix(w[b], lw[b],
                                                               children.read(logv, b))
                    terms = child_terms(w2[b], children.read(log_e, b), children.read(log_v, b),
                                        config.p, False)
                    _sum_moments(w[b], lw[b], log_q, config.p, out, *terms)
    return logv[layout.slot], log_e[layout.slot], log_v[layout.slot]


# Sums over {a, b} x {c, d}: a sits about 800 above b, so under the shift of
# the products of a, those of b flush to zero.  s1 gives a's products zero
# weight, and s2 mixes p1 with p3, so dropping p1 flushes s2 too.
FLUSHED_FUSED = """
a gaussian 0 0.0 1e-300
b gaussian 0 14.78 1.0
c gaussian 1 0.0 1.0
d gaussian 1 1.0 1.0
p1 product a c
p2 product a d
p3 product b c
p4 product b d
s1 sum 0.0 p1 0.0 p2 0.25 p3 0.75 p4
s2 sum 0.5 p1 0.0 p2 0.5 p3 0.0 p4
root s1 s2
"""


class TestFactoredMix:
    """Fused sums mix their products from the factors, each shifted by its
    own largest value, instead of from the products' log values."""

    ULPS = 8  # in units of the double epsilon, relative to max(1, |value|)

    def assert_matches_log_space(self, c, X, bitwise: int = 0):
        """Every node's log value, expectation and variance is the log-space
        pass's within ULPS, and -inf exactly where it is; the first
        ``bitwise`` of them bit for bit."""
        bound = self.ULPS * np.finfo(np.float64).eps
        bits = lambda a: np.ascontiguousarray(a).view(np.int64)  # noqa: E731
        for p in (0.0, 0.1, 0.3):
            dropout = DropoutConfig.with_p(p)
            got = (forward_log_values(c, X), *tdi_pass_batch(c, X, dropout))
            wanted = log_space_passes(c, X, dropout)
            assert np.isneginf(wanted[0]).any() and np.isfinite(wanted[2]).any() == (p > 0)
            for g, want in zip(got[:bitwise], wanted):
                np.testing.assert_array_equal(bits(g), bits(want))
            for g, want in zip(got, wanted):
                np.testing.assert_array_equal(np.isneginf(g), np.isneginf(want))
                finite = np.isfinite(want)
                err = np.abs(g[finite] - want[finite]) / np.maximum(1.0, np.abs(want[finite]))
                assert err.max(initial=0.0) <= bound

    @pytest.mark.parametrize("seed", range(4))
    def test_it_matches_the_log_space_arithmetic(self, seed):
        """Random RATs with several repetitions, so that heads read several
        product groups, with a marginalized row and far-out values whose
        factors are -inf."""
        rng = np.random.default_rng(seed)
        for _ in range(3):
            config = RatConfig(int(rng.integers(2, 6)), int(rng.integers(2, 6)),
                               int(rng.integers(1, 4)), int(rng.integers(2, 4)), 3, 16,
                               rng_seed=int(rng.integers(1000)))
            c = build_rat(config)
            assert c.layout().layers[-1].children.shape[1] > c.layout().layers[-2].nodes.shape[1]
            X = np.array([random_evidence(rng, c, 0.3) for _ in range(6)])
            X[0] = np.nan
            X[1, rng.integers(c.num_variables)] = 1e200
            self.assert_matches_log_space(c, X)

    @pytest.mark.parametrize("kind", ["tree", "dag"])
    def test_unfused_sums_match_the_log_space_arithmetic(self, kind):
        """Random trees and DAGs, whose sums mix their children as products
        of one factor, with a marginalized row and a far-out value whose
        leaf is -inf: their log values and expectations are the log-space
        pass's bit for bit, and the variances, one (W o W) mix where the
        log-space pass takes two, within ULPS."""
        rng = np.random.default_rng(11 if kind == "tree" else 12)
        tested = 0
        while tested < 8:
            c = (random_tree_circuit(rng, num_classes=2) if kind == "tree"
                 else random_dag_circuit(rng))
            gaussian = c.layout().leaves["gaussian"][1]
            if not len(gaussian):
                continue
            X = np.array([random_evidence(rng, c, 0.3) for _ in range(6)])
            X[0] = np.nan
            X[1, rng.choice(gaussian)] = 1e200
            self.assert_matches_log_space(c, X, bitwise=2)
            tested += 1

    @pytest.mark.parametrize("factors", [1, 3])
    def test_products_of_one_or_three_factors(self, factors):
        """Fused product groups of one factor, and of three, which no RAT
        has: their sums read every combination of {a, b}, {c, d}, {e, f}."""
        leaves = ["a gaussian 0 0.0 1.0", "b gaussian 0 1.0 2.0", "c gaussian 1 0.0 1.0",
                  "d gaussian 1 1.0 0.5", "e gaussian 2 0.5 1.0", "f gaussian 2 -1.0 1.0"]
        combos = list(itertools.product(*["ab", "cd", "ef"][:factors]))
        rng = np.random.default_rng(factors)
        spec = leaves[: 2 * factors] + [f"p{i} product {' '.join(kids)}"
                                        for i, kids in enumerate(combos)]
        spec += [f"s{k} sum " + " ".join(f"{w} p{i}" for i, w in
                                         enumerate(rng.dirichlet(np.ones(len(combos)))))
                 for k in range(2)] + ["root s0 s1"]
        c = build_manual("\n".join(spec))
        assert c.layout().fused[0] and len(c.layout().layers[0].factors) == factors
        X = rng.normal(size=(5, factors))
        X[0] = np.nan
        X[1, -1] = 1e200
        self.assert_matches_log_space(c, X)

    def test_a_flushed_fused_sum_is_recomputed_exactly(self):
        """A fused sum whose weighted products all sit far below a product
        with zero weight, or a dropped one, flushes under the common shift;
        its value, and its moments, are recomputed from the factors."""
        c = build_manual(FLUSHED_FUSED)
        assert c.layout().fused[0]
        x = np.array([0.0, 0.3])
        a, b, cc, d = forward_log_values(c, x[None], nodes=[0, 1, 2, 3])[:, 0]
        assert a - b > 750
        s1 = np.logaddexp(np.log(0.25) + b + cc, np.log(0.75) + b + d)
        roots = forward_log_values(c, x[None], nodes=c.roots)[:, 0]
        assert roots[0] == pytest.approx(s1, rel=1e-14)
        # edges in plan order: s1's four, then s2's; drop s2's edge to p1
        keep = np.ones((2, 8), dtype=bool)
        keep[1, 4] = False
        masked = forward_log_values(c, x[None], keep, nodes=c.roots)
        assert masked[1, 1] == pytest.approx(np.log(0.5) + b + cc, rel=1e-14)
        assert masked[0, 0] == masked[0, 1] == roots[0] and masked[1, 0] > 600
        p = 0.2
        log_e, log_v = tdi_pass_batch(c, x[None], DropoutConfig.with_p(p), nodes=c.roots)
        q = 1.0 - p
        assert log_e[0, 0] == pytest.approx(np.log(q) + s1, rel=1e-14)
        var = np.logaddexp(2 * np.log(0.25) + 2 * (b + cc), 2 * np.log(0.75) + 2 * (b + d))
        assert log_v[0, 0] == pytest.approx(np.log(q * p) + var, rel=1e-14)


class TestSpareArrays:
    """A layout keeps the large value arrays of finished passes for later
    ones; these tests keep arrays of any size."""

    def test_a_finished_pass_array_is_reused_and_pickles_drop_it(self, monkeypatch):
        c = build_rat(SMALL_RAT)
        layout = c.layout()
        X = np.random.default_rng(1).normal(size=(5, c.num_variables))
        slots = forward_log_values(c, X, nodes=layout.order)  # the caller's own array
        roots = slots[layout.slot[c.roots]]
        layout.spare.give(slots)
        assert layout.values(len(X)) is not slots  # too small to keep
        monkeypatch.setattr(circuit_module, "_SPARE_MIN", 0)
        layout.spare.give(slots)  # keeps the array
        assert layout.values(len(X)) is slots
        layout.spare.give(slots)
        again = pickle.loads(pickle.dumps(c))
        assert again.layout().values(len(X)) is not slots
        np.testing.assert_array_equal(forward_log_values(again, X, nodes=c.roots), roots)

    @staticmethod
    def kept_pass_found(c, x, monkeypatch) -> bool:
        """Whether the second of two one-row posterior_moments calls reuses
        the prepared pass that the first one kept."""
        spare = c.layout().spare
        found, take = [], spare.take_prepared
        monkeypatch.setattr(spare, "take_prepared", lambda key: found.append(take(key)) or found[-1])
        for _ in range(2):
            posterior_moments(c, x, DropoutConfig.with_p(0.1))
        return found[-1] is not None

    def test_a_one_row_training_step_reuses_its_kept_pass(self, monkeypatch):
        """A one-row loss_and_grad keeps its forward pass for the next one,
        which reuses it and gives the same bits."""
        c = build_rat(SMALL_RAT)
        spare = c.layout().spare
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(1, c.num_variables)), rng.integers(c.num_classes, size=1)
        found, take = [], spare.take_prepared
        monkeypatch.setattr(spare, "take_prepared", lambda key: found.append(take(key)) or found[-1])
        (loss, grad), (again, again_grad) = (loss_and_grad(c, x, y) for _ in range(2))
        assert found[0] is None and found[1] is not None
        assert again == loss
        np.testing.assert_array_equal(again_grad, grad)

    def test_aborted_fits_leave_no_pass_lent(self, monkeypatch):
        """Training's forward pass is lent to it; two fits on 100 rows whose
        first step raises, since one row at 1e200 makes the loss non-finite,
        give it back all the same, and one-row passes are kept after them."""
        c = build_rat(SMALL_RAT)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(100, c.num_variables))
        X[7, 3] = 1e200
        y = rng.integers(c.num_classes, size=100)
        for _ in range(2):
            assert fit(c, X, y, TrainConfig(epochs=1, batch_size=100))[1].aborted
        assert not any(lent for _, _, lent in c.layout().spare._prepared)
        assert self.kept_pass_found(c, X[0], monkeypatch)

    def test_a_held_pass_array_holds_up_no_later_pass(self, monkeypatch):
        """A caller may keep the array of a pass that asked for the layout
        order: no later pass writes into it, and later passes are kept."""
        c = build_rat(SMALL_RAT)
        layout = c.layout()
        X = np.random.default_rng(6).normal(size=(100, c.num_variables))
        held = [forward_log_values(c, X + k, nodes=layout.order) for k in range(3)]
        copies = [a.copy() for a in held]
        for k in range(3):
            forward_log_values(c, X - k, nodes=layout.order)
            log_likelihood_batch(c, X - k)
        assert self.kept_pass_found(c, X[0], monkeypatch)
        for a, copy in zip(held, copies):
            np.testing.assert_array_equal(a, copy)

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


def test_a_roots_only_row_is_a_batch_of_one_to_the_bit():
    """A request for the roots alone, which the likelihood and posterior
    calls make, gives one row the bits of its column of a wider pass: the
    forward and the moment pass on the small RAT, a random tree and a random
    DAG, with marginalized evidence and a row of it.  And one row's
    posterior_moments equals its row of posterior_summary_batch on the small
    RAT under SIMPLE and TREE_ZERO."""
    rng = np.random.default_rng(11)
    bits = lambda a: np.ascontiguousarray(a).view(np.int64)  # noqa: E731
    config = DropoutConfig.with_p(0.1)
    for c in (build_rat(SMALL_RAT), random_tree_circuit(rng, num_classes=2),
              random_dag_circuit(rng)):
        X = np.array([random_evidence(rng, c, 0.3) for _ in range(7)])
        X[2] = np.nan
        values = forward_log_values(c, X, nodes=c.roots)
        log_e, log_v = tdi_pass_batch(c, X, config, nodes=c.roots)
        for r in range(len(X)):
            np.testing.assert_array_equal(
                bits(forward_log_values(c, X[r : r + 1], nodes=c.roots)[:, 0]), bits(values[:, r]))
            one_e, one_v = tdi_pass_batch(c, X[r : r + 1], config, nodes=c.roots)
            np.testing.assert_array_equal(bits(one_e[:, 0]), bits(log_e[:, r]))
            np.testing.assert_array_equal(bits(one_v[:, 0]), bits(log_v[:, r]))
    rat = build_rat(SMALL_RAT)
    X = rng.normal(size=(7, rat.num_variables))
    X[3, ::4] = np.nan
    batch = posterior_summary_batch(rat, X, config)
    for r in range(len(X)):
        pm = posterior_moments(rat, X[r], config)
        for name in ("mean", "variance", "std", "entropy", "normalized_entropy"):
            np.testing.assert_array_equal(bits(np.asarray(getattr(pm, name))),
                                          bits(getattr(batch, name)[r]))
        np.testing.assert_array_equal(bits(pm.metadata["raw_mean"]),
                                      bits(batch.metadata["raw_mean"][r]))


@pytest.mark.parametrize("K", [1, 2, 7, 25, 100, 500])
def test_one_column_mixes_as_in_a_wider_mix(K):
    """The plan's weights and squared weights, mixed with one column by
    circuit.mix, give that column's bits in a mix of 2, 7 or 256 columns:
    einsum sums one k at a time at every width, since the plan holds a
    weight's K values apart."""
    rng = np.random.default_rng(K)
    leaves = "\n".join(f"g{i} gaussian 0 {rng.normal():.17g} 1.0" for i in range(K))
    sums = "\n".join("s{} sum {}".format(j, " ".join(
        f"{w:.17g} g{i}" for i, w in enumerate(rng.dirichlet(np.ones(K))))) for j in range(3))
    plan = build_manual(f"{leaves}\n{sums}\nroot s0 s1 s2").plan()
    (k,) = [k for k, layer in enumerate(plan.layout.layers) if layer.kind == "sum"]
    bits = lambda a: np.ascontiguousarray(a).view(np.int64)  # noqa: E731
    for w in (plan.weights[k], plan.squared_weights[k]):
        assert w.shape == (1, 3, K)
        for width in (2, 7, 256):
            lin = rng.random((1, K, width))
            wide = mix(w, lin)
            for c in {0, width // 2, width - 1}:
                one = mix(w, np.ascontiguousarray(lin[..., c : c + 1]))
                np.testing.assert_array_equal(bits(one[..., 0]), bits(wide[..., c]))


def test_a_pickled_plan_keeps_its_weights_apart():
    """A pickled circuit rebuilds its plan's weights beside their squares,
    so one row through it keeps the bits of the original's passes."""
    c = build_rat(SMALL_RAT)
    x = np.random.default_rng(12).normal(size=c.num_variables)
    config = DropoutConfig.with_p(0.1)
    want = log_likelihood(c, x), posterior_moments(c, x, config).variance
    again = pickle.loads(pickle.dumps(c))
    for w, w2 in zip(again.plan().weights, again.plan().squared_weights):
        if w is not None:
            assert w.strides[-1] == w2.strides[-1] == 2 * w.itemsize
            assert w.base is w2.base
    bits = lambda a: np.ascontiguousarray(a).view(np.int64)  # noqa: E731
    for got, expected in zip((log_likelihood(again, x),
                              posterior_moments(again, x, config).variance), want):
        np.testing.assert_array_equal(bits(got), bits(expected))


def test_keep_mask_needs_whole_rows_and_every_sum_edge():
    """A masked pass runs the same positive number of passes for each row."""
    c = build_rat(SMALL_RAT)
    edges = c.layout().num_sum_edges
    X = np.random.default_rng(0).normal(size=(2, c.num_variables))
    for rows, shape in ((2, (3, edges)), (2, (1, edges)), (2, (0, edges)), (0, (2, edges)),
                        (1, (2, edges + 1)), (1, (2, edges - 1)), (1, (edges,))):
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


# ---------------------------------------------------------------------------
# The compile over columns against a grouping that walks the nodes


def node_layers(circuit: Circuit) -> tuple[list, list]:
    """Each layer's (kind, nodes, factors) and the plan's sum edge order,
    grouped node by node: the reference for the compile over columns.

    Nodes fall into levels by depth (one more than the deepest child) and
    kind, the products of a depth before its sums.  Within a level, the
    sums over one child list are a group, in order of their first member.
    Each product points at its earliest same-arity sibling that shares a
    child at some position and follows those pointers to their end; a set of
    products with one end is a group when it is, in node order, every
    combination of each position's distinct children in first-seen order,
    and otherwise each of its products is a group of one.  Groups of one
    shape stack into a layer, in order of their first group.
    """
    nodes = circuit.nodes
    depth, levels, edge_start, edges = [0] * len(nodes), {}, {}, 0
    for i, node in enumerate(nodes):
        if node.children:
            depth[i] = 1 + max(depth[c] for c in node.children)
            levels.setdefault((depth[i], node.kind), []).append(i)
        if node.kind == "sum":
            edge_start[i], edges = edges, edges + len(node.children)
    layers, edge_order = [], []
    for (_, kind), ids in sorted(levels.items()):
        groups = []
        if kind == "sum":
            by_children = {}
            for i in ids:
                by_children.setdefault(tuple(nodes[i].children), []).append(i)
            groups = [(members, [list(kids)]) for kids, members in by_children.items()]
        by_arity = {}
        for i in ids if kind == "product" else ():
            by_arity.setdefault(len(nodes[i].children), []).append(i)
        for members in by_arity.values():
            end = list(range(len(members)))
            for f in range(len(nodes[members[0]].children)):
                first = {}
                for k, i in enumerate(members):
                    end[k] = min(end[k], first.setdefault(nodes[i].children[f], k))
            parts = {}
            for k in range(len(end)):
                while end[end[k]] != end[k]:
                    end[k] = end[end[k]]
                parts.setdefault(end[k], []).append(k)
            for part in parts.values():
                rows = [list(nodes[members[k]].children) for k in part]
                factors = [list(dict.fromkeys(column)) for column in zip(*rows)]
                if [list(combination) for combination in itertools.product(*factors)] == rows:
                    groups.append(([members[k] for k in part], factors))
                else:
                    groups += [([members[k]], [[c] for c in row]) for k, row in zip(part, rows)]
        stacks = {}
        for members, factors in groups:
            stacks.setdefault((len(members), *map(len, factors)), []).append((members, factors))
        for stack in stacks.values():
            ids = [members for members, _ in stack]
            layers.append((kind, ids, [[fs[f] for _, fs in stack] for f in range(len(stack[0][1]))]))
            if kind == "sum":
                edge_order += [edge_start[i] + k for row, (_, (kids,)) in zip(ids, stack)
                               for i in row for k in range(len(kids))]
    return layers, edge_order


def bits(arrays) -> list:
    return [None if a is None else (a.dtype, a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    rat_configs.map(build_rat),
    st.integers(0, 2**32 - 1).map(lambda s: deserialize(serialize(
        random_tree_circuit(np.random.default_rng(s), num_classes=2)))),
    st.integers(0, 2**32 - 1).map(lambda s: deserialize(serialize(
        random_dag_circuit(np.random.default_rng(s)))))),
    st.integers(0, 2**32 - 1))
def test_columns_and_nodes_compile_alike(circuit, seed):
    """A circuit held as columns and one made of its node objects compile to
    the node-by-node grouping's layers and edge order and to one layout and
    plan, and every pass gives the same bits on both."""
    layout, plan = circuit.layout(), circuit.plan()  # compiled before the nodes are read
    nodes = Circuit(list(circuit.nodes), list(circuit.roots), circuit.num_variables,
                    circuit.log_class_priors)
    expected, edge_order = node_layers(nodes)
    for one in (layout, nodes.layout()):
        assert [(layer.kind, layer.nodes.tolist(),
                 [f.tolist() for f in (layer.factors if layer.kind == "product"
                                       else (layer.children,))])
                for layer in one.layers] == expected
        assert one.sum_edge_order.tolist() == edge_order
    other = nodes.layout()
    assert other is not layout
    for name in ("slot", "order", "shared"):
        assert bits([getattr(layout, name)]) == bits([getattr(other, name)])
    for name in ("prefix", "invariant", "narrow", "fused", "is_tree", "regions"):
        assert getattr(layout, name) == getattr(other, name)
    assert {k: bits(v) for k, v in layout.leaves.items()} == {
        k: bits(v) for k, v in other.leaves.items()}
    for a, b in zip(layout.layers, other.layers, strict=True):
        assert (a.distinct, a.start) == (b.distinct, b.start)
        assert [(r.strides, r.first) for r in a.reads] == [(r.strides, r.first) for r in b.reads]
        assert bits(r.slots for r in a.reads) == bits(r.slots for r in b.reads)
    for name in ("log_weights", "weights"):
        assert bits(getattr(plan, name)) == bits(getattr(nodes.plan(), name))
    assert bits([plan.mean, plan.log_std, plan.log_probs, plan.states, plan.inv_std]) == bits(
        [nodes.plan().mean, nodes.plan().log_std, nodes.plan().log_probs, nodes.plan().states,
         nodes.plan().inv_std])

    rng = np.random.default_rng(seed)
    X = np.array([random_evidence(rng, nodes, 0.2) for _ in range(5)])
    keep = rng.random((7, layout.num_sum_edges)) >= 0.3
    config = DropoutConfig.with_p(0.2)
    for a, b in ((circuit, nodes), (nodes, circuit)):
        assert bits([forward_log_values(a, X), log_likelihood_batch(a, X),
                     *tdi_pass_batch(a, X, config), forward_log_values(a, X[:1], keep)]) == bits(
            [forward_log_values(b, X), log_likelihood_batch(b, X),
             *tdi_pass_batch(b, X, config), forward_log_values(b, X[:1], keep)])


def test_a_run_of_sums_is_a_whole_child_list():
    """Sums that share their first and last child but not the middle one are
    two groups, and a repeated child list one."""
    c = build_manual("""
    g0 gaussian 0 0.0 1.0
    g1 gaussian 0 0.5 1.0
    g2 gaussian 0 -0.5 1.0
    g3 gaussian 0 1.0 1.0
    a sum 0.2 g0 0.3 g1 0.5 g3
    b sum 0.2 g0 0.3 g2 0.5 g3
    c sum 0.4 g0 0.3 g2 0.3 g3
    r sum 0.5 a 0.25 b 0.25 c
    root r
    """)
    c = deserialize(serialize(c))
    layers = c.layout().layers
    assert [layer.nodes.tolist() for layer in layers] == [[[4]], [[5, 6]], [[7]]]
    assert node_layers(c)[0] == [(layer.kind, layer.nodes.tolist(), [layer.children.tolist()])
                                 for layer in layers]
