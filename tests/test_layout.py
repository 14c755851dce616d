"""The layer plan: how sums and products group, and that grouped and
ungrouped evaluation of one circuit agree."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuq import (
    Circuit,
    DropoutConfig,
    RatConfig,
    SumNode,
    build_manual,
    build_rat,
    log_likelihood,
    log_likelihood_batch,
    tdi_pass,
    tdi_pass_batch,
)
from circuq.circuit import forward_log_values
from circuq.enumeration import enumerate_dropout_moments, linear_forward
from circuq.structures import random_dag_circuit, random_evidence, random_tree_circuit
from circuq.train import ParameterSpace, loss_and_grad

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
            tags = c.rat.product_partition
            seen = []
            for layer in c.layout().layers:
                if layer.kind == "product":
                    for ids in layer.nodes.tolist():
                        group = {tags.get(i) for i in ids}
                        assert len(group) == 1
                        assert None not in group or len(ids) == 1
                        seen.extend(group - {None})
            assert sorted(seen) == sorted(set(tags.values()))

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


# ---------------------------------------------------------------------------
# Cross-path property: permuting each sum's children splits every group into
# groups of one, and must not change any result.


def permuted(circuit: Circuit, rng: np.random.Generator):
    """The circuit with each sum's children and weights permuted, and each
    sum's permutation (new position -> old position)."""
    nodes, perms = list(circuit.nodes), {}
    for i, node in enumerate(nodes):
        if node.kind == "sum":
            perm = rng.permutation(len(node.children))
            perms[i] = perm
            nodes[i] = SumNode([node.children[k] for k in perm], node.log_weights[perm])
    return Circuit(nodes, list(circuit.roots), circuit.num_variables,
                   circuit.log_class_priors, rat=circuit.rat), perms


def edge_map(circuit: Circuit, perms: dict) -> np.ndarray:
    """Index, in the original circuit's sum-edge order, of each sum edge of
    the permuted circuit; the same map reorders the parameter vector."""
    start = {}
    for e, (i, k) in enumerate(circuit.sum_edges()):
        start.setdefault(i, e)
    return np.array([start[i] + perms[i][k] for i, k in circuit.sum_edges()])


def theta_map(space: ParameterSpace, perms: dict) -> np.ndarray:
    index = np.arange(space.size)
    for i, kind, offset, size in space.segments:
        if kind == "sum":
            index[offset : offset + size] = offset + perms[i]
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
    masked = forward_log_values(other, X[:1], keep[edge_map(circuit, perms)])[other.roots]
    expected = forward_log_values(circuit, X[:1], keep)[circuit.roots]
    assert np.array_equal(np.isneginf(masked), np.isneginf(expected))
    np.testing.assert_allclose(masked[~np.isneginf(masked)],
                               expected[~np.isneginf(expected)], **tol)

    labels = rng.integers(circuit.num_classes, size=len(X))
    loss_a, grad_a = loss_and_grad(other, X, labels)
    loss_b, grad_b = loss_and_grad(circuit, X, labels)
    assert loss_a == pytest.approx(loss_b, rel=1e-12)
    index = theta_map(ParameterSpace.of(circuit), perms)
    np.testing.assert_allclose(grad_a, grad_b[index], rtol=0,
                               atol=1e-12 * max(1.0, np.max(np.abs(grad_b))))
