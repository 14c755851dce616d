"""Closed-form dropout moments: exactness, covariance strategies, posteriors."""

import io
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import circuq.circuit
import circuq.moments
from circuq import (
    CovarianceStrategy,
    DropoutConfig,
    StructureError,
    TaylorMethod,
    UnderflowError,
    build_manual,
    build_rat,
    deserialize,
    log_likelihood_batch,
    posterior_moments,
    posterior_moments_batch,
    tdi_pass,
    tdi_pass_batch,
    RatConfig,
    ShapeError,
    SignedLog,
    posterior_summary_batch,
    serialize,
)
from circuq.circuit import Circuit, GaussianLeaf, ProductNode, SumNode
from circuq.enumeration import enumerate_dropout_moments
from circuq.moments import predictive_entropy_batch
from circuq.structures import (
    copy_paste_expand,
    random_dag_circuit,
    random_evidence,
    random_tree_circuit,
)

from conftest import permuted, rel_err, repetitions, v1_doc


def root_moments(frame, circuit):
    r = circuit.roots[0]
    e = math.exp(frame.log_expectation[r])
    lv = frame.log_variance[r]
    return e, (math.exp(lv) if lv > -math.inf else 0.0)


class TestFrozenExamples:
    """Hand-enumerated values for the two-component mixture at q = 0.8.

    Masks (keep, keep) p=.64 -> 0.4; (keep, drop) .16 -> 0.3; (drop, keep)
    .16 -> 0.1; (drop, drop) .04 -> 0.  E = .32, E[X^2] = .1184, Var = .016.
    """

    def test_sum_node_expectation_variance(self, two_leaf_sum):
        frame = tdi_pass(two_leaf_sum, [0.0], DropoutConfig.with_p(0.2))
        e, v = root_moments(frame, two_leaf_sum)
        assert e == pytest.approx(0.32, rel=1e-12)
        assert v == pytest.approx(0.016, rel=1e-12)

    def test_matches_enumeration(self, two_leaf_sum):
        en = enumerate_dropout_moments(two_leaf_sum, [0.0], 0.2)
        r = two_leaf_sum.roots[0]
        assert en.expectation[r] == pytest.approx(0.32, rel=1e-12)
        assert en.variance[r] == pytest.approx(0.016, rel=1e-12)

    def test_product_of_independent_sums(self):
        spec = """
        a0 categorical 0 0.5 0.5
        b0 categorical 0 0.25 0.75
        s0 sum 0.6 a0 0.4 b0
        a1 categorical 1 0.5 0.5
        b1 categorical 1 0.25 0.75
        s1 sum 0.6 a1 0.4 b1
        p product s0 s1
        root p
        """
        c = build_manual(spec)
        frame = tdi_pass(c, [0.0, 0.0], DropoutConfig.with_p(0.2))
        e, v = root_moments(frame, c)
        assert e == pytest.approx(0.1024, rel=1e-12)
        # (Var + E^2)^2 - E^4 = 0.1184^2 - 0.1024^2
        assert v == pytest.approx(0.0035328, rel=1e-12)

    def test_p_zero_degenerates_to_forward_pass(self, three_var_tree):
        from circuq import log_likelihood

        x = [0.1, -0.4, 0.3]
        frame = tdi_pass(three_var_tree, x, DropoutConfig.with_p(0.0))
        ll = log_likelihood(three_var_tree, x)
        assert frame.log_expectation[three_var_tree.roots[0]] == pytest.approx(ll[0], abs=1e-12)
        assert np.all(np.isneginf(frame.log_variance))


class TestDropoutConfig:
    @pytest.mark.parametrize("q", [1.5, -0.2, math.nan, 0.0])
    def test_keep_rate_outside_zero_one_is_rejected(self, q):
        with pytest.raises(ValueError, match=r"dropout probability p must be in \[0, 1\)"):
            DropoutConfig(q)

    @pytest.mark.parametrize("p", [1.0, -0.1, math.nan])
    def test_with_p_rejects_through_the_same_check(self, p):
        with pytest.raises(ValueError, match=r"got p = "):
            DropoutConfig.with_p(p)


class TestTreeExactness:
    def test_random_trees_match_enumeration(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            c = random_tree_circuit(rng, max_sum_edges=12)
            ev = random_evidence(rng, c)
            for p in (0.05, 0.2):
                en = enumerate_dropout_moments(c, ev, p, keep_values=False)
                frame = tdi_pass(c, ev, DropoutConfig.with_p(p))
                e, v = root_moments(frame, c)
                r = c.roots[0]
                assert rel_err(e, en.expectation[r]) < 1e-9
                assert rel_err(v, en.variance[r]) < 1e-9

    def test_batch_pass_matches_scalar(self):
        rng = np.random.default_rng(5)
        c = random_tree_circuit(rng, max_sum_edges=10, num_classes=2)
        X = np.stack([random_evidence(rng, c) for _ in range(6)])
        log_e, log_v = tdi_pass_batch(c, X, DropoutConfig.with_p(0.15))
        for i in range(6):
            frame = tdi_pass(c, X[i], DropoutConfig.with_p(0.15))
            np.testing.assert_allclose(
                np.nan_to_num(log_e[:, i], neginf=-1e9),
                np.nan_to_num(frame.log_expectation, neginf=-1e9),
                atol=1e-10,
            )
            np.testing.assert_allclose(
                np.nan_to_num(log_v[:, i], neginf=-1e9),
                np.nan_to_num(frame.log_variance, neginf=-1e9),
                atol=1e-10,
            )

    @pytest.mark.parametrize("p", [0.1, 0.3])
    def test_product_with_a_zero_mean_factor_matches_enumeration(self, p):
        # x0 = 0 has probability 0 under a0, so pa is 0 under every mask while
        # its other factor s1 has a nonzero variance
        spec = """
        a0 categorical 0 0.0 1.0
        b0 categorical 0 0.5 0.5
        a1 categorical 1 0.5 0.5
        b1 categorical 1 0.25 0.75
        s1 sum 0.6 a1 0.4 b1
        c1 categorical 1 0.1 0.9
        d1 categorical 1 0.7 0.3
        t1 sum 0.5 c1 0.5 d1
        pa product a0 s1
        pb product b0 t1
        r sum 0.3 pa 0.7 pb
        root r
        """
        c = build_manual(spec)
        en = enumerate_dropout_moments(c, [0.0, 0.0], p)
        frame = tdi_pass(c, [0.0, 0.0], DropoutConfig.with_p(p))
        kinds = [n.kind for n in c.nodes]
        zero = [i for i, e in enumerate(en.expectation) if e == 0.0 and kinds[i] == "product"]
        assert len(zero) == 1 and frame.log_variance[zero[0]] == -math.inf
        assert any(en.variance[c.nodes[zero[0]].children] > 0.0)
        np.testing.assert_allclose(np.exp(frame.log_expectation), en.expectation,
                                   rtol=1e-12, atol=0.0)
        # the leaves and pa have variance exactly 0 on both sides
        np.testing.assert_allclose(np.exp(frame.log_variance), en.variance, rtol=1e-9, atol=1e-15)

    def test_enumeration_gives_a_node_the_same_under_every_mask_variance_zero(self):
        """The oracle takes variances from deviations from the mean, so a
        node whose value no mask changes (a leaf, a product of leaves, a sum
        over a zero-valued child) gets variance exactly 0 and its value as
        expectation, and no variance is negative."""
        rng = np.random.default_rng(8)
        circuits = [random_tree_circuit(rng, max_sum_edges=12) for _ in range(4)]
        circuits += [random_dag_circuit(rng) for _ in range(4)]
        zero = build_manual("""
        a categorical 0 0.0 1.0
        b categorical 0 0.5 0.5
        s sum 1.0 a
        t sum 0.5 s 0.5 b
        root t
        """)
        cases = [(c, random_evidence(rng, c, 0.3)) for c in circuits] + [(zero, [0.0])]
        for c, x in cases:
            for p in (0.1, 0.3):
                en = enumerate_dropout_moments(c, x, p)
                constant = np.all(en.values == en.values[:, :1], axis=1)
                assert constant.any()
                np.testing.assert_array_equal(en.variance[constant], 0.0)
                np.testing.assert_array_equal(en.expectation[constant], en.values[constant, 0])
                assert np.all(en.variance >= 0.0)
                if c.num_classes > 1:
                    assert np.all(en.posterior_moments()[1] >= 0.0)

    def test_enumeration_gives_a_node_no_mask_changes_covariance_zero(self):
        """Covariances come from deviations too, so a node whose value no
        mask changes has covariance exactly 0 with every node."""
        rng = np.random.default_rng(8)
        pairs = 0
        for _ in range(6):
            c = random_tree_circuit(rng, max_sum_edges=12)
            en = enumerate_dropout_moments(c, random_evidence(rng, c), 0.1)
            constant = np.flatnonzero(np.all(en.values == en.values[:, :1], axis=1))
            for a in constant.tolist():
                for b in range(len(c.nodes)):
                    if a != b:
                        assert en.cov(a, b) == 0.0, (a, b)
                        pairs += 1
        assert pairs > 1000

    def test_monotone_vanishing_variance(self, three_var_tree):
        x = [0.2, -0.1, 0.5]
        last = math.inf
        for p in (0.2, 0.1, 0.05, 0.01):
            frame = tdi_pass(three_var_tree, x, DropoutConfig.with_p(p))
            _, v = root_moments(frame, three_var_tree)
            assert v < last
            last = v
        frame = tdi_pass(three_var_tree, x, DropoutConfig.with_p(0.0))
        assert root_moments(frame, three_var_tree)[1] == 0.0

    def test_expectation_scaling_on_sum_chain(self):
        # a chain of three single-child sums scales E by q^3
        spec = """
        g gaussian 0 0.0 1.0
        s1 sum 1.0 g
        s2 sum 1.0 s1
        s3 sum 1.0 s2
        root s3
        """
        c = build_manual(spec)
        q = 0.8
        frame = tdi_pass(c, [0.0], DropoutConfig.with_p(1 - q))
        e, _ = root_moments(frame, c)
        base = math.exp(-0.5 * math.log(2 * math.pi) * 1.0)  # N(0,1) at 0
        assert e == pytest.approx(q**3 * (1 / math.sqrt(2 * math.pi)), rel=1e-12)


class TestCovarianceOps:
    def test_shared_single_child_covariance(self):
        spec = """
        g gaussian 0 0.0 1.0
        sa sum 1.0 g
        sb sum 1.0 g
        p product sa
        root sa
        """
        c = build_manual(spec)
        frame = tdi_pass(c, [0.3], DropoutConfig.with_p(0.2))
        sa = [i for i, n in enumerate(c.nodes) if n.kind == "sum"]
        # Cov = q^2 Var[g], and a leaf has no variance: the pair is uncorrelated
        assert frame.pair_cov(sa[0], sa[1]).is_zero
        assert enumerate_dropout_moments(c, [0.3], 0.2).cov(sa[0], sa[1]) == 0.0

    def test_shared_sum_child_covariance_value(self):
        # two parent sums over one shared mixture: Cov = q^2 Var[child]
        spec = """
        a categorical 0 0.5 0.5
        b categorical 0 0.25 0.75
        s sum 0.6 a 0.4 b
        pa sum 1.0 s
        pb sum 1.0 s
        root pa
        """
        c = build_manual(spec)
        s, pa, pb = [i for i, n in enumerate(c.nodes) if n.kind == "sum"]
        en = enumerate_dropout_moments(c, [0.0], 0.2)
        assert en.cov(pa, pb) == pytest.approx(0.64 * 0.016, rel=1e-12)
        # TREE_ZERO takes distinct nodes as uncorrelated, the shared child's too
        frame = tdi_pass(c, [0.0], DropoutConfig.with_p(0.2))
        assert frame.pair_cov(pa, pb).is_zero

    def test_disjoint_subtrees_zero(self, three_var_tree):
        frame = tdi_pass(three_var_tree, [0.0, 0.0, 0.0], DropoutConfig.with_p(0.2))
        sums = [i for i, n in enumerate(three_var_tree.nodes) if n.kind == "sum"]
        assert frame.pair_cov(sums[0], sums[1]).is_zero

    def test_shared_leaf_dag_matches_enumeration(self):
        rng = np.random.default_rng(11)
        found = 0
        for _ in range(30):
            c = random_dag_circuit(rng, max_sum_edges=10)
            sums = [i for i, n in enumerate(c.nodes) if n.kind == "sum"]
            if len(sums) < 2:
                continue
            ev = random_evidence(rng, c)
            en = enumerate_dropout_moments(c, ev, 0.15)
            # enumerated covariances satisfy the Cauchy-Schwarz interval
            sd = np.sqrt(en.variance)
            for a in sums:
                for b in sums:
                    assert abs(en.cov(a, b)) <= sd[a] * sd[b] + 1e-12
            found += 1
        assert found >= 10

    def test_cauchy_bounds_basics(self, two_leaf_sum):
        frame = tdi_pass(two_leaf_sum, [0.0], DropoutConfig.with_p(0.2))
        r = two_leaf_sum.roots[0]
        assert frame.pair_cov(r, r).to_float() == pytest.approx(0.016, rel=1e-12)
        # a zero-variance leaf bounds its covariance with the root at zero
        leaf = two_leaf_sum.nodes[r].children[0]
        assert frame.pair_cov(leaf, r).is_zero


def product_groups(c) -> list:
    """The layout's product groups, node ids each: on a RAT, its partitions
    and its input distributions."""
    return [ids for layer in c.layout().layers if layer.kind == "product"
            for ids in layer.nodes.tolist()]


class TestRatExact:
    def test_rat_exact_matches_enumeration(self):
        for depth, num_inputs, n in ((1, 2, 2), (2, 1, 4)):
            c = build_rat(RatConfig(2, num_inputs, depth, 1, 1, n, rng_seed=3))
            rng = np.random.default_rng(0)
            for trial in range(4):
                ev = rng.normal(size=n)
                for p in (0.1, 0.2):
                    en = enumerate_dropout_moments(c, ev, p)
                    frame = tdi_pass(c, ev, DropoutConfig.with_p(p, CovarianceStrategy.RAT_EXACT))
                    e, v = root_moments(frame, c)
                    r = c.roots[0]
                    assert rel_err(e, en.expectation[r]) < 1e-9
                    assert rel_err(v, en.variance[r]) < 1e-9

    def test_tree_zero_differs_on_shared_structure(self):
        c = build_rat(RatConfig(2, 1, 2, 1, 1, 4, rng_seed=3))
        ev = np.array([0.1, -0.2, 0.4, 0.0])
        exact = tdi_pass(c, ev, DropoutConfig.with_p(0.2, CovarianceStrategy.RAT_EXACT))
        zero = tdi_pass(c, ev, DropoutConfig.with_p(0.2))
        r = c.roots[0]
        assert abs(exact.log_variance[r] - zero.log_variance[r]) > 1e-6

    def test_the_three_variable_tree_resolves_to_tree_zero(self, three_var_tree):
        # once the root is taken out, its two products lie in two components,
        # and every other sibling pair has a zero-variance member
        ev = [0.2, -0.1, 0.4]
        exact = tdi_pass(three_var_tree, ev,
                         DropoutConfig.with_p(0.1, CovarianceStrategy.RAT_EXACT))
        zero = tdi_pass(three_var_tree, ev, DropoutConfig.with_p(0.1))
        assert exact.log_expectation.tobytes() == zero.log_expectation.tobytes()
        assert exact.log_variance.tobytes() == zero.log_variance.tobytes()

    def test_product_covariance_diagonal_consistency(self):
        c = build_rat(RatConfig(2, 1, 2, 1, 1, 4, rng_seed=3))
        ev = np.array([0.1, -0.2, 0.4, 0.0])
        frame = tdi_pass(c, ev, DropoutConfig.with_p(0.2, CovarianceStrategy.RAT_EXACT))
        partitions = product_groups(c)
        p0 = partitions[-1][-1]
        assert frame.pair_cov(p0, p0).to_float() == math.exp(frame.log_variance[p0])
        # two products of one partition: the partition-factor formula
        # matches enumeration
        en = enumerate_dropout_moments(c, ev, 0.2)
        pairs = [(a, b) for ids in partitions for a in ids for b in ids if a < b]
        assert pairs
        got = [frame.pair_cov(a, b).to_float() for a, b in pairs]
        np.testing.assert_allclose(got, [en.cov(a, b) for a, b in pairs], rtol=1e-9, atol=1e-15)

    def test_product_covariance_independent_partitions_zero(self):
        c = build_rat(RatConfig(2, 2, 1, 1, 1, 2, rng_seed=1))
        ev = np.array([0.2, -0.1])
        frame = tdi_pass(c, ev, DropoutConfig.with_p(0.2, CovarianceStrategy.RAT_EXACT))
        prods = [i for i, node in enumerate(c.nodes) if node.kind == "product"]
        # leaf-distribution children are dropout-free, so all terms vanish
        assert frame.pair_cov(prods[0], prods[1]).is_zero

    def test_non_binary_product_rejected(self):
        # a three-factor product and a binary product of one scope, under a
        # sum that mixes them
        nodes = [GaussianLeaf(v, mean, 0.0) for v in range(3) for mean in (-0.5, 0.5)]
        nodes += [SumNode([2 * v, 2 * v + 1], np.log([0.5, 0.5])) for v in range(3)]  # 6-8
        nodes += [SumNode([2, 3, 4, 5], np.log([0.25] * 4))]  # 9, over variables 1 and 2
        nodes += [ProductNode([6, 7, 8]), ProductNode([6, 9])]  # 10, 11
        nodes += [SumNode([10, 11], np.log([0.5, 0.5]))]  # 12
        circ = Circuit(nodes, [12], 3, np.zeros(1))
        with pytest.raises(StructureError, match="node 10 is not a binary product"):
            tdi_pass(circ, [0.1, -0.2, 0.3],
                     DropoutConfig.with_p(0.1, CovarianceStrategy.RAT_EXACT))

    def test_a_product_and_a_sum_of_one_scope_are_rejected(self):
        nodes = [GaussianLeaf(v, mean, 0.0) for v in range(2) for mean in (-0.5, 0.5)]
        nodes += [SumNode([0, 1], np.log([0.5, 0.5])), SumNode([2, 3], np.log([0.5, 0.5]))]  # 4, 5
        nodes += [ProductNode([4, 5]), SumNode([6], np.zeros(1))]  # 6, 7
        nodes += [SumNode([6, 7], np.log([0.5, 0.5]))]  # 8, mixing a product and a sum
        circ = Circuit(nodes, [8], 2, np.zeros(1))
        with pytest.raises(StructureError, match=r"nodes 6 \(product\) and 7 \(sum\)"):
            tdi_pass(circ, [0.1, -0.2], DropoutConfig.with_p(0.1, CovarianceStrategy.RAT_EXACT))

    # A circuit file is outside input.  On RatConfig(2, 1, 2, 1, 2, 4,
    # rng_seed=3), product 10 = sum 3 x sum 8 shares the root partition with
    # products 11-13; with its factors swapped it still validates, but no
    # longer aligns with them.
    @pytest.mark.parametrize("tamper, message", [
        (lambda doc: doc["nodes"][10]["children"].reverse(), "not partition-aligned"),
    ], ids=["factors-swapped"])
    def test_a_tampered_rat_block_is_a_structure_error(self, tamper, message):
        c = build_rat(RatConfig(2, 1, 2, 1, 2, 4, rng_seed=3))
        doc = v1_doc(c)
        assert doc["nodes"][10]["children"] == [3, 8]
        tamper(doc)
        tampered = deserialize(json.dumps(doc).encode())
        ev = np.array([0.1, -0.2, 0.4, 0.0])
        with pytest.raises(StructureError, match=message):
            tdi_pass(tampered, ev, DropoutConfig.with_p(0.2, CovarianceStrategy.RAT_EXACT))

    def test_pair_cov_is_zero_across_repetitions_and_disjoint_scopes(self):
        c = build_rat(RatConfig(2, 1, 2, 2, 1, 4, rng_seed=3))
        ev = np.array([0.1, -0.2, 0.4, 0.0])
        frame = tdi_pass(c, ev, DropoutConfig.with_p(0.2, CovarianceStrategy.RAT_EXACT))
        en = enumerate_dropout_moments(c, ev, 0.2)
        scopes, rep = c.scopes(), repetitions(c, 2)
        sums = sorted(i for i in rep if c.nodes[i].kind == "sum")
        across = [(a, b) for a in sums for b in sums if rep[a] < rep[b] and scopes[a] & scopes[b]]
        disjoint = [(a, b) for a in sums for b in sums if a < b and not scopes[a] & scopes[b]]
        assert across and disjoint
        for a, b in across + disjoint:
            assert frame.log_variance[a] > -math.inf and frame.log_variance[b] > -math.inf
            assert frame.pair_cov(a, b).is_zero
            assert abs(en.cov(a, b)) <= 1e-12 * en.expectation[a] * en.expectation[b]


# Binary RATs small enough to enumerate every dropout mask.
ENUMERABLE_RATS = [
    RatConfig(2, 2, 1, 1, 1, 2, rng_seed=3),
    RatConfig(2, 2, 1, 1, 1, 3, rng_seed=5),
    RatConfig(2, 1, 2, 1, 1, 4, rng_seed=3),
    RatConfig(2, 1, 2, 1, 1, 5, rng_seed=8),
    RatConfig(2, 1, 2, 1, 2, 4, rng_seed=1),
]


DATA = pathlib.Path(__file__).parent / "data"

# tests/data/rat_tagged.circuit is build_rat(TAGGED_RAT) as the writer of
# format version 1 wrote it while RAT_EXACT read partition tags: with a
# "rat" block of (repetition, region) and (repetition, partition) tags.
# rat_tampered.circuit is the same file with every sum tag moved to another
# sum and half the product tags dropped, the rest moved.
TAGGED_RAT = RatConfig(2, 1, 2, 2, 2, 4, rng_seed=3)
ROWS = np.array([[0.1, -0.2, 0.4, 0.0], [np.nan, 0.3, -1.0, 0.5]])


def rat_exact_bits(c, X, p=0.2) -> list:
    """The bytes of RAT_EXACT's posterior means and variances for ``X`` and,
    row by row, of the frame's moments and materialized covariances, the
    class roots' included."""
    config = DropoutConfig.with_p(p, CovarianceStrategy.RAT_EXACT)
    bits = [a.tobytes() for a in posterior_moments_batch(c, X, config)]
    for x in X:
        frame = tdi_pass(c, x, config)
        for a in c.roots:
            for b in c.roots:
                frame.pair_cov(a, b)
        bits += [frame.log_expectation.tobytes(), frame.log_variance.tobytes(),
                 sorted(frame.sibling_cov.items())]
    return bits


class TestRatExactFromStructure:
    """RAT_EXACT decides each covariance from the circuit's structure, so a
    RAT gets the same bits however it was built, saved or loaded, and any
    other circuit either resolves exactly or raises StructureError."""

    @pytest.mark.parametrize("name", ["rat_tagged", "rat_tampered"])
    def test_an_old_tagged_file_gives_the_untagged_bits(self, name):
        data = (DATA / f"{name}.circuit").read_bytes()
        assert "rat" in json.loads(data)
        old = deserialize(data)
        untagged = deserialize(serialize(build_rat(TAGGED_RAT)))
        assert "rat" not in np.load(io.BytesIO(serialize(untagged))).files
        assert serialize(old) == serialize(untagged)
        assert rat_exact_bits(old, ROWS) == rat_exact_bits(untagged, ROWS)

    def test_a_rat_rebuilt_node_by_node_gets_build_rats_bits(self):
        c = build_rat(RatConfig(3, 2, 2, 2, 3, 6, rng_seed=4))
        copies = {"sum": lambda n: SumNode(list(n.children), n.log_weights.copy()),
                  "product": lambda n: ProductNode(list(n.children)),
                  "gaussian": lambda n: GaussianLeaf(n.variable, n.mean, n.log_std)}
        rebuilt = Circuit([copies[n.kind](n) for n in c.nodes], list(c.roots), c.num_variables,
                          c.log_class_priors.copy())
        X = np.array([[0.3, -0.1, 0.8, np.nan, 0.0, -0.6], [0.2, 0.1, -0.3, 0.4, 1.1, 0.5]])
        assert rat_exact_bits(rebuilt, X) == rat_exact_bits(c, X)

    def test_a_rat_with_permuted_children_resolves(self):
        # sums of one region still share one set of children
        c = build_rat(RatConfig(2, 2, 2, 2, 2, 4, rng_seed=6))
        shuffled, _ = permuted(c, np.random.default_rng(1))
        config = DropoutConfig.with_p(0.2, CovarianceStrategy.RAT_EXACT)
        for x in ROWS:
            a, b = tdi_pass(c, x, config), tdi_pass(shuffled, x, config)
            np.testing.assert_allclose(b.log_variance, a.log_variance, rtol=0, atol=1e-12)
            r, s = c.roots
            assert b.pair_cov(r, s).log_mag == pytest.approx(a.pair_cov(r, s).log_mag, abs=1e-12)

    def test_sums_over_different_children_that_share_a_descendant_are_rejected(self):
        # u and t both mix the sum s; their keep bits are independent, but the
        # bilinear expansion is exact only for two sums over one set of children
        spec = """
        a categorical 0 0.5 0.5
        b categorical 0 0.25 0.75
        s sum 0.6 a 0.4 b
        u sum 0.5 s 0.5 a
        t sum 0.5 s 0.5 b
        r sum 0.5 u 0.5 t
        root r
        """
        c = build_manual(spec)
        u, t = c.nodes[c.roots[0]].children
        assert enumerate_dropout_moments(c, [1.0], 0.2).cov(u, t) > 0.0
        with pytest.raises(StructureError, match=rf"nodes {u} \(sum\) and {t} \(sum\)"):
            tdi_pass(c, [1.0], DropoutConfig.with_p(0.2, CovarianceStrategy.RAT_EXACT))

    def test_a_root_is_never_taken_as_independent(self):
        # no node reads a class head, so it lies in no component: its pair
        # with one of its children is correlated and not resolvable
        c = build_rat(RatConfig(2, 1, 2, 1, 2, 4, rng_seed=1))
        r = c.roots[0]
        child = c.nodes[r].children[-1]
        frame = tdi_pass(c, ROWS[0], DropoutConfig.with_p(0.2, CovarianceStrategy.RAT_EXACT))
        assert enumerate_dropout_moments(c, ROWS[0], 0.2).cov(r, child) > 0.0
        with pytest.raises(StructureError):
            frame.pair_cov(r, child)

    def test_rat_exact_resolves_exactly_or_raises(self):
        rng = np.random.default_rng(24)
        kinds = ([("tree", random_tree_circuit(rng, max_sum_edges=12)) for _ in range(30)]
                 + [("dag", random_dag_circuit(rng, max_sum_edges=12)) for _ in range(30)]
                 + [("rat", build_rat(config)) for config in ENUMERABLE_RATS])
        resolved = {"tree": 0, "dag": 0, "rat": 0}
        raised = {"tree": 0, "dag": 0, "rat": 0}
        for kind, c in kinds:
            rows = [random_evidence(rng, c, 0.0), random_evidence(rng, c, 0.0)]
            rows[1][rng.integers(c.num_variables)] = np.nan
            for x in rows:
                config = DropoutConfig.with_p(0.2, CovarianceStrategy.RAT_EXACT)
                try:
                    frame = tdi_pass(c, x, config)
                    root_cov = {(a, b): frame.pair_cov(a, b).to_float()
                                for a in c.roots for b in c.roots if a < b}
                except StructureError:
                    raised[kind] += 1
                    continue
                resolved[kind] += 1
                en = enumerate_dropout_moments(c, x, 0.2)
                for i, node in enumerate(c.nodes):
                    if node.kind == "sum":
                        v = frame.pair_cov(i, i).to_float()
                        assert rel_err(v, en.variance[i]) < 1e-9, (kind, i)
                for (a, b), got in root_cov.items():
                    assert rel_err(got, en.cov(a, b)) < 1e-9, (kind, a, b)
                if kind == "tree":
                    zero = tdi_pass(c, x, DropoutConfig.with_p(0.2))
                    assert frame.log_expectation.tobytes() == zero.log_expectation.tobytes()
                    assert frame.log_variance.tobytes() == zero.log_variance.tobytes()
        assert resolved["rat"] == 2 * len(ENUMERABLE_RATS) and not raised["rat"]
        for kind in ("tree", "dag"):
            assert resolved[kind] >= 10 and raised[kind] >= 5, (kind, resolved, raised)


class TestNonnegativeCovariance:
    """Every node value is a polynomial in the keep bits with nonnegative
    coefficients, so it never decreases when a bit turns on, and by Harris's
    inequality no two node values are negatively correlated.  RAT_EXACT
    carries its covariances as log magnitudes on that premise."""

    def test_enumerated_covariances_are_nonnegative(self):
        rng = np.random.default_rng(19)
        circuits = ([random_tree_circuit(rng, max_sum_edges=12) for _ in range(20)]
                    + [random_dag_circuit(rng, max_sum_edges=10) for _ in range(20)]
                    + [build_rat(config) for config in ENUMERABLE_RATS])
        pairs = 0
        for c in circuits:
            ev = random_evidence(rng, c)
            for p in (0.1, 0.3, 0.7):
                en = enumerate_dropout_moments(c, ev, p)
                e = en.expectation
                for a in range(len(c.nodes)):
                    for b in range(a + 1, len(c.nodes)):
                        assert en.cov(a, b) >= -1e-12 * e[a] * e[b], (a, b, p)
                        pairs += 1
        assert pairs > 10_000

    def test_rat_exact_covariances_are_log_magnitudes(self):
        rng = np.random.default_rng(20)
        for config in ENUMERABLE_RATS:
            c = build_rat(config)
            ev = rng.normal(size=config.num_variables)
            for p in (0.1, 0.3, 0.7):
                frame = tdi_pass(c, ev, DropoutConfig.with_p(p, CovarianceStrategy.RAT_EXACT))
                for a in c.roots:
                    for b in c.roots:
                        frame.pair_cov(a, b)
                assert frame.sibling_cov
                for v in frame.sibling_cov.values():
                    assert isinstance(v, float)
                    assert math.isfinite(v) or v == -math.inf


class TestSignedLog:
    def test_zero(self):
        for z in (SignedLog.zero(), SignedLog.from_log(-math.inf)):
            assert z.sign == 0 and z.to_float() == 0.0
            assert z.is_zero

    @given(st.floats(min_value=-100, max_value=100).map(lambda e: 10.0**e))
    def test_from_to(self, x):
        # one log/exp round trip costs about |log x| ulps, within 1e-12
        # relative across the full double range
        assert SignedLog.from_log(math.log(x)).to_float() == pytest.approx(x, rel=1e-12)

    def test_extreme_magnitudes(self):
        for x in (1e-300, 1e300):
            got = SignedLog.from_log(math.log(x))
            assert got.sign == 1
            assert got.to_float() == pytest.approx(x, rel=1e-12)


class TestCopyPaste:
    def test_tree_zero_equals_expanded_tree(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(20):
            c = random_dag_circuit(rng, max_sum_edges=12)
            if len(c.nodes) > 30 or c.is_tree():
                continue
            ev = random_evidence(rng, c)
            expanded = copy_paste_expand(c)
            assert expanded.is_tree()
            for p in (0.1, 0.2):
                zero = tdi_pass(c, ev, DropoutConfig.with_p(p))
                en = enumerate_dropout_moments(expanded, ev, p, keep_values=False)
                e, v = root_moments(zero, c)
                r2 = expanded.roots[0]
                assert rel_err(e, en.expectation[r2]) < 1e-9
                assert rel_err(v, en.variance[r2]) < 1e-9
            checked += 1
        assert checked >= 5


class TestPosterior:
    def test_p_zero_equals_bayes_posterior(self):
        rng = np.random.default_rng(9)
        c = random_tree_circuit(rng, max_sum_edges=8, num_classes=3)
        from circuq import log_likelihood

        ev = random_evidence(rng, c, marginal_prob=0.0)
        pm = posterior_moments(c, ev, DropoutConfig.with_p(0.0))
        joint = log_likelihood(c, ev) + c.log_class_priors
        exact = np.exp(joint - joint.max())
        exact /= exact.sum()
        np.testing.assert_allclose(pm.mean, exact, atol=1e-12)
        assert np.all(pm.variance == 0.0)

    def test_symmetric_circuit_gives_half_half(self):
        spec = """
        a1 categorical 0 0.5 0.5
        b1 categorical 0 0.25 0.75
        s1 sum 0.6 a1 0.4 b1
        a2 categorical 0 0.5 0.5
        b2 categorical 0 0.25 0.75
        s2 sum 0.6 a2 0.4 b2
        root s1 s2
        """
        c = build_manual(spec)
        pm = posterior_moments(c, [0.0], DropoutConfig.with_p(0.1))
        np.testing.assert_allclose(pm.mean, [0.5, 0.5], atol=1e-12)
        assert pm.variance[0] == pytest.approx(pm.variance[1], rel=1e-12)

    def test_taylor_accuracy_against_enumeration(self):
        # wide mixtures with balanced evidence: the regime where the
        # second-order ratio approximation is meaningful; narrow sums put
        # most dropout mass on single skewed edges and the truncation error
        # grows roughly like (q - p) / (q * fan_in)
        rng = np.random.default_rng(31)
        for _ in range(10):
            c, ev = _wide_pair(rng)
            en = enumerate_dropout_moments(c, ev, 0.1)
            means, variances, _ = en.posterior_moments()
            pm = posterior_moments(c, ev, DropoutConfig.with_p(0.1), TaylorMethod.SIMPLE)
            for i in range(2):
                assert rel_err(pm.metadata["raw_mean"][i], means[i]) < 0.05
                assert rel_err(pm.variance[i], variances[i]) < 0.15

    def test_extended_taylor_runs_and_is_finite(self):
        rng = np.random.default_rng(13)
        c, ev = _wide_pair(rng)
        pm = posterior_moments(c, ev, DropoutConfig.with_p(0.1), TaylorMethod.EXTENDED)
        assert np.all(np.isfinite(pm.mean))
        assert np.all(pm.variance >= 0.0)
        # EXTENDED's mean is the full second-order expansion of E[A_i/B]: with
        # exact root covariances it sums to 1 and matches enumeration
        rat = build_rat(RatConfig(2, 2, 2, 2, 3, 4, rng_seed=1))
        enumerable = build_rat(RatConfig(2, 1, 2, 1, 2, 4, rng_seed=1))
        X = rng.normal(size=(4, 4))
        X = np.concatenate([X, 5.0 * X])
        for p in (0.1, 0.2, 0.3):
            config = DropoutConfig.with_p(p, CovarianceStrategy.RAT_EXACT)
            for x in X:
                pm = posterior_moments(rat, x, config, TaylorMethod.EXTENDED)
                assert abs(pm.metadata["raw_mean"].sum() - 1.0) < 1e-9
                want, _, _ = enumerate_dropout_moments(enumerable, x, p).posterior_moments()
                pm = posterior_moments(enumerable, x, config, TaylorMethod.EXTENDED)
                np.testing.assert_allclose(pm.metadata["raw_mean"], want, rtol=0.0, atol=1e-4)

    def test_batch_matches_scalar_posteriors(self):
        rng = np.random.default_rng(17)
        tree = random_tree_circuit(rng, max_sum_edges=10, num_classes=3)
        rat = build_rat(RatConfig(2, 2, 2, 1, 3, 4, rng_seed=5))
        cases = [(tree, np.stack([random_evidence(rng, tree, 0.0) for _ in range(5)]),
                  CovarianceStrategy.TREE_ZERO)]
        X_rat = rng.normal(size=(4, 4))
        for strategy in CovarianceStrategy:
            cases.append((rat, X_rat, strategy))
        for c, X, strategy in cases:
            config = DropoutConfig.with_p(0.15, strategy)
            for method in (TaylorMethod.SIMPLE, TaylorMethod.EXTENDED):
                mb, vb = posterior_moments_batch(c, X, config, method)
                for r in range(X.shape[0]):
                    pm = posterior_moments(c, X[r], config, method)
                    np.testing.assert_allclose(np.clip(mb[r], 0, 1), pm.mean, atol=1e-10)
                    np.testing.assert_allclose(vb[r], pm.variance, atol=1e-10, rtol=1e-7)
                    if strategy is CovarianceStrategy.RAT_EXACT and method is TaylorMethod.SIMPLE:
                        assert abs(pm.metadata["raw_mean"].sum() - 1.0) < 1e-9
        # the RAT_EXACT cases above do carry covariances between class roots
        frame = tdi_pass(rat, X_rat[0], DropoutConfig.with_p(0.15, CovarianceStrategy.RAT_EXACT))
        assert not frame.pair_cov(rat.roots[0], rat.roots[1]).is_zero

    def test_single_row_is_a_batch_of_one(self):
        rat = build_rat(RatConfig(2, 2, 2, 1, 3, 4, rng_seed=5))
        X = np.random.default_rng(3).normal(size=(5, 4))
        for strategy in CovarianceStrategy:
            config = DropoutConfig.with_p(0.15, strategy)
            batch = posterior_summary_batch(rat, X, config, TaylorMethod.EXTENDED)
            for r in range(X.shape[0]):
                pm = posterior_moments(rat, X[r], config, TaylorMethod.EXTENDED)
                for name in ("mean", "variance", "std", "entropy", "normalized_entropy"):
                    np.testing.assert_array_equal(getattr(pm, name), getattr(batch, name)[r])
                np.testing.assert_array_equal(pm.metadata["raw_mean"],
                                              batch.metadata["raw_mean"][r])

    def test_batch_rejects_wrong_width(self):
        rat = build_rat(RatConfig(2, 2, 2, 1, 3, 4, rng_seed=5))
        config = DropoutConfig.with_p(0.1)
        for shape in ((2, 3), (2, 5), (4,)):
            with pytest.raises(ShapeError):
                posterior_moments_batch(rat, np.zeros(shape), config)
            with pytest.raises(ShapeError):
                tdi_pass_batch(rat, np.zeros(shape), config)
        mean, var = posterior_moments_batch(rat, np.zeros((0, 4)), config)
        assert mean.shape == var.shape == (0, 3)

    def test_batch_variance_finite_for_far_class(self):
        # the second class sits about e^-450 below the first, so its shifted
        # E[A]^2 underflows; the variance must still come out as zero, not NaN
        spec = """
        a gaussian 0 0.0 1.0
        b gaussian 0 0.5 1.0
        s1 sum 0.5 a 0.5 b
        c gaussian 0 30.0 1.0
        d gaussian 0 30.5 1.0
        s2 sum 0.5 c 0.5 d
        root s1 s2
        """
        c = build_manual(spec)
        config = DropoutConfig.with_p(0.1)
        scalar = posterior_moments(c, [0.0], config)
        mean, var = posterior_moments_batch(c, np.array([[0.0]]), config)
        np.testing.assert_array_equal(scalar.variance, [0.0, 0.0])
        np.testing.assert_array_equal(var[0], scalar.variance)
        np.testing.assert_allclose(mean[0], scalar.mean, rtol=1e-12)

    def test_underflow_error(self):
        spec = """
        a categorical 0 1.0 0.0
        b categorical 0 1.0 0.0
        root a b
        """
        c = build_manual(spec)
        with pytest.raises(UnderflowError):
            posterior_moments(c, [1.0], DropoutConfig.with_p(0.1))
        # a batch names the vanished row by its index in the whole batch
        X = np.zeros((300, 1))
        X[290] = 1.0
        with pytest.raises(UnderflowError, match="row 290"):
            posterior_moments_batch(c, X, DropoutConfig.with_p(0.1))

    def test_needs_two_classes(self, two_leaf_sum):
        with pytest.raises(StructureError):
            posterior_moments(two_leaf_sum, [0.0], DropoutConfig.with_p(0.1))


def _wide_pair(rng):
    """A 10-component mixture against a fixed factorized alternative, with
    evidence near the class overlap (10 sum edges total)."""
    nodes = []

    def add(n):
        nodes.append(n)
        return len(nodes) - 1

    children = []
    for _ in range(10):
        leaves = [add(GaussianLeaf(v, float(rng.uniform(-0.3, 0.3)), 0.0)) for v in range(2)]
        children.append(add(ProductNode(leaves)))
    w = rng.uniform(0.8, 1.0, size=10)
    w /= w.sum()
    r0 = add(SumNode(children, np.log(w)))
    leaves = [add(GaussianLeaf(v, float(rng.uniform(-0.3, 0.3)), 0.0)) for v in range(2)]
    r1 = add(ProductNode(leaves))
    c = Circuit(nodes, [r0, r1], 2, np.log([0.5, 0.5]))
    return c, rng.normal(0, 0.3, size=2)


class TestPredictiveEntropy:
    def test_one_hot(self):
        assert predictive_entropy_batch(np.array([[1.0, 0.0, 0.0, 0.0]]))[0] < 1e-9

    def test_uniform_ten(self):
        h = predictive_entropy_batch(np.full((1, 10), 0.1))[0]
        assert h == pytest.approx(math.log(10), abs=1e-12)

    def test_binary_uniform(self):
        h = predictive_entropy_batch(np.array([[0.5, 0.5]]))[0]
        assert h == pytest.approx(math.log(2), abs=1e-12)

    def test_bounds_property(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            k = int(rng.integers(2, 12))
            m = rng.uniform(0, 1, size=(3, k))
            h = predictive_entropy_batch(m)
            assert np.all((-1e-12 <= h) & (h <= math.log(k) + 1e-12))


class TestMomentDump:
    def test_csv_format(self, two_leaf_sum, tmp_path):
        from circuq.moments import write_moment_csv

        frame = tdi_pass(two_leaf_sum, [0.0], DropoutConfig.with_p(0.2))
        nodes_csv = tmp_path / "nodes.csv"
        cov_csv = tmp_path / "cov.csv"
        write_moment_csv(frame, nodes_csv, cov_csv)
        lines = nodes_csv.read_text().strip().splitlines()
        assert lines[0] == "node_id,kind,expectation,variance"
        assert len(lines) == len(two_leaf_sum.nodes) + 1
        root_line = lines[-1].split(",")
        assert root_line[1] == "sum"
        assert float(root_line[2]) == pytest.approx(0.32, rel=1e-12)
        assert cov_csv.read_text().splitlines()[0] == "node_a,node_b,cov"


def test_batches_run_in_passes_of_at_most_256_rows(monkeypatch):
    """A 600-row call equals its 256-row chunks' calls bit for bit, and no
    forward or moment pass holds more than 256 columns."""
    assert circuq.circuit.BATCH_ROWS == 256
    c = build_rat(RatConfig(3, 3, 2, 2, 3, 6, rng_seed=4))
    X = np.random.default_rng(8).normal(size=(600, 6))
    whole = circuq.circuit.forward_log_values(c, X)[c.roots].T  # one 600-column pass
    columns = []
    for module, name in ((circuq.circuit, "forward_log_values"), (circuq.moments, "_moment_pass")):
        def record(circuit, X, *args, _inner=getattr(module, name), **kwargs):
            columns.append(X.shape[0])
            return _inner(circuit, X, *args, **kwargs)
        monkeypatch.setattr(module, name, record)

    config = DropoutConfig.with_p(0.1)
    chunks = [X[s : s + 256] for s in range(0, 600, 256)]
    bits = lambda a: np.ascontiguousarray(a).view(np.int64)  # noqa: E731

    ll = log_likelihood_batch(c, X)
    assert columns == [256, 256, 88]
    np.testing.assert_array_equal(bits(ll), bits(whole))
    np.testing.assert_array_equal(
        bits(ll), bits(np.concatenate([log_likelihood_batch(c, x) for x in chunks])))
    for method in (TaylorMethod.SIMPLE, TaylorMethod.EXTENDED):
        columns.clear()
        mean, var = posterior_moments_batch(c, X, config, method)
        assert columns == [256, 256, 88]
        parts = [posterior_moments_batch(c, x, config, method) for x in chunks]
        np.testing.assert_array_equal(bits(mean), bits(np.concatenate([m for m, _ in parts])))
        np.testing.assert_array_equal(bits(var), bits(np.concatenate([v for _, v in parts])))


def test_large_rat_moments_are_finite_and_a_row_is_a_batch_of_one():
    """The large RAT scale (S20/I20/D5/R10, 256 variables, 187,602 nodes at
    two classes) keeps finite root moments, and one row through the batch
    pass equals its row of a larger batch bit for bit."""
    c = build_rat(RatConfig(20, 20, 5, 10, 2, 256, rng_seed=1))
    X = np.random.default_rng(3).normal(size=(3, 256))
    X[1, ::7] = np.nan
    config = DropoutConfig.with_p(0.1)
    log_e, log_v = tdi_pass_batch(c, X, config, nodes=c.roots)
    assert np.all(np.isfinite(log_e)) and np.all(np.isfinite(log_v))
    bits = lambda a: np.ascontiguousarray(a).view(np.int64)  # noqa: E731
    for r in range(len(X)):
        one_e, one_v = tdi_pass_batch(c, X[r : r + 1], config, nodes=c.roots)
        np.testing.assert_array_equal(bits(one_e[:, 0]), bits(log_e[:, r]))
        np.testing.assert_array_equal(bits(one_v[:, 0]), bits(log_v[:, r]))
    mean, var = posterior_moments_batch(c, X, config)
    assert np.all(np.isfinite(mean)) and np.all(np.isfinite(var))
