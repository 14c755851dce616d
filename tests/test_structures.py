"""Structure construction: tensorized builder, manual parser, fixtures."""

import numpy as np
import pytest

from circuq import (
    ManualSpecError,
    RatConfig,
    StructureError,
    build_manual,
    build_rat,
    copy_paste_expand,
    log_likelihood,
    structure_stats,
    validate,
)
from circuq.structures import random_dag_circuit, random_evidence, random_tree_circuit

from conftest import partition_products


class TestBuildRat:
    def test_minimal_structure(self):
        c = build_rat(RatConfig(1, 1, 1, 1, 1, 2, rng_seed=0))
        kinds = [n.kind for n in c.nodes]
        assert kinds == ["gaussian", "gaussian", "product", "sum"]
        assert len(c.sum_edges()) == 1
        assert validate(c).ok

    def test_depth_bound(self):
        with pytest.raises(StructureError):
            build_rat(RatConfig(1, 1, 3, 1, 1, 4, rng_seed=0))
        with pytest.raises(StructureError):
            build_rat(RatConfig(0, 1, 1, 1, 1, 2, rng_seed=0))

    def test_determinism(self):
        a = build_rat(RatConfig(3, 2, 2, 2, 3, 8, rng_seed=5))
        b = build_rat(RatConfig(3, 2, 2, 2, 3, 8, rng_seed=5))
        assert len(a.nodes) == len(b.nodes)
        for na, nb in zip(a.nodes, b.nodes):
            assert na.kind == nb.kind
            if na.kind == "sum":
                assert na.children == nb.children
                np.testing.assert_array_equal(na.log_weights, nb.log_weights)
            elif na.kind == "gaussian":
                assert (na.variable, na.mean, na.log_std) == (nb.variable, nb.mean, nb.log_std)
        c = build_rat(RatConfig(3, 2, 2, 2, 3, 8, rng_seed=6))
        different = any(
            na.kind == "gaussian" and nb.kind == "gaussian" and na.mean != nb.mean
            for na, nb in zip(a.nodes, c.nodes)
        )
        assert different

    def test_every_product_is_binary_or_leaf_region(self):
        c = build_rat(RatConfig(3, 2, 2, 1, 2, 8, rng_seed=2))
        for i in partition_products(c):
            assert len(c.nodes[i].children) == 2

    def test_scope_partition(self):
        c = build_rat(RatConfig(2, 2, 2, 1, 1, 8, rng_seed=4))
        scopes = c.scopes()
        for i in partition_products(c):
            left, right = c.nodes[i].children
            assert scopes[left] & scopes[right] == 0
            assert scopes[left] | scopes[right] == scopes[i]

    def test_generated_circuits_validate(self):
        for seed in range(4):
            c = build_rat(RatConfig(2, 3, 2, 2, 4, 10, rng_seed=seed))
            assert validate(c).ok

    def test_reported_parameter_counts_at_full_scale(self):
        """S=20, I=20, D=5, R=5, 10 classes, 784 variables: about 1.38M
        parameters with 157k of them Gaussian leaf parameters."""
        c = build_rat(RatConfig(20, 20, 5, 5, 10, 784, rng_seed=0))
        stats = structure_stats(c)
        assert abs(stats["parameters"] - 1_380_000) / 1_380_000 < 0.10
        assert abs(stats["gaussian_parameters"] - 157_000) / 157_000 < 0.05
        assert abs(stats["edges"] - 1_420_000) / 1_420_000 < 0.10


class TestBuildManual:
    def test_three_var_fixture_validates(self, three_var_tree):
        assert validate(three_var_tree).ok
        assert three_var_tree.num_variables == 3
        kinds = [n.kind for n in three_var_tree.nodes]
        assert kinds.count("sum") == 3 and kinds.count("product") == 6
        assert sum(k in ("gaussian", "categorical") for k in kinds) == 10

    def test_cyclic_reference_rejected(self):
        spec = """
        a sum 0.5 b 0.5 c
        b sum 1.0 a
        c gaussian 0 0.0 1.0
        root a
        """
        with pytest.raises(ManualSpecError):
            build_manual(spec)

    def test_single_leaf(self):
        c = build_manual("g gaussian 0 1.5 2.0\nroot g")
        assert len(c.nodes) == 1 and validate(c).ok

    def test_duplicate_id_rejected(self):
        with pytest.raises(ManualSpecError):
            build_manual("g gaussian 0 0 1\ng gaussian 0 1 1\nroot g")

    def test_unknown_child_rejected(self):
        with pytest.raises(ManualSpecError):
            build_manual("s sum 1.0 nope\nroot s")

    def test_invalid_weights_rejected(self):
        spec = "a gaussian 0 0 1\nb gaussian 0 1 1\ns sum 0.5 a 0.4 b\nroot s"
        with pytest.raises(ManualSpecError):
            build_manual(spec)

    def test_missing_root_rejected(self):
        with pytest.raises(ManualSpecError):
            build_manual("g gaussian 0 0 1")

    def test_priors(self):
        c = build_manual(
            "a gaussian 0 0 1\nb gaussian 0 1 1\nroot a b\nprior 0.3 0.7"
        )
        np.testing.assert_allclose(np.exp(c.log_class_priors), [0.3, 0.7])


class TestRandomFixtures:
    def test_trees_validate_and_respect_budget(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            c = random_tree_circuit(rng, max_sum_edges=12)
            assert validate(c).ok
            assert 1 <= len(c.sum_edges()) <= 12
            assert c.is_tree()

    def test_dags_validate_and_share_nodes(self):
        rng = np.random.default_rng(1)
        shared = 0
        for _ in range(20):
            c = random_dag_circuit(rng, max_sum_edges=12)
            assert validate(c).ok
            assert len(c.sum_edges()) <= 12
            if not c.is_tree():
                shared += 1
        assert shared >= 10

    def test_two_class_trees(self):
        rng = np.random.default_rng(2)
        c = random_tree_circuit(rng, max_sum_edges=10, num_classes=2)
        assert len(c.roots) == 2 and validate(c).ok

    def test_random_evidence_is_compatible(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            c = random_tree_circuit(rng, max_sum_edges=8)
            ev = random_evidence(rng, c)
            ll = log_likelihood(c, ev)
            assert np.all(np.isfinite(ll))


class TestCopyPasteExpand:
    def test_expansion_is_tree_preserving_likelihood(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            c = random_dag_circuit(rng, max_sum_edges=10)
            t = copy_paste_expand(c)
            assert t.is_tree()
            assert validate(t).ok
            ev = random_evidence(rng, c)
            np.testing.assert_allclose(
                log_likelihood(c, ev), log_likelihood(t, ev), rtol=1e-12
            )

    def test_expansion_bound(self):
        rng = np.random.default_rng(5)
        c = random_dag_circuit(rng, max_sum_edges=10)
        with pytest.raises(StructureError):
            copy_paste_expand(c, max_nodes=1)
