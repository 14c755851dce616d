"""Structure construction: tensorized builder, manual parser, fixtures."""

import hashlib

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
    serialize,
    structure_stats,
    validate,
)
from circuq.structures import random_dag_circuit, random_evidence, random_tree_circuit

from conftest import partition_products


# SHA-256 of serialize(build_rat(RatConfig(*shape, rng_seed=seed))) as the
# node-by-node builder wrote them (numpy 2.4, x86-64), for the benchmark's
# small, mid and enumerable RATs and every RatConfig these tests build.
PINNED_FILES = {
    ((5, 5, 3, 2, 5, 16), 1): "6a6aad69a78d3d23ab05a18953c3e134114f59db9ced3106c617a77499f927c5",
    ((10, 10, 4, 5, 10, 64), 1): "3a02426a7706a75f4c43345752326f205367dc22b5c7ce27dd49eed3084877c3",
    ((2, 1, 2, 1, 2, 4), 1): "8261e1a8a4a62ded4b170b49609d1d6ae7d79572f92c1d2a9d9980efbbecf236",
    ((2, 2, 2, 2, 3, 4), 1): "f2ae565d92284a0f7e31f4a8852c2caf70867d09a132cf28bca8a0c41d19af00",
    ((3, 3, 2, 2, 3, 6), 2): "8fa1520603241f7a3600aa31a64af710167e627cab49f9a7abab51c21d284366",
    ((6, 3, 2, 3, 10, 4), 3): "3216df8fee6d11ef00c45a99f76b1c752996d2741273226d0d4fb5229f0c6202",
    ((2, 2, 1, 1, 2, 4), 0): "b96b1563e342ff67ae564a2ed93e781857df77f6f14764910019293742b02ad3",
    ((2, 1, 2, 1, 2, 4), 3): "f6341eaec86a4ad8007c0660ca6a40ec525d35f779e0943b40e03b763d6a6f54",
    ((2, 2, 1, 1, 2, 4), 1): "f7bf9e0053f3fc1c392651e7139fe455a56f4083a1c4b5b45502788cefacb3ce",
    ((2, 2, 1, 1, 2, 4), 2): "49139a1cf6d595fbf53193546ccb3827bcd7bda53ea5d46cf7f8734e9709e29a",
    ((2, 2, 1, 1, 2, 4), 3): "581efcdc22802270d32befb72077aab82c22b4509c1729026269f78eb1f9482f",
    ((2, 2, 1, 1, 2, 4), 4): "0c9607c5c5e6394572bfee0d56cbe6dad299cfc4a7e98a65291d484ea111447b",
    ((2, 2, 1, 1, 2, 2), 5): "f5f014b0e22b480de23c80fc6cb3f6b8c2df1f1579f553bb2c9e4a7d39c6e107",
    ((2, 2, 1, 1, 2, 4), 6): "c6f260c60805a999df0650105b89bc3abe7e03844544633c6aff4ff0679a52ac",
    ((3, 2, 2, 2, 3, 8), 4): "9cc4b548ad65d970308bca026d3ddaf353e34fe8f21a60d40d018b2473956d58",
    ((1, 1, 1, 1, 1, 2), 0): "8eed2008f268bb2b8875634ee1659532efb87c6c8bdf46d43d63bbd80557d608",
    ((3, 2, 2, 2, 3, 8), 5): "40f59532dc2a19700fc75107ce525a7c7127dea8f29830fb28d9103bd695883f",
    ((3, 2, 2, 2, 3, 8), 6): "7f1407e2282c17aa714d65d0f88c27fb73802b3b21a878a4f81525d1c2de80dc",
    ((3, 2, 2, 1, 2, 8), 2): "126ebebdf6c7e52b14d90e324df1a92278fc2cb7ba361d38187f0f49e947fce4",
    ((2, 2, 2, 1, 1, 8), 4): "c84cba951832d5027b43b66951b85d463fc7d265f3ba5c4e7e0e060569a42cb1",
    ((2, 3, 2, 2, 4, 10), 0): "210aee49766142b88b382ae78c209e5798f27fe550786dd3749ee9043e41e47b",
    ((2, 3, 2, 2, 4, 10), 1): "71a205441e85f9423e464a156dbdfd3d96ff6f7c0e8db193f6a5c34bec59a9e8",
    ((2, 3, 2, 2, 4, 10), 2): "11e819cde2cf7c692c25b409d44879a3befd63805db54915518a8edad391afc9",
    ((2, 3, 2, 2, 4, 10), 3): "5f3da5be8c0ef1e15e62b188064911b7c4bccdfcfdbf01de3208b93849cb3d8d",
    ((20, 20, 5, 5, 10, 784), 0): "f440eea8f331ce1793559307d6c1421d163d51cc36352dd8bae6e3d2ce7dbb17",
    ((2, 2, 1, 1, 1, 2), 3): "93e0b8ed83e990e3f501e54ac72792a37bf082016aabb361a382e61554269f4f",
    ((2, 2, 1, 1, 1, 3), 5): "a0336560901cfddc4d58bc5e9d5c8db873f72396c448cab0f7cc7b72fb8977ae",
    ((2, 1, 2, 1, 1, 4), 3): "cf2471e21b89af174f4297dec49242069bbed7ca808ebe30b9bcee776c513520",
    ((2, 1, 2, 1, 1, 5), 8): "278338c3dc18c60b5294bf79f7e5e8b1415bbf374a409aa8ecec1ea2ae5f32bf",
    ((3, 2, 2, 2, 4, 8), 0): "db1f9e443f7b09bd62cef72a6e2c234e11b5950ac8a340138545855a46b106dd",
    ((3, 2, 2, 2, 4, 8), 1): "c1517c6a83e058b0fdc1e7f3f99f58b5e69bea276d5bd64a24f8c94da42be109",
    ((3, 2, 2, 2, 4, 8), 2): "2a7af8a223335fd4e31c770116954363db524f123cfa8f55fafed2a4ef490870",
    ((2, 2, 1, 1, 1, 2), 9): "13446bca5c0180027d457a30e7e8f77c5fa4bb10d2aa2b10ac9880c306afb100",
    ((2, 2, 1, 1, 1, 2), 1): "daacf34cfc6b098e9df7830eeff976165d44b47c2c870765e2cbdc6594e37f95",
    ((2, 1, 2, 2, 2, 4), 3): "ff2c6fec0042b65c16b92867d6e8e411b7545419f735d3dfa3b49b4ebc951e03",
    ((2, 1, 2, 2, 1, 4), 3): "c20d08402b565d5c12dfb49c55106ea8e671bde618a30d490ff270e51427ed6a",
    ((3, 2, 2, 2, 3, 6), 4): "0b64721166acee10b294056ca9b0a6f9ab04fd461b93127d7d64adfea0feab4d",
    ((2, 2, 2, 2, 2, 4), 6): "62c2f03d9eb101a8e3e2090bfb112788080f685005bb9c07aa17d26e1f7aeaa8",
    ((2, 2, 2, 1, 3, 4), 5): "fcbbebb92a6ba7bc37777a13d9dd0b350c5ecc9ecb520d252a157962f51e7e46",
}


@pytest.mark.parametrize("shape, seed", list(PINNED_FILES))
def test_build_rat_writes_the_pinned_bytes(shape, seed):
    blob = serialize(build_rat(RatConfig(*shape, rng_seed=seed)))
    assert hashlib.sha256(blob).hexdigest() == PINNED_FILES[shape, seed]


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
