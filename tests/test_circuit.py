"""Circuit model: validation, log-space inference, serialization."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuq import (
    CategoricalLeaf,
    Circuit,
    Evidence,
    GaussianLeaf,
    ProductNode,
    SumNode,
    ParameterError,
    SerializationError,
    ShapeError,
    build_manual,
    build_rat,
    deserialize,
    log_likelihood,
    log_likelihood_batch,
    RatConfig,
    serialize,
    validate,
)
from circuq.enumeration import linear_forward
from circuq.structures import random_tree_circuit, random_dag_circuit, random_evidence
from circuq.circuit import logsumexp

from conftest import rel_err


def gaussian(v=0, mean=0.0, log_std=0.0):
    return GaussianLeaf(v, mean, log_std)


class TestValidate:
    def test_single_leaf_is_valid(self):
        c = Circuit([gaussian()], roots=[0], num_variables=1, log_class_priors=np.zeros(1))
        assert validate(c).ok

    def test_decomposability_violation(self):
        nodes = [gaussian(0), gaussian(0), ProductNode([0, 1])]
        c = Circuit(nodes, [2], 1, np.zeros(1))
        report = validate(c)
        assert not report.ok
        assert any(v.constraint == "decomposability" and v.node == 2 for v in report.violations)

    def test_smoothness_violation(self):
        nodes = [gaussian(0), gaussian(1), SumNode([0, 1], np.log([0.5, 0.5])),
                 gaussian(0), ProductNode([2, 3])]
        # the sum's children have scopes {0} and {1}
        c = Circuit(nodes, [2], 2, np.zeros(1))
        report = validate(c)
        assert any(v.constraint == "smoothness" and v.node == 2 for v in report.violations)

    def test_weight_normalization(self):
        nodes = [gaussian(0), gaussian(0), SumNode([0, 1], np.log([0.5, 0.4]))]
        c = Circuit(nodes, [2], 1, np.zeros(1))
        assert any(v.constraint == "weight-normalization" for v in validate(c).violations)

    def test_topological_order(self):
        nodes = [SumNode([1, 2], np.log([0.5, 0.5])), gaussian(0), gaussian(0)]
        c = Circuit(nodes, [0], 1, np.zeros(1))
        assert any(v.constraint == "topological-order" for v in validate(c).violations)

    def test_root_scope_must_be_full(self):
        nodes = [gaussian(0)]
        c = Circuit(nodes, [0], 2, np.zeros(1))
        assert any(v.constraint == "root-scope" for v in validate(c).violations)

    def test_prior_normalization(self):
        nodes = [gaussian(0), gaussian(0)]
        c = Circuit(nodes, [0, 1], 1, np.log([0.6, 0.6]))
        assert any(v.constraint == "prior-normalization" for v in validate(c).violations)


class TestLogLikelihood:
    def test_standard_normal_at_mode(self):
        c = Circuit([gaussian()], [0], 1, np.zeros(1))
        got = log_likelihood(c, [0.0])[0]
        assert got == pytest.approx(math.log(1 / math.sqrt(2 * math.pi)), abs=1e-12)
        assert got == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_fully_marginalized_is_zero(self, three_var_tree):
        got = log_likelihood(three_var_tree, Evidence.marginal_all(3))
        assert abs(got[0]) < 1e-9

    def test_mixture_value(self, two_leaf_sum):
        # 0.6 * 0.5 + 0.4 * 0.25 = 0.4; cross-checked against the linear path
        got = log_likelihood(two_leaf_sum, [0.0])[0]
        assert got == pytest.approx(math.log(0.4), abs=1e-12)
        lin = linear_forward(two_leaf_sum, [0.0])[two_leaf_sum.roots[0]]
        assert got == pytest.approx(math.log(lin), abs=1e-12)

    def test_evidence_length_mismatch(self, two_leaf_sum):
        with pytest.raises(ShapeError):
            log_likelihood(two_leaf_sum, [0.0, 1.0])

    def test_non_finite_leaf_parameter(self):
        c = Circuit([GaussianLeaf(0, math.nan, 0.0)], [0], 1, np.zeros(1))
        with pytest.raises(ParameterError):
            log_likelihood(c, [0.0])

    def test_batch_matches_scalar(self, three_var_tree):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(8, 3))
        X[2, 1] = np.nan
        batch = log_likelihood_batch(three_var_tree, X)
        for i in range(8):
            single = log_likelihood(three_var_tree, X[i])
            np.testing.assert_allclose(batch[i], single, rtol=1e-13)


class TestInvariantProperties:
    def test_normalization_on_generated_circuits(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            c = random_tree_circuit(rng, max_sum_edges=10)
            ll = log_likelihood(c, Evidence.marginal_all(c.num_variables))
            assert np.all(np.abs(ll) < 1e-9)
        for _ in range(10):
            c = random_dag_circuit(rng, max_sum_edges=10)
            ll = log_likelihood(c, Evidence.marginal_all(c.num_variables))
            assert np.all(np.abs(ll) < 1e-9)

    def test_log_linear_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            c = random_tree_circuit(rng, max_sum_edges=10)
            ev = random_evidence(rng, c)
            log_roots = log_likelihood(c, ev)
            lin_roots = linear_forward(c, ev)[c.roots]
            for lg, ln in zip(log_roots, lin_roots):
                assert rel_err(math.exp(lg), ln) < 1e-9

    def test_marginal_monotonicity_discrete(self):
        # marginalizing one more variable never lowers the probability
        spec = """
        a categorical 0 0.3 0.7
        b categorical 1 0.6 0.4
        c categorical 2 0.5 0.5
        d categorical 2 0.2 0.8
        s sum 0.5 c 0.5 d
        p product a b s
        root p
        """
        c = build_manual(spec)
        rng = np.random.default_rng(3)
        for _ in range(40):
            values = [float(rng.integers(2)) for _ in range(3)]
            full = log_likelihood(c, values)[0]
            for v in range(3):
                partial = list(values)
                partial[v] = None
                marg = log_likelihood(c, Evidence.of(partial))[0]
                assert marg >= full - 1e-12


class TestSerialization:
    def test_single_leaf_round_trip(self):
        c = Circuit([gaussian(0, 0.25, -0.5)], [0], 1, np.zeros(1))
        c2 = deserialize(serialize(c))
        assert len(c2.nodes) == 1
        assert c2.nodes[0].mean == 0.25 and c2.nodes[0].log_std == -0.5
        assert c2.roots == [0] and c2.num_variables == 1

    def test_unnormalized_weights_rejected_on_load(self):
        import json

        blob = serialize(build_manual("a gaussian 0 0 1\nb gaussian 0 1 1\ns sum 0.5 a 0.5 b\nroot s"))
        doc = json.loads(blob)
        doc["nodes"][2]["log_weights"] = [math.log(0.5), math.log(0.4)]
        with pytest.raises(SerializationError):
            deserialize(json.dumps(doc).encode())

    def test_unknown_version(self):
        blob = serialize(build_manual("a gaussian 0 0 1\nroot a"))
        import json
        doc = json.loads(blob)
        doc["version"] = 99
        with pytest.raises(SerializationError):
            deserialize(json.dumps(doc).encode())

    def test_malformed_bytes(self):
        with pytest.raises(SerializationError):
            deserialize(b"not json at all")

    def test_rat_round_trip_preserves_likelihood(self):
        c = build_rat(RatConfig(2, 2, 1, 1, 1, 2, rng_seed=9))
        c2 = deserialize(serialize(c))
        x = np.array([0.3, -0.7])
        assert log_likelihood(c, x)[0] == pytest.approx(log_likelihood(c2, x)[0], abs=0)

    def test_refuses_invalid_circuit(self):
        nodes = [gaussian(0), gaussian(0), SumNode([0, 1], np.log([0.5, 0.4]))]
        c = Circuit(nodes, [2], 1, np.zeros(1))
        with pytest.raises(SerializationError):
            serialize(c)

    def test_numpy_integer_ids_round_trip(self):
        i = np.int64
        nodes = [gaussian(i(0)), gaussian(i(1), 0.5), ProductNode([i(0), i(1)]),
                 gaussian(i(0), -1.0), gaussian(i(1), 1.0), ProductNode([i(3), i(4)]),
                 SumNode([i(2), i(5)], np.log([0.25, 0.75]))]
        c = Circuit(nodes, [i(6)], 2, np.zeros(1))
        assert validate(c).ok
        c2 = deserialize(serialize(c))
        assert c2.roots == [6]
        assert [n.children for n in c2.nodes if n.kind != "gaussian"] == [[0, 1], [3, 4], [2, 5]]
        assert [n.variable for n in c2.nodes if n.kind == "gaussian"] == [0, 1, 0, 1]
        x = np.array([0.3, -0.2])
        assert log_likelihood(c2, x)[0] == log_likelihood(c, x)[0]

    def test_numpy_integer_categorical_variable_round_trips(self):
        leaf = CategoricalLeaf(np.int64(0), np.log([0.25, 0.75]))
        c = Circuit([leaf], [0], 1, np.zeros(1))
        assert validate(c).ok
        c2 = deserialize(serialize(c))
        assert c2.nodes[0].variable == 0
        assert log_likelihood(c2, [1.0])[0] == log_likelihood(c, [1.0])[0]

    def test_unencodable_value_raises_serialization_error(self):
        c = build_rat(RatConfig(2, 2, 1, 1, 1, 2, rng_seed=9))
        leaf = next(i for i, node in enumerate(c.nodes) if node.kind == "gaussian")
        c.nodes[leaf] = dataclasses.replace(c.nodes[leaf], mean=1j)
        with pytest.raises(SerializationError, match=r"\[leaf-parameter\].*mean 1j"):
            serialize(c)

    def test_old_17_digit_file_loads_unchanged(self):
        # the writer of format version 1 used to print 17 significant digits,
        # -0.0 as "-0" and infinities as Infinity; such files still load
        old = (b'{"version": 1, "num_variables": 1, "log_class_priors": [0], "roots": [2], '
               b'"nodes": [{"kind": "gaussian", "variable": 0, "mean": 0.10000000000000001, '
               b'"log_std": -0}, {"kind": "gaussian", "variable": 0, "mean": '
               b'-1.0000000000000001e-300, "log_std": 0.69314718055994529}, {"kind": "sum", '
               b'"children": [0, 1], "log_weights": [0, -Infinity]}]}')
        c = deserialize(old)
        a, b, s = c.nodes
        assert _bits([a.mean, a.log_std]) == _bits([0.1, 0.0])
        assert _bits([b.mean, b.log_std]) == _bits([-1e-300, math.log(2.0)])
        assert _bits(s.log_weights) == _bits([0.0, -np.inf])
        assert _bits(c.log_class_priors) == _bits([0.0])


SPECIAL_MEANS = (-0.0, 5e-324, 1e308, -1e308)

roundtrip_circuits = st.one_of(
    st.integers(0, 2**32 - 1).map(
        lambda s: random_tree_circuit(np.random.default_rng(s), num_classes=2, gaussian_only=True)),
    st.integers(0, 2**32 - 1).map(lambda s: random_dag_circuit(np.random.default_rng(s))),
    st.builds(lambda s, i, d, seed: build_rat(RatConfig(s, i, d, 1, 2, 2**d, rng_seed=seed)),
              st.integers(1, 3), st.integers(1, 3), st.integers(1, 2), st.integers(0, 1000)),
)


def _bits(value) -> list:
    return np.asarray(value, dtype=np.float64).view(np.int64).tolist()


@settings(max_examples=40, deadline=None)
@given(roundtrip_circuits, st.data())
def test_round_trip_is_bitwise_exact(circuit, data):
    """Extreme means (-0.0 among them) and a zero-weight edge survive a
    round trip bit for bit, and the forward pass gives identical values."""
    nodes = list(circuit.nodes)
    leaves = [i for i, n in enumerate(nodes) if n.kind == "gaussian"]
    chosen = data.draw(st.permutations(leaves))[: len(SPECIAL_MEANS)]
    for i, mean in zip(chosen, SPECIAL_MEANS):
        nodes[i] = dataclasses.replace(nodes[i], mean=mean)
    sums = [i for i, n in enumerate(nodes) if n.kind == "sum" and len(n.children) > 1]
    if sums:
        i = data.draw(st.sampled_from(sums))
        lw = nodes[i].log_weights.copy()
        lw[0] = -np.inf
        nodes[i] = SumNode(nodes[i].children, lw - logsumexp(lw))
    c = Circuit(nodes, circuit.roots, circuit.num_variables, circuit.log_class_priors)
    assert validate(c).ok

    c2 = deserialize(serialize(c))
    assert c2.roots == c.roots and c2.num_variables == c.num_variables
    assert _bits(c2.log_class_priors) == _bits(c.log_class_priors)
    for a, b in zip(c.nodes, c2.nodes, strict=True):
        assert a.kind == b.kind
        if a.kind in ("sum", "product"):
            assert b.children == list(a.children)
        if a.kind == "sum":
            assert _bits(b.log_weights) == _bits(a.log_weights)
        if a.kind == "gaussian":
            assert b.variable == a.variable
            assert _bits([b.mean, b.log_std]) == _bits([a.mean, a.log_std])

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = np.array([random_evidence(rng, c, 0.2) for _ in range(4)])
    with np.errstate(all="ignore"):  # a leaf at mean 1e308 overflows its squared distance
        assert _bits(log_likelihood_batch(c2, X)) == _bits(log_likelihood_batch(c, X))


def test_is_tree_detects_sharing():
    shared = [gaussian(0), SumNode([0, 0], np.log([0.5, 0.5]))]
    c = Circuit(shared, [1], 1, np.zeros(1))
    assert not c.is_tree()
    chain = [gaussian(0), SumNode([0], np.zeros(1))]
    assert Circuit(chain, [1], 1, np.zeros(1)).is_tree()
