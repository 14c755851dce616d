"""Circuit model: validation, log-space inference, serialization."""

import dataclasses
import io
import json
import math
import zipfile

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
    DropoutConfig,
    log_likelihood,
    log_likelihood_batch,
    McdConfig,
    mcd_infer,
    posterior_moments,
    posterior_moments_batch,
    RatConfig,
    serialize,
    structure_stats,
    TrainConfig,
    UnderflowError,
    fit,
    validate,
)
import circuq.circuit as circuit_module
from circuq.evaluation import EvalConfig, posterior_means
from circuq.enumeration import linear_forward
from circuq.structures import random_tree_circuit, random_dag_circuit, random_evidence
from circuq.circuit import logsumexp

from conftest import rel_err, v1_doc


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

    def test_a_product_after_a_sum_over_its_children_is_checked_as_a_product(self):
        nodes = [gaussian(0), gaussian(0), SumNode([0, 1], np.log([0.5, 0.5])),
                 ProductNode([0, 1])]
        report = validate(Circuit(nodes, [3], 1, np.zeros(1)))
        assert [(v.constraint, v.node) for v in report.violations] == [("decomposability", 3)]

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

    @pytest.mark.parametrize("children, roots, log_weights, log_probs, priors, constraint", [
        ([0, 1], [3], ["-0.69", "-0.69"], [0.0], [0.0], "weight-normalization"),
        ([0, 1], [3], np.log([0.5, 0.5]) + 0j, [0.0], [0.0], "weight-normalization"),
        (["0", 1], [3], np.log([0.5, 0.5]), [0.0], [0.0], "index"),
        ([0.0, 1], [3], np.log([0.5, 0.5]), [0.0], [0.0], "index"),
        ([0, 1], ["3"], np.log([0.5, 0.5]), [0.0], [0.0], "index"),
        ([0, 1], [3], np.log([0.5, 0.5]), [0.0 + 1j], [0.0], "leaf-normalization"),
        ([0, 1], [3], np.log([0.5, 0.5]), ["0"], [0.0], "leaf-normalization"),
        ([0, 1], [3], np.log([0.5, 0.5]), [0.0], [0j], "prior-normalization"),
    ], ids=["string-weights", "complex-weights", "string-child", "float-child", "string-root",
            "complex-probs", "string-probs", "complex-prior"])
    def test_values_of_the_wrong_type_are_violations(self, children, roots, log_weights,
                                                     log_probs, priors, constraint):
        """A node id that is no integer, or a weight, probability or prior
        that is no real number, is reported, not raised, and the circuit
        refuses to serialize rather than write a converted value."""
        nodes = [gaussian(0), gaussian(0), CategoricalLeaf(0, np.array(log_probs)),
                 SumNode(children, np.asarray(log_weights))]
        c = Circuit(nodes, roots, 1, np.array(priors))
        report = validate(c)
        assert [v.constraint for v in report.violations] == [constraint]
        with pytest.raises(SerializationError, match=rf"\[{constraint}\]"):
            serialize(c)

    def test_a_leaf_variable_that_is_no_index_is_a_violation(self):
        for variable in ("0", -1, 0.0):
            c = Circuit([gaussian(variable)], [0], 1, np.zeros(1))
            report = validate(c)
            assert [v.constraint for v in report.violations] == ["variable-range"]

    def test_a_log_std_whose_inverse_overflows_is_a_leaf_parameter_violation(self):
        """Below -log(float max), 1 / std = exp(-log_std) overflows and the
        leaf's density would be NaN: validate reports it, both on the
        columns and node by node, and no pass runs.  Just above, the
        circuit evaluates."""
        from circuq.circuit import _columns, _holds, _node_report

        assert circuit_module.MIN_LOG_STD == -math.log(np.finfo(np.float64).max)
        nodes = [gaussian(0, 0.0, -0.5), gaussian(0, 0.0, -710.0),
                 SumNode([0, 1], np.log([0.5, 0.5]))]
        c = Circuit(nodes, [2], 1, np.zeros(1))
        report = validate(c)
        assert [(v.constraint, v.node) for v in report.violations] == [("leaf-parameter", 1)]
        assert not _holds(_columns(c)) and _node_report(c).violations == report.violations
        with pytest.raises(ParameterError, match="node 1"):
            log_likelihood(c, [0.0])
        with pytest.raises(SerializationError, match=r"\[leaf-parameter\] node=1"):
            serialize(c)
        nodes[1] = gaussian(0, 0.0, -700.0)
        c = Circuit(nodes, [2], 1, np.zeros(1))
        assert validate(c).ok
        assert log_likelihood(c, [0.0])[0] == pytest.approx(
            math.log(0.5) + np.logaddexp(0.5, 700.0) - 0.5 * math.log(2 * math.pi), rel=1e-14)


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
        doc = v1_doc(build_manual("a gaussian 0 0 1\nb gaussian 0 1 1\ns sum 0.5 a 0.5 b\nroot s"))
        doc["nodes"][2]["log_weights"] = [math.log(0.5), math.log(0.4)]
        with pytest.raises(SerializationError):
            deserialize(json.dumps(doc).encode())

    def test_unknown_version(self):
        doc = v1_doc(build_manual("a gaussian 0 0 1\nroot a"))
        doc["version"] = 99
        with pytest.raises(SerializationError):
            deserialize(json.dumps(doc).encode())

    def test_malformed_bytes(self):
        with pytest.raises(SerializationError):
            deserialize(b"not json at all")

    @pytest.mark.parametrize("field, value, constraint", [
        ("roots", [2.7], "index"), ("roots", ["2"], "index"),
        ("variable", 0.9, "variable-range"), ("variable", "0", "variable-range")])
    def test_a_non_integer_id_in_a_file_fails_validation(self, field, value, constraint):
        """Ids are read as the file gives them, not truncated to a node or
        variable that the file does not name."""
        doc = v1_doc(build_manual("a gaussian 0 0 1\nb gaussian 0 1 1\ns sum 0.5 a 0.5 b\nroot s"))
        if field == "roots":
            doc["roots"] = value
        else:
            doc["nodes"][0]["variable"] = value
        with pytest.raises(SerializationError, match=rf"\[{constraint}\]"):
            deserialize(json.dumps(doc).encode())

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
    st.integers(0, 2**32 - 1).map(
        lambda s: random_tree_circuit(np.random.default_rng(s), num_classes=2, num_variables=4)),
    st.integers(0, 2**32 - 1).map(lambda s: random_dag_circuit(np.random.default_rng(s))),
    st.builds(lambda s, i, d, seed: build_rat(RatConfig(s, i, d, 1, 2, 2**d, rng_seed=seed)),
              st.integers(1, 3), st.integers(1, 3), st.integers(1, 2), st.integers(0, 1000)),
)


def _bits(value) -> list:
    return np.asarray(value, dtype=np.float64).view(np.int64).tolist()


@settings(max_examples=40, deadline=None)
@given(roundtrip_circuits, st.data())
def test_round_trip_is_bitwise_exact(circuit, data):
    """Extreme means (-0.0, a subnormal and +-1e308 among them) and a
    zero-weight edge survive a round trip bit for bit, through the file that
    serialize writes and through a version-1 file of the same circuit, and
    the forward pass gives identical values."""
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

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = np.array([random_evidence(rng, c, 0.2) for _ in range(4)])
    for c2 in (deserialize(serialize(c)), deserialize(json.dumps(v1_doc(c)).encode())):
        assert c2.roots == c.roots and c2.num_variables == c.num_variables
        assert _bits(c2.log_class_priors) == _bits(c.log_class_priors)
        for a, b in zip(c.nodes, c2.nodes, strict=True):
            assert a.kind == b.kind
            if a.kind in ("sum", "product"):
                assert b.children == list(a.children)
            if a.kind == "sum":
                assert _bits(b.log_weights) == _bits(a.log_weights)
            if a.kind in ("gaussian", "categorical"):
                assert b.variable == a.variable
            if a.kind == "gaussian":
                assert _bits([b.mean, b.log_std]) == _bits([a.mean, a.log_std])
            if a.kind == "categorical":
                assert _bits(b.log_probs) == _bits(a.log_probs)
        assert _bits(log_likelihood_batch(c2, X)) == _bits(log_likelihood_batch(c, X))


def test_is_tree_detects_sharing():
    shared = [gaussian(0), SumNode([0, 0], np.log([0.5, 0.5]))]
    c = Circuit(shared, [1], 1, np.zeros(1))
    assert not c.is_tree()
    chain = [gaussian(0), SumNode([0], np.zeros(1))]
    assert Circuit(chain, [1], 1, np.zeros(1)).is_tree()


# ---------------------------------------------------------------------------
# The circuit file, format version 2

TWO_LEAF_MIXTURE = "a gaussian 0 0 1\nb gaussian 0 1 1\ns sum 0.5 a 0.5 b\nroot s"
MEMBERS = ["header", "kinds", "counts", "children", "log_weights", "variables", "means",
           "log_stds", "states", "log_probs", "roots", "log_class_priors"]


def members(blob: bytes) -> dict:
    """The arrays of a version-2 file, by member name."""
    with np.load(io.BytesIO(blob), allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def archive(arrays: dict) -> bytes:
    """A zip of .npy members: arrays, or raw member bytes, by name."""
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as z:
        for name, value in arrays.items():
            if not isinstance(value, bytes):
                npy = io.BytesIO()
                np.save(npy, value, allow_pickle=True)
                value = npy.getvalue()
            z.writestr(f"{name}.npy", value)
    return out.getvalue()


def header(**fields) -> np.ndarray:
    return np.frombuffer(json.dumps({"version": 2, "num_variables": 1, **fields}).encode(),
                         dtype=np.uint8)


def huge_member() -> bytes:
    """An .npy member whose header declares 10**12 child ids in 16 bytes."""
    npy = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        npy, {"descr": "<i8", "fortran_order": False, "shape": (10**12,)})
    return npy.getvalue() + np.zeros(2, dtype=np.int64).tobytes()


class TestColumnStorage:
    def test_the_hot_paths_build_no_node_objects(self, monkeypatch):
        """A loaded mid RAT runs the forward, moment and masked passes, a
        training epoch, a save and a validation on its columns alone, and so
        does the circuit that training returns."""
        c = deserialize(serialize(build_rat(RatConfig(10, 10, 4, 5, 10, 64, rng_seed=1))))

        def refuse(columns):
            raise AssertionError("node objects were built")

        monkeypatch.setattr(circuit_module, "_node_view", refuse)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 64))
        log_likelihood_batch(c, X)
        posterior_moments_batch(c, X, DropoutConfig.with_p(0.1))
        trained, history = fit(c, X, rng.integers(10, size=6),
                               TrainConfig(epochs=1, batch_size=3, learning_rate=0.02))
        assert len(history.epochs) == 1
        mcd_infer(c, X[0], McdConfig(0.1, 20, 0))
        for circuit in (c, trained):
            assert validate(circuit).ok and deserialize(serialize(circuit)).num_classes == 10
            assert structure_stats(circuit)["nodes"] == 12_210


    def test_a_built_circuit_is_checked_once_on_its_way_to_a_file(self, monkeypatch):
        """Columns check themselves once: saving a built RAT runs no second
        array check, compiling a loaded one no second run analysis, and a
        circuit with trained parameters has new columns, checked before they
        are saved."""
        calls = {"_holds": 0, "_run_heads": 0}
        for name in calls:
            def counted(*args, name=name, real=getattr(circuit_module, name)):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(circuit_module, name, counted)
        c = build_rat(RatConfig(2, 2, 2, 1, 3, 8, rng_seed=3))
        blob = serialize(c)
        assert calls == {"_holds": 1, "_run_heads": 1}
        loaded = deserialize(blob)
        loaded.plan()
        assert calls == {"_holds": 2, "_run_heads": 2}
        rng = np.random.default_rng(0)
        trained, _ = fit(loaded, rng.normal(size=(6, 8)), rng.integers(3, size=6),
                         TrainConfig(epochs=1, batch_size=3, learning_rate=0.02))
        assert serialize(trained) != blob
        assert calls["_holds"] == 3


class TestFarOutEvidence:
    """A value so far out that its squared distance overflows has the exact
    log density -inf, without a RuntimeWarning (which the tests raise)."""

    def test_the_likelihood_is_minus_inf_and_the_posteriors_underflow(self):
        c = build_rat(RatConfig(2, 2, 2, 1, 3, 8, rng_seed=3))
        x = np.zeros(8)
        for far in (1e200, -1e200, 1e308):
            x[0] = far
            assert np.all(log_likelihood(c, x) == -np.inf)
            with pytest.raises(UnderflowError, match="row 0"):
                posterior_moments(c, x, DropoutConfig.with_p(0.1))
            with pytest.raises(UnderflowError, match="row 0"):
                posterior_means(c, x[None, :], EvalConfig())
        x[0] = np.nan
        assert np.all(np.isfinite(log_likelihood(c, x)))


class TestCircuitFile:
    def test_the_file_is_an_npz_of_columns(self):
        c = build_manual(TWO_LEAF_MIXTURE)
        blob = serialize(c)
        assert blob[:4] == b"PK\x03\x04" and blob == serialize(c)
        arrays = members(blob)
        assert list(arrays) == MEMBERS
        assert json.loads(arrays.pop("header").tobytes()) == {"version": 2, "num_variables": 1}
        assert {k: v.tolist() for k, v in arrays.items()} == {
            "kinds": [2, 2, 0], "counts": [0, 0, 2], "children": [0, 1],
            "log_weights": [math.log(0.5)] * 2, "variables": [0, 0], "means": [0.0, 1.0],
            "log_stds": [0.0, 0.0], "states": [], "log_probs": [], "roots": [2],
            "log_class_priors": [0.0]}

    def test_a_mid_rat_round_trips_its_likelihoods_and_tdi_bit_for_bit(self):
        c = build_rat(RatConfig(10, 10, 4, 5, 10, 64, rng_seed=1))
        c2 = deserialize(serialize(c))
        X = np.random.default_rng(0).normal(size=(8, 64))
        X[1, ::3] = np.nan
        config = DropoutConfig.with_p(0.1)
        assert _bits(log_likelihood_batch(c2, X)) == _bits(log_likelihood_batch(c, X))
        for a, b in zip(posterior_moments_batch(c2, X, config),
                        posterior_moments_batch(c, X, config), strict=True):
            assert _bits(a) == _bits(b)

    @pytest.mark.parametrize("count", [2.9, "2", True, -1], ids=["float", "string", "bool",
                                                                  "negative"])
    @pytest.mark.parametrize("version", [1, 2])
    def test_num_variables_must_be_a_count(self, version, count):
        """Neither reader truncates a count: such a file used to load as a
        circuit over int(count) variables."""
        c = build_manual("a gaussian 0 0 1\nb gaussian 1 1 1\np product a b\nroot p")
        if version == 1:
            doc = v1_doc(c)
            doc["num_variables"] = count
            blob = json.dumps(doc).encode()
        else:
            blob = archive({**members(serialize(c)), "header": header(num_variables=count)})
        with pytest.raises(SerializationError, match=r"num_variables .* is not a number"):
            deserialize(blob)

    @pytest.mark.parametrize("change, message", [
        (lambda m, blob: blob[: len(blob) // 2], "not a circuit file"),
        (lambda m, blob: b"\x00\x01 no zip and no JSON", "not a circuit file"),
        (lambda m, blob: archive({k: v for k, v in m.items() if k != "children"}),
         "no member 'children'"),
        (lambda m, blob: archive({**m, "children": m["children"].astype(np.float64)}),
         "member 'children' is an array of float64"),
        (lambda m, blob: archive({**m, "roots": m["roots"].astype(object)}),
         "member 'roots' is an array of object"),
        (lambda m, blob: archive({**m, "means": m["means"][None]}),
         r"member 'means' .* shape \(1, 2\)"),
        (lambda m, blob: archive({**m, "counts": np.array([0, 0, 3])}), "counts must hold"),
        (lambda m, blob: archive({**m, "counts": np.array([0, 0, 1])}),
         "children holds 2 values, but the other members imply 1"),
        (lambda m, blob: archive({**m, "kinds": np.array([2, 2, 7], dtype=np.uint8)}),
         "unknown node kind code 7"),
        (lambda m, blob: archive({**m, "header": header(version=3)}),
         "unknown circuit file version 3"),
        (lambda m, blob: archive({**m, "header": np.frombuffer(b"[2]", np.uint8)}),
         "header is not an object"),
        (lambda m, blob: archive({**m, "children": huge_member()}),
         "member 'children' declares 1000000000000 values in 16 bytes"),
    ], ids=["truncated", "no-zip", "missing-member", "float-child-ids", "object-array",
            "two-axes", "counts-past-children", "counts-do-not-sum", "unknown-kind",
            "wrong-version", "header-no-object", "huge-shape"])
    def test_a_malformed_file_is_a_serialization_error(self, change, message):
        blob = serialize(build_manual(TWO_LEAF_MIXTURE))
        with pytest.raises(SerializationError, match=message):
            deserialize(change(members(blob), blob))

    @pytest.mark.parametrize("version", [1, 2])
    def test_a_file_whose_log_std_overflows_its_inverse_fails_to_load(self, version):
        c = build_manual("a gaussian 0 0.0 1.0\nb gaussian 0 1.0 2.0\ns sum 0.5 a 0.5 b\nroot s")
        if version == 1:
            doc = v1_doc(c)
            doc["nodes"][1]["log_std"] = -710.0
            blob = json.dumps(doc).encode()
        else:
            arrays = members(serialize(c))
            arrays["log_stds"] = np.array([0.0, -710.0])
            blob = archive(arrays)
        with pytest.raises(SerializationError, match=r"\[leaf-parameter\] node=1: Gaussian "
                                                     r"log_std -710\.0 is below -709\.783"):
            deserialize(blob)

    def test_an_invalid_circuit_in_a_file_gets_the_node_report(self):
        arrays = members(serialize(build_manual(TWO_LEAF_MIXTURE)))
        arrays["log_weights"] = np.log([0.5, 0.4])
        with pytest.raises(SerializationError) as raised:
            deserialize(archive(arrays))
        assert str(raised.value) == (
            "circuit file fails validation:\n[weight-normalization] node=2: "
            "weights sum to 0.9, expected 1")

    def test_damaged_bytes_raise_only_serialization_errors(self):
        blob = serialize(build_manual("a gaussian 0 0 1\nb categorical 1 0.3 0.7\n"
                                      "p product a b\nq product a b\ns sum 0.5 p 0.5 q\nroot s"))
        rng = np.random.default_rng(0)
        damaged = [blob[:cut] for cut in range(0, len(blob), 7)]
        for _ in range(300):
            flipped = bytearray(blob)
            flipped[rng.integers(len(blob))] = rng.integers(256)
            damaged.append(bytes(flipped))
        for data in damaged:
            try:
                deserialize(data)
            except SerializationError:
                pass


# ---------------------------------------------------------------------------
# validate() on columns agrees with the node report


def _corrupt_id(value, n, i, draw):
    return draw(st.sampled_from([str(value), float(value), bool(value % 2), np.int64(value),
                                 np.uint8(value % 256), n, -1, i, min(i + 1, n)]))


def _corrupted(circuit: Circuit, data) -> Circuit:
    """The circuit with one corruption drawn from those validate must report."""
    draw = data.draw
    nodes, roots = list(circuit.nodes), list(circuit.roots)
    priors = np.array(circuit.log_class_priors)
    n, eps = len(nodes), np.finfo(np.float64).eps
    inner = [i for i, node in enumerate(nodes) if node.kind in ("sum", "product")]
    leaves = [i for i, node in enumerate(nodes) if node.kind in ("gaussian", "categorical")]
    sums = [i for i in inner if nodes[i].kind == "sum"]
    kind = draw(st.sampled_from(["none", "child", "root", "variable", "smoothness",
                                 "decomposability", "weights", "parameter", "priors"]))
    if kind == "child" and inner:
        i = draw(st.sampled_from(inner))
        k = draw(st.integers(0, len(nodes[i].children) - 1))
        children = list(nodes[i].children)
        children[k] = _corrupt_id(children[k], n, i, draw)
        nodes[i] = dataclasses.replace(nodes[i], children=children)
    elif kind == "root":
        k = draw(st.integers(0, len(roots) - 1))
        roots[k] = _corrupt_id(roots[k], n, n, draw)
    elif kind == "variable":
        i = draw(st.sampled_from(leaves))
        v = nodes[i].variable
        nodes[i] = dataclasses.replace(nodes[i], variable=draw(st.sampled_from(
            [circuit.num_variables, -1, float(v), str(v), True, np.int32(v)])))
    elif kind in ("smoothness", "decomposability") and inner:
        i = draw(st.sampled_from(inner))
        children = list(nodes[i].children)
        children[draw(st.integers(0, len(children) - 1))] = draw(st.integers(0, i - 1))
        nodes[i] = dataclasses.replace(nodes[i], children=children)
    elif kind == "weights" and sums:
        i = draw(st.sampled_from(sums))
        off = draw(st.sampled_from([1e-9, -1e-9, 0.0])) + draw(st.integers(-6, 6)) * eps
        nodes[i] = SumNode(nodes[i].children, nodes[i].log_weights + math.log1p(off))
    elif kind == "parameter":
        bad = draw(st.sampled_from([np.nan, np.inf, 1j, 0.5 + 0j, -710.0]))
        i = draw(st.sampled_from(leaves + sums))
        node = nodes[i]
        if node.kind == "gaussian":
            nodes[i] = dataclasses.replace(node, **{draw(st.sampled_from(["mean", "log_std"])): bad})
        else:
            field = "log_weights" if node.kind == "sum" else "log_probs"
            table = np.array(getattr(node, field), dtype=np.result_type(np.float64, bad))
            table[draw(st.integers(0, len(table) - 1))] = bad
            nodes[i] = dataclasses.replace(node, **{field: table})
    elif kind == "priors":
        priors = draw(st.sampled_from([np.append(priors, -np.inf), priors[:-1],
                                       priors + np.nan, priors + 0j]))
    return Circuit(nodes, roots, circuit.num_variables, priors)


validated_circuits = st.one_of(
    st.integers(0, 2**32 - 1).map(
        lambda s: random_tree_circuit(np.random.default_rng(s), num_classes=2)),
    st.integers(0, 2**32 - 1).map(lambda s: random_dag_circuit(np.random.default_rng(s))),
    st.builds(lambda v, seed: build_rat(RatConfig(1, 2, 2, 1, 2, v, rng_seed=seed)),
              st.integers(4, 140), st.integers(0, 1000)),
    # regions of two sums over four products, whose second sum repeats the first's children
    st.builds(lambda v, seed: build_rat(RatConfig(2, 2, 2, 1, 2, v, rng_seed=seed)),
              st.integers(4, 70), st.integers(0, 1000)),
)


@settings(max_examples=400, deadline=None)
@given(validated_circuits, st.data())
def test_validate_on_columns_agrees_with_the_node_report(circuit, data):
    """On random corruptions of random trees, DAGs and RATs (up to 140
    variables, three scope words), validate's report is the node report's,
    violation for violation, and a version-2 file of the corrupted columns
    fails to load with the report of the circuit it decodes to.  The array
    check itself decides every uncorrupted circuit valid."""
    from circuq.circuit import _columns, _holds, _node_report, _MEMBERS, _of_columns

    columns = _columns(circuit)
    assert columns is not None and _holds(columns)
    c = _corrupted(circuit, data)
    report = _node_report(c)
    assert validate(c).violations == report.violations
    columns = _columns(c)
    if columns is None:
        return
    blob = archive({"header": header(num_variables=columns.num_variables),
                    **{name: getattr(columns, name) for name in _MEMBERS}})
    want = _node_report(_of_columns(columns))
    if want.ok:
        assert deserialize(blob).roots == columns.roots.tolist()
    else:
        with pytest.raises(SerializationError) as raised:
            deserialize(blob)
        assert str(raised.value) == f"circuit file fails validation:\n{want}"
