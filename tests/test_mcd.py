"""Monte Carlo dropout: determinism, statistics, comparison report."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from circuq import (
    DegenerateSampleError,
    McdConfig,
    RatConfig,
    build_manual,
    build_rat,
    mcd,
    mcd_infer,
    mcd_vs_tdi_report,
)
from circuq.circuit import forward_log_values, log_mix
from circuq.enumeration import linear_leaf_value
from circuq.mcd import byte_keep, keep_masks
from circuq.moments import DropoutConfig, tdi_pass, tdi_pass_batch
from circuq.structures import random_dag_circuit, random_evidence, random_tree_circuit

from conftest import rel_err


class TestDeterminismAndDegeneracy:
    def test_p_zero_is_deterministic_forward(self, two_leaf_sum):
        res = mcd_infer(two_leaf_sum, [0.0], McdConfig(p=0.0, num_passes=50, rng_seed=1))
        assert res.sample_mean[0] == pytest.approx(0.4, rel=1e-12)
        assert res.sample_variance[0] == 0.0

    def test_fixed_seed_bit_identical(self, two_leaf_sum):
        a = mcd_infer(two_leaf_sum, [0.0], McdConfig(0.2, 5000, rng_seed=7, keep_samples=True))
        b = mcd_infer(two_leaf_sum, [0.0], McdConfig(0.2, 5000, rng_seed=7, keep_samples=True))
        assert np.array_equal(a.raw_samples, b.raw_samples)
        assert np.array_equal(a.posterior_sample_variance, b.posterior_sample_variance)

    def test_different_seed_differs(self, two_leaf_sum):
        a = mcd_infer(two_leaf_sum, [0.0], McdConfig(0.2, 1000, rng_seed=7))
        b = mcd_infer(two_leaf_sum, [0.0], McdConfig(0.2, 1000, rng_seed=8))
        assert a.sample_mean[0] != b.sample_mean[0]

    def test_all_dropped_event_yields_zero_value(self):
        # single-edge sum at p = 0.5: about half the passes evaluate to zero
        spec = "g gaussian 0 0.0 1.0\ns sum 1.0 g\nroot s"
        c = build_manual(spec)
        res = mcd_infer(c, [0.0], McdConfig(0.5, 4000, rng_seed=3, keep_samples=True))
        zero_frac = float((res.raw_samples[:, 0] == 0.0).mean())
        assert 0.45 < zero_frac < 0.55

    def test_degenerate_sample_error(self):
        spec = """
        a categorical 0 1.0 0.0
        b categorical 0 1.0 0.0
        root a b
        """
        c = build_manual(spec)
        with pytest.raises(DegenerateSampleError):
            mcd_infer(c, [1.0], McdConfig(0.1, 10, rng_seed=0))


def masked_linear_forward(circuit, x, keep):
    """Root values per pass, node by node in linear space: sum edge e, in
    sum_edges() order, keeps its child in pass j where keep[e, j] holds."""
    L = keep.shape[1]
    values = np.empty((len(circuit.nodes), L))
    edge = 0
    for i, node in enumerate(circuit.nodes):
        if node.kind == "sum":
            k = len(node.children)
            w = np.exp(node.log_weights)[:, None]
            values[i] = (w * keep[edge : edge + k] * values[node.children]).sum(axis=0)
            edge += k
        elif node.kind == "product":
            values[i] = np.prod(values[node.children], axis=0)
        else:
            values[i] = linear_leaf_value(node, float(x[node.variable]))
    return values[circuit.roots].T


def stream_mask(circuit, p, seed, L):
    """The first L passes of the seed's mask stream, as a (sum edges, passes)
    mask in sum_edges() order."""
    order = circuit.layout().sum_edge_order
    plan_order = next(keep_masks(p, seed, len(order), L, L))
    keep = np.empty((len(order), L), dtype=bool)
    keep[order] = plan_order.T
    return keep


class TestMaskedPass:
    def test_raw_samples_equal_linear_forward_under_the_mask_stream(self):
        rng = np.random.default_rng(11)
        circuits = [random_tree_circuit(rng, num_classes=2) for _ in range(6)]
        circuits += [random_dag_circuit(rng) for _ in range(6)]
        assert any(n.kind == "categorical" for c in circuits for n in c.nodes)
        nan_rows = 0
        for k, c in enumerate(circuits):
            x = random_evidence(rng, c, 0.3)
            nan_rows += bool(np.isnan(x).any())
            p, L, seed = 0.3, 64, 100 + k
            res = mcd_infer(c, x, McdConfig(p, L, seed, keep_samples=True))
            keep = stream_mask(c, p, seed, L)
            want = masked_linear_forward(c, x, keep)
            assert np.all((res.raw_samples == 0.0) == (want == 0.0))
            np.testing.assert_allclose(res.raw_samples, want, rtol=1e-12, atol=0.0)
        assert nan_rows > 0


def full_width_masked_forward(circuit, x, keep, nodes=None):
    """The masked pass with every layer, the leaves included, in one column
    per pass, each product layer written whole into its slots first, and
    each sum layer mixed by circuit.log_mix from the factors of the
    products it mixes (Layout.mixes): a fused product layer's, or its
    children as products of one factor.  This is the pass without its
    one-column invariant prefix.  Rows of ``nodes``, by default every node
    in node order."""
    plan = circuit.plan()
    layout = plan.layout
    values = np.empty((len(circuit.nodes), len(keep)))
    plan.leaf_log_values(x[None], values)
    start = 0
    with np.errstate(divide="ignore"):
        for k, (layer, lw, w) in enumerate(zip(layout.layers, plan.log_weights, plan.weights)):
            products = layout.mixes[k]
            for b in layer.blocks(len(keep)):
                if layer.kind == "product":
                    layer.outer([read.read(values, b) for read in layer.reads],
                                out=layer.output(values, b))
                    continue
                kept = keep[:, start : start + w.size].reshape(-1, *w.shape)[:, b]
                layer.output(values, b)[...] = log_mix(
                    w[b], lw[b], products.stacked.read(values, products.feeding(layer, b)),
                    np.empty((b.stop - b.start, layer.children.shape[1], len(keep))), kept)
            start += 0 if w is None else w.size
    return values[layout.slot if nodes is None else layout.slot[nodes]]


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.fixture(scope="module")
def masked_circuits():
    """The small and mid RATs, and random trees and DAGs in which layers past
    the invariant prefix read prefix values."""
    rng = np.random.default_rng(5)
    others = [random_tree_circuit(rng, num_classes=2) for _ in range(3)]
    others += [random_dag_circuit(rng) for _ in range(3)]
    assert all(len(c.layout().shared) for c in others)
    return [build_rat(RatConfig(5, 5, 3, 2, 5, 16, rng_seed=1)),
            build_rat(RatConfig(10, 10, 4, 5, 10, 64, rng_seed=1))] + others


@pytest.mark.parametrize("L", [1, 2, 8, 100])
def test_an_all_ones_mask_is_the_plain_forward(masked_circuits, L):
    rng = np.random.default_rng(L)
    for c in masked_circuits:
        x = random_evidence(rng, c, 0.2)
        keep = np.ones((L, c.layout().num_sum_edges), dtype=bool)
        np.testing.assert_array_equal(bits(forward_log_values(c, x[None], keep)),
                                      bits(forward_log_values(c, np.repeat(x[None], L, 0))))


# The sum mixes its dominant child a (log value about 690) with b (about
# -110), so a pass that drops a flushes b's share under a's shift to zero,
# and the sum is recomputed as an exact log-sum-exp.
FLUSHED_FIRST_SUM = """
a gaussian 0 0.0 1e-300
b gaussian 0 14.78 1.0
s sum 0.5 a 0.5 b
root s
"""
NO_SUM = """
a gaussian 0 0.0 1.0
b categorical 1 0.25 0.75
p product a b
root p
"""


def test_the_invariant_prefix_equals_the_full_width_pass(masked_circuits):
    """One-column leaves and products, broadcast where later layers read
    them, give each pass's values bit for bit as if every layer ran in
    every pass's column, for every node and for the roots alone."""
    flushed, no_sum = build_manual(FLUSHED_FIRST_SUM), build_manual(NO_SUM)
    rng = np.random.default_rng(9)
    cases = [(c, random_evidence(rng, c, 0.2), 0.3) for c in masked_circuits]
    cases += [(flushed, np.array([0.0]), 0.5), (no_sum, np.array([0.3, 1.0]), 0.3)]
    for c, x, p in cases:
        for L in (1, 7, 40):
            keep = rng.random((L, c.layout().num_sum_edges)) >= p
            for nodes in (None, c.roots):
                np.testing.assert_array_equal(
                    bits(forward_log_values(c, x[None], keep, nodes=nodes)),
                    bits(full_width_masked_forward(c, x, keep, nodes)))
    keep = np.array([[False, True], [True, True]])  # a dropped, then both kept
    roots = forward_log_values(flushed, np.array([[0.0]]), keep, nodes=flushed.roots)[0]
    b = forward_log_values(flushed, np.array([[0.0]]), nodes=[1])[0, 0]
    assert roots[0] == pytest.approx(math.log(0.5) + b, rel=1e-14)
    assert roots[1] > 600


class FixedWords:
    """A stand-in tie stream that returns given raw words in order."""

    def __init__(self, words):
        self.words = list(words)

    def random_raw(self, n):
        taken, self.words = self.words[:n], self.words[n:]
        return np.array(taken, dtype=np.uint64)


class TestMaskStream:
    @pytest.mark.parametrize("p", [0.0, 2.0**-53, 1 / 256, 0.1, 0.5, 255 / 256, 1 - 2.0**-53])
    def test_byte_and_tie_keep_equal_the_uniform_threshold(self, p):
        """hi > T_hi, or lo >= T_lo on a tie, is U = k 2^-53 >= p, at the
        thresholds' boundaries and at random k."""
        top, lo_bits = 2**53 - 1, 45
        T = math.ceil(p * 2.0**53)
        edges = [0, 1, T, top, (T >> lo_bits) << lo_bits, ((T >> lo_bits) + 1) << lo_bits]
        k = {min(max(e + d, 0), top) for e in edges for d in (-2, -1, 0, 1, 2)}
        k = np.array(sorted(k) + list(np.random.default_rng(3).integers(0, top, 10_000)),
                     dtype=np.uint64)
        hi = (k >> np.uint64(lo_bits)).astype(np.uint8)
        lo_words = (k & np.uint64(2**lo_bits - 1)) << np.uint64(64 - lo_bits)
        tie = hi == T >> lo_bits
        ties = FixedWords(lo_words[tie])
        keep = byte_keep(hi, p, ties)
        np.testing.assert_array_equal(keep, k.astype(np.float64) * 2.0**-53 >= p)
        # one tie word per tie
        assert len(ties.words) == 0

    def test_chunks_are_slices_of_one_stream(self):
        L, E = 37, 13
        whole = next(keep_masks(0.3, 5, E, L, L))
        chunks = list(keep_masks(0.3, 5, E, L, 8))
        assert [len(c) for c in chunks] == [8, 8, 8, 8, 5]
        np.testing.assert_array_equal(np.concatenate(chunks), whole)


mcd_circuits = st.one_of(
    st.builds(lambda s, i, r, seed: build_rat(RatConfig(s, i, 2, r, 2, 5, rng_seed=seed)),
              st.integers(1, 3), st.integers(1, 3), st.integers(1, 2), st.integers(0, 1000)),
    st.integers(0, 2**32 - 1).map(lambda s: random_dag_circuit(np.random.default_rng(s))),
    st.integers(0, 2**32 - 1).map(
        lambda s: random_tree_circuit(np.random.default_rng(s), num_classes=2)),
)


@settings(max_examples=25, deadline=None)
@given(mcd_circuits, st.integers(0, 2**32 - 1), st.sampled_from([0.1, 0.3, 0.5]),
       st.integers(1, 30))
def test_results_do_not_depend_on_the_chunk_budget(circuit, seed, p, L):
    """Chunks of a few passes (here 8, so L is mostly not a multiple of the
    chunk) give bit-identical raw samples and moments, and the first L' raw
    samples of an L-pass run are an L'-pass run."""
    x = random_evidence(np.random.default_rng(seed), circuit, 0.2)

    def run(passes):
        """The run's result, or None when every pass degenerates."""
        try:
            return mcd_infer(circuit, x, McdConfig(p, passes, seed % 1000, keep_samples=True))
        except DegenerateSampleError:
            return None

    whole = run(L)
    budget = mcd._CHUNK_BYTES
    mcd._CHUNK_BYTES = 1  # the smallest chunk: 8 passes
    try:
        chunked = run(L)
    finally:
        mcd._CHUNK_BYTES = budget
    assert (chunked is None) == (whole is None)
    if whole is None:  # a tiny circuit that dropped every class in every pass
        return
    for field in ("raw_samples", "sample_mean", "sample_variance", "posterior_sample_mean",
                  "posterior_sample_variance"):
        np.testing.assert_array_equal(getattr(chunked, field), getattr(whole, field))
    np.testing.assert_array_equal(run(L + 11).raw_samples[:L], whole.raw_samples)


fusion_cases = st.one_of(
    mcd_circuits.map(lambda c: (c, None)),
    # RATs over 2^D variables, whose first product layer reads the leaves
    # and fuses into the first sum layer
    st.builds(lambda s, i, d, r, seed: (build_rat(RatConfig(s, i, d, r, 2, 2**d, rng_seed=seed)),
                                        None),
              st.integers(1, 3), st.integers(1, 3), st.integers(1, 2), st.integers(1, 2),
              st.integers(0, 1000)),
    st.just((build_manual(FLUSHED_FIRST_SUM), np.array([0.0]))),
)


@settings(max_examples=30, deadline=None)
@given(fusion_cases, st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.1, 0.3]))
def test_root_only_passes_equal_the_every_node_passes(case, seed, p):
    """Every pass runs each product layer that Layout.fused flags inside
    the sum layer that reads it.  A request for the roots alone makes its
    products in block-sized arrays, in the forward, the moment and the
    masked pass, and its rows equal the roots' rows of the every-node
    passes, which write the products into their slots, bit for bit, with
    marginalized evidence too.  So do the rows of a request that also names
    a product of a fused layer, which writes them too."""
    circuit, x = case
    rng = np.random.default_rng(seed)
    layout = circuit.layout()
    if x is None:
        X = np.array([random_evidence(rng, circuit, 0.3) for _ in range(4)]
                     + [np.full(circuit.num_variables, np.nan)])
    else:
        X = x[None]
    config = DropoutConfig.with_p(p)
    keep = rng.random((7, layout.num_sum_edges)) >= max(p, 0.2)
    forward, moments = forward_log_values(circuit, X), tdi_pass_batch(circuit, X, config)
    masked = forward_log_values(circuit, X[:1], keep)
    hidden = [int(i) for layer, fused in zip(layout.layers, layout.fused) if fused
              for i in layer.nodes.ravel()]
    requests = [circuit.roots]
    if hidden:
        requests.append(circuit.roots + [hidden[rng.integers(len(hidden))]])
    for nodes in requests:
        np.testing.assert_array_equal(bits(forward_log_values(circuit, X, nodes=nodes)),
                                      bits(forward[nodes]))
        for got, want in zip(tdi_pass_batch(circuit, X, config, nodes=nodes), moments):
            np.testing.assert_array_equal(bits(got), bits(want[nodes]))
        np.testing.assert_array_equal(bits(forward_log_values(circuit, X[:1], keep, nodes=nodes)),
                                      bits(masked[nodes]))


class TestStatistics:
    def test_two_leaf_sum_frozen_statistics(self, two_leaf_sum):
        """L = 200000 at q = 0.8: sample mean within 1% of 0.32, variance
        within 3% of 0.016 (tolerances from the binomial standard error)."""
        res = mcd_infer(two_leaf_sum, [0.0], McdConfig(0.2, 200_000, rng_seed=5))
        assert rel_err(res.sample_mean[0], 0.32) < 0.01
        assert rel_err(res.sample_variance[0], 0.016) < 0.03

    def test_variances_are_the_variances_of_the_samples(self):
        c = build_rat(RatConfig(3, 2, 2, 2, 3, 8, rng_seed=4))
        x = np.random.default_rng(4).normal(size=8)
        res = mcd_infer(c, x, McdConfig(0.2, 300, rng_seed=3, keep_samples=True))
        lin = res.raw_samples
        joint = lin * np.exp(c.log_class_priors)
        post = joint / joint.sum(axis=1, keepdims=True)
        assert res.sample_variance.min() > 0.0 and res.posterior_sample_variance.min() > 0.0
        np.testing.assert_allclose(res.sample_variance, lin.var(axis=0), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(res.posterior_sample_variance, post.var(axis=0),
                                   rtol=1e-12, atol=0.0)

    def test_convergence_to_closed_form_on_trees(self):
        rng = np.random.default_rng(77)
        for _ in range(6):
            c = random_tree_circuit(rng, max_sum_edges=8)
            ev = random_evidence(rng, c)
            frame = tdi_pass(c, ev, DropoutConfig.with_p(0.1))
            r = c.roots[0]
            e = math.exp(frame.log_expectation[r])
            res = mcd_infer(c, ev, McdConfig(0.1, 100_000, rng_seed=11))
            assert rel_err(res.sample_mean[0], e) < 0.02

    def test_mask_independence_chi_square(self, two_leaf_sum):
        """Mask bits across passes and edges behave like independent draws."""
        cfg = McdConfig(0.3, 20_000, rng_seed=9)
        keep = stream_mask(two_leaf_sum, cfg.p, cfg.rng_seed, cfg.num_passes)
        # 2x2 contingency table between the two edges
        table = np.zeros((2, 2))
        for i in (0, 1):
            for j in (0, 1):
                table[i, j] = np.sum((keep[0] == i) & (keep[1] == j))
        chi2, p_value = stats.chi2_contingency(table)[:2]
        assert p_value > 0.01
        # lag-1 independence across passes on edge 0
        table = np.zeros((2, 2))
        a, b = keep[0, :-1], keep[0, 1:]
        for i in (0, 1):
            for j in (0, 1):
                table[i, j] = np.sum((a == i) & (b == j))
        chi2, p_value = stats.chi2_contingency(table)[:2]
        assert p_value > 0.01
        # marginal keep rate close to q
        assert abs(keep.mean() - 0.7) < 0.01


class TestComparisonReport:
    def test_report_shape_and_timing(self, two_leaf_sum, tmp_path):
        X = np.zeros((3, 1))
        table = mcd_vs_tdi_report(two_leaf_sum_2class(), X, p=0.1, num_passes=100, rng_seed=0)
        assert table.tdi_passes == 1
        assert table.mcd_passes == 100
        assert len(table.rows) == 3 * 2
        out = tmp_path / "cmp.csv"
        table.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "sample_id,class,tdi_mean,tdi_var,mcd_mean,mcd_var"
        assert lines[-1].startswith("# timing,")

    def test_p_zero_gaps_are_zero(self):
        c = two_leaf_sum_2class()
        X = np.zeros((2, 1))
        table = mcd_vs_tdi_report(c, X, p=0.0, num_passes=10, rng_seed=0)
        for row in table.rows:
            assert row.tdi_mean == pytest.approx(row.mcd_mean, abs=1e-12)
            assert row.tdi_var == row.mcd_var == 0.0

    def test_posterior_gap_small_at_large_L(self):
        c = two_leaf_sum_2class()
        X = np.zeros((2, 1))
        table = mcd_vs_tdi_report(c, X, p=0.1, num_passes=100_000, rng_seed=4)
        assert np.mean([abs(r.tdi_mean - r.mcd_mean) for r in table.rows]) < 0.01


def two_leaf_sum_2class():
    return build_manual(
        """
        a1 categorical 0 0.5 0.5
        b1 categorical 0 0.25 0.75
        s1 sum 0.6 a1 0.4 b1
        a2 categorical 0 0.7 0.3
        b2 categorical 0 0.4 0.6
        s2 sum 0.5 a2 0.5 b2
        root s1 s2
        """
    )
