"""Closed-form dropout moments: exactness, covariance strategies, posteriors."""

import math

import numpy as np
import pytest

from circuq import (
    CovarianceStrategy,
    DropoutConfig,
    MomentFrame,
    StructureError,
    TaylorMethod,
    UnderflowError,
    build_manual,
    build_rat,
    cauchy_bounds,
    posterior_moments,
    posterior_moments_batch,
    predictive_entropy,
    rat_product_covariance,
    sum_covariance,
    tdi_pass,
    tdi_pass_batch,
    RatConfig,
)
from circuq.enumeration import enumerate_dropout_moments
from circuq.structures import (
    copy_paste_expand,
    random_dag_circuit,
    random_evidence,
    random_tree_circuit,
)

from conftest import rel_err


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

    def test_leaf_variance_hook_propagates(self):
        # the prior-uncertainty hook: a leaf with nonzero variance feeds the
        # product rule Var = (V + E^2) E2^2 - E^2 E2^2 = V E2^2 and, at p = 0,
        # the sum rule Var = sum_k w_k^2 Var_k, so it must act at the leaves
        c = build_manual("""
        g1 gaussian 0 0.0 1.0
        g2 gaussian 1 0.0 1.0
        g3 gaussian 0 0.0 1.0
        g4 gaussian 1 0.0 1.0
        p1 product g1 g2
        p2 product g3 g4
        s sum 0.6 p1 0.4 p2
        root s
        """)
        frame = tdi_pass(c, [0.0, 0.0], DropoutConfig.with_p(0.0),
                         leaf_log_variance={0: math.log(0.25)})
        e2 = 1.0 / (2.0 * math.pi)  # squared standard normal density at 0
        assert math.exp(frame.log_variance[0]) == pytest.approx(0.25, rel=1e-12)
        assert math.exp(frame.log_variance[4]) == pytest.approx(0.25 * e2, rel=1e-12)
        assert frame.log_variance[5] == -math.inf
        assert math.exp(frame.log_variance[6]) == pytest.approx(0.36 * 0.25 * e2, rel=1e-12)

    def test_leaf_variance_keys_must_be_leaf_ids(self, two_leaf_sum):
        # -1 once indexed the last node of the circuit but a sentinel row of
        # the pass, and a sum's id was skipped without a word
        single = build_manual("g gaussian 0 0.0 1.0\nroot g")
        for circuit, key in ((single, -1), (single, 1), (two_leaf_sum, 2), (two_leaf_sum, -3)):
            with pytest.raises(StructureError, match="not a leaf id"):
                tdi_pass(circuit, [0.0], DropoutConfig.with_p(0.1),
                         leaf_log_variance={key: math.log(0.25)})
        frame = tdi_pass(single, [0.0], DropoutConfig.with_p(0.1),
                         leaf_log_variance={0: math.log(0.25)})
        assert frame.log_variance[0] == pytest.approx(math.log(0.25), rel=1e-15)

    def test_exclude_root_heads_flag(self, two_leaf_sum):
        frame = tdi_pass(two_leaf_sum, [0.0], DropoutConfig.with_p(0.2, exclude_root_heads=True))
        e, v = root_moments(frame, two_leaf_sum)
        # the only sum is the root: no dropout at all
        assert e == pytest.approx(0.4, rel=1e-12)
        assert v == 0.0


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
        # build a frame under TREE_ZERO; Cov[sa, sb] still sees the shared child
        frame = tdi_pass(c, [0.3], DropoutConfig.with_p(0.2))
        sa = [i for i, n in enumerate(c.nodes) if n.kind == "sum"]
        cov = sum_covariance(frame, sa[0], sa[1])
        var_child = math.exp(frame.log_variance[c.nodes[sa[0]].children[0]])
        # q^2 * 1 * 1 * Cov[N, N] with Var[N] = 0 for a leaf: here child is the leaf
        assert cov.to_float() == pytest.approx(0.64 * var_child, abs=1e-15)

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
        frame = tdi_pass(c, [0.0], DropoutConfig.with_p(0.2))
        sums = [i for i, n in enumerate(c.nodes) if n.kind == "sum"]
        s, pa, pb = sums
        cov = sum_covariance(frame, pa, pb)
        assert cov.to_float() == pytest.approx(0.64 * 0.016, rel=1e-12)

    def test_disjoint_subtrees_zero(self, three_var_tree):
        frame = tdi_pass(three_var_tree, [0.0, 0.0, 0.0], DropoutConfig.with_p(0.2))
        sums = [i for i, n in enumerate(three_var_tree.nodes) if n.kind == "sum"]
        cov = sum_covariance(frame, sums[0], sums[1])
        assert cov.is_zero

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
            frame = MomentFrame.from_linear(c, en.expectation, en.variance)
            # enumerated covariances satisfy the Cauchy-Schwarz interval
            for a in sums:
                for b in sums:
                    lo, hi = cauchy_bounds(frame, a, b)
                    assert lo.to_float() - 1e-12 <= en.cov(a, b) <= hi.to_float() + 1e-12
            found += 1
        assert found >= 10

    def test_cauchy_bounds_basics(self, two_leaf_sum):
        frame = tdi_pass(two_leaf_sum, [0.0], DropoutConfig.with_p(0.2))
        r = two_leaf_sum.roots[0]
        lo, hi = cauchy_bounds(frame, r, r)
        assert lo.to_float() == pytest.approx(-0.016, rel=1e-12)
        assert hi.to_float() == pytest.approx(+0.016, rel=1e-12)
        leaf = two_leaf_sum.nodes[r].children[0]
        lo0, hi0 = cauchy_bounds(frame, leaf, r)
        assert lo0.is_zero and hi0.is_zero

    def test_cauchy_strategy_attaches_bounds(self, two_leaf_sum):
        cfg = DropoutConfig.with_p(0.2, CovarianceStrategy.CAUCHY)
        frame = tdi_pass(two_leaf_sum, [0.0], cfg)
        bounds = frame.metadata["cauchy_var_bounds"]
        r = two_leaf_sum.roots[0]
        lo, hi = bounds[r]
        point = math.exp(frame.log_variance[r])
        assert lo <= point <= hi


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
        assert zero.metadata.get("treezero_on_dag") is True
        assert abs(exact.log_variance[r] - zero.log_variance[r]) > 1e-6

    def test_rat_exact_requires_tag(self, three_var_tree):
        with pytest.raises(StructureError):
            tdi_pass(three_var_tree, [0, 0, 0],
                     DropoutConfig.with_p(0.1, CovarianceStrategy.RAT_EXACT))

    def test_product_covariance_diagonal_consistency(self):
        c = build_rat(RatConfig(2, 1, 2, 1, 1, 4, rng_seed=3))
        ev = np.array([0.1, -0.2, 0.4, 0.0])
        frame = tdi_pass(c, ev, DropoutConfig.with_p(0.2, CovarianceStrategy.RAT_EXACT))
        prods = [i for i in c.rat.product_partition]
        p0 = prods[-1]
        diag = rat_product_covariance(frame, p0, p0).to_float()
        assert diag == pytest.approx(math.exp(frame.log_variance[p0]), rel=1e-10)

    def test_product_covariance_independent_partitions_zero(self):
        c = build_rat(RatConfig(2, 2, 1, 1, 1, 2, rng_seed=1))
        ev = np.array([0.2, -0.1])
        frame = tdi_pass(c, ev, DropoutConfig.with_p(0.2, CovarianceStrategy.RAT_EXACT))
        prods = sorted(c.rat.product_partition)
        # leaf-distribution children are dropout-free, so all terms vanish
        cov = rat_product_covariance(frame, prods[0], prods[1])
        assert cov.is_zero

    def test_negative_variance_guard(self):
        from circuq.moments import _nonnegative_log
        from circuq.signedlog import SignedLog

        scale = math.log(0.25)
        assert _nonnegative_log(SignedLog.from_float(0.5), scale, "v") == math.log(0.5)
        dust = SignedLog.from_float(-0.9e-12 * 0.25)
        assert _nonnegative_log(dust, scale, "v") == -math.inf
        with pytest.raises(StructureError, match="variance of sum node 7"):
            _nonnegative_log(SignedLog.from_float(-1.1e-12 * 0.25), scale,
                             "variance of sum node 7")

    def test_non_binary_product_rejected(self):
        spec = """
        a gaussian 0 0.0 1.0
        b gaussian 1 0.0 1.0
        c gaussian 2 0.0 1.0
        p product a b c
        root p
        """
        circ = build_manual(spec)
        frame = tdi_pass(circ, [0, 0, 0], DropoutConfig.with_p(0.1))
        with pytest.raises(StructureError):
            rat_product_covariance(frame, 3, 3)


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
        assert not sum_covariance(frame, rat.roots[0], rat.roots[1]).is_zero

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

    def test_needs_two_classes(self, two_leaf_sum):
        with pytest.raises(StructureError):
            posterior_moments(two_leaf_sum, [0.0], DropoutConfig.with_p(0.1))


def _wide_pair(rng):
    """A 10-component mixture against a fixed factorized alternative, with
    evidence near the class overlap (10 sum edges total)."""
    from circuq.circuit import Circuit, GaussianLeaf, ProductNode, SumNode

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
        assert predictive_entropy([1.0, 0.0, 0.0, 0.0]) < 1e-9

    def test_uniform_ten(self):
        assert predictive_entropy([0.1] * 10) == pytest.approx(math.log(10), abs=1e-12)

    def test_binary_uniform(self):
        assert predictive_entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_bounds_property(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            k = int(rng.integers(2, 12))
            m = rng.uniform(0, 1, size=k)
            if m.sum() == 0:
                continue
            h = predictive_entropy(m)
            assert -1e-12 <= h <= math.log(k) + 1e-12

    def test_errors(self):
        with pytest.raises(ValueError):
            predictive_entropy([0.0, 0.0])
        with pytest.raises(ValueError):
            predictive_entropy([-0.1, 1.1])


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
