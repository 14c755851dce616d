"""Training: gradients against finite differences, the fit loop, optimizers."""

import dataclasses
import math

import numpy as np
import pytest

from circuq import (
    CovarianceStrategy,
    DropoutConfig,
    ParameterSpace,
    RatConfig,
    TrainConfig,
    build_manual,
    build_rat,
    deserialize,
    fit,
    loss_and_grad,
    posterior_moments,
    serialize,
    synth_blobs,
    validate,
)
import circuq.train as train_module
from circuq.errors import ShapeError
from circuq.circuit import forward_log_values
from circuq.structures import random_dag_circuit, random_evidence, random_tree_circuit
from circuq.train import _blocks, _leaf_gradients, _loss_seed, _sum_reverse

from conftest import shifted_exp


def finite_difference_gradient(space, theta, X, y, objective="head", h=1e-5):
    grad = np.empty_like(theta)
    for k in range(theta.size):
        tp = theta.copy()
        tp[k] += h
        tm = theta.copy()
        tm[k] -= h
        lp, _ = loss_and_grad(space.apply(tp), X, y, objective)
        lm, _ = loss_and_grad(space.apply(tm), X, y, objective)
        grad[k] = (lp - lm) / (2 * h)
    return grad


def grad_close(analytic, numeric, rel=1e-4, floor=1e-8):
    return np.all(np.abs(analytic - numeric) <= rel * np.maximum(
        np.maximum(np.abs(analytic), np.abs(numeric)), floor))


def log_space_loss_and_grad(circuit, X, labels, objective="head"):
    """loss_and_grad as it ran before fused sums were trained from their
    factors: the every-node forward, which writes each fused product's log
    value into its slot, and a reverse pass over every layer, product layers
    included, whose sums shift and exponentiate their children's log values
    (conftest.shifted_exp) and add the products' adjoints into their slots,
    from which each product layer sends them on to its factors."""
    plan = circuit.plan()
    layout = plan.layout
    logv = forward_log_values(circuit, X)[layout.order]
    loss, seed = _loss_seed(circuit, logv[layout.roots], labels, objective)
    adjoint = np.zeros_like(logv)
    np.add.at(adjoint, layout.roots, seed)
    grad = np.zeros(ParameterSpace.of(circuit).size)
    logits_grad, mean_grad, log_std_grad = _blocks(grad, layout)
    for k in reversed(range(len(layout.layers))):
        layer = layout.layers[k]
        for b in layer.blocks(len(X)):
            adj = layer.output(adjoint, b)
            if layer.kind == "product":
                for read, part in zip(layer.reads, layer.factor_sums(adj)):
                    read.add(adjoint, b, part, layer.distinct)
                continue
            children = layer.reads[0]
            x = children.read(logv, b)
            _, shift, lin = shifted_exp(x)
            logits_grad[k][b], part = _sum_reverse(
                plan.weights[k][b], plan.log_weights[k][b], shift, lin,
                lambda g, c: x[g, :, c], layer.output(logv, b), adj)
            children.add(adjoint, b, part, layer.distinct)
    _leaf_gradients(plan, X, adjoint[layout.leaf_slots("gaussian")], mean_grad, log_std_grad)
    return loss, grad


def rat_with_hard_rows(rng):
    """A random RAT with several repetitions, and rows for it: a
    marginalized row, a far-out row and a row that flushes the head.

    Leaves are moved through the plan, which takes any finite parameter.
    One leaf's mean goes to 1e200: on the far-out row, whose value of that
    leaf's variable is 1e200, every other leaf over that variable, and every
    factor over them, is -inf, while the paths through the moved leaf stay
    finite.  The leaves of one input distribution get a std of e^-700: on
    the flushing row, which holds their variables at their means, the
    distribution's log value is about 700 per leaf, and the head gives zero
    weight to every product through it.  The head's weighted products then
    sit more than 745 below a product of zero weight, while every value that
    the gradient flows through stays moderate.  The other rows leave those
    variables marginalized.  The leaf moved far is the first one that leaves
    both rows a finite product of nonzero weight."""
    config = RatConfig(int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(1, 3)),
                       int(rng.integers(2, 4)), 3, 8, rng_seed=int(rng.integers(1000)))
    c = build_rat(config)
    plan = c.plan()
    layout = plan.layout
    variables = layout.leaves["gaussian"][1]
    inputs = layout.layers[0]  # the input distributions: products of leaves
    d = rng.integers(len(inputs.nodes))
    narrow = layout.slot[[f[d, 0] for f in inputs.factors]]  # the leaves of distribution d
    far = rng.choice(np.setdiff1d(np.arange(c.num_variables), variables[narrow]))
    X = np.array([random_evidence(rng, c, 0.2) for _ in range(7)])
    X[0] = np.nan
    X[:, variables[narrow]] = np.nan
    X[1, far] = 1e200
    X[2, far] = 0.0
    X[2, variables[narrow]] = plan.mean[narrow]
    head = layout.layers[-1]
    for moved in np.flatnonzero(variables == far):
        mean, log_std = plan.mean.copy(), plan.log_std.copy()
        mean[moved] = 1e200
        log_std[narrow] = -700.0
        values = forward_log_values(c.with_plan(dataclasses.replace(
            plan, mean=mean, log_std=log_std)), X[1:3])[head.children[0]]
        near = values[:, 1] > values[:, 1].max() - 700.0
        if np.isfinite(values[~near]).any(axis=0).all():
            assert np.all(values[~near, 1] < values[:, 1].max() - 800.0)
            theta = ParameterSpace.of(c).initial_vector()
            _blocks(theta, layout)[0][-1][0][:, near] = -np.inf
            weighted = ParameterSpace.of(c).apply(theta).plan()
            return c.with_plan(dataclasses.replace(weighted, mean=mean, log_std=log_std)), X
    raise AssertionError("every leaf over the far-out variable shares the flushed products")


class TestLossAndGrad:
    @pytest.mark.parametrize("seed", range(4))
    def test_factored_reverse_matches_the_log_space_reverse(self, monkeypatch, seed):
        """Random RATs whose heads read several product groups, with a
        marginalized row, a far-out row whose factors are -inf and a row
        that flushes the head, whose repair must run: the loss keeps its
        bits, and the gradient lies within 1e-13 max|grad| of the log-space
        reverse's."""
        rng = np.random.default_rng(seed)
        repaired = []

        def spy(w, lw, shift, a, children, v, adj):
            return _sum_reverse(w, lw, shift, a,
                                lambda g, c: repaired.append(len(g)) or children(g, c), v, adj)

        monkeypatch.setattr(train_module, "_sum_reverse", spy)
        for _ in range(2):
            c, X = rat_with_hard_rows(rng)
            layout = c.layout()
            assert layout.fused[-2] and layout.layers[-1].children.shape[1] > \
                layout.layers[-2].nodes.shape[1]
            assert np.isneginf(forward_log_values(c, X[1:2])).any()  # the far-out row's factors
            y = rng.integers(c.num_classes, size=len(X))
            for objective in ("head", "cross_entropy"):
                repaired.clear()
                loss, grad = loss_and_grad(c, X, y, objective)
                assert repaired
                want_loss, want = log_space_loss_and_grad(c, X, y, objective)
                assert loss == want_loss and np.isfinite(loss)
                assert np.abs(grad - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("kind", ["tree", "dag"])
    def test_unfused_circuits_match_the_log_space_reverse_to_the_bit(self, kind):
        """Trees and DAGs without fused layers run the same arithmetic as
        before, under both objectives where they have several classes."""
        rng = np.random.default_rng(23)
        bits = lambda a: np.asarray(a).view(np.int64)  # noqa: E731
        tested = 0
        while tested < 6:
            c = (random_tree_circuit(rng, num_classes=2) if kind == "tree"
                 else random_dag_circuit(rng))
            if any(c.layout().fused):
                continue
            X = np.array([random_evidence(rng, c, 0.3) for _ in range(6)])
            X[0] = np.nan
            y = rng.integers(c.num_classes, size=len(X))
            for objective in ("head", "cross_entropy")[: c.num_classes]:
                loss, grad = loss_and_grad(c, X, y, objective)
                want_loss, want = log_space_loss_and_grad(c, X, y, objective)
                assert bits(loss) == bits(want_loss)
                np.testing.assert_array_equal(bits(grad), bits(want))
            tested += 1

    def test_gaussian_leaf_at_its_mean_has_zero_mean_gradient(self):
        c = build_manual("g gaussian 0 0.4 1.0\nroot g")
        X = np.array([[0.4]])
        loss, grad = loss_and_grad(c, X, np.array([0]))
        assert loss == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-12)
        assert grad[0] == pytest.approx(0.0, abs=1e-12)  # d/d mean: stationary at the mode
        # -log N(mu; mu, sigma) = log_std + const, so d(loss)/d(log_std) = 1
        assert grad[1] == pytest.approx(1.0, abs=1e-12)

    def test_uniform_weights_over_identical_children_zero_gradient(self):
        spec = """
        a gaussian 0 0.3 1.0
        b gaussian 0 0.3 1.0
        s sum 0.5 a 0.5 b
        root s
        """
        c = build_manual(spec)
        _, grad = loss_and_grad(c, np.array([[0.1]]), np.array([0]))
        # θ starts with the sum's two logits
        np.testing.assert_allclose(grad[:2], 0.0, atol=1e-12)

    def test_matches_finite_differences_random_circuits(self):
        rng = np.random.default_rng(99)
        for _ in range(6):
            c = random_tree_circuit(rng, max_sum_edges=8, num_classes=2)
            X = np.stack([random_evidence(rng, c, 0.1) for _ in range(4)])
            y = rng.integers(2, size=4)
            space = ParameterSpace.of(c)
            _, grad = loss_and_grad(c, X, y)
            fd = finite_difference_gradient(space, space.initial_vector(), X, y)
            assert grad_close(grad, fd)

    @pytest.mark.parametrize("objective", ["head", "cross_entropy"])
    def test_matches_finite_differences_with_shared_children(self, objective):
        # Three heads share every region, so in each layer a child has several
        # parents: the reverse pass must sum all of their contributions.
        c = build_rat(RatConfig(2, 2, 2, 2, 3, 4, rng_seed=1))
        assert not c.is_tree()
        rng = np.random.default_rng(17)
        X = rng.normal(size=(5, 4))
        y = rng.integers(3, size=5)
        space = ParameterSpace.of(c)
        _, grad = loss_and_grad(c, X, y, objective)
        fd = finite_difference_gradient(space, space.initial_vector(), X, y, objective)
        assert grad_close(grad, fd)

    def test_matches_finite_differences_on_dags_with_missing_values(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            c = random_dag_circuit(rng, max_sum_edges=12)
            X = np.stack([random_evidence(rng, c, 0.3) for _ in range(5)])
            assert np.isnan(X).any()
            y = np.zeros(5, dtype=np.int64)
            space = ParameterSpace.of(c)
            _, grad = loss_and_grad(c, X, y)
            fd = finite_difference_gradient(space, space.initial_vector(), X, y)
            assert grad_close(grad, fd)

    def test_zero_valued_inner_sum_has_finite_gradients(self):
        # State 2 of variable 0 has probability 0 under both children of s, so
        # s is 0 on rows that observe it; the root mixes in a nonzero branch.
        spec = """
        a categorical 0 0.5 0.5 0.0
        b categorical 0 0.3 0.7 0.0
        c categorical 0 0.2 0.3 0.5
        g gaussian 1 0.1 0.8
        h gaussian 1 -0.3 1.2
        s sum 0.4 a 0.6 b
        p product s g
        q product c h
        r sum 0.3 p 0.7 q
        root r
        """
        with np.errstate(divide="ignore"):
            c = build_manual(spec)
        X = np.array([[2.0, 0.3], [1.0, -0.4], [2.0, np.nan], [0.0, 1.1]])
        y = np.zeros(4, dtype=np.int64)
        s = next(i for i, node in enumerate(c.nodes)
                 if node.kind == "sum" and c.nodes[node.children[0]].kind == "categorical")
        assert np.isneginf(forward_log_values(c, X)[s]).tolist() == [True, False, True, False]
        space = ParameterSpace.of(c)
        _, grad = loss_and_grad(c, X, y)
        assert np.all(np.isfinite(grad))
        fd = finite_difference_gradient(space, space.initial_vector(), X, y)
        assert grad_close(grad, fd)

    def test_cross_entropy_objective_gradients(self):
        rng = np.random.default_rng(123)
        c = random_tree_circuit(rng, max_sum_edges=6, num_classes=3)
        X = np.stack([random_evidence(rng, c, 0.0) for _ in range(3)])
        y = rng.integers(3, size=3)
        space = ParameterSpace.of(c)
        _, grad = loss_and_grad(c, X, y, "cross_entropy")
        fd = finite_difference_gradient(space, space.initial_vector(), X, y, "cross_entropy")
        assert grad_close(grad, fd)

    # random_dag_circuit has one class, under which cross-entropy is constant;
    # the RAT, whose heads share every region, is the multi-class DAG.
    @pytest.mark.parametrize("kind, objective", [
        ("rat", "head"), ("rat", "cross_entropy"), ("tree", "head"),
        ("tree", "cross_entropy"), ("dag", "head"),
    ])
    def test_row_chunked_products_equal_one_product(self, monkeypatch, kind, objective):
        # A budget of a few hundred multiply-adds splits the sum blocks' rows
        # into several chunks; the gradient must not depend on the split.
        rng = np.random.default_rng(41)
        c = {"rat": lambda: build_rat(RatConfig(3, 3, 2, 2, 3, 6, rng_seed=2)),
             "tree": lambda: random_tree_circuit(rng, max_sum_edges=12, num_classes=3),
             "dag": lambda: random_dag_circuit(rng, max_sum_edges=16)}[kind]()
        X = np.stack([random_evidence(rng, c, 0.1) for _ in range(300)])
        y = rng.integers(c.num_classes, size=300)
        assert any(math.prod(layer.shape) * len(X) > 300
                   for layer in c.layout().layers if layer.kind == "sum")
        monkeypatch.setattr(train_module, "_PRODUCT_MACS", 1 << 40)
        loss, whole = loss_and_grad(c, X, y, objective)
        monkeypatch.setattr(train_module, "_PRODUCT_MACS", 300)
        split_loss, split = loss_and_grad(c, X, y, objective)
        assert split_loss == loss and np.abs(whole).max() > 0
        assert np.abs(split - whole).max() <= 1e-13 * np.abs(whole).max()

    def test_matches_finite_differences_when_the_head_product_is_split(self):
        c = build_rat(RatConfig(6, 3, 2, 3, 10, 4, rng_seed=3))
        rng = np.random.default_rng(43)
        X = rng.normal(size=(256, 4)) * 1.5
        y = rng.integers(10, size=256)
        head = [layer for layer in c.layout().layers if layer.kind == "sum"][-1]
        groups, sums, children = head.shape
        assert groups == 1 and sums * children * len(X) > train_module._PRODUCT_MACS
        space = ParameterSpace.of(c)
        theta = space.initial_vector()
        _, grad = loss_and_grad(c, X, y)
        # θ positions of the head's logits and of the Gaussian means and log stds
        logits, mean, log_std = train_module._blocks(np.arange(space.size), c.layout())
        picked = np.concatenate([rng.choice(logits[-1].ravel(), 12, replace=False),
                                 rng.choice(mean, 6, replace=False),
                                 rng.choice(log_std, 6, replace=False)])
        h = 1e-5
        for k in picked:
            tp, tm = theta.copy(), theta.copy()
            tp[k] += h
            tm[k] -= h
            fd = (loss_and_grad(space.apply(tp), X, y)[0]
                  - loss_and_grad(space.apply(tm), X, y)[0]) / (2 * h)
            assert grad_close(grad[k], fd), k
        # and along one random direction through every parameter at once
        d = rng.normal(size=space.size)
        fd = (loss_and_grad(space.apply(theta + h * d), X, y)[0]
              - loss_and_grad(space.apply(theta - h * d), X, y)[0]) / (2 * h)
        assert grad_close(grad @ d, fd)

    def test_label_validation(self, two_leaf_sum):
        with pytest.raises(ShapeError):
            loss_and_grad(two_leaf_sum, np.zeros((2, 1)), np.array([0, 5]))
        with pytest.raises(ShapeError):
            loss_and_grad(two_leaf_sum, np.zeros((2, 1)), np.array([0]))

    @pytest.mark.parametrize("labels, row", [([0.0, 1.5, 2.0], 1), ([0.5, 1.2, 2.9], 0),
                                             ([0, 1, np.nan], 2), ([0, -1, 1], 1)])
    def test_a_label_that_is_no_class_index_is_rejected(self, labels, row):
        """A fractional label is not truncated: loss_and_grad and fit reject
        it, naming the first offending row."""
        c = build_rat(RatConfig(2, 2, 1, 1, 3, 2, rng_seed=0))
        X = np.zeros((3, 2))
        with pytest.raises(ShapeError, match=f"of row {row} "):
            loss_and_grad(c, X, labels)
        with pytest.raises(ShapeError, match=f"of row {row} "):
            fit(c, X, labels, TrainConfig(epochs=1))
        whole = loss_and_grad(c, X, np.array([0.0, 1.0, 2.0]))[0]
        assert whole == loss_and_grad(c, X, [0, 1, 2])[0]


class TestFit:
    def test_blob_task_reaches_accuracy(self):
        data = synth_blobs(2, 4, 80, separation=8.0, seed=0)
        c = build_rat(RatConfig(2, 2, 1, 1, 2, 4, rng_seed=0))
        trained, history = fit(
            c, data.features, data.labels,
            TrainConfig(epochs=30, batch_size=40, learning_rate=2e-2, rng_seed=0),
        )
        assert history.epochs[-1][2] >= 0.95
        assert validate(trained).ok

    def test_rat_exact_reads_the_trained_nodes_as_the_saved_file_does(self):
        # RAT_EXACT walks single nodes, which a fitted circuit builds from its
        # plan on first read
        data = synth_blobs(2, 4, 20, separation=5.0, seed=3)
        c = build_rat(RatConfig(2, 1, 2, 1, 2, 4, rng_seed=3))
        trained, _ = fit(c, data.features, data.labels,
                         TrainConfig(epochs=2, batch_size=10, learning_rate=2e-2, rng_seed=0))
        config = DropoutConfig.with_p(0.2, CovarianceStrategy.RAT_EXACT)
        got = posterior_moments(trained, data.features[0], config)
        want = posterior_moments(deserialize(serialize(trained)), data.features[0], config)
        np.testing.assert_array_equal(got.mean, want.mean)
        np.testing.assert_array_equal(got.variance, want.variance)
        assert got.variance.max() > 0.0

    def test_zero_learning_rate_is_identity(self):
        data = synth_blobs(2, 4, 20, separation=5.0, seed=1)
        c = build_rat(RatConfig(2, 2, 1, 1, 2, 4, rng_seed=1))
        trained, history = fit(
            c, data.features, data.labels,
            TrainConfig(epochs=3, batch_size=20, learning_rate=0.0, rng_seed=0),
        )
        losses = [e[1] for e in history.epochs]
        assert losses[0] == pytest.approx(losses[-1], abs=1e-12)
        for n0, n1 in zip(c.nodes, trained.nodes):
            if n0.kind == "gaussian":
                assert n0.mean == n1.mean and n0.log_std == n1.log_std
            elif n0.kind == "sum":
                np.testing.assert_allclose(n0.log_weights, n1.log_weights, atol=1e-12)

    def test_seed_determinism(self):
        data = synth_blobs(2, 4, 30, separation=4.0, seed=2)
        c = build_rat(RatConfig(2, 2, 1, 1, 2, 4, rng_seed=2))
        cfg = TrainConfig(epochs=5, batch_size=16, learning_rate=1e-2, rng_seed=9)
        _, h1 = fit(c, data.features, data.labels, cfg)
        _, h2 = fit(c, data.features, data.labels, cfg)
        assert h1.epochs == h2.epochs

    def test_weights_stay_on_simplex(self):
        data = synth_blobs(2, 4, 30, separation=4.0, seed=3)
        c = build_rat(RatConfig(2, 2, 1, 1, 2, 4, rng_seed=3))
        trained, _ = fit(
            c, data.features, data.labels,
            TrainConfig(epochs=4, batch_size=20, learning_rate=5e-2, rng_seed=0),
        )
        for node in trained.nodes:
            if node.kind == "sum":
                assert abs(np.exp(node.log_weights).sum() - 1.0) < 1e-9

    def test_loss_trend_on_blobs(self):
        data = synth_blobs(2, 4, 100, separation=8.0, seed=4)
        c = build_rat(RatConfig(2, 2, 1, 1, 2, 4, rng_seed=4))
        _, history = fit(
            c, data.features, data.labels,
            TrainConfig(epochs=50, batch_size=50, learning_rate=1e-2, rng_seed=0),
        )
        assert history.epochs[49][1] < history.epochs[0][1]

    def test_divergence_aborts_with_last_finite_state(self):
        data = synth_blobs(2, 2, 20, separation=3.0, seed=5)
        c = build_rat(RatConfig(2, 2, 1, 1, 2, 2, rng_seed=5))
        trained, history = fit(
            c, data.features, data.labels,
            TrainConfig(epochs=6, batch_size=10, learning_rate=1e150,
                        optimizer="sgd", rng_seed=0),
        )
        assert history.aborted
        for node in trained.nodes:
            if node.kind == "gaussian":
                assert math.isfinite(node.mean) and math.isfinite(node.log_std)

    def test_structure_never_mutates(self):
        data = synth_blobs(2, 4, 20, separation=4.0, seed=6)
        c = build_rat(RatConfig(2, 2, 1, 1, 2, 4, rng_seed=6))
        children_before = [list(getattr(n, "children", [])) for n in c.nodes]
        trained, _ = fit(
            c, data.features, data.labels,
            TrainConfig(epochs=2, batch_size=10, learning_rate=1e-2, rng_seed=0),
        )
        assert [list(getattr(n, "children", [])) for n in trained.nodes] == children_before

    def test_fit_compiles_the_layout_once(self, monkeypatch):
        import circuq.circuit as circuit_module

        compiled = {"layout": [], "plan": []}
        for name, key in [("_compile_layout", "layout"), ("_compile_plan", "plan")]:
            original = getattr(circuit_module, name)
            monkeypatch.setattr(circuit_module, name, lambda *args, original=original, key=key:
                                compiled[key].append(args[0]) or original(*args))
        data = synth_blobs(2, 4, 20, separation=4.0, seed=6)
        c = build_rat(RatConfig(2, 2, 1, 1, 2, 4, rng_seed=6))
        config = TrainConfig(epochs=2, batch_size=10, learning_rate=1e-2, rng_seed=0)
        # 25 rows at batch 10: the last minibatch of each epoch is shorter
        X, y = data.features[:25], data.labels[:25]
        trained, history = fit(c, X, y, config)
        again, _ = fit(c, X, y, config)
        assert len(history.epochs) == 2
        assert compiled["layout"] == [c]
        assert compiled["plan"] == [c]  # each step's circuit carries the plan apply built
        assert trained.layout() is c.layout() and again.layout() is c.layout()

    def test_parameter_layout_is_the_plan_order(self):
        # Sum logits layer by layer in the plan's (G, S, K) order, which is
        # Layout.sum_edge_order; then the Gaussian means; then their log stds.
        c = build_rat(RatConfig(2, 2, 2, 2, 3, 4, rng_seed=1))
        layout = c.layout()
        theta = [w for layer in layout.layers if layer.kind == "sum"
                 for i in layer.nodes.ravel() for w in c.nodes[i].log_weights]
        gaussians = [c.nodes[i] for i in layout.leaves["gaussian"][0]]
        theta += [g.mean for g in gaussians] + [g.log_std for g in gaussians]
        space = ParameterSpace.of(c)
        assert space.size == len(theta)
        initial = space.initial_vector()
        np.testing.assert_array_equal(initial, theta)
        node_order = np.concatenate([n.log_weights for n in c.nodes if n.kind == "sum"])
        np.testing.assert_array_equal(initial[: layout.num_sum_edges],
                                      node_order[layout.sum_edge_order])
        applied = space.apply(initial)
        initial[:] = 0.0  # apply's plan holds no view of the vector
        for node, new in zip(c.nodes, applied.nodes):
            if node.kind == "sum":
                np.testing.assert_allclose(new.log_weights, node.log_weights, atol=1e-15)
            elif node.kind == "gaussian":
                assert (new.mean, new.log_std) == (node.mean, node.log_std)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("epochs", -1), ("batch_size", 0), ("batch_size", -2),
        ("learning_rate", -1e-3), ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("optimizer", "rmsprop"), ("objective", "hinge"),
    ])
    def test_invalid_config_is_rejected_before_any_pass(self, monkeypatch, two_leaf_sum,
                                                        field, value):
        def no_pass(*args):
            raise AssertionError("a pass ran")

        monkeypatch.setattr(train_module, "loss_and_grad", no_pass)
        monkeypatch.setattr(train_module, "accuracy", no_pass)
        config = TrainConfig(**{"epochs": 1, "batch_size": 4, field: value})
        with pytest.raises(ValueError, match=field):
            fit(two_leaf_sum, np.zeros((10, 1)), np.zeros(10, dtype=int), config)

    def test_empty_dataset_rejected(self, two_leaf_sum):
        with pytest.raises(ShapeError):
            fit(two_leaf_sum, np.zeros((0, 1)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("count", [5, 12])
    def test_label_count_must_match_rows(self, two_leaf_sum, count):
        with pytest.raises(ShapeError, match="for 10 rows"):
            fit(two_leaf_sum, np.zeros((10, 1)), np.zeros(count, dtype=int), TrainConfig(epochs=1))

