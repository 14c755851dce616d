"""Shared fixtures: small hand-built circuits and the trained desk-scale models.

The desk-scale models are session-scoped because training them takes tens of
seconds; every acceptance criterion that needs a trained model shares them.
All randomness is seeded, so fixture contents are identical across runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from circuq import (
    Circuit,
    Dataset,
    RatConfig,
    SumNode,
    TrainConfig,
    build_manual,
    build_rat,
    fit,
    synth_blobs,
)
from circuq.circuit import SHIFT_FLOOR, _log_mixed, mix

TWO_LEAF_SUM = """
# a two-component mixture on one binary variable
a categorical 0 0.5 0.5
b categorical 0 0.25 0.75
s sum 0.6 a 0.4 b
root s
"""

# Three variables, alternating sums and products over Gaussian leaves; the
# canonical hand-written fixture shape used across the moment tests.
THREE_VAR_TREE = """
g1 gaussian 0 0.0 1.0
g2 gaussian 1 0.5 1.0
g3 gaussian 0 -0.5 0.8
g4 gaussian 1 0.2 1.2
g5 gaussian 1 -0.3 1.0
g6 gaussian 2 0.0 0.9
g7 gaussian 1 0.4 1.1
g8 gaussian 2 -0.2 1.0
g9 gaussian 0 0.3 1.0
g10 gaussian 2 0.1 1.0
p3 product g1 g2
p4 product g3 g4
s2 sum 0.7 p3 0.3 p4
p1 product s2 g6
p5 product g5 g8
p6 product g7 g10
s3 sum 0.45 p5 0.55 p6
p2 product g9 s3
s1 sum 0.35 p1 0.65 p2
root s1
"""


def v1_doc(circuit: Circuit) -> dict:
    """The circuit as a JSON object of circuit format version 1, as its
    writer wrote it, for tests that edit a file's fields and load the edited
    file through the version-1 reader: ``deserialize(json.dumps(doc).encode())``."""
    def record(node):
        if node.kind in ("sum", "product"):
            out = {"kind": node.kind, "children": [int(c) for c in node.children]}
            if node.kind == "sum":
                out["log_weights"] = [float(w) for w in node.log_weights]
            return out
        if node.kind == "gaussian":
            return {"kind": "gaussian", "variable": int(node.variable), "mean": float(node.mean),
                    "log_std": float(node.log_std)}
        return {"kind": "categorical", "variable": int(node.variable),
                "log_probs": [float(p) for p in node.log_probs]}

    return {"version": 1, "num_variables": int(circuit.num_variables),
            "log_class_priors": [float(p) for p in circuit.log_class_priors],
            "roots": [int(r) for r in circuit.roots], "nodes": [record(n) for n in circuit.nodes]}


# ---------------------------------------------------------------------------
# The log-space sum kernels that the one factored kernel replaced: each sum
# group's children shifted by their largest log value, exponentiated and
# mixed, and the variance mixed as two (W o W) products.  The log-space
# reference passes of test_layout and test_train run on them, so that they
# do not share the kernel they check.


def log_space_mix(w: np.ndarray, log_w: np.ndarray, x: np.ndarray, kept=None) -> np.ndarray:
    """log sum_k w_k exp(x_k) for every sum of a block of groups, from the
    groups' (g, K, columns) child log values ``x``; a (columns, g, S, K)
    boolean ``kept`` drops each column's edges where it is False, and ``x``
    may then hold one column that every pass shares."""
    if kept is not None:
        x = np.broadcast_to(x, (*x.shape[:2], len(kept)))
    return _log_mixed(w, log_w, *shifted_exp(x), lambda g, c: x[g, :, c], kept)


def shifted_exp(x: np.ndarray):
    """(m, shift, lin) of (g, K, columns) child log values: each group's
    and column's largest value m, the shift max(m, SHIFT_FLOOR), and
    exp(x - shift), made in one new array."""
    m = x.max(axis=1, keepdims=True)
    shift = np.maximum(m, SHIFT_FLOOR)
    lin = np.subtract(x, shift)
    return m, shift, np.exp(lin, out=lin)


def child_terms(w2, ce, cv, p, constant: bool):
    """circuq.moments._sum_moments' terms of a block of sum groups from
    their children's (g, K, rows) moments.  The mean's terms are
    :func:`shifted_exp`'s.  Var / q = (W o W) (Var_k + p E_k^2) is mixed in
    linear space under the largest Var_k or E_k^2 of each group and row.
    ``constant`` children have no variance, so their Var_k term is left
    out."""
    me, se, a = shifted_exp(ce)
    mv = -np.inf if constant else cv.max(axis=1, keepdims=True)
    sv = np.maximum(np.maximum(mv, 2.0 * me), SHIFT_FLOOR)
    var = p * mix(w2, a * a) * np.exp(2.0 * se - sv)
    if not constant:
        var += mix(w2, np.exp(cv - sv))
    return me, se, a, var, sv, lambda: mv > -np.inf, lambda g, c: (ce[g, :, c], cv[g, :, c])


def rel_err(a: float, b: float, floor: float = 1e-30) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def below(circuit, nodes) -> set:
    """``nodes`` and all their descendants."""
    seen, stack = set(), list(nodes)
    while stack:
        i = stack.pop()
        if i not in seen:
            seen.add(i)
            stack.extend(circuit.nodes[i].children)
    return seen


def repetitions(circuit, num_repetitions: int) -> dict:
    """Each node below the class heads of a ``build_rat`` circuit, mapped to
    its repetition: the heads mix the root-partition products of each
    repetition in turn, in runs of one length."""
    head = circuit.nodes[circuit.roots[0]].children
    run = len(head) // num_repetitions
    rep = {}
    for r in range(num_repetitions):
        for i in below(circuit, head[r * run : (r + 1) * run]):
            assert rep.setdefault(i, r) == r
    return rep


def partition_products(circuit) -> list:
    """The products of a RAT's partitions, the ones a sum reads; a product
    over a leaf region's leaves is read by a product."""
    nodes = circuit.nodes
    return sorted({k for node in nodes if node.kind == "sum" for k in node.children
                   if nodes[k].kind == "product"})


@pytest.fixture(scope="session")
def two_leaf_sum():
    return build_manual(TWO_LEAF_SUM)


@pytest.fixture(scope="session")
def three_var_tree():
    return build_manual(THREE_VAR_TREE)


# ---------------------------------------------------------------------------
# Desk-scale synthetic data


def band_code_images(
    num_classes: int = 5,
    side: int = 8,
    rows_per_class: int = 240,
    amp: float = 0.6,
    noise: float = 0.15,
    seed: int = 7,
) -> Dataset:
    """Images whose classes are vertical brightness-band codes.

    Band codes are balanced (same number of bright bands per class), so a
    rotation-scrambled image stays ambiguous between classes instead of
    collapsing onto whichever class matches its mean gray level.  Band
    structure is one-dimensional, so rotation damage grows with the angle
    without lattice re-alignments.
    """
    rng = np.random.default_rng(seed)
    col_band = np.arange(side) // 2
    codes = [np.array(c) for c in ((1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
                                   (0, 1, 1, 0), (0, 0, 1, 1))][:num_classes]
    base = 0.5 - amp / 2
    protos = [np.tile(base + amp * c[col_band], (side, 1)) for c in codes]
    feats, labels = [], []
    for c, proto in enumerate(protos):
        imgs = proto[None] + rng.normal(0, noise, size=(rows_per_class, side, side))
        feats.append(np.clip(imgs, 0, 1).reshape(rows_per_class, -1))
        labels.append(np.full(rows_per_class, c))
    return Dataset(np.concatenate(feats), np.concatenate(labels), "band_code_images")


@pytest.fixture(scope="session")
def blob_model():
    """RAT circuit trained on a 5-class blob split, with held-out-class OOD data."""
    data = synth_blobs(num_classes=10, num_vars=16, rows_per_class=300, separation=6.0, seed=42)
    id_mask = data.labels < 5
    X_id, y_id = data.features[id_mask], data.labels[id_mask]
    X_ood = data.features[~id_mask]
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(y_id))
    X_tr, y_tr = X_id[perm[:1000]], y_id[perm[:1000]]
    X_te, y_te = X_id[perm[1000:]], y_id[perm[1000:]]
    circuit = build_rat(
        RatConfig(num_sums=5, num_input_dists=5, depth=3, num_repetitions=2,
                  num_classes=5, num_variables=16, rng_seed=1)
    )
    trained, history = fit(
        circuit, X_tr, y_tr,
        TrainConfig(epochs=60, batch_size=100, learning_rate=2e-2, rng_seed=0),
    )
    return {
        "circuit": trained,
        "history": history,
        "train": Dataset(X_tr, y_tr, "blobs-train"),
        "id_test": Dataset(X_te, y_te, "blobs-id"),
        "ood": Dataset(X_ood[:1000], None, "blobs-ood"),
    }


@pytest.fixture(scope="session")
def image_model():
    """RAT circuit trained on the band-code images, for rotation/corruption runs."""
    ds = band_code_images()
    rng = np.random.default_rng(3)
    perm = rng.permutation(ds.num_rows)
    train = Dataset(ds.features[perm[:900]], ds.labels[perm[:900]], "images-train")
    test = Dataset(ds.features[perm[900:]], ds.labels[perm[900:]], "images-test")
    circuit = build_rat(
        RatConfig(num_sums=5, num_input_dists=5, depth=3, num_repetitions=2,
                  num_classes=5, num_variables=64, rng_seed=11)
    )
    trained, history = fit(
        circuit, train.features, train.labels,
        TrainConfig(epochs=100, batch_size=100, learning_rate=2e-2, rng_seed=0),
    )
    return {"circuit": trained, "history": history, "train": train, "test": test,
            "side": 8}


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
                   circuit.log_class_priors), perms
