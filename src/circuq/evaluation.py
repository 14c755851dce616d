"""Scenario runners: entropy-threshold OOD sweeps and rotation and
corruption curves.

Every runner reduces to one primitive: per-sample posterior means under one
of three methods (plain Bayes posterior, closed-form dropout moments, or
Monte Carlo dropout sample means), turned into predictive entropies.  A
sample counts as an outlier at threshold t when its entropy is >= t.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .circuit import Circuit, as_batch, log_likelihood_batch
from .datasets import Dataset, corrupt, rotate
from .errors import ShapeError
from .mcd import McdConfig, mcd_infer
from .moments import (
    DropoutConfig,
    _root_shift,
    posterior_summary_batch,
    predictive_entropy_batch,
)

METHODS = ("plain", "tdi", "mcd")
_NUM_THRESHOLDS = 256  # entropy thresholds per OOD sweep


@dataclass(frozen=True)
class EvalConfig:
    method: str = "plain"
    p: float = 0.1
    mcd_passes: int = 100
    rng_seed: int = 0
    normalized_entropy: bool = False

    def tag(self) -> str:
        return {"plain": "PC", "tdi": "PC+TDI", "mcd": "PC+MCD"}[self.method]


def posterior_means(circuit: Circuit, X: np.ndarray, config: EvalConfig):
    """Per-sample posterior means and stds, shape (rows, classes) each."""
    if config.method not in METHODS:
        raise ValueError(f"unknown method {config.method!r}; known: {METHODS}")
    X = np.asarray(X, dtype=np.float64)
    rows = X.shape[0]
    C = circuit.num_classes
    means = np.empty((rows, C))
    stds = np.zeros((rows, C))
    if config.method == "plain":
        ll = log_likelihood_batch(circuit, X)
        log_c = circuit.log_class_priors
        post = np.exp(ll + log_c - _root_shift(ll.T, log_c[:, None])[:, None])
        means[:] = post / post.sum(axis=1, keepdims=True)
    elif config.method == "tdi":
        pm = posterior_summary_batch(circuit, X, DropoutConfig.with_p(config.p))
        means[:] = pm.mean
        stds[:] = pm.std
    else:
        res = mcd_infer(circuit, as_batch(X, circuit.num_variables),
                        McdConfig(config.p, config.mcd_passes, config.rng_seed))
        means[:] = res.posterior_sample_mean
        stds[:] = np.sqrt(res.posterior_sample_variance)
    return means, stds


def entropies(circuit: Circuit, X: np.ndarray, config: EvalConfig) -> np.ndarray:
    means, _ = posterior_means(circuit, X, config)
    return _entropy_of(means, config)


def _entropy_of(means: np.ndarray, config: EvalConfig) -> np.ndarray:
    """Predictive entropy per row of posterior means, over ln C when
    normalized."""
    h = predictive_entropy_batch(means)
    if config.normalized_entropy:
        h = h / math.log(means.shape[1])
    return h


def accuracy_of_means(means: np.ndarray, labels: np.ndarray) -> float:
    pred = np.argmax(means, axis=1)  # ties break toward the lowest class index
    return float(np.mean(pred == np.asarray(labels)))


# ---------------------------------------------------------------------------
# Threshold sweeps


@dataclass
class SweepResult:
    thresholds: np.ndarray
    id_outlier_rate: np.ndarray
    ood_outlier_rate: np.ndarray
    auc: float
    metadata: dict = field(default_factory=dict)
    # the ID set's per-sample entropies, from which its rates were counted
    id_entropy: np.ndarray | None = field(default=None, repr=False)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("threshold,id_outlier_rate,ood_outlier_rate\n")
            for t, i, o in zip(self.thresholds, self.id_outlier_rate, self.ood_outlier_rate):
                fh.write(f"{t:.17g},{i:.17g},{o:.17g}\n")
            fh.write(f"# auc={self.auc:.17g}\n")

    def to_json(self) -> dict:
        return {
            "thresholds": self.thresholds.tolist(),
            "id_outlier_rate": self.id_outlier_rate.tolist(),
            "ood_outlier_rate": self.ood_outlier_rate.tolist(),
            "auc": self.auc,
            "metadata": self.metadata,
        }


def outlier_rates(entropy: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Fraction of samples with entropy >= t, for each threshold t."""
    e = np.sort(np.asarray(entropy))
    n = e.shape[0]
    counts = n - np.searchsorted(e, thresholds, side="left")
    return counts / n


def ood_sweep(
    circuit: Circuit,
    id_data: Dataset,
    ood_data: Dataset,
    config: EvalConfig,
) -> SweepResult:
    """Entropy-threshold sweep: rejection rates on ID and OOD data plus AUC.

    AUC is the trapezoidal mean of the OOD outlier rate over an even grid of
    thresholds spanning [0, H_max]; with normalized entropy H_max is 1,
    otherwise ln C.
    """
    if id_data.num_rows == 0 or ood_data.num_rows == 0:
        raise ShapeError("ID and OOD sets must be nonempty")
    h_id = entropies(circuit, id_data.features, config)
    h_ood = entropies(circuit, ood_data.features, config)
    h_max = 1.0 if config.normalized_entropy else math.log(circuit.num_classes)
    thresholds = np.linspace(0.0, h_max, _NUM_THRESHOLDS)
    id_rate = outlier_rates(h_id, thresholds)
    ood_rate = outlier_rates(h_ood, thresholds)
    auc = float(np.trapezoid(ood_rate, thresholds) / (thresholds[-1] - thresholds[0]))
    return SweepResult(
        thresholds=thresholds,
        id_outlier_rate=id_rate,
        ood_outlier_rate=ood_rate,
        auc=auc,
        metadata={
            "method": config.tag(),
            "p": config.p,
            "normalized_entropy": config.normalized_entropy,
            "id_name": id_data.name,
            "ood_name": ood_data.name,
        },
        id_entropy=h_id,
    )


# ---------------------------------------------------------------------------
# Perturbation and corruption curves


@dataclass
class CurvePoint:
    key: object  # angle in degrees, or (kind, severity)
    mean_entropy: float
    accuracy: float
    mean_std: float


def perturb_sweep(
    circuit: Circuit,
    test_data: Dataset,
    angles: list[float],
    config: EvalConfig,
    width: int,
    height: int,
) -> list[CurvePoint]:
    """Accuracy, mean entropy, and mean predicted-class std per rotation angle."""
    if list(angles) != sorted(angles):
        raise ValueError("angles must be ascending")
    return [_curve_point(circuit, float(angle), rotate(test_data, angle, width, height), config)
            for angle in angles]


def corrupt_sweep(
    circuit: Circuit,
    test_data: Dataset,
    kinds: list[str],
    severities: list[int],
    config: EvalConfig,
    seed: int = 0,
) -> list[CurvePoint]:
    """Mean entropy and accuracy per (kind, severity); severity 0 is the
    uncorrupted baseline."""
    return [_curve_point(circuit, (kind, int(severity)),
                         test_data if severity == 0 else corrupt(test_data, kind, severity, seed),
                         config)
            for kind in kinds for severity in severities]


def _curve_point(circuit: Circuit, key, data: Dataset, config: EvalConfig) -> CurvePoint:
    """Mean entropy, accuracy and mean predicted-class std over one dataset."""
    means, stds = posterior_means(circuit, data.features, config)
    h = _entropy_of(means, config)
    acc = accuracy_of_means(means, data.labels) if data.labels is not None else math.nan
    pred = np.argmax(means, axis=1)
    mean_std = float(stds[np.arange(len(pred)), pred].mean())
    return CurvePoint(key, float(h.mean()), acc, mean_std)


def write_curve_csv(points: list[CurvePoint], path, key_header: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"{key_header},mean_entropy,accuracy,mean_std\n")
        for pt in points:
            key = pt.key if not isinstance(pt.key, tuple) else ",".join(str(k) for k in pt.key)
            fh.write(f"{key},{pt.mean_entropy:.17g},{pt.accuracy:.17g},{pt.mean_std:.17g}\n")


def results_to_json(obj, path) -> None:
    """Write a dict of plain values, or a list of :class:`CurvePoint`, as JSON."""
    with open(path, "w") as fh:
        json.dump(obj, fh, default=asdict, indent=2)
