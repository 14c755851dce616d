"""Dataset ingestion (IDX files, CSV), synthetic generators, and
perturbation/corruption transforms.

Features are real matrices with pixel data scaled to [0, 1].  All generators
and stochastic transforms take an explicit seed and are pure functions of
their inputs, so loaders and transforms are safe to use from multiple threads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ShapeError

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801

GAUSSIAN_NOISE_SIGMA = (0.04, 0.08, 0.12, 0.18, 0.26)
BRIGHTNESS_DELTA = (0.1, 0.2, 0.3, 0.4, 0.5)
CONTRAST_FACTOR = (0.75, 0.6, 0.45, 0.3, 0.2)


@dataclass
class Dataset:
    features: np.ndarray  # (rows, num_features)
    labels: Optional[np.ndarray] = None
    name: str = ""

    @property
    def num_rows(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def __post_init__(self) -> None:
        if self.labels is not None and len(self.labels) != self.num_rows:
            raise ShapeError(f"{len(self.labels)} labels for {self.num_rows} rows")


class IdxFormatError(ValueError):
    pass


def load_idx(images_path, labels_path=None, name: str = "") -> Dataset:
    """Parse big-endian IDX image (and optional label) files.

    Image files carry magic 0x00000803 and three dimensions; label files
    carry 0x00000801 and one.  Pixels are scaled by 1/255.
    """
    with open(images_path, "rb") as fh:
        data = fh.read()
    if len(data) < 16:
        raise IdxFormatError("image file truncated before header")
    magic, count, rows, cols = struct.unpack(">IIII", data[:16])
    if magic != IDX_MAGIC_IMAGES:
        raise IdxFormatError(f"bad image magic 0x{magic:08x}, expected 0x{IDX_MAGIC_IMAGES:08x}")
    expected = 16 + count * rows * cols
    if len(data) < expected:
        raise IdxFormatError(f"image file truncated: {len(data)} bytes, expected {expected}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=count * rows * cols, offset=16)
    features = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0

    labels = None
    if labels_path is not None:
        with open(labels_path, "rb") as fh:
            ldata = fh.read()
        if len(ldata) < 8:
            raise IdxFormatError("label file truncated before header")
        lmagic, lcount = struct.unpack(">II", ldata[:8])
        if lmagic != IDX_MAGIC_LABELS:
            raise IdxFormatError(
                f"bad label magic 0x{lmagic:08x}, expected 0x{IDX_MAGIC_LABELS:08x}"
            )
        if lcount != count:
            raise IdxFormatError(f"{lcount} labels for {count} images")
        if len(ldata) < 8 + lcount:
            raise IdxFormatError("label file truncated")
        labels = np.frombuffer(ldata, dtype=np.uint8, count=lcount, offset=8).astype(np.int64)
    return Dataset(features=features, labels=labels, name=name or str(images_path))


def write_idx(images_path, features: np.ndarray, width: int, height: int,
              labels_path=None, labels=None) -> None:
    """Inverse of :func:`load_idx`, mainly for building test fixtures."""
    rows = features.shape[0]
    pixels = np.clip(np.round(features * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_MAGIC_IMAGES, rows, height, width))
        fh.write(pixels.tobytes())
    if labels_path is not None:
        lab = np.asarray(labels, dtype=np.uint8)
        with open(labels_path, "wb") as fh:
            fh.write(struct.pack(">II", IDX_MAGIC_LABELS, rows))
            fh.write(lab.tobytes())


# ---------------------------------------------------------------------------
# CSV interchange


def save_csv(dataset: Dataset, path) -> None:
    n = dataset.num_features
    with open(path, "w") as fh:
        header = ",".join(f"x{j}" for j in range(n))
        if dataset.labels is not None:
            header += ",label"
        fh.write(header + "\n")
        for i in range(dataset.num_rows):
            row = ",".join(f"{v:.17g}" for v in dataset.features[i])
            if dataset.labels is not None:
                row += f",{int(dataset.labels[i])}"
            fh.write(row + "\n")


def load_csv(path, name: str = "") -> Dataset:
    """A dataset from a CSV file whose header names the columns, with the
    labels in a last column named ``label``.  Raises ShapeError, naming its
    line, for a label that is not a whole number."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        has_labels = header and header[-1] == "label"
        rows = []
        labels = []
        for number, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if has_labels:
                rows.append([float(v) for v in parts[:-1]])
                label = float(parts[-1])
                if not label.is_integer():
                    raise ShapeError(f"{path}, line {number}: label {parts[-1]!r} is not a "
                                     "whole number")
                labels.append(int(label))
            else:
                rows.append([float(v) for v in parts])
    # a header-only file has no rows to take the width from, but has its header
    width = len(rows[0]) if rows else len(header) - has_labels
    features = np.array(rows, dtype=np.float64).reshape(len(rows), width)
    return Dataset(
        features=features,
        labels=np.array(labels, dtype=np.int64) if has_labels else None,
        name=name or str(path),
    )


# ---------------------------------------------------------------------------
# Rotation


def rotate(dataset: Dataset, degrees: float, width: int, height: int) -> Dataset:
    """Rotate each image counter-clockwise about its center.

    Bilinear interpolation with zero padding outside the frame; a multiple of
    360 degrees is the identity map bit-exactly.
    """
    if width * height != dataset.num_features:
        raise ShapeError(
            f"{width}x{height} does not match {dataset.num_features} features"
        )
    if degrees % 360.0 == 0.0:
        return Dataset(dataset.features.copy(), dataset.labels, dataset.name)
    theta = np.deg2rad(degrees)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
    r_out, c_out = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    dy = r_out.ravel() - cy
    dx = c_out.ravel() - cx
    src_c = cx + cos_t * dx - sin_t * dy
    src_r = cy + sin_t * dx + cos_t * dy

    r0 = np.floor(src_r).astype(np.int64)
    c0 = np.floor(src_c).astype(np.int64)
    fr = src_r - r0
    fc = src_c - c0

    out = np.zeros_like(dataset.features)
    images = dataset.features.reshape(-1, height, width)
    for dr, dc, w in (
        (0, 0, (1 - fr) * (1 - fc)),
        (0, 1, (1 - fr) * fc),
        (1, 0, fr * (1 - fc)),
        (1, 1, fr * fc),
    ):
        rr = r0 + dr
        cc = c0 + dc
        inside = (rr >= 0) & (rr < height) & (cc >= 0) & (cc < width)
        if not np.any(inside):
            continue
        gathered = images[:, rr[inside], cc[inside]]
        out[:, inside] += w[inside][None, :] * gathered
    return Dataset(out, dataset.labels, dataset.name)


# ---------------------------------------------------------------------------
# Corruptions


CORRUPTION_KINDS = ("gaussian_noise", "brightness", "contrast")


def corrupt(dataset: Dataset, kind: str, severity: int, seed: int = 0) -> Dataset:
    """Apply a parametric corruption at severity 1..5, clamped to [0, 1]."""
    if kind not in CORRUPTION_KINDS:
        raise ValueError(f"unknown corruption kind {kind!r}; known: {CORRUPTION_KINDS}")
    if not (1 <= severity <= 5):
        raise ValueError(f"severity must be in 1..5, got {severity}")
    x = dataset.features
    if kind == "gaussian_noise":
        rng = np.random.default_rng(seed)
        x = x + rng.normal(0.0, GAUSSIAN_NOISE_SIGMA[severity - 1], size=x.shape)
    elif kind == "brightness":
        x = x + BRIGHTNESS_DELTA[severity - 1]
    else:
        x = (x - 0.5) * CONTRAST_FACTOR[severity - 1] + 0.5
    return Dataset(np.clip(x, 0.0, 1.0), dataset.labels, dataset.name)


# ---------------------------------------------------------------------------
# Synthetic data


def synth_blobs(
    num_classes: int,
    num_vars: int,
    rows_per_class: int,
    separation: float,
    seed: int = 0,
) -> Dataset:
    """Unit-variance Gaussian class clusters with pairwise-separated means.

    Directions are redrawn until every pair of class means is at least
    ``separation`` apart (always satisfiable since the means live on a sphere
    of radius ``separation``).
    """
    if separation < 0:
        raise ValueError("separation must be nonnegative")
    rng = np.random.default_rng(seed)
    if separation == 0.0:
        means = np.zeros((num_classes, num_vars))
    else:
        for _ in range(200):
            dirs = rng.normal(size=(num_classes, num_vars))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            means = separation * dirs
            dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
            np.fill_diagonal(dists, np.inf)
            if dists.min() >= separation:
                break
        else:
            raise ValueError("could not separate class means; lower num_classes")
    features = np.concatenate(
        [means[c] + rng.normal(size=(rows_per_class, num_vars)) for c in range(num_classes)]
    )
    labels = np.repeat(np.arange(num_classes), rows_per_class)
    return Dataset(features=features, labels=labels, name="synth_blobs")
