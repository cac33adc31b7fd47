"""Synthetic two-domain data with controllable mean/covariance shift, plus
CSV ingestion so the harness can run on externally extracted features.

The target domain is the source distribution pushed through an affine map
x -> diag(scale) @ rotation @ x + translation, so first-order (translation)
and second-order (rotation/scale) shift can be dialed independently.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import InvalidInput, ParseError
from .stats import FeatureBatch


@dataclass(frozen=True)
class ShiftSpec:
    """Class-conditional Gaussian source plus an affine target transform."""

    num_classes: int
    dim: int
    class_means: np.ndarray       # k x d
    class_cov: np.ndarray         # shared d x d covariance
    rotation: np.ndarray          # d x d orthogonal
    scale: np.ndarray             # length-d positive
    translation: np.ndarray       # length-d
    samples_per_class: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2 or self.dim < 2:
            raise InvalidInput("need num_classes >= 2 and dim >= 2")
        means = np.asarray(self.class_means, dtype=float)
        cov = np.asarray(self.class_cov, dtype=float)
        rot = np.asarray(self.rotation, dtype=float)
        scale = np.asarray(self.scale, dtype=float)
        trans = np.asarray(self.translation, dtype=float)
        if means.shape != (self.num_classes, self.dim):
            raise InvalidInput(f"class_means must be {self.num_classes} x {self.dim}")
        if cov.shape != (self.dim, self.dim):
            raise InvalidInput("class_cov shape mismatch")
        if rot.shape != (self.dim, self.dim) or np.linalg.norm(rot.T @ rot - np.eye(self.dim)) > 1e-8:
            raise InvalidInput("rotation must be orthogonal within 1e-8")
        if scale.shape != (self.dim,) or np.any(scale <= 0):
            raise InvalidInput("scale must be a positive length-d vector")
        if trans.shape != (self.dim,):
            raise InvalidInput("translation must be a length-d vector")
        if self.samples_per_class < 1:
            raise InvalidInput("samples_per_class must be >= 1")
        for name, val in (("class_means", means), ("class_cov", cov), ("rotation", rot),
                          ("scale", scale), ("translation", trans)):
            object.__setattr__(self, name, val)


@dataclass(frozen=True)
class DatasetPair:
    """Labeled source batch plus a target batch whose labels exist only for
    evaluation, never for training."""

    source: FeatureBatch
    target: FeatureBatch

    def __post_init__(self):
        if self.source.d != self.target.d:
            raise InvalidInput("source and target feature dims differ")
        if self.source.labels is None or self.target.labels is None:
            raise InvalidInput("both batches must carry labels (target labels are held out)")


def random_rotation(dim: int, rng: np.random.Generator, strength: float = 1.0) -> np.ndarray:
    """Orthogonal matrix interpolating between identity (strength 0) and a
    fully random rotation (strength 1), via the matrix exponential of a
    scaled random antisymmetric generator."""
    a = rng.standard_normal((dim, dim))
    skew = 0.5 * (a - a.T) * strength / np.sqrt(dim)
    # expm of a skew-symmetric matrix via its imaginary spectrum
    w, v = np.linalg.eig(skew)
    rot = (v * np.exp(w)) @ np.linalg.inv(v)
    rot = np.real(rot)
    # clean up residual non-orthogonality from the complex round-trip
    q, r = np.linalg.qr(rot)
    return q * np.sign(np.diag(r))


def make_benchmark_spec(num_classes: int = 5, dim: int = 16, samples_per_class: int = 200,
                        seed: int = 0, rotation_strength: float = 0.3,
                        scale_spread: float = 1.8, translation_size: float = 1.5,
                        class_separation: float = 3.0) -> ShiftSpec:
    """Default synthetic benchmark: k Gaussian classes in d dimensions, with
    a rotation + anisotropic scaling + translation between domains."""
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((num_classes, dim))
    means *= class_separation / np.maximum(np.linalg.norm(means, axis=1, keepdims=True), 1e-12)
    cov = np.eye(dim)
    rotation = random_rotation(dim, rng, strength=rotation_strength)
    scale = np.exp(rng.uniform(-scale_spread, scale_spread, size=dim))
    translation = rng.standard_normal(dim)
    translation *= translation_size / max(np.linalg.norm(translation), 1e-12)
    return ShiftSpec(num_classes=num_classes, dim=dim, class_means=means, class_cov=cov,
                     rotation=rotation, scale=scale, translation=translation,
                     samples_per_class=samples_per_class, seed=seed)


def generate(spec: ShiftSpec) -> DatasetPair:
    """Sample both domains. Deterministic per spec.seed."""
    rng = np.random.default_rng(spec.seed)
    chol = np.linalg.cholesky(spec.class_cov + 1e-12 * np.eye(spec.dim))

    def sample_source(n_per_class):
        xs, ys = [], []
        for c in range(spec.num_classes):
            z = rng.standard_normal((n_per_class, spec.dim))
            xs.append(z @ chol.T + spec.class_means[c])
            ys.append(np.full(n_per_class, c))
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        order = rng.permutation(len(y))
        return x[order], y[order]

    x_s, y_s = sample_source(spec.samples_per_class)
    x_t, y_t = sample_source(spec.samples_per_class)
    x_t = (x_t @ spec.rotation.T) * spec.scale + spec.translation
    return DatasetPair(source=FeatureBatch(x_s, labels=y_s),
                       target=FeatureBatch(x_t, labels=y_t))


def save_csv(path, batch: FeatureBatch, header: Optional[str] = None):
    """Write a FeatureBatch as comma-separated floats, labels (if any) as a
    trailing integer column. repr() keeps the float round-trip exact."""
    with open(path, "w", encoding="utf-8") as f:
        if header:
            f.write(f"# {header}\n")
        for i in range(batch.n):
            cells = [repr(float(v)) for v in batch.data[i]]
            if batch.labels is not None:
                cells.append(str(int(batch.labels[i])))
            f.write(",".join(cells) + "\n")


def load_csv(path, has_labels: bool = False) -> FeatureBatch:
    """Parse a feature CSV. '#' lines are comments; when has_labels, the last
    column is the integer label. A UTF-8 byte-order mark is skipped.

    Cells are parsed with float() straight into one float64 buffer, which the
    returned batch's data is a view of, so ingest peaks at about 1.1x the
    array. Every error is a ParseError naming the file and, for a bad row,
    its line: a ragged row, a cell that does not parse, a non-finite value,
    a negative label, a label beyond int64, or a label with no feature
    column before it."""
    values = array("d")
    rows = array("q")  # the file line of each data row
    labels = array("q")
    width = None
    try:
        f = open(path, "r", encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot open: {exc.strerror or exc}", path=path)
    with f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
                if has_labels and width == 1:
                    raise ParseError("feature data must be non-empty: the label is the only column",
                                     line=lineno, path=path)
            elif len(cells) != width:
                raise ParseError(f"expected {width} columns, got {len(cells)}", line=lineno, path=path)
            try:
                if has_labels:
                    label = int(cells.pop())
                    if label < 0:
                        raise ParseError(f"labels must be nonnegative, got {label}", line=lineno, path=path)
                    labels.append(label)
                values.extend(map(float, cells))
            except (ValueError, OverflowError) as exc:  # OverflowError: a label beyond int64
                raise ParseError(str(exc), line=lineno, path=path)
            rows.append(lineno)
    if not rows:
        raise ParseError("no data rows", path=path)
    data = np.frombuffer(values).reshape(len(rows), width - has_labels)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        bad = int(finite.argmin())
        cell = data[bad][~np.isfinite(data[bad])][0]
        raise ParseError(f"feature values must be finite, got {cell}", line=rows[bad], path=path)
    return FeatureBatch(data, labels=np.frombuffer(labels, dtype=np.int64) if has_labels else None)
