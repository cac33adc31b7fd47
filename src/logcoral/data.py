"""Synthetic two-domain data with controllable mean/covariance shift, plus
CSV ingestion so the harness can run on externally extracted features.

The target domain is the source distribution pushed through an affine map
x -> diag(scale) @ rotation @ x + translation, so first-order (translation)
and second-order (rotation/scale) shift can be dialed independently.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .exceptions import InvalidInput, ParseError
from .linalg import _real_array
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
        for name, ndim in (("class_means", 2), ("class_cov", 2), ("rotation", 2), ("scale", 1), ("translation", 1)):
            object.__setattr__(self, name, _real_array(getattr(self, name), name, ndim))
        if self.class_means.shape != (self.num_classes, self.dim):
            raise InvalidInput(f"class_means must be {self.num_classes} x {self.dim}")
        if self.class_cov.shape != (self.dim, self.dim):
            raise InvalidInput("class_cov shape mismatch")
        rot = self.rotation
        if rot.shape != (self.dim, self.dim) or np.linalg.norm(rot.T @ rot - np.eye(self.dim)) > 1e-8:
            raise InvalidInput("rotation must be orthogonal within 1e-8")
        if self.scale.shape != (self.dim,) or np.any(self.scale <= 0):
            raise InvalidInput("scale must be a positive length-d vector")
        if self.translation.shape != (self.dim,):
            raise InvalidInput("translation must be a length-d vector")
        if self.samples_per_class < 1:
            raise InvalidInput("samples_per_class must be >= 1")


@dataclass(frozen=True)
class DatasetPair:
    """Labeled source batch plus a target batch whose labels exist only for evaluation, never for training.
    InvalidInput if the feature dims differ, a batch is unlabeled, or the source labels give more classes than rows."""

    source: FeatureBatch
    target: FeatureBatch

    def __post_init__(self):
        if self.source.d != self.target.d:
            raise InvalidInput("source and target feature dims differ")
        if self.source.labels is None or self.target.labels is None:
            raise InvalidInput("both batches must carry labels (target labels are held out)")
        if (k := self.num_classes) > self.source.n:  # one stray label would size the output layer
            raise InvalidInput(f"source label {k - 1} gives {k} classes, "
                               f"more than the {self.source.n} source rows")

    @property
    def num_classes(self) -> int:
        """The class count of the source labels, the largest label + 1: the classifier's output width."""
        return int(self.source.labels.max()) + 1


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
    """Parse a feature CSV with numpy's C reader, `np.loadtxt`. '#' starts a
    comment anywhere on a line; a line empty before its '#' holds no row. When
    has_labels, the last column is the label, parsed as an exact int64. A UTF-8
    byte-order mark is skipped; underscores in numbers (1_0) are not accepted.
    The features are a view of the one parsed table: ingest peaks at about 1.2x
    the array. Every error is a ParseError naming the file and, for a bad row,
    its line: a ragged row, a cell that does not parse, a label that is not an
    int64 or is negative, a non-finite value, or a label with no feature column."""
    try:
        f = open(path, "r", encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot open: {exc.strerror or exc}", path=path)
    with f:
        lineno, first = _row(f, 0) or (None, None)
        if first is None:  # checked here: numpy warns on an input with no rows
            raise ParseError("no data rows", path=path)
        width = first.split("#", 1)[0].count(",") + 1
        if has_labels and width == 1:
            raise ParseError("feature data must be non-empty: the label is the only column", line=lineno, path=path)
        dtype = [("x", np.float64, (width - 1,)), ("y", np.int64)] if has_labels else np.float64
        f.seek(0)
        try:
            table = np.loadtxt(f, dtype=dtype, delimiter=",", comments="#", ndmin=1 if has_labels else 2)
        except ValueError as exc:
            text = str(exc).split("; use `usecols`")[0]  # numpy's advice, not ours
            found = re.search(r" at row (\d+)(, column \d+)?\.?$", text)
            if found is None:
                raise ParseError(text, path=path)
            # numpy counts rows from 0 in a cell's message and from 1 in a ragged row's
            row = int(found[1]) - (not text.startswith("could not convert"))
            raise ParseError(text[:found.start()] + (found[2] or ""), line=_row(f, row)[0], path=path)
        data, labels = (table["x"], table["y"]) if has_labels else (table, None)
        if has_labels and (labels < 0).any():
            bad = int(np.argmax(labels < 0))
            raise ParseError(f"labels must be nonnegative, got {labels[bad]}", line=_row(f, bad)[0], path=path)
        finite = np.isfinite(data).all(axis=1)
        if not finite.all():
            bad = int(finite.argmin())
            cell = data[bad][~np.isfinite(data[bad])][0]
            raise ParseError(f"feature values must be finite, got {cell}", line=_row(f, bad)[0], path=path)
    return FeatureBatch._trusted(data, labels)


def _row(f, row: int):
    """(file line, text) of data row `row`, counted from 0, of the open file f, or None
    past the last; by loadtxt's rule, a line empty before its first '#' holds no row."""
    f.seek(0)
    rows = ((n, line) for n, line in enumerate(f, start=1) if line.split("#", 1)[0] not in ("", "\n"))
    return next(islice(rows, row, None), None)
