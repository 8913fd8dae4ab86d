"""Feature and label datasets: file formats, splitting, synthesis.

Binary feature files carry a 26-byte header (magic ``SUBSELF1``, u16 LE
version, u64 LE row count, u64 LE column count), a row-major float32 LE
payload, and a trailing CRC32 of the payload. A ``.csv`` path selects the
text fallback: comma-separated reals, one row per line, no header.
Label files are plain text, one non-negative integer per line. Every
writer goes through ``atomic_open``, so a failed write leaves the target
as it was.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    FeatureFormatError,
    LabelParseError,
    TruncationError,
    ValidationError,
)

MAGIC = b"SUBSELF1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sHQQ")  # magic, version, n, d


def round_half_up(x: float) -> int:
    """Round to the nearest integer, halves away from zero-ward (up)."""
    return int(math.floor(x + 0.5))


def largest_remainder_quota(counts: np.ndarray, total: int) -> np.ndarray:
    """Apportion total across groups proportionally to counts.

    Every quota is within one of its exact proportional share, quotas
    never exceed their group size, and ties break toward the lower group
    index, so the result is deterministic.
    """
    counts = np.asarray(counts, dtype=np.int64)
    labels = np.arange(counts.size)
    shares = counts * (total / counts.sum())
    quota = np.floor(shares).astype(np.int64)
    order = np.lexsort((labels, -(shares - quota)))
    for c in order[:total - quota.sum()]:
        quota[c] += 1
    quota = np.minimum(quota, counts)
    while quota.sum() < total:  # redistribute anything lost to the caps
        quota[np.lexsort((labels, -(counts - quota)))[0]] += 1
    return quota


@dataclass(frozen=True)
class FeatureMatrix:
    """An n x d matrix of finite float32 instance embeddings."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 2:
            raise ValidationError(f"feature matrix must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError(f"feature matrix must be at least 1x1, got {arr.shape}")
        arr = np.ascontiguousarray(arr, dtype=np.float32)
        if not np.isfinite(arr).all():
            raise ValidationError("feature matrix contains NaN or Inf entries")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LabelVector:
    """Integer class labels in [0, n_classes); n_classes = 1 + max(label)."""

    labels: np.ndarray
    n_classes: int = field(init=False)

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("label vector must be a non-empty 1-D sequence")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValidationError("labels must be integers")
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        if (arr < 0).any():
            raise ValidationError("labels must be non-negative")
        arr.flags.writeable = False
        object.__setattr__(self, "labels", arr)
        object.__setattr__(self, "n_classes", int(arr.max()) + 1)

    def __len__(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class LabeledDataset:
    """A feature matrix paired with a label vector of equal length."""

    features: FeatureMatrix
    labels: LabelVector

    def __post_init__(self):
        if self.features.n != len(self.labels):
            raise ValidationError(
                f"feature/label length mismatch: {self.features.n} vs {len(self.labels)}"
            )

    @property
    def n(self) -> int:
        return self.features.n

    @property
    def n_classes(self) -> int:
        return self.labels.n_classes

    def require_all_classes(self) -> "LabeledDataset":
        """Reject label vectors with unobserved classes (full datasets only)."""
        counts = np.bincount(self.labels.labels, minlength=self.n_classes)
        missing = np.flatnonzero(counts == 0)
        if missing.size:
            raise ValidationError(
                f"classes {missing.tolist()} have no instances in a full dataset"
            )
        return self

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(
            FeatureMatrix(self.features.values[idx]),
            LabelVector(self.labels.labels[idx]),
        )


@dataclass(frozen=True)
class SplitSpec:
    """Holdout split parameters: fraction in (0,1), seed, stratification."""

    holdout_fraction: float
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if not (0.0 < self.holdout_fraction < 1.0):
            raise ValidationError(
                f"holdout_fraction must be in (0,1), got {self.holdout_fraction}"
            )
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a sibling temporary file that replaces path when the block ends.

    If the block raises, the temporary file is removed and path is left
    untouched, so readers never see a half-written file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# feature file I/O
# ---------------------------------------------------------------------------

def save_features(m: FeatureMatrix, path) -> None:
    """Write a feature matrix; binary by default, CSV when path ends .csv."""
    path = Path(path)
    try:
        if path.suffix.lower() == ".csv":
            # shortest-repr float32 formatting parses back bit-exactly
            with atomic_open(path, "w", encoding="utf-8") as fh:
                for row in m.values:
                    fh.write(",".join(np.format_float_positional(v, trim="0")
                                      for v in row))
                    fh.write("\n")
        else:
            payload = m.values.astype("<f4", copy=False).tobytes()
            header = _HEADER.pack(MAGIC, FORMAT_VERSION, m.n, m.d)
            crc = struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
            with atomic_open(path, "wb") as fh:
                fh.write(header + payload + crc)
    except OSError as exc:
        raise OSError(f"cannot write feature file {path}: {exc}") from exc


def load_features(path) -> FeatureMatrix:
    """Read a feature file written by save_features (binary or CSV)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _load_features_csv(path)
    blob = path.read_bytes()
    if len(blob) < _HEADER.size:
        raise TruncationError(f"{path}: file shorter than the {_HEADER.size}-byte header")
    magic, version, n, d = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FeatureFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FeatureFormatError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + n * d * 4 + 4
    if len(blob) != expected:
        raise TruncationError(
            f"{path}: declared {n}x{d} needs {expected} bytes, file has {len(blob)}"
        )
    payload = blob[_HEADER.size:-4]
    (crc_stored,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) & 0xFFFFFFFF != crc_stored:
        raise FeatureFormatError(f"{path}: payload checksum mismatch")
    values = np.frombuffer(payload, dtype="<f4").reshape(n, d)
    return FeatureMatrix(values)


def _load_features_csv(path: Path) -> FeatureMatrix:
    rows = []
    d = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if d is None:
                d = len(parts)
            elif len(parts) != d:
                raise FeatureFormatError(
                    f"{path}: line {lineno} has {len(parts)} columns, expected {d}"
                )
            try:
                rows.append(np.array(parts, dtype=np.float32))
            except ValueError as exc:
                raise FeatureFormatError(f"{path}: line {lineno}: {exc}") from exc
    if not rows:
        raise ValidationError(f"{path}: empty feature file")
    return FeatureMatrix(np.vstack(rows))


# ---------------------------------------------------------------------------
# label file I/O
# ---------------------------------------------------------------------------

def load_labels(path) -> LabelVector:
    """Read one non-negative integer label per line."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    labels = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            value = int(line)
        except ValueError:
            raise LabelParseError(lineno, line) from None
        if value < 0:
            raise LabelParseError(lineno, line)
        labels.append(value)
    if not labels:
        raise ValidationError(f"{path}: empty label file")
    return LabelVector(np.array(labels, dtype=np.int64))


def save_labels(v: LabelVector, path) -> None:
    path = Path(path)
    try:
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{x}\n" for x in v.labels))
    except OSError as exc:
        raise OSError(f"cannot write label file {path}: {exc}") from exc


def load_dataset(features_path, labels_path) -> LabeledDataset:
    """Load features plus labels and validate them as a full dataset."""
    ds = LabeledDataset(load_features(features_path), load_labels(labels_path))
    return ds.require_all_classes()


# ---------------------------------------------------------------------------
# splitting and synthesis
# ---------------------------------------------------------------------------

def split_indices(labels: LabelVector, spec: SplitSpec):
    """Return (train_idx, holdout_idx): disjoint, exhaustive, seeded.

    The holdout always has round_half_up(n * fraction) elements; the
    stratified variant apportions that size across classes so every
    class's holdout share is within one instance of the fraction.
    """
    n = len(labels)
    m = round_half_up(n * spec.holdout_fraction)
    if m == 0 or m == n:
        raise ValidationError(
            f"holdout_fraction {spec.holdout_fraction} leaves an empty side for n={n}"
        )
    rng = np.random.default_rng(spec.seed)
    if spec.stratified:
        counts = np.bincount(labels.labels, minlength=labels.n_classes)
        quota = largest_remainder_quota(counts, m)
        holdout_parts = []
        for c in range(labels.n_classes):
            idx = np.flatnonzero(labels.labels == c)
            holdout_parts.append(rng.permutation(idx)[:quota[c]])
        holdout = np.sort(np.concatenate(holdout_parts))
    else:
        holdout = np.sort(rng.permutation(n)[:m])
    mask = np.zeros(n, dtype=bool)
    mask[holdout] = True
    return np.flatnonzero(~mask), holdout


def split(ds: LabeledDataset, spec: SplitSpec):
    """Partition a dataset into (train, holdout) per the spec."""
    train_idx, holdout_idx = split_indices(ds.labels, spec)
    return ds.subset(train_idx), ds.subset(holdout_idx)


def gen_synthetic(n: int, d: int, n_classes: int, sep: float, seed: int) -> LabeledDataset:
    """Balanced Gaussian mixture: seeded class means scaled by sep, unit noise.

    Labels are assigned round-robin, so class counts differ by at most one.
    """
    if n_classes < 1 or n < n_classes:
        raise ValidationError(f"need n >= n_classes >= 1, got n={n}, C={n_classes}")
    if d < 1:
        raise ValidationError(f"dimension must be >= 1, got {d}")
    if not sep > 0:
        raise ValidationError(f"class separation must be > 0, got {sep}")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((n_classes, d)) * sep
    labels = np.arange(n, dtype=np.int64) % n_classes
    values = means[labels] + rng.standard_normal((n, d))
    ds = LabeledDataset(FeatureMatrix(values), LabelVector(labels))
    return ds.require_all_classes()
