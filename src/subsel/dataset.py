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
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from fractions import Fraction
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
_INT64_MAX = int(np.iinfo(np.int64).max)


def round_half_up(x: float | Fraction) -> int:
    """Round to the nearest integer, halves up; exact on a Fraction."""
    return int(math.floor(x + Fraction(1, 2)))


def largest_remainder_quota(counts: np.ndarray, total: int) -> np.ndarray:
    """Apportion total, in [0, sum(counts)], across groups proportionally
    to counts.

    Shares and remainders are exact integers. Every quota is within one of
    its exact proportional share, quotas never exceed their group size, and
    remainder ties break toward the lower group index.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if not 0 <= total <= counts.sum():
        raise ValidationError(f"cannot apportion {total} among {counts.sum()} elements")
    quota, rem = np.divmod(counts * total, counts.sum())
    quota[np.lexsort((np.arange(counts.size), -rem))[:total - quota.sum()]] += 1
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
        if self.n_classes > self.n:
            raise ValidationError(f"labels run to {self.n_classes - 1}, more classes than "
                                  f"the {self.n} instances of a full dataset")
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
    untouched, so readers never see a half-written file. An OSError is
    raised again as one that names path, not the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):
            tmp.unlink()
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


# ---------------------------------------------------------------------------
# feature file I/O
# ---------------------------------------------------------------------------

def save_features(m: FeatureMatrix, path) -> None:
    """Write a feature matrix; binary by default, CSV when path ends .csv."""
    path = Path(path)
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


def _read_text(path: Path, error: type) -> str:
    """path's text, decoded whole as UTF-8; a bad byte raises error at its offset."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
                    f"at offset {exc.start}") from None


def _load_features_csv(path: Path) -> FeatureMatrix:
    rows = []
    d = None
    text = _read_text(path, FeatureFormatError)
    for lineno, line in enumerate(text.split("\n"), start=1):
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
        if not line.isascii() or "_" in line:  # float() takes both
            raise FeatureFormatError(f"{path}: line {lineno}: not a row of ASCII reals")
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
    """Read one non-negative int64 label per line, in ASCII digits."""
    path = Path(path)
    text = _read_text(path, ValidationError)
    labels = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        if not (line.isascii() and line.isdigit()):
            raise LabelParseError(path, lineno, line)
        digits = line.lstrip("0") or "0"
        # the length first: int() refuses strings of more than 4,300 digits
        if len(digits) > 19 or int(digits) > _INT64_MAX:
            raise ValidationError(f"{path}: line {lineno}: label {line} exceeds the "
                                  "int64 range")
        labels.append(int(digits))
    if not labels:
        raise ValidationError(f"{path}: empty label file")
    return LabelVector(np.array(labels, dtype=np.int64))


def save_labels(v: LabelVector, path) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{x}\n" for x in v.labels.tolist()))


def load_dataset(features_path, labels_path) -> LabeledDataset:
    """Load features plus labels and validate them as a full dataset."""
    ds = LabeledDataset(load_features(features_path), load_labels(labels_path))
    return ds.require_all_classes()


# ---------------------------------------------------------------------------
# splitting and synthesis
# ---------------------------------------------------------------------------

def split_indices(labels: LabelVector, spec: SplitSpec):
    """Return (train_idx, holdout_idx): disjoint, exhaustive, seeded.

    The holdout always has m = round_half_up(n * fraction) elements, the
    product taken exactly on the fraction's decimal digits (25 rows at 0.58
    hold out 15); the stratified variant apportions m across classes, each
    class within one instance of its proportional share, count * m / n.
    """
    n = len(labels)
    m = round_half_up(Fraction(str(spec.holdout_fraction)) * n)
    if m == 0 or m == n:
        raise ValidationError(
            f"holdout_fraction {spec.holdout_fraction} leaves an empty side for n={n}"
        )
    # unstratified is one class: the same RNG calls as rng.permutation(n)[:m]
    classes = labels.labels if spec.stratified else np.zeros(n, dtype=np.int64)
    quota = largest_remainder_quota(np.bincount(classes), m)
    holdout, train = stratified_draw(classes, quota, np.random.default_rng(spec.seed))
    return train, holdout


def stratified_draw(labels: np.ndarray, quota, rng: np.random.Generator):
    """Return (drawn, rest), both sorted: quota[c] seeded draws from each
    class c, in class order, and every other index."""
    parts = [rng.permutation(np.flatnonzero(labels == c))[:q]
             for c, q in enumerate(quota)]
    drawn = np.sort(np.concatenate(parts))
    mask = np.zeros(labels.shape[0], dtype=bool)
    mask[drawn] = True
    return drawn, np.flatnonzero(~mask)


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
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((n_classes, d)) * sep
    labels = np.arange(n, dtype=np.int64) % n_classes
    values = means[labels] + rng.standard_normal((n, d))
    ds = LabeledDataset(FeatureMatrix(values), LabelVector(labels))
    return ds.require_all_classes()
