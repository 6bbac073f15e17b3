"""Dataset loading, normalization, splitting, and the synthetic waveform task.

CSV format: UTF-8, one example per line, ``label,s0,s1,...,s(L-1)``, no
header, '.' decimal separator, LF line endings.  A leading UTF-8 byte-order
mark, as spreadsheets write, is skipped.  ``save_csv`` writes each sample as
``f"{v:.17g}"`` does (``-0``, ``0.10000000000000001``,
``1.7976931348623157e+308``), which reads back to the same bits.
``load_csv`` parses samples with ``float()`` and names the file, the row
(1-based, blank lines counted) and, for a sample, the column of the first bad
field; given ``num_classes`` it rejects a label outside
``0..num_classes-1`` the same way (``<path>: row 4 has label 7, expected
0..2``).  The command line runs as ``timecaps`` or, uninstalled, as
``PYTHONPATH=src python -m timecaps``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError


@dataclass(frozen=True)
class LabeledSignal:
    samples: np.ndarray  # (L,) float64
    label: int


@dataclass
class Dataset:
    signals: list[LabeledSignal]
    L: int
    num_classes: int

    def __post_init__(self):
        for i, sig in enumerate(self.signals):
            if sig.samples.shape != (self.L,):
                raise DataFormatError(f"signal {i} has length {sig.samples.shape}, expected ({self.L},)")
            if not 0 <= sig.label < self.num_classes:
                raise DataFormatError(f"signal {i} label {sig.label} out of range [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.signals)

    def class_counts(self) -> np.ndarray:
        counts = np.zeros(self.num_classes, dtype=int)
        for s in self.signals:
            counts[s.label] += 1
        return counts


def load_csv(path, num_classes: int | None = None) -> Dataset:
    """Parse a label-plus-samples CSV; the signal length comes from row 1.

    Non-numeric and non-finite (nan, inf) samples are rejected, naming the
    row and the 1-based column; with ``num_classes`` given, so is a label
    outside ``0..num_classes-1``.  A leading UTF-8 byte-order mark is skipped.
    """
    signals: list[LabeledSignal] = []
    length = None
    with open(path, "r", encoding="utf-8-sig") as fh:
        for row_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) < 2:
                raise DataFormatError(f"{path}: row {row_no} has no samples")
            try:
                label = int(fields[0])
            except ValueError:
                raise DataFormatError(f"{path}: row {row_no} has non-integer label {fields[0]!r}") from None
            if label < 0:
                raise DataFormatError(f"{path}: row {row_no} has negative label {label}")
            if num_classes is not None and label >= num_classes:
                raise DataFormatError(f"{path}: row {row_no} has label {label}, expected 0..{num_classes - 1}")
            try:
                samples = np.fromiter(map(float, fields[1:]), np.float64, len(fields) - 1)
            except ValueError:
                raise DataFormatError(f"{path}: row {row_no} has a non-numeric sample") from None
            finite = np.isfinite(samples)
            if not finite.all():
                col = int(np.argmin(finite)) + 2  # 1-based field number; the label is field 1
                raise DataFormatError(
                    f"{path}: row {row_no} column {col} has non-finite sample {fields[col - 1]!r}")
            if length is None:
                length = samples.size
            elif samples.size != length:
                raise DataFormatError(
                    f"{path}: row {row_no} has {samples.size} samples, expected {length}")
            signals.append(LabeledSignal(samples=samples, label=label))
    if not signals:
        raise DataFormatError(f"{path}: no data rows")
    classes = num_classes if num_classes is not None else max(s.label for s in signals) + 1
    return Dataset(signals=signals, L=int(length), num_classes=classes)


def save_csv(dataset: Dataset, path):
    """Inverse of load_csv; 17 significant digits keeps float64 round trips
    exact.  Each sample is written as ``f"{v:.17g}"`` would write it, one
    formatted line per row."""
    line = "%d" + ",%.17g" * dataset.L + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for sig in dataset.signals:
            fh.write(line % (sig.label, *sig.samples.tolist()))


def normalize(dataset: Dataset, mode: str = "zscore") -> tuple[Dataset, list[tuple[float, float]]]:
    """Per-signal normalization; returns the new dataset and per-signal stats.

    zscore stats are (mean, std); minmax stats are (min, max).  Degenerate
    signals (zero spread) are mapped to all zeros.  The signals are taken as
    the rows of one (N, L) array; numpy reduces each contiguous row as it
    would the signal alone.  Each row is first scaled by the power of two
    that brings its largest magnitude into [0.5, 1), so rows up to the
    float64 limit (±1.7e308) normalize without overflow; the scaling is
    exact, so every other value and stat equals the per-signal result.  A
    row is flat when its unscaled spread is below 1e-12.
    """
    if mode not in ("zscore", "minmax"):
        raise ValueError(f"mode must be 'zscore' or 'minmax', got {mode!r}")
    x = np.array([sig.samples for sig in dataset.signals], dtype=np.float64).reshape(len(dataset), dataset.L)
    exp = np.frexp(np.abs(x).max(axis=1))[1]
    x = np.ldexp(x, -exp[:, None])
    if mode == "zscore":
        first, second = x.mean(axis=1), x.std(axis=1)
        spread = second
    else:
        first, second = x.min(axis=1), x.max(axis=1)
        spread = second - first
    with np.errstate(over="ignore"):  # a spread past the float64 limit is inf: not flat
        flat = np.ldexp(spread, exp) < 1e-12
    y = (x - first[:, None]) / np.where(flat, 1.0, spread)[:, None]
    if mode == "minmax":
        y = 2.0 * y - 1.0
    y[flat] = 0.0
    first, second = np.ldexp(first, exp), np.ldexp(second, exp)
    out = [LabeledSignal(samples=row, label=sig.label) for row, sig in zip(y, dataset.signals)]
    stats = list(zip(first.tolist(), second.tolist()))
    return Dataset(out, dataset.L, dataset.num_classes), stats


def split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded stratified split; classes with fewer than 2 examples go to train."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    by_class: dict[int, list[int]] = {}
    for i, sig in enumerate(dataset.signals):
        by_class.setdefault(sig.label, []).append(i)
    test_idx: set[int] = set()
    for label in sorted(by_class):
        idx = by_class[label]
        if len(idx) < 2:
            warnings.warn(f"class {label} has {len(idx)} example(s); keeping all in train")
            continue
        perm = rng.permutation(len(idx))
        n_test = int(round(test_fraction * len(idx)))
        n_test = min(max(n_test, 1), len(idx) - 1)
        test_idx.update(idx[j] for j in perm[:n_test])
    train_sigs = [s for i, s in enumerate(dataset.signals) if i not in test_idx]
    test_sigs = [s for i, s in enumerate(dataset.signals) if i in test_idx]
    mk = lambda sigs: Dataset(sigs, dataset.L, dataset.num_classes)
    return mk(train_sigs), mk(test_sigs)


def filter_min_class_count(dataset: Dataset, min_count: int) -> Dataset:
    """Drop classes with fewer than ``min_count`` examples and relabel densely."""
    if min_count <= 1:
        return dataset
    counts = dataset.class_counts()
    kept = [c for c in range(dataset.num_classes) if counts[c] >= min_count]
    if not kept:
        raise DataFormatError(f"no class has at least {min_count} examples")
    remap = {old: new for new, old in enumerate(kept)}
    sigs = [LabeledSignal(s.samples, remap[s.label]) for s in dataset.signals if s.label in remap]
    return Dataset(sigs, dataset.L, len(kept))


def synth_waveforms(num_per_class: int = 200, L: int = 64, noise_sigma: float = 0.1,
                    seed: int = 0) -> Dataset:
    """Three waveform families with random phase and 2-6 cycles per window:
    label 0 sine, 1 square, 2 sawtooth."""
    if L < 8:
        raise ValueError(f"L must be >= 8, got {L}")
    if num_per_class < 1:
        raise ValueError(f"num_per_class must be >= 1, got {num_per_class}")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise ValueError(f"noise_sigma must be a finite number >= 0, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    t = np.arange(L) / L
    signals: list[LabeledSignal] = []
    for label in range(3):
        for _ in range(num_per_class):
            freq = rng.uniform(2.0, 6.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            arg = 2.0 * np.pi * freq * t + phase
            if label == 0:
                base = np.sin(arg)
            elif label == 1:
                base = np.where(np.sin(arg) >= 0.0, 1.0, -1.0)
            else:
                base = 2.0 * np.mod(freq * t + phase / (2.0 * np.pi), 1.0) - 1.0
            if noise_sigma > 0:
                base = base + rng.normal(0.0, noise_sigma, size=L)
            signals.append(LabeledSignal(samples=base, label=label))
    return Dataset(signals, L, 3)
