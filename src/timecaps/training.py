"""Optimization loop, combined loss, evaluation, and checkpoint I/O.

Checkpoint format (version 2): one JSON header line (format tag, version,
config, the input normalization the model was trained on, and a tensor
manifest of name/shape/offset, offsets measured from the start of the binary
payload) followed by each tensor's raw little-endian float64 data in
manifest order, back to back, with nothing after the last.  Tensors are
stored in the layouts ``model.param_shapes`` gives: the vote kernels order
their output channels (dim, parent), and ``class_weights`` is (N, a_s,
num_classes, a_sig).  ``normalize`` is ``zscore``, ``minmax``, ``none`` or
null (not recorded).  ``save_checkpoint`` writes each tensor's contiguous
little-endian buffer as it is, through a ``memoryview``, and
``read_checkpoint`` checks the header and manifest, then reads each tensor
with one ``readinto`` straight into its final float64 array; a short read is
a truncated payload.  So neither holds a second copy of the parameters.

Version 1 files, which have no ``normalize`` field, still load: their vote
kernel channels are in (parent, dim) order and their ``class_weights`` is
(N, num_classes, a_s, a_sig), and both are converted on load
(``model.from_v1_layout``).  A v1 file read with the v2 layouts would load
silently wrong, because the vote kernel shapes are the same in both orders.
"""

from __future__ import annotations

import ctypes
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .capsules import LossParams, margin_loss, mse_loss
from .data import Dataset
from .errors import CheckpointError, ConfigError, TrainingError, check_fields
from .model import (ForwardOutput, ModelConfig, ModelParams, classify, from_v1_layout, model_forward,
                    param_shapes, v1_param_shapes)
from .optim import AdamState, adam_step
from .tensor import Tensor, no_grad

_CHECKPOINT_MAGIC = "timecaps-checkpoint"
_CHECKPOINT_VERSION = 2
NORMALIZE_MODES = ("zscore", "minmax", "none")
# Rows per no-grad forward in evaluate().
EVAL_CHUNK = 16

# glibc's mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# Requests of at least the mmap threshold get a mapping of their own, which
# is unmapped on free; 32 MiB is the largest threshold glibc accepts on 64-bit
# builds, so every tape array (the largest, the beat config's class votes at
# batch 16, is 6 MB) comes from the heap.  The heap top is handed back to the
# kernel once more than the trim threshold of it is free; 128 MiB is above
# the 26 MB peak of the beat config's per-batch tape, the largest of the
# configs this project runs, so the memory a backward frees stays mapped for
# the next batch instead of being faulted in again page by page.
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 128 << 20


def _keep_freed_memory() -> bool:
    """Ask glibc to keep freed memory in the process (see the thresholds
    above); True if both settings applied.  Setting them again changes
    nothing.  Where ``mallopt`` is missing or refuses (macOS, Windows, musl),
    nothing changes and the result is False."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) != 0
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) != 0)


@dataclass
class TrainConfig:
    epochs: int = 35
    lr: float = 0.001
    lambda_margin: float = 0.5
    recon_weight: float = 0.0005
    batch_size: int = 16
    seed: int = 0
    lr_decay: float = 1.0  # per-epoch multiplier; 1.0 disables decay

    def __post_init__(self):
        check_fields(self)
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.lr <= 0 or self.batch_size < 1 or self.recon_weight < 0:
            raise ConfigError("lr must be > 0, batch_size >= 1, recon_weight >= 0")
        if not 0.0 < self.lambda_margin <= 1.0:
            raise ConfigError(f"lambda_margin must be in (0, 1], got {self.lambda_margin}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")


@dataclass
class EpochStats:
    epoch: int
    margin_loss: float
    recon_loss: float
    train_accuracy: float
    test_accuracy: float


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    confusion: np.ndarray | None = None
    wall_time_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "epochs": [asdict(e) for e in self.epochs],
            "confusion": self.confusion.tolist() if self.confusion is not None else None,
            "wall_time_seconds": self.wall_time_seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def loss_terms(fwd: ForwardOutput, target: Tensor, true_class,
               cfg: TrainConfig) -> tuple[Tensor, Tensor, Tensor]:
    """The combined loss, margin loss on class lengths plus down-weighted
    reconstruction MSE, and its two unweighted terms, all on one tape; one
    loss per row when the forward carries a batch axis."""
    margin = margin_loss(fwd.class_lengths, true_class, LossParams(lam=cfg.lambda_margin))
    recon = mse_loss(fwd.reconstruction, target)
    return T.add(margin, T.mul(recon, cfg.recon_weight)), margin, recon


def total_loss(fwd: ForwardOutput, target: Tensor, true_class, cfg: TrainConfig) -> Tensor:
    """The combined loss of ``loss_terms``."""
    return loss_terms(fwd, target, true_class, cfg)[0]


def _stack(signals) -> Tensor:
    return Tensor(np.stack([sig.samples for sig in signals]))


def evaluate(params: ModelParams, dataset: Dataset) -> tuple[float, np.ndarray]:
    """Accuracy (argmax class length) and the true-by-predicted count matrix.

    Runs the classifier only (no decoder), one no-grad forward per chunk of
    EVAL_CHUNK rows.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    cfg = params.config
    preds: list[int] = []
    with no_grad():
        for lo in range(0, len(dataset), EVAL_CHUNK):
            chunk = _stack(dataset.signals[lo : lo + EVAL_CHUNK])
            preds.extend(int(p) for p in classify(chunk, params, cfg).predicted_class())

    confusion = np.zeros((cfg.num_classes, cfg.num_classes), dtype=int)
    for sig, pred in zip(dataset.signals, preds):
        confusion[sig.label, pred] += 1
    return int(np.trace(confusion)) / len(dataset), confusion


def _backprop_batch(params: ModelParams, signals, cfg: TrainConfig,
                    where: str) -> tuple[float, float]:
    """One tape for the whole mini-batch: forward, summed loss, backward.

    Leaves the summed per-example gradients in ``params``' grads and returns
    the batch's summed margin and reconstruction losses.  The graph lives
    only inside this call, so it is released before the next batch records.
    Raises TrainingError on a non-finite loss, or on the first parameter
    (in ``params`` order) whose gradient is not finite.
    """
    x = _stack(signals)
    labels = np.array([sig.label for sig in signals])
    fwd = model_forward(x, params, params.config, mask_class=labels)
    total, margin, recon = loss_terms(fwd, x, labels, cfg)
    loss = T.sum_over(total)
    if not np.isfinite(loss.data):
        raise TrainingError(f"non-finite loss {loss.item()} at {where}")
    loss.backward()
    for name, p in params.items():
        if not np.isfinite(p.grad).all():
            raise TrainingError(f"non-finite gradient of {name!r} at {where} "
                                f"(loss {loss.item():.6g} is finite)")
    return float(np.sum(margin.data)), float(np.sum(recon.data))


def train(params: ModelParams, train_set: Dataset, test_set: Dataset, cfg: TrainConfig,
          log=None) -> tuple[ModelParams, TrainReport]:
    """Seeded mini-batch loop: gradients averaged per batch, one Adam step per
    batch, both splits evaluated after every epoch.  Deterministic per seed.

    On glibc, the process keeps the memory that each batch's tape frees for
    the next batch (``_keep_freed_memory``), so its resident size stays at its
    high-water mark after the first batch, also after ``train`` returns.

    Raises ConfigError before the first epoch if either split is empty, and
    TrainingError at the first batch whose loss or any parameter gradient is
    not finite."""
    model_cfg = params.config
    if train_set.L != model_cfg.L:
        raise ConfigError(f"dataset length {train_set.L} != model length {model_cfg.L}")
    if test_set.L != model_cfg.L:
        raise ConfigError(f"test dataset length {test_set.L} != model length {model_cfg.L}")
    if len(train_set) == 0 or len(test_set) == 0:
        raise ConfigError(f"both splits need rows, got {len(train_set)} training "
                          f"and {len(test_set)} test rows")
    start = time.perf_counter()
    _keep_freed_memory()
    report = TrainReport()
    state = AdamState.for_params(params.tensors(), lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)

    for epoch in range(1, cfg.epochs + 1):
        state.lr = cfg.lr * (cfg.lr_decay ** (epoch - 1))
        order = rng.permutation(len(train_set))
        margin_sum = 0.0
        recon_sum = 0.0
        for number, lo in enumerate(range(0, len(order), cfg.batch_size), start=1):
            batch = [train_set.signals[int(i)] for i in order[lo : lo + cfg.batch_size]]
            params.zero_grad()
            margin, recon = _backprop_batch(params, batch, cfg, f"epoch {epoch}, batch {number}")
            margin_sum += margin
            recon_sum += recon
            per_row = 1.0 / len(batch)
            grads = {name: np.multiply(p.grad, per_row, out=p.grad) for name, p in params.items()}
            new_tensors, state = adam_step(params.tensors(), grads, state)
            params = ModelParams(model_cfg, new_tensors)
        train_acc, _ = evaluate(params, train_set)
        test_acc, confusion = evaluate(params, test_set)
        stats = EpochStats(
            epoch=epoch,
            margin_loss=margin_sum / len(train_set),
            recon_loss=recon_sum / len(train_set),
            train_accuracy=train_acc,
            test_accuracy=test_acc,
        )
        report.epochs.append(stats)
        report.confusion = confusion
        if log is not None:
            log(f"epoch {epoch}/{cfg.epochs} margin={stats.margin_loss:.4f} "
                f"recon={stats.recon_loss:.4f} train_acc={train_acc:.4f} test_acc={test_acc:.4f}")

    report.wall_time_seconds = time.perf_counter() - start
    return params, report


def save_checkpoint(params: ModelParams, path, normalize: str | None = None):
    """Write the JSON header line followed by raw float64 tensor payloads;
    ``normalize`` records the input normalization the model was trained on
    (None: not recorded)."""
    if normalize is not None and normalize not in NORMALIZE_MODES:
        raise ValueError(f"normalize must be one of {NORMALIZE_MODES} or None, got {normalize!r}")
    manifest = []
    offset = 0
    for name, p in params.items():
        manifest.append({"name": name, "shape": list(p.shape), "offset": offset})
        offset += 8 * p.size
    header = {
        "format": _CHECKPOINT_MAGIC,
        "version": _CHECKPOINT_VERSION,
        "config": params.config.to_dict(),
        "normalize": normalize,
        "tensors": manifest,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        for _, p in params.items():
            fh.write(memoryview(np.ascontiguousarray(p.data, dtype="<f8")))


@dataclass
class Checkpoint:
    """A loaded checkpoint: the parameters and the recorded input
    normalization (None when not recorded, as in every version 1 file)."""

    params: ModelParams
    normalize: str | None


def load_checkpoint(path) -> ModelParams:
    """The parameters of a checkpoint (see ``read_checkpoint``)."""
    return read_checkpoint(path).params


def read_checkpoint(path) -> Checkpoint:
    """Reconstruct params, config and the recorded normalization from a
    version 2 or version 1 file; any inconsistency raises CheckpointError
    before anything is returned (no partial loads).  After the header checks
    each tensor is read straight into its own array, so the load holds the
    parameters once."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: unreadable header ({exc})") from None
        fmt = header.get("format") if isinstance(header, dict) else None
        if fmt != _CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (format={fmt!r})")
        version = header.get("version")
        if type(version) is not int or version not in (1, _CHECKPOINT_VERSION):
            raise CheckpointError(f"{path}: unsupported checkpoint version {version!r}, "
                                  f"expected 1 or {_CHECKPOINT_VERSION}")
        try:
            config = ModelConfig.from_dict(header["config"])
            manifest = header["tensors"]
            normalize = header["normalize"] if version == _CHECKPOINT_VERSION else None
        except (KeyError, TypeError, ConfigError) as exc:
            raise CheckpointError(f"{path}: bad header ({exc})") from None
        if normalize is not None and normalize not in NORMALIZE_MODES:
            raise CheckpointError(f"{path}: unknown normalize mode {normalize!r}")

        expected = param_shapes(config) if version == _CHECKPOINT_VERSION else v1_param_shapes(config)
        if not (isinstance(manifest, list) and all(isinstance(m, dict) for m in manifest)
                and [m.get("name") for m in manifest] == list(expected)):
            raise CheckpointError(f"{path}: tensor manifest does not match the config's parameter set")
        tensors: dict[str, Tensor] = {}
        stop = 0  # tensors are stored back to back in manifest order
        for m in manifest:
            name = m["name"]
            try:
                shape = tuple(int(s) for s in m["shape"])
                start = int(m["offset"])
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(f"{path}: bad manifest entry for {name!r} ({exc})") from None
            if shape != expected[name]:
                raise CheckpointError(f"{path}: tensor {name!r} has shape {shape}, expected {expected[name]}")
            if start < stop:
                raise CheckpointError(f"{path}: tensor {name!r} at offset {start} overlaps the one "
                                      f"before it, which ends at {stop}")
            if start > stop:
                raise CheckpointError(f"{path}: {start - stop}-byte gap before tensor {name!r}")
            data = np.empty(shape, dtype="<f8")
            stop = start + data.nbytes
            if fh.readinto(data) != data.nbytes:
                raise CheckpointError(f"{path}: tensor {name!r} payload is truncated")
            if not np.isfinite(data).all():
                raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")
            if version == 1:
                data = from_v1_layout(config, name, data)
            tensors[name] = Tensor(data, requires_grad=True)
        extra = len(fh.read())
    if extra:
        raise CheckpointError(f"{path}: {extra} trailing payload bytes after the last tensor")
    return Checkpoint(ModelParams(config, tensors), normalize)
