"""Optimization loop, combined loss, evaluation, and checkpoint I/O.

Checkpoint format (version 1): one JSON header line (format tag, version,
config, and a tensor manifest of name/shape/offset, offsets measured from the
start of the binary payload) followed by each tensor's raw little-endian
float64 data in manifest order, back to back, with nothing after the last.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .capsules import LossParams, margin_loss, mse_loss
from .data import Dataset
from .errors import CheckpointError, ConfigError, TrainingError
from .model import ForwardOutput, ModelConfig, ModelParams, classify, model_forward, param_shapes
from .optim import AdamState, adam_step
from .tensor import Tensor, no_grad

_CHECKPOINT_MAGIC = "timecaps-checkpoint"
_CHECKPOINT_VERSION = 1
# Rows per no-grad forward in evaluate().
EVAL_CHUNK = 16


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
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
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
            "epochs": [
                {
                    "epoch": e.epoch,
                    "margin_loss": e.margin_loss,
                    "recon_loss": e.recon_loss,
                    "train_accuracy": e.train_accuracy,
                    "test_accuracy": e.test_accuracy,
                }
                for e in self.epochs
            ],
            "confusion": self.confusion.tolist() if self.confusion is not None else None,
            "wall_time_seconds": self.wall_time_seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def total_loss(fwd: ForwardOutput, target: Tensor, true_class, cfg: TrainConfig) -> Tensor:
    """Margin loss on class lengths plus down-weighted reconstruction MSE;
    one loss per row when the forward carries a batch axis."""
    loss_params = LossParams(lam=cfg.lambda_margin)
    margin = margin_loss(fwd.class_lengths, true_class, loss_params)
    return T.add(margin, T.scale(mse_loss(fwd.reconstruction, target), cfg.recon_weight))


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
    loss = T.sum_over(total_loss(fwd, x, labels, cfg))
    if not np.isfinite(loss.data):
        raise TrainingError(f"non-finite loss {loss.item()} at {where}")
    loss.backward()
    for name, p in params.items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise TrainingError(f"non-finite gradient of {name!r} at {where} "
                                f"(loss {loss.item():.6g} is finite)")
    with no_grad():  # the two reported terms, read off the same forward
        margin = margin_loss(fwd.class_lengths, labels, LossParams(lam=cfg.lambda_margin))
        recon = mse_loss(fwd.reconstruction, x)
    return float(np.sum(margin.data)), float(np.sum(recon.data))


def train(params: ModelParams, train_set: Dataset, test_set: Dataset, cfg: TrainConfig,
          log=None) -> tuple[ModelParams, TrainReport]:
    """Seeded mini-batch loop: gradients averaged per batch, one Adam step per
    batch, both splits evaluated after every epoch.  Deterministic per seed.

    Raises TrainingError at the first batch whose loss or any parameter
    gradient is not finite."""
    model_cfg = params.config
    if train_set.L != model_cfg.L:
        raise ConfigError(f"dataset length {train_set.L} != model length {model_cfg.L}")
    if test_set.L != model_cfg.L:
        raise ConfigError(f"test dataset length {test_set.L} != model length {model_cfg.L}")
    start = time.perf_counter()
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
            scale = 1.0 / len(batch)
            grads = {}
            for name, p in params.items():
                if p.grad is None:
                    grads[name] = np.zeros_like(p.data)
                else:
                    p.grad *= scale
                    grads[name] = p.grad
            new_tensors, state = adam_step(params.tensors(), grads, state)
            params = params.replace(new_tensors)
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


def save_checkpoint(params: ModelParams, path):
    """Write the JSON header line followed by raw float64 tensor payloads."""
    manifest = []
    offset = 0
    blobs = []
    for name, p in params.items():
        blob = np.ascontiguousarray(p.data, dtype="<f8").tobytes()
        manifest.append({"name": name, "shape": list(p.shape), "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    header = {
        "format": _CHECKPOINT_MAGIC,
        "version": _CHECKPOINT_VERSION,
        "config": params.config.to_dict(),
        "tensors": manifest,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> ModelParams:
    """Reconstruct params and config; any inconsistency raises CheckpointError
    before anything is returned (no partial loads)."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header ({exc})") from None
    if header.get("format") != _CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (format={header.get('format')!r})")
    if header.get("version") != _CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {header.get('version')!r}, "
                              f"expected {_CHECKPOINT_VERSION}")
    try:
        config = ModelConfig.from_dict(header["config"])
        manifest = header["tensors"]
    except (KeyError, TypeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: bad header ({exc})") from None

    expected = param_shapes(config)
    if [m.get("name") for m in manifest] != list(expected):
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
        stop = start + 8 * (int(np.prod(shape)) if shape else 1)
        if stop > len(payload):
            raise CheckpointError(f"{path}: tensor {name!r} payload is truncated")
        data = np.frombuffer(payload[start:stop], dtype="<f8").reshape(shape)
        tensors[name] = Tensor(data.copy(), requires_grad=True)
    if stop != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - stop} trailing payload bytes after the last tensor")
    return ModelParams(config, tensors)
