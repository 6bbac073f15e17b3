"""Command-line interface: train, eval, reconstruct, gradcheck, synth.

Exit codes: 0 success, 1 verification failure, 2 usage/config/data error.
Commands validate their inputs fully before writing anything; outputs are
written to ``<name>.partial`` and renamed, and stale ``*.partial`` files in
the output directory are removed at command start.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .data import Dataset, filter_min_class_count, load_csv, normalize, save_csv, split, synth_waveforms
from .errors import CheckpointError, ConfigError, DataFormatError, ShapeError, TrainingError
from .gradcheck import run_suite
from .model import ModelConfig, init_params, model_forward
from .tensor import Tensor, no_grad
from .training import TrainConfig, evaluate, load_checkpoint, save_checkpoint, train

GRAD_TOLERANCE = 1e-4


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    data: str | None = None
    out: str = "."
    normalize: str = "zscore"
    test_fraction: float = 0.25
    split_seed: int | None = None
    min_class_count: int = 0

    @classmethod
    def load(cls, path: str | None, overrides: argparse.Namespace) -> "RunConfig":
        raw: dict = {}
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            if not isinstance(raw, dict):
                raise ConfigError(f"{path}: config root must be a JSON object")
        model_raw = dict(raw.get("model", {}))
        train_raw = dict(raw.get("train", {}))
        known_model = {f.name for f in fields(ModelConfig)}
        known_train = {f.name for f in fields(TrainConfig)}
        for section, known, name in ((model_raw, known_model, "model"), (train_raw, known_train, "train")):
            unknown = set(section) - known
            if unknown:
                raise ConfigError(f"unknown {name} config keys: {sorted(unknown)}")
        train_cfg = TrainConfig(**train_raw)
        model_cfg = ModelConfig.from_dict(model_raw)
        cfg = cls(
            model=model_cfg,
            train=train_cfg,
            data=raw.get("data"),
            out=raw.get("out", "."),
            normalize=raw.get("normalize", "zscore"),
            test_fraction=float(raw.get("test_fraction", 0.25)),
            split_seed=raw.get("split_seed"),
            min_class_count=int(raw.get("min_class_count", 0)),
        )
        if getattr(overrides, "epochs", None) is not None:
            cfg.train.epochs = overrides.epochs
        if getattr(overrides, "seed", None) is not None:
            cfg.train.seed = overrides.seed
        if getattr(overrides, "data", None) is not None:
            cfg.data = overrides.data
        if getattr(overrides, "out", None) is not None:
            cfg.out = overrides.out
        if cfg.normalize not in ("zscore", "minmax", "none"):
            raise ConfigError(f"normalize must be zscore|minmax|none, got {cfg.normalize!r}")
        if not 0.0 < cfg.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0, 1), got {cfg.test_fraction}")
        cfg.train.__post_init__()
        return cfg


def _clean_partials(out_dir: Path):
    if out_dir.is_dir():
        for stale in out_dir.glob("*.partial"):
            stale.unlink()


def _write_text(path: Path, text: str):
    tmp = path.with_name(path.name + ".partial")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_confusion(path: Path, confusion: np.ndarray):
    lines = [",".join(str(int(v)) for v in row) for row in confusion]
    _write_text(path, "\n".join(lines) + "\n")


def _maybe_normalize(dataset: Dataset, mode: str) -> Dataset:
    if mode == "none":
        return dataset
    return normalize(dataset, mode)[0]


def cmd_train(args) -> int:
    cfg = RunConfig.load(args.config, args)
    if cfg.data is None:
        raise ConfigError("no dataset: provide --data or a 'data' entry in the config")
    raw = load_csv(cfg.data, num_classes=None)
    if cfg.min_class_count > 1:
        raw = filter_min_class_count(raw, cfg.min_class_count)
    if raw.L != cfg.model.L:
        raise ConfigError(f"dataset signal length {raw.L} != model L {cfg.model.L}")
    if raw.num_classes != cfg.model.num_classes:
        raise ConfigError(
            f"dataset has {raw.num_classes} classes, model expects {cfg.model.num_classes}")
    split_seed = cfg.split_seed if cfg.split_seed is not None else cfg.train.seed
    train_raw, test_raw = split(raw, cfg.test_fraction, split_seed)

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _clean_partials(out_dir)
    save_csv(test_raw, out_dir / "test_split.csv")  # raw rows, for later eval runs

    train_set = _maybe_normalize(train_raw, cfg.normalize)
    test_set = _maybe_normalize(test_raw, cfg.normalize)
    params = init_params(cfg.model, seed=cfg.train.seed)
    params, report = train(params, train_set, test_set, cfg.train, log=print)

    ckpt_tmp = out_dir / "model.ckpt.partial"
    save_checkpoint(params, ckpt_tmp)
    os.replace(ckpt_tmp, out_dir / "model.ckpt")
    _write_text(out_dir / "report.json", report.to_json())
    if report.confusion is not None:
        _write_confusion(out_dir / "confusion.csv", report.confusion)
    print(f"wrote {out_dir / 'model.ckpt'}, {out_dir / 'report.json'}, {out_dir / 'confusion.csv'}")
    return 0


def cmd_eval(args) -> int:
    params = load_checkpoint(args.checkpoint)
    dataset = load_csv(args.data, num_classes=params.config.num_classes)
    if dataset.L != params.config.L:
        raise ConfigError(f"dataset signal length {dataset.L} != checkpoint L {params.config.L}")
    dataset = _maybe_normalize(dataset, args.normalize)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _clean_partials(out_dir)
    accuracy, confusion = evaluate(params, dataset)
    _write_confusion(out_dir / "confusion.csv", confusion)
    print(f"accuracy={accuracy:.4f}")
    return 0


def cmd_reconstruct(args) -> int:
    params = load_checkpoint(args.checkpoint)
    dataset = load_csv(args.data, num_classes=params.config.num_classes)
    if dataset.L != params.config.L:
        raise ConfigError(f"dataset signal length {dataset.L} != checkpoint L {params.config.L}")
    dataset = _maybe_normalize(dataset, args.normalize)
    k = args.k
    if k < 1:
        raise ConfigError(f"--k must be >= 1, got {k}")
    if k > len(dataset):
        warnings.warn(f"--k {k} exceeds dataset size {len(dataset)}; clamping")
        k = len(dataset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _clean_partials(out_dir)
    picks = np.random.default_rng(args.seed).permutation(len(dataset))[:k]
    for i, idx in enumerate(sorted(int(j) for j in picks)):
        sig = dataset.signals[idx]
        with no_grad():
            fwd = model_forward(Tensor(sig.samples), params, params.config, mask_class=None)
        rows = [
            ",".join(f"{v:.17g}" for v in sig.samples),
            ",".join(f"{v:.17g}" for v in fwd.reconstruction.data),
        ]
        _write_text(out_dir / f"recon_{i:03d}.csv", "\n".join(rows) + "\n")
    print(f"wrote {k} reconstruction file(s) to {out_dir}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = ModelConfig.tiny()
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        cfg = ModelConfig.from_dict(raw.get("model", raw))
    corrupt = getattr(args, "inject_fault", None)
    results = run_suite(cfg, seed=args.seed or 0, corrupt=corrupt)
    failed = [r for r in results if r.max_rel_error >= GRAD_TOLERANCE]
    for r in results:
        status = "ok" if r.max_rel_error < GRAD_TOLERANCE else "FAIL"
        print(f"{r.name:<15s} max_rel_error={r.max_rel_error:.3e} {status}")
    if failed:
        worst = max(failed, key=lambda r: r.max_rel_error)
        print(f"gradcheck FAILED: worst component {worst.name} "
              f"({worst.max_rel_error:.3e} >= {GRAD_TOLERANCE})", file=sys.stderr)
        return 1
    print(f"gradcheck passed: {len(results)} components < {GRAD_TOLERANCE}")
    return 0


def cmd_synth(args) -> int:
    out_path = Path(args.out)
    if out_path.parent and not out_path.parent.exists():
        out_path.parent.mkdir(parents=True, exist_ok=True)
    _clean_partials(out_path.parent)
    dataset = synth_waveforms(num_per_class=args.num_per_class, L=args.length,
                              noise_sigma=args.noise, seed=args.seed or 0)
    tmp = out_path.with_name(out_path.name + ".partial")
    save_csv(dataset, tmp)
    os.replace(tmp, out_path)
    print(f"wrote {len(dataset)} signals to {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="timecaps",
                                     description="1D capsule network trainer and tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write checkpoint/report")
    p_train.add_argument("--config", default=None, help="JSON run config")
    p_train.add_argument("--data", default=None, help="dataset CSV path")
    p_train.add_argument("--out", default=None, help="output directory")
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset CSV")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out", default=".")
    p_eval.add_argument("--normalize", default="zscore", choices=["zscore", "minmax", "none"])
    p_eval.set_defaults(func=cmd_eval)

    p_rec = sub.add_parser("reconstruct", help="write original/reconstruction CSV pairs")
    p_rec.add_argument("--checkpoint", required=True)
    p_rec.add_argument("--data", required=True)
    p_rec.add_argument("--out", default=".")
    p_rec.add_argument("--k", type=int, default=3)
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument("--normalize", default="zscore", choices=["zscore", "minmax", "none"])
    p_rec.set_defaults(func=cmd_reconstruct)

    p_gc = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p_gc.add_argument("--config", default=None)
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--inject-fault", default=None, help=argparse.SUPPRESS)
    p_gc.set_defaults(func=cmd_gradcheck)

    p_syn = sub.add_parser("synth", help="generate the synthetic waveform dataset CSV")
    p_syn.add_argument("--out", required=True)
    p_syn.add_argument("--num-per-class", type=int, default=200)
    p_syn.add_argument("--length", type=int, default=64)
    p_syn.add_argument("--noise", type=float, default=0.1)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataFormatError, CheckpointError, ShapeError, TrainingError,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
