"""Command-line interface: train, eval, reconstruct, gradcheck, synth.

Exit codes: 0 success, 1 verification failure, 2 usage/config/data error.
Commands validate their inputs fully before writing anything; a command
writes all its outputs to ``<name>.partial`` files and renames them into
place only once the last is complete, and at command start the stale
``.partial`` files of the command's own outputs, and no others, are removed.
``train`` writes ``test_split.csv`` after training, with the checkpoint, and
a run with no epoch ends by removing the ``confusion.csv`` of an earlier
run; ``reconstruct`` ends by removing its own ``recon_<i>.csv`` files of an
earlier run for every i at or past the number it wrote.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, filter_min_class_count, load_csv, normalize, save_csv, split, synth_waveforms
from .errors import (CheckpointError, ConfigError, DataFormatError, ShapeError, TrainingError, check_fields,
                     config_from)
from .gradcheck import run_suite
from .model import ModelConfig, ModelParams, init_params, model_forward
from .tensor import Tensor, no_grad
from .training import NORMALIZE_MODES, TrainConfig, evaluate, read_checkpoint, save_checkpoint, train

GRAD_TOLERANCE = 1e-4


def _read_config(path: str) -> dict:
    """The JSON object in the config file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: config is not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    return raw


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

    def __post_init__(self):
        check_fields(self)
        if self.normalize not in NORMALIZE_MODES:
            raise ConfigError(f"normalize must be zscore|minmax|none, got {self.normalize!r}")
        if self.split_seed is not None and self.split_seed < 0:
            raise ConfigError(f"split_seed must be >= 0, got {self.split_seed}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.min_class_count < 0:
            raise ConfigError(f"min_class_count must be >= 0, got {self.min_class_count}")

    @classmethod
    def load(cls, path: str | None, flags: argparse.Namespace) -> "RunConfig":
        """The run config in the file at ``path`` (all defaults when None),
        with the flags that were given in place of the file's values:
        ``--epochs`` and ``--seed`` in its train section, ``--data`` and
        ``--out`` at its top level."""
        raw = _read_config(path) if path is not None else {}

        def given(*names) -> dict:
            return {name: getattr(flags, name) for name in names if getattr(flags, name, None) is not None}

        return config_from(cls, raw, "run", **given("data", "out"),
                           model=ModelConfig.from_dict(raw.get("model", {})),
                           train=config_from(TrainConfig, raw.get("train", {}), "train",
                                             **given("epochs", "seed")))


def _clean_partials(out_dir: Path, *outputs: str):
    """Remove the ``<output>.partial`` files an interrupted run left for
    these outputs, each a glob pattern in ``out_dir``."""
    for pattern in outputs:
        for stale in out_dir.glob(pattern + ".partial"):
            stale.unlink()


def _write(*outputs: tuple[Path, Callable[[Path], object]]):
    """Call each output's ``write`` on ``<path>.partial``, then, once the last
    is complete, rename them all into place: a write that fails leaves every
    earlier file under these names as it was."""
    written = []
    for path, write in outputs:
        tmp = path.with_name(path.name + ".partial")
        write(tmp)
        written.append((tmp, path))
    for tmp, path in written:
        os.replace(tmp, path)


def _text(text: str) -> Callable[[Path], object]:
    """A ``_write`` writer of ``text``."""
    return lambda tmp: tmp.write_text(text, encoding="utf-8")


def _confusion(confusion: np.ndarray) -> Callable[[Path], object]:
    lines = [",".join(str(int(v)) for v in row) for row in confusion]
    return _text("\n".join(lines) + "\n")


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
    if len(train_raw) == 0 or len(test_raw) == 0:
        counts = ", ".join(str(int(n)) for n in raw.class_counts())
        raise ConfigError(
            f"the split left {len(train_raw)} training and {len(test_raw)} test rows "
            f"(rows per class: {counts}); a class reaches the test split only with 2 or more rows")

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _clean_partials(out_dir, "test_split.csv", "model.ckpt", "report.json", "confusion.csv")

    train_set = _maybe_normalize(train_raw, cfg.normalize)
    test_set = _maybe_normalize(test_raw, cfg.normalize)
    params = init_params(cfg.model, seed=cfg.train.seed)
    params, report = train(params, train_set, test_set, cfg.train, log=print)

    # the raw held-out rows, for later eval runs, are written after training
    # and renamed with the checkpoint, so a run that fails leaves an earlier
    # run's split next to that run's checkpoint
    outputs = [(out_dir / "test_split.csv", lambda tmp: save_csv(test_raw, tmp)),
               (out_dir / "model.ckpt", lambda tmp: save_checkpoint(params, tmp, normalize=cfg.normalize)),
               (out_dir / "report.json", _text(report.to_json()))]
    if report.confusion is not None:  # None when no epoch ran
        outputs.append((out_dir / "confusion.csv", _confusion(report.confusion)))
    _write(*outputs)
    if report.confusion is None:  # an earlier run's matrix does not describe this model
        (out_dir / "confusion.csv").unlink(missing_ok=True)
    print(f"wrote {', '.join(str(path) for path, _ in outputs[1:])}")
    return 0


def _inference_setup(args, outputs: str) -> tuple[ModelParams, Dataset, Path]:
    """Checkpoint, normalized dataset of matching length, and the output
    directory for ``eval`` and ``reconstruct``, cleaned of the partial files
    of their ``outputs`` (a glob pattern).  The data is normalized as the
    checkpoint records (zscore when it records nothing); a conflicting
    ``--normalize`` is a ConfigError naming both modes."""
    ckpt = read_checkpoint(args.checkpoint)
    params = ckpt.params
    mode = ckpt.normalize or args.normalize or "zscore"
    if args.normalize is not None and args.normalize != mode:
        raise ConfigError(f"--normalize {args.normalize} conflicts with the mode the checkpoint "
                          f"was trained with, {ckpt.normalize}")
    dataset = load_csv(args.data, num_classes=params.config.num_classes)
    if dataset.L != params.config.L:
        raise ConfigError(f"dataset signal length {dataset.L} != checkpoint L {params.config.L}")
    dataset = _maybe_normalize(dataset, mode)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _clean_partials(out_dir, outputs)
    return params, dataset, out_dir


def cmd_eval(args) -> int:
    params, dataset, out_dir = _inference_setup(args, "confusion.csv")
    accuracy, confusion = evaluate(params, dataset)
    _write((out_dir / "confusion.csv", _confusion(confusion)))
    print(f"accuracy={accuracy:.4f}")
    return 0


def cmd_reconstruct(args) -> int:
    k = args.k
    if k < 1:
        raise ConfigError(f"--k must be >= 1, got {k}")
    params, dataset, out_dir = _inference_setup(args, "recon_*.csv")
    if k > len(dataset):
        warnings.warn(f"--k {k} exceeds dataset size {len(dataset)}; clamping")
        k = len(dataset)
    picks = np.random.default_rng(args.seed).permutation(len(dataset))[:k]
    outputs = []
    for i, idx in enumerate(sorted(int(j) for j in picks)):
        sig = dataset.signals[idx]
        with no_grad():
            fwd = model_forward(Tensor(sig.samples), params, params.config, mask_class=None)
        rows = [
            ",".join(f"{v:.17g}" for v in sig.samples),
            ",".join(f"{v:.17g}" for v in fwd.reconstruction.data),
        ]
        outputs.append((out_dir / f"recon_{i:03d}.csv", _text("\n".join(rows) + "\n")))
    _write(*outputs)
    for stale in out_dir.glob("recon_*.csv"):  # an earlier run's files past this run's k
        number = re.fullmatch(r"recon_([0-9]+)\.csv", stale.name)
        if number and int(number[1]) >= k and stale.name == f"recon_{int(number[1]):03d}.csv":
            stale.unlink()
    print(f"wrote {k} reconstruction file(s) to {out_dir}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = ModelConfig.tiny()
    if args.config is not None:
        raw = _read_config(args.config)
        cfg = ModelConfig.from_dict(raw.get("model", raw))
    results = run_suite(cfg, seed=args.seed or 0)
    failed = [r for r in results if r.max_rel_error >= GRAD_TOLERANCE]
    width = max(len(r.name) for r in results)
    for r in results:
        status = "ok" if r.max_rel_error < GRAD_TOLERANCE else "FAIL"
        print(f"{r.name:<{width}s} max_rel_error={r.max_rel_error:.3e} {status}")
    if failed:
        worst = max(failed, key=lambda r: r.max_rel_error)
        print(f"gradcheck FAILED: worst component {worst.name} "
              f"({worst.max_rel_error:.3e} >= {GRAD_TOLERANCE})", file=sys.stderr)
        return 1
    print(f"gradcheck passed: {len(results)} components < {GRAD_TOLERANCE}")
    return 0


def cmd_synth(args) -> int:
    if args.length < 8:
        raise ConfigError(f"--length must be >= 8, got {args.length}")
    if args.num_per_class < 1:
        raise ConfigError(f"--num-per-class must be >= 1, got {args.num_per_class}")
    if not (np.isfinite(args.noise) and args.noise >= 0.0):
        raise ConfigError(f"--noise must be a finite number >= 0, got {args.noise}")
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _clean_partials(out_path.parent, glob.escape(out_path.name))
    dataset = synth_waveforms(num_per_class=args.num_per_class, L=args.length,
                              noise_sigma=args.noise, seed=args.seed or 0)
    _write((out_path, lambda tmp: save_csv(dataset, tmp)))
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
    p_eval.add_argument("--normalize", default=None, choices=NORMALIZE_MODES,
                        help="input normalization (default: the checkpoint's, else zscore)")
    p_eval.set_defaults(func=cmd_eval)

    p_rec = sub.add_parser("reconstruct", help="write original/reconstruction CSV pairs")
    p_rec.add_argument("--checkpoint", required=True)
    p_rec.add_argument("--data", required=True)
    p_rec.add_argument("--out", default=".")
    p_rec.add_argument("--k", type=int, default=3)
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument("--normalize", default=None, choices=NORMALIZE_MODES,
                       help="input normalization (default: the checkpoint's, else zscore)")
    p_rec.set_defaults(func=cmd_reconstruct)

    p_gc = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p_gc.add_argument("--config", default=None)
    p_gc.add_argument("--seed", type=int, default=0)
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
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (ConfigError, DataFormatError, CheckpointError, ShapeError, TrainingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
