"""The three benchmark workloads and their correctness checks.

Every workload is a closed loop with one client: the next call starts when
the previous one returns.  Inputs come only from the workload seed; the
model initialisation seed is fixed so that a seed names one input set.

  desk-train  3-class synthetic waves, L=64, toy config, batch 16, driven
              through train() one epoch per call
  beat-train  13-class L=360 sinusoid-plus-noise beats, the paper-scale
              pipeline config, batch 16, through train() one epoch per call
  desk-eval   toy checkpoint saved and reloaded in set-up; evaluate() on the
              held-out split for throughput, then one model_forward per row
              under no_grad for latency.  Records no tape.

After training, each train workload also times one no-grad model_forward
per held-out row on the model it trained, so every workload reports every
end-to-end metric.  ``examples_per_s`` is the workload's main loop: train()
on the train workloads, evaluate() on desk-eval.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from timecaps.capsules import LossParams, margin_loss
from timecaps.data import Dataset, LabeledSignal, load_csv, normalize, save_csv, split, synth_waveforms
from timecaps.model import ModelConfig, ModelParams, init_params, model_forward
from timecaps.tensor import Tensor, no_grad
from timecaps.training import TrainConfig, evaluate, load_checkpoint, save_checkpoint, train

from harness import Budget, RefClock, Tracer, peak_rss_mb, percentile_ms

MODEL_SEED = 7
BATCH_SIZE = 16
TRAIN_EPOCHS = 1
INFER_CHUNK = 64

# The 13-class, 360-sample configuration of acceptance criterion 9.
BEAT_CONFIG = dict(
    L=360, k=4, g1=5, g2=5, g3=3, g_b=3, c_p=2, a_p=4, c_sa=1, a_sa=8, c_b=1, a_b=4,
    n=8, c_sb=2, a_sb=8, a_sig=8, num_classes=13, routing_iters=3,
    decoder_fc=(24, 90),
    decoder_deconv=((8, 2, 2), (4, 2, 2), (2, 2, 2), (2, 1, 1), (1, 1, 1)),
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes and minimum sample counts; ``quick()`` shrinks them for tests."""

    desk_train_per_class: int = 48   # 144 waves: 96 train / 48 held out
    beat_per_class: int = 8          # 104 beats: 78 train / 26 held out
    desk_eval_per_class: int = 100   # 300 waves: 99 held out
    setup_reps: int = 7
    min_train_reps: int = 5
    min_eval_reps: int = 5
    min_infer_samples: int = 1100    # one p99 block: >= 11 samples beyond p99

    @classmethod
    def quick(cls) -> "Sizes":
        return cls(desk_train_per_class=6, beat_per_class=2, desk_eval_per_class=6,
                   setup_reps=2, min_train_reps=1, min_eval_reps=1, min_infer_samples=10)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "train" or "eval"
    classes: int
    test_fraction: float


WORKLOADS = {
    w.name: w for w in (
        Workload("desk-train", "train", 3, 1.0 / 3.0),
        Workload("beat-train", "train", 13, 0.25),
        Workload("desk-eval", "eval", 3, 1.0 / 3.0),
    )
}


class Checks:
    """Examples attempted and failed, plus a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def count(self, examples: int, ok: bool, what: str):
        self.attempted += examples
        if not ok:
            self.failed += examples
            self.notes.append(what)

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


@dataclass
class Setup:
    workload: Workload
    cfg: ModelConfig
    params: ModelParams
    train_set: Dataset
    test_set: Dataset
    setup_s: list[tuple[float, float]] = field(default_factory=list)


def model_config(workload: Workload) -> ModelConfig:
    if workload.name == "beat-train":
        return ModelConfig(**BEAT_CONFIG)
    return ModelConfig.toy()


def _synth(workload: Workload, seed: int, sizes: Sizes) -> Dataset:
    if workload.name == "beat-train":
        # Sinusoid-plus-noise beats, one frequency per class.
        rng = np.random.default_rng(seed)
        grid = np.linspace(0.0, 6.28, 360)
        signals = [LabeledSignal(rng.standard_normal(360) + np.sin(grid * (label + 1)), label)
                   for label in range(13) for _ in range(sizes.beat_per_class)]
        return Dataset(signals, 360, 13)
    per_class = sizes.desk_eval_per_class if workload.kind == "eval" else sizes.desk_train_per_class
    return synth_waveforms(num_per_class=per_class, L=64, noise_sigma=0.1, seed=seed)


def make_data(workload: Workload, seed: int, sizes: Sizes, workdir: Path,
              tracer: Tracer) -> tuple[Dataset, Dataset]:
    """Generate, write and re-read the CSV, split, then normalise each split,
    the order `timecaps train` uses."""
    with tracer.span("data.synth"):
        raw = _synth(workload, seed, sizes)
    path = workdir / "data.csv"
    with tracer.span("data.save_csv"):
        save_csv(raw, path)
    with tracer.span("data.load_csv"):
        loaded = load_csv(path, num_classes=workload.classes)
    with tracer.span("data.split"):
        train_raw, test_raw = split(loaded, workload.test_fraction, seed)
    with tracer.span("data.normalize"):
        train_set = normalize(train_raw, "zscore")[0]
        test_set = normalize(test_raw, "zscore")[0]
    return train_set, test_set


def set_up_once(workload: Workload, seed: int, sizes: Sizes, workdir: Path,
                tracer: Tracer, checks: Checks) -> Setup:
    cfg = model_config(workload)
    train_set, test_set = make_data(workload, seed, sizes, workdir, tracer)
    params = init_params(cfg, seed=MODEL_SEED)
    if workload.kind == "eval":
        path = workdir / "model.ckpt"
        with tracer.span("training.checkpoint_save"):
            save_checkpoint(params, path)
        with tracer.span("training.checkpoint_load"):
            loaded = load_checkpoint(path)
        same = all(np.array_equal(p.data, loaded[name].data) for name, p in params.items())
        checks.count(1, same, "checkpoint round trip changed a tensor")
        params = loaded
    return Setup(workload, cfg, params, train_set, test_set)


def set_up(workload: Workload, seed: int, sizes: Sizes, workdir: Path, tracer: Tracer,
           checks: Checks, clock: RefClock) -> Setup:
    """Run the whole set-up ``sizes.setup_reps`` times; keep the last result
    and every rep's (wall time, reference factor)."""
    times = []
    setup = None
    for _ in range(sizes.setup_reps):
        start = time.perf_counter()
        setup = set_up_once(workload, seed, sizes, workdir, tracer, checks)
        times.append((time.perf_counter() - start, clock.factor()))
    setup.setup_s = times
    return setup


def block_p99_ms(samples_s: list[float], block: int) -> float:
    """Median over consecutive blocks of ``block`` samples of each block's
    p99, so one burst of host noise moves one block, not the figure.  The
    last partial block joins the one before it."""
    blocks = max(1, len(samples_s) // block)
    edges = [i * block for i in range(blocks)] + [len(samples_s)]
    return float(np.median([percentile_ms(samples_s[lo:hi], 99) for lo, hi in zip(edges, edges[1:])]))


def scaled(times: list[tuple[float, float]]) -> list[float]:
    return [wall * factor for wall, factor in times]


def raw(times: list[tuple[float, float]]) -> list[float]:
    return [wall for wall, _ in times]


# --- checks -------------------------------------------------------------

def report_ok(report, test_rows: int) -> bool:
    finite = all(math.isfinite(e.margin_loss) and math.isfinite(e.recon_loss) for e in report.epochs)
    return (finite and len(report.epochs) == TRAIN_EPOCHS
            and report.confusion is not None and int(report.confusion.sum()) == test_rows)


def eval_mismatches(eval_preds: list[int], row_preds: list[int], confusion: np.ndarray,
                    labels: list[int]) -> int:
    """Rows where evaluate() and the per-row forward disagree, plus every row
    when the full-split confusion matrix does not match the per-row
    predictions or does not sum to the row count."""
    bad = sum(int(a != b) for a, b in zip(eval_preds, row_preds))
    bad += abs(len(eval_preds) - len(row_preds))
    rebuilt = np.zeros_like(confusion)
    for label, pred in zip(labels, row_preds):
        rebuilt[label, pred] += 1
    if int(confusion.sum()) != len(labels) or not np.array_equal(rebuilt, confusion):
        bad = len(labels)
    return bad


def evaluate_rows(params: ModelParams, dataset: Dataset) -> list[int]:
    """evaluate()'s prediction for each row, read from one-row confusion matrices."""
    preds = []
    for sig in dataset.signals:
        _, confusion = evaluate(params, Dataset([sig], dataset.L, dataset.num_classes))
        preds.append(int(np.argmax(confusion[sig.label])))
    return preds


# --- phases -------------------------------------------------------------
# Each phase returns its timed units as (wall seconds, reference factor).

def train_phase(s: Setup, seed: int, seconds: float, sizes: Sizes, checks: Checks,
                clock: RefClock):
    """Repeated one-epoch train() calls from the same initial weights; the
    first call warms up and is not timed.  Returns (timed calls, final-epoch
    margin loss, trained params)."""
    tcfg = TrainConfig(epochs=TRAIN_EPOCHS, lr=0.001, batch_size=BATCH_SIZE, seed=seed)
    first = None
    margin = math.nan
    trained = s.params

    def one_call():
        nonlocal first, margin, trained
        params = init_params(s.cfg, seed=MODEL_SEED)
        start = time.perf_counter()
        try:
            trained, report = train(params, s.train_set, s.test_set, tcfg)
        except Exception as exc:  # a raising run counts its examples as failed
            checks.count(TRAIN_EPOCHS * len(s.train_set), False, f"train() raised {exc!r}")
            return None
        wall = time.perf_counter() - start
        record = report.to_dict()
        record.pop("wall_time_seconds")
        if first is None:
            first = record
            margin = report.epochs[-1].margin_loss
        ok = report_ok(report, len(s.test_set)) and record == first
        checks.count(TRAIN_EPOCHS * len(s.train_set), ok,
                     "train() loss non-finite or run not deterministic")
        return wall, clock.factor()

    one_call()
    calls: list[tuple[float, float]] = []
    budget = Budget(seconds)
    while len(calls) < sizes.min_train_reps or budget.left():
        timed = one_call()
        if timed is not None:
            calls.append(timed)
    return calls, margin, trained


def eval_phase(params: ModelParams, dataset: Dataset, seconds: float, sizes: Sizes,
               checks: Checks, clock: RefClock):
    """Repeated evaluate() over the held-out split after one warm-up call;
    returns (timed calls, the confusion matrix)."""
    rows = len(dataset)
    _, first = evaluate(params, dataset)
    checks.count(rows, int(first.sum()) == rows, "evaluate() confusion does not sum to the row count")
    calls: list[tuple[float, float]] = []
    budget = Budget(seconds)
    while len(calls) < sizes.min_eval_reps or budget.left():
        start = time.perf_counter()
        _, confusion = evaluate(params, dataset)
        wall = time.perf_counter() - start
        calls.append((wall, clock.factor()))
        checks.count(rows, np.array_equal(confusion, first), "evaluate() not repeatable")
    return calls, first


def infer_phase(params: ModelParams, dataset: Dataset, seconds: float, sizes: Sizes,
                checks: Checks, clock: RefClock):
    """One no-grad model_forward per row, cycling over the split, in chunks
    of INFER_CHUNK calls that share one reference factor.  Returns (timed
    calls, first-pass predictions, mean margin loss of the first pass)."""
    cfg = params.config
    signals = dataset.signals
    loss_params = LossParams(lam=TrainConfig().lambda_margin)
    calls: list[tuple[float, float]] = []
    preds: list[int] = []
    margins: list[float] = []
    with no_grad():
        model_forward(Tensor(signals[0].samples), params, cfg)  # warm-up
    budget = Budget(seconds)
    i = 0
    while len(calls) < sizes.min_infer_samples or budget.left():
        chunk = []
        for _ in range(INFER_CHUNK):
            sig = signals[i % len(signals)]
            start = time.perf_counter()
            with no_grad():
                fwd = model_forward(Tensor(sig.samples), params, cfg)
            pred = fwd.predicted_class()
            chunk.append(time.perf_counter() - start)
            finite = bool(np.isfinite(fwd.class_lengths.data).all()
                          and np.isfinite(fwd.reconstruction.data).all())
            checks.count(1, finite, f"non-finite forward output on row {i % len(signals)}")
            if i < len(signals):
                preds.append(pred)
                with no_grad():
                    margins.append(margin_loss(fwd.class_lengths, sig.label, loss_params).item())
            i += 1
        factor = clock.factor()
        calls.extend((wall, factor) for wall in chunk)
    return calls, preds, float(np.mean(margins))


def run_workload(s: Setup, seed: int, seconds: float, sizes: Sizes, checks: Checks,
                 clock: RefClock):
    """Measure one workload; returns (end-to-end metrics as name -> (value,
    unit), and an info dict of sample counts, the p99 latency and raw
    wall-time figures).  ``examples_per_s`` is train() throughput on the
    train workloads and evaluate() throughput on desk-eval; every time is
    scaled to the reference speed."""
    if s.workload.kind == "train":
        calls, margin, params = train_phase(s, seed, 0.6 * seconds, sizes, checks, clock)
        examples = TRAIN_EPOCHS * len(s.train_set)
        gc.collect()
        latencies, _, _ = infer_phase(params, s.test_set, 0.4 * seconds, sizes, checks, clock)
    else:
        calls, confusion = eval_phase(s.params, s.test_set, 0.5 * seconds, sizes, checks, clock)
        examples = len(s.test_set)
        gc.collect()
        latencies, row_preds, margin = infer_phase(s.params, s.test_set, 0.5 * seconds, sizes,
                                                   checks, clock)
        labels = [sig.label for sig in s.test_set.signals]
        bad = eval_mismatches(evaluate_rows(s.params, s.test_set), row_preds, confusion, labels)
        checks.count(len(labels), bad == 0, f"{bad} rows differ between evaluate() and per-row forward")
    info = {
        "timed_calls": len(calls), "infer_samples": len(latencies), "setup_reps": len(s.setup_s),
        "train_rows": len(s.train_set), "held_out_rows": len(s.test_set),
        "raw_examples_per_s": examples / float(np.median(raw(calls))),
        "raw_infer_ms_p50": percentile_ms(raw(latencies), 50),
        "infer_ms_p99": block_p99_ms(scaled(latencies), sizes.min_infer_samples),
        "raw_infer_ms_p99": block_p99_ms(raw(latencies), sizes.min_infer_samples),
        "p99_blocks": max(1, len(latencies) // sizes.min_infer_samples),
        "raw_setup_s": float(np.median(raw(s.setup_s))),
        "ref_ms_median": float(np.median(clock.ref_times)) * 1e3,
    }
    metrics = {
        "examples_per_s": (examples / float(np.median(scaled(calls))), "1/s"),
        "infer_ms_p50": (percentile_ms(scaled(latencies), 50), "ms"),
        "margin_loss_final": (margin, "loss"),
        "setup_s": (float(np.median(scaled(s.setup_s))), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_frac": (checks.ok_frac, "ratio"),
    }
    return metrics, info
