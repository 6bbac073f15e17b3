"""Loss composition, evaluation, the training loop contract, and
checkpoint round trips."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from timecaps import training
from timecaps.data import Dataset, LabeledSignal
from timecaps.errors import CheckpointError, ConfigError, TrainingError
from timecaps.model import ModelParams, classify, init_params, model_forward
from timecaps.optim import AdamState, adam_step
from timecaps.tensor import Tensor, no_grad
from timecaps.training import (
    EVAL_CHUNK,
    TrainConfig,
    evaluate,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
    total_loss,
    train,
)


def write_v1_checkpoint(params, path):
    """Write ``params`` as a version 1 file: no normalize field, vote kernel
    output channels in (parent, dim) order and class weights as (N,
    num_classes, a_s, a_sig)."""
    cfg = params.config
    split = {"cell_a_votes": (cfg.c_sa, cfg.a_sa), "cell_b_votes": (cfg.c_sb, cfg.a_sb)}
    manifest, blobs, offset = [], [], 0
    for name, p in params.items():
        data = p.data
        if name == "class_weights":
            data = data.transpose(0, 2, 1, 3)
        elif name in split:
            parents, dim = split[name]
            cout, g, width = data.shape
            data = data.reshape(dim, parents, g, width).transpose(1, 0, 2, 3).reshape(cout, g, width)
        blobs.append(np.ascontiguousarray(data, dtype="<f8").tobytes())
        manifest.append({"name": name, "shape": list(data.shape), "offset": offset})
        offset += len(blobs[-1])
    header = {"format": "timecaps-checkpoint", "version": 1, "config": cfg.to_dict(),
              "tensors": manifest}
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + b"".join(blobs))


def small_dataset(rng, cfg, per_class=6):
    sigs = [LabeledSignal(rng.standard_normal(cfg.L), c)
            for c in range(cfg.num_classes) for _ in range(per_class)]
    return Dataset(sigs, cfg.L, cfg.num_classes)


class TestTotalLoss:
    def test_zero_weight_reduces_to_margin(self, tiny_cfg, rng):
        params = init_params(tiny_cfg, seed=0)
        x = Tensor(rng.standard_normal(tiny_cfg.L))
        fwd = model_forward(x, params, tiny_cfg, mask_class=0)
        cfg = TrainConfig(recon_weight=0.0)
        from timecaps.capsules import margin_loss

        expected = margin_loss(fwd.class_lengths, 0).item()
        assert total_loss(fwd, x, 0, cfg).item() == pytest.approx(expected, abs=0)

    def test_weighted_sum_arithmetic(self, tiny_cfg, rng):
        # margin 0.25 + 0.0005 * mse 2.0 = 0.251, assembled from stub tensors
        from timecaps.model import ForwardOutput

        lengths = Tensor(np.array([0.4, 0.05]))
        recon = Tensor(np.array([2.0, 0.0]))
        target = Tensor(np.zeros(2))
        fwd = ForwardOutput(class_capsules=Tensor(np.zeros((2, 2))),
                            class_lengths=lengths, reconstruction=recon, mask_class=0)
        out = total_loss(fwd, target, 0, TrainConfig())
        assert out.item() == pytest.approx(0.251, abs=1e-12)


class TestEvaluate:
    def test_confusion_totals(self, tiny_cfg, rng):
        params = init_params(tiny_cfg, seed=0)
        ds = small_dataset(rng, tiny_cfg)
        acc, confusion = evaluate(params, ds)
        assert confusion.sum() == len(ds)
        assert confusion.shape == (2, 2)
        assert 0.0 <= acc <= 1.0
        assert acc == confusion.trace() / len(ds)

    def test_row_sums_match_class_counts(self, tiny_cfg, rng):
        params = init_params(tiny_cfg, seed=1)
        ds = small_dataset(rng, tiny_cfg, per_class=5)
        _, confusion = evaluate(params, ds)
        assert list(confusion.sum(axis=1)) == list(ds.class_counts())

    def test_order_invariance(self, tiny_cfg, rng):
        params = init_params(tiny_cfg, seed=0)
        ds = small_dataset(rng, tiny_cfg)
        acc1, conf1 = evaluate(params, ds)
        shuffled = Dataset(list(reversed(ds.signals)), ds.L, ds.num_classes)
        acc2, conf2 = evaluate(params, shuffled)
        assert acc1 == acc2
        assert np.array_equal(conf1, conf2)

    def test_batched_predictions_match_per_row(self, tiny_cfg, rng):
        # 21 rows: one full chunk of EVAL_CHUNK plus a partial one
        params = init_params(tiny_cfg, seed=0)
        sigs = [LabeledSignal(rng.standard_normal(tiny_cfg.L), i % 2) for i in range(21)]
        ds = Dataset(sigs, tiny_cfg.L, 2)
        assert len(ds) % EVAL_CHUNK != 0 and len(ds) > EVAL_CHUNK
        per_row = [model_forward(Tensor(sig.samples), params, tiny_cfg).predicted_class()
                   for sig in sigs]
        assert len(set(per_row)) == 2  # both classes predicted, so the check has teeth
        for sig, pred in zip(sigs, per_row):
            _, one = evaluate(params, Dataset([sig], tiny_cfg.L, 2))
            assert one[sig.label, pred] == 1
        expected = np.zeros((2, 2), dtype=int)
        for sig, pred in zip(sigs, per_row):
            expected[sig.label, pred] += 1
        acc, confusion = evaluate(params, ds)
        assert np.array_equal(confusion, expected)
        assert acc == np.trace(expected) / len(ds)

    def test_empty_dataset_rejected(self, tiny_cfg):
        params = init_params(tiny_cfg, seed=0)
        with pytest.raises(ValueError):
            evaluate(params, Dataset([], 32, 2))


class TestTrainLoop:
    def test_zero_epochs_is_identity(self, tiny_cfg, rng):
        params = init_params(tiny_cfg, seed=0)
        before = {k: v.data.copy() for k, v in params.items()}
        ds = small_dataset(rng, tiny_cfg)
        out, report = train(params, ds, ds, TrainConfig(epochs=0, seed=0))
        assert report.epochs == []
        for k, v in out.items():
            assert np.array_equal(v.data, before[k])

    @pytest.mark.parametrize("empty", ["train", "test"])
    def test_empty_split_rejected_before_epoch_one(self, tiny_cfg, rng, empty):
        # negative control: an empty split used to run a whole epoch, then
        # fail in evaluate() with a ValueError
        params = init_params(tiny_cfg, seed=0)
        rows, none = small_dataset(rng, tiny_cfg), Dataset([], tiny_cfg.L, tiny_cfg.num_classes)
        splits = (none, rows) if empty == "train" else (rows, none)
        logged = []
        with pytest.raises(ConfigError, match="both splits need rows"):
            train(params, *splits, TrainConfig(epochs=1, batch_size=4, seed=0), log=logged.append)
        assert logged == []

    def test_length_mismatch_rejected(self, tiny_cfg, rng):
        params = init_params(tiny_cfg, seed=0)
        bad = Dataset([LabeledSignal(rng.standard_normal(16), 0),
                       LabeledSignal(rng.standard_normal(16), 1)], 16, 2)
        with pytest.raises(ConfigError):
            train(params, bad, bad, TrainConfig(epochs=1))

    def test_one_epoch_changes_params_and_reports(self, tiny_cfg, rng):
        params = init_params(tiny_cfg, seed=0)
        ds = small_dataset(rng, tiny_cfg)
        out, report = train(params, ds, ds, TrainConfig(epochs=1, batch_size=4, seed=0))
        assert len(report.epochs) == 1
        assert report.confusion is not None
        assert not np.array_equal(out["front_kernels"].data, params["front_kernels"].data)

    def test_deterministic_given_seed(self, tiny_cfg, rng):
        ds = small_dataset(rng, tiny_cfg)
        runs = []
        for _ in range(2):
            params = init_params(tiny_cfg, seed=3)
            out, report = train(params, ds, ds, TrainConfig(epochs=2, batch_size=4, seed=3))
            runs.append((out, report))
        for k in runs[0][0].names():
            assert np.array_equal(runs[0][0][k].data, runs[1][0][k].data)
        for a, b in zip(runs[0][1].epochs, runs[1][1].epochs):
            assert a.margin_loss == b.margin_loss
            assert a.test_accuracy == b.test_accuracy

    def test_non_finite_loss_raises_naming_epoch_and_batch(self, tiny_cfg, rng):
        # negative control: a row of huge samples overflows squash to NaN in
        # whichever batch holds it; training must stop there, not carry NaN
        # weights on
        sigs = [LabeledSignal(rng.standard_normal(tiny_cfg.L), c % 2) for c in range(8)]
        sigs[5] = LabeledSignal(np.full(tiny_cfg.L, 1e200), 1)
        ds = Dataset(sigs, tiny_cfg.L, 2)
        order = np.random.default_rng(0).permutation(len(ds))
        batch = int(np.where(order == 5)[0][0]) // 4 + 1
        with pytest.raises(TrainingError, match=f"epoch 1, batch {batch}"):
            train(init_params(tiny_cfg, seed=0), ds, ds, TrainConfig(epochs=2, batch_size=4, seed=0))

    @pytest.mark.usefixtures("inf_front_conv_gradient")
    def test_non_finite_gradient_raises_naming_epoch_batch_and_tensor(self, tiny_cfg, rng):
        # negative control: the batch holding the row of 1e100 samples keeps a
        # finite loss (~1e196), but the patched front convolution's backward
        # makes the gradient of its kernels inf; training must stop at that
        # batch, not take an Adam step on it
        sigs = [LabeledSignal(rng.standard_normal(tiny_cfg.L), c % 2) for c in range(8)]
        sigs[5] = LabeledSignal(1e100 * np.sin(np.arange(tiny_cfg.L)), 1)
        ds = Dataset(sigs, tiny_cfg.L, 2)
        order = np.random.default_rng(0).permutation(len(ds))
        batch = int(np.where(order == 5)[0][0]) // 4 + 1
        with pytest.raises(TrainingError,
                           match=f"non-finite gradient of 'front_kernels' at epoch 1, batch {batch} "):
            train(init_params(tiny_cfg, seed=0), ds, ds, TrainConfig(epochs=2, batch_size=4, seed=0))

    @pytest.mark.parametrize("lr_decay", [1.0, 0.5])
    def test_batch_gradient_is_mean_of_example_gradients(self, tiny_cfg, rng, lr_decay):
        # two epochs of 5 rows in batches of 2 (uneven last batch) must equal
        # Adam on per-example gradients averaged by hand, at the decayed rate
        ds = small_dataset(rng, tiny_cfg, per_class=2)
        sigs = ds.signals[:3] + ds.signals[2:4]
        ds = Dataset(sigs, tiny_cfg.L, tiny_cfg.num_classes)
        tcfg = TrainConfig(epochs=2, batch_size=2, seed=4, lr_decay=lr_decay)
        out, _ = train(init_params(tiny_cfg, seed=2), ds, ds, tcfg)

        params = init_params(tiny_cfg, seed=2)
        state = AdamState.for_params(params.tensors(), lr=tcfg.lr)
        shuffle = np.random.default_rng(tcfg.seed)
        for epoch in range(1, tcfg.epochs + 1):
            state.lr = tcfg.lr * lr_decay ** (epoch - 1)
            order = shuffle.permutation(len(ds))
            for lo in range(0, len(order), tcfg.batch_size):
                batch = order[lo : lo + tcfg.batch_size]
                grads = {k: np.zeros_like(p.data) for k, p in params.items()}
                for idx in batch:
                    params.zero_grad()
                    sig = ds.signals[int(idx)]
                    x = Tensor(sig.samples)
                    total_loss(model_forward(x, params, tiny_cfg, mask_class=sig.label),
                               x, sig.label, tcfg).backward()
                    for k, p in params.items():
                        if p.grad is not None:
                            grads[k] += p.grad / len(batch)
                new_tensors, state = adam_step(params.tensors(), grads, state)
                params = ModelParams(tiny_cfg, new_tensors)
        for k in params.names():
            assert np.allclose(out[k].data, params[k].data, rtol=1e-9, atol=1e-12), k

    def test_single_adam_step_usually_decreases_loss(self, tiny_cfg):
        # one bias-corrected step on one example's averaged gradient
        decreases = 0
        trials = 100
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            params = init_params(tiny_cfg, seed=seed)
            x = Tensor(rng.standard_normal(tiny_cfg.L))
            tcfg = TrainConfig(lr=0.001)
            fwd = model_forward(x, params, tiny_cfg, mask_class=0)
            loss = total_loss(fwd, x, 0, tcfg)
            base = loss.item()
            loss.backward()
            grads = {k: (p.grad if p.grad is not None else np.zeros_like(p.data))
                     for k, p in params.items()}
            state = AdamState.for_params(params.tensors(), lr=tcfg.lr)
            new_tensors, _ = adam_step(params.tensors(), grads, state)
            fwd2 = model_forward(x, ModelParams(tiny_cfg, new_tensors), tiny_cfg, mask_class=0)
            after = total_loss(fwd2, x, 0, tcfg).item()
            decreases += int(after < base)
        assert decreases >= 0.95 * trials


# The toy config on 33 synthetic rows; ``toy_run(epochs)`` returns the
# trained parameters.  The same code runs in child processes and in this one.
TOY_RUN = """
from timecaps.data import synth_waveforms
from timecaps.model import ModelConfig, init_params
from timecaps.training import TrainConfig, save_checkpoint, train

cfg = ModelConfig.toy()
rows = synth_waveforms(11, cfg.L, 0.1, seed=3)


def toy_run(epochs):
    return train(init_params(cfg, seed=0), rows, rows, TrainConfig(epochs=epochs, seed=0))[0]
"""

COUNT_FAULTS = """
import resource

faults = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    toy_run(1)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults)
"""


def run_child(code, **env):
    """Run ``code`` in a fresh ``python -c`` that imports this checkout's
    package, with ``env`` added to the environment; returns its stdout."""
    src = str(Path(training.__file__).resolve().parents[1])
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestFreshProcess:
    def test_later_train_calls_take_few_page_faults(self):
        # negative control: glibc handed each batch's freed tape back to the
        # kernel and faulted it in again in the next, 770-950 minor faults
        # per call here.  A fresh process, because earlier tests in this
        # one can raise glibc's dynamic thresholds.  The heap can still grow
        # by a megabyte (about 250 faults) in one of the first calls while
        # its layout settles, so the median of the calls after the first is
        # checked.
        pytest.importorskip("resource")
        if not training._keep_freed_memory():
            pytest.skip("mallopt did not apply (not glibc)")
        faults = json.loads(run_child(TOY_RUN + COUNT_FAULTS))
        assert np.median(faults[1:]) <= 100, faults

    def test_checkpoint_bytes_equal_across_processes_and_blas_threads(self, tmp_path):
        # the same seeded run in this process and in two children, BLAS on
        # one and on two threads, writes the same bytes
        paths = {name: tmp_path / f"{name}.ckpt" for name in ("here", "1", "2")}
        save = "\nsave_checkpoint(toy_run(2), {!r})\n"
        exec(TOY_RUN + save.format(str(paths["here"])), {})
        for threads in ("1", "2"):
            run_child(TOY_RUN + save.format(str(paths[threads])), OPENBLAS_NUM_THREADS=threads)
        assert paths["1"].read_bytes() == paths["2"].read_bytes() == paths["here"].read_bytes()


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tiny_cfg, tmp_path):
        params = init_params(tiny_cfg, seed=0)
        p1 = tmp_path / "m.ckpt"
        p2 = tmp_path / "m2.ckpt"
        save_checkpoint(params, p1)
        loaded = load_checkpoint(p1)
        assert loaded.config == tiny_cfg
        for k in params.names():
            assert np.array_equal(loaded[k].data, params[k].data)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @staticmethod
    def traced_peak(call) -> int:
        """The peak of the memory traced while ``call()`` runs, in bytes."""
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_save_makes_no_copy_of_the_parameters(self, toy_cfg, tmp_path):
        # negative control: the save built every tensor's bytes before
        # writing them, a peak of 1.01x the payload
        params = init_params(toy_cfg, seed=7)
        payload = sum(p.data.nbytes for p in params.tensors().values())
        assert self.traced_peak(lambda: save_checkpoint(params, tmp_path / "m.ckpt")) < 0.5 * payload

    def test_read_holds_the_parameters_once(self, toy_cfg, tmp_path):
        # negative control: the load read the whole payload, sliced a bytes
        # copy of each tensor and copied that again, a peak of 2.08x the
        # payload
        params = init_params(toy_cfg, seed=7)
        payload = sum(p.data.nbytes for p in params.tensors().values())
        p = tmp_path / "m.ckpt"
        save_checkpoint(params, p)
        assert self.traced_peak(lambda: read_checkpoint(p)) < 1.5 * payload

    def test_recorded_normalize_round_trips(self, tiny_cfg, tmp_path):
        p1, p2 = tmp_path / "m.ckpt", tmp_path / "m2.ckpt"
        save_checkpoint(init_params(tiny_cfg, seed=0), p1, normalize="minmax")
        ckpt = read_checkpoint(p1)
        assert ckpt.normalize == "minmax"
        save_checkpoint(ckpt.params, p2, normalize=ckpt.normalize)
        assert p1.read_bytes() == p2.read_bytes()
        save_checkpoint(ckpt.params, p2)
        assert read_checkpoint(p2).normalize is None

    def test_v1_file_loads_in_the_current_layouts(self, tiny_cfg, tmp_path, rng):
        # a_sa == num_classes, so the v1 class weights' shape is also a valid
        # v2 shape, and two parents per cell, so the two vote kernel channel
        # orders differ: read without the conversion, this file would load
        # without an error and give other class lengths
        cfg = dataclasses.replace(tiny_cfg, num_classes=tiny_cfg.a_sa, c_sa=2, c_sb=2)
        params = init_params(cfg, seed=4)
        p = tmp_path / "v1.ckpt"
        write_v1_checkpoint(params, p)
        ckpt = read_checkpoint(p)
        assert ckpt.normalize is None
        for k in params.names():
            assert np.array_equal(ckpt.params[k].data, params[k].data), k
        x = Tensor(rng.standard_normal((5, cfg.L)))
        with no_grad():
            want = classify(x, params, cfg).class_lengths.data
            got = classify(x, ckpt.params, cfg).class_lengths.data
        assert np.array_equal(got, want)

    def test_v1_file_in_the_v2_layout_is_rejected(self, tiny_cfg, tmp_path):
        # a v1 header over v2-shaped class weights (a_sa != num_classes)
        p = self.saved(tiny_cfg, tmp_path)
        self.rewrite(p, lambda h: (h.update(version=1), h.pop("normalize")))
        with pytest.raises(CheckpointError, match="class_weights"):
            load_checkpoint(p)

    @pytest.mark.parametrize("edit", [lambda h: h.pop("normalize"),
                                      lambda h: h.update(normalize="robust")],
                             ids=["missing", "unknown"])
    def test_bad_normalize_field(self, tiny_cfg, tmp_path, edit):
        p = self.saved(tiny_cfg, tmp_path)
        self.rewrite(p, edit)
        with pytest.raises(CheckpointError, match="normalize"):
            load_checkpoint(p)

    def test_truncated_payload(self, tiny_cfg, tmp_path):
        params = init_params(tiny_cfg, seed=0)
        p = tmp_path / "m.ckpt"
        save_checkpoint(params, p)
        blob = p.read_bytes()
        p.write_bytes(blob[:-16])
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_tampered_header(self, tiny_cfg, tmp_path):
        params = init_params(tiny_cfg, seed=0)
        p = tmp_path / "m.ckpt"
        save_checkpoint(params, p)
        header, _, payload = p.read_bytes().partition(b"\n")
        p.write_bytes(header.replace(b'"front_kernels"', b'"front_kernelz"') + b"\n" + payload)
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    @staticmethod
    def rewrite(path, edit_header=None, payload_suffix=b""):
        header, _, payload = path.read_bytes().partition(b"\n")
        header = json.loads(header)
        if edit_header is not None:
            edit_header(header)
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload + payload_suffix)

    def saved(self, tiny_cfg, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(init_params(tiny_cfg, seed=0), p)
        return p

    def test_unknown_version(self, tiny_cfg, tmp_path):
        p = self.saved(tiny_cfg, tmp_path)
        self.rewrite(p, lambda h: h.update(version=3))
        with pytest.raises(CheckpointError, match="version 3"):
            load_checkpoint(p)

    def test_trailing_payload_bytes(self, tiny_cfg, tmp_path):
        p = self.saved(tiny_cfg, tmp_path)
        self.rewrite(p, payload_suffix=bytes(8))
        with pytest.raises(CheckpointError, match="8 trailing payload bytes"):
            load_checkpoint(p)

    def test_overlapping_offsets(self, tiny_cfg, tmp_path):
        p = self.saved(tiny_cfg, tmp_path)
        self.rewrite(p, lambda h: h["tensors"][2].update(offset=h["tensors"][2]["offset"] - 8))
        with pytest.raises(CheckpointError, match="overlaps"):
            load_checkpoint(p)

    def test_gap_between_tensors(self, tiny_cfg, tmp_path):
        p = self.saved(tiny_cfg, tmp_path)
        self.rewrite(p, lambda h: h["tensors"][2].update(offset=h["tensors"][2]["offset"] + 8))
        with pytest.raises(CheckpointError, match="gap"):
            load_checkpoint(p)

    def test_non_numeric_decoder_width(self, tiny_cfg, tmp_path):
        p = self.saved(tiny_cfg, tmp_path)
        self.rewrite(p, lambda h: h["config"].update(decoder_fc=["x", 16]))
        with pytest.raises(CheckpointError, match="decoder_fc"):
            load_checkpoint(p)

    @pytest.mark.parametrize("manifest", [[1, 2], 5])
    def test_malformed_manifest(self, tiny_cfg, tmp_path, manifest):
        p = self.saved(tiny_cfg, tmp_path)
        self.rewrite(p, lambda h: h.update(tensors=manifest))
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter(self, tiny_cfg, tmp_path, bad):
        p = self.saved(tiny_cfg, tmp_path)
        header, _, payload = p.read_bytes().partition(b"\n")
        p.write_bytes(header + b"\n" + np.array([bad], dtype="<f8").tobytes() + payload[8:])
        with pytest.raises(CheckpointError, match="'front_kernels' holds non-finite values"):
            load_checkpoint(p)

    def test_not_a_checkpoint(self, tmp_path):
        p = tmp_path / "m.ckpt"
        p.write_bytes(b"{}\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_evaluate_after_load_identical(self, tiny_cfg, tmp_path, rng):
        params = init_params(tiny_cfg, seed=0)
        ds = small_dataset(rng, tiny_cfg)
        acc1, conf1 = evaluate(params, ds)
        p = tmp_path / "m.ckpt"
        save_checkpoint(params, p)
        acc2, conf2 = evaluate(load_checkpoint(p), ds)
        assert acc1 == acc2
        assert np.array_equal(conf1, conf2)


class TestTrainConfigValidation:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 35
        assert cfg.lr == 0.001
        assert cfg.lambda_margin == 0.5
        assert cfg.recon_weight == 0.0005

    def test_bad_lambda(self):
        with pytest.raises(ConfigError):
            TrainConfig(lambda_margin=0.0)

    def test_bad_lr(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=-1.0)

    @pytest.mark.parametrize("key,value", [("epochs", "5"), ("epochs", 2.0), ("batch_size", True),
                                           ("seed", None), ("lr", None), ("recon_weight", "0")])
    def test_mistyped_value_names_the_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            TrainConfig(**{key: value})

    def test_negative_seed(self):
        # negative control: a negative seed reached np.random.default_rng in train()
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -1"):
            TrainConfig(seed=-1)
