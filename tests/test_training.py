"""Loss composition, evaluation, the training loop contract, and
checkpoint round trips."""

import json

import numpy as np
import pytest

from timecaps.data import Dataset, LabeledSignal
from timecaps.errors import CheckpointError, ConfigError, TrainingError
from timecaps.model import init_params, model_forward
from timecaps.optim import AdamState, adam_step
from timecaps.tensor import Tensor
from timecaps.training import (
    EVAL_CHUNK,
    TrainConfig,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    total_loss,
    train,
)


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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
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
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in the conv backward
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

    def test_batch_gradient_is_mean_of_example_gradients(self, tiny_cfg, rng):
        # one epoch of 5 rows in batches of 2 (uneven last batch) must equal
        # Adam on per-example gradients averaged by hand
        ds = small_dataset(rng, tiny_cfg, per_class=2)
        sigs = ds.signals[:3] + ds.signals[2:4]
        ds = Dataset(sigs, tiny_cfg.L, tiny_cfg.num_classes)
        tcfg = TrainConfig(epochs=1, batch_size=2, seed=4)
        out, _ = train(init_params(tiny_cfg, seed=2), ds, ds, tcfg)

        params = init_params(tiny_cfg, seed=2)
        state = AdamState.for_params(params.tensors(), lr=tcfg.lr)
        order = np.random.default_rng(tcfg.seed).permutation(len(ds))
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
            params = params.replace(new_tensors)
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
            fwd2 = model_forward(x, params.replace(new_tensors), tiny_cfg, mask_class=0)
            after = total_loss(fwd2, x, 0, tcfg).item()
            decreases += int(after < base)
        assert decreases >= 0.95 * trials


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
        self.rewrite(p, lambda h: h.update(version=2))
        with pytest.raises(CheckpointError, match="version 2"):
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
