"""End-to-end command-line behavior: exit codes, file artifacts, overrides."""

import json

import numpy as np
import pytest

from timecaps.cli import main


def smoke_config(tmp_path, data_path, out_dir, epochs=1):
    """A three-class model small enough for one-epoch CLI smoke runs."""
    cfg = {
        "model": {
            "L": 32, "k": 4, "g1": 3, "g2": 3, "g3": 3, "g_b": 3,
            "c_p": 2, "a_p": 4, "c_sa": 1, "a_sa": 4, "c_b": 1, "a_b": 4,
            "n": 4, "c_sb": 1, "a_sb": 4, "a_sig": 4, "num_classes": 3,
            "routing_iters": 3,
            "decoder_fc": [8, 16],
            "decoder_deconv": [[4, 2, 2], [2, 2, 2], [2, 2, 2], [2, 2, 2], [1, 1, 1]],
        },
        "train": {"epochs": epochs, "batch_size": 8, "seed": 1},
        "data": str(data_path),
        "out": str(out_dir),
        "test_fraction": 0.25,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def synth_csv(tmp_path):
    path = tmp_path / "synth.csv"
    code = main(["synth", "--out", str(path), "--num-per-class", "20",
                 "--length", "32", "--noise", "0.1", "--seed", "3"])
    assert code == 0
    return path


class TestSynthCommand:
    def test_default_row_count(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["synth", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 600

    def test_field_count(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["synth", "--out", str(out), "--length", "64", "--num-per-class", "2"])
        first = out.read_text().splitlines()[0]
        assert len(first.split(",")) == 65

    def test_seeded_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", "--out", str(a), "--seed", "5", "--num-per-class", "3"])
        main(["synth", "--out", str(b), "--seed", "5", "--num-per-class", "3"])
        assert a.read_bytes() == b.read_bytes()


class TestTrainCommand:
    def test_writes_artifacts(self, tmp_path, synth_csv):
        out_dir = tmp_path / "run"
        cfg = smoke_config(tmp_path, synth_csv, out_dir)
        assert main(["train", "--config", str(cfg)]) == 0
        assert (out_dir / "model.ckpt").exists()
        assert (out_dir / "report.json").exists()
        assert (out_dir / "confusion.csv").exists()
        assert (out_dir / "test_split.csv").exists()
        assert not list(out_dir.glob("*.partial"))
        report = json.loads((out_dir / "report.json").read_text())
        assert len(report["epochs"]) == 1

    def test_missing_dataset_exits_2_without_artifacts(self, tmp_path):
        out_dir = tmp_path / "run2"
        cfg = smoke_config(tmp_path, tmp_path / "nope.csv", out_dir)
        assert main(["train", "--config", str(cfg)]) == 2
        assert not (out_dir / "model.ckpt").exists()
        assert not (out_dir / "report.json").exists()

    def test_epochs_override_beats_file(self, tmp_path, synth_csv):
        out_dir = tmp_path / "run3"
        cfg = smoke_config(tmp_path, synth_csv, out_dir, epochs=3)
        assert main(["train", "--config", str(cfg), "--epochs", "1"]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert len(report["epochs"]) == 1

    def test_class_count_mismatch_exits_2(self, tmp_path, synth_csv):
        out_dir = tmp_path / "run4"
        cfg_path = smoke_config(tmp_path, synth_csv, out_dir)
        cfg = json.loads(cfg_path.read_text())
        cfg["model"]["num_classes"] = 7
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_non_finite_loss_exits_2_without_checkpoint(self, tmp_path, synth_csv, capsys):
        # negative control: un-normalized 1e200 samples overflow squash to NaN
        rows = synth_csv.read_text().splitlines()
        label = rows[0].split(",")[0]
        rows[0] = label + "," + ",".join(["1e200"] * 32)
        synth_csv.write_text("\n".join(rows) + "\n")
        out_dir = tmp_path / "run_nan"
        cfg_path = smoke_config(tmp_path, synth_csv, out_dir)
        cfg = json.loads(cfg_path.read_text())
        cfg["normalize"] = "none"
        cfg["test_fraction"] = 0.05
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "non-finite loss" in err and "epoch 1, batch" in err
        assert not (out_dir / "model.ckpt").exists()
        assert not (out_dir / "report.json").exists()

    @pytest.mark.usefixtures("inf_front_conv_gradient")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in the conv backward
    def test_non_finite_gradient_exits_2_without_checkpoint(self, tmp_path, synth_csv, capsys):
        # negative control: un-normalized 1e100 samples keep the loss finite,
        # and the patched front convolution's backward makes the gradient of
        # its kernels inf in their batch
        rows = synth_csv.read_text().splitlines()
        label = rows[0].split(",")[0]
        rows[0] = label + "," + ",".join(f"{1e100 * np.sin(i):.17g}" for i in range(32))
        synth_csv.write_text("\n".join(rows) + "\n")
        out_dir = tmp_path / "run_nan_grad"
        cfg_path = smoke_config(tmp_path, synth_csv, out_dir)
        cfg = json.loads(cfg_path.read_text())
        cfg["normalize"] = "none"
        cfg["test_fraction"] = 0.05
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "non-finite gradient of 'front_kernels' at epoch 1, batch" in err
        assert not (out_dir / "model.ckpt").exists()
        assert not (out_dir / "report.json").exists()

    def test_bad_config_key_exits_2(self, tmp_path, synth_csv):
        cfg_path = smoke_config(tmp_path, synth_csv, tmp_path / "run5")
        cfg = json.loads(cfg_path.read_text())
        cfg["model"]["unknown_knob"] = 1
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 2

    def test_routing_iters_is_a_model_key_only(self, tmp_path, synth_csv, capsys):
        # model.routing_iters is the one source; a train section copy is an
        # unknown key, not a second default that could disagree with it
        out_dir = tmp_path / "run6"
        cfg_path = smoke_config(tmp_path, synth_csv, out_dir)
        cfg = json.loads(cfg_path.read_text())
        cfg["train"]["routing_iters"] = 2
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert "unknown train config keys: ['routing_iters']" in capsys.readouterr().err
        assert not (out_dir / "model.ckpt").exists()


class TestEvalCommand:
    def test_eval_reproduces_training_test_accuracy(self, tmp_path, synth_csv):
        out_dir = tmp_path / "run"
        cfg = smoke_config(tmp_path, synth_csv, out_dir)
        assert main(["train", "--config", str(cfg)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        final_acc = report["epochs"][-1]["test_accuracy"]
        eval_dir = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(out_dir / "model.ckpt"),
                     "--data", str(out_dir / "test_split.csv"),
                     "--out", str(eval_dir)])
        assert code == 0
        confusion = np.loadtxt(eval_dir / "confusion.csv", delimiter=",", dtype=int, ndmin=2)
        acc = confusion.trace() / confusion.sum()
        assert acc == pytest.approx(final_acc, abs=0)

    def test_length_mismatch_exits_2(self, tmp_path, synth_csv):
        out_dir = tmp_path / "run"
        cfg = smoke_config(tmp_path, synth_csv, out_dir)
        main(["train", "--config", str(cfg)])
        other = tmp_path / "other.csv"
        main(["synth", "--out", str(other), "--length", "64", "--num-per-class", "2"])
        assert main(["eval", "--checkpoint", str(out_dir / "model.ckpt"),
                     "--data", str(other)]) == 2

    def test_accuracy_output_format(self, tmp_path, synth_csv, capsys):
        out_dir = tmp_path / "run"
        cfg = smoke_config(tmp_path, synth_csv, out_dir)
        main(["train", "--config", str(cfg)])
        capsys.readouterr()
        main(["eval", "--checkpoint", str(out_dir / "model.ckpt"),
              "--data", str(out_dir / "test_split.csv"), "--out", str(tmp_path / "e")])
        printed = capsys.readouterr().out
        import re

        assert re.search(r"accuracy=0\.\d{4}", printed)


class TestReconstructCommand:
    def test_writes_k_files(self, tmp_path, synth_csv):
        out_dir = tmp_path / "run"
        cfg = smoke_config(tmp_path, synth_csv, out_dir)
        main(["train", "--config", str(cfg)])
        rec_dir = tmp_path / "rec"
        code = main(["reconstruct", "--checkpoint", str(out_dir / "model.ckpt"),
                     "--data", str(out_dir / "test_split.csv"),
                     "--out", str(rec_dir), "--k", "3"])
        assert code == 0
        files = sorted(rec_dir.glob("recon_*.csv"))
        assert len(files) == 3
        for f in files:
            rows = f.read_text().strip().splitlines()
            assert len(rows) == 2
            assert len(rows[0].split(",")) == 32
            assert len(rows[1].split(",")) == 32

    def test_k_clamped_with_warning(self, tmp_path, synth_csv):
        out_dir = tmp_path / "run"
        cfg = smoke_config(tmp_path, synth_csv, out_dir)
        main(["train", "--config", str(cfg)])
        rec_dir = tmp_path / "rec2"
        with pytest.warns(UserWarning):
            code = main(["reconstruct", "--checkpoint", str(out_dir / "model.ckpt"),
                         "--data", str(out_dir / "test_split.csv"),
                         "--out", str(rec_dir), "--k", "100000"])
        assert code == 0

    def test_beats_white_noise_baseline(self, tmp_path, synth_csv):
        # reconstructions of training data should beat same-variance noise
        out_dir = tmp_path / "run_wn"
        cfg = smoke_config(tmp_path, synth_csv, out_dir, epochs=4)
        assert main(["train", "--config", str(cfg)]) == 0
        rec_dir = tmp_path / "rec_wn"
        assert main(["reconstruct", "--checkpoint", str(out_dir / "model.ckpt"),
                     "--data", str(synth_csv), "--out", str(rec_dir), "--k", "8"]) == 0
        rng = np.random.default_rng(0)
        recon_mse = []
        noise_mse = []
        for f in sorted(rec_dir.glob("recon_*.csv")):
            orig, recon = (np.array([float(v) for v in row.split(",")])
                           for row in f.read_text().strip().splitlines())
            recon_mse.append(np.mean((orig - recon) ** 2))
            noise = rng.standard_normal(orig.size) * orig.std()
            noise_mse.append(np.mean((orig - noise) ** 2))
        assert np.mean(recon_mse) < np.mean(noise_mse)


class TestGradcheckCommand:
    def test_passes_on_tiny_config(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if "max_rel_error" in ln]
        assert len(lines) >= 6
        for comp in ("conv1d", "conv2d", "deconv1d", "squash", "routing", "contract_batch2", "full_model"):
            assert any(comp in ln for ln in lines)

    def test_fault_injection_negative_control(self, capsys):
        assert main(["gradcheck", "--inject-fault", "squash"]) == 1


class TestExitCodes:
    def test_checkpoint_missing(self, tmp_path, synth_csv):
        assert main(["eval", "--checkpoint", str(tmp_path / "no.ckpt"),
                     "--data", str(synth_csv)]) == 2

    def test_corrupt_checkpoint(self, tmp_path, synth_csv):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint\n")
        assert main(["eval", "--checkpoint", str(bad), "--data", str(synth_csv)]) == 2

    def test_empty_dataset_eval(self, tmp_path, synth_csv):
        out_dir = tmp_path / "run"
        cfg = smoke_config(tmp_path, synth_csv, out_dir)
        main(["train", "--config", str(cfg)])
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["eval", "--checkpoint", str(out_dir / "model.ckpt"),
                     "--data", str(empty)]) == 2

    def test_synth_unwritable_path(self, tmp_path):
        # a path through a regular file cannot be created, even by root
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["synth", "--out", str(blocker / "x.csv"), "--num-per-class", "1"]) == 2
