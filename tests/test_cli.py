"""End-to-end command-line behavior: exit codes, file artifacts, overrides."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import timecaps
from timecaps import cli
from timecaps.cli import main
from timecaps.training import load_checkpoint
from test_training import write_v1_checkpoint


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

    def test_negative_seed_exits_2_writing_nothing(self, tmp_path, capsys):
        # negative control: the seed reached np.random.default_rng, a traceback
        out = tmp_path / "s.csv"
        assert main(["synth", "--out", str(out), "--seed", "-1", "--num-per-class", "2"]) == 2
        assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        # negative control: `python -m timecaps` found no timecaps.__main__
        src = str(Path(timecaps.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / "x.csv"
        proc = subprocess.run([sys.executable, "-m", "timecaps", "synth", "--out", str(out),
                               "--num-per-class", "2", "--length", "16"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 6


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

    def test_empty_test_split_exits_2_writing_nothing(self, tmp_path, capsys):
        # negative control: with one row per class every row stays in
        # training, and train used to run an epoch, then exit 1 with a
        # traceback from evaluate(), leaving an empty test_split.csv
        rng = np.random.default_rng(0)
        data = tmp_path / "one_per_class.csv"
        data.write_text("".join(f"{c}," + ",".join(f"{v:.6f}" for v in rng.standard_normal(32)) + "\n"
                                for c in range(3)))
        out_dir = tmp_path / "run"
        cfg = smoke_config(tmp_path, data, out_dir)
        with pytest.warns(UserWarning, match="keeping all in train"):
            assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "3 training and 0 test rows" in err and "rows per class: 1, 1, 1" in err
        assert not out_dir.exists()

    def test_interrupted_test_split_write_leaves_no_file(self, tmp_path, synth_csv, monkeypatch):
        # negative control: test_split.csv used to be written in place, so a
        # write cut short left a truncated file under the final name
        def save_then_fail(dataset, path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("0,1.5")
            raise OSError("disk full")

        monkeypatch.setattr("timecaps.cli.save_csv", save_then_fail)
        out_dir = tmp_path / "run"
        cfg = smoke_config(tmp_path, synth_csv, out_dir)
        assert main(["train", "--config", str(cfg)]) == 2
        assert not (out_dir / "test_split.csv").exists()
        assert not (out_dir / "model.ckpt").exists()

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

    @pytest.mark.parametrize("section,key,value", [
        (None, "test_fraction", "abc"),
        (None, "min_class_count", "x"),
        (None, "split_seed", "q"),
        (None, "out", 5),
        ("train", "epochs", "5"),
        ("train", "lr", None),
        ("model", "decoder_fc", 5),
        (None, "min_class_count", 2.7),
        (None, "split_seed", 1.9),
        (None, "min_class_count", "3"),
        (None, "split_seed", True),
        (None, "test_fraction", "0.3"),
        (None, "split_seed", -1),
        ("train", "seed", -1),
    ])
    def test_mistyped_value_exits_2_naming_the_key(self, tmp_path, synth_csv, capsys,
                                                    section, key, value):
        # negative control: each of these crashed with a traceback and exit 1,
        # or was truncated or converted (2.7 -> 2, "3" -> 3, true -> 1) without a word
        out_dir = tmp_path / "run7"
        cfg_path = smoke_config(tmp_path, synth_csv, out_dir)
        cfg = json.loads(cfg_path.read_text())
        (cfg if section is None else cfg[section])[key] = value
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert f"error: {key} must be" in capsys.readouterr().err
        assert not (out_dir / "model.ckpt").exists()

    def test_negative_seed_flag_exits_2(self, tmp_path, synth_csv, capsys):
        # negative control: the seed reached np.random.default_rng, a traceback
        out_dir = tmp_path / "run"
        cfg_path = smoke_config(tmp_path, synth_csv, out_dir)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path), "--seed", "-1"]) == 2
        assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out_dir.exists()


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


class TestRecordedNormalization:
    """``train`` records its normalization in the checkpoint; ``eval`` and
    ``reconstruct`` apply it by default and refuse a conflicting flag."""

    @pytest.fixture
    def minmax_run(self, tmp_path, synth_csv):
        out_dir = tmp_path / "run"
        path = smoke_config(tmp_path, synth_csv, out_dir)
        cfg = json.loads(path.read_text())
        cfg["normalize"] = "minmax"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 0
        return out_dir

    @staticmethod
    def spy_modes(monkeypatch):
        modes = []
        real = cli.normalize
        monkeypatch.setattr(cli, "normalize", lambda ds, mode: modes.append(mode) or real(ds, mode))
        return modes

    @staticmethod
    def run(command, ckpt, data, out, *flags):
        return main([command, "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out),
                     *flags])

    @pytest.mark.parametrize("command", ["eval", "reconstruct"])
    @pytest.mark.parametrize("flags", [(), ("--normalize", "minmax")], ids=["default", "same"])
    def test_recorded_mode_is_applied(self, tmp_path, minmax_run, monkeypatch, command, flags):
        # negative control: both commands applied zscore to a minmax model
        modes = self.spy_modes(monkeypatch)
        assert self.run(command, minmax_run / "model.ckpt", minmax_run / "test_split.csv",
                        tmp_path / "o", *flags) == 0
        assert modes == ["minmax"]

    @pytest.mark.parametrize("command", ["eval", "reconstruct"])
    def test_conflicting_flag_exits_2_naming_both_modes(self, tmp_path, minmax_run, capsys,
                                                        command):
        capsys.readouterr()
        assert self.run(command, minmax_run / "model.ckpt", minmax_run / "test_split.csv",
                        tmp_path / "o", "--normalize", "zscore") == 2
        err = capsys.readouterr().err
        assert "--normalize zscore" in err and "minmax" in err
        assert not (tmp_path / "o").exists()

    def test_v1_checkpoint_keeps_the_zscore_default(self, tmp_path, minmax_run, monkeypatch):
        v1 = tmp_path / "v1.ckpt"
        write_v1_checkpoint(load_checkpoint(minmax_run / "model.ckpt"), v1)
        modes = self.spy_modes(monkeypatch)
        data = minmax_run / "test_split.csv"
        assert self.run("eval", v1, data, tmp_path / "o") == 0
        assert self.run("eval", v1, data, tmp_path / "o", "--normalize", "none") == 0
        assert modes == ["zscore"]  # "none" skips normalize()


class TestGradcheckCommand:
    def test_passes_on_tiny_config(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if "max_rel_error" in ln]
        assert len(lines) >= 6
        for comp in ("conv1d", "conv2d", "deconv1d", "squash", "routing", "matmul", "full_model",
                     "routing_many_blocks", "class_votes"):
            assert any(comp in ln for ln in lines)

    def test_fault_injection_negative_control(self, capsys):
        assert main(["gradcheck", "--inject-fault", "squash"]) == 1

    def test_unknown_model_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "gc.json"
        cfg.write_text(json.dumps({"model": {"bogus": 1}}))
        assert main(["gradcheck", "--config", str(cfg)]) == 2
        assert "unknown model config keys: ['bogus']" in capsys.readouterr().err


class TestExitCodes:
    def test_checkpoint_missing(self, tmp_path, synth_csv):
        assert main(["eval", "--checkpoint", str(tmp_path / "no.ckpt"),
                     "--data", str(synth_csv)]) == 2

    def test_corrupt_checkpoint(self, tmp_path, synth_csv):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint\n")
        assert main(["eval", "--checkpoint", str(bad), "--data", str(synth_csv)]) == 2

    def test_non_finite_checkpoint_parameter_exits_2(self, tmp_path, synth_csv, capsys):
        out_dir = tmp_path / "run"
        main(["train", "--config", str(smoke_config(tmp_path, synth_csv, out_dir))])
        ckpt = out_dir / "model.ckpt"
        header, _, payload = ckpt.read_bytes().partition(b"\n")
        ckpt.write_bytes(header + b"\n" + np.array([np.nan], dtype="<f8").tobytes() + payload[8:])
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(synth_csv),
                     "--out", str(tmp_path / "e")]) == 2
        assert "'front_kernels' holds non-finite values" in capsys.readouterr().err

    def test_empty_dataset_eval(self, tmp_path, synth_csv):
        out_dir = tmp_path / "run"
        cfg = smoke_config(tmp_path, synth_csv, out_dir)
        main(["train", "--config", str(cfg)])
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["eval", "--checkpoint", str(out_dir / "model.ckpt"),
                     "--data", str(empty)]) == 2

    def test_out_of_range_label_names_file_and_row(self, tmp_path, synth_csv, capsys):
        out_dir = tmp_path / "run"
        main(["train", "--config", str(smoke_config(tmp_path, synth_csv, out_dir))])
        data = tmp_path / "labels.csv"
        row = ",".join(["0.5"] * 32)
        data.write_text(f"0,{row}\n\n7,{row}\n")
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out_dir / "model.ckpt"), "--data", str(data),
                     "--out", str(tmp_path / "e")]) == 2
        assert f"error: {data}: row 3 has label 7, expected 0..2" in capsys.readouterr().err

    def test_synth_unwritable_path(self, tmp_path):
        # a path through a regular file cannot be created, even by root
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["synth", "--out", str(blocker / "x.csv"), "--num-per-class", "1"]) == 2
