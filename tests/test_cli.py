"""End-to-end command-line behavior: exit codes, file artifacts, overrides."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import timecaps
from timecaps import capsules, cli
from timecaps.cli import main
from timecaps.model import ModelConfig
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

    @pytest.mark.parametrize("flag,value,message", [
        ("--length", "4", "--length must be >= 8, got 4"),
        ("--num-per-class", "0", "--num-per-class must be >= 1, got 0"),
    ])
    def test_bad_size_exits_2_writing_nothing(self, tmp_path, capsys, flag, value, message):
        # negative control: synth_waveforms' ValueError escaped as a traceback and exit 1
        out = tmp_path / "new" / "s.csv"
        assert main(["synth", "--out", str(out), flag, value]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_noise_exits_2_writing_nothing(self, tmp_path, capsys, value):
        # negative control: each exited 0; -1 and nan were taken as no noise,
        # and inf wrote a file of inf samples that load_csv then refused
        out = tmp_path / "new" / "s.csv"
        assert main(["synth", "--out", str(out), "--noise", value]) == 2
        assert f"error: --noise must be a finite number >= 0, got {float(value)}" in capsys.readouterr().err
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

    def test_flat_row_trains(self, tmp_path, synth_csv):
        # negative control: a constant row normalizes to zeros, its class
        # capsules are zero vectors, and the gradient of their lengths was
        # NaN, so the run stopped with a non-finite gradient of
        # 'front_kernels' and exit 2
        rows = synth_csv.read_text().splitlines()
        rows[5] = rows[5].split(",")[0] + "," + ",".join(["3.0"] * 32)
        synth_csv.write_text("\n".join(rows) + "\n")
        out_dir = tmp_path / "run_flat"
        assert main(["train", "--config", str(smoke_config(tmp_path, synth_csv, out_dir, epochs=2))]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        losses = [value for epoch in report["epochs"] for value in epoch.values()
                  if isinstance(value, float)]
        assert len(losses) >= 2 and np.all(np.isfinite(losses))

    @pytest.mark.parametrize("mode", ["zscore", "minmax"])
    def test_row_at_the_float64_limit_trains(self, tmp_path, synth_csv, mode):
        # negative control: a row alternating +-1.7e308 overflowed the mean,
        # std or spread in normalize to inf, the row became NaN, and the run
        # stopped with "non-finite loss nan at epoch 1, batch <k>" and exit
        # 2, naming no row
        rows = synth_csv.read_text().splitlines()
        rows[5] = rows[5].split(",")[0] + "," + ",".join(["1.7e308", "-1.7e308"] * 16)
        synth_csv.write_text("\n".join(rows) + "\n")
        out_dir = tmp_path / "run_limit"
        cfg_path = smoke_config(tmp_path, synth_csv, out_dir)
        cfg = json.loads(cfg_path.read_text())
        cfg["normalize"] = mode
        cfg["test_fraction"] = 0.05
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        losses = [value for epoch in report["epochs"] for value in epoch.values()
                  if isinstance(value, float)]
        assert losses and np.all(np.isfinite(losses))

    def test_zero_epochs_names_only_written_files(self, tmp_path, synth_csv, capsys):
        # negative control: the closing line named a confusion.csv that no
        # epoch had evaluated and nothing wrote
        out_dir = tmp_path / "run0"
        cfg = smoke_config(tmp_path, synth_csv, out_dir)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--epochs", "0"]) == 0
        wrote = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("wrote ")]
        assert wrote == [f"wrote {out_dir / 'model.ckpt'}, {out_dir / 'report.json'}"]
        assert not (out_dir / "confusion.csv").exists()

    def test_negative_min_class_count_exits_2(self, tmp_path, synth_csv, capsys):
        # negative control: -3 was accepted and trained like 0
        out_dir = tmp_path / "run_mcc"
        cfg_path = smoke_config(tmp_path, synth_csv, out_dir)
        cfg = json.loads(cfg_path.read_text())
        cfg["min_class_count"] = -3
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert "error: min_class_count must be >= 0, got -3" in capsys.readouterr().err
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("key,value", [("normalise", "minmax"), ("test_fracton", 0.5)])
    def test_unknown_top_level_key_exits_2(self, tmp_path, synth_csv, capsys, key, value):
        # negative control: a misspelt top-level key was ignored, and the run
        # trained with the default it meant to change
        out_dir = tmp_path / "run8"
        cfg_path = smoke_config(tmp_path, synth_csv, out_dir)
        cfg = json.loads(cfg_path.read_text())
        cfg[key] = value
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert f"error: unknown run config keys: ['{key}']" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_readme_config_loads(self, tmp_path):
        # the README's example run config, read through the same loader as `train --config`
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.json"
        path.write_text(block, encoding="utf-8")
        cfg = cli.RunConfig.load(str(path), argparse.Namespace())
        raw = json.loads(block)
        assert cfg.model == ModelConfig.from_dict(raw.pop("model"))
        assert {key: getattr(cfg.train, key) for key in raw["train"]} == raw.pop("train")
        assert {key: getattr(cfg, key) for key in raw} == raw

    def test_negative_seed_flag_exits_2(self, tmp_path, synth_csv, capsys):
        # negative control: the seed reached np.random.default_rng, a traceback
        out_dir = tmp_path / "run"
        cfg_path = smoke_config(tmp_path, synth_csv, out_dir)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path), "--seed", "-1"]) == 2
        assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out_dir.exists()


class TestPartialFiles:
    """Each command removes the stale ``.partial`` files of its own outputs
    and leaves every other file alone."""

    UNRELATED = ("notes.partial", "download.iso.partial")

    def test_unrelated_partial_files_survive_every_command(self, tmp_path, monkeypatch):
        # negative control: every command deleted each *.partial file in its
        # output directory, for synth and eval (default --out .) the working one
        monkeypatch.chdir(tmp_path)
        for name in self.UNRELATED:
            Path(name).write_text("keep")
        commands = [
            ["synth", "--out", "w.csv", "--num-per-class", "20", "--length", "32", "--seed", "3"],
            ["train", "--config", str(smoke_config(tmp_path, "w.csv", "."))],
            ["eval", "--checkpoint", "model.ckpt", "--data", "test_split.csv"],
            ["reconstruct", "--checkpoint", "model.ckpt", "--data", "test_split.csv", "--k", "1"],
        ]
        for argv in commands:
            assert main(argv) == 0
            assert all(Path(name).exists() for name in self.UNRELATED), argv[0]
        assert Path("recon_000.csv").exists()

    def test_stale_partials_of_own_outputs_are_removed(self, tmp_path, synth_csv, monkeypatch):
        # removed at command start: before train() runs, and for a
        # reconstruction file this run does not write again
        out_dir = tmp_path / "run"
        out_dir.mkdir()
        stale = out_dir / "model.ckpt.partial"
        stale.write_text("stale")
        seen = []
        real_train = cli.train
        monkeypatch.setattr(cli, "train", lambda *a, **kw: seen.append(stale.exists()) or real_train(*a, **kw))
        assert main(["train", "--config", str(smoke_config(tmp_path, synth_csv, out_dir))]) == 0
        assert seen == [False]
        stale_recon = out_dir / "recon_007.csv.partial"
        stale_recon.write_text("stale")
        assert main(["reconstruct", "--checkpoint", str(out_dir / "model.ckpt"),
                     "--data", str(out_dir / "test_split.csv"), "--out", str(out_dir), "--k", "1"]) == 0
        assert not stale_recon.exists()
        assert not list(out_dir.glob("*.partial"))


class TestReadmeQuickStart:
    """The README's quick-start commands, run as documented at a smaller size."""

    README = Path(__file__).resolve().parents[1] / "README.md"
    # argparse keeps the last value of a flag given twice
    SMALLER = {"synth": ["--num-per-class", "20"], "train": ["--epochs", "1"]}

    def quick_start(self) -> list[list[str]]:
        text = self.README.read_text(encoding="utf-8")
        section = text.split("## Quick start", 1)[1]
        block = section.split("```bash\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        return [shlex.split(ln)[1:] for ln in lines if ln.startswith("timecaps ")]

    def train_outputs(self) -> list[str]:
        text = self.README.read_text(encoding="utf-8")
        listing = text.split("`train --out` writes:", 1)[1].lstrip().split("\n\n", 1)[0]
        return re.findall(r"^- `([^`]+)`", listing, flags=re.M)

    def test_every_documented_command_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        commands = self.quick_start()
        assert [argv[0] for argv in commands] == ["synth", "train", "eval", "reconstruct", "gradcheck"]
        for argv in commands:
            assert main(argv + self.SMALLER.get(argv[0], [])) == 0, argv
        train = commands[1]
        out_dir = Path(train[train.index("--out") + 1])
        written = self.train_outputs()
        assert sorted(written) == ["confusion.csv", "model.ckpt", "report.json", "test_split.csv"]
        assert all((out_dir / name).is_file() for name in written)


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
                     "routing_many_blocks", "class_votes", "capsule_length"):
            assert any(comp in ln for ln in lines)

    def test_gradient_fault_exits_1(self, capsys, monkeypatch):
        # a squash backward off by 10% must fail every check it feeds.  The
        # array is scaled in place, because routing has it write into a
        # buffer (``out=``) and ignores the return value.
        real = capsules._squash_backward

        def faulty(*args):
            g = real(*args)
            g *= 1.1
            return g

        monkeypatch.setattr(capsules, "_squash_backward", faulty)
        assert main(["gradcheck"]) == 1
        captured = capsys.readouterr()
        failed = {ln.split()[0] for ln in captured.out.splitlines() if ln.endswith(" FAIL")}
        assert {"squash", "squash_batch2", "routing", "routing_batch2", "routing_many_blocks",
                "full_model"} <= failed
        assert "gradcheck FAILED" in captured.err

    def test_inject_fault_flag_is_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--inject-fault", "squash"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --inject-fault" in capsys.readouterr().err

    def test_unknown_model_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "gc.json"
        cfg.write_text(json.dumps({"model": {"bogus": 1}}))
        assert main(["gradcheck", "--config", str(cfg)]) == 2
        assert "unknown model config keys: ['bogus']" in capsys.readouterr().err

    def test_oversized_config_exits_2_at_once(self, tmp_path, capsys):
        # negative control: the desk-scale model's 282,195 coordinates were
        # differenced one by one, for many minutes and with no output
        cfg = tmp_path / "gc.json"
        cfg.write_text(json.dumps({"model": ModelConfig.toy().to_dict()}))
        assert main(["gradcheck", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "error: the model has 282,195 parameter and input coordinates" in captured.err
        assert captured.out == ""


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
