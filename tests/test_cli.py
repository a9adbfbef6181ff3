"""Command-line surface: every subcommand, exit codes, and the one-line
error contract."""
import numpy as np
import pytest

from segnext.checkpoint import save_checkpoint
from segnext.cli import main
from segnext.data import synth_dataset
from segnext.encoder import preset
from segnext.imagefile import read_pgm, write_ppm
from segnext.model import build_model

MICRO_CFG = """\
[model]
model = mscan-micro

[train]
iters = 2
batch = 2
crop = 32
eval_interval = 1
checkpoint_interval = 0

[data]
size = 64
num_train = 2
num_val = 2

[run]
seed = 3
out_dir = {out}
"""


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MICRO_CFG.format(out=tmp_path / "out"))
    return str(path)


def model_cfg(tmp_path, extra_model_line):
    """The micro config with one more ``[model]`` key."""
    path = tmp_path / "extra.cfg"
    path.write_text(MICRO_CFG.format(out=tmp_path / "out").replace(
        "model = mscan-micro\n", f"model = mscan-micro\n{extra_model_line}\n"))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuildAnalyze:
    def test_build_summarizes_model(self, cfg_path, capsys):
        code, out, err = run(capsys, "build", cfg_path)
        assert code == 0 and err == ""
        assert "channels (8, 16, 32, 64)" in out
        assert "parameters:" in out

    def test_analyze_table(self, cfg_path, capsys):
        code, out, _ = run(capsys, "analyze", cfg_path, "--input-size", "64x64")
        assert code == 0
        assert "total" in out and "convention" in out

    def test_analyze_machine_lines(self, cfg_path, capsys):
        code, out, _ = run(capsys, "analyze", cfg_path, "--input-size", "64x64",
                           "--machine")
        assert code == 0
        lines = out.strip().splitlines()
        for line in lines:
            name, params, flops = line.split("\t")
            int(params), int(flops)
        assert lines[-1].startswith("total\t")

    def test_bad_input_size_is_one_line_error(self, cfg_path, capsys):
        code, out, err = run(capsys, "analyze", cfg_path, "--input-size", "512")
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_analyze_rejects_input_below_minimum_size(self, cfg_path, capsys):
        code, out, err = run(capsys, "analyze", cfg_path, "--input-size", "16x16")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "at least 32x32" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "build", "/nonexistent/x.cfg")
        assert code == 1 and err.startswith("error: ")

    def test_config_error_carries_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[model]\nmodel = mscan-t\nbogus = 1\n")
        code, _, err = run(capsys, "build", str(bad))
        assert code == 1 and "line 3" in err


class TestTrainEvalInfer:
    def test_full_workflow(self, cfg_path, tmp_path, capsys):
        code, out, err = run(capsys, "train", cfg_path)
        assert code == 0, err
        assert "final miou:" in out
        out_dir = tmp_path / "out"
        assert (out_dir / "metrics.log").exists()
        assert (out_dir / "checkpoint_init.ckpt").exists()
        ckpt = out_dir / "checkpoint_final.ckpt"
        assert ckpt.exists()
        lines = (out_dir / "metrics.log").read_text().splitlines()
        assert len(lines) == 2
        assert all(len(l.split("\t")) == 4 for l in lines)  # eval every iter

        code, out, _ = run(capsys, "eval", cfg_path, "--checkpoint", str(ckpt))
        assert code == 0
        assert "class 0\t" in out and "miou\t" in out

        code, out, _ = run(capsys, "eval", cfg_path, "--checkpoint", str(ckpt),
                           "--ms-flip", "--scales", "0.75,1.0")
        assert code == 0 and "miou\t" in out

        img_path = tmp_path / "scene.ppm"
        pred_path = tmp_path / "pred.pgm"
        write_ppm(img_path, synth_dataset(5, 1, 64, 3)[0].image)
        code, out, _ = run(capsys, "infer", cfg_path,
                           "--checkpoint", str(ckpt),
                           "--image", str(img_path), "--out", str(pred_path))
        assert code == 0
        pred = read_pgm(pred_path)
        assert pred.shape == (64, 64)
        assert set(np.unique(pred)) <= {0, 1, 2}

    def test_eval_missing_checkpoint(self, cfg_path, capsys):
        code, _, err = run(capsys, "eval", cfg_path, "--checkpoint", "/no.ckpt")
        assert code == 1 and err.startswith("error: ")

    def test_eval_non_finite_scale_is_one_line_error(self, cfg_path, tmp_path, capsys):
        ckpt = str(tmp_path / "init.ckpt")
        save_checkpoint(build_model(preset("mscan-micro"), 3), ckpt)
        for scales in ("inf", "1.0,nan"):
            code, _, err = run(capsys, "eval", cfg_path, "--checkpoint", ckpt,
                               "--scales", scales)
            assert code == 1 and err.startswith("error: ") and err.count("\n") == 1

    @staticmethod
    def assert_trains_identically_twice(cfg_path, out_dir, capsys):
        # Same config twice (same out_dir, so the embedded snapshots match):
        # metrics and checkpoint bytes must be identical.
        outs = []
        for _ in range(2):
            code, _, err = run(capsys, "train", cfg_path)
            assert code == 0, err
            outs.append((out_dir / "metrics.log").read_text())
            outs.append((out_dir / "checkpoint_final.ckpt").read_bytes())
        assert outs[0] == outs[2]
        assert outs[1] == outs[3]

    def test_train_deterministic_across_runs(self, cfg_path, tmp_path, capsys):
        self.assert_trains_identically_twice(cfg_path, tmp_path / "out", capsys)

    def test_train_with_drop_path_deterministic(self, tmp_path, capsys):
        path = model_cfg(tmp_path, "drop_path = 0.1")
        self.assert_trains_identically_twice(path, tmp_path / "out", capsys)

    def test_train_rejects_class_ids_reaching_ignore(self, tmp_path, capsys):
        code, out, err = run(capsys, "train", model_cfg(tmp_path, "num_classes = 256"))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "num_classes" in err


class TestBenchAblate:
    def test_ablate_overrides_and_trains(self, cfg_path, tmp_path, capsys):
        code, out, err = run(capsys, "ablate", cfg_path, "--decoder", "b",
                             "--no-msca")
        assert code == 0, err
        assert "variant b" in out and "-msca" in out
        assert (tmp_path / "out_dec-b-nomsca" / "metrics.log").exists()

    def test_ablate_with_stage1(self, cfg_path, tmp_path, capsys):
        code, out, _ = run(capsys, "ablate", cfg_path, "--with-stage1")
        assert code == 0
        assert "+stage1" in out
        assert (tmp_path / "out_stage1" / "checkpoint_final.ckpt").exists()


class TestParser:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["paint"])
        assert e.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_required_option_exits_2(self, cfg_path, capsys):
        with pytest.raises(SystemExit) as e:
            main(["eval", cfg_path])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
