"""Exit codes, artifacts, and determinism of the command-line surface."""

import os

import numpy as np
import pytest

from lumiq.cli import run, run_gradcheck
from lumiq.data import read_image, write_image, synth_scene
from lumiq.training import TrainConfig, save_config


def read_tree(root):
    """Relative path -> bytes for every file under root."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth-data -> pretrain -> train chain shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    cfg = TrainConfig(seed=3, batch_size=2, crop=16, stage1_iters=30, stage2_iters=6,
                      lqm_warmup=2, n_prompts=3, n_codes=16, code_dim=8, base_channels=4,
                      n_down=2, d_l=6, lr=1e-3)
    cfg_path = root / "cfg.txt"
    save_config(cfg, cfg_path)
    assert run(["synth-data", "--n", "6", "--size", "16", "--seed", "3",
                "--out", str(data)]) == 0
    s1 = root / "s1"
    assert run(["pretrain", "--data", str(data), "--config", str(cfg_path),
                "--out", str(s1)]) == 0
    s2 = root / "s2"
    assert run(["train", "--data", str(data), "--config", str(cfg_path),
                "--ckpt", str(s1 / "stage1.ckpt"), "--out", str(s2)]) == 0
    return {"root": root, "data": data, "cfg_path": cfg_path,
            "s1": s1 / "stage1.ckpt", "s2": s2 / "stage2.ckpt"}


@pytest.fixture(scope="module")
def stage2_five_prompts(workspace):
    """A stage-2 checkpoint trained from the workspace's stage 1 with 5 prompts."""
    out = workspace["root"] / "s2_five_prompts"
    assert run(["train", "--data", str(workspace["data"]), "--config", str(workspace["cfg_path"]),
                "--prompts", "5", "--iters", "1", "--ckpt", str(workspace["s1"]), "--out", str(out)]) == 0
    return out / "stage2.ckpt"


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, tmp_path):
        assert run(["synth-data", "--out", str(tmp_path), "--bogus", "1"]) == 1

    def test_unknown_command_exits_1(self):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag_exits_1(self):
        assert run(["pretrain"]) == 1

    def test_no_command_exits_1(self):
        assert run([]) == 1

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
        assert "synth-data" in capsys.readouterr().out

    def test_bad_log_level_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LUMIQ_LOG_LEVEL", "verbose")
        assert run(["synth-data", "--n", "1", "--out", str(tmp_path / "d")]) == 1

    def test_nonpositive_count_exits_1(self, tmp_path):
        assert run(["synth-data", "--n", "0", "--out", str(tmp_path / "d")]) == 1

    @pytest.mark.parametrize("line, named", [("crop=30", "crop=30"), ("use_lqm=yes", "use_lqm"),
                                             ("seed=abc", "cfg.txt:2: seed"), ("lr=nan", "lr must be finite"),
                                             ("sigma=inf", "sigma must be finite"),
                                             ("seed=-1", "seed must be non-negative, got -1")])
    def test_invalid_config_file_value_exits_1(self, tmp_path, capsys, line, named):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(f"batch_size=2\n{line}\n")
        code = run(["synth-data", "--n", "1", "--size", "16", "--config", str(cfg_path),
                    "--out", str(tmp_path / "d")])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_invalid_flag_override_exits_1(self, tmp_path, capsys):
        code = run(["pretrain", "--data", str(tmp_path / "data"), "--iters", "0",
                    "--out", str(tmp_path / "s1")])
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "s1").exists()

    @pytest.mark.parametrize("command", [["synth-data", "--n", "1"], ["pretrain", "--data", "nope"]])
    def test_negative_seed_exits_1(self, tmp_path, capsys, command):
        code = run(command + ["--seed", "-1", "--out", str(tmp_path / "d")])
        assert code == 1
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


class TestSynthData:
    def test_writes_pairs_and_manifest(self, tmp_path):
        out = tmp_path / "d"
        assert run(["synth-data", "--n", "4", "--size", "16", "--seed", "1",
                    "--out", str(out)]) == 0
        ppms = sorted(p for p in os.listdir(out) if p.endswith(".ppm"))
        assert len(ppms) == 8
        lines = (out / "manifest.csv").read_text().strip().split("\n")
        assert lines[0] == "scene_id,low_path,normal_path,gamma,gain,sigma"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "low_0000.ppm" and first[2] == "normal_0000.ppm"
        assert 1.5 <= float(first[3]) <= 3.0

    def test_prints_resolved_config_and_seed(self, tmp_path, capsys):
        assert run(["synth-data", "--n", "1", "--seed", "5", "--out", str(tmp_path / "d")]) == 0
        out = capsys.readouterr().out
        assert "command=synth-data" in out
        assert "seed=5" in out
        assert "margin=0.1" in out

    def test_identical_invocations_identical_bytes(self, tmp_path):
        argv = ["synth-data", "--n", "3", "--size", "16", "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert read_tree(a) == read_tree(b)


class TestTrainingCommands:
    def test_pretrain_artifacts(self, workspace):
        s1_dir = workspace["s1"].parent
        assert workspace["s1"].exists()
        lines = (s1_dir / "stage1_loss.csv").read_text().strip().split("\n")
        assert lines[0] == "step,l_mae,l_cma,l_adv,l_total"
        assert len(lines) == 31

    def test_train_artifacts(self, workspace):
        s2_dir = workspace["s2"].parent
        assert workspace["s2"].exists()
        lines = (s2_dir / "stage2_loss.csv").read_text().strip().split("\n")
        assert lines[0] == "step,l_adv,l_fml,l_rec,l_lcl,l_total"
        assert len(lines) == 7

    def test_iters_flag_overrides_config(self, workspace, tmp_path, capsys):
        out = tmp_path / "s1b"
        assert run(["pretrain", "--data", str(workspace["data"]),
                    "--config", str(workspace["cfg_path"]), "--iters", "5",
                    "--out", str(out)]) == 0
        assert "stage1_iters=5" in capsys.readouterr().out
        lines = (out / "stage1_loss.csv").read_text().strip().split("\n")
        assert len(lines) == 6

    def test_incompatible_codebook_size_exits_2(self, workspace, tmp_path, capsys):
        code = run(["train", "--data", str(workspace["data"]),
                    "--config", str(workspace["cfg_path"]), "--codebook-size", "32",
                    "--ckpt", str(workspace["s1"]), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "n_codes" in capsys.readouterr().err

    def test_train_on_stage2_ckpt_exits_1(self, workspace, tmp_path):
        code = run(["train", "--data", str(workspace["data"]),
                    "--config", str(workspace["cfg_path"]),
                    "--ckpt", str(workspace["s2"]), "--out", str(tmp_path / "x")])
        assert code == 1

    @pytest.mark.parametrize("flags, ckpt, code, message", [
        (["--codebook-size", "32"], "s1", 2, "n_codes"),
        (["--prompts", "3"], "s2_five_prompts", 1, "not a stage-1 checkpoint"),
    ])
    def test_train_failure_creates_no_out_dir(self, workspace, stage2_five_prompts, tmp_path, capsys,
                                              flags, ckpt, code, message):
        ckpts = {"s1": workspace["s1"], "s2_five_prompts": stage2_five_prompts}
        out = tmp_path / "x"
        assert run(["train", "--data", str(workspace["data"]), "--config", str(workspace["cfg_path"]),
                    *flags, "--ckpt", str(ckpts[ckpt]), "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pretrain", "train"])
    def test_image_smaller_than_crop_exits_1_before_out_dir(self, workspace, tmp_path, capsys, command):
        cfg_path = tmp_path / "crop32.txt"
        cfg_path.write_text(workspace["cfg_path"].read_text().replace("crop=16", "crop=32"))
        out = tmp_path / "x"
        ckpt = ["--ckpt", str(workspace["s1"])] if command == "train" else []
        assert run([command, "--data", str(workspace["data"]), "--config", str(cfg_path),
                    *ckpt, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "manifest.csv: pair 0 has shape" in err and "crop 32" in err
        assert not out.exists()

    def test_missing_data_dir_exits_2(self, workspace, tmp_path):
        code = run(["pretrain", "--data", str(tmp_path / "nope"),
                    "--config", str(workspace["cfg_path"]), "--out", str(tmp_path / "x")])
        assert code == 2


class TestEnhance:
    def test_writes_images_and_histogram(self, workspace, tmp_path):
        out = tmp_path / "e"
        low = workspace["data"] / "low_0000.ppm"
        assert run(["enhance", "--ckpt", str(workspace["s2"]), "--images", str(low),
                    "--out", str(out)]) == 0
        enhanced = read_image(out / "enhanced_low_0000.ppm")
        assert enhanced.data.shape == (1, 3, 16, 16)
        assert enhanced.data.min() >= 0.0 and enhanced.data.max() <= 1.0
        lines = (out / "histogram.csv").read_text().strip().split("\n")
        assert lines[0] == "index,count"
        counts = [int(l.split(",")[1]) for l in lines[1:]]
        assert sum(counts) == 16  # one 16x16 image at stride 4 -> 4x4 code positions

    def test_deterministic_bytes(self, workspace, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["enhance", "--ckpt", str(workspace["s2"]),
                "--images", str(workspace["data"] / "low_0001.ppm")]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert read_tree(a) == read_tree(b)

    def test_stage1_ckpt_exits_1(self, workspace, tmp_path):
        code = run(["enhance", "--ckpt", str(workspace["s1"]),
                    "--images", str(workspace["data"] / "low_0000.ppm"),
                    "--out", str(tmp_path / "x")])
        assert code == 1

    def test_missing_ckpt_exits_2(self, workspace, tmp_path):
        code = run(["enhance", "--ckpt", str(tmp_path / "nope.ckpt"),
                    "--images", str(workspace["data"] / "low_0000.ppm"),
                    "--out", str(tmp_path / "x")])
        assert code == 2

    def test_corrupt_image_exits_2(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P5\n2 2\n255\n")
        code = run(["enhance", "--ckpt", str(workspace["s2"]), "--images", str(bad),
                    "--out", str(tmp_path / "x")])
        assert code == 2
        assert "byte offset" in capsys.readouterr().err

    def test_corrupt_image_after_good_one_writes_nothing(self, workspace, tmp_path, capsys):
        # a bad header, and a good header with its pixel data cut short
        for case, (blob, message) in enumerate([(b"P6\n0 8\n255\n", "b.ppm: width 0"),
                                                 (b"P6\n8 8\n255\n" + bytes(100), "b.ppm: pixel data truncated")]):
            imgs = tmp_path / f"imgs{case}"
            imgs.mkdir()
            (imgs / "a.ppm").write_bytes((workspace["data"] / "low_0000.ppm").read_bytes())
            (imgs / "b.ppm").write_bytes(blob)
            out = tmp_path / f"x{case}"
            code = run(["enhance", "--ckpt", str(workspace["s2"]), "--images", str(imgs), "--out", str(out)])
            assert code == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_decodes_each_image_when_its_turn_comes(self, workspace, tmp_path, monkeypatch):
        # validated up front, then decoded, enhanced and written one at a time
        from lumiq import cli

        events = []

        def logged_read(path):
            events.append(("read", os.path.basename(path)))
            return read_image(path)

        def logged_write(path, image):
            events.append(("write", os.path.basename(path)))
            write_image(path, image)

        monkeypatch.setattr(cli, "read_image", logged_read)
        monkeypatch.setattr(cli, "write_image", logged_write)
        out = tmp_path / "x"
        assert run(["enhance", "--ckpt", str(workspace["s2"]), "--images", str(workspace["data"]),
                    "--out", str(out)]) == 0
        names = sorted(n for n in os.listdir(workspace["data"]) if n.endswith(".ppm"))
        assert len(names) > 1
        assert events == [event for name in names for event in (("read", name), ("write", f"enhanced_{name}"))]

    def test_non_finite_ckpt_exits_2_before_out_dir(self, workspace, tmp_path, capsys):
        from lumiq.checkpoint import load_checkpoint, save_checkpoint

        entries = load_checkpoint(workspace["s2"])
        entries["decoder.final.weight"].flat[0] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_checkpoint(entries, bad)
        out = tmp_path / "x"
        code = run(["enhance", "--ckpt", str(bad), "--images", str(workspace["data"] / "low_0000.ppm"),
                    "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: enhance: CompatibilityError: {bad}: entry decoder.final.weight holds NaN or inf\n"
        assert not out.exists()

    @pytest.mark.parametrize("side, padded", [(15, 16), (30, 32), (36, 40), (44, 48)])
    def test_any_size_is_padded_and_cropped_back(self, workspace, tmp_path, side, padded):
        odd = tmp_path / "odd.ppm"
        write_image(odd, synth_scene(0, side, side))
        out = tmp_path / "x"
        assert run(["enhance", "--ckpt", str(workspace["s2"]), "--images", str(odd),
                    "--out", str(out)]) == 0
        assert read_image(out / "enhanced_odd.ppm").data.shape == (1, 3, side, side)
        lines = (out / "histogram.csv").read_text().strip().split("\n")
        assert sum(int(l.split(",")[1]) for l in lines[1:]) == (padded // 4) ** 2


class TestAnalyzeCodes:
    def test_counts_cover_all_positions(self, workspace, tmp_path):
        out = tmp_path / "codes"
        assert run(["analyze-codes", "--ckpt", str(workspace["s2"]),
                    "--images", str(workspace["data"]), "--out", str(out)]) == 0
        lines = (out / "histogram.csv").read_text().strip().split("\n")
        counts = [int(l.split(",")[1]) for l in lines[1:]]
        # 12 PPM files, each 16x16 with two halvings -> 4x4 = 16 positions
        assert sum(counts) == 12 * 16
        assert len(counts) == 16

    @pytest.mark.parametrize("ckpt", ["s1", "s2"])
    def test_off_size_image_counts_the_padded_grid(self, workspace, tmp_path, ckpt):
        odd = tmp_path / "odd.ppm"
        write_image(odd, synth_scene(0, 30, 30))
        out = tmp_path / "codes"
        assert run(["analyze-codes", "--ckpt", str(workspace[ckpt]), "--images", str(odd),
                    "--out", str(out)]) == 0
        lines = (out / "histogram.csv").read_text().strip().split("\n")
        assert sum(int(l.split(",")[1]) for l in lines[1:]) == 8 * 8  # padded to 32x32

    def test_works_on_stage1_ckpt(self, workspace, tmp_path):
        out = tmp_path / "codes1"
        assert run(["analyze-codes", "--ckpt", str(workspace["s1"]),
                    "--images", str(workspace["data"] / "normal_0000.ppm"),
                    "--out", str(out)]) == 0
        lines = (out / "histogram.csv").read_text().strip().split("\n")
        assert sum(int(l.split(",")[1]) for l in lines[1:]) == 16


class TestReport:
    def test_writes_metric_tables(self, workspace, tmp_path, capsys):
        out = tmp_path / "rep"
        assert run(["report", "--ckpt", str(workspace["s2"]),
                    "--data", str(workspace["data"]), "--out", str(out)]) == 0
        for name in ("metrics_enhanced.csv", "metrics_raw.csv"):
            lines = (out / name).read_text().strip().split("\n")
            assert lines[0] == "image_id,psnr,ssim"
            assert len(lines) == 7
        printed = capsys.readouterr().out
        assert "psnr gain=" in printed

    def test_off_size_dataset(self, workspace, tmp_path):
        data = tmp_path / "data18"
        assert run(["synth-data", "--n", "2", "--size", "18", "--seed", "4", "--out", str(data)]) == 0
        out = tmp_path / "rep"
        assert run(["report", "--ckpt", str(workspace["s2"]), "--data", str(data), "--out", str(out)]) == 0
        assert len((out / "metrics_enhanced.csv").read_text().strip().split("\n")) == 3


class TestGradcheck:
    def test_exits_0_and_reports_small_error(self, capsys):
        assert run(["gradcheck", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.split("\n") if l.startswith("max relative error")][0]
        assert float(line.split(":")[1]) < 1e-4

    def test_all_cases_nonvacuous(self):
        for name, err in run_gradcheck(11):
            assert err > 0.0, f"{name} produced an exactly-zero check"

    def test_seed_changes_probes_not_outcome(self):
        for seed in (0, 1, 2):
            worst = max(err for _, err in run_gradcheck(seed))
            assert worst < 1e-4


class TestLogLevels:
    def test_quiet_silences_progress(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LUMIQ_LOG_LEVEL", "quiet")
        assert run(["synth-data", "--n", "1", "--out", str(tmp_path / "d")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "command=synth-data" in captured.out  # contract line still printed

    def test_info_logs_progress(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LUMIQ_LOG_LEVEL", "info")
        assert run(["synth-data", "--n", "1", "--out", str(tmp_path / "d")]) == 0
        assert "wrote 1 pairs" in capsys.readouterr().err
