import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from motionseg.cli import (
    CONFIG_SECTIONS,
    ImitateConfig,
    _pipeline_config,
    build_dataclass,
    build_parser,
    main,
    parse_config_file,
)

TINY_CONFIG = """
[synthetic]
demonstrators = 3
demos_per_demonstrator = 3
num_classes = 4
feature_width = 24
mean_durations = 5.0
cycles = 2
style_scale = 1.5
noise_sigma = 0.4
seed = 0

[pipeline]
rounds = 2
top_k = 30
stride = 32
embed_dim = 8
encoder_hidden = 32
embed_epochs = 6
batch_size = 32
rnn_hidden = 16
rnn_epochs = 8
hmm_states = 6
em_iterations = 3
d_max = 10
crf_iterations = 10
pos_window = 3
neg_window = 8
labeled_fraction = 0.5

[imitate]
decoder_hidden = 24,12
decoder_epochs = 30
"""


def tree_digest(root) -> dict:
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.txt"
    config.write_text(TINY_CONFIG)
    assert main(["gen-data", "--config", str(config), "--out", str(root / "data")]) == 0
    return root


def data_manifest(workspace):
    return str(workspace / "data" / "manifest.txt")


class TestGenData:
    def test_default_config_writes_forty_demos(self, tmp_path, capsys):
        assert main(["gen-data", "--out", str(tmp_path / "full")]) == 0
        captured = capsys.readouterr().out
        assert "demos = 40" in captured
        assert "classes = 11" in captured

    def test_writes_expected_demo_count(self, workspace, capsys):
        # regenerate into a fresh dir to capture the summary
        out = workspace / "gen2"
        assert main(["gen-data", "--config", str(workspace / "config.txt"), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "demos = 9" in captured
        assert "classes = 4" in captured

    def test_rerun_same_seed_checksum_identical(self, workspace):
        out_a, out_b = workspace / "det_a", workspace / "det_b"
        for out in (out_a, out_b):
            assert main(["gen-data", "--config", str(workspace / "config.txt"), "--out", str(out)]) == 0
        assert tree_digest(out_a) == tree_digest(out_b)

    def test_unknown_config_key_exits_2(self, workspace, capsys):
        bad = workspace / "bad.txt"
        bad.write_text("[synthetic]\nwhatever = 3\n")
        code = main(["gen-data", "--config", str(bad), "--out", str(workspace / "nope")])
        assert code == 2
        assert "whatever" in capsys.readouterr().err

    def test_unknown_section_exits_2(self, workspace):
        bad = workspace / "bad2.txt"
        bad.write_text("[mystery]\nx = 1\n")
        assert main(["gen-data", "--config", str(bad), "--out", str(workspace / "nope2")]) == 2


class TestTrain:
    def test_report_and_artifacts(self, workspace):
        out = workspace / "run"
        code = main([
            "train", "--config", str(workspace / "config.txt"),
            "--data", data_manifest(workspace), "--out", str(out),
        ])
        assert code == 0
        for name in ("encoder.model", "seqmodel.model", "trace.csv", "report.txt", "confusion.csv"):
            assert (out / name).exists()
        report = (out / "report.txt").read_text()
        assert "final_val_acc" in report
        assert "confusion_matrix = confusion.csv" in report
        assert "[pipeline]" in report and "rounds = 2" in report
        trace_lines = (out / "trace.csv").read_text().strip().splitlines()
        assert trace_lines[0] == "round,loss,train_acc,val_acc,n_pseudo"
        assert len(trace_lines) >= 2

    def test_input_dataset_files_never_mutated(self, workspace):
        before = tree_digest(workspace / "data")
        main([
            "train", "--config", str(workspace / "config.txt"),
            "--data", data_manifest(workspace), "--out", str(workspace / "mut"),
            "--rounds", "1",
        ])
        assert tree_digest(workspace / "data") == before

    def test_missing_dataset_exits_1_naming_path(self, workspace, capsys):
        code = main([
            "train", "--config", str(workspace / "config.txt"),
            "--data", str(workspace / "missing" / "manifest.txt"),
            "--out", str(workspace / "r2"),
        ])
        assert code == 1
        assert "manifest" in capsys.readouterr().err

    def test_one_state_hsmm_on_demos_longer_than_dmax_exits_1(self, workspace, capsys, recwarn):
        config = workspace / "one_state.txt"
        config.write_text(TINY_CONFIG.replace("hmm_states = 6", "hmm_states = 1"))
        code = main([
            "train", "--config", str(config), "--data", data_manifest(workspace),
            "--out", str(workspace / "one_state"), "--seq-model", "hsmm", "--rounds", "1",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "one-state hsmm" in err and "d_max = 10" in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_cli_flag_overrides_config(self, workspace):
        out = workspace / "run_knn"
        code = main([
            "train", "--config", str(workspace / "config.txt"),
            "--data", data_manifest(workspace), "--out", str(out),
            "--seq-model", "knn", "--rounds", "1",
        ])
        assert code == 0
        assert "seq_model = knn" in (out / "report.txt").read_text()

    def test_rerun_checksum_identical(self, workspace):
        outs = [workspace / "rr_a", workspace / "rr_b"]
        for out in outs:
            assert main([
                "train", "--config", str(workspace / "config.txt"),
                "--data", data_manifest(workspace), "--out", str(out), "--rounds", "1",
            ]) == 0
        assert tree_digest(outs[0]) == tree_digest(outs[1])

    def test_default_scale_single_round_finishes_quickly(self, tmp_path):
        # one alternation round on the full-size default dataset stays well
        # inside a desk-scale time budget (bound: 10 minutes)
        import time

        assert main(["gen-data", "--out", str(tmp_path / "d")]) == 0
        start = time.time()
        code = main([
            "train", "--data", str(tmp_path / "d" / "manifest.txt"),
            "--out", str(tmp_path / "r"), "--rounds", "1", "--seed", "0",
        ])
        elapsed = time.time() - start
        assert code == 0
        assert elapsed < 600


class TestEval:
    def test_grid_schema(self, workspace):
        out = workspace / "ev"
        code = main([
            "eval", "--config", str(workspace / "config.txt"),
            "--data", data_manifest(workspace), "--out", str(out), "--grid",
        ])
        assert code == 0
        lines = (out / "grid.csv").read_text().strip().splitlines()
        assert lines[0] == "embedding,knn,hmm,hsmm,crf,rnn"
        assert len(lines) == 7
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["ipca", "svtcn", "raw", "npairs", "triplet", "triplet_svtcn"]
        for line in lines[1:]:
            for cell in line.split(",")[1:]:
                assert 0.0 <= float(cell) <= 1.0

    def test_sweep_one_row_per_fraction(self, workspace):
        out = workspace / "sw"
        code = main([
            "eval", "--config", str(workspace / "config.txt"),
            "--data", data_manifest(workspace), "--out", str(out),
            "--sweep", "0.4,1.0",
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert [line.split(",")[0] for line in lines[1:]] == ["0.4", "1.0"]

    @pytest.mark.parametrize("sweep", ["abc", "0,1.5"])
    def test_bad_sweep_exits_2(self, workspace, capsys, sweep):
        assert main([
            "eval", "--config", str(workspace / "config.txt"),
            "--data", data_manifest(workspace), "--out", str(workspace / "sw_bad"),
            "--sweep", sweep,
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--sweep" in err

    def test_eval_without_work_exits_2(self, workspace):
        assert main([
            "eval", "--config", str(workspace / "config.txt"),
            "--data", data_manifest(workspace), "--out", str(workspace / "ev2"),
        ]) == 2

    @pytest.mark.parametrize("work", [["--grid"], ["--sweep", "0.5"]])
    def test_grid_seeds_below_one_exits_2_before_reading_data(self, tmp_path, capsys, work):
        assert main([
            "eval", "--data", str(tmp_path / "missing.txt"), "--out", str(tmp_path / "out"),
            "--grid-seeds", "0", *work,
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--grid-seeds" in err


class TestImitate:
    def test_metrics_rows_and_trajectory(self, workspace, capsys):
        out = workspace / "im"
        code = main([
            "imitate", "--config", str(workspace / "config.txt"),
            "--data", data_manifest(workspace), "--out", str(out),
            "--noise-sigma", "0.15",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        for scope in ("pooled", "per_demonstrator"):
            for noise in ("0.0", "0.15"):
                assert f"scope={scope} noise={noise}" in printed
        lines = (out / "pose_metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header + 2 scopes x 2 noise levels
        traj = (out / "trajectories.csv").read_text().strip().splitlines()
        # one row per test frame: 3 demonstrators x 1 held-out demo each
        from motionseg.data import load_dataset, split_leave_one_out

        ds = load_dataset(data_manifest(workspace))
        _, test = split_leave_one_out(ds, 0)
        assert len(traj) - 1 == test.num_frames

    @pytest.mark.parametrize("sigma", ["-0.1", "nan"])
    def test_bad_noise_sigma_exits_2_before_reading_data(self, tmp_path, capsys, sigma):
        assert main([
            "imitate", "--data", str(tmp_path / "missing.txt"), "--out", str(tmp_path / "out"),
            "--noise-sigma", sigma,
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--noise-sigma" in err


class TestEmbedDump:
    def test_dump_cardinality_and_projection(self, workspace):
        run = workspace / "run"
        if not (run / "encoder.model").exists():
            main([
                "train", "--config", str(workspace / "config.txt"),
                "--data", data_manifest(workspace), "--out", str(run),
            ])
        out = workspace / "ed"
        code = main([
            "embed-dump", "--data", data_manifest(workspace),
            "--encoder", str(run / "encoder.model"), "--out", str(out),
        ])
        assert code == 0
        from motionseg.data import load_dataset

        ds = load_dataset(data_manifest(workspace))
        emb_lines = (out / "embeddings.csv").read_text().strip().splitlines()
        pca_lines = (out / "pca2d.csv").read_text().strip().splitlines()
        assert len(emb_lines) - 1 == ds.num_frames
        assert len(pca_lines) - 1 == ds.num_frames
        assert pca_lines[0] == "demo_id,frame_index,label,x,y"

    def test_non_encoder_model_exits_1_naming_file(self, workspace, capsys):
        from motionseg.modelio import save_model
        from motionseg.seqmodels.knn import KnnModel

        path = workspace / "knn.model"
        save_model(KnnModel(np.eye(3), [1, 2, 3], k=1), path)
        code = main([
            "embed-dump", "--data", data_manifest(workspace),
            "--encoder", str(path), "--out", str(workspace / "ed_knn"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: not an encoder model") and str(path) in err


PIPELINE_COMMANDS = ("train", "eval", "imitate")


class TestConfigErrors:
    @pytest.mark.parametrize("command,section,key", [
        ("gen-data", "synthetic", "num_classes"),
        ("train", "pipeline", "embed_epochs"),
        ("imitate", "imitate", "decoder_epochs"),
    ])
    def test_non_numeric_value_exits_2_naming_section_and_key(
        self, tmp_path, capsys, command, section, key
    ):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"[{section}]\n{key} = abc\n")
        argv = [command, "--config", str(bad), "--out", str(tmp_path / "out")]
        if command != "gen-data":
            argv += ["--data", str(tmp_path / "missing.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"[{section}]" in err and key in err

    @pytest.mark.parametrize("w_pos", ["2", "-0.5"])
    def test_w_pos_outside_unit_interval_exits_2(self, tmp_path, capsys, w_pos):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"[imitate]\nw_pos = {w_pos}\n")
        assert main([
            "imitate", "--config", str(bad), "--data", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "out"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "w_pos" in err

    @pytest.mark.parametrize("fraction", ["0", "1.5"])
    def test_labeled_fraction_outside_unit_interval_exits_2(self, tmp_path, capsys, fraction):
        for source in ("flag", "file"):
            bad = tmp_path / "bad.txt"
            bad.write_text(f"[pipeline]\nlabeled_fraction = {fraction}\n" if source == "file" else "")
            argv = ["train", "--config", str(bad), "--data", str(tmp_path / "missing.json"),
                    "--out", str(tmp_path / "out")]
            if source == "flag":
                argv += ["--labeled-fraction", fraction]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "labeled_fraction" in err

    @pytest.mark.parametrize("command,section,key", [
        ("train", "pipeline", "encoder_hidden"),
        ("imitate", "imitate", "decoder_hidden"),
    ])
    def test_non_integer_layer_width_exits_2(self, tmp_path, capsys, command, section, key):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"[{section}]\n{key} = 32.5\n")
        assert main([
            command, "--config", str(bad), "--data", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "out"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"[{section}]" in err and key in err

    def test_non_utf8_config_exits_2_naming_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"[pipeline]\nrounds = 1\xff\n")
        assert main([
            "train", "--config", str(bad), "--data", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "out"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "UTF-8" in err and str(bad) in err

    @pytest.mark.parametrize("key,value", [
        ("batch_size", "0"), ("stride", "0"), ("rnn_batch", "0"), ("rnn_hidden", "0"),
        ("embed_dim", "0"), ("hmm_states", "0"), ("d_max", "0"), ("knn_k", "0"),
        ("margin", "0"), ("pos_window", "20"), ("crf_basis", "0"), ("encoder_hidden", "64,0"),
        ("val_index", "-1"),
    ])
    def test_out_of_range_pipeline_value_exits_2(self, tmp_path, capsys, key, value):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"[pipeline]\n{key} = {value}\n")
        assert main([
            "train", "--config", str(bad), "--data", str(tmp_path / "missing.txt"),
            "--out", str(tmp_path / "out"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [pipeline]") and key in err

    @pytest.mark.parametrize("key,value", [
        ("num_classes", "1"), ("demonstrators", "0"), ("mean_durations", "0.5"),
        ("feature_width", "0"),
    ])
    def test_out_of_range_synthetic_value_exits_2(self, tmp_path, capsys, key, value):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"[synthetic]\n{key} = {value}\n")
        assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: [synthetic]")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "imitate"])
    def test_val_index_past_a_demonstrators_demos_exits_2(self, workspace, tmp_path, capsys, command):
        bad = tmp_path / "bad.txt"
        bad.write_text(TINY_CONFIG + "\n[pipeline]\nval_index = 3\n")
        argv = [command, "--config", str(bad), "--data", data_manifest(workspace),
                "--out", str(tmp_path / "out")]
        assert main(argv + (["--sweep", "0.5"] if command == "eval" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [pipeline] val_index")
        assert "demonstrator" in err and "(3 demos)" in err
        assert not (tmp_path / "out").exists()

    def test_imitate_config_accepts_interval_ends(self):
        assert ImitateConfig(w_pos=0.0).w_pos == 0.0
        assert ImitateConfig(w_pos=1.0).w_pos == 1.0


@pytest.mark.parametrize("command", PIPELINE_COMMANDS)
def test_shared_pipeline_flags_reach_pipeline_config(command):
    args = build_parser().parse_args([
        command, "--data", "d.json", "--out", "o",
        "--top-k", "7", "--rounds", "2", "--loss", "npairs",
    ])
    config = _pipeline_config(args, {})
    assert (config.top_k, config.rounds, config.loss_mode) == (7, 2, "npairs")


@pytest.mark.parametrize("command", PIPELINE_COMMANDS)
def test_unknown_seq_model_exits_2(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--data", "d.json", "--out", "o", "--seq-model", "nope"])
    assert exc.value.code == 2
    assert "--seq-model" in capsys.readouterr().err


def test_shipped_configs_parse_with_their_documented_commands():
    paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
    assert paths
    for path in paths:
        for section, raw in parse_config_file(path).items():
            build_dataclass(CONFIG_SECTIONS[section], raw)
        commands = [line.split()[2:] for line in path.read_text().splitlines()
                    if line.startswith("#   motionseg ")]
        assert commands, path
        for argv in commands:
            build_parser().parse_args(argv)
