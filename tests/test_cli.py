import csv
import errno
import json
import os
import re
import warnings

import numpy as np
import pytest

from akcarc import cli, model, training
from akcarc.cli import execute_run, main
from akcarc.config import ExperimentConfig
from akcarc.data import SyntheticTaskSpec, load_task
from akcarc.errors import ConfigError, InvalidInput
from akcarc.training import run_pipeline

from conftest import count_calls, write_csv_task


TINY = [
    "--set", "task.source_train=300",
    "--set", "task.target_train=200",
    "--set", "task.target_test=150",
    "--set", "source_epochs=2",
    "--set", "epochs=1",
]


def csv_task(tmp_path) -> list:
    """`--set` arguments naming three CSV files written from TINY's
    synthetic task."""
    paths = write_csv_task(tmp_path, SyntheticTaskSpec(
        source_train=300, target_train=200, target_test=150))
    return [arg for field, path in paths.items() for arg in ("--set", f"{field}={path}")]


class TestConfig:
    def test_method_flags(self):
        cfg = ExperimentConfig(method="akc+arc+pseudo_label")
        assert cfg.method_parts() == ["akc", "arc", "pseudo_label"]
        assert cfg.validate() is cfg

    def test_unknown_method_token(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(method="akc+magic").validate()

    def test_two_ssl_methods_rejected(self):
        with pytest.raises(ConfigError, match="at most one SSL baseline"):
            ExperimentConfig(method="pseudo_label+mean_teacher").validate()

    def test_gate_thresholds_are_scaled_max_entropy(self):
        cfg = ExperimentConfig()
        assert cfg.eps_k(10) == pytest.approx(0.7 * np.log(10))
        assert cfg.eps_r(4) == pytest.approx(0.7 * np.log(4))
        cfg = ExperimentConfig(eps_k_scale=1.0, eps_r_scale=0.0)
        assert cfg.eps_k(5) == np.log(5)
        assert cfg.eps_r(3) == 0.0

    def test_invalid_fields_named(self):
        cfg = ExperimentConfig(eps_k_scale=2.0, eta0=-1.0)
        with pytest.raises(ConfigError, match="eps_k_scale"):
            cfg.validate()
        with pytest.raises(ConfigError, match="eta0"):
            cfg.validate()

    @pytest.mark.parametrize("field,value", [
        ("epochs", "5"), ("epochs", 1.5), ("batch_labeled", True), ("method", 5),
        ("imprint_head", 1), ("lambda_k", True), ("lambda_r", "30"),
        ("hidden_dims", (8, 0)), ("hidden_dims", [4.0]), ("task.seed", "0"),
        ("task.cluster_std", None),
    ])
    def test_field_of_the_wrong_type_is_named(self, field, value):
        cfg = ExperimentConfig()
        if field.startswith("task."):
            setattr(cfg.task, field[len("task."):], value)
        else:
            setattr(cfg, field, value)
        with pytest.raises(ConfigError, match=re.escape(field)):
            cfg.validate()

    def test_numbers_of_either_kind_fill_a_float_field(self):
        cfg = ExperimentConfig(lambda_k=2, eta0=np.float64(0.01),
                               seed=np.int64(1), hidden_dims=[8, 8])
        assert cfg.validate() is cfg

    def test_json_round_trip(self, tmp_path):
        cfg = ExperimentConfig(method="akc", lambda_r=12.5, seed=3)
        p = tmp_path / "c.json"
        cfg.to_json(p, {})
        with open(p) as fh:
            payload = json.load(fh)
        loaded = ExperimentConfig.from_dict(payload["config"])
        assert loaded == cfg
        meta = payload["metadata"]
        assert meta["mmd_estimator"] == "biased_v_statistic"
        assert meta["numpy_version"] == np.__version__
        assert meta["blas_thread_env"] == {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys: bogus"):
            ExperimentConfig.from_dict({"bogus": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="task.bogus"):
            ExperimentConfig.from_dict({"task": {"bogus": 1}})

    def test_dotted_overrides(self):
        cfg = ExperimentConfig().with_overrides(
            ["lambda_r=5.5", "task.cluster_std=0.4", "method=akc"]
        )
        assert cfg.lambda_r == 5.5
        assert cfg.task.cluster_std == 0.4
        assert cfg.method == "akc"

    def test_override_parses_as_the_default_type(self):
        # an int fills a float field, and an override of it may be fractional
        cfg = ExperimentConfig(eps_r_scale=1).with_overrides(["eps_r_scale=0.5"])
        assert cfg.eps_r_scale == 0.5

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            ExperimentConfig().with_overrides(["nope=1"])

    def test_override_not_key_value(self):
        with pytest.raises(ConfigError):
            ExperimentConfig().with_overrides(["lambda_r"])

    def test_seed_offsets_task_data(self):
        a = load_task(ExperimentConfig(seed=1))
        b = load_task(ExperimentConfig(seed=2))
        assert not np.array_equal(a[1].labeled_x, b[1].labeled_x)


class TestRunCommand:
    def test_artifacts_written(self, tmp_path, capsys):
        out = str(tmp_path / "run1")
        code = main(["run", "--out", out, "--seed", "1"] + TINY)
        assert code == 0
        assert sorted(os.listdir(out)) == [
            "config.json", "metrics.csv", "metrics.json",
            "source_model.npz", "target_model.npz"]
        assert "final-epoch test accuracy" in capsys.readouterr().out

    def test_metrics_csv_byte_identical_across_reruns(self, tmp_path):
        outs = [str(tmp_path / f"r{i}") for i in (0, 1)]
        for out in outs:
            assert main(["run", "--out", out, "--seed", "3"] + TINY) == 0
        blobs = [open(os.path.join(o, "metrics.csv"), "rb").read() for o in outs]
        assert blobs[0] == blobs[1]

    def test_buffer_capacity_beyond_k_changes_nothing(self, tmp_path):
        # only the last buffer_k rows of a buffer are ever fetched, and
        # only the last buffer_capacity rows are ever kept
        for field in ("buffer_capacity", "buffer_k"):
            blobs = []
            for size in (256, 100000):
                out = str(tmp_path / f"{field}{size}")
                assert main(["run", "--out", out] + TINY + [
                    "--set", "method=arc", "--set", "epochs=3", "--set", "eps_r_scale=1",
                    "--set", f"{field}={size}"]) == 0
                blobs.append(open(os.path.join(out, "metrics.csv"), "rb").read())
            assert blobs[0] == blobs[1], field

    def test_a_window_the_run_cannot_fill_costs_nothing(self, tmp_path):
        # one epoch pushes at most 32 x 64 rows into a window, so the ARC
        # state is sized by the run, not by the buffer settings
        blobs = []
        for size in (4096, 100000):
            out = str(tmp_path / f"s{size}")
            assert main(["run", "--out", out, "--set", "method=akc+arc",
                         "--set", f"buffer_capacity={size}", "--set", f"buffer_k={size}",
                         "--set", "epochs=1"]) == 0
            blobs.append(open(os.path.join(out, "metrics.csv"), "rb").read())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "label-only"])
    def test_unreadable_csv_is_a_parse_error_named_in_error_json(self, tmp_path, capsys,
                                                                case):
        path = tmp_path / "src.csv"
        if case == "directory":
            path.mkdir()
        elif case == "not-utf8":
            path.write_bytes(b"f0,label\n\xff,0\n")
        elif case == "label-only":
            path.write_text("label\n0\n1\n")
        out = tmp_path / "run"
        code = main(["run", "--out", str(out), "--set", f"source_train_csv={path}",
                     "--set", f"target_train_csv={path}", "--set", f"target_test_csv={path}"])
        assert code == 1
        with open(out / "error.json") as fh:
            error = json.load(fh)
        assert error["type"] == "ParseError"
        assert error["message"].startswith(f"{path}: ")
        assert capsys.readouterr().err == f"error: {error['message']}\n"

    def test_failed_write_leaves_no_partial_file(self, tmp_path, capsys, monkeypatch):
        # a full disk: the checkpoint write puts 11 bytes down, then fails
        def save_checkpoint(path, _model):
            with open(path, "wb") as fh:
                fh.write(b"partial npz")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "save_checkpoint", save_checkpoint)
        out = tmp_path / "x"
        code = main(["run", "--out", str(out)] + TINY)
        assert code == 1
        message = f"cannot write {out / 'source_model.npz'}: {os.strerror(errno.ENOSPC)}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(os.listdir(out)) == ["config.json", "error.json",
                                           "metrics.csv", "metrics.json"]
        with open(out / "error.json") as fh:
            assert json.load(fh) == {"type": "WriteError", "message": message}

    def test_unwritable_error_file_keeps_the_run_error(self, tmp_path, capsys,
                                                       monkeypatch):
        def run_pipeline(cfg):
            raise InvalidInput("epoch 1, step 1: loss_ce is not finite")

        def dump(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
        monkeypatch.setattr(cli.json, "dump", dump)
        out = tmp_path / "x"
        assert main(["run", "--out", str(out)] + TINY) == 1
        assert capsys.readouterr().err == "error: epoch 1, step 1: loss_ce is not finite\n"
        assert os.listdir(out) == []

    @pytest.mark.parametrize("method,reason", [
        ("", "no method token in ''"), ("+", "no method token in '+'"),
        ("arc+arc", "token 'arc' repeats in 'arc+arc'"),
        ("akc+arc+akc", "token 'akc' repeats in 'akc+arc+akc'"),
    ])
    def test_empty_or_repeated_method_is_a_config_error(self, tmp_path, capsys,
                                                        method, reason):
        out = tmp_path / "x"
        code = main(["run", "--out", str(out), "--set", f"method={method}"] + TINY)
        assert code == 2
        assert capsys.readouterr().err == f"config error: method: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("assignment,message", [
        ("task.cluster_std=-1", "task.cluster_std must be > 0"),
        ("task.input_dim=1", "task.input_dim must be >= 2"),
        ("task.target_classes=1",
         "need task.source_classes >= task.target_classes >= 2"),
        ("task.target_train=0", "split sizes must be >= 1: task.target_train"),
        ("task.source_train=0", "split sizes must be >= 1: task.source_train"),
    ])
    def test_task_errors_name_their_dotted_fields(self, tmp_path, capsys,
                                                  assignment, message):
        code = main(["run", "--out", str(tmp_path / "x"), "--set", assignment])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_every_split_size_below_one_is_named(self):
        spec = SyntheticTaskSpec(source_train=0, target_train=5, target_test=0)
        with pytest.raises(ConfigError, match=(
                r"^split sizes must be >= 1: task.source_train, task.target_test$")):
            spec.validate()

    @pytest.mark.parametrize("n,message", [
        (3, "n_labeled=3 < 4 classes (imprinting needs each)"),
        (4000, "n_labeled=4000 exceeds available 200 examples"),
    ])
    def test_infeasible_n_labeled_names_the_field(self, tmp_path, capsys, n, message):
        out = tmp_path / "x"
        code = main(["run", "--out", str(out), "--set", f"n_labeled={n}"] + TINY)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        with open(out / "error.json") as fh:
            assert json.load(fh) == {"type": "InvalidSplit", "message": message}

    @pytest.mark.parametrize("text", ["", "Unable to allocate 47.7 GiB"])
    def test_out_of_memory_is_one_line_and_exit_1(self, tmp_path, capsys,
                                                  monkeypatch, text):
        def glorot_uniform(rng, fan_in, fan_out):
            raise MemoryError(text)

        monkeypatch.setattr(model, "glorot_uniform", glorot_uniform)
        code = main(["run", "--out", str(tmp_path / "x"),
                     "--set", "feature_dim=100000000"] + TINY)
        assert code == 1
        want = f"error: out of memory: {text}\n" if text else "error: out of memory\n"
        assert capsys.readouterr().err == want

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["run", "--out", str(tmp_path / "x"),
                     "--set", "method=magic"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "assignment",
        ["epochs=1.5", "eta0=abc", "hidden_dims=[8,", "hidden_dims=8",
         "lambda_r=-1", 'hidden_dims=["a"]', "hidden_dims=[8.5]",
         "hidden_dims=[-3]", "hidden_dims=[0]", "seed=-1", "task.seed=-5",
         "buffer_capacity=1", "buffer_k=1", "lambda_k=inf", "lambda_r=inf",
         "lambda_s=inf", "noise_std=inf", "task.cluster_std=nan",
         "task.cluster_std=inf", "task.transfer_rotation_deg=nan",
         "task.transfer_rotation_deg=inf", "task.transfer_shift=nan",
         "task.transfer_shift=inf"],
    )
    def test_bad_override_value_is_a_config_error(self, tmp_path, capsys,
                                                  assignment):
        code = main(["run", "--out", str(tmp_path / "x"), "--set", assignment])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and assignment.partition("=")[0] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", ["eta0", "source_eta0"])
    @pytest.mark.parametrize("value", ["0", "-0.5", "nan", "inf"])
    def test_learning_rate_must_be_finite_and_positive(self, tmp_path, capsys,
                                                       field, value):
        code = main(["run", "--out", str(tmp_path / "x"), "--set", f"{field}={value}"])
        assert code == 2
        assert capsys.readouterr().err == f"config error: invalid config fields: {field}\n"
        assert not (tmp_path / "x").exists()

    def test_diverging_source_pre_training_names_its_step(self, tmp_path, capsys):
        out = str(tmp_path / "x")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--out", out] + TINY + ["--set", "source_eta0=1e6"])
        err = capsys.readouterr().err
        assert code == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        match = re.fullmatch(r"error: (source pre-training, epoch 1, step \d+: "
                             r"logits contains NaN/Inf)\n", err)
        assert match
        with open(os.path.join(out, "error.json")) as fh:
            assert json.load(fh) == {"type": "InvalidInput", "message": match[1]}

    @pytest.mark.parametrize("command", [
        ["run"], ["sweep", "--axis", "eps_r", "--values", "0.5", "--seeds", "1"],
    ])
    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-a-file"])
    def test_out_that_cannot_be_a_directory_is_a_config_error(
            self, tmp_path, capsys, command, under):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        out = str(blocker / under) if under else str(blocker)
        code = main(command + ["--out", out] + TINY)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: out_dir: cannot create directory {out!r}: ")
        assert blocker.read_text() == "not a directory"

    def test_negative_run_seed_is_a_config_error(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path / "x"), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "config error: invalid config fields: seed\n"
        with pytest.raises(ConfigError, match="^invalid config fields: seed$"):
            run_pipeline(ExperimentConfig(seed=-1))

    def test_csv_run_writes_its_files_and_reruns_byte_identically(self, tmp_path):
        argv = ["run", "--out", str(tmp_path / "run"), "--seed", "1",
                "--set", "source_epochs=2", "--set", "epochs=1"] + csv_task(tmp_path)
        runs = []
        for _ in range(2):
            assert main(argv) == 0
            run = tmp_path / "run"
            runs.append({name: (run / name).read_bytes() for name in os.listdir(run)})
        assert sorted(runs[0]) == [
            "config.json", "metrics.csv", "metrics.json",
            "source_model.npz", "target_model.npz"]
        assert runs[0] == runs[1]

    def test_diverging_run_names_its_step(self, tmp_path, capsys):
        out = str(tmp_path / "x")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--out", out, "--set", "eta0=50",
                         "--set", "method=akc+arc"] + TINY + ["--set", "epochs=2"])
        err = capsys.readouterr().err
        assert code == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        match = re.fullmatch(r"error: (epoch \d+, step \d+: loss_arc is not finite)\n", err)
        assert match
        with open(os.path.join(out, "error.json")) as fh:
            assert json.load(fh) == {"type": "InvalidInput", "message": match[1]}

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("text,named", [
        ('{"epochs": "5"}', "epochs"), ('{"epochs": 1.5}', "epochs"),
        ('{"method": 5}', "method"), ('{"task": 3}', "task"),
        ("[1, 2]", "c.json"), ('{"epochs": ', "c.json"),
        ('{"config": 3, "metadata": {}}', "c.json"),
    ])
    def test_bad_config_file_is_a_config_error(self, tmp_path, capsys, text,
                                               named):
        p = tmp_path / "c.json"
        p.write_text(text)
        code = main(["run", "--config", str(p), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error") and named in err

    def test_directory_as_config_file_is_a_config_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error") and str(tmp_path) in err

    def test_config_file_plus_override(self, tmp_path):
        p = tmp_path / "c.json"
        cfg = ExperimentConfig(method="supervised", epochs=1, source_epochs=1)
        from dataclasses import replace

        cfg.task = replace(cfg.task, source_train=200, target_train=150,
                           target_test=100)
        cfg.to_json(p, {})
        out = str(tmp_path / "run")
        code = main(["run", "--config", str(p), "--out", out,
                     "--set", "method=akc"])
        assert code == 0
        with open(os.path.join(out, "config.json")) as fh:
            assert json.load(fh)["config"]["method"] == "akc"


class TestRunDirectory:
    """A run directory holds the files of the last run into it, and no file
    of an earlier one."""

    def test_finished_run_removes_the_error_of_a_failed_one(self, tmp_path):
        out = tmp_path / "x"
        assert main(["run", "--out", str(out), "--set", "n_labeled=3"] + TINY) == 1
        assert main(["run", "--out", str(out), "--set", "n_labeled=8"] + TINY) == 0
        assert sorted(os.listdir(out)) == [
            "config.json", "metrics.csv", "metrics.json",
            "source_model.npz", "target_model.npz"]

    def test_failed_run_removes_the_results_of_a_finished_one(self, tmp_path):
        out = tmp_path / "x"
        out.mkdir()
        (out / "notes.txt").write_text("not a run file\n")
        assert main(["run", "--out", str(out), "--set", "n_labeled=8"] + TINY) == 0
        assert main(["run", "--out", str(out), "--set", "n_labeled=3"] + TINY) == 1
        assert sorted(os.listdir(out)) == ["error.json", "notes.txt"]
        with open(out / "error.json") as fh:
            assert json.load(fh)["type"] == "InvalidSplit"


class TestSharedSetups:
    """A grid reads its data and pre-trains its source once per seed."""

    @pytest.mark.parametrize("argv,sub_runs", [
        (["sweep", "--axis", "eps_r", "--values", "0.3,0.7", "--seeds", "2",
          "--set", "method=arc"], 4),
        (["compare", "--n-labeled", "8,12", "--seeds", "1"], 14),
    ], ids=["sweep-eps_r-2-seeds", "compare-2-n_labeled"])
    def test_sub_runs_equal_runs_outside_a_grid(self, tmp_path, monkeypatch,
                                                argv, sub_runs):
        pre_trained = count_calls(monkeypatch, training, "train_supervised")
        grid = tmp_path / "grid"
        assert main(argv + ["--out", str(grid)] + TINY) == 0
        assert len(pre_trained) == int(argv[argv.index("--seeds") + 1])
        subs = sorted(p for p in grid.iterdir() if p.is_dir())
        assert len(subs) == sub_runs
        for sub in subs:
            solo = tmp_path / "solo" / sub.name
            cfg = ExperimentConfig.from_json(sub / "config.json")
            cfg.out_dir = str(solo)
            execute_run(cfg)
            names = sorted(os.listdir(sub))
            assert names == sorted(os.listdir(solo))
            for name in names:
                got, want = (sub / name).read_bytes(), (solo / name).read_bytes()
                if name == "config.json":
                    got, want = json.loads(got), json.loads(want)
                    del got["config"]["out_dir"], want["config"]["out_dir"]
                assert got == want, f"{sub.name}/{name}"
        assert len(pre_trained) == int(argv[argv.index("--seeds") + 1]) + sub_runs

    def test_grid_over_a_bad_csv_fails_every_sub_run(self, tmp_path, capsys,
                                                      monkeypatch):
        args = csv_task(tmp_path)
        source = tmp_path / "source_train_csv.csv"
        lines = source.read_text().splitlines(keepends=True)
        lines[1] = "abc" + lines[1][lines[1].index(","):]
        source.write_text("".join(lines))
        prepared = count_calls(monkeypatch, training, "prepare")
        grid = tmp_path / "grid"
        code = main(["sweep", "--axis", "eps_r", "--values", "0.3,0.7", "--seeds", "2",
                     "--out", str(grid), "--set", "epochs=1", "--set", "source_epochs=1"]
                    + args)
        assert code == 1
        message = f"{source}:2:1: non-numeric 'abc'"
        subs = [grid / f"eps_r_{v}_seed{s}" for v in (0.3, 0.7) for s in (0, 1)]
        assert capsys.readouterr().err == "".join(
            f"sub-run failed ({sub}): {message}\n" for sub in subs)
        for sub in subs:
            assert os.listdir(sub) == ["error.json"]
            with open(sub / "error.json") as fh:
                assert json.load(fh) == {"type": "ParseError", "message": message}
        assert len(prepared) == len(subs)  # a failed set-up is not kept

    def test_grid_whose_pre_training_diverges_pre_trains_once_per_seed(
            self, tmp_path, capsys, monkeypatch):
        pre_trained = count_calls(monkeypatch, training, "train_supervised")
        grid = tmp_path / "grid"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["sweep", "--axis", "eps_r", "--values", "0.3,0.7", "--seeds",
                         "2", "--out", str(grid), "--set", "source_eta0=1e9"] + TINY)
        assert code == 1
        assert len(pre_trained) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        lines = capsys.readouterr().err.splitlines()
        subs = [grid / f"eps_r_{v}_seed{s}" for v in (0.3, 0.7) for s in (0, 1)]
        assert len(lines) == len(subs)
        for sub, line in zip(subs, lines):
            match = re.fullmatch(rf"sub-run failed \({re.escape(str(sub))}\): "
                                 r"(source pre-training, epoch 1, step \d+: "
                                 r"logits contains NaN/Inf)", line)
            assert match
            assert os.listdir(sub) == ["error.json"]
            with open(sub / "error.json") as fh:
                assert json.load(fh) == {"type": "InvalidInput", "message": match[1]}


class TestSweepCommand:
    def test_summary_table(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        code = main(["sweep", "--axis", "eps_k", "--values", "0,0.7",
                     "--seeds", "1", "--out", out,
                     "--set", "method=akc"] + TINY)
        assert code == 0
        with open(os.path.join(out, "summary.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0].startswith("eps_k,mean_last_acc")
        assert len(lines) == 3
        assert "eps_k" in capsys.readouterr().out

    def test_sub_run_whose_write_fails_is_named_and_the_grid_goes_on(
            self, tmp_path, capsys, monkeypatch):
        def save_checkpoint(path, model_):
            if "eps_k_0.0_seed0" in path:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            model.save_checkpoint(path, model_)

        monkeypatch.setattr(cli, "save_checkpoint", save_checkpoint)
        out = tmp_path / "sweep"
        code = main(["sweep", "--axis", "eps_k", "--values", "0,0.7", "--seeds", "1",
                     "--out", str(out), "--set", "method=akc"] + TINY)
        assert code == 1
        failed = out / "eps_k_0.0_seed0"
        assert capsys.readouterr().err == (
            f"sub-run failed ({failed}): cannot write {failed / 'source_model.npz'}: "
            f"{os.strerror(errno.ENOSPC)}\n")
        assert "source_model.npz" not in os.listdir(failed)
        assert sorted(os.listdir(out / "eps_k_0.7_seed0")) == [
            "config.json", "metrics.csv", "metrics.json", "source_model.npz",
            "target_model.npz"]
        with open(out / "summary.csv") as fh:
            assert len(fh.read().strip().splitlines()) == 2

    def test_summary_that_cannot_be_written_is_one_error_line(self, tmp_path, capsys):
        argv = ["sweep", "--axis", "eps_k", "--values", "0,0.7", "--seeds", "1",
                "--set", "method=akc"] + TINY
        out = tmp_path / "sweep"
        (out / "summary.csv").mkdir(parents=True)
        code = main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (f"error: cannot write {out / 'summary.csv'}: "
                                f"{os.strerror(errno.EISDIR)}\n")
        assert sorted(os.listdir(out)) == ["eps_k_0.0_seed0", "eps_k_0.7_seed0",
                                           "summary.csv"]
        for sub in ("eps_k_0.0_seed0", "eps_k_0.7_seed0"):
            assert sorted(os.listdir(out / sub)) == sorted(cli.RESULT_FILES)
        assert main(argv + ["--out", str(tmp_path / "ok")]) == 0
        assert captured.out == capsys.readouterr().out

    def test_bad_axis_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "bogus", "--values", "1",
                  "--out", str(tmp_path)])

    def test_n_labeled_axis_coerces_int(self, tmp_path):
        out = str(tmp_path / "sweep")
        code = main(["sweep", "--axis", "n_labeled", "--values", "8,12",
                     "--seeds", "1", "--out", out] + TINY)
        assert code == 0
        assert os.path.isdir(os.path.join(out, "n_labeled_8_seed0"))

    def test_sub_run_config_names_its_own_directory(self, tmp_path):
        out = str(tmp_path / "sweep")
        code = main(["sweep", "--axis", "eps_r", "--values", "0.3",
                     "--seeds", "1", "--out", out] + TINY)
        assert code == 0
        sub_dir = os.path.join(out, "eps_r_0.3_seed0")
        with open(os.path.join(sub_dir, "config.json")) as fh:
            assert json.load(fh)["config"]["out_dir"] == sub_dir

    def test_failed_sub_run_is_reported_and_the_rest_summarized(self, tmp_path,
                                                                 capsys):
        # TINY's target task has 4 classes, so n_labeled=3 cannot imprint
        out = str(tmp_path / "sweep")
        code = main(["sweep", "--axis", "n_labeled", "--values", "3,12",
                     "--seeds", "1", "--out", out] + TINY)
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("sub-run failed") == 1 and "Traceback" not in err
        with open(os.path.join(out, "summary.csv")) as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["12"]


class TestCompareCommand:
    def test_grid_and_summary(self, tmp_path, capsys):
        out = str(tmp_path / "cmp")
        code = main(["compare", "--seeds", "1", "--n-labeled", "12",
                     "--out", out] + TINY)
        assert code == 0
        with open(os.path.join(out, "summary.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "method,mean_acc_n12,std_acc_n12"
        methods = [l.split(",")[0] for l in lines[1:]]
        assert "supervised" in methods and "akc+arc" in methods
        assert len(methods) == 7

    def test_failed_sub_runs_are_reported_and_the_rest_summarized(
            self, tmp_path, capsys):
        # TINY's target task has 4 classes, so n_labeled=3 cannot imprint
        out = str(tmp_path / "cmp")
        code = main(["compare", "--seeds", "1", "--n-labeled", "3,12",
                     "--out", out] + TINY)
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("sub-run failed") == 7 and "Traceback" not in err
        with open(os.path.join(out, "summary.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7
        for row in rows:
            assert row["mean_acc_n3"] == row["std_acc_n3"] == ""
            assert float(row["mean_acc_n12"]) > 0 and row["std_acc_n12"] != ""
        # each failed sub-run's directory says why it failed
        failed_dirs = sorted(d for d in os.listdir(out) if d.endswith("_n3_seed0"))
        assert len(failed_dirs) == 7
        for d in failed_dirs:
            assert os.listdir(os.path.join(out, d)) == ["error.json"]
            with open(os.path.join(out, d, "error.json")) as fh:
                error = json.load(fh)
            assert error["type"] == "InvalidSplit"
            assert f"sub-run failed ({os.path.join(out, d)}): {error['message']}" in err
        assert not any(os.path.exists(os.path.join(out, d, "error.json"))
                       for d in os.listdir(out) if d.endswith("_n12_seed0"))


class TestGridArguments:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--axis", "eps_r", "--values", "0.3,abc", "--seeds", "1"],
        ["sweep", "--axis", "n_labeled", "--values", "8.0", "--seeds", "1"],
        ["sweep", "--axis", "eps_r", "--values", "0.3", "--seeds", "0"],
        ["compare", "--n-labeled", "x", "--seeds", "1"],
        ["compare", "--seeds", "0"],
        ["sweep", "--axis", "eps_r", "--values", "0.3,2", "--seeds", "1"],
        ["compare", "--n-labeled", "12,1", "--seeds", "1"],
    ], ids=["sweep-value-abc", "sweep-n_labeled-8.0", "sweep-seeds-0",
            "compare-n_labeled-x", "compare-seeds-0", "sweep-eps_r-2",
            "compare-n_labeled-1"])
    def test_bad_grid_argument_is_a_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "grid"
        code = main(argv + ["--out", str(out)] + TINY)
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "Traceback" not in err
        assert not out.exists()  # rejected before any sub-run

    @pytest.mark.parametrize("argv", [
        ["sweep", "--axis", "eps_r", "--values", "0.7,0.70", "--seeds", "1"],
        ["sweep", "--axis", "n_labeled", "--values", "8,12,08", "--seeds", "1"],
        ["compare", "--n-labeled", "12,12", "--seeds", "1"],
    ], ids=["sweep-eps_r-0.7-0.70", "sweep-n_labeled-8-08", "compare-12-12"])
    def test_repeated_grid_value_is_a_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "grid"
        code = main(argv + ["--out", str(out)] + TINY)
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "repeats" in err
        assert not out.exists()  # rejected before any sub-run
