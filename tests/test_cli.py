import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from wsol import cli
from wsol.cli import main
from wsol.config import load_loss
from wsol.loss import combined_loss
from wsol.series import read_dataset_csv, read_series_csv


SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def demo_dir(tmp_path):
    out = tmp_path / "demo"
    assert run(["demo-figure1", "--out-dir", out]) == 0
    return out


@pytest.fixture
def loss_file(tmp_path):
    path = tmp_path / "loss.json"
    path.write_text(
        json.dumps(
            {
                "score": "tss",
                "weights": {"variant": "value_max", "omega": [0.6, 0.3, 0.1]},
                "distribution": {"kind": "uniform"},
            }
        )
    )
    return path


@pytest.fixture
def synth_file(tmp_path):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({"n": 80, "event_rate": 0.2, "seed": 3}))
    return path


class TestDemo:
    def test_emits_expected_files_and_claims(self, demo_dir):
        comparison = json.loads((demo_dir / "comparison.json").read_text())
        assert comparison["confusion"] == {"tn": 15, "fp": 4, "fn": 2, "tp": 5}
        for name in ("tss", "hss", "f1"):
            adj = comparison["weighted_scores"]["adjacent_errors"][name]
            iso = comparison["weighted_scores"]["isolated_errors"][name]
            assert adj > iso
        assert (demo_dir / "series_adjacent_errors.csv").exists()
        assert (demo_dir / "series_isolated_errors.csv").exists()

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run(["demo-figure1", "--out-dir", a])
        run(["demo-figure1", "--out-dir", b])
        for name in (
            "comparison.json",
            "series_adjacent_errors.csv",
            "series_isolated_errors.csv",
        ):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestEval:
    def test_demo_pair_reports(self, demo_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "distribution": {"kind": "uniform"},
                    "weights": {"variant": "value_max", "omega": [0.6, 0.3, 0.1]},
                    "score": "tss",
                }
            )
        )
        reports = {}
        for tag in ("adjacent", "isolated"):
            out = tmp_path / f"report_{tag}.json"
            code = run(
                [
                    "eval",
                    "--data",
                    demo_dir / f"series_{tag}_errors.csv",
                    "--config",
                    cfg,
                    "--out",
                    out,
                ]
            )
            assert code == 0
            reports[tag] = json.loads(out.read_text())
        adj, iso = reports["adjacent"], reports["isolated"]
        for row_a, row_b in zip(adj["sweep"], iso["sweep"]):
            assert row_a["scores"] == row_b["scores"]
        assert (
            adj["expected"]["scores_weighted"]["tss"]
            > iso["expected"]["scores_weighted"]["tss"]
        )

    def test_unit_weights_reduce_to_classical_expectation(self, demo_dir, tmp_path):
        cfg = tmp_path / "unit.json"
        cfg.write_text(
            json.dumps({"distribution": {"kind": "uniform"}, "weights": {"variant": "unit"}})
        )
        out = tmp_path / "unit_report.json"
        run(
            [
                "eval",
                "--data",
                demo_dir / "series_adjacent_errors.csv",
                "--config",
                cfg,
                "--out",
                out,
            ]
        )
        report = json.loads(out.read_text())
        assert report["expected"]["classical"] == report["expected"]["weighted"]

    def test_empty_series_is_input_error(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("timestamp,label,prediction\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weights": {"variant": "unit"}}))
        assert run(["eval", "--data", data, "--config", cfg]) == 1
        assert "empty series" in capsys.readouterr().err

    def test_gated_combination_is_config_error(self, demo_dir, tmp_path, capsys):
        cfg = tmp_path / "gated.json"
        cfg.write_text(
            json.dumps(
                {
                    "distribution": {"kind": "beta", "alpha": 2.0, "beta": 2.0},
                    "weights": {
                        "variant": "cross_entropy",
                        "omega0": 1.0,
                        "omega1": 1.0,
                    },
                }
            )
        )
        code = run(
            [
                "eval",
                "--data",
                demo_dir / "series_adjacent_errors.csv",
                "--config",
                cfg,
            ]
        )
        assert code == 2
        assert "uniform prior" in capsys.readouterr().err


class TestLoss:
    def test_prints_value_and_gradient_csv(self, demo_dir, loss_file, capsys):
        code = run(
            [
                "loss",
                "--data",
                demo_dir / "series_adjacent_errors.csv",
                "--loss",
                loss_file,
                "--gradient",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("loss,")
        assert lines[1] == "index,gradient"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 26
        values = np.array([float(v) for _, v in rows])
        assert np.all(np.isfinite(values))
        # Cross-check against the library.
        from wsol.config import load_loss
        from wsol.loss import loss_gradient, loss_value
        from wsol.series import read_series_csv

        series = read_series_csv(demo_dir / "series_adjacent_errors.csv")
        spec = load_loss(loss_file)
        assert float(lines[0].split(",")[1]) == loss_value(series, spec)
        np.testing.assert_array_equal(values, loss_gradient(series, spec).values)

    def test_nan_prediction_is_input_error(self, tmp_path, loss_file, capsys):
        data = tmp_path / "nan.csv"
        data.write_text("timestamp,label,prediction\n0,0,0.3\n1,1,nan\n2,0,0.6\n")
        assert run(["loss", "--data", data, "--loss", loss_file, "--gradient"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("input error:") and "\n" not in err

    def test_single_class_series_is_input_error(self, tmp_path, capsys):
        # TSS has no derivative without negatives (tn + wfp == 0).
        data = tmp_path / "positives.csv"
        data.write_text("timestamp,label,prediction\n0,1,0.3\n1,1,0.6\n")
        loss = tmp_path / "tss.json"
        loss.write_text(
            json.dumps(
                {
                    "score": "tss",
                    "weights": {"variant": "unit"},
                    "distribution": {"kind": "uniform"},
                }
            )
        )
        assert run(["loss", "--data", data, "--loss", loss, "--gradient"]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert err.startswith("input error:") and "\n" not in err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "predictions, kinks",
        [((0.5, 0.5, 0.3, 0.5, 0.2), [1, 2, 3]), ((0.5, 0.4, 0.3, 0.6, 0.2), [])],
        ids=["ties", "smooth"],
    )
    def test_gradient_warns_of_kinks(self, tmp_path, capsys, predictions, kinks):
        # Ties within a value_max window leave only one-sided derivatives,
        # at the kink indices of the library's gradient.
        data = tmp_path / "series.csv"
        rows = "".join(f"{y},{p}\n" for y, p in zip((0, 0, 1, 1, 0), predictions))
        data.write_text("label,prediction\n" + rows)
        loss = tmp_path / "max.json"
        weights = {"variant": "value_max", "omega": [0.6, 0.3]}
        loss.write_text(json.dumps(dict(_COMPONENT, weights=weights)))
        assert run(["loss", "--data", data, "--loss", loss, "--gradient"]) == 0
        err = capsys.readouterr().err
        _, grad = combined_loss(read_series_csv(data), load_loss(loss))
        assert list(grad.kink_indices) == kinks
        if kinks:
            assert err == f"warning: one-sided derivatives at kink indices {kinks}\n"
        else:
            assert err == ""

    def test_closed_stdout_ends_quietly(self, tmp_path, loss_file):
        # The gradient of 20k predictions outgrows a pipe's buffer, so the
        # writes after the reader has gone fail.
        rng = np.random.default_rng(5)
        labels = (rng.random(20_000) < 0.3).astype(int)
        predictions = rng.uniform(0.01, 0.99, 20_000).tolist()
        data = tmp_path / "big.csv"
        rows = "".join(f"{y},{p!r}\n" for y, p in zip(labels, predictions))
        data.write_text("label,prediction\n" + rows)
        argv = [sys.executable, "-m", "wsol.cli", "loss", "--data", data]
        argv += ["--loss", loss_file, "--gradient"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        pipes = dict(stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        with subprocess.Popen(argv, **pipes) as proc:
            assert proc.stdout.readline().startswith(b"loss,")
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == cli.EXIT_BROKEN_PIPE
        assert err == b""

    def test_combined_loss_file(self, demo_dir, tmp_path, capsys):
        component = {
            "score": "tss",
            "weights": {"variant": "unit"},
            "distribution": {"kind": "uniform"},
        }
        path = tmp_path / "combo.json"
        path.write_text(
            json.dumps(
                {"components": [dict(component, beta=0.4), dict(component, beta=0.6)]}
            )
        )
        code = run(
            [
                "loss",
                "--data",
                demo_dir / "series_isolated_errors.csv",
                "--loss",
                path,
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("loss,")


class TestVerify:
    def test_quick_pass(self, tmp_path):
        out = tmp_path / "verify.json"
        code = run(["verify", "--seed", 5, "--samples", 2000, "--out", out])
        assert code == 0
        table = json.loads(out.read_text())
        assert all(row["passed"] for row in table)

    def test_only_filter(self, capsys):
        assert run(["verify", "--only", "thm3", "--samples", 2000]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 1 and "thm3" in lines[0]

    def test_unmatched_filter_fails(self):
        assert run(["verify", "--only", "nonexistent_check"]) == 3

    @pytest.mark.parametrize(
        "error,shown", [(1e-9, "1e-09"), (float("nan"), "nan")], ids=["1e-9", "nan"]
    )
    def test_closed_form_error_fails_and_names_the_check(
        self, monkeypatch, capsys, error, shown
    ):
        from wsol.weights import ValueMaxWeight

        closed_form = ValueMaxWeight.expected_errors

        def off(self, series, dist, cdf):
            e_wfp, e_wfn = closed_form(self, series, dist, cdf)
            return e_wfp, e_wfn + error

        monkeypatch.setattr(ValueMaxWeight, "expected_errors", off)
        assert run(["verify", "--only", "thm3"]) == 3
        err = capsys.readouterr().err
        assert f"failed: thm3_max_window_closed_form: exact {shown} out of bounds" in err

    def test_sample_count_past_memory_exits_2_with_one_line(self, tmp_path, capsys):
        # numpy refuses the 7.28 TiB array of draws without touching memory.
        out = tmp_path / "table.json"
        argv = ["verify", "--samples", 10**12, "--only", "closed_vs_mc", "--out", out]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: out of memory: ")

    def test_small_sample_count_widens_bands(self):
        # Bands scale with the Monte Carlo standard error, so the floor
        # sample count still passes.
        assert run(["verify", "--only", "closed_vs_mc", "--samples", 1000]) == 0


class TestTrain:
    def test_writes_artifacts_and_is_deterministic(self, tmp_path, loss_file, synth_file):
        out_a = tmp_path / "run_a"
        out_b = tmp_path / "run_b"
        argv = [
            "train",
            "--synth",
            synth_file,
            "--loss",
            loss_file,
            "--epochs",
            20,
            "--lr",
            "0.2",
            "--seed",
            7,
        ]
        assert run(argv + ["--out-dir", out_a]) == 0
        assert run(argv + ["--out-dir", out_b]) == 0
        for name in ("checkpoint.json", "history.csv", "evaluation.json"):
            assert (out_a / name).exists()
        assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()

    def test_missing_data_and_synth_is_input_error(self, loss_file, capsys):
        assert run(["train", "--loss", loss_file]) == 1
        assert "needs --data or --synth" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path, capsys):
        # Large features and a huge learning rate overflow the first update.
        data = tmp_path / "large.csv"
        data.write_text("f1,f2,label\n10,300,1\n200,20,0\n50,150,1\n300,10,0\n")
        loss = tmp_path / "ce.json"
        loss.write_text(
            json.dumps(
                {
                    "score": "neg_error_sum",
                    "weights": {"variant": "cross_entropy", "omega0": 1, "omega1": 1},
                    "distribution": {"kind": "uniform"},
                }
            )
        )
        argv = ["train", "--data", data, "--loss", loss, "--lr", "1e308"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv + ["--epochs", 10, "--out-dir", tmp_path / "diverge"])
        assert code == 4 and caught == []
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("training diverged: ") and "epoch 0" in line

    def test_non_finite_feature_exits_1_before_any_output(
        self, tmp_path, loss_file, capsys
    ):
        data = tmp_path / "poisoned.csv"
        data.write_text("f1,f2,label\n0.5,1.0,1\nnan,0.2,0\n0.1,0.3,1\n")
        out = tmp_path / "never"
        argv = ["train", "--data", data, "--loss", loss_file, "--out-dir", out]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == [
            f"input error: {data}:3: features must be finite"
        ]

    def test_non_finite_learning_rate_exits_2_before_any_output(
        self, tmp_path, loss_file, synth_file, capsys
    ):
        out = tmp_path / "never"
        argv = ["train", "--synth", synth_file, "--loss", loss_file, "--lr", "nan"]
        assert run(argv + ["--out-dir", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == [
            "error: learning_rate must be finite, got nan"
        ]

    def test_trains_from_dataset_csv(self, tmp_path, loss_file):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 3))
        y = (rng.random(40) < 0.4).astype(int)
        y[:2] = [0, 1]
        data = tmp_path / "data.csv"
        header = "f1,f2,f3,label"
        fmt = ["%.17g"] * 3 + ["%d"]
        np.savetxt(data, np.column_stack([x, y]), fmt, ",", header=header, comments="")
        back_x, back_y = read_dataset_csv(data)
        np.testing.assert_allclose(back_x, x)
        np.testing.assert_array_equal(back_y, y)
        code = run(
            [
                "train",
                "--data",
                data,
                "--loss",
                loss_file,
                "--epochs",
                5,
                "--out-dir",
                tmp_path / "from_csv",
            ]
        )
        assert code == 0


@pytest.mark.parametrize(
    "command, header, row",
    [("loss", b"label,prediction", b"1,0.5"), ("train", b"f1,f2,label", b"0.5,1.0,1")],
    ids=["loss", "train"],
)
@pytest.mark.parametrize("defect", ["non_utf8", "oversized_field"])
def test_unreadable_csv_exits_1_without_output(
    command, header, row, defect, tmp_path, loss_file, monkeypatch, capsys
):
    data = tmp_path / "data.csv"
    if defect == "non_utf8":
        header = header.replace(b"l", b"\xff", 1)
        message = f"input error: {data}: not UTF-8 text: invalid start byte"
    else:
        row = row.replace(b"0.5", b"0." + b"0" * 200_000 + b"5")
        message = f"input error: {data}:2: field larger than field limit (131072)"
    data.write_bytes(header + b"\n" + row + b"\n")
    monkeypatch.chdir(tmp_path)  # train's default output directory lands here
    assert run([command, "--data", data, "--loss", loss_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "loss.json"]


def test_seed_env_override(tmp_path, monkeypatch, loss_file, synth_file):
    monkeypatch.setenv("WSOL_SEED", "123")
    out_a = tmp_path / "env_a"
    out_b = tmp_path / "env_b"
    argv = ["train", "--synth", synth_file, "--loss", loss_file, "--epochs", 3]
    assert run(argv + ["--out-dir", out_a]) == 0
    monkeypatch.setenv("WSOL_SEED", "124")
    assert run(argv + ["--out-dir", out_b]) == 0
    assert (out_a / "history.csv").read_bytes() != (out_b / "history.csv").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--data", "s.csv", "--config", "c.json", "--sweep-step", "0"],
        ["eval", "--data", "s.csv", "--config", "c.json", "--sweep-step", "2"],
        ["eval", "--data", "s.csv", "--config", "c.json", "--sweep-step", "9e-5"],
        ["eval", "--data", "s.csv", "--config", "c.json", "--sweep-step", "1e-9"],
        ["eval", "--data", "s.csv", "--config", "c.json", "--sweep-step", "0." + "9" * 11],
        ["demo-figure1", "--omega", ""],
        ["train", "--loss", "l.json", "--hidden", "x"],
        ["train", "--loss", "l.json", "--hidden", "0"],
        ["verify", "--samples", "0"],
        ["verify", "--samples", "999", "--only", "cost"],
        ["verify", "--seed", "-1", "--only", "cost"],
        ["train", "--loss", "l.json", "--seed", "-1"],
        ["demo-figure1", "--tau", "nan"],
        ["demo-figure1", "--tau", "2"],
        ["eval", "--data", "s.csv", "--config", "c.json", "--sweep-step", "abc"],
        ["demo-figure1", "--tau", "abc"],
    ],
    ids=[
        "sweep-step-0",
        "sweep-step-2",
        "sweep-step-9e-5",
        "sweep-step-1e-9",
        "sweep-step-no-grid",
        "omega-empty",
        "hidden-x",
        "hidden-0",
        "samples-0",
        "samples-999",
        "seed-negative",
        "train-seed-negative",
        "tau-nan",
        "tau-2",
        "sweep-step-abc",
        "tau-abc",
    ],
)
def test_bad_numeric_argument_exits_2(argv, tmp_path, monkeypatch, capsys):
    # Relative output paths land in the empty working directory.
    monkeypatch.chdir(tmp_path)
    err = assert_usage_error(argv, capsys)
    assert "_open_unit_interval" not in err and "_sweep_step" not in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_step_whose_last_point_rounds_to_one_runs(demo_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weights": {"variant": "unit"}}))
    out = tmp_path / "report.json"
    data = demo_dir / "series_adjacent_errors.csv"
    argv = ["eval", "--data", data, "--config", cfg, "--out", out]
    assert run(argv + ["--sweep-step", "0.3333333333333333"]) == 0
    taus = [row["tau"] for row in json.loads(out.read_text())["sweep"]]
    assert taus == [0.3333333333, 0.6666666667]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, distribution",
    [("loss", (1e154, 1e154)), ("eval", (1e-300, 1e300))],
    ids=["loss-beta-1e154", "eval-beta-1e300"],
)
def test_extreme_beta_shapes_exit_2_with_one_line(
    demo_dir, tmp_path, capsys, command, distribution
):
    # Warnings are errors here, since pytest keeps them off stderr.
    alpha, beta = distribution
    document = {
        "score": "tss",
        "weights": {"variant": "value_max", "omega": [0.6, 0.3, 0.1]},
        "distribution": {"kind": "beta", "alpha": alpha, "beta": beta},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    data = demo_dir / "series_adjacent_errors.csv"
    if command == "loss":
        argv = ["loss", "--data", data, "--loss", path]
    else:
        argv = ["eval", "--data", data, "--config", path, "--out", tmp_path / "out"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("config error: ") and "at most" in line


def test_sweep_step_bound_is_accepted():
    argv = ["eval", "--data", "s.csv", "--config", "c.json", "--sweep-step", "1e-4"]
    assert cli._build_parser().parse_args(argv).sweep_step == cli.MIN_SWEEP_STEP


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_bad_seed_env_exits_2(value, monkeypatch, capsys):
    monkeypatch.setenv("WSOL_SEED", value)
    assert_usage_error(["verify", "--only", "cost"], capsys)


def assert_usage_error(argv, capsys):
    """The run exits 2 with one error line and no traceback; returns stderr."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    return err


@pytest.mark.parametrize("command", ["eval", "train"])
def test_non_finite_report_exits_2_without_writing(
    demo_dir, tmp_path, loss_file, synth_file, monkeypatch, capsys, command
):
    # JSON has no NaN: a report holding one fails before any file opens.
    real = cli.expected_report
    monkeypatch.setattr(
        cli, "expected_report", lambda *a: dict(real(*a), bad=float("nan"))
    )
    out = tmp_path / "out"
    if command == "eval":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weights": {"variant": "unit"}}))
        data = demo_dir / "series_adjacent_errors.csv"
        argv = ["eval", "--data", data, "--config", cfg, "--out", out]
    else:
        argv = ["train", "--synth", synth_file, "--loss", loss_file]
        argv += ["--epochs", 2, "--out-dir", out]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: cannot write JSON")


_COMPONENT = {
    "score": "tss",
    "weights": {"variant": "unit"},
    "distribution": {"kind": "uniform"},
}


@pytest.mark.parametrize(
    "command, document",
    [
        ("loss", {"components": [dict(_COMPONENT, beta=float("nan"))]}),
        ("loss", dict(_COMPONENT, weights={"variant": "value_max", "omega": 5})),
        ("loss", dict(_COMPONENT, weights={"variant": "value_max", "omega": None})),
        ("loss", {"components": 3}),
        ("loss", {"components": [dict(_COMPONENT, beta="x")]}),
        ("loss", {"loss": 3}),
        ("loss", dict(_COMPONENT, weights=3)),
        ("loss", dict(_COMPONENT, distribution={"kind": "beta", "alpha": "2", "beta": 2})),
        ("loss", dict(_COMPONENT, weights={"variant": "cost", "c01": True, "c10": 1})),
        ("loss", dict(_COMPONENT, weights={"variant": "value_max", "omega": "0.5"})),
        ("synth", {"n": "abc"}),
        ("synth", {"n": None}),
        ("synth", {"seed": -1}),
        ("synth", {"n": "80"}),
        ("synth", {"n": 1e30}),
        ("synth", {"n": 1_000_001}),
        ("synth", {"features": 101}),
    ],
    ids=[
        "beta-nan",
        "omega-5",
        "omega-null",
        "components-3",
        "beta-x",
        "loss-3",
        "weights-3",
        "alpha-str",
        "c01-true",
        "omega-str",
        "n-abc",
        "n-null",
        "seed-negative",
        "n-str",
        "n-1e30",
        "n-over-bound",
        "features-over-bound",
    ],
)
def test_bad_document_values_exit_2_with_one_line(
    tmp_path, loss_file, command, document, capsys
):
    """A value of the wrong type, a non-finite one or one past its bound is a
    config error."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    out = tmp_path / "never"
    if command == "loss":
        data = tmp_path / "s.csv"
        data.write_text("label,prediction\n0,0.2\n1,0.7\n")
        argv = ["loss", "--data", data, "--loss", bad, "--gradient"]
    else:
        argv = ["train", "--synth", bad, "--loss", loss_file, "--out-dir", out]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    (line,) = captured.err.splitlines()
    assert line.startswith("config error: ")


def _cost(c):
    return {"variant": "cost", "c01": c, "c10": c}


def _loss_doc(score, weights):
    return dict(_COMPONENT, score=score, weights=weights)


_LOSS_ARGV = ["loss", "--data", "s.csv", "--loss", "l.json", "--gradient"]
_EVAL_ARGV = ["eval", "--data", "s.csv", "--config", "l.json", "--out", "r.json"]


@pytest.mark.parametrize(
    "argv, files, code",
    [
        (_LOSS_ARGV, {"l.json": _loss_doc("tss", _cost(1e200))}, 2),
        (_LOSS_ARGV, {"l.json": _loss_doc("hss", _cost(1e200))}, 2),
        (_LOSS_ARGV, {"l.json": _loss_doc("neg_error_sum", _cost(1e308))}, 2),
        (
            _LOSS_ARGV,
            {
                "l.json": _loss_doc(
                    "neg_error_sum",
                    {"variant": "cross_entropy", "omega0": 1e308, "omega1": 1e308},
                )
            },
            2,
        ),
        (_EVAL_ARGV, {"l.json": {"weights": _cost(1e200), "score": "hss"}}, 2),
        (
            _LOSS_ARGV,
            {"s.csv": "label,prediction\n1,0.2\n0,abc\n", "l.json": _COMPONENT},
            1,
        ),
        (
            ["loss", "--data", "missing.csv", "--loss", "l.json"],
            {"l.json": _COMPONENT},
            1,
        ),
        (_EVAL_ARGV, {"l.json": {"weights": {"variant": "unit"}, "prior": {}}}, 2),
        (["verify", "--samples", "10", "--out", "r.json"], {}, 2),
        (_EVAL_ARGV[:-1] + ["missing/r.json"], {"l.json": {"score": "tss"}}, 2),
        (["verify", "--only", "cost", "--out", "missing/v.json"], {}, 2),
        (["demo-figure1", "--out-dir", "taken"], {"taken": ""}, 2),
        (
            ["train", "--synth", "synth.json", "--loss", "l.json", "--epochs", "2"]
            + ["--out-dir", "taken"],
            {"synth.json": {"n": 60}, "l.json": _COMPONENT, "taken": ""},
            2,
        ),
        (
            ["train", "--synth", "synth.json", "--loss", "l.json", "--epochs", "2"]
            + ["--out-dir", "taken/sub"],
            {"synth.json": {"n": 60}, "l.json": _COMPONENT, "taken": ""},
            2,
        ),
        (["verify", "--only", "cost", "--out", "."], {}, 2),
    ],
    ids=[
        "tss-cost-1e200",
        "hss-cost-1e200",
        "neg-error-sum-cost-1e308",
        "cross-entropy-1e308",
        "eval-hss-cost-1e200",
        "bad-csv",
        "missing-csv",
        "bad-config",
        "samples-10",
        "eval-out-missing-dir",
        "verify-out-missing-dir",
        "demo-out-dir-is-file",
        "train-out-dir-is-file",
        "train-out-dir-under-file",
        "verify-out-is-dir",
    ],
)
def test_bad_invocation_exits_with_one_error_line(
    argv, files, code, tmp_path, monkeypatch, capsys
):
    # Warnings are recorded rather than raised, and an uncaught exception,
    # which a run would print as a traceback, fails the test.
    monkeypatch.chdir(tmp_path)

    # No case starts a run: an unwritable output of `train` or `verify`
    # is found before the training or the check suite begins.
    def not_started(*args, **kwargs):
        pytest.fail("the run started before its output was checked")

    monkeypatch.setattr(cli, "train", not_started)
    monkeypatch.setattr(cli, "run_verify", not_started)
    files = {"s.csv": "label,prediction\n1,0.2\n0,0.7\n1,0.6\n0,0.1\n", **files}
    for name, content in files.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / name).write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = run(argv)
        except SystemExit as exc:
            got = exc.code
    captured = capsys.readouterr()
    assert got == code
    assert [str(w.message) for w in caught] == []
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "error:" in line and "Traceback" not in line and "Warning" not in line
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
