import json
from pathlib import Path

import numpy as np
import pytest

from bnpmmd.cli import build_parser, dispatch, fmt, read_matrix, write_matrix


@pytest.fixture()
def matrices(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 3))
    xpath = tmp_path / "x.csv"
    write_matrix(xpath, X)
    return tmp_path, xpath, X


def test_mmd_of_identical_files_is_zero(matrices, capsys):
    tmp_path, xpath, _ = matrices
    code = dispatch(["mmd", "--x", str(xpath), "--y", str(xpath),
                     "--kernel", "gaussian:80"])
    out = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 0
    assert abs(float(out)) <= 1e-12


def test_missing_required_flag_exits_2(matrices, capsys):
    tmp_path, xpath, _ = matrices
    code = dispatch(["mmd", "--x", str(xpath)])
    err = capsys.readouterr().err
    assert code == 2
    assert "--y" in err


def test_unknown_subcommand_exits_2(capsys):
    assert dispatch(["frobnicate"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_runtime_error_exits_1(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = dispatch(["mmd", "--x", str(missing), "--y", str(missing)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_non_finite_input_exits_1(tmp_path, capsys):
    data = tmp_path / "data.csv"
    X = np.random.default_rng(1).standard_normal((50, 5))
    X[3, 1] = np.nan
    write_matrix(data, X)
    code = dispatch(["gof-test", "--data", str(data), "--model", "no_difference",
                     "--ell", "60", "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert "non-finite" in err and str(data) in err


def test_threads_flag_removed(tmp_path, capsys):
    code = dispatch(["roc", "--null", "no_difference", "--alt", "mean_shift",
                     "--d", "2", "--n", "10", "--threads", "2",
                     "--out", str(tmp_path / "roc.csv")])
    assert code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("resample, aucs", [
    (True, ["0.875", "1", "0.90625"]),
    (False, ["0.75", "0.96875", "1"]),
])
def test_bandwidth_sweep_resample_model(tmp_path, capsys, resample, aucs):
    out = tmp_path / "sweep.csv"
    argv = ["bandwidth-sweep", "--null", "no_difference", "--alt", "variance_shift",
            "--d", "4", "--n", "30", "--sigmas", "2,80,median", "--reps", "4",
            "--a", "5", "--ell", "100", "--seed", "13", "--out", str(out)]
    assert dispatch(argv + (["--resample-model"] if resample else [])) == 0
    assert out.read_text().splitlines() == [f"{s},{a}" for s, a in zip(["2", "80", "median"], aucs)]
    manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
    assert manifest["config"]["resample_model"] is resample


@pytest.mark.parametrize("command", ["gof-test", "dp-sample"])
def test_zero_n_terms_rejected(matrices, command, capsys):
    tmp_path, xpath, _ = matrices
    args = {"gof-test": ["--data", str(xpath), "--model", "no_difference"],
            "dp-sample": ["--a", "5"]}[command]
    code = dispatch([command, *args, "--n-terms", "0", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "n_terms" in capsys.readouterr().err


def test_matrix_roundtrip_17_digits(tmp_path):
    path = tmp_path / "m.csv"
    X = np.random.default_rng(1).standard_normal((5, 2))
    write_matrix(path, X)
    back = read_matrix(str(path), header=False)
    np.testing.assert_array_equal(back, X)


def test_header_skip(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
    mat = read_matrix(str(path), header=True)
    np.testing.assert_array_equal(mat, [[1.0, 2.0], [3.0, 4.0]])


def test_dp_sample_emits_simplex_csv(tmp_path, capsys):
    out = tmp_path / "draw.csv"
    code = dispatch(["dp-sample", "--a", "25", "--d", "2", "--seed", "3",
                     "--out", str(out)])
    assert code == 0
    rows = read_matrix(str(out), header=False)
    weights, atoms = rows[:, 0], rows[:, 1:]
    assert np.all(weights >= 0)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert atoms.shape[1] == 2
    manifest = json.loads((tmp_path / "draw.manifest.json").read_text())
    assert manifest["command"] == "dp-sample"
    assert manifest["seed"] == 3


def test_dp_sample_stick_method(tmp_path):
    out = tmp_path / "stick.csv"
    code = dispatch(["dp-sample", "--a", "2", "--d", "1", "--method", "stick",
                     "--n-terms", "50", "--seed", "4", "--out", str(out)])
    assert code == 0
    rows = read_matrix(str(out), header=False)
    assert rows.shape == (50, 2)
    assert rows[:, 0].sum() == pytest.approx(1.0, abs=1e-12)


def test_gof_test_report_and_determinism(tmp_path, capsys):
    rng = np.random.default_rng(5)
    data = tmp_path / "data.csv"
    write_matrix(data, rng.standard_normal((30, 2)))
    argv = ["gof-test", "--data", str(data), "--model", "no_difference",
            "--a", "5", "--ell", "100", "--M", "20", "--i0", "1",
            "--kernel", "gaussian:80", "--seed", "11",
            "--out", str(tmp_path / "report.json")]
    assert dispatch(argv) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    for key in ["rb", "strength", "decision", "n_terms", "kernel", "seed",
                "prior_summary", "posterior_summary"]:
        assert key in report
    assert 0.0 <= report["rb"] <= 20.0
    assert report["kernel"] == "gaussian:80"

    first = (tmp_path / "report.json").read_bytes()
    assert dispatch(argv) == 0
    assert (tmp_path / "report.json").read_bytes() == first


def test_gof_test_prints_the_report_without_out(tmp_path, capsys):
    rng = np.random.default_rng(5)
    data = tmp_path / "data.csv"
    write_matrix(data, rng.standard_normal((30, 2)))
    argv = ["gof-test", "--data", str(data), "--model", "no_difference",
            "--a", "5", "--ell", "100", "--kernel", "gaussian:80", "--seed", "11"]
    assert dispatch(argv) == 0
    printed = capsys.readouterr().out
    report, summary = printed.rsplit("\n", 2)[:2]
    assert dispatch([*argv, "--out", str(tmp_path / "report.json")]) == 0
    assert json.loads(report) == json.loads((tmp_path / "report.json").read_text())
    assert summary.startswith("rb=") and capsys.readouterr().out == summary + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "data.csv", "report.json", "report.manifest.json"]


def test_gof_test_samples_out(tmp_path):
    rng = np.random.default_rng(6)
    data = tmp_path / "data.csv"
    write_matrix(data, rng.standard_normal((25, 1)))
    out = tmp_path / "samples.csv"
    assert dispatch(["gof-test", "--data", str(data), "--model", "no_difference",
                     "--a", "5", "--ell", "60", "--seed", "2",
                     "--out", str(tmp_path / "r.json"),
                     "--samples-out", str(out)]) == 0
    samples = read_matrix(str(out), header=False)
    assert samples.shape == (60, 2)


def test_roc_outputs_and_manifest_roundtrip(tmp_path, capsys):
    out = tmp_path / "roc.csv"
    svg = tmp_path / "roc.svg"
    argv = ["roc", "--null", "no_difference", "--alt", "mean_shift",
            "--d", "4", "--n", "30", "--reps", "3", "--a", "5", "--ell", "80",
            "--n-terms", "20", "--seed", "9", "--thresholds", "41",
            "--out", str(out), "--svg", str(svg)]
    assert dispatch(argv) == 0
    rows = read_matrix(str(out), header=False)
    assert rows.shape == (41, 3)
    assert np.all(np.diff(rows[:, 1]) >= 0) and np.all(np.diff(rows[:, 2]) >= 0)
    assert svg.read_text().startswith("<svg")
    manifest = json.loads((tmp_path / "roc.manifest.json").read_text())
    assert manifest["outputs"] == [str(out), str(svg)]

    # byte-identical re-execution from the manifest argv
    first = out.read_bytes()
    assert dispatch(manifest["argv"]) == 0
    assert out.read_bytes() == first


def test_gan_train_and_score(tmp_path, capsys):
    from bnpmmd.gan import eight_gaussian_ring
    rng = np.random.default_rng(12)
    data = tmp_path / "ring.csv"
    write_matrix(data, eight_gaussian_ring(256, rng))
    model = tmp_path / "model.json"
    history = tmp_path / "history.csv"
    assert dispatch(["gan-train", "--data", str(data), "--hidden", "8,8,8,8",
                     "--noise-dim", "1", "--iters", "20", "--batch", "32",
                     "--kernel", "mix:gaussian:2,5,10,20,40,80",
                     "--seed", "13", "--out", str(model),
                     "--history", str(history)]) == 0
    payload = json.loads(model.read_text())
    assert payload["layer_dims"] == [1, 8, 8, 8, 8, 2]
    hist = read_matrix(str(history), header=False)
    assert hist.shape == (20, 3)

    assert dispatch(["gan-score", "--real", str(data), "--model", str(model),
                     "--nmb", "64", "--rmb", "5", "--seed", "14"]) == 0
    score = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert score >= 0.0


def test_gan_train_a_flag_removed(tmp_path, capsys):
    # the CLI has no base measure to give a positive prior mass, so --a is gone
    from bnpmmd.gan import eight_gaussian_ring
    data = tmp_path / "ring.csv"
    write_matrix(data, eight_gaussian_ring(64, np.random.default_rng(15)))
    code = dispatch(["gan-train", "--data", str(data), "--hidden", "4", "--iters", "2",
                     "--batch", "16", "--a", "1", "--out", str(tmp_path / "model.json")])
    assert code == 2
    assert "--a" in capsys.readouterr().err


def test_gan_score_non_finite_model_exits_1(tmp_path, capsys):
    from bnpmmd.gan import GeneratorNet
    net = GeneratorNet.initialize([1, 4, 2], np.random.default_rng(16))
    net.weights[-1][0, 0] = np.nan
    model = tmp_path / "model.json"
    model.write_text(json.dumps(net.to_dict()) + "\n")
    real = tmp_path / "real.csv"
    write_matrix(real, np.random.default_rng(17).random((64, 2)))
    code = dispatch(["gan-score", "--real", str(real), "--model", str(model),
                     "--nmb", "32", "--rmb", "3", "--out", str(tmp_path / "score.txt")])
    assert code == 1
    assert "matching score" in capsys.readouterr().err
    assert not (tmp_path / "score.txt").exists()


def test_gan_score_model_missing_a_layer_exits_1(tmp_path, capsys):
    # the payload of a [1, 2, 2, 2] net without its last layer was scored as a 2-layer net
    from bnpmmd.gan import GeneratorNet
    payload = GeneratorNet.initialize([1, 2, 2, 2], np.random.default_rng(18)).to_dict()
    payload["weights"].pop()
    payload["biases"].pop()
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload) + "\n")
    real = tmp_path / "real.csv"
    write_matrix(real, np.random.default_rng(19).random((64, 2)))
    code = dispatch(["gan-score", "--real", str(real), "--model", str(model),
                     "--nmb", "16", "--rmb", "3", "--out", str(tmp_path / "score.txt")])
    assert code == 1
    assert "layer_dims" in capsys.readouterr().err
    assert not (tmp_path / "score.txt").exists()


@pytest.mark.parametrize("nmb", ["-1", "0"])
def test_gan_score_subset_size_below_one_exits_1(tmp_path, capsys, nmb):
    # --nmb -1 printed numpy's "negative dimensions are not allowed"
    from bnpmmd.gan import GeneratorNet
    model = tmp_path / "model.json"
    model.write_text(json.dumps(GeneratorNet.initialize([1, 4, 2],
                                                        np.random.default_rng(20)).to_dict()))
    real = tmp_path / "real.csv"
    write_matrix(real, np.random.default_rng(21).random((64, 2)))
    code = dispatch(["gan-score", "--real", str(real), "--model", str(model),
                     "--nmb", nmb, "--rmb", "3", "--out", str(tmp_path / "score.txt")])
    assert code == 1
    assert f"subset size must be from 1 to the smaller dataset size, got {nmb}" in capsys.readouterr().err
    assert not (tmp_path / "score.txt").exists()


@pytest.mark.parametrize("argv", [
    ["gof-test", "--model", "nope"],
    ["roc", "--null", "no_difference", "--alt", "nope", "--d", "2", "--n", "10"],
], ids=["gof-test-model", "roc-alt"])
def test_unknown_scenario_exits_1(matrices, argv, capsys):
    tmp_path, xpath, _ = matrices
    data = ["--data", str(xpath)] if argv[0] == "gof-test" else []
    assert dispatch([*argv, *data, "--out", str(tmp_path / "out")]) == 1
    assert "nope" in capsys.readouterr().err


def test_seed_env_var(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(20)
    data = tmp_path / "d.csv"
    write_matrix(data, rng.standard_normal((20, 1)))
    monkeypatch.setenv("BNPMMD_SEED", "77")
    out = tmp_path / "r.json"
    assert dispatch(["gof-test", "--data", str(data), "--model", "no_difference",
                     "--a", "5", "--ell", "50", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 77


def test_fmt_17_significant_digits():
    assert fmt(1 / 3) == "0.33333333333333331"
    assert float(fmt(np.pi)) == np.pi


@pytest.mark.slow
def test_bandwidth_sweep_trend(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["bandwidth-sweep", "--null", "no_difference", "--alt", "heavy_tail",
            "--d", "60", "--n", "50", "--sigmas", "2,80", "--reps", "6",
            "--a", "25", "--ell", "300", "--seed", "21", "--out", str(out)]
    assert dispatch(argv) == 0
    lines = out.read_text().strip().splitlines()
    aucs = {line.split(",")[0]: float(line.split(",")[1]) for line in lines}
    assert set(aucs) == {"2", "80"}
    assert aucs["80"] > aucs["2"]


STUDY = ["--null", "no_difference", "--alt", "mean_shift", "--d", "2", "--n", "10",
         "--reps", "2", "--a", "2", "--ell", "20", "--n-terms", "5"]


ROUND_OFF_STUDY = ["--null", "no_difference", "--alt", "mean_shift", "--d", "2", "--n", "20",
                   "--reps", "2", "--a", "5", "--ell", "60"]


@pytest.mark.parametrize("argv", [["roc", "--kernel", "gaussian:1e9"],
                                  ["bandwidth-sweep", "--sigmas", "1e9"]],
                         ids=["roc", "bandwidth-sweep"])
def test_study_whose_replications_all_drop_names_the_scenario(tmp_path, capsys, argv):
    # at sigma = 1e9 every prior draw is round-off, so every replication is dropped
    code = dispatch([*argv, *ROUND_OFF_STUDY, "--seed", "1", "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "all 2 replications of scenario 'no_difference' were dropped" in err
    assert "round-off" in err
    assert not list(tmp_path.iterdir())


def test_bandwidth_sweep_keeps_the_sigmas_finished_before_one_fails(tmp_path, capsys):
    # the CSV was written after the last sigma, so sigma = 1e9 lost sigma = 2's AUC
    out = tmp_path / "sweep.csv"
    code = dispatch(["bandwidth-sweep", *ROUND_OFF_STUDY, "--sigmas", "2,1e9", "--seed", "1",
                     "--out", str(out)])
    assert code == 1
    printed = capsys.readouterr()
    assert "all 2 replications of scenario 'no_difference' were dropped" in printed.err
    assert printed.out.startswith("sigma=2 auc=")
    assert out.read_text().splitlines() == ["2," + printed.out.split("auc=")[1].strip()]
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_bandwidth_sweep_has_no_kernel_flag(tmp_path, capsys):
    # the sweep always uses Gaussian kernels at --sigmas; a kernel flag was ignored
    code = dispatch(["bandwidth-sweep", *STUDY, "--sigmas", "2", "--kernel", "exponential:2",
                     "--out", str(tmp_path / "sweep.csv")])
    assert code == 2
    assert "--kernel" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("sigmas, named", [("", "''"), ("2,2", "'2'"), ("2,80,2.0", "'2.0'"),
                                           ("2,abc", "bad bandwidth 'abc'")],
                         ids=["empty", "repeated", "repeated-as-float", "not-a-number"])
def test_bandwidth_sweep_rejects_empty_or_repeated_sigmas(tmp_path, capsys, monkeypatch,
                                                          sigmas, named):
    # a repeated sigma wrote one CSV row per copy but kept one AUC in the manifest
    import bnpmmd.cli as cli
    studies = []
    monkeypatch.setattr(cli, "run_roc_study", lambda *a, **k: studies.append(1))
    code = dispatch(["bandwidth-sweep", *STUDY, "--sigmas", sigmas,
                     "--out", str(tmp_path / "sweep.csv")])
    assert code == 1
    assert named in capsys.readouterr().err
    assert studies == []
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, named", [
    (["gof-test", "--model", "no_difference", "--a", "0"], "concentration"),
    (["gof-test", "--model", "no_difference", "--a", "nan", "--n-terms", "30"],
     "positive concentration, got nan"),
    (["dp-sample", "--a", "-1"], "got -1.0"),
    (["dp-sample", "--a", "inf", "--method", "stick", "--n-terms", "5", "--d", "2"],
     "got inf"),
    (["roc", *STUDY, "--thresholds", "0"], "thresholds"),
    (["roc", *STUDY, "--thresholds", "1"], "thresholds"),
    (["gan-train", "--iters", "2", "--batch", "8", "--hidden", "4", "--step", "-1"],
     "step_size"),
    (["gan-train", "--iters", "2", "--batch", "8", "--hidden", "4",
      "--checkpoint-every", "-1"], "checkpoint_every"),
    (["dp-sample", "--a", "5", "--d", "0", "--n-terms", "4"], "dimension must be positive"),
    (["gof-test", "--model", "no_difference", "--m", "0"], "model_size"),
    (["gof-test", "--model", "no_difference", "--kernel", "gaussian:80:2"], "shape"),
    (["gof-test", "--model", "no_difference", "--kernel", "gaussian:1e-300"], "bandwidth"),
    (["gof-test", "--model", "no_difference", "--kernel", "gaussian:1e9", "--a", "5",
      "--ell", "100"], "round-off"),
    (["dp-sample", "--a", "5", "--d", "2", "--n-terms", "4", "--seed", "-5"],
     "--seed must be a non-negative integer, got -5"),
    (["BNPMMD_SEED=abc", "dp-sample", "--a", "5", "--d", "2", "--n-terms", "4"],
     "BNPMMD_SEED must be a non-negative integer, got 'abc'"),
    (["BNPMMD_SEED=-2", "gof-test", "--model", "no_difference"], "BNPMMD_SEED"),
    (["gan-train", "--iters", "2", "--batch", "8", "--hidden", "0"], "got [10, 0, 3]"),
    (["gan-train", "--iters", "2", "--batch", "8", "--hidden", "-3"], "got [10, -3, 3]"),
    (["dp-sample", "--a", "5", "--method", "stick"], "needs an explicit --n-terms"),
    (["bandwidth-sweep", *STUDY, "--sigmas", "2,abc"],
     "--sigmas takes bandwidths or 'median', got 'abc'"),
    (["bandwidth-sweep", *STUDY, "--sigmas", "5:2"],
     "--sigmas takes bandwidths or 'median', got '5:2'"),
], ids=["gof-a-0", "gof-a-nan", "dp-sample-a-negative", "dp-sample-stick-a-inf",
        "roc-thresholds-0", "roc-thresholds-1",
        "gan-train-step-negative", "gan-train-checkpoint-negative", "dp-sample-d-0",
        "gof-m-0", "gof-kernel-shape", "gof-kernel-tiny-bandwidth", "gof-kernel-round-off",
        "seed-negative", "seed-env-not-an-integer", "seed-env-negative",
        "gan-train-hidden-0", "gan-train-hidden-negative", "dp-sample-stick-no-n-terms",
        "sweep-sigma-not-a-number", "sweep-sigma-with-shape"])
def test_invalid_value_exits_1(matrices, argv, named, capsys, monkeypatch):
    tmp_path, xpath, _ = matrices
    monkeypatch.delenv("BNPMMD_SEED", raising=False)
    if "=" in argv[0]:  # a leading NAME=value sets that variable, as in a shell
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]
    data = ["--data", str(xpath)] if argv[0] in ("gof-test", "gan-train") else []
    assert dispatch([*argv, *data, "--out", str(tmp_path / "out")]) == 1
    assert named in capsys.readouterr().err
    assert not list(tmp_path.glob("*.manifest.json"))


def test_parser_defaults_come_from_the_library():
    from bnpmmd.gan import TrainConfig
    from bnpmmd.kernels import MIXTURE_BANDWIDTHS, format_kernel, gaussian_kernel, gaussian_mixture
    from bnpmmd.rb import RBConfig
    rb, train = RBConfig(), TrainConfig()
    parse = build_parser().parse_args
    study = ["--null", "a", "--alt", "b", "--d", "1", "--n", "2", "--out", "o"]
    for argv in (["gof-test", "--data", "x", "--model", "m"], ["roc", *study],
                 ["bandwidth-sweep", *study]):
        args = parse(argv)
        assert ((args.a, args.ell, args.M, args.i0, args.eps)
                == (rb.concentration, rb.mc_reps, rb.grid_cells, rb.anchor_cell,
                    rb.truncation_epsilon)), argv[0]
        if argv[0] != "bandwidth-sweep":
            assert args.kernel == format_kernel(gaussian_kernel()), argv[0]
    args = parse(["gan-train", "--data", "x", "--out", "o"])
    assert ((args.iters, args.batch, args.eps, args.step, args.checkpoint_every, args.kernel)
            == (train.iterations, train.minibatch, train.truncation_epsilon, train.step_size,
                train.checkpoint_every, format_kernel(train.kernel)))
    assert parse(["gan-score", "--real", "x", "--model", "m"]).kernel == format_kernel(
        gaussian_mixture())
    sigmas = parse(["bandwidth-sweep", *study]).sigmas.split(",")
    assert sigmas == [format_kernel(gaussian_kernel(b)).split(":")[1]
                      for b in MIXTURE_BANDWIDTHS] + ["median"]


@pytest.fixture()
def run_inputs(tmp_path):
    from bnpmmd.gan import GeneratorNet, eight_gaussian_ring
    rng = np.random.default_rng(30)
    (tmp_path / "in").mkdir()
    (tmp_path / "out").mkdir()
    paths = {name: tmp_path / "in" / f"{name}.csv" for name in ("x", "y", "ring")}
    write_matrix(paths["x"], rng.standard_normal((20, 2)))
    write_matrix(paths["y"], rng.standard_normal((15, 2)) + 0.5)
    write_matrix(paths["ring"], eight_gaussian_ring(64, rng))
    paths["model"] = tmp_path / "in" / "model.json"
    paths["model"].write_text(json.dumps(GeneratorNet.initialize([1, 4, 2], rng).to_dict()))
    return {k: str(v) for k, v in paths.items()}, tmp_path / "out"


def _run_frame_argv(command, inputs, out):
    return [command, *{
        "gof-test": ["--data", inputs["x"], "--model", "no_difference", "--a", "5",
                     "--ell", "40", "--out", f"{out}/report.json",
                     "--samples-out", f"{out}/samples.csv"],
        "roc": [*STUDY, "--thresholds", "11", "--out", f"{out}/roc.csv",
                "--svg", f"{out}/roc.svg"],
        "mmd": ["--x", inputs["x"], "--y", inputs["y"], "--kernel", "gaussian:median",
                "--out", f"{out}/mmd.txt"],
        "dp-sample": ["--a", "5", "--d", "2", "--out", f"{out}/draw.csv"],
        "gan-train": ["--data", inputs["ring"], "--hidden", "4", "--noise-dim", "1",
                      "--iters", "4", "--batch", "16", "--checkpoint-every", "2",
                      "--out", f"{out}/model.json", "--history", f"{out}/history.csv"],
        "gan-score": ["--real", inputs["ring"], "--model", inputs["model"], "--nmb", "16",
                      "--rmb", "3", "--out", f"{out}/score.txt"],
        "bandwidth-sweep": [*STUDY, "--sigmas", "2,median", "--out", f"{out}/sweep.csv"],
    }[command], "--seed", "31"]


@pytest.mark.parametrize("command", ["gof-test", "roc", "mmd", "dp-sample", "gan-train",
                                     "gan-score", "bandwidth-sweep"])
def test_every_subcommand_writes_a_replayable_manifest(run_inputs, command, capsys):
    inputs, out = run_inputs
    argv = _run_frame_argv(command, inputs, out)
    assert dispatch(argv) == 0
    manifests = list(out.glob("*.manifest.json"))
    assert len(manifests) == 1
    manifest = json.loads(manifests[0].read_text())
    assert set(manifest) == {"command", "argv", "config", "seed", "tool_version",
                             "wall_time_s", "outputs"}
    assert manifest["command"] == command
    assert manifest["seed"] == 31
    # every setting that can change the outputs is recorded, defaults included
    settings = set(vars(build_parser().parse_args(argv))) - {"command", "func"}
    assert settings <= set(manifest["config"])

    first = {}
    for path in map(Path, manifest["outputs"]):
        first[path] = path.read_bytes()
        path.unlink()
    assert dispatch(manifest["argv"]) == 0
    assert {path: path.read_bytes() for path in first} == first


def test_mmd_reads_idx_files(tmp_path, capsys):
    # --data/--x/--y take IDX image files wherever they take CSV
    from test_idx import write_idx_images
    images = tmp_path / "digits.idx"
    write_idx_images(images, np.random.default_rng(4).integers(0, 256, (6, 2, 3)), 2, 3)
    out = tmp_path / "mmd.txt"
    code = dispatch(["mmd", "--x", str(images), "--y", str(images), "--kernel", "gaussian:80",
                     "--out", str(out), "--seed", "1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"
    manifest = json.loads((tmp_path / "mmd.manifest.json").read_text())
    assert manifest["command"] == "mmd"
    assert manifest["config"]["value"] == 0.0


def test_median_mmd_manifest_kernel_reproduces_value(tmp_path, capsys):
    # the resolved bandwidth was recorded to 6 digits, so passing the recorded
    # kernel back as --kernel gave a different value
    rng = np.random.default_rng(5)
    xpath, ypath = tmp_path / "x.csv", tmp_path / "y.csv"
    write_matrix(xpath, rng.standard_normal((50, 5)))
    write_matrix(ypath, rng.standard_normal((40, 5)))
    argv = ["mmd", "--x", str(xpath), "--y", str(ypath), "--out", str(tmp_path / "mmd.txt")]
    manifest = tmp_path / "mmd.manifest.json"
    assert dispatch([*argv, "--kernel", "gaussian:median"]) == 0
    first = json.loads(manifest.read_text())["config"]
    assert dispatch([*argv, "--kernel", first["kernel"]]) == 0
    again = json.loads(manifest.read_text())["config"]
    assert again["kernel"] == first["kernel"]
    assert again["value"] == first["value"]
