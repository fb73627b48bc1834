import json
import warnings

import numpy as np
import pytest

from sparsekern import AlphaField, SampleSet, cli, gen_mixed_gauss
from sparsekern.datasets import save_csv

FIT_FLAGS = ["--gamma", "0.2", "--iters", "5"]
# parsed and ignored: the benchmark still passes them
IGNORED_FLAGS = ["--eta-lambda", "1e-3", "--eta-mu", "0.01", "--integrator", "quadrature"]
KERNEL_SECTION = {"w_lo": 0.1, "w_hi": 1.0, "box": [[0.0, 3.0]]}
LOSS_SECTION = {"kind": "quadratic_eps", "epsilon": 1e-3, "clamp_radius": 10.0}


@pytest.fixture
def train_csv(tmp_path):
    data, _ = gen_mixed_gauss(3, 0.453, 30, 0.03, seed=1)
    path = tmp_path / "train.csv"
    save_csv(data, path)
    return str(path)


def fails_with_one_error_line(argv, capsys):
    code = cli.main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    return code == 2 and len(err) == 1 and err[0].startswith("error: ")


def test_fit_then_eval_round_trip(train_csv, tmp_path, capsys):
    out = str(tmp_path / "model.json")
    assert cli.main(["fit", train_csv, *FIT_FLAGS, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "terms:" in printed
    assert cli.main(["eval", out, train_csv]) == 0
    mse = float(capsys.readouterr().out.strip())
    assert np.isfinite(mse) and mse >= 0.0


def test_malformed_csv_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,y\n0.5,1.0\noops,2.0\n")
    argv = ["fit", str(bad), *FIT_FLAGS, "--out", str(tmp_path / "m.json")]
    assert fails_with_one_error_line(argv, capsys)


def test_missing_gamma_exits_2(train_csv, tmp_path, capsys):
    argv = ["fit", train_csv, *FIT_FLAGS[2:], "--out", str(tmp_path / "m.json")]
    assert fails_with_one_error_line(argv, capsys)


def test_non_numeric_fixed_width_exits_2(train_csv, tmp_path, capsys):
    out = str(tmp_path / "m.json")
    argv = ["fit", train_csv, *FIT_FLAGS, "--variant", "fixed-width=abc", "--out", out]
    assert fails_with_one_error_line(argv, capsys)


@pytest.mark.parametrize("text", ["", "\n\n"])
def test_empty_fixed_centers_file_exits_2_without_a_warning(text, train_csv, tmp_path, capsys):
    centers = tmp_path / "centers.csv"
    centers.write_text(text)
    out = str(tmp_path / "m.json")
    argv = ["fit", train_csv, *FIT_FLAGS, "--variant", f"fixed-centers={centers}", "--out", out]
    # a warning printed before the error line would be a second line on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fails_with_one_error_line(argv, capsys)


@pytest.mark.parametrize(
    "doc",
    [
        {"solver": {"iters": "10"}},
        {"solver": {"iters": 2.5}},
        [1, 2],
        {"solver": {"iters": 5}, "loss": {"kind": "quadratic_eps"}},
        {"solver": {"iters": 5}, "kernel": {"w_lo": "a", "w_hi": 1.0, "box": [[0.0, 3.0]]}},
        {"solver": {"iters": 5}, "loss": dict(LOSS_SECTION, eps=0.1)},
        {"solver": {"iters": 5}, "kernel": dict(KERNEL_SECTION, eps=0.1)},
        {"solver": {"iters": 5}, "kernel": "abc"},
        {"solver": {"iters": 5}, "loss": 3},
        {"solver": {"iters": 5}, "loss": dict(LOSS_SECTION, epsilon="0.1")},
        {"solver": {"iters": 5}, "kernel": dict(KERNEL_SECTION, w_hi="1.0")},
        {"solver": {"iters": 5}, "kernel": {"w_lo": True, "w_hi": 2, "box": [[0, 3]]}},
        {"solver": {"iters": 5}, "kernel": dict(KERNEL_SECTION, box=[[False, 3.0]])},
        {"solver": {"iters": 5}, "loss": dict(LOSS_SECTION, epsilon=True)},
        # JSON NaN and Infinity: non-finite settings are refused, not run
        {"solver": {"iters": 5, "tol": float("inf")}},
        {"solver": {"iters": 5, "tol": float("nan")}},
        {"solver": {"iters": 5}, "kernel": dict(KERNEL_SECTION, w_hi=float("inf"))},
        {"solver": {"iters": 5}, "kernel": dict(KERNEL_SECTION, w_lo=float("nan"))},
        {"solver": {"iters": 5}, "kernel": dict(KERNEL_SECTION, box=[[0.0, float("inf")]])},
        {"solver": {"iters": 5}, "loss": dict(LOSS_SECTION, epsilon=float("nan"))},
        {"solver": {"iters": 5}, "loss": dict(LOSS_SECTION, clamp_radius=float("inf"))},
    ],
)
def test_malformed_config_exits_2(doc, train_csv, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = str(tmp_path / "m.json")
    argv = ["fit", train_csv, *FIT_FLAGS[:2], "--config", str(config), "--out", out]
    assert fails_with_one_error_line(argv, capsys)


@pytest.mark.parametrize("flag", ["--gamma", "--epsilon"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_flag_exits_2_naming_it(flag, value, train_csv, tmp_path, capsys):
    # a non-finite gamma or epsilon would run and end in a numeric failure
    argv = ["fit", train_csv, *FIT_FLAGS, f"{flag}={value}", "--out", str(tmp_path / "m.json")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and flag[2:] in err[0]


@pytest.mark.parametrize("section, key", [("kernel", "w_lo"), ("loss", "clamp_radius")])
def test_boolean_in_kernel_or_loss_section_is_named(section, key, train_csv, tmp_path, capsys):
    # JSON true would pass for the number 1, as the solver section refuses it
    doc = {"kernel": KERNEL_SECTION, "loss": LOSS_SECTION}
    doc[section] = dict(doc[section], **{key: True})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    argv = ["fit", train_csv, *FIT_FLAGS, "--config", str(config), "--out", str(tmp_path / "m.json")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and f"'{key}'" in err[0]


@pytest.mark.parametrize("section", ["kernel", "loss"])
def test_unknown_kernel_or_loss_key_is_named(section, train_csv, tmp_path, capsys):
    # refused, not dropped: a misspelt key would otherwise fit at the default
    doc = {"kernel": KERNEL_SECTION, "loss": LOSS_SECTION}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    argv = ["fit", train_csv, *FIT_FLAGS, "--config", str(config), "--out", str(tmp_path / "m.json")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    doc[section] = dict(doc[section], eps=0.1)
    config.write_text(json.dumps(doc))
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "'eps'" in err[0]


def test_retired_kernel_family_key_is_named(train_csv, tmp_path, capsys):
    # the Gaussian family is the only one; a family key is refused, not ignored
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kernel": dict(KERNEL_SECTION, family="gaussian")}))
    argv = ["fit", train_csv, *FIT_FLAGS, "--config", str(config), "--out", str(tmp_path / "m.json")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "'family'" in err[0]


def test_loss_section_may_leave_out_clamp_radius(train_csv, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"loss": {"kind": "quadratic_eps", "epsilon": 0.01}}))
    argv = ["fit", train_csv, *FIT_FLAGS, "--config", str(config), "--out", str(tmp_path / "m.json")]
    assert cli.main(argv) == 0


@pytest.mark.parametrize(
    "model",
    [
        {"dim": 1, "terms": [{"z": [1.0], "w": 0.5}]},
        {"dim": 1, "terms": [{"a": "x", "z": [1.0], "w": 0.5}]},
        {"dim": 1, "terms": 5},
    ],
)
def test_eval_of_a_malformed_model_file_exits_2(model, train_csv, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert fails_with_one_error_line(["eval", str(path), train_csv], capsys)


@pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5"])
def test_bad_thread_count_exits_2_naming_the_variable(threads, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPARSEKERN_THREADS", threads)
    assert cli.main(["experiment", "remark1", "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "SPARSEKERN_THREADS" in err[0]
    assert not list(tmp_path.iterdir())


def test_eval_of_a_field_file_exits_2(train_csv, tmp_path, capsys):
    out = str(tmp_path / "model.json")
    assert cli.main(["fit", train_csv, *FIT_FLAGS, "--out", out]) == 0
    capsys.readouterr()
    assert fails_with_one_error_line(["eval", out + ".field.json", train_csv], capsys)


def test_eval_accuracy_metric_is_rejected(train_csv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", str(tmp_path / "model.json"), train_csv, "--metric", "accuracy"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "key", ["iter", "eta_mu", "integrator", "eta_lambda", "batch", "seed", "trace_every"]
)
def test_unknown_or_retired_solver_key_exits_2(key, train_csv, tmp_path, capsys):
    # a typo and the settings of the retired supergradient and Monte Carlo
    # methods are refused, not ignored
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"solver": {key: 10}}))
    out = str(tmp_path / "m.json")
    argv = ["fit", train_csv, *FIT_FLAGS, "--config", str(config), "--out", out]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and repr(key) in err[0]


def test_fit_prints_a_convergence_summary_and_writes_the_trace(train_csv, tmp_path, capsys):
    out = str(tmp_path / "model.json")
    argv = ["fit", train_csv, *FIT_FLAGS[:2], "--iters", "400", *IGNORED_FLAGS]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"solver": {"center_nodes": 64, "width_nodes": 16, "tol": 1e-2}}))
    assert cli.main([*argv, "--config", str(config), "--out", out]) == 0
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.strip().splitlines())
    assert list(lines) == [
        "terms", "threshold", "max_constraint_violation", "converged", "iterations", "rel_gap",
    ]
    assert lines["converged"] == "yes"
    assert 0 < int(lines["iterations"]) < 400
    assert float(lines["rel_gap"]) <= 1e-2 and float(lines["max_constraint_violation"]) <= 1e-2
    trace = (tmp_path / "model.json.trace.csv").read_text().strip().splitlines()
    assert trace[0] == "t,g,rel_gap,max_violation,support_fraction"
    last = [float(v) for v in trace[-1].split(",")]
    assert last[0] == int(lines["iterations"]) and last[2] == float(lines["rel_gap"])
    # the default certified path stops at its cap, uncertified, and says so
    assert cli.main(["fit", train_csv, *FIT_FLAGS, "--out", out]) == 0
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.strip().splitlines())
    assert lines["iterations"] == "5" and lines["converged"] == "no"
    assert max(float(lines["rel_gap"]), float(lines["max_constraint_violation"])) > 1e-3


def test_uncertified_fit_names_each_failed_test(train_csv, tmp_path, capsys):
    out = str(tmp_path / "model.json")
    assert cli.main(["fit", train_csv, *FIT_FLAGS, "--out", out]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 7 and printed[-1].startswith("stopped: iteration cap")
    lines = dict(line.split(": ", 1) for line in printed)
    reasons = lines["stopped"].split("; ")
    failed = {name for name in ("rel_gap", "max_constraint_violation") if float(lines[name]) > 1e-3}
    assert failed and {r.split()[0] for r in reasons[1:]} == failed
    for reason in reasons[1:]:
        name, value, gt, tol = reason.split()
        assert gt == ">" and float(tol) == 1e-3
        assert float(value) == pytest.approx(float(lines[name]), rel=1e-2)


def test_uncertified_fit_with_the_violation_met_says_g_still_rises(train_csv, tmp_path, capsys):
    # epsilon 1e-5 is far below the fixture's noise variance 9e-4: the
    # violation is met, and g keeps climbing while rel_gap fails
    out = str(tmp_path / "model.json")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"solver": {"center_nodes": 64, "width_nodes": 16}}))
    argv = ["fit", train_csv, "--gamma", "0.2", "--iters", "400", "--epsilon", "1e-5"]
    assert cli.main([*argv, "--config", str(config), "--out", out]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 7
    lines = dict(line.split(": ", 1) for line in printed)
    assert float(lines["max_constraint_violation"]) <= 1e-3 < float(lines["rel_gap"])
    assert lines["stopped"].startswith("iteration cap; rel_gap ")
    assert lines["stopped"].endswith(
        "; g still rising with the violation met; the constraints may be too tight for epsilon"
    )


def test_fit_needs_no_step_size_and_certifies_before_its_cap(train_csv, tmp_path, capsys):
    out = str(tmp_path / "model.json")
    assert cli.main(["fit", train_csv, "--gamma", "0.2", "--iters", "500", "--out", out]) == 0
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.strip().splitlines())
    assert lines["converged"] == "yes" and 0 < int(lines["iterations"]) < 500
    assert float(lines["rel_gap"]) <= 1e-3 and float(lines["max_constraint_violation"]) <= 1e-3


def test_ignored_flags_change_nothing_and_mc_is_refused(train_csv, tmp_path, capsys):
    outs = []
    for extra in ([], IGNORED_FLAGS):
        out = str(tmp_path / f"model{len(extra)}.json")
        assert cli.main(["fit", train_csv, *FIT_FLAGS, *extra, "--out", out]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit", train_csv, *FIT_FLAGS, "--integrator", "mc", "--out", out])
    assert exc.value.code == 2


def test_fit_on_overflowing_labels_exits_3(tmp_path, capsys):
    data, _ = gen_mixed_gauss(3, 0.453, 30, 0.03, seed=1)
    path = tmp_path / "huge.csv"
    save_csv(SampleSet(data.X, data.y * 1e200, data.box), path)
    argv = ["fit", str(path), *FIT_FLAGS, "--out", str(tmp_path / "m.json")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure: ")


@pytest.mark.parametrize(
    "flags",
    [
        ["--loss", "abs"],
        ["--loss", "hinge"],
        ["--variant", "fixed-width=0.4"],
        ["--variant", "fixed-centers={centers}"],
    ],
    ids=["abs", "hinge", "fixed-width", "fixed-centers"],
)
def test_non_default_loss_or_variant_fits_and_evaluates(flags, tmp_path, capsys):
    data, _ = gen_mixed_gauss(3, 0.453, 36, 0.03, seed=2)
    if flags[1] == "hinge":
        data = SampleSet(data.X, np.where(data.y > np.median(data.y), 1.0, -1.0), data.box)
    centers = tmp_path / "centers.csv"
    np.savetxt(centers, data.X[::3], delimiter=",")
    flags = [flag.format(centers=centers) for flag in flags]
    path, out = tmp_path / "train.csv", tmp_path / "model.json"
    save_csv(data, path)
    argv = ["fit", str(path), "--gamma", "0.2", "--iters", "200", *flags, "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert out.exists()
    field = AlphaField.load(f"{out}.field.json")
    assert field.lam.shape == (data.n,) and np.all(np.isfinite(field.lam))
    trace = (tmp_path / "model.json.trace.csv").read_text().splitlines()
    assert trace[0] == "t,g,rel_gap,max_violation,support_fraction" and len(trace) > 1
    if flags[1] == "hinge":
        # hinge's multipliers stay on their half-line lambda y >= 0
        assert np.all(field.lam * data.y >= 0.0)
    assert cli.main(["eval", str(out), str(path)]) == 0
    mse = float(capsys.readouterr().out.strip())
    assert np.isfinite(mse) and mse >= 0.0
