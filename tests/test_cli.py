import json

import numpy as np
import pytest

from sparsekern import cli, gen_mixed_gauss
from sparsekern.datasets import save_csv

FIT_FLAGS = ["--gamma", "0.2", "--eta-lambda", "1e-3", "--eta-mu", "0.01", "--iters", "5"]


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


@pytest.mark.parametrize(
    "doc",
    [
        {"solver": {"iters": "10"}},
        {"solver": {"iters": 2.5}},
        [1, 2],
        {"solver": {"iters": 5}, "loss": {"kind": "quadratic_eps"}},
        {"solver": {"iters": 5}, "kernel": {"w_lo": "a", "w_hi": 1.0, "box": [[0.0, 3.0]]}},
    ],
)
def test_malformed_config_exits_2(doc, train_csv, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = str(tmp_path / "m.json")
    argv = ["fit", train_csv, *FIT_FLAGS[:6], "--config", str(config), "--out", out]
    assert fails_with_one_error_line(argv, capsys)


def test_eval_of_a_field_file_exits_2(train_csv, tmp_path, capsys):
    out = str(tmp_path / "model.json")
    assert cli.main(["fit", train_csv, *FIT_FLAGS, "--out", out]) == 0
    capsys.readouterr()
    assert fails_with_one_error_line(["eval", out + ".field.json", train_csv], capsys)


def test_eval_accuracy_metric_is_rejected(train_csv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", str(tmp_path / "model.json"), train_csv, "--metric", "accuracy"])
    assert exc.value.code == 2
