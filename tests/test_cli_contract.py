"""The command-line contract over a table of bad inputs, run in-process:
each exits with its documented code, an exit 2 says why in exactly one
``error:`` line and writes no output file, and no numpy warning escapes
(the suite turns every ``RuntimeWarning`` into a failure)."""

import json

import pytest

from cartannet import cli, net, train
from cartannet.spaces import hyperbolic

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def blobs(path, dim):
    train.save_csv(path, train.gen_synthetic("blobs", n=100, dim=dim, seed=0,
                                             classes=4))
    return str(path)


def train_case(tmp_path, input_dim, dim, learning_rate=0.01):
    return {"net": {"input_dim": input_dim, "layers": [5, 3],
                    "task": "multiclass", "K": 4},
            "train": {"learning_rate": learning_rate, "epochs": 2},
            "dataset": blobs(tmp_path / "data.csv", dim)}


def eval_case(tmp_path, input_dim, dim):
    config = net.NetworkConfig(input_dim=input_dim,
                               layers=(hyperbolic(5), hyperbolic(3)),
                               task="multiclass", K=4)
    model = tmp_path / "given-model.json"
    net.save_model(model, config, net.init_params(config))
    return {"model": str(model), "dataset": blobs(tmp_path / "data.csv", dim)}


def gen_case(spread):
    return {"kind": "blobs", "n": 20, "dim": 3, "spread": spread}


CASES = {
    # a network of 3 inputs on rows of 4 features
    "train-narrow-input": ("train", 2,
                           lambda p: train_case(p, input_dim=3, dim=4)),
    # a model of 4 inputs on rows of 5 features
    "eval-wide-rows": ("eval", 2, lambda p: eval_case(p, input_dim=4, dim=5)),
    # the first step overflows: the run stops with no record and writes
    # the model it started from
    "train-lr-1e300": ("train", 0, lambda p: train_case(
        p, input_dim=4, dim=4, learning_rate=1e300)),
    "gen-data-negative-spread": ("gen-data", 2, lambda p: gen_case(-1)),
    "gen-data-overflowing-spread": ("gen-data", 2,
                                    lambda p: gen_case(1e308)),
}


@pytest.mark.parametrize("name", list(CASES))
def test_exit_code_and_outputs(tmp_path, capsys, name):
    command, code, make = CASES[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(make(tmp_path)))
    out = tmp_path / "out.json"
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert cli.main([command, "--config", str(config),
                     "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert sorted(tmp_path.iterdir()) == before
    else:
        assert err == ""
        assert out.exists()
