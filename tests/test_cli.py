"""Command-line interface: exit codes, determinism, end-to-end runs."""

import json
import subprocess
import sys

import numpy as np
import pytest

from cartannet import cli, net, train


def run(argv):
    return cli.main(argv)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestVerify:
    @pytest.mark.parametrize("scope", ["core", "isometry", "appendix", "all"])
    def test_scopes_pass(self, tmp_path, scope):
        out = tmp_path / "report.json"
        assert run(["verify", "--scope", scope, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        assert doc["format"] == "v1"
        for suite in doc["suites"]:
            assert all(c["pass"] for c in suite["checks"])

    def test_unknown_scope_exit_2(self):
        assert run(["verify", "--scope", "bogus"]) == 2

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["verify", "--scope", "core", "--seed", "7", "--out", str(a)])
        run(["verify", "--scope", "core", "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_perturbed_fixture_fails(self, tmp_path, monkeypatch):
        # negative control: break a pinned entry of the canonical solution
        # and check that the appendix suite reports failure (exit 1)
        from cartannet import fixtures, homo
        real = fixtures.W_canonical

        def broken():
            sol = real()
            W = sol.W.copy()
            W[2, 0] += 1e-3
            return homo.HomoMatrix(W=W, source=sol.source, target=sol.target)

        monkeypatch.setattr(fixtures, "W_canonical", broken)
        out = tmp_path / "report.json"
        assert run(["verify", "--scope", "appendix", "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["pass"] is False


class TestSolveHomo:
    def test_injection_finds_both_branches(self, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"source": "r1(1)", "target": "borel_sl(4)",
                          "seeds": 6})
        out = tmp_path / "sol.json"
        assert run(["solve-homo", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        tags = {s["branch_tag"] for s in doc["solutions"]}
        assert "branch-11" in tags and "branch-12" in tags
        assert all(s["residual"] <= 1e-10 for s in doc["solutions"])

    def test_restriction_finds_cartan_column(self, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"source": "borel_sl(4)", "target": "r1(1)",
                          "seeds": 6})
        out = tmp_path / "sol.json"
        assert run(["solve-homo", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert any(s["branch_tag"] == "cartan-column-3"
                   for s in doc["solutions"])

    def test_r1_to_r1(self, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"source": "r1(2)", "target": "r1(4)", "seeds": 4})
        out = tmp_path / "sol.json"
        assert run(["solve-homo", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["solutions"]
        assert all(s["residual"] <= 1e-10 for s in doc["solutions"])

    def test_bad_algebra_exit_2(self, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"source": "sp(4)", "target": "r1(1)"})
        assert run(["solve-homo", "--config", cfg]) == 2

    def test_missing_config_exit_2(self):
        assert run(["solve-homo"]) == 2

    def test_bad_seeds_exit_2(self, tmp_path):
        for seeds in (0, -3, 2.5, "8", True, None):
            cfg = write_json(tmp_path / "c.json",
                             {"source": "r1(1)", "target": "r1(1)",
                              "seeds": seeds})
            assert run(["solve-homo", "--config", cfg]) == 2, seeds

    def test_endomorphisms_include_identity(self, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"source": "borel_sl(3)", "target": "borel_sl(3)",
                          "seeds": 2})
        out = tmp_path / "sol.json"
        assert run(["solve-homo", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert np.eye(5).tolist() in [s["W"] for s in doc["solutions"]]

    def test_deterministic(self, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"source": "r1(1)", "target": "borel_sl(4)",
                          "seeds": 3})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["solve-homo", "--config", cfg, "--seed", "2", "--out", str(a)])
        run(["solve-homo", "--config", cfg, "--seed", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestDataTrainEval:
    def setup_files(self, tmp_path):
        data = tmp_path / "data.csv"
        gen = write_json(tmp_path / "gen.json",
                         {"kind": "blobs", "n": 60, "dim": 2, "classes": 2})
        assert run(["gen-data", "--config", gen, "--seed", "0",
                    "--out", str(data)]) == 0
        tcfg = write_json(tmp_path / "train.json", {
            "net": {"input_dim": 2, "layers": [3], "task": "binary"},
            "train": {"learning_rate": 0.01, "epochs": 3, "batch_size": 16},
            "dataset": str(data),
        })
        return data, tcfg

    def test_gen_data_csv(self, tmp_path):
        data, _ = self.setup_files(tmp_path)
        ds = train.load_csv(data)
        assert len(ds) == 60 and ds.features.shape[1] == 2

    def test_gen_data_deterministic(self, tmp_path):
        gen = write_json(tmp_path / "gen.json",
                         {"kind": "blobs", "n": 30, "dim": 2})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["gen-data", "--config", gen, "--seed", "3", "--out", str(a)])
        run(["gen-data", "--config", gen, "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_train_writes_model_and_metrics(self, tmp_path):
        _, tcfg = self.setup_files(tmp_path)
        model = tmp_path / "model.json"
        assert run(["train", "--config", tcfg, "--seed", "0",
                    "--out", str(model)]) == 0
        cfg, params = net.load_model(model)
        assert cfg.task == "binary"
        lines = (tmp_path / "model.json.metrics.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert {"epoch", "train_loss", "test_loss", "accuracy"} <= set(
            json.loads(lines[-1]))

    def test_train_deterministic(self, tmp_path):
        _, tcfg = self.setup_files(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["train", "--config", tcfg, "--seed", "1", "--out", str(a)])
        run(["train", "--config", tcfg, "--seed", "1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_eval_reproduces_final_metrics(self, tmp_path):
        data, tcfg = self.setup_files(tmp_path)
        model = tmp_path / "model.json"
        run(["train", "--config", tcfg, "--seed", "0", "--out", str(model)])
        last = json.loads((tmp_path / "model.json.metrics.jsonl")
                          .read_text().splitlines()[-1])
        ecfg = write_json(tmp_path / "eval.json",
                          {"model": str(model), "dataset": str(data)})
        out = tmp_path / "metrics.json"
        assert run(["eval", "--config", ecfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["accuracy"] - last["accuracy"]) <= 1e-12
        n_test = doc["n"]
        assert abs(doc["nll"] * n_test - last["test_loss"]) <= 1e-9

    def test_train_without_out_exit_2_before_training(self, tmp_path,
                                                       monkeypatch):
        _, tcfg = self.setup_files(tmp_path)

        def must_not_train(*args, **kwargs):
            raise AssertionError("trained without --out")

        monkeypatch.setattr(train, "train_loop", must_not_train)
        assert run(["train", "--config", tcfg, "--seed", "0"]) == 2
        assert not list(tmp_path.glob("*.jsonl"))

    def test_bad_train_config_exit_2(self, tmp_path):
        tcfg = write_json(tmp_path / "t.json", {"net": {"input_dim": 2}})
        assert run(["train", "--config", tcfg, "--out",
                    str(tmp_path / "m.json")]) == 2


class TestStrictIntegers:
    """Integer config fields must be JSON integers: a float, null, string
    or bool exits 2 before any output is written (no truncation)."""

    GEN = {"kind": "blobs", "n": 60, "dim": 2, "classes": 2}

    def gen_exit(self, tmp_path, **changes):
        cfg = write_json(tmp_path / "gen.json", {**self.GEN, **changes})
        out = tmp_path / "data.csv"
        code = run(["gen-data", "--config", cfg, "--out", str(out)])
        assert not out.exists()
        return code

    def test_fractional_gen_data_exit_2(self, tmp_path):
        assert self.gen_exit(tmp_path, n=60.9, dim=2.7, classes=2.5) == 2

    def test_null_n_exit_2(self, tmp_path):
        assert self.gen_exit(tmp_path, n=None) == 2

    @pytest.mark.parametrize("field", ["n", "dim", "classes"])
    @pytest.mark.parametrize("value", [60.9, 2.0, None, "60", True])
    def test_each_gen_data_field(self, tmp_path, field, value):
        assert self.gen_exit(tmp_path, **{field: value}) == 2

    def train_exit(self, tmp_path, net_doc=None, train_doc=None):
        data = tmp_path / "data.csv"
        gen = write_json(tmp_path / "gen.json", self.GEN)
        assert run(["gen-data", "--config", gen, "--out", str(data)]) == 0
        tcfg = write_json(tmp_path / "train.json", {
            "net": {"input_dim": 2, "layers": [3], "task": "binary",
                    **(net_doc or {})},
            "train": {"epochs": 2, "batch_size": 16, **(train_doc or {})},
            "dataset": str(data),
        })
        model = tmp_path / "model.json"
        code = run(["train", "--config", tcfg, "--out", str(model)])
        assert not model.exists()
        assert not list(tmp_path.glob("*.jsonl"))
        return code

    def test_fractional_epochs_exit_2(self, tmp_path):
        assert self.train_exit(tmp_path, train_doc={"epochs": 2.5}) == 2

    @pytest.mark.parametrize("net_doc, train_doc", [
        ({"input_dim": 2.0}, None),
        ({"input_dim": None}, None),
        ({"layers": [3.5]}, None),
        ({"layers": [3, None]}, None),
        ({"layers": 3}, None),
        ({"task": "multiclass", "K": 2.5}, None),
        (None, {"batch_size": 16.5}),
        (None, {"batch_size": False}),
        (None, {"epochs": None}),
    ])
    def test_each_train_field(self, tmp_path, net_doc, train_doc):
        assert self.train_exit(tmp_path, net_doc, train_doc) == 2


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cartannet.cli", "verify",
             "--scope", "isometry"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["pass"] is True

    def test_no_command_exit_2(self):
        assert run([]) == 2
