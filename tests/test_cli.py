"""Command-line interface: exit codes, determinism, end-to-end runs."""

import json
import subprocess
import sys

import numpy as np
import pytest

from cartannet import cli, net, train
from cartannet.spaces import hyperbolic


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

    def test_core_checks_a_higher_rank_chart(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify", "--scope", "core", "--out", str(out)]) == 0
        checks = {c["name"]: c for c in
                  json.loads(out.read_text())["suites"][0]["checks"]}
        check = checks["roundtrips[so(2,5)]"]
        assert check["pass"] and check["tolerance"] == 1e-10

    def test_unknown_scope_exit_2(self):
        assert run(["verify", "--scope", "bogus"]) == 2

    def test_rerun_byte_identical(self, tmp_path):
        # the second appendix run rebuilds its coordinate-map plans
        from cartannet import homo
        for scope in ("core", "appendix"):
            a, b = tmp_path / f"{scope}-a.json", tmp_path / f"{scope}-b.json"
            run(["verify", "--scope", scope, "--seed", "7", "--out", str(a)])
            homo._map_plan.cache_clear()
            run(["verify", "--scope", scope, "--seed", "7", "--out", str(b)])
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
        for name in ("sp(4)", 5, None, ["r1(1)"], "solv_so(1)"):
            for key in ("source", "target"):
                doc = {"source": "r1(1)", "target": "r1(1)", key: name}
                cfg = write_json(tmp_path / "c.json", doc)
                assert run(["solve-homo", "--config", cfg]) == 2, doc

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
    def setup_files(self, tmp_path, task="binary"):
        data = tmp_path / "data.csv"
        gen = write_json(tmp_path / "gen.json",
                         {"kind": "blobs", "n": 60, "dim": 2, "classes": 2})
        assert run(["gen-data", "--config", gen, "--seed", "0",
                    "--out", str(data)]) == 0
        if task == "regression":
            # a smooth float target of the same features
            ds = train.load_csv(data)
            ds.labels = np.sin(ds.features[:, 0]) + 0.5 * ds.features[:, 1]
            train.save_csv(data, ds)
        tcfg = write_json(tmp_path / "train.json", {
            "net": {"input_dim": 2, "layers": [3], "task": task},
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

    def test_train_stops_on_a_test_row_beyond_the_bound(self, tmp_path,
                                                        capsys):
        # the epoch record checks the test rows inside the loop's guard:
        # the run stops, exits 0 and writes the model it started from
        data = tmp_path / "data.csv"
        gen = write_json(tmp_path / "gen.json",
                         {"kind": "blobs", "n": 100, "dim": 4, "classes": 4})
        assert run(["gen-data", "--config", gen, "--seed", "0",
                    "--out", str(data)]) == 0
        ds = train.load_csv(data)
        assert ds.split[0] == "test"
        ds.features[0] *= 1e4
        train.save_csv(data, ds)
        tcfg = write_json(tmp_path / "train.json", {
            "net": {"input_dim": 4, "layers": [5, 3], "task": "multiclass",
                    "K": 4},
            "train": {"learning_rate": 0.003, "epochs": 2, "batch_size": 32},
            "dataset": str(data)})
        model = tmp_path / "model.json"
        capsys.readouterr()
        assert run(["train", "--config", tcfg, "--seed", "0",
                    "--out", str(model)]) == 0
        assert json.loads(capsys.readouterr().out)["epochs_run"] == 0
        config, params = net.load_model(model)
        start = net.init_params(config, seed=0)
        assert np.array_equal(net.flatten(config, params).vector,
                              net.flatten(config, start).vector)
        assert (tmp_path / "model.json.metrics.jsonl").read_text() == ""

    @staticmethod
    def task_folders(tmp_path):
        for task in ("binary", "regression"):
            folder = tmp_path / task
            folder.mkdir()
            yield task, folder

    def test_train_deterministic(self, tmp_path):
        for task, folder in self.task_folders(tmp_path):
            _, tcfg = self.setup_files(folder, task)
            a, b = folder / "a.json", folder / "b.json"
            run(["train", "--config", tcfg, "--seed", "1", "--out", str(a)])
            run(["train", "--config", tcfg, "--seed", "1", "--out", str(b)])
            assert a.read_bytes() == b.read_bytes(), task

    def test_eval_reproduces_final_metrics(self, tmp_path):
        for task, folder in self.task_folders(tmp_path):
            data, tcfg = self.setup_files(folder, task)
            model = folder / "model.json"
            run(["train", "--config", tcfg, "--seed", "0",
                 "--out", str(model)])
            last = json.loads((folder / "model.json.metrics.jsonl")
                              .read_text().splitlines()[-1])
            ecfg = write_json(folder / "eval.json",
                              {"model": str(model), "dataset": str(data)})
            out = folder / "metrics.json"
            assert run(["eval", "--config", ecfg, "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            if task == "regression":
                assert doc["mse"] == last["test_loss"]
                continue
            assert abs(doc["accuracy"] - last["accuracy"]) <= 1e-12
            n_test = doc["n"]
            assert abs(doc["nll"] * n_test - last["test_loss"]) <= 1e-9

    def test_eval_refuses_a_v_c_model(self, tmp_path):
        # a regression model stored with the linear read-out v, c in place
        # of the separator head is refused, not misread
        data, tcfg = self.setup_files(tmp_path, "regression")
        model = tmp_path / "model.json"
        assert run(["train", "--config", tcfg, "--seed", "0",
                    "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        doc["layout"][-3:] = [["v", [3]], ["c", [1]]]
        model.write_text(json.dumps(doc))
        ecfg = write_json(tmp_path / "eval.json",
                          {"model": str(model), "dataset": str(data)})
        before = sorted(tmp_path.rglob("*"))
        assert run(["eval", "--config", ecfg, "--out",
                    str(tmp_path / "metrics.json")]) == 2
        assert sorted(tmp_path.rglob("*")) == before

    def test_eval_empty_data_exit_2(self, tmp_path, capsys):
        # a header-only CSV is empty data for every task
        for task, folder in self.task_folders(tmp_path):
            config = net.NetworkConfig(input_dim=2, layers=(hyperbolic(3),),
                                       task=task)
            model = folder / "model.json"
            net.save_model(model, config, net.init_params(config))
            data = folder / "data.csv"
            data.write_text("f0,f1,label\n")
            ecfg = write_json(folder / "eval.json",
                              {"model": str(model), "dataset": str(data)})
            out = folder / "metrics.json"
            capsys.readouterr()
            assert run(["eval", "--config", ecfg, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "empty data" in err, task
            assert not out.exists()

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

    def test_no_training_rows_exit_2(self, tmp_path, capsys):
        # row 0 of a CSV is always a test row, so one row trains nothing
        data = tmp_path / "data.csv"
        data.write_text("f0,f1,label\n0.5,-0.25,1\n")
        tcfg = write_json(tmp_path / "train.json", {
            "net": {"input_dim": 2, "layers": [3], "task": "binary"},
            "train": {"epochs": 1}, "dataset": str(data)})
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert run(["train", "--config", tcfg, "--out",
                    str(tmp_path / "model.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "no training split" in err
        assert sorted(tmp_path.rglob("*")) == before


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

    @pytest.mark.parametrize("kind, classes", [("blobs", 1), ("arcs", 4)])
    def test_classes_it_cannot_make_exit_2(self, tmp_path, kind, classes):
        assert self.gen_exit(tmp_path, kind=kind, classes=classes) == 2

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
        ({"K": 4}, None),
        ({"layers": [3, 1]}, None),
    ])
    def test_each_train_field(self, tmp_path, net_doc, train_doc):
        assert self.train_exit(tmp_path, net_doc, train_doc) == 2


class TestStrictNumbersAndSections:
    """Float config fields must be finite JSON numbers, and the config, its
    ``net`` and its ``train`` sections JSON objects: anything else exits 2
    before any output is written."""

    GEN = TestStrictIntegers.GEN

    def gen_exit(self, tmp_path, doc):
        cfg = write_json(tmp_path / "gen.json", doc)
        out = tmp_path / "generated.csv"
        code = run(["gen-data", "--config", cfg, "--out", str(out)])
        assert out.exists() == (code == 0)
        return code

    @pytest.mark.parametrize("value", [None, "0.6", "nan", True, False,
                                       float("nan"), float("inf"), [0.6],
                                       10 ** 400])
    def test_bad_spread_exit_2(self, tmp_path, value):
        assert self.gen_exit(tmp_path, {**self.GEN, "spread": value}) == 2

    @pytest.mark.parametrize("value", [1, 0.25])
    def test_int_and_float_spread_accepted(self, tmp_path, value):
        assert self.gen_exit(tmp_path, {**self.GEN, "spread": value}) == 0

    def train_exit(self, tmp_path, doc):
        data = tmp_path / "data.csv"
        gen = write_json(tmp_path / "gen.json", self.GEN)
        assert run(["gen-data", "--config", gen, "--out", str(data)]) == 0
        base = {"net": {"input_dim": 2, "layers": [3], "task": "binary"},
                "train": {"epochs": 1, "batch_size": 16},
                "dataset": str(data)}
        tcfg = write_json(tmp_path / "train.json",
                          doc(base) if callable(doc) else doc)
        model = tmp_path / "model.json"
        code = run(["train", "--config", tcfg, "--out", str(model)])
        assert model.exists() == (code == 0)
        assert bool(list(tmp_path.glob("*.jsonl"))) == (code == 0)
        return code

    # fd_step is no longer read: train refuses it as an unknown key, so a
    # config carrying a bad fd_step still exits 2 with nothing written
    @pytest.mark.parametrize("field", ["learning_rate", "fd_step"])
    @pytest.mark.parametrize("value", [None, "nan", "0.1", True,
                                       float("nan"), float("-inf")])
    def test_bad_float_field_exit_2(self, tmp_path, field, value):
        def doc(base):
            return {**base, "train": {**base["train"], field: value}}
        assert self.train_exit(tmp_path, doc) == 2

    def test_int_learning_rate_accepted(self, tmp_path):
        def doc(base):
            return {**base, "train": {**base["train"], "learning_rate": 1}}
        assert self.train_exit(tmp_path, doc) == 0

    @pytest.mark.parametrize("section", ["net", "train"])
    @pytest.mark.parametrize("value", [[1], 3, "x", None])
    def test_section_not_object_exit_2(self, tmp_path, section, value):
        assert self.train_exit(tmp_path,
                               lambda base: {**base, section: value}) == 2

    @pytest.mark.parametrize("doc", [[1], 3, "config", None])
    def test_config_not_object_exit_2(self, tmp_path, doc):
        assert self.train_exit(tmp_path, doc) == 2
        assert self.gen_exit(tmp_path, doc) == 2
        cfg = write_json(tmp_path / "c.json", doc)
        out = tmp_path / "out.json"
        for command in ("solve-homo", "eval"):
            assert run([command, "--config", cfg, "--out", str(out)]) == 2
            assert not out.exists()


class TestMalformedCsv:
    """A dataset row that is not one number per header field exits 2 with
    one error line naming it, in ``train`` before any training and in
    ``eval`` before any output is written."""

    ROWS = {
        "extra-field": "1.0,2.0,3.0,0",
        "no-label": "1.0,2.0",
        "comment": "# a note",
    }

    @staticmethod
    def dataset(tmp_path, row):
        data = tmp_path / "data.csv"
        gen = write_json(tmp_path / "gen.json", TestStrictIntegers.GEN)
        assert run(["gen-data", "--config", gen, "--out", str(data)]) == 0
        with open(data, "a") as fh:
            fh.write(row + "\r\n")
        return data

    @pytest.mark.parametrize("row", list(ROWS.values()), ids=list(ROWS))
    def test_train_exit_2(self, tmp_path, monkeypatch, capsys, row):
        data = self.dataset(tmp_path, row)

        def must_not_train(*args, **kwargs):
            raise AssertionError("trained on a malformed dataset")

        monkeypatch.setattr(train, "train_loop", must_not_train)
        tcfg = write_json(tmp_path / "train.json", {
            "net": {"input_dim": 2, "layers": [3], "task": "binary"},
            "train": {"epochs": 1, "batch_size": 16}, "dataset": str(data)})
        model = tmp_path / "model.json"
        assert run(["train", "--config", tcfg, "--out", str(model)]) == 2
        assert "line 62: " in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("row", list(ROWS.values()), ids=list(ROWS))
    def test_eval_exit_2(self, tmp_path, capsys, row):
        data = self.dataset(tmp_path, row)
        config = net.NetworkConfig(input_dim=2, layers=(hyperbolic(3),),
                                   task="binary")
        model = tmp_path / "model.json"
        net.save_model(model, config, net.init_params(config))
        ecfg = write_json(tmp_path / "eval.json", {
            "model": str(model), "dataset": str(data)})
        out = tmp_path / "metrics.json"
        assert run(["eval", "--config", ecfg, "--out", str(out)]) == 2
        assert "line 62: " in capsys.readouterr().err
        assert not out.exists()


class TestPathFields:
    """Path fields must be JSON strings: anything else exits 2 before
    training starts or any output is written (``open`` would take a
    number for a file descriptor)."""

    def train_exit(self, tmp_path, monkeypatch, **fields):
        data = tmp_path / "data.csv"
        gen = write_json(tmp_path / "gen.json", TestStrictIntegers.GEN)
        assert run(["gen-data", "--config", gen, "--out", str(data)]) == 0

        def must_not_train(*args, **kwargs):
            raise AssertionError("trained on a bad config")

        monkeypatch.setattr(train, "train_loop", must_not_train)
        tcfg = write_json(tmp_path / "train.json", {
            "net": {"input_dim": 2, "layers": [3], "task": "binary"},
            "train": {"epochs": 1, "batch_size": 16},
            "dataset": str(data), **fields})
        model = tmp_path / "model.json"
        code = run(["train", "--config", tcfg, "--out", str(model)])
        assert not model.exists()
        assert not list(tmp_path.glob("*.jsonl"))
        return code

    @pytest.mark.parametrize("field, value", [
        ("dataset", None), ("dataset", [1]), ("dataset", {"path": "x"}),
        ("metrics_out", None), ("metrics_out", [1]), ("metrics_out", 2.5),
    ])
    def test_train_path_not_a_string_exit_2(self, tmp_path, monkeypatch,
                                            field, value):
        assert self.train_exit(tmp_path, monkeypatch, **{field: value}) == 2

    @pytest.mark.parametrize("field, value", [
        ("model", None), ("model", [1]), ("dataset", None), ("dataset", 1.5),
    ])
    def test_eval_path_not_a_string_exit_2(self, tmp_path, field, value):
        data = tmp_path / "data.csv"
        gen = write_json(tmp_path / "gen.json", TestStrictIntegers.GEN)
        assert run(["gen-data", "--config", gen, "--out", str(data)]) == 0
        config = net.NetworkConfig(input_dim=2, layers=(hyperbolic(3),),
                                   task="binary")
        model = tmp_path / "model.json"
        net.save_model(model, config, net.init_params(config))
        ecfg = write_json(tmp_path / "eval.json", {
            "model": str(model), "dataset": str(data), field: value})
        out = tmp_path / "metrics.json"
        assert run(["eval", "--config", ecfg, "--out", str(out)]) == 2
        assert not out.exists()


class TestUnwritableOutputs:
    """An output that cannot be written exits 2 with a one-line error
    before any work is done, and nothing is written."""

    @staticmethod
    def dataset(tmp_path):
        data = tmp_path / "data.csv"
        gen = write_json(tmp_path / "gen.json", TestStrictIntegers.GEN)
        assert run(["gen-data", "--config", gen, "--out", str(data)]) == 0
        return str(data)

    def train_exit(self, tmp_path, monkeypatch, out, **fields):
        data = self.dataset(tmp_path)

        def must_not_train(*args, **kwargs):
            raise AssertionError("trained before checking the outputs")

        monkeypatch.setattr(train, "train_loop", must_not_train)
        cfg = write_json(tmp_path / "train.json", {
            "net": {"input_dim": 2, "layers": [3], "task": "binary"},
            "train": {"epochs": 1, "batch_size": 16},
            "dataset": data, **fields})
        before = sorted(tmp_path.rglob("*"))
        code = run(["train", "--config", cfg, "--out", str(out)])
        assert sorted(tmp_path.rglob("*")) == before
        return code

    def test_train_metrics_out_in_missing_directory(self, tmp_path,
                                                    monkeypatch, capsys):
        metrics = tmp_path / "nodir" / "m.jsonl"
        assert self.train_exit(tmp_path, monkeypatch, tmp_path / "model.json",
                               metrics_out=str(metrics)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("where", ["nodir/model.json", "."])
    def test_train_out_unwritable(self, tmp_path, monkeypatch, where):
        assert self.train_exit(tmp_path, monkeypatch, tmp_path / where) == 2

    @pytest.mark.parametrize("command", ["verify", "solve-homo", "gen-data",
                                         "eval"])
    def test_out_in_missing_directory(self, tmp_path, command, capsys):
        if command == "verify":
            argv = ["verify", "--scope", "core"]
        elif command == "solve-homo":
            argv = ["solve-homo", "--config", write_json(
                tmp_path / "solve.json",
                {"source": "r1(1)", "target": "r1(1)", "seeds": 1})]
        elif command == "gen-data":
            argv = ["gen-data", "--config", write_json(
                tmp_path / "gen.json", TestStrictIntegers.GEN)]
        else:
            config = net.NetworkConfig(input_dim=2, layers=(hyperbolic(3),),
                                       task="binary")
            model = tmp_path / "model.json"
            net.save_model(model, config, net.init_params(config))
            argv = ["eval", "--config", write_json(
                tmp_path / "eval.json",
                {"model": str(model), "dataset": self.dataset(tmp_path)})]
        capsys.readouterr()
        out = tmp_path / "nodir" / "out.json"
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.parent.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


class TestUnknownKeys:
    """A key that no part of a command reads, at the top level of its
    config or in the ``net`` or ``train`` section, exits 2 with one
    ``error:`` line naming it, before any work is done; so does a
    ``gradient_mode`` other than "analytic"."""

    @staticmethod
    def configs(tmp_path):
        data = TestUnwritableOutputs.dataset(tmp_path)
        config = net.NetworkConfig(input_dim=2, layers=(hyperbolic(3),),
                                   task="binary")
        model = tmp_path / "model.json"
        net.save_model(model, config, net.init_params(config))
        return {
            "solve-homo": {"source": "r1(1)", "target": "r1(1)", "seeds": 1},
            "gen-data": dict(TestStrictIntegers.GEN),
            "train": {"net": {"input_dim": 2, "layers": [3],
                              "task": "binary"},
                      "train": {"epochs": 1, "batch_size": 16},
                      "dataset": data},
            "eval": {"model": str(model), "dataset": data},
        }

    @pytest.mark.parametrize("command, section, key", [
        ("train", "train", "lerning_rate"),
        ("train", "train", "fd_step"),
        ("train", "net", "layer"),
        ("train", None, "bogus"),
        ("solve-homo", None, "bogus"),
        ("gen-data", None, "bogus"),
        ("eval", None, "bogus"),
    ])
    def test_unknown_key_exit_2(self, tmp_path, monkeypatch, capsys,
                                command, section, key):
        doc = self.configs(tmp_path)[command]
        (doc[section] if section else doc)[key] = 5

        def must_not_run(*args, **kwargs):
            raise AssertionError("worked on a config with an unknown key")

        for module, name in ((cli.homo, "build_constraints"),
                             (train, "gen_synthetic"), (train, "load_csv"),
                             (net, "load_model")):
            monkeypatch.setattr(module, name, must_not_run)
        cfg = write_json(tmp_path / "config.json", doc)
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(key) in err

    @pytest.mark.parametrize("value", ["finite-difference", 1])
    def test_gradient_mode_other_than_analytic_exit_2(
            self, tmp_path, monkeypatch, capsys, value):
        # "analytic", the one gradient there is, is the one value accepted
        doc = self.configs(tmp_path)["train"]
        doc["train"]["gradient_mode"] = value
        metrics = tmp_path / "m.jsonl"
        doc["metrics_out"] = str(metrics)

        def must_not_run(*args, **kwargs):
            raise AssertionError("worked on a refused gradient mode")

        for name in ("load_csv", "train_loop"):
            monkeypatch.setattr(train, name, must_not_run)
        cfg = write_json(tmp_path / "config.json", doc)
        out = tmp_path / "trained.json"
        capsys.readouterr()
        assert run(["train", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists() and not metrics.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "gradient_mode" in err and repr(value) in err

    def test_every_key_read_is_accepted(self, tmp_path):
        doc = self.configs(tmp_path)["train"]
        doc["net"].update(K=None)
        doc["train"].update(learning_rate=0.01, gradient_mode="analytic")
        doc["metrics_out"] = str(tmp_path / "m.jsonl")
        cfg = write_json(tmp_path / "config.json", doc)
        assert run(["train", "--config", cfg,
                    "--out", str(tmp_path / "trained.json")]) == 0
        gen = write_json(tmp_path / "gen.json",
                         {"kind": "blobs", "n": 20, "dim": 2, "classes": 2,
                          "spread": 0.5})
        assert run(["gen-data", "--config", gen,
                    "--out", str(tmp_path / "gen.csv")]) == 0


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

    def test_calls_in_one_process_parse_independently(self, tmp_path,
                                                      capsys):
        # the parser is built once per process; options given to one call
        # must not reach the next, and a bad argv still exits 2
        first = tmp_path / "first.json"
        assert run(["verify", "--scope", "core", "--seed", "7",
                    "--out", str(first)]) == 0
        written = first.read_bytes()
        capsys.readouterr()
        assert run(["verify", "--scope", "core"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 0
        assert first.read_bytes() == written
        assert json.loads(written)["seed"] == 7
        assert run(["verify", "--bogus"]) == 2
        assert run(["verify", "--scope", "core", "--out", str(first)]) == 0
        assert json.loads(first.read_text())["seed"] == 0


class TestFlags:
    """Each subcommand declares only the flags it reads; any other flag
    exits 2 before the command runs."""

    FLAGS = {
        "verify": {"--scope", "--seed", "--out"},
        "solve-homo": {"--config", "--seed", "--out"},
        "gen-data": {"--config", "--seed", "--out"},
        "train": {"--config", "--seed", "--out"},
        "eval": {"--config", "--out"},
    }

    @pytest.mark.parametrize("command", list(FLAGS))
    @pytest.mark.parametrize("flag", ["--config", "--seed", "--out",
                                      "--scope"])
    def test_accepted_flags(self, command, flag):
        try:
            cli.build_parser().parse_args([command, flag, "1"])
            code = 0
        except SystemExit as exc:
            code = exc.code
        assert code == (0 if flag in self.FLAGS[command] else 2)

    def test_unread_flags_exit_2(self, tmp_path, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran a command with an unread flag")

        monkeypatch.setattr(train, "train_loop", must_not_run)
        monkeypatch.setattr(train, "evaluate", must_not_run)
        cfg = write_json(tmp_path / "cfg.json", {})
        out = str(tmp_path / "out.json")
        assert run(["train", "--scope", "core", "--config", cfg,
                    "--out", out]) == 2
        assert run(["eval", "--seed", "1", "--config", cfg,
                    "--out", out]) == 2
        assert not list(tmp_path.glob("out*"))
        capsys.readouterr()


    @pytest.mark.parametrize("seed", ["-1", "2.5", "seven", ""])
    def test_bad_seed_exit_2(self, tmp_path, capsys, seed):
        # a seed numpy refuses is a usage error, refused by the parser
        # before any command runs, not a check failure (exit 1)
        data = tmp_path / "data.csv"
        gen = write_json(tmp_path / "gen.json",
                         {"kind": "blobs", "n": 20, "dim": 2, "classes": 2})
        assert run(["gen-data", "--config", gen, "--out", str(data)]) == 0
        solve = write_json(tmp_path / "solve.json",
                           {"source": "r1(1)", "target": "r1(1)", "seeds": 1})
        fit = write_json(tmp_path / "train.json", {
            "net": {"input_dim": 2, "layers": [3], "task": "binary"},
            "train": {"epochs": 1}, "dataset": str(data)})
        out = tmp_path / "out"
        for argv in (["verify", "--scope", "core"],
                     ["solve-homo", "--config", solve],
                     ["gen-data", "--config", gen],
                     ["train", "--config", fit]):
            assert run(argv + ["--seed", seed, "--out", str(out)]) == 2, argv
            assert not out.exists()
        assert "--seed: must be an integer >= 0" in capsys.readouterr().err


class TestModelDocuments:
    """A model document ``eval`` cannot read exits 2."""

    @pytest.mark.parametrize("edit", ["format_version", "layout", "nan_w",
                                      "nan_alpha", "inf_beta"])
    def test_eval_exit_2(self, tmp_path, edit, capsys):
        config = net.NetworkConfig(input_dim=2, layers=(hyperbolic(3),),
                                   task="binary")
        model = tmp_path / "model.json"
        net.save_model(model, config, net.init_params(config))
        doc = json.loads(model.read_text())
        # flat_params ends in the head alpha, beta, w (2,); JSON writes a
        # non-finite float as NaN or Infinity
        non_finite = {"nan_w": (-1, np.nan), "nan_alpha": (-4, np.nan),
                      "inf_beta": (-3, np.inf)}
        if edit == "format_version":
            doc["format_version"] = "v0"
        elif edit == "layout":
            doc["layout"][0][1] = [3, 3]
        else:
            index, value = non_finite[edit]
            doc["flat_params"][index] = value
        model.write_text(json.dumps(doc))
        data = TestUnwritableOutputs.dataset(tmp_path)
        ecfg = write_json(tmp_path / "eval.json",
                          {"model": str(model), "dataset": data})
        out = tmp_path / "metrics.json"
        capsys.readouterr()
        assert run(["eval", "--config", ecfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()
