import json
from dataclasses import fields

import numpy as np
import pytest

from casehash import (DataFormatError, HashIndex, Hyperparams, load_checkpoint,
                      two_class_fixture)
from casehash.cli import RunConfig, main

from conftest import make_case, write_sparse_text

FAST_CONFIG = """
# small everything so tests stay quick
k_w = 8
k_v = 8
r = 8
l = 2
hidden = 8
epochs = 2
batch_size = 32
"""


@pytest.fixture
def data_file(tmp_path):
    cases = two_class_fixture(n=80, seed=6)
    p = tmp_path / "cases.txt"
    write_sparse_text(cases, p)
    return str(p)


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "fast.cfg"
    p.write_text(FAST_CONFIG)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrainCommand:
    def test_writes_checkpoint_and_logs(self, tmp_path, data_file, config_file, capsys):
        out = str(tmp_path / "m.chn")
        code, stdout, stderr = run(
            capsys, "train", "--data", data_file, "--config", config_file,
            "--out", out, "--seed", "3")
        assert code == 0
        summary = json.loads(stdout)
        assert summary["checkpoint"] == out
        assert summary["epochs_run"] == 2
        assert (tmp_path / "m.chn").exists()
        assert not (tmp_path / "m.chn.log.csv").exists()
        records = [json.loads(l) for l in (tmp_path / "m.chn.log.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in records] == [1, 2]
        assert list(records[0]) == ["epoch", "objective", "val_objective",
                                    "n_positive", "n_negative", "wall_time_s"]

    def test_config_echoed_to_stderr(self, tmp_path, data_file, config_file, capsys):
        code, _, stderr = run(
            capsys, "train", "--data", data_file, "--config", config_file,
            "--out", str(tmp_path / "m.chn"))
        assert code == 0
        assert "# r=8" in stderr
        assert "# epochs=2" in stderr

    def test_flag_overrides_config(self, tmp_path, data_file, config_file, capsys):
        code, _, stderr = run(
            capsys, "train", "--data", data_file, "--config", config_file,
            "--bits", "12", "--out", str(tmp_path / "m.chn"))
        assert code == 0
        assert "# r=12" in stderr


def _other_value(value):
    """A valid setting of a config field other than its default."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2
    return {"adam": "sgd"}[value]


class TestConfigFile:
    @pytest.mark.parametrize("name", [f.name for f in fields(Hyperparams)]
                             + [f.name for f in fields(RunConfig) if f.name != "hyper"])
    def test_every_field_reaches_the_echo(self, tmp_path, data_file, capsys, name):
        defaults = RunConfig()
        value = _other_value(getattr(defaults.hyper if hasattr(defaults.hyper, name)
                                     else defaults, name))
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{name} = {value}\n")
        code, _, err = run(capsys, "index", "--data", data_file, "--config", str(cfg),
                           "--hash", "lsh", "--out", str(tmp_path / "c.idx"))
        assert code == 0
        assert f"# {name}={value}" in err.splitlines()

    def test_aliases_and_booleans(self, tmp_path, data_file, capsys):
        cfg = tmp_path / "alias.cfg"
        cfg.write_text("lambda = 0.3\nfirst_order = yes\n")
        code, _, err = run(capsys, "index", "--data", data_file, "--config", str(cfg),
                           "--hash", "lsh", "--out", str(tmp_path / "c.idx"))
        assert code == 0
        assert {"# lambda_=0.3", "# first_order=True"} <= set(err.splitlines())

    @pytest.mark.parametrize("line, message", [
        ("first_order = maybe", "config key 'first_order': not a boolean: 'maybe'"),
        ("epochs = 2.5", "config key 'epochs': invalid literal for int() with base 10: '2.5'"),
        ("lambda = x", "config key 'lambda': could not convert string to float: 'x'"),
        ("hyper = 1", "unknown config key 'hyper'"),
    ], ids=["bool", "int", "alias", "hyper"])
    def test_bad_value_messages(self, tmp_path, data_file, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, stdout, err = run(capsys, "index", "--data", data_file, "--config", str(cfg),
                                "--hash", "lsh")
        assert code == 2
        assert err == f"error: {message}\n"
        assert stdout == ""


class TestEvalCommand:
    def test_with_checkpoint(self, tmp_path, data_file, config_file, capsys):
        model = str(tmp_path / "m.chn")
        run(capsys, "train", "--data", data_file, "--config", config_file,
            "--out", model)
        code, stdout, _ = run(
            capsys, "eval", "--data", data_file, "--config", config_file,
            "--model", model, "--top-n", "5")
        assert code == 0
        report = json.loads(stdout)
        assert len(report["folds"]) == 1
        assert 0.0 <= report["mean"]["accuracy"] <= 1.0

    def test_kfold_without_checkpoint(self, data_file, config_file, capsys):
        code, stdout, _ = run(
            capsys, "eval", "--data", data_file, "--config", config_file,
            "--folds", "2")
        assert code == 0
        report = json.loads(stdout)
        assert len(report["folds"]) == 2

    def test_lsh_coder(self, data_file, capsys):
        code, stdout, _ = run(
            capsys, "eval", "--data", data_file, "--hash", "lsh", "--bits", "8")
        assert code == 0
        assert json.loads(stdout)["mean"]["accuracy"] >= 0.0

    @pytest.mark.parametrize("extra", [["--folds", "2"], ["--hash", "lsh", "--bits", "8"]],
                             ids=["k-folds", "one-split"])
    def test_out_file_holds_stdout(self, tmp_path, data_file, config_file, capsys, extra):
        out = tmp_path / "eval.json"
        code, stdout, _ = run(capsys, "eval", "--data", data_file, "--config", config_file,
                              *extra, "--out", str(out))
        assert code == 0
        assert out.read_text() == stdout
        assert len(json.loads(stdout)["folds"]) == (2 if "--folds" in extra else 1)


class TestStreamCommand:
    def test_jsonl_per_case(self, data_file, config_file, capsys):
        code, stdout, stderr = run(
            capsys, "stream", "--data", data_file, "--config", config_file,
            "--train-frac", "0.5", "--top-n", "3")
        assert code == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == 40
        first = json.loads(lines[0])
        assert {"id", "predicted", "true", "correct", "retained"} <= set(first)
        summary = json.loads(stderr.strip().splitlines()[-1])
        assert summary["streamed"] == 40

    def test_retrieval_fields(self, tmp_path, capsys):
        # four stored cases share one code; a query with the negated feature
        # gets the complement code, 8 bits away, so nothing within radius 2
        base = [make_case(1, [(0, 1.0)], label=k % 2, case_id=k) for k in range(4)]
        near = [make_case(1, [(0, 2.0)], label=0, case_id=k) for k in (4, 5)]
        far = [make_case(1, [(0, -1.0)], label=1, case_id=k) for k in (6, 7)]
        data = tmp_path / "cases.txt"
        write_sparse_text(base + near + far, data)
        code, stdout, stderr = run(
            capsys, "stream", "--data", str(data), "--hash", "lsh", "--bits", "8",
            "--train-frac", "0.5", "--top-n", "3", "--no-update")
        assert code == 0
        lines = [json.loads(l) for l in stdout.strip().splitlines()]
        got = [(l["predicted"] is None, l["radius_used"], l["n_candidates"]) for l in lines]
        assert got == [(False, 0, 4)] * 2 + [(True, 2, 0)] * 2
        summary = json.loads(stderr.strip().splitlines()[-1])
        assert summary["empty_retrievals"] == 2

    def test_update_fields(self, tmp_path, data_file, capsys):
        config = tmp_path / "update.cfg"
        config.write_text(FAST_CONFIG + "n_u = 10\n")
        code, stdout, stderr = run(
            capsys, "stream", "--data", data_file, "--config", str(config),
            "--train-frac", "0.5", "--top-n", "3")
        assert code == 0
        lines = [json.loads(l) for l in stdout.strip().splitlines()]
        fields = {"update_loss", "update_pairs", "update_steps", "recode_us", "code_churn"}
        updated = [l for l in lines if l["updated"]]
        assert len(updated) == 4
        assert all(fields <= set(l) for l in updated)
        assert not any(fields & set(l) for l in lines if not l["updated"])
        for l in updated:
            assert l["update_pairs"] == 45 + 10 * 10
            assert 0.0 <= l["code_churn"] <= 1.0

        # the summary's phase percentiles come from the lines' phase times
        summary = json.loads(stderr.strip().splitlines()[-1])
        samples = {
            "hash_us": [l["hash_us"] for l in lines],
            "retrieve_us": [l["retrieve_us"] for l in lines],
            "reuse_us": [l["reuse_us"] for l in lines],
            "retain_us": [l["retain_us"] for l in lines if l["retained"] and not l["updated"]],
            "update_us": [l["update_us"] for l in updated],
        }
        assert len(samples["retain_us"]) == 36
        for name, values in samples.items():
            for q in (50, 99):
                assert summary[f"{name}_p{q}"] == round(float(np.percentile(values, q)), 1)
            assert min(values) <= summary[f"{name}_p50"] <= summary[f"{name}_p99"]

    def test_no_update_freezes(self, data_file, capsys):
        code, stdout, stderr = run(
            capsys, "stream", "--data", data_file, "--hash", "lsh", "--bits", "8",
            "--train-frac", "0.5", "--no-update")
        assert code == 0
        summary = json.loads(stderr.strip().splitlines()[-1])
        assert summary["final_cases"] == 40  # nothing retained
        # no solve retained or updated, so those phases have no percentiles
        assert summary["retain_us_p50"] is None and summary["update_us_p99"] is None
        assert summary["hash_us_p50"] is not None
        assert all(not json.loads(l)["retained"] for l in stdout.strip().splitlines())


    def test_out_file_holds_the_lines(self, tmp_path, data_file, config_file, capsys):
        argv = ["stream", "--data", data_file, "--config", config_file,
                "--train-frac", "0.5", "--top-n", "3", "--seed", "2"]
        code, stdout, stderr = run(capsys, *argv)
        assert code == 0
        out = tmp_path / "log.jsonl"
        code, stdout_out, stderr_out = run(capsys, *argv, "--out", str(out))
        assert code == 0
        assert stdout_out == ""

        def untimed(text):  # the lines without their phase times
            return [{k: v for k, v in json.loads(l).items() if not k.endswith("_us")}
                    for l in text.splitlines()]

        assert len(out.read_text().splitlines()) == 40
        assert untimed(out.read_text()) == untimed(stdout)
        # the stderr summary and config echo stay on stderr
        echo = [l for l in stderr.splitlines() if l.startswith("# ")]
        assert echo and [l for l in stderr_out.splitlines() if l.startswith("# ")] == echo
        assert json.loads(stderr_out.splitlines()[-1])["streamed"] == 40

    def test_unwritable_out_exits_2_before_any_solve(self, tmp_path, data_file, capsys,
                                                     monkeypatch):
        import casehash.cli as cli

        def no_work(*args, **kw):
            raise AssertionError("work started before --out was opened")

        monkeypatch.setattr(cli, "CbrEngine", no_work)
        monkeypatch.setattr(cli.HashIndex, "build", no_work)
        code, stdout, err = run(capsys, "stream", "--data", data_file, "--hash", "lsh",
                                "--bits", "8", "--out", str(tmp_path))
        assert code == 2
        assert str(tmp_path) in err and "Traceback" not in err
        assert stdout == ""


class TestBenchCommand:
    def test_reports_ratio(self, data_file, capsys):
        code, stdout, _ = run(
            capsys, "bench", "--data", data_file, "--hash", "lsh", "--bits", "8",
            "--queries", "10", "--top-n", "3")
        assert code == 0
        res = json.loads(stdout)
        assert res["n_queries"] == 10
        assert "ratio_mean" in res

    def test_out_file_holds_stdout(self, tmp_path, data_file, capsys):
        out = tmp_path / "bench.json"
        code, stdout, _ = run(capsys, "bench", "--data", data_file, "--hash", "lsh",
                              "--bits", "8", "--queries", "10", "--out", str(out))
        assert code == 0
        assert out.read_text() == stdout
        assert json.loads(stdout)["n_queries"] == 10


class TestIndexAndQuery:
    def test_round_trip(self, tmp_path, data_file, capsys):
        idx_path = str(tmp_path / "c.idx")
        code, stdout, _ = run(
            capsys, "index", "--data", data_file, "--hash", "lsh", "--bits", "8",
            "--out", idx_path)
        assert code == 0
        summary = json.loads(stdout)
        assert summary["n_cases"] == 80
        assert 1 <= summary["largest_bucket"] <= 80
        assert summary["n_buckets"] >= 80 / summary["largest_bucket"]
        assert len(summary["bit_balance"]) == summary["bits"] == 8
        assert all(0.0 <= b <= 1.0 for b in summary["bit_balance"])

        queries = two_class_fixture(n=5, seed=7, id_start=500)
        qp = tmp_path / "q.txt"
        write_sparse_text(queries, qp)
        code, stdout, _ = run(
            capsys, "query", "--index", idx_path, "--data", str(qp),
            "--hash", "lsh", "--bits", "8", "--top-n", "4")
        assert code == 0
        lines = [json.loads(l) for l in stdout.strip().splitlines()]
        assert len(lines) == 5
        assert all(len(l["neighbors"]) <= 4 for l in lines)

    def test_query_reads_at_the_index_width(self, tmp_path, capsys):
        # only the first two cases use the last feature, 9; the query file
        # holds the other six, whose largest feature index is 8
        cases = [make_case(10, [(k, 1.0), (9, 1.0)] if k < 2 else [(k, 1.0), (k + 1, 0.5)],
                           label=k % 2, case_id=k) for k in range(8)]
        data, qp, idx_path = tmp_path / "cases.txt", tmp_path / "q.txt", tmp_path / "c.idx"
        write_sparse_text(cases, data)
        write_sparse_text(cases[2:], qp)
        code, _, _ = run(capsys, "index", "--data", str(data), "--hash", "lsh", "--bits", "8",
                         "--out", str(idx_path))
        assert code == 0
        code, stdout, err = run(capsys, "query", "--index", str(idx_path), "--data", str(qp),
                                "--hash", "lsh", "--bits", "8", "--top-n", "1")
        assert code == 0, err
        lines = [json.loads(l) for l in stdout.splitlines()]
        assert [(l["neighbors"], l["distances"]) for l in lines] == \
            [([k], [0.0]) for k in range(2, 8)]

    def test_query_out_file(self, tmp_path, data_file, capsys, monkeypatch):
        idx_path = str(tmp_path / "c.idx")
        code, _, _ = run(capsys, "index", "--data", data_file, "--hash", "lsh", "--bits", "8",
                         "--out", idx_path)
        assert code == 0
        argv = ["query", "--index", idx_path, "--data", data_file, "--hash", "lsh",
                "--bits", "8", "--top-n", "4"]
        code, stdout, _ = run(capsys, *argv)
        assert code == 0 and len(stdout.splitlines()) == 80
        out = tmp_path / "q.jsonl"
        code, stdout_out, _ = run(capsys, *argv, "--out", str(out))
        assert code == 0
        assert stdout_out == ""
        assert out.read_text() == stdout

        def no_query(*args, **kw):
            raise AssertionError("a query ran before --out was opened")

        monkeypatch.setattr(HashIndex, "retrieve", no_query)
        code, stdout, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 2
        assert str(tmp_path) in err and "Traceback" not in err
        assert stdout == ""

    def test_truncated_index_exits_3(self, tmp_path, data_file, capsys):
        idx_path = tmp_path / "c.idx"
        code, _, _ = run(
            capsys, "index", "--data", data_file, "--hash", "lsh", "--bits", "8",
            "--out", str(idx_path))
        assert code == 0
        data = idx_path.read_bytes()
        idx_path.write_bytes(data[:len(data) // 2])
        code, stdout, err = run(
            capsys, "query", "--index", str(idx_path), "--data", data_file,
            "--hash", "lsh", "--bits", "8")
        assert code == 3
        assert "truncated index file" in err
        assert stdout == ""

    def test_high_code_bits_exit_3(self, tmp_path, data_file, capsys):
        idx_path = tmp_path / "c.idx"
        code, _, _ = run(
            capsys, "index", "--data", data_file, "--hash", "lsh", "--bits", "8",
            "--out", str(idx_path))
        assert code == 0
        data = bytearray(idx_path.read_bytes())
        word0 = 4 + 8 * 4 + 8 * 80  # magic, header, 80 ids
        data[word0 + 1] |= 0x02  # bit 9 of an 8-bit code
        idx_path.write_bytes(bytes(data))
        code, stdout, err = run(
            capsys, "query", "--index", str(idx_path), "--data", data_file,
            "--hash", "lsh", "--bits", "8")
        assert code == 3
        assert "high bits" in err
        assert stdout == ""

    def test_unsorted_feature_row_exits_3(self, tmp_path, data_file, capsys):
        idx_path = tmp_path / "c.idx"
        code, _, _ = run(
            capsys, "index", "--data", data_file, "--hash", "lsh", "--bits", "8",
            "--out", str(idx_path))
        assert code == 0
        data = bytearray(idx_path.read_bytes())
        counts = 4 + 8 * 4 + 8 * 3 * 80  # magic, header, 80 ids, codes and labels
        nnz = np.frombuffer(bytes(data), dtype="<i8", count=80, offset=counts)
        k = int(np.flatnonzero(nnz >= 2)[0])
        # the case's second feature index repeats its first
        first = counts + 8 * 80 + 8 * int(nnz[:k].sum())
        data[first + 8:first + 16] = data[first:first + 8]
        idx_path.write_bytes(bytes(data))
        code, stdout, err = run(
            capsys, "query", "--index", str(idx_path), "--data", data_file,
            "--hash", "lsh", "--bits", "8")
        assert code == 3
        assert "ascending" in err
        assert stdout == ""

    def test_version_1_index_exits_3(self, tmp_path, data_file, capsys):
        idx_path = tmp_path / "c.idx"
        code, _, _ = run(
            capsys, "index", "--data", data_file, "--hash", "lsh", "--bits", "8",
            "--out", str(idx_path))
        assert code == 0
        data = bytearray(idx_path.read_bytes())
        data[4:12] = np.array([1], dtype="<i8").tobytes()  # the version word
        idx_path.write_bytes(bytes(data))
        code, stdout, err = run(
            capsys, "query", "--index", str(idx_path), "--data", data_file,
            "--hash", "lsh", "--bits", "8")
        assert code == 3
        assert "rebuild it with `casehash index`" in err
        assert stdout == ""

    @pytest.mark.parametrize("bits", ["16", "80"])
    def test_coder_width_mismatch_exits_2(self, tmp_path, data_file, capsys, bits):
        idx_path = tmp_path / "c.idx"
        code, _, _ = run(
            capsys, "index", "--data", data_file, "--hash", "lsh", "--bits", "24",
            "--out", str(idx_path))
        assert code == 0
        code, stdout, err = run(
            capsys, "query", "--index", str(idx_path), "--data", data_file,
            "--hash", "lsh", "--bits", bits)
        assert code == 2
        assert f"coder width {bits} does not match index width 24" in err
        assert stdout == ""

    def test_index_requires_coder(self, data_file, capsys):
        code, _, err = run(capsys, "index", "--data", data_file)
        assert code == 2
        assert "model" in err


class TestCsvInput:
    def test_csv_with_schema(self, tmp_path, capsys):
        csv = tmp_path / "d.csv"
        rows = ["num,cat,y"]
        for i in range(30):
            rows.append(f"{i},{'ab'[i % 2]},{i % 2}")
        csv.write_text("\n".join(rows) + "\n")
        schema = tmp_path / "d.schema"
        schema.write_text("num=numeric\ncat=categorical\ny=label\n")
        code, stdout, _ = run(
            capsys, "eval", "--data", str(csv), "--schema", str(schema),
            "--hash", "lsh", "--bits", "4", "--top-n", "3")
        assert code == 0
        assert "mean" in json.loads(stdout)


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path, data_file, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key=1\n")
        code, _, err = run(capsys, "train", "--data", data_file,
                           "--config", str(cfg))
        assert code == 2
        assert "bogus_key" in err

    def test_bad_config_value(self, tmp_path, data_file, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("r=banana\n")
        code, _, _ = run(capsys, "train", "--data", data_file,
                         "--config", str(cfg))
        assert code == 2

    def test_missing_data_file(self, capsys):
        code, _, _ = run(capsys, "train", "--data", "/nonexistent/x.txt")
        assert code == 3

    def test_malformed_data(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("0 not-a-pair\n")
        code, _, _ = run(capsys, "train", "--data", str(p))
        assert code == 3

    def test_data_is_a_directory(self, tmp_path, capsys):
        code, _, err = run(capsys, "index", "--data", str(tmp_path), "--hash", "lsh")
        assert code == 3
        assert "cannot read data file" in err and "Traceback" not in err

    def test_data_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "latin1.txt"
        p.write_bytes("0 1:1.0 # caf\xe9\n".encode("latin-1"))
        code, _, err = run(capsys, "index", "--data", str(p), "--hash", "lsh")
        assert code == 3
        assert "cannot read data file" in err and "Traceback" not in err

    @pytest.mark.parametrize("text, schema", [
        ("", None),
        ("# a comment\n\n", None),
        ("num,cat,y\n", "num=numeric\ncat=categorical\ny=label\n"),
    ], ids=["empty", "comments-only", "csv-header-only"])
    def test_data_without_cases(self, tmp_path, capsys, text, schema):
        p = tmp_path / "none.txt"
        p.write_text(text)
        argv = ["index", "--data", str(p), "--hash", "lsh"]
        if schema is not None:
            (tmp_path / "none.schema").write_text(schema)
            argv += ["--schema", str(tmp_path / "none.schema")]
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "no cases" in err and "Traceback" not in err

    @pytest.mark.parametrize("out", [".", "missing/c.idx"], ids=["directory", "missing-dir"])
    def test_unwritable_out(self, tmp_path, data_file, capsys, out):
        code, stdout, err = run(capsys, "index", "--data", data_file, "--hash", "lsh",
                                "--bits", "8", "--out", str(tmp_path / out))
        assert code == 2
        assert str(tmp_path / out) in err and "Traceback" not in err
        assert stdout == ""

    @pytest.mark.parametrize("argv", [
        ["eval", "--hash", "lsh", "--bits", "8"],
        ["eval", "--folds", "2"],
        ["bench", "--hash", "lsh", "--bits", "8", "--queries", "10"],
    ], ids=["eval", "eval-k-folds", "bench"])
    def test_report_out_is_a_directory(self, tmp_path, data_file, capsys, monkeypatch,
                                       argv):
        import casehash.cli as cli

        def no_work(*args, **kw):
            raise AssertionError("work started before --out was opened")

        monkeypatch.setattr(cli, "train", no_work)
        monkeypatch.setattr(cli.HashIndex, "build", no_work)
        code, stdout, err = run(capsys, *argv, "--data", data_file, "--out", str(tmp_path))
        assert code == 2
        assert str(tmp_path) in err and "Traceback" not in err
        assert stdout == ""

    @pytest.mark.parametrize("argv, message", [
        (["--folds", "10"], "--folds 10 exceeds the 5 cases"),
        (["--hash", "lsh", "--train-frac", "0.95"], "leaves no held-out case"),
        (["--hash", "lsh", "--train-frac", "0.05"], "leaves no stored case"),
    ], ids=["folds-past-cases", "no-held-out-case", "no-stored-case"])
    def test_eval_split_with_an_empty_side(self, tmp_path, capsys, monkeypatch, argv,
                                           message):
        import casehash.cli as cli

        def no_work(*args, **kw):
            raise AssertionError("work started before the split was checked")

        monkeypatch.setattr(cli, "train", no_work)
        monkeypatch.setattr(cli.HashIndex, "build", no_work)
        p = tmp_path / "five.txt"
        write_sparse_text(two_class_fixture(n=5, seed=1), p)
        code, stdout, err = run(capsys, "eval", "--data", str(p), *argv)
        assert code == 2
        assert message in err and "Traceback" not in err
        assert stdout == ""

    @pytest.mark.parametrize("text", [
        "0 0:1\nnan 1:1\n", "0 0:1\ninf 1:1\n", "0 0:1\n1e400 1:1\n",
        "0 0:1\n1 1:1 3:nan\n", "0 0:1\n1 1:1 3:inf\n", "0 0:1\n1 1:1 3:1e400\n",
    ], ids=["label-nan", "label-inf", "label-1e400", "value-nan", "value-inf",
            "value-1e400"])
    @pytest.mark.parametrize("command", [["train"], ["index", "--hash", "lsh"]])
    def test_non_finite_sparse_text_exits_3(self, tmp_path, config_file, capsys, text,
                                            command):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        code, stdout, err = run(capsys, *command, "--data", str(p), "--config", config_file,
                                "--out", str(tmp_path / "out"))
        assert code == 3
        assert f"error: {p}:2: non-" in err and "Traceback" not in err
        assert stdout == ""

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("command", [["train"], ["index", "--hash", "lsh"]])
    def test_non_finite_csv_number_exits_3(self, tmp_path, config_file, capsys, cell,
                                           command):
        p, schema = tmp_path / "d.csv", tmp_path / "d.schema"
        p.write_text(f"a,y\n1,0\n{cell},1\n")
        schema.write_text("a=numeric\ny=label\n")
        code, _, err = run(capsys, *command, "--data", str(p), "--schema", str(schema),
                           "--config", config_file, "--out", str(tmp_path / "out"))
        assert code == 3
        assert f"error: {p}: row 3: non-finite value '{cell}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_csv_label_is_a_category(self, tmp_path, config_file, capsys, cell):
        p, schema = tmp_path / "d.csv", tmp_path / "d.schema"
        p.write_text("a,y\n" + "".join(f"{k},{(0, cell)[k % 2]}\n" for k in range(1, 9)))
        schema.write_text("a=numeric\ny=label\n")
        code, stdout, err = run(capsys, "train", "--data", str(p), "--schema", str(schema),
                                "--config", config_file, "--out", str(tmp_path / "m.chn"))
        assert code == 0, err
        assert json.loads(stdout)["n_cases"] == 8

    @pytest.mark.parametrize("row", ["1", "1,0,7"], ids=["fewer", "more"])
    def test_ragged_csv_row_exits_3(self, tmp_path, capsys, row):
        p, schema = tmp_path / "d.csv", tmp_path / "d.schema"
        p.write_text(f"a,y\n1,0\n{row}\n2,1\n")
        schema.write_text("a=numeric\ny=label\n")
        code, _, err = run(capsys, "index", "--hash", "lsh", "--data", str(p),
                           "--schema", str(schema), "--out", str(tmp_path / "c.idx"))
        assert code == 3
        assert f"error: {p}: row 3: " in err and "fields" in err
        assert "Traceback" not in err

    def test_query_on_an_index_holding_nan_exits_3(self, tmp_path, data_file, capsys):
        idx_path = tmp_path / "c.idx"
        code, _, _ = run(capsys, "index", "--data", data_file, "--hash", "lsh", "--bits", "8",
                         "--out", str(idx_path))
        assert code == 0
        data = bytearray(idx_path.read_bytes())
        data[-8:] = np.array([np.nan], dtype="<f8").tobytes()  # the last value
        idx_path.write_bytes(bytes(data))
        code, stdout, err = run(capsys, "query", "--index", str(idx_path), "--data", data_file,
                                "--hash", "lsh", "--bits", "8")
        assert code == 3
        assert "error: corrupt index file: case 79: value nan is not finite" in err
        assert stdout == ""

    def test_train_on_one_case_exits_3(self, tmp_path, config_file, capsys):
        p = tmp_path / "one.txt"
        p.write_text("0 0:1 2:1\n")
        code, stdout, err = run(capsys, "train", "--data", str(p), "--config", config_file,
                                "--out", str(tmp_path / "m.chn"))
        assert code == 3
        assert "error:" in err and "training needs 2" in err and "Traceback" not in err
        assert stdout == "" and not (tmp_path / "m.chn").exists()

    @pytest.mark.parametrize("n, argv", [
        (2, ["eval", "--folds", "2"]),
        (3, ["eval", "--folds", "2"]),
        (5, ["bench", "--queries", "4"]),
    ], ids=["eval-two-cases", "eval-three-cases", "bench"])
    def test_one_training_case_exits_2(self, tmp_path, config_file, capsys, monkeypatch,
                                       n, argv):
        import casehash.cli as cli

        def no_work(*args, **kw):
            raise AssertionError("work started before the split was checked")

        monkeypatch.setattr(cli, "train", no_work)
        monkeypatch.setattr(cli.HashIndex, "build", no_work)
        p = tmp_path / "few.txt"
        write_sparse_text(two_class_fixture(n=n, seed=1), p)
        code, stdout, err = run(capsys, *argv, "--data", str(p), "--config", config_file)
        assert code == 2
        assert "error:" in err and "training needs 2" in err and "Traceback" not in err
        assert stdout == ""

    @pytest.mark.parametrize("argv", [
        ["bench", "--queries", "4", "--hash", "lsh"],
        ["eval", "--hash", "lsh", "--train-frac", "0.3"],
    ], ids=["bench-lsh", "eval-lsh"])
    def test_lsh_needs_no_second_case(self, tmp_path, capsys, argv):
        p = tmp_path / "few.txt"
        write_sparse_text(two_class_fixture(n=5, seed=1), p)
        code, _, err = run(capsys, *argv, "--data", str(p), "--bits", "8")
        assert code == 0, err

    def test_missing_data_flag(self, capsys):
        code, _, err = run(capsys, "train")
        assert code == 2
        assert "--data" in err

    def test_missing_config_file(self, data_file, capsys):
        code, _, _ = run(capsys, "train", "--data", data_file,
                         "--config", "/nonexistent/c.cfg")
        assert code == 2

    @pytest.mark.parametrize("argv, extra_config", [
        (["eval", "--folds", "1"], ""),
        (["eval", "--train-frac", "1.5", "--hash", "lsh"], ""),
        (["bench", "--queries", "0", "--hash", "lsh"], ""),
        (["bench", "--queries", "-5", "--hash", "lsh"], ""),
        (["train"], "batch_size = 1\n"),
        (["train"], "batch_size = 0\n"),
        (["stream", "--hash", "lsh", "--radius", "-1"], ""),
    ], ids=["folds-1", "train-frac-1.5", "queries-0", "queries-negative", "batch-size-1",
            "batch-size-0", "radius-negative"])
    def test_bad_number_exits_2(self, tmp_path, data_file, capsys, argv, extra_config):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_CONFIG + extra_config)
        try:
            code = main([*argv, "--data", data_file, "--config", str(cfg)])
        except SystemExit as exc:  # argparse rejects a flag before main runs
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("value", ["inf", "-inf", "1e400", "nan"])
    @pytest.mark.parametrize("key", ["lr", "update_lr", "min_delta", "neg_ratio"])
    def test_non_finite_config_float_exits_2(self, tmp_path, data_file, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_CONFIG + f"{key} = {value}\n")
        code, _, err = run(capsys, "train", "--data", data_file, "--config", str(cfg),
                           "--out", str(tmp_path / "m.chn"))
        assert code == 2
        assert f"error: {key} must be finite" in err
        assert "Traceback" not in err


class TestModelErrors:
    @pytest.fixture
    def model(self, tmp_path, data_file, config_file, capsys):
        out = tmp_path / "m.chn"
        code, _, _ = run(capsys, "train", "--data", data_file, "--config", config_file,
                         "--out", str(out))
        assert code == 0
        return out

    @pytest.fixture
    def index_file(self, tmp_path, data_file, capsys):
        out = tmp_path / "c.idx"
        code, _, _ = run(capsys, "index", "--data", data_file, "--hash", "lsh",
                         "--bits", "8", "--out", str(out))
        assert code == 0
        return out

    @staticmethod
    def query(capsys, index_file, data, config_file, model, *extra):
        return run(capsys, "query", "--index", str(index_file), "--data", str(data),
                   "--config", config_file, "--model", str(model), *extra)

    @pytest.mark.parametrize("keep", [100, 20])
    def test_truncated_checkpoint_exits_3(self, index_file, data_file, config_file,
                                          model, capsys, keep):
        model.write_bytes(model.read_bytes()[:keep])
        code, stdout, err = self.query(capsys, index_file, data_file, config_file, model)
        assert code == 3
        assert "truncated checkpoint" in err
        assert stdout == ""

    def test_index_as_model_exits_3(self, index_file, data_file, config_file, capsys):
        code, stdout, err = self.query(capsys, index_file, data_file, config_file,
                                       index_file)
        assert code == 3
        assert "not a checkpoint file" in err
        assert stdout == ""

    def test_query_width_mismatch_exits_3(self, tmp_path, index_file, config_file,
                                          model, capsys):
        # the noise features run to index 49, past the index's width of 40
        queries = two_class_fixture(n=5, n_noise=30, seed=7, id_start=500)
        qp = tmp_path / "q.txt"
        write_sparse_text(queries, qp)
        code, stdout, err = self.query(capsys, index_file, qp, config_file, model)
        assert code == 3
        assert "explicit dim 40 < required 50" in err
        assert stdout == ""

    def test_structure_disagrees_with_bits_exits_2(self, index_file, data_file,
                                                   config_file, model, capsys):
        code, stdout, err = self.query(capsys, index_file, data_file, config_file, model,
                                       "--bits", "12")
        assert code == 2
        assert "disagrees with config" in err
        assert stdout == ""


class TestOutFile:
    """eval, bench, stream and query write --out through a temporary file
    that replaces it only when the command succeeds."""

    OLD = "the report of an earlier run\n"

    @pytest.fixture
    def argv(self, request, tmp_path, data_file, config_file, capsys):
        """The command's arguments; its coder is the checkpoint at
        tmp_path / "m.chn", or LSH planes for query."""
        if request.param == "query":
            idx_path = str(tmp_path / "c.idx")
            code, _, _ = run(capsys, "index", "--data", data_file, "--hash", "lsh",
                             "--bits", "8", "--out", idx_path)
            assert code == 0
            return ["query", "--index", idx_path, "--data", data_file, "--hash", "lsh",
                    "--bits", "8"]
        code, _, _ = run(capsys, "train", "--data", data_file, "--config", config_file,
                         "--out", str(tmp_path / "m.chn"))
        assert code == 0
        extra = ["--queries", "10"] if request.param == "bench" else []
        return [request.param, "--data", data_file, "--config", config_file,
                "--model", str(tmp_path / "m.chn"), *extra]

    COMMANDS = pytest.mark.parametrize("argv", ["eval", "bench", "stream", "query"],
                                       indirect=True)

    @COMMANDS
    def test_failed_run_keeps_the_old_file(self, tmp_path, argv, capsys, monkeypatch):
        prev = tmp_path / "prev.out"
        prev.write_text(self.OLD)
        before = sorted(p.name for p in tmp_path.iterdir())
        if argv[0] == "query":
            real = HashIndex.retrieve
            calls = []

            def fails_on_the_third(*args, **kw):
                calls.append(1)
                if len(calls) == 3:
                    raise DataFormatError("a query failed")
                return real(*args, **kw)

            monkeypatch.setattr(HashIndex, "retrieve", fails_on_the_third)
        else:  # a 100-byte prefix of the checkpoint
            model = tmp_path / "m.chn"
            model.write_bytes(model.read_bytes()[:100])
        code, _, err = run(capsys, *argv, "--out", str(prev))
        assert code == 3, err
        assert prev.read_text() == self.OLD
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @COMMANDS
    def test_success_replaces_the_old_file(self, tmp_path, argv, capsys):
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        prev = tmp_path / "prev.out"
        prev.write_text(self.OLD)
        before = sorted(p.name for p in tmp_path.iterdir())
        code, stdout_out, _ = run(capsys, *argv, "--out", str(prev))
        assert code == 0
        if argv[0] in ("eval", "bench"):
            assert prev.read_text() == stdout_out
        else:
            assert stdout_out == ""
            assert len(prev.read_text().splitlines()) == len(stdout.splitlines())
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @COMMANDS
    def test_out_in_a_missing_directory_exits_2_before_any_work(self, tmp_path, argv,
                                                                capsys, monkeypatch):
        import casehash.cli as cli

        def no_work(*args, **kw):
            raise AssertionError("work started before --out was opened")

        for owner, name in ((cli, "train"), (cli, "load_checkpoint"), (cli, "CbrEngine"),
                            (cli.HashIndex, "build"), (cli.HashIndex, "retrieve")):
            monkeypatch.setattr(owner, name, no_work)
        before = sorted(p.name for p in tmp_path.iterdir())
        out = tmp_path / "missing" / "r.out"
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert str(out) in err and "Traceback" not in err
        assert stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == before


class TestTrainDivergence:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_saves_last_finite_parameters_and_exits_4(self, tmp_path, data_file,
                                                       capsys):
        cfg = tmp_path / "wild.cfg"
        cfg.write_text(FAST_CONFIG + "epochs = 5\nlr = 1e300\noptimizer = sgd\n")
        out = tmp_path / "m.chn"
        code, stdout, _ = run(capsys, "train", "--data", data_file,
                              "--config", str(cfg), "--out", str(out))
        assert code == 4
        assert json.loads(stdout)["diverged"] is True
        params = load_checkpoint(out)
        assert all(np.all(np.isfinite(a)) for _, a in params.arrays())
