import json

import numpy as np
import pytest

from casehash import load_checkpoint, two_class_fixture, write_sparse_text
from casehash.cli import main

from conftest import make_case

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
        assert (tmp_path / "m.chn.log.csv").read_text().startswith("epoch,")
        assert len((tmp_path / "m.chn.log.jsonl").read_text().splitlines()) == 2

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
        got = [(l["predicted"] is None, l["radius_used"], l["n_candidates"], l["truncated"])
               for l in lines]
        assert got == [(False, 0, 4, False)] * 2 + [(True, 2, 0, False)] * 2
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
        assert summary["truncated_retrievals"] == sum(l["truncated"] for l in lines)
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
        assert summary["truncated_retrievals"] == 0
        assert summary["retain_us_p50"] is None and summary["update_us_p99"] is None
        assert summary["hash_us_p50"] is not None
        assert all(not json.loads(l)["retained"] for l in stdout.strip().splitlines())


class TestBenchCommand:
    def test_reports_ratio(self, data_file, capsys):
        code, stdout, _ = run(
            capsys, "bench", "--data", data_file, "--hash", "lsh", "--bits", "8",
            "--queries", "10", "--top-n", "3")
        assert code == 0
        res = json.loads(stdout)
        assert res["n_queries"] == 10
        assert "ratio_mean" in res


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

    def test_missing_data_flag(self, capsys):
        code, _, err = run(capsys, "train")
        assert code == 2
        assert "--data" in err

    def test_missing_config_file(self, data_file, capsys):
        code, _, _ = run(capsys, "train", "--data", data_file,
                         "--config", "/nonexistent/c.cfg")
        assert code == 2


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
        queries = two_class_fixture(n=5, n_noise=5, seed=7, id_start=500)
        qp = tmp_path / "q.txt"
        write_sparse_text(queries, qp)
        code, stdout, err = self.query(capsys, index_file, qp, config_file, model)
        assert code == 3
        assert "case dim 25 != network dim 40" in err
        assert stdout == ""

    def test_structure_disagrees_with_bits_exits_2(self, index_file, data_file,
                                                   config_file, model, capsys):
        code, stdout, err = self.query(capsys, index_file, data_file, config_file, model,
                                       "--bits", "12")
        assert code == 2
        assert "disagrees with config" in err
        assert stdout == ""


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
