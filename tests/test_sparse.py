import numpy as np
import pytest

from casehash import (
    DataFormatError,
    SparseCase,
    SparseVector,
    fit_ranges,
    kfold,
    load_csv,
    load_sparse_text,
    normalize,
    split,
    write_sparse_text,
)
from casehash.sparse import cases_to_csr, parse_schema_spec

from conftest import make_case, relabel, similarity_label


class TestSparseVector:
    def test_from_pairs_drops_zeros_and_sorts(self):
        v = SparseVector.from_pairs(10, [(7, 2.0), (1, 0.0), (3, -1.5)])
        assert v.indices == (3, 7)
        assert v.values == (-1.5, 2.0)
        assert v.nnz == 2

    def test_to_dense(self):
        v = SparseVector.from_pairs(4, [(0, 1.0), (3, 2.0)])
        assert np.array_equal(v.to_dense(), [1.0, 0.0, 0.0, 2.0])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SparseVector(dim=5, indices=(3, 1), values=(1.0, 2.0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseVector(dim=3, indices=(3,), values=(1.0,))

    def test_rejects_stored_zero(self):
        with pytest.raises(ValueError):
            SparseVector(dim=3, indices=(1,), values=(0.0,))

    def test_empty_vector_ok(self):
        v = SparseVector(dim=5, indices=(), values=())
        assert v.nnz == 0
        assert np.array_equal(v.to_dense(), np.zeros(5))


class TestSparseText:
    def test_round_trip(self, tmp_path):
        cases = [
            make_case(6, [(0, 1.0), (4, 0.25)], label=1, case_id=0),
            make_case(6, [(2, -3.5)], label=0, case_id=1),
            make_case(6, [], label=1, case_id=2),
        ]
        p = tmp_path / "d.txt"
        write_sparse_text(cases, p)
        back = load_sparse_text(p, dim=6)
        assert back == cases

    def test_labels_remapped_dense(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("5 0:1\n9 1:1\n5 2:1\n")
        cases = load_sparse_text(p)
        assert [c.label for c in cases] == [0, 1, 0]

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("# header\n\n0 1:2.5\n")
        cases = load_sparse_text(p)
        assert cases[0].features.values == (2.5,)

    def test_bad_line_reports_number(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("0 0:1\n1 oops\n")
        with pytest.raises(DataFormatError, match=r":2: malformed"):
            load_sparse_text(p)

    def test_dim_override_and_violation(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("0 5:1\n")
        assert load_sparse_text(p, dim=10)[0].features.dim == 10
        with pytest.raises(DataFormatError):
            load_sparse_text(p, dim=3)


CSV = """age,color,income,y
10,red,100,0
20,blue,200,1
30,red,50,0
"""


class TestCsv:
    def test_schema_layout(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(CSV)
        spec = parse_schema_spec("age=numeric\ncolor=categorical\nincome=numeric\ny=label")
        cases, schema = load_csv(p, spec)
        # layout: age at 0, color one-hot (blue,red sorted) at 1..2, income at 3
        assert schema.dim == 4
        assert [c.label for c in cases] == [0, 1, 0]
        assert cases[0].features.indices == (0, 2, 3)  # red -> slot 2
        assert cases[1].features.indices == (0, 1, 3)  # blue -> slot 1

    def test_unseen_category_zero_group(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(CSV)
        spec = parse_schema_spec("age=numeric\ncolor=categorical\nincome=numeric\ny=label")
        _, schema = load_csv(p, spec)
        p2 = tmp_path / "q.csv"
        p2.write_text("age,color,income,y\n15,green,80,1\n")
        cases, _ = load_csv(p2, spec, schema=schema)
        # green unseen: no one-hot slot set
        assert cases[0].features.indices == (0, 3)

    def test_exactly_one_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(CSV)
        with pytest.raises(DataFormatError):
            load_csv(p, {"age": "numeric"})

    def test_non_numeric_value_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y\nfoo,0\n")
        with pytest.raises(DataFormatError):
            load_csv(p, {"a": "numeric", "y": "label"})

    def test_string_labels_map_densely(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y\n1,>50K\n2,<=50K\n3,>50K\n")
        cases, schema = load_csv(p, {"a": "numeric", "y": "label"})
        assert schema.label_values == ("<=50K", ">50K")
        assert [c.label for c in cases] == [1, 0, 1]

    def test_string_labels_survive_schema_json(self, tmp_path):
        from casehash.sparse import DatasetSchema

        p = tmp_path / "d.csv"
        p.write_text("a,y\n1,no\n2,yes\n")
        _, schema = load_csv(p, {"a": "numeric", "y": "label"})
        again = DatasetSchema.from_json(schema.to_json())
        assert again.label_values == ("no", "yes")
        cases, _ = load_csv(p, {"a": "numeric", "y": "label"}, schema=again)
        assert [c.label for c in cases] == [0, 1]

    def test_mixed_labels_all_become_strings(self, tmp_path):
        # one non-numeric cell flips the whole column to string categories
        p = tmp_path / "d.csv"
        p.write_text("a,y\n1,2\n2,maybe\n3,10\n")
        _, schema = load_csv(p, {"a": "numeric", "y": "label"})
        assert schema.label_values == ("10", "2", "maybe")

    def test_unknown_string_label_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y\n1,no\n2,yes\n")
        _, schema = load_csv(p, {"a": "numeric", "y": "label"})
        p2 = tmp_path / "q.csv"
        p2.write_text("a,y\n5,unsure\n")
        with pytest.raises(DataFormatError, match="unknown label"):
            load_csv(p2, {"a": "numeric", "y": "label"}, schema=schema)


class TestNormalize:
    def _fitted(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(CSV)
        spec = parse_schema_spec("age=numeric\ncolor=categorical\nincome=numeric\ny=label")
        cases, schema = load_csv(p, spec)
        return cases, fit_ranges(schema, cases)

    def test_min_max_to_unit_interval(self, tmp_path):
        cases, schema = self._fitted(tmp_path)
        normed = normalize(cases, schema)
        ages = [c.features.to_dense()[0] for c in normed]
        assert ages == pytest.approx([0.0, 0.5, 1.0])

    def test_one_hot_untouched(self, tmp_path):
        cases, schema = self._fitted(tmp_path)
        normed = normalize(cases, schema)
        assert normed[0].features.to_dense()[2] == 1.0

    def test_out_of_range_clamped(self, tmp_path):
        cases, schema = self._fitted(tmp_path)
        q = make_case(schema.dim, [(0, 99.0), (3, -5.0)], label=0, case_id=77)
        out = normalize([q], schema)[0].features.to_dense()
        assert out[0] == 1.0
        assert out[3] == 0.0

    def test_idempotent_after_refit(self, tmp_path):
        cases, schema = self._fitted(tmp_path)
        once = normalize(cases, schema)
        fit_ranges(schema, once)
        twice = normalize(once, schema)
        assert twice == once

    def test_requires_fit(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(CSV)
        spec = parse_schema_spec("age=numeric\ncolor=categorical\nincome=numeric\ny=label")
        cases, schema = load_csv(p, spec)
        with pytest.raises(ValueError, match="fit_ranges"):
            normalize(cases, schema)

    def test_constant_column_maps_to_zero(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y\n4,0\n4,1\n")
        cases, schema = load_csv(p, {"a": "numeric", "y": "label"})
        fit_ranges(schema, cases)
        out = normalize(cases, schema)
        assert all(c.features.nnz == 0 for c in out)


class TestSplits:
    def test_split_disjoint_and_deterministic(self, rng):
        cases = [make_case(3, [(0, 1.0)], case_id=i) for i in range(10)]
        a1, b1 = split(cases, 0.3, seed=5)
        a2, b2 = split(cases, 0.3, seed=5)
        assert a1 == a2 and b1 == b2
        assert len(a1) == 3 and len(b1) == 7
        assert {c.id for c in a1} | {c.id for c in b1} == set(range(10))
        assert {c.id for c in a1} & {c.id for c in b1} == set()

    def test_kfold_partitions(self):
        cases = [make_case(3, [(0, 1.0)], case_id=i) for i in range(11)]
        seen = []
        for train, test in kfold(cases, 3, seed=0):
            assert {c.id for c in train} & {c.id for c in test} == set()
            assert len(train) + len(test) == 11
            seen.extend(c.id for c in test)
        assert sorted(seen) == list(range(11))

    def test_similarity_label(self):
        a = make_case(2, [(0, 1.0)], label=3)
        b = make_case(2, [(1, 1.0)], label=3, case_id=1)
        c = make_case(2, [(1, 1.0)], label=4, case_id=2)
        assert similarity_label(a, b) == 1
        assert similarity_label(a, c) == 0
        assert similarity_label(c, a) == 0

    def test_relabel(self):
        cases = [make_case(2, [(0, 1.0)], case_id=9),
                 make_case(2, [(1, 1.0)], case_id=4)]
        out = relabel(cases)
        assert [c.id for c in out] == [0, 1]
        assert out[0].features == cases[0].features


class TestCsr:
    def test_matches_dense(self, rng):
        from conftest import random_cases

        cases = random_cases(rng, 7, dim=9, nnz=4)
        x = cases_to_csr(cases, 9)
        dense = np.stack([c.features.to_dense() for c in cases])
        assert np.array_equal(x.toarray(), dense)

    def test_extra_ones_column(self):
        cases = [make_case(3, [(1, 2.0)])]
        x = cases_to_csr(cases, 3, extra_ones_column=True)
        assert x.shape == (1, 4)
        assert x.toarray()[0, 3] == 1.0

    def test_dim_mismatch(self):
        with pytest.raises(DataFormatError):
            cases_to_csr([make_case(3, [(1, 2.0)])], 5)
