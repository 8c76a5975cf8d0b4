import json

import numpy as np
import pytest

from casehash import (
    HashIndex,
    LshPlanes,
    MetricReport,
    accuracy,
    ap_at_n,
    auc_binary,
    auc_multiclass,
    bench,
    evaluate,
    map_at_n,
    prec_at_n,
)

from conftest import make_case, random_cases


class TestAccuracy:
    def test_basic(self):
        assert accuracy([1, 0, 1, 1], [1, 0, 0, 1]) == 0.75

    def test_none_prediction_counts_as_wrong(self):
        assert accuracy([1, 0], [None, 0]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])


class TestAucBinary:
    def test_hand_worked_with_tie(self):
        # positives (0.9, 0.8), negatives (0.8, 0.1): pairs win,win,tie,win
        # -> (3 + 0.5) / 4 = 0.875
        assert auc_binary([1, 1, 0, 0], [0.9, 0.8, 0.8, 0.1]) == 0.875

    def test_perfect_and_inverted(self):
        assert auc_binary([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0
        assert auc_binary([1, 1, 0, 0], [0.1, 0.2, 0.8, 0.9]) == 0.0

    def test_all_tied_is_half(self):
        assert auc_binary([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_matches_pair_counting_oracle(self, rng):
        y = rng.integers(0, 2, size=40)
        y[0], y[1] = 0, 1  # both classes present
        s = rng.choice([0.1, 0.3, 0.5, 0.7], size=40)  # force ties
        wins = ties = 0
        pos = s[y == 1]
        neg = s[y == 0]
        for sp in pos:
            for sn in neg:
                wins += sp > sn
                ties += sp == sn
        want = (wins + 0.5 * ties) / (len(pos) * len(neg))
        assert auc_binary(y, s) == pytest.approx(want, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc_binary([1, 1], [0.5, 0.6])


class TestAucMulticlass:
    def test_two_classes_reduces_to_binary(self):
        y = [0, 0, 1, 1, 1]
        maps = [{0: 0.8, 1: 0.2}, {0: 0.6, 1: 0.4},
                {0: 0.3, 1: 0.7}, {0: 0.1, 1: 0.9}, {0: 0.45, 1: 0.55}]
        want = auc_binary([0, 0, 1, 1, 1], [m[1] for m in maps])
        assert auc_multiclass(y, maps) == pytest.approx(want, abs=1e-12)

    def test_perfect_three_class(self):
        y = [0, 1, 2]
        maps = [{0: 1.0}, {1: 1.0}, {2: 1.0}]
        assert auc_multiclass(y, maps) == 1.0

    def test_absent_class_pair_skipped(self):
        # label 2 appears in score maps but never in y: pairs (0,2) and
        # (1,2) are skipped, leaving only the (0,1) comparison
        y = [0, 0, 1, 1]
        maps = [{0: 0.9, 2: 0.5}, {0: 0.8}, {1: 0.7}, {1: 0.9, 2: 0.1}]
        want = auc_multiclass(y, maps, labels=[0, 1])
        assert auc_multiclass(y, maps, labels=[0, 1, 2]) == pytest.approx(want)

    def test_missing_scores_default_zero(self):
        y = [0, 1]
        assert auc_multiclass(y, [{0: 0.9}, {1: 0.8}]) == 1.0

    def test_fewer_than_two_labels_rejected(self):
        with pytest.raises(ValueError):
            auc_multiclass([0, 0], [{0: 1.0}, {0: 0.5}])


class TestPrecisionRecall:
    def test_prec_fixed_denominator(self):
        assert prec_at_n({1, 2, 3}, [1, 9, 2], 3) == pytest.approx(2 / 3)
        # fewer retrieved than n still divides by n
        assert prec_at_n({1, 2, 3}, [1], 5) == pytest.approx(1 / 5)

    def test_ap_hand_worked(self):
        # hits at ranks 1 and 3: (1/1 + 2/3) / min(3, 3) = 5/9
        assert ap_at_n({1, 2, 3}, [1, 9, 2], 3) == pytest.approx(5 / 9)

    def test_ap_normalizer_is_min(self):
        # 1 relevant item, hit at rank 1, n=10: AP = 1
        assert ap_at_n({4}, [4, 5, 6], 10) == 1.0

    def test_ap_empty_relevant_zero(self):
        assert ap_at_n(set(), [1, 2], 5) == 0.0

    def test_perfect_ranking_gives_one(self):
        assert ap_at_n({1, 2}, [1, 2, 3], 2) == 1.0

    def test_map_means(self):
        v = map_at_n([{1}, {9}], [[1, 2], [2, 9]], 2)
        # AP_1 = 1, AP_2 = 1/2
        assert v == pytest.approx(0.75)

    def test_map_matches_per_query_oracle(self, rng):
        relevants, retrieveds = [], []
        for _ in range(20):
            rel = set(rng.choice(50, size=8, replace=False).tolist())
            ret = rng.permutation(50)[:10].tolist()
            relevants.append(rel)
            retrieveds.append(ret)
        want = np.mean([ap_at_n(r, h, 10) for r, h in zip(relevants, retrieveds)])
        assert map_at_n(relevants, retrieveds, 10) == pytest.approx(float(want))


class TestMetricReport:
    def _report(self):
        return MetricReport(n_queries=10, top_n=5, accuracy=0.9, auc=0.95,
                            map_at_n=0.8, prec_at_n=0.7, mean_hash_us=10.0,
                            mean_retrieve_us=20.0, mean_reuse_us=5.0)

    def test_json_round_trip(self):
        rep = self._report()
        data = json.loads(rep.to_json())
        assert data["accuracy"] == 0.9
        assert data["n_queries"] == 10


class TestEvaluate:
    def test_stacked_deck(self, rng):
        # index of two well-separated label groups; queries duplicate them
        base = [make_case(4, [(0, 1.0)], label=0, case_id=i) for i in range(5)]
        base += [make_case(4, [(3, 1.0)], label=1, case_id=5 + i) for i in range(5)]
        planes = LshPlanes.sample(8, 4, seed=1)
        idx = HashIndex.build(base, planes)
        queries = [make_case(4, [(0, 1.0)], label=0, case_id=100),
                   make_case(4, [(3, 1.0)], label=1, case_id=101)]
        rep = evaluate(idx, planes, queries, top_n=5)
        assert rep.accuracy == 1.0
        assert rep.map_at_n == 1.0
        assert rep.prec_at_n == 1.0
        assert rep.auc == 1.0
        assert rep.n_queries == 2

    def test_single_label_queries_auc_none(self, rng):
        base = random_cases(rng, 10, dim=4, nnz=2)
        planes = LshPlanes.sample(4, 4, seed=1)
        idx = HashIndex.build(base, planes)
        queries = [make_case(4, [(0, 0.5)], label=0, case_id=200)]
        rep = evaluate(idx, planes, queries, top_n=3)
        assert rep.auc is None

    def test_no_queries_rejected(self, rng):
        base = random_cases(rng, 5, dim=4, nnz=2)
        planes = LshPlanes.sample(4, 4, seed=1)
        idx = HashIndex.build(base, planes)
        with pytest.raises(ValueError):
            evaluate(idx, planes, [], top_n=3)


class TestBench:
    def test_reports_sane_numbers(self, rng):
        cases = random_cases(rng, 300, dim=12, nnz=4)
        planes = LshPlanes.sample(12, 12, seed=5)
        idx = HashIndex.build(cases, planes)
        queries = random_cases(rng, 10, dim=12, nnz=4, id_start=1000)
        res = bench(idx, planes, queries, top_n=5)
        assert res.n_queries == 10
        assert res.n_cases == 300
        assert res.hashed_mean_us > 0
        assert res.linear_mean_us > 0
        assert res.mean_candidates >= 0
        data = json.loads(res.to_json())
        assert "ratio_mean" in data
