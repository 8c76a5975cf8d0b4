import numpy as np
import pytest

from casehash import clustered_fixture, two_class_fixture

from conftest import to_dense


class TestTwoClassFixture:
    def test_deterministic(self):
        a = two_class_fixture(n=50, seed=3)
        b = two_class_fixture(n=50, seed=3)
        assert a == b
        assert a != two_class_fixture(n=50, seed=4)

    def test_shapes_and_labels(self):
        cases = two_class_fixture(n=100, n_groups=5, n_categories=4, n_noise=20)
        assert len(cases) == 100
        assert all(c.features.dim == 40 for c in cases)
        labels = [c.label for c in cases]
        assert set(labels) == {0, 1}
        assert abs(labels.count(0) - 50) <= 0  # balanced by construction

    def test_one_hot_per_group(self):
        cases = two_class_fixture(n=30, n_groups=3, n_categories=4, n_noise=0)
        for c in cases:
            dense = to_dense(c.features)
            for g in range(3):
                group = dense[g * 4:(g + 1) * 4]
                assert group.sum() == 1.0
                assert set(group) <= {0.0, 1.0}

    def test_signal_block_matches_label(self):
        # with flip=0 every group's active block is fully determined
        cases = two_class_fixture(n=40, n_groups=2, n_categories=4,
                                  n_noise=0, flip=0.0)
        for c in cases:
            for g in range(2):
                active = to_dense(c.features)[g * 4:(g + 1) * 4].argmax()
                assert active // 2 == c.label

    def test_block_rotation_swaps_classes(self):
        plain = two_class_fixture(n=40, n_groups=2, n_categories=4,
                                  n_noise=0, flip=0.0, seed=5)
        rotated = two_class_fixture(n=40, n_groups=2, n_categories=4,
                                    n_noise=0, flip=0.0, seed=5, block_rotation=1)
        for a, b in zip(plain, rotated):
            assert a.label == b.label
            blk_a = to_dense(a.features)[:4].argmax() // 2
            blk_b = to_dense(b.features)[:4].argmax() // 2
            assert blk_a != blk_b

    def test_id_start(self):
        cases = two_class_fixture(n=5, id_start=1000)
        assert [c.id for c in cases] == [1000, 1001, 1002, 1003, 1004]

    def test_noise_in_unit_interval(self):
        cases = two_class_fixture(n=20, n_noise=10)
        for c in cases:
            tail = to_dense(c.features)[-10:]
            assert np.all((tail >= 0.0) & (tail <= 1.0))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            two_class_fixture(n=10, n_categories=3)
        with pytest.raises(ValueError):
            two_class_fixture(n=10, flip=0.6)


class TestClusteredFixture:
    def test_deterministic_and_shapes(self):
        a = clustered_fixture(n=200, seed=1)
        assert a == clustered_fixture(n=200, seed=1)
        assert all(c.features.dim == 200 for c in a)
        assert all(c.features.nnz == 20 for c in a)

    def test_exactly_one_category_per_group(self):
        cases = clustered_fixture(n=50, n_groups=4, n_categories=6, seed=2)
        for c in cases:
            for g in range(4):
                idx_in_group = [i for i in c.features.indices
                                if g * 6 <= i < (g + 1) * 6]
                assert len(idx_in_group) == 1

    def test_class_pattern_dominates(self):
        cases = clustered_fixture(n=500, n_classes=4, flip=0.0, seed=3)
        # with flip=0 all cases of a class share identical features
        by_label = {}
        for c in cases:
            by_label.setdefault(c.label, set()).add(c.features.indices)
        for members in by_label.values():
            assert len(members) == 1

    def test_labels_cover_classes(self):
        cases = clustered_fixture(n=400, n_classes=8, seed=4)
        assert set(c.label for c in cases) == set(range(8))
