import numpy as np
import pytest

from casehash import HashCode, LshPlanes
from casehash.sparse import SparseCase, SparseVector, cases_to_csr

from conftest import bit, make_case, random_cases, to_signs


class TestLshPlanes:
    def test_deterministic_for_seed(self):
        a = LshPlanes.sample(16, 30, seed=4)
        b = LshPlanes.sample(16, 30, seed=4)
        assert np.array_equal(a.planes, b.planes)
        assert not np.array_equal(a.planes, LshPlanes.sample(16, 30, seed=5).planes)

    def test_code_is_projection_sign(self, rng):
        planes = LshPlanes.sample(12, 20, seed=0)
        case = random_cases(rng, 1, dim=20, nnz=6)[0]
        proj = planes.project(case)
        code = planes.code(case)
        assert np.array_equal(to_signs(code), np.where(proj >= 0, 1, -1))

    def test_scale_invariance(self, rng):
        planes = LshPlanes.sample(16, 20, seed=1)
        case = random_cases(rng, 1, dim=20, nnz=5)[0]
        scaled = SparseCase(
            id=99,
            features=SparseVector(dim=20, indices=case.features.indices,
                                  values=tuple(3.5 * v for v in case.features.values)),
            label=case.label,
        )
        assert planes.code(case) == planes.code(scaled)

    def test_zero_vector_all_positive(self):
        planes = LshPlanes.sample(8, 10, seed=2)
        code = planes.code(make_case(10, []))
        assert all(bit(code, m) == 1 for m in range(8))  # sign(0) = +1

    def test_batch_matches_single(self, rng):
        planes = LshPlanes.sample(24, 15, seed=3)
        cases = random_cases(rng, 20, dim=15, nnz=4)
        words = planes.code_rows(cases_to_csr(cases, 15))
        assert [HashCode(r=24, words=tuple(row)) for row in words.tolist()] == [
            planes.code(c) for c in cases]

    def test_dim_mismatch(self):
        planes = LshPlanes.sample(8, 10, seed=0)
        with pytest.raises(ValueError):
            planes.code(make_case(11, [(0, 1.0)]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LshPlanes(r=4, dim=5, planes=np.zeros((3, 5)))
