"""Random-hyperplane locality-sensitive hashing baseline.

One standard-normal hyperplane per bit; a case's bit is the sign of its
feature vector projected onto that plane, with sign(0) mapped to +1. Codes
are scale invariant: c * x (c > 0) hashes identically to x. The class
mirrors the learned coder's interface (r, code, code_rows) so it drops
into the same index and engine unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import HashCode, pack_rows
from .sparse import DataFormatError, SparseCase


@dataclass
class LshPlanes:
    """r random projection directions over a d-dimensional feature space."""

    r: int
    dim: int
    planes: np.ndarray  # (r, dim)

    def __post_init__(self):
        if self.planes.shape != (self.r, self.dim):
            raise ValueError(f"planes must have shape ({self.r}, {self.dim})")

    @classmethod
    def sample(cls, r: int, dim: int, seed: int) -> "LshPlanes":
        if r < 1 or dim < 1:
            raise ValueError("r and dim must be positive")
        rng = np.random.default_rng(seed)
        return cls(r=r, dim=dim, planes=rng.standard_normal((r, dim)))

    def project(self, case: SparseCase) -> np.ndarray:
        """Raw projections <x, plane_k> for each of the r planes."""
        feats = case.features
        if feats.dim != self.dim:
            raise DataFormatError(
                f"case dim {feats.dim} does not match planes dim {self.dim}")
        idx = np.asarray(feats.indices, dtype=np.int64)
        val = np.asarray(feats.values)
        if idx.size == 0:
            return np.zeros(self.r)
        return self.planes[:, idx] @ val

    def code(self, case: SparseCase) -> HashCode:
        return HashCode.from_signs(self.project(case))

    def code_rows(self, x) -> np.ndarray:
        """Packed codes of the rows of an (n, dim) CSR feature matrix."""
        if x.shape[1] != self.dim:
            raise DataFormatError(
                f"feature matrix has {x.shape[1]} columns, planes dim is {self.dim}")
        return pack_rows(np.asarray(x @ self.planes.T))
