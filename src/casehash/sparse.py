"""Sparse heterogeneous datasets: loading, one-hot encoding, normalization, splits.

A case is a sparse feature vector plus a class-like solution label. Two text
formats are supported: a svmlight-style sparse format (`label idx:val ...`)
and CSV with a sidecar schema mapping each column to numeric / categorical /
label. Categorical columns are expanded to one-hot groups; numeric columns are
min-max scaled from training-split statistics: fit_ranges and normalize work
on the cases' one CSR feature matrix. cases_to_csr stacks cases into such a
matrix and rows_to_cases turns a range of its rows back into cases; it is
the one place that builds cases from CSR rows.

Loaded datasets are immutable value objects and safe for concurrent reads.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from itertools import chain

import numpy as np


class DataFormatError(ValueError):
    """Malformed input data (bad line, bad column, bad schema)."""


@dataclass(frozen=True)
class SparseVector:
    """Sparse real vector with strictly ascending indices and nonzero values.

    dim is the total feature count after any one-hot expansion; entry count
    may be far smaller than dim.
    """

    dim: int
    indices: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.indices) != len(self.values):
            raise ValueError("indices and values length mismatch")
        prev = -1
        for i in self.indices:
            if i <= prev:
                raise ValueError(f"indices not strictly ascending: {self.indices}")
            prev = i
        if self.indices and (self.indices[0] < 0 or self.indices[-1] >= self.dim):
            raise ValueError(f"index out of range for dim={self.dim}")
        if any(v == 0.0 for v in self.values):
            raise ValueError("stored values must be nonzero")

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @staticmethod
    def from_pairs(dim: int, pairs) -> "SparseVector":
        """Build from (index, value) pairs; zero values are dropped."""
        kept = sorted((int(i), float(v)) for i, v in pairs if float(v) != 0.0)
        return SparseVector(
            dim=dim,
            indices=tuple(i for i, _ in kept),
            values=tuple(v for _, v in kept),
        )


@dataclass(frozen=True)
class SparseCase:
    """A case: sparse features plus its solution label."""

    id: int
    features: SparseVector
    label: int


@dataclass
class ColumnSpec:
    name: str
    kind: str  # "numeric" | "categorical" | "label"
    categories: tuple[str, ...] = ()
    offset: int = -1  # first feature index owned by this column
    vmin: float | None = None
    vmax: float | None = None

    @property
    def width(self) -> int:
        return len(self.categories) if self.kind == "categorical" else 1


@dataclass
class DatasetSchema:
    """Column layout of a CSV dataset after one-hot expansion.

    One-hot groups occupy disjoint index ranges covering exactly the
    categorical columns; numeric columns own a single index each. Numeric
    min/max are fitted from the training split only (fit_ranges) and drive
    normalize().
    """

    columns: list[ColumnSpec] = field(default_factory=list)
    label_column: str = ""
    # raw label values in dense order; ints for numeric labels, strings for
    # categorical ones (never mixed)
    label_values: tuple = ()

    @property
    def dim(self) -> int:
        return sum(c.width for c in self.columns if c.kind != "label")

    def feature_columns(self) -> list[ColumnSpec]:
        return [c for c in self.columns if c.kind != "label"]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @staticmethod
    def from_json(text: str) -> "DatasetSchema":
        raw = json.loads(text)
        columns = [ColumnSpec(**{**c, "categories": tuple(c["categories"])})
                   for c in raw["columns"]]
        return DatasetSchema(columns=columns, label_column=raw["label_column"],
                             label_values=tuple(raw["label_values"]))


def _parse_label(token: str, path: str, lineno: int) -> int:
    try:
        value = float(token)
    except ValueError:
        raise DataFormatError(f"{path}:{lineno}: bad label {token!r}") from None
    if not math.isfinite(value) or value != int(value):
        raise DataFormatError(f"{path}:{lineno}: non-integer label {token!r}")
    return int(value)


def _label_key(token: str):
    """CSV label cell: an integer when it reads as a finite one, else a
    category string."""
    token = token.strip()
    try:
        value = float(token)
    except ValueError:
        return token
    return int(value) if math.isfinite(value) and value == int(value) else token


def _canonical_label_values(tokens) -> tuple:
    """Distinct labels in stable order: numeric when every cell is an integer,
    otherwise every cell is kept as a string and sorted lexically."""
    tokens = list(tokens)
    keys = {_label_key(t) for t in tokens}
    if all(isinstance(k, int) for k in keys):
        return tuple(sorted(keys))
    return tuple(sorted({t.strip() for t in tokens}))


def _row_label(token: str, label_values):
    """Resolve one label cell against fitted label_values (type-consistent)."""
    if label_values and isinstance(label_values[0], str):
        return token.strip()
    return _label_key(token)


def load_sparse_text(path, dim: int | None = None) -> list[SparseCase]:
    """Load `label idx:val ...` lines into cases.

    Indices are zero-based and must be strictly ascending within a line;
    a label must be a finite integer and a value finite. Blank lines and
    `#` comments are skipped. The feature dimension is
    1 + max index seen unless an explicit dim is given. Labels are remapped
    to dense integers 0..|L|-1 in ascending original order.
    """
    path = str(path)
    rows: list[tuple[int, tuple[int, ...], tuple[float, ...]]] = []
    max_index = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            label = _parse_label(tokens[0], path, lineno)
            indices: list[int] = []
            values: list[float] = []
            prev = -1
            for tok in tokens[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise DataFormatError(
                        f"{path}:{lineno}: malformed entry {tok!r}"
                    ) from None
                if not math.isfinite(val):
                    raise DataFormatError(f"{path}:{lineno}: non-finite value {tok!r}")
                if idx <= prev:
                    raise DataFormatError(
                        f"{path}:{lineno}: non-ascending or duplicate index {idx}"
                    )
                prev = idx
                if val != 0.0:
                    indices.append(idx)
                    values.append(val)
                max_index = max(max_index, idx)
            rows.append((label, tuple(indices), tuple(values)))

    inferred = max_index + 1
    if dim is None:
        dim = inferred
    elif dim < inferred:
        raise DataFormatError(f"{path}: explicit dim {dim} < required {inferred}")

    label_map = {lab: k for k, lab in enumerate(sorted({r[0] for r in rows}))}
    return [
        SparseCase(
            id=i,
            features=SparseVector(dim=dim, indices=idx, values=val),
            label=label_map[lab],
        )
        for i, (lab, idx, val) in enumerate(rows)
    ]


def parse_schema_spec(text: str) -> dict[str, str]:
    """Parse a sidecar schema: one `column=kind` per line, # comments allowed."""
    spec: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"schema line {lineno}: expected column=kind")
        name, kind = (part.strip() for part in line.split("=", 1))
        if kind not in ("numeric", "categorical", "label"):
            raise DataFormatError(f"schema line {lineno}: unknown kind {kind!r}")
        spec[name] = kind
    return spec


def _encode_row(schema: DatasetSchema, row: dict[str, str], where: str):
    pairs = []
    for col in schema.feature_columns():
        raw = row[col.name].strip()
        if col.kind == "numeric":
            try:
                value = float(raw)
            except ValueError:
                raise DataFormatError(
                    f"{where}: non-numeric value {raw!r} in column {col.name!r}"
                ) from None
            if not math.isfinite(value):
                raise DataFormatError(
                    f"{where}: non-finite value {raw!r} in column {col.name!r}")
            pairs.append((col.offset, value))
        else:
            # Unseen categories produce an all-zero group.
            try:
                pos = col.categories.index(raw)
            except ValueError:
                continue
            pairs.append((col.offset + pos, 1.0))
    return pairs


def load_csv(path, schema_spec: dict[str, str], schema: DatasetSchema | None = None):
    """Load a headered CSV into sparse cases plus the fitted schema.

    schema_spec maps each header column to numeric / categorical / label
    (exactly one label column). Every row must have the header's field count
    and every numeric cell must be finite. When an already-fitted schema is
    passed, its vocabularies are reused and unseen categories encode to
    all-zero groups.
    Returns (cases, schema); numeric min/max are left unset until fit_ranges.
    """
    path = str(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None:
                raise DataFormatError(f"{path}: empty file")
            header = [h.strip() for h in reader.fieldnames]
            # each row with the file line it ends on; DictReader skips blank
            # lines, files a missing field as None and extra ones under None
            rows, lines = [], []
            for row in reader:
                if None in row or None in row.values():
                    more = "more" if None in row else "fewer"
                    raise DataFormatError(
                        f"{path}: row {reader.line_num}: {more} fields than the "
                        f"{len(header)} of the header")
                rows.append({k.strip(): v for k, v in row.items()})
                lines.append(reader.line_num)
        except csv.Error as exc:
            raise DataFormatError(f"{path}: {exc}") from None

    label_cols = [c for c, kind in schema_spec.items() if kind == "label"]
    if len(label_cols) != 1:
        raise DataFormatError("schema must mark exactly one label column")
    label_col = label_cols[0]
    if label_col not in header:
        raise DataFormatError(f"{path}: missing label column {label_col!r}")
    for col in schema_spec:
        if col not in header:
            raise DataFormatError(f"{path}: schema column {col!r} not in header")

    if schema is None:
        columns: list[ColumnSpec] = []
        offset = 0
        for name in header:
            kind = schema_spec.get(name)
            if kind is None:
                continue
            if kind == "label":
                columns.append(ColumnSpec(name=name, kind="label"))
                continue
            if kind == "categorical":
                vocab = tuple(sorted({row[name].strip() for row in rows}))
                columns.append(ColumnSpec(name=name, kind="categorical",
                                          categories=vocab, offset=offset))
                offset += len(vocab)
            else:
                columns.append(ColumnSpec(name=name, kind="numeric", offset=offset))
                offset += 1
        raw_labels = _canonical_label_values(row[label_col] for row in rows)
        schema = DatasetSchema(columns=columns, label_column=label_col,
                               label_values=raw_labels)

    label_index = {lab: k for k, lab in enumerate(schema.label_values)}
    cases = []
    for i, (row, line) in enumerate(zip(rows, lines)):
        raw_label = _row_label(row[label_col], schema.label_values)
        if raw_label not in label_index:
            raise DataFormatError(f"{path}: row {line}: unknown label {raw_label!r}")
        pairs = _encode_row(schema, row, where=f"{path}: row {line}")
        cases.append(SparseCase(
            id=i,
            features=SparseVector.from_pairs(schema.dim, pairs),
            label=label_index[raw_label],
        ))
    return cases, schema


def fit_ranges(schema: DatasetSchema, cases) -> DatasetSchema:
    """Fit numeric min/max from the given (training) cases, in place: each
    numeric column's extremes over the cases' feature matrix, implicit zeros
    included. With no cases both ends read 0.0."""
    numeric = [c for c in schema.columns if c.kind == "numeric"]
    cases = list(cases)
    lo = hi = [0.0] * len(numeric)
    if cases and numeric:
        x = cases_to_csr(cases, cases[0].features.dim)[:, [c.offset for c in numeric]]
        lo, hi = (m.toarray().ravel().tolist() for m in (x.min(axis=0), x.max(axis=0)))
    for col, a, b in zip(numeric, lo, hi):
        col.vmin, col.vmax = a, b
    return schema


def normalize(cases, schema: DatasetSchema):
    """Min-max scale numeric features to [0,1] using fitted training ranges.

    Values are clamped at transform time; constant columns map to 0; one-hot
    values pass through unchanged. Idempotent once ranges are [0,1]. The
    cases are scaled as one feature matrix at their own width.
    """
    numeric = [c for c in schema.columns if c.kind == "numeric"]
    for col in numeric:
        if col.vmin is None or col.vmax is None:
            raise ValueError(f"column {col.name!r} has no fitted range; call fit_ranges")
    cases = list(cases)
    if not cases:
        return []
    x = cases_to_csr(cases, cases[0].features.dim)
    # each stored entry's numeric column, -1 for a one-hot entry
    column = np.full(x.shape[1], -1)
    column[[c.offset for c in numeric]] = np.arange(len(numeric))
    scaled = column[x.indices] >= 0
    at = column[x.indices[scaled]]
    lo = np.array([c.vmin for c in numeric])[at]
    span = np.array([c.vmax for c in numeric])[at] - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        x.data[scaled] = np.where(span == 0.0, 0.0,
                                  np.clip((x.data[scaled] - lo) / span, 0.0, 1.0))
    x.eliminate_zeros()
    ids = np.fromiter((c.id for c in cases), dtype=np.int64, count=len(cases))
    labels = np.fromiter((c.label for c in cases), dtype=np.int64, count=len(cases))
    return rows_to_cases(x, 0, len(cases), ids, labels)


def cases_to_csr(cases, dim: int):
    """Stack case features into a scipy CSR matrix of shape (n, dim)."""
    from scipy import sparse as sp

    def row_lengths():
        for case in cases:
            if case.features.dim != dim:
                raise DataFormatError(
                    f"case {case.id} dim {case.features.dim} does not match {dim}")
            yield case.features.nnz

    n = len(cases)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(row_lengths(), dtype=np.int64, count=n), out=indptr[1:])
    total = int(indptr[-1])
    cols = np.fromiter(chain.from_iterable(c.features.indices for c in cases),
                       dtype=np.int64, count=total)
    vals = np.fromiter(chain.from_iterable(c.features.values for c in cases),
                       dtype=np.float64, count=total)
    return sp.csr_matrix((vals, cols, indptr), shape=(n, dim))


def rows_to_cases(x, start: int, stop: int, ids, labels) -> list[SparseCase]:
    """The cases of rows start to stop - 1 of the CSR matrix x, the inverse
    of cases_to_csr: row k takes its id and label from entry k of the int64
    arrays ids and labels. Reads x's indptr, indices and data in place."""
    bounds = x.indptr[start:stop + 1].tolist()
    lo, hi = bounds[0], bounds[-1]
    ind, val = x.indices[lo:hi].tolist(), x.data[lo:hi].tolist()
    return [SparseCase(id=cid,
                       features=SparseVector(dim=x.shape[1], indices=tuple(ind[a - lo:b - lo]),
                                             values=tuple(val[a - lo:b - lo])),
                       label=label)
            for cid, a, b, label in zip(ids[start:stop].tolist(), bounds, bounds[1:],
                                        labels[start:stop].tolist())]


def split(cases, train_fraction: float, seed: int):
    """Deterministic disjoint train/test partition of the case list."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0,1), got {train_fraction}")
    order = np.random.default_rng(seed).permutation(len(cases))
    n_train = int(round(len(cases) * train_fraction))
    train = [cases[i] for i in order[:n_train]]
    test = [cases[i] for i in order[n_train:]]
    return train, test


def kfold(cases, k: int, seed: int):
    """Yield (train, test) partitions for k-fold cross-validation."""
    if k < 2:
        raise ValueError("k must be >= 2")
    order = np.random.default_rng(seed).permutation(len(cases))
    folds = np.array_split(order, k)
    for i in range(k):
        test_ids = set(folds[i].tolist())
        train = [cases[j] for j in order if j not in test_ids]
        test = [cases[j] for j in folds[i]]
        yield train, test
