"""Property tests for the code that turns CSR rows into cases.

rows_to_cases inverts cases_to_csr over any range of rows. fit_ranges and
normalize work on one feature matrix, and two_class_fixture builds its rows
with numpy; each must give exactly what its case-by-case reference in
conftest gives: equal cases, and equal vmin/vmax to the bit.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from casehash import SparseCase, SparseVector, fit_ranges, normalize, two_class_fixture
from casehash.sparse import ColumnSpec, DatasetSchema, cases_to_csr, rows_to_cases

from conftest import (reference_fit_ranges, reference_normalize, reference_two_class_fixture,
                      random_cases)

# negative, repeated (so often constant over a few cases), zero (an implicit
# zero once stored) and wide values
numeric_values = st.one_of(st.sampled_from([-3.0, -0.5, 0.0, 1.0, 2.5]),
                           st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def mixed_data(draw):
    """A schema of numeric columns and one-hot groups, and cases at its
    width, each with a drawn value per numeric column and at most one
    active category per group."""
    columns, offset = [], 0
    for kind in draw(st.lists(st.sampled_from(["numeric", "categorical"]), max_size=5)):
        width = draw(st.integers(1, 3)) if kind == "categorical" else 1
        categories = tuple(f"c{k}" for k in range(width)) if kind == "categorical" else ()
        columns.append(ColumnSpec(name=f"col{len(columns)}", kind=kind,
                                  categories=categories, offset=offset))
        offset += width
    columns.append(ColumnSpec(name="y", kind="label"))
    schema = DatasetSchema(columns=columns, label_column="y", label_values=(0, 1))
    dim = max(schema.dim, 1)
    cases = []
    for cid in range(draw(st.integers(0, 8))):
        pairs = []
        for col in schema.feature_columns():
            if col.kind == "numeric":
                pairs.append((col.offset, draw(numeric_values)))
            else:
                pos = draw(st.integers(-1, col.width - 1))  # -1: an unseen category
                if pos >= 0:
                    pairs.append((col.offset + pos, 1.0))
        cases.append(SparseCase(id=cid, features=SparseVector.from_pairs(dim, pairs),
                                label=draw(st.integers(0, 1))))
    # a case with no numeric value, and one-hot entries only
    if draw(st.booleans()):
        onehot = [(c.offset, 1.0) for c in schema.feature_columns() if c.kind == "categorical"]
        cases.append(SparseCase(id=len(cases), features=SparseVector.from_pairs(dim, onehot),
                                label=0))
    return schema, cases


@settings(max_examples=200, deadline=None)
@given(mixed_data(), st.data())
def test_fit_and_normalize_match_the_case_by_case_reference(data, draw):
    schema, cases = data
    # fit on a prefix, possibly empty, so later cases fall out of range
    fit_on = cases[:draw.draw(st.integers(0, len(cases)))]
    got, want = fit_ranges(copy.deepcopy(schema), fit_on), reference_fit_ranges(schema, fit_on)
    ranges = [(c.vmin, c.vmax) for c in got.columns]
    assert ranges == [(c.vmin, c.vmax) for c in want.columns]
    assert all(type(v) is float for c in got.columns if c.kind == "numeric"
               for v in (c.vmin, c.vmax))
    assert normalize(cases, got) == reference_normalize(cases, want)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30), st.integers(1, 4), st.sampled_from([2, 4, 6]), st.integers(0, 5),
       st.floats(0.0, 0.49), st.integers(0, 2 ** 32 - 1), st.integers(-3, 3),
       st.integers(0, 10_000))
def test_two_class_fixture_matches_the_row_loop(n, n_groups, n_categories, n_noise, flip, seed,
                                                 block_rotation, id_start):
    kw = dict(n=n, n_groups=n_groups, n_categories=n_categories, n_noise=n_noise, flip=flip,
              seed=seed, block_rotation=block_rotation, id_start=id_start)
    assert two_class_fixture(**kw) == reference_two_class_fixture(**kw)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.integers(1, 9), st.integers(0, 9), st.data())
def test_rows_to_cases_inverts_cases_to_csr(n, dim, nnz, draw):
    cases = random_cases(np.random.default_rng(n * 100 + dim * 10 + nnz), n, dim=dim, nnz=nnz,
                         id_start=draw.draw(st.integers(-5, 5)))
    start = draw.draw(st.integers(0, n))
    stop = draw.draw(st.integers(start, n))
    ids = np.array([c.id for c in cases], dtype=np.int64)
    labels = np.array([c.label for c in cases], dtype=np.int64)
    got = rows_to_cases(cases_to_csr(cases, dim), start, stop, ids, labels)
    assert got == cases[start:stop]
    assert all(type(c.id) is int and type(c.label) is int for c in got)
