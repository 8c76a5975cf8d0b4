"""Property tests for the two text loaders.

Sparse text round-trips exactly through write_sparse_text. Every prefix of a
valid file, and a valid file with one token (sparse text) or one cell (CSV
with a schema) replaced by drawn text, dropped, or joined by an extra one,
either loads with every label an int and every value finite or raises
DataFormatError: nothing else may escape a loader.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casehash import DataFormatError, SparseCase, SparseVector, load_csv, load_sparse_text

from conftest import write_sparse_text

# any text that can be written as UTF-8, plus the spellings of non-finite
# and empty numbers that a loader has to refuse or read as a category
drawn_text = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400", "1e-400",
                     "", ":", "0:", ":1", "3:nan", "3:inf", "3:1e400", "-1:1", "1:0", "\"",
                     ",", "0 1:1", "\n", "\r"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)

finite_values = st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0.0)


@st.composite
def case_lists(draw):
    """Cases with dense labels 0..L-1 and ids 0..n-1, as load_sparse_text
    numbers them, at a drawn width."""
    dim = draw(st.integers(1, 12))
    rows = draw(st.lists(
        st.tuples(st.integers(0, 5), st.sets(st.integers(0, dim - 1), max_size=dim)),
        min_size=1, max_size=8))
    dense = {lab: k for k, lab in enumerate(sorted({lab for lab, _ in rows}))}
    cases = []
    for case_id, (label, columns) in enumerate(rows):
        indices = tuple(sorted(columns))
        values = tuple(draw(st.lists(finite_values, min_size=len(indices),
                                     max_size=len(indices))))
        cases.append(SparseCase(id=case_id, features=SparseVector(dim, indices, values),
                                label=dense[label]))
    return cases


@st.composite
def csv_texts(draw):
    """A valid CSV file for CSV_SPEC, as a list of rows of cells."""
    n = draw(st.integers(1, 6))
    rows = [["num", "cat", "y"]]
    for _ in range(n):
        rows.append([repr(draw(st.floats(allow_nan=False, allow_infinity=False))),
                     draw(st.sampled_from(["a", "b", "c"])),
                     str(draw(st.integers(-3, 3)))])
    return rows


CSV_SPEC = {"num": "numeric", "cat": "categorical", "y": "label"}


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    """One file that every example rewrites."""
    return tmp_path_factory.mktemp("loaders") / "data"


def load_text(path, text: str, loader):
    path.write_text(text, encoding="utf-8", newline="")
    return loader(path)


def loads_finite_or_refuses(path, text: str, loader) -> None:
    """A file holding text either loads with int labels and finite values,
    or raises DataFormatError."""
    try:
        cases = load_text(path, text, loader)
    except DataFormatError:
        return
    for case in cases:
        assert isinstance(case.label, int)
        assert all(math.isfinite(v) for v in case.features.values)


def edited(cells: list[str], data) -> list[str]:
    """cells with one replaced by drawn text, one dropped, or one added."""
    at = data.draw(st.integers(0, len(cells)))
    edit = data.draw(st.sampled_from(["replace", "drop", "add"]))
    if edit == "add" or at == len(cells):
        return cells[:at] + [data.draw(drawn_text)] + cells[at:]
    if edit == "drop":
        return cells[:at] + cells[at + 1:]
    return cells[:at] + [data.draw(drawn_text)] + cells[at + 1:]


def sparse_text(path, cases) -> str:
    write_sparse_text(cases, path)
    return path.read_text(encoding="utf-8")


def csv_loader(path):
    return load_csv(path, CSV_SPEC)[0]


@settings(max_examples=100, deadline=None)
@given(cases=case_lists())
def test_sparse_text_round_trip(path, cases):
    dim = cases[0].features.dim
    text = sparse_text(path, cases)
    assert load_text(path, text, lambda p: load_sparse_text(p, dim=dim)) == cases


@settings(max_examples=25, deadline=None)
@given(cases=case_lists())
def test_every_prefix_of_sparse_text(path, cases):
    text = sparse_text(path, cases)
    for cut in range(len(text)):
        loads_finite_or_refuses(path, text[:cut], load_sparse_text)


@settings(max_examples=150, deadline=None)
@given(cases=case_lists(), data=st.data())
def test_sparse_text_with_one_token_edited(path, cases, data):
    lines = sparse_text(path, cases).splitlines()
    k = data.draw(st.integers(0, len(lines) - 1))
    lines[k] = " ".join(edited(lines[k].split(" "), data))
    loads_finite_or_refuses(path, "\n".join(lines) + "\n", load_sparse_text)


@settings(max_examples=25, deadline=None)
@given(rows=csv_texts())
def test_every_prefix_of_csv(path, rows):
    text = "".join(",".join(row) + "\n" for row in rows)
    assert len(load_text(path, text, csv_loader)) == len(rows) - 1
    for cut in range(len(text)):
        loads_finite_or_refuses(path, text[:cut], csv_loader)


@settings(max_examples=150, deadline=None)
@given(rows=csv_texts(), data=st.data())
def test_csv_with_one_cell_edited(path, rows, data):
    k = data.draw(st.integers(0, len(rows) - 1))
    rows[k] = edited(rows[k], data)
    loads_finite_or_refuses(path, "".join(",".join(row) + "\n" for row in rows), csv_loader)
