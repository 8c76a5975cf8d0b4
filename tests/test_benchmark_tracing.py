"""The benchmark's tracer wraps casehash functions by name; every name it
lists must still exist, or `benchmarks/run.py --trace 1` fails."""

import importlib
from pathlib import Path

from casehash.network import CODE_BLOCK_ROWS

from conftest import make_case

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tracer_install_and_uninstall(monkeypatch, small_params):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.TARGETS if attr not in vars(owner)]
    assert not missing
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracing.TARGETS]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
        small_params.code_batch([make_case(12, [(0, 1.0)])])
        # several blocks still convert the cases once, so the traced
        # sparse.cases_to_csr.s stays one conversion per call
        small_params.code_batch([make_case(12, [(0, 1.0)], case_id=k)
                                 for k in range(2 * CODE_BLOCK_ROWS + 1)])
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    assert [(sp.name, sp.parent) for sp in tracer.spans] == [
        ("network.code_batch", None), ("sparse.cases_to_csr", 0),
        ("network.code_batch", None), ("sparse.cases_to_csr", 2)]
