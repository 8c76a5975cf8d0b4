"""Run one casehash benchmark workload and print its metrics as JSON.

    python3 benchmarks/run.py --workload query-100k --seed 1 --seconds 45 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics from spans with --trace 1. The line before it records the
machine. casehash is imported from the src/ directory next to this one and
from nowhere else; the run exits with an error if that is missing.
"""

import os

# One client on one core: BLAS starts no threads of its own. This must be set
# before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_casehash():
    """Import casehash from this checkout's src/, never from site-packages."""
    if not (SRC / "casehash" / "__init__.py").is_file():
        raise SystemExit(f"casehash sources not found in {SRC}")
    sys.path.insert(0, str(SRC))
    import casehash
    if Path(casehash.__file__).resolve().parent != SRC / "casehash":
        raise SystemExit(f"imported casehash from {casehash.__file__}, not {SRC}")
    return casehash


def machine_record() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-mixed", "query-100k", "stream-20k"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_casehash()
    from checks import CheckError
    from tracing import NullTracer, Tracer
    from workloads import Run, run_workload

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else NullTracer()
    run = Run(name=args.workload, seed=args.seed, seconds=args.seconds,
              tracer=tracer, out_dir=out_dir)
    correct = True
    if args.trace:
        tracer.install()
    try:
        end_to_end, layers = run_workload(run)
    except CheckError as err:
        print(f"check failed: {err}", file=sys.stderr)
        correct, end_to_end, layers = False, {}, {}
    finally:
        if args.trace:
            tracer.uninstall()
    if args.trace:
        tracer.write(out_dir / f"trace-{args.workload}.jsonl")
        print("# end-to-end with tracing on: " + json.dumps(
            {k: v for k, (v, _) in end_to_end.items()}), file=sys.stderr)
    metrics = layers if args.trace else end_to_end
    print(json.dumps({"machine": machine_record()}))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
