"""Learned hashing for sparse heterogeneous case bases.

Cases (sparse feature vectors with class-like solution labels) are mapped
to short binary codes by a trained interaction network; a Hamming-bucket
index retrieves nearest cases in sublinear time and a CBR engine runs the
retrieve / reuse / revise / retain cycle on top, refreshing the hash
function as solved cases accumulate.
"""

from .baseline_lsh import LshPlanes
from .cbr import CbrEngine, SolveRecord, Suggestion, UpdateStats
from .eval import (
    BenchResult,
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
from .index import HashIndex, RetrievalResult
from .network import (
    DivergenceError,
    HashCode,
    Hyperparams,
    NetworkParams,
    hamming_distance,
    hash_case,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .sparse import (
    DataFormatError,
    DatasetSchema,
    SparseCase,
    SparseVector,
    fit_ranges,
    kfold,
    load_csv,
    load_sparse_text,
    normalize,
    split,
)
from .synthetic import clustered_fixture, two_class_fixture
from .training import (
    OptimizerState,
    PairBatch,
    TrainResult,
    batch_objective,
    grad,
    sample_pairs,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BenchResult", "CbrEngine", "DataFormatError", "DatasetSchema",
    "DivergenceError", "HashCode", "HashIndex", "Hyperparams",
    "LshPlanes", "MetricReport", "NetworkParams", "OptimizerState",
    "PairBatch", "RetrievalResult", "SolveRecord", "SparseCase",
    "SparseVector", "Suggestion", "TrainResult", "UpdateStats", "accuracy",
    "ap_at_n", "auc_binary", "auc_multiclass", "batch_objective", "bench",
    "clustered_fixture", "evaluate", "fit_ranges", "grad",
    "hamming_distance", "hash_case", "init_params", "kfold",
    "load_checkpoint", "load_csv", "load_sparse_text", "map_at_n",
    "normalize", "prec_at_n", "sample_pairs", "save_checkpoint", "split",
    "train", "two_class_fixture",
]
