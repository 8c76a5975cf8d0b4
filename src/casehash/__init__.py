"""Learned hashing for sparse heterogeneous case bases.

Cases (sparse feature vectors with class-like solution labels) are mapped
to short binary codes by a trained interaction network; a Hamming-bucket
index retrieves nearest cases in sublinear time and a CBR engine runs the
retrieve / reuse / revise / retain cycle on top, refreshing the hash
function as solved cases accumulate.
"""

from .baseline_lsh import LshPlanes
from .cbr import CbrEngine, SolveRecord, Suggestion
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
    forward_batch,
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
    write_sparse_text,
)
from .synthetic import clustered_fixture, two_class_fixture
from .training import (
    Gradients,
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
    "DivergenceError", "Gradients", "HashCode", "HashIndex", "Hyperparams",
    "LshPlanes", "MetricReport", "NetworkParams", "OptimizerState",
    "PairBatch", "RetrievalResult", "SolveRecord", "SparseCase",
    "SparseVector", "Suggestion", "TrainResult", "accuracy", "ap_at_n",
    "auc_binary", "auc_multiclass", "batch_objective", "bench",
    "clustered_fixture", "evaluate", "fit_ranges", "forward_batch", "grad",
    "hamming_distance", "hash_case", "init_params", "kfold",
    "load_checkpoint", "load_csv", "load_sparse_text", "map_at_n",
    "normalize", "prec_at_n", "sample_pairs", "save_checkpoint", "split",
    "train", "two_class_fixture", "write_sparse_text",
]
