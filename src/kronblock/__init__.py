"""kronblock: training block-wise sparse weight matrices via masked Kronecker
factorization, with exact closed-form kernels, an exact flop cost model,
proximal baselines, a parameter-minimizing shape optimizer, and one-shot
block-size selection.

Importing kronblock sets glibc's heap thresholds for the whole process (see
``kronblock.heap``)."""

from . import heap  # noqa: F401  first, so the policy holds for every allocation
from .data import (
    Dataset,
    IdxBadMagicError,
    IdxCountMismatchError,
    IdxFormatError,
    IdxTruncatedError,
    batches,
    load_idx,
    make_teacher_dataset,
    read_idx,
    train_test_split,
    write_idx,
)
from .factor import (
    KronFactor,
    KronShape,
    backward,
    backward_params,
    count_params,
    forward,
    load_factor,
    materialize,
    random_factor,
    reconstruct_from_blockwise,
    save_factor,
    sparsity_rate,
)
from .flops import (
    FlopReport,
    dense_layer_report,
    instrumented_count,
    kron_backward_flops,
    kron_layer_report,
    two_layer_dense_report,
    train_path,
    two_layer_kron_report,
)
from .linalg import (
    fold_input,
    fold_mid,
    fold_output,
    fold_tiles,
    hadamard,
    unfold_input,
    unfold_mid,
    unfold_output,
    unfold_tiles,
)
from .network import (
    LayerSpec,
    Network,
    build_network,
    dense_spec,
    evaluate,
    kron_spec,
    load_network,
    net_backward,
    net_forward,
    net_predict,
    save_network,
    train_paths,
)
from .patterns import (
    OverRegularizedError,
    PatternSet,
    SelectConfig,
    SelectionResult,
    build_pattern_set,
    enumerate_block_sizes,
    select_pattern,
    selection_param_count,
)
from .shapeopt import optimal_shape, shape_report
from .train import (
    LAMBDA_GRID,
    MetricRecord,
    TrainConfig,
    TrainingDivergedError,
    collect_metrics,
    prune_blocks,
    train_group_lasso,
    train_kron,
)

__version__ = "0.1.0"
USE_NUMBA = False  # one numpy code path; kept because perfbench/run.py reports it
