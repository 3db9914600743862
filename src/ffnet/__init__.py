"""Forward-forward training with layer collaboration and entropy analysis."""

from .analysis import (
    SubsetEvalReport,
    SubsetResult,
    default_subset_family,
    evaluate_subsets,
    marginal_contributions,
)
from .baselines import (
    classic_test_error,
    softmax_cross_entropy,
    train_classic,
    train_pairwise,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    Dataset,
    LinkedBatch,
    link_inputs,
    load_idx,
    make_linked_batches,
    make_plain_batches,
    one_hot,
    sample_wrong_labels,
    write_idx,
)
from .entropy import (
    EntropyReport,
    entropy_decompose,
    functional_entropy,
    goodness_entropy_reports,
    scaled_kl_identity,
)
from .ff import (
    FfConfig,
    compute_gamma,
    entropy_loss_and_coeffs,
    ff_loss_and_coeffs,
    goodness_table,
    positive_prob,
    predict,
    schedule_stages,
    test_error,
    train,
)
from .linalg import l2_row_normalize, make_rng, relu, row_sumsq
from .nn import (
    AdamState,
    DenseLayer,
    ForwardTrace,
    MlpNetwork,
    adam_step,
    forward_pass,
    full_backprop_grad,
    init_network,
    layer_local_grad,
)
from .runner import RunConfig, run_from_paths, run_sweep, run_training
from .synth import synthetic_dataset, synthetic_pair

__version__ = "0.1.0"
