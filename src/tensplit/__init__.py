"""Dense tensor decompositions with common/individual feature splitting.

Layout convention everywhere: the first index varies fastest, both in
memory and in every flattening or unfolding.
"""

from .classify import (
    EvalReport,
    ExperimentConfig,
    LabeledVectors,
    knn_classify,
    nearest_centroid,
    run_experiment,
    run_grid,
)
from .core import (
    DenseTensor,
    fold,
    khatri_rao,
    mode_n_product,
    norm_frobenius,
    unfold,
)
from .dataset import (
    EnsembleDataset,
    SplitPlan,
    load_dataset,
    load_pgm_ensemble,
    make_group_splits,
    read_pgm,
    save_dataset,
    synthetic_color_ensemble,
    synthetic_face_fixture,
)
from .decomp import (
    BlockTerm,
    DecompConfig,
    Diagnostics,
    KruskalFactors,
    LL1Factors,
    TuckerFactors,
    cpd_als,
    fit_error,
    hosvd,
    ll1_nn,
    load_factors,
    reconstruct,
    save_factors,
)
from .dtf import DtfFormatError, read_tensor, write_tensor
from .features import (
    CommonFeatureBank,
    FeatureSplit,
    SubsetRule,
    build_feature_bank,
    estimate_mixing,
    fit_feature_bank,
    split_features,
)
from .kernels import ConvergenceError, nnls, nnls_multi, pinv, svd
from .seeds import derive_seed, make_rng, seed_sequence

__version__ = "0.1.0"

__all__ = [
    "BlockTerm",
    "CommonFeatureBank",
    "ConvergenceError",
    "DecompConfig",
    "DenseTensor",
    "Diagnostics",
    "DtfFormatError",
    "EnsembleDataset",
    "EvalReport",
    "ExperimentConfig",
    "FeatureSplit",
    "KruskalFactors",
    "LL1Factors",
    "LabeledVectors",
    "SplitPlan",
    "SubsetRule",
    "TuckerFactors",
    "build_feature_bank",
    "cpd_als",
    "derive_seed",
    "estimate_mixing",
    "fit_error",
    "fit_feature_bank",
    "fold",
    "hosvd",
    "khatri_rao",
    "knn_classify",
    "ll1_nn",
    "load_dataset",
    "load_factors",
    "load_pgm_ensemble",
    "make_group_splits",
    "make_rng",
    "mode_n_product",
    "nearest_centroid",
    "nnls",
    "nnls_multi",
    "norm_frobenius",
    "pinv",
    "read_pgm",
    "read_tensor",
    "reconstruct",
    "run_experiment",
    "run_grid",
    "save_dataset",
    "save_factors",
    "seed_sequence",
    "split_features",
    "svd",
    "synthetic_color_ensemble",
    "synthetic_face_fixture",
    "unfold",
    "write_tensor",
]
