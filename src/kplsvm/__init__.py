"""Kernel SVM training with k-piecewise-linear convex margin losses.

The loss family is ``L(u) = max(u, -tau_1 u + eps_1, ..., -tau_{k-1} u
+ eps_{k-1})``; the hinge (all parameters zero) and the pinball
(``eps = 0``) are its smallest members.  Training solves the dual QP of
the regularized risk with an interior-point method that works on the
dual's block structure (one r x r factorization per Newton step, with
H = WW' and r the feature count of a linear kernel), polishes
the result with an active-set crossover, recovers the bias as the
exact minimizer of the primal in b with w fixed, and certifies the
result via KKT residuals and the duality gap.  ``modelsel`` adds the
staged grid search and the benchmark harness; ``cli`` exposes
everything as the ``kplsvm`` command.
"""

from .data import (
    Dataset,
    default_seed,
    fit_normalizer,
    load_csv,
    load_dataset,
    load_libsvm,
    split_dataset,
)
from .errors import (
    DataError,
    InfeasibleError,
    KplsvmError,
    RepresentationError,
    SolverError,
    TrainingError,
)
from .kernels import KERNEL_KINDS, RBF_FORMS, KernelSpec, cross_gram, gram
from .loss import (
    LossPropertyReport,
    LossSpec,
    canonical,
    check_properties,
    eval_loss,
    eval_subgradient,
    fit_from_pieces,
    hinge,
    pieces,
    pinball,
)
from .model_io import FORMAT_VERSION, load_model, model_from_dict, \
    model_to_dict, save_model
from .modelsel import (
    FAMILIES,
    CellRecord,
    GridSearchReport,
    GridSpec,
    benchmark_run,
    evaluate,
    staged_search,
)
from .trainer import (
    TrainedModel,
    TrainParams,
    reduction_equivalence,
    train,
    verify_kkt,
)

__version__ = "0.1.0"

__all__ = [
    "CellRecord",
    "DataError",
    "Dataset",
    "FAMILIES",
    "FORMAT_VERSION",
    "GridSearchReport",
    "GridSpec",
    "InfeasibleError",
    "KERNEL_KINDS",
    "KernelSpec",
    "KplsvmError",
    "LossPropertyReport",
    "LossSpec",
    "RBF_FORMS",
    "RepresentationError",
    "SolverError",
    "TrainedModel",
    "TrainParams",
    "TrainingError",
    "benchmark_run",
    "canonical",
    "check_properties",
    "cross_gram",
    "default_seed",
    "eval_loss",
    "eval_subgradient",
    "evaluate",
    "fit_from_pieces",
    "fit_normalizer",
    "gram",
    "hinge",
    "load_csv",
    "load_dataset",
    "load_libsvm",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "pieces",
    "pinball",
    "reduction_equivalence",
    "save_model",
    "split_dataset",
    "staged_search",
    "train",
    "verify_kkt",
    "__version__",
]
