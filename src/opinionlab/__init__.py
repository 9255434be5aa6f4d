"""Opinion-dynamics lab: simulators, an ODE-regularized neural predictor,
classical baselines, and an evaluation harness."""

from .autodiff import Adam, Tensor
from .data import (
    DatasetError,
    OpinionDataset,
    ProfileCorpus,
    SplitSpec,
    chronological_split,
    discretize_opinion,
    label_to_continuous,
    load_dataset,
    load_profiles,
    save_dataset,
    save_profiles,
)
from .metrics import Metrics, compute_metrics, confusion_matrix
from .model import (
    SinnModel,
    TrainConfig,
    TrainingDiverged,
    build_model,
    load_model,
    save_model,
    train,
)
from .simulate import (
    PRESETS,
    SbcmGenConfig,
    cluster_summary,
    generate_sbcm_dataset,
    preset_config,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "Tensor",
    "DatasetError",
    "OpinionDataset",
    "ProfileCorpus",
    "SplitSpec",
    "chronological_split",
    "discretize_opinion",
    "label_to_continuous",
    "load_dataset",
    "load_profiles",
    "save_dataset",
    "save_profiles",
    "Metrics",
    "compute_metrics",
    "confusion_matrix",
    "SinnModel",
    "TrainConfig",
    "TrainingDiverged",
    "build_model",
    "load_model",
    "save_model",
    "train",
    "PRESETS",
    "SbcmGenConfig",
    "cluster_summary",
    "generate_sbcm_dataset",
    "preset_config",
    "__version__",
]
