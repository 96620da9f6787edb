"""Semi-supervised transfer learning with adaptive consistency regularization.

The package trains a small feedforward classifier on a target task while
regularizing it against a frozen source model (adaptive knowledge
consistency, AKC) and aligning the representation distributions of labeled
and unlabeled target data (adaptive representation consistency, ARC), with
entropy-gated sample selection, replay buffers, imprinting initialization,
and pseudo-label / mean-teacher baselines.
"""

from .config import ExperimentConfig
from .consistency import ArcState, ReplayBuffer, akc_loss, arc_loss
from .data import SplitSet, SyntheticTaskSpec, generate_task, split_labeled
from .model import Classifier, LinearHead, MlpExtractor, ModelPair, imprint
from .ssl_baselines import cross_entropy_loss
from .training import MetricsLog, cosine_lr, run_pipeline, total_loss

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig", "ArcState", "ReplayBuffer", "akc_loss", "arc_loss",
    "SplitSet", "SyntheticTaskSpec", "generate_task", "split_labeled",
    "Classifier", "LinearHead", "MlpExtractor", "ModelPair", "imprint",
    "cross_entropy_loss",
    "MetricsLog", "cosine_lr", "run_pipeline", "total_loss",
]
