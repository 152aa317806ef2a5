"""PAC-private zeroth-order training with exact per-step information accounting."""

from .accounting import (
    dp_eps_to_mia_bound,
    kl_binary,
    matched_mi_for_dp,
    mia_posterior_bound,
    validate_transcript,
)
from .adversary import empirical_mia_experiment, membership_attack, replay_posterior
from .binary_channel import (
    binary_entropy,
    channel_mi,
    invert_channel_mi,
)
from .engine import TrainConfig, Transcript, TrainResult, train
from .harness import ExperimentConfig, load_transcript, run_experiment, write_transcript
from .mechanism import (
    MechanismSpec,
    Posterior,
    ReleaseMechanism,
    SubsetDesign,
    build_balanced_design,
)
from .tasks import make_task

__version__ = "0.1.0"

__all__ = [
    "binary_entropy",
    "channel_mi",
    "invert_channel_mi",
    "kl_binary",
    "mia_posterior_bound",
    "dp_eps_to_mia_bound",
    "matched_mi_for_dp",
    "validate_transcript",
    "MechanismSpec",
    "Posterior",
    "ReleaseMechanism",
    "SubsetDesign",
    "build_balanced_design",
    "TrainConfig",
    "Transcript",
    "TrainResult",
    "train",
    "make_task",
    "replay_posterior",
    "membership_attack",
    "empirical_mia_experiment",
    "ExperimentConfig",
    "load_transcript",
    "write_transcript",
    "run_experiment",
    "__version__",
]
