"""Simulator and analytic toolkit for a counterfactual bit-commitment
protocol built on a single-photon interferometer comparison channel."""

from .optics import (
    BeamSplitter,
    DetectionOutcome,
    Detector,
    PhotonState,
    Polarization,
    outcome_distribution,
    run_slot,
)
from .protocol import (
    CommitmentParams,
    CommitmentTranscript,
    OpeningMessage,
    alice_check_d2,
    alice_generate,
    bob_generate,
    bob_verify_opening,
    run_commit_phase,
)
from .security import (
    binding_advantage,
    choose_parameters,
    comparison_probs,
    concealing_advantage,
    concealing_oracle_bruteforce,
    security_report,
)

__version__ = "0.1.0"

__all__ = [
    "BeamSplitter",
    "DetectionOutcome",
    "Detector",
    "PhotonState",
    "Polarization",
    "outcome_distribution",
    "run_slot",
    "CommitmentParams",
    "CommitmentTranscript",
    "OpeningMessage",
    "alice_check_d2",
    "alice_generate",
    "bob_generate",
    "bob_verify_opening",
    "run_commit_phase",
    "binding_advantage",
    "choose_parameters",
    "comparison_probs",
    "concealing_advantage",
    "concealing_oracle_bruteforce",
    "security_report",
    "__version__",
]
