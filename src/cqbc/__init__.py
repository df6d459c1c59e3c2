"""Simulator and analytic toolkit for a counterfactual bit-commitment
protocol built on a single-photon interferometer comparison channel.

`import cqbc` loads no submodule: a top-level name imports its home module
on first use, and each `cqbc` subcommand imports only the modules it runs.
numpy loads only with `adversary` or inside a function that uses it, so
the exact layer (`params`, `security`'s formulas and solver) and `--help`
run without it.
"""

from importlib import import_module

__version__ = "0.1.0"

# The submodule that defines each public name.
_HOMES = dict.fromkeys([
    "BeamSplitter", "DetectionOutcome", "Detector", "PhotonState",
    "Polarization", "outcome_distribution", "run_slot"], "optics")
_HOMES.update(dict.fromkeys([
    "CommitmentParams", "CommitmentTranscript", "OpeningMessage",
    "alice_check_d2", "alice_generate", "bob_generate", "bob_verify_opening",
    "run_commit_phase"], "protocol"))
_HOMES.update(dict.fromkeys([
    "binding_advantage", "choose_parameters", "comparison_probs",
    "concealing_advantage", "concealing_oracle_bruteforce",
    "security_report"], "security"))

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name in _HOMES:
        return getattr(import_module(f".{_HOMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
