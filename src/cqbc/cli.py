"""Command-line experiment runner.

One binary, four subcommands:

  table1   analytic vs. empirical per-slot detector distributions
  commit   full honest commit + open run with transcript export
  attack   one named adversarial strategy, each one call of a public
           `cqbc.adversary` function, with its expected-vs-empirical report
  params   the (m, n) solver for binding and concealing targets

All randomness derives from --seed (default 1), so identical invocations
produce byte-identical JSON apart from the generated_at timestamp, which
is excluded from the determinism contract.

Exit codes: 0 success, 2 usage/parameter error or an attack with no legal
move, 3 infeasible targets, 4 I/O failure (the --config file or a written
report). `main` alone maps a failure to its code and its stderr prefix
(`error:`, `infeasible:` or `I/O error:`; argparse prints its own usage).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import sys
from collections.abc import Iterable, Sequence
from datetime import datetime, timezone

from .errors import (
    AttackImpossibleError,
    ContractViolationError,
    InfeasibleTargetError,
    ParameterError,
)
from .rng import DEFAULT_SEED, check_draws, substream

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


def _report_envelope(command: str, config: dict, results: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "results": results,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }


def _write_csv(out, header, rows) -> None:
    csv.writer(out).writerows(itertools.chain([header], rows))


def _emit(report: dict, args, rows, header) -> None:
    """Write the report to --out or stdout: its CSV rows under their
    header, or the JSON envelope. Both stream: the JSON goes 2^16 encoder
    chunks a write, neither one string nor one system call a chunk."""
    if args.format == "csv" and rows is None:
        raise ParameterError(
            f"command '{report['command']}' has no CSV representation")
    with (open(args.out, "w", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        if args.format == "csv":
            _write_csv(out, header, rows)
        else:
            chunks = itertools.chain(json.JSONEncoder(
                indent=2, sort_keys=True).iterencode(report), "\n")
            while batch := "".join(itertools.islice(chunks, 1 << 16)):
                out.write(batch)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _mirror(args):
    """The beam splitter of --r: reflectivity r, transmissivity 1 - r."""
    from . import optics
    return optics.BeamSplitter(args.r, 1.0 - args.r)


def cmd_table1(args) -> tuple[dict, list, list]:
    if args.trials < 1000:
        raise ParameterError("table1 needs at least 1000 trials")
    check_draws(2 * args.trials)   # one run_slot call per case and trial
    from . import optics
    bs = _mirror(args)
    rng = substream(args.seed, 10)
    warnings = []
    if args.r in (0.0, 1.0):
        warnings.append("degenerate beam splitter: analytic columns only "
                        "partially testable")

    header = ["case", "detector", "analytic", "empirical", "deviation",
              "tolerance", "pass"]
    rows = []
    for label, b_bit in (("a_eq_b", 0), ("a_neq_b", 1)):   # Alice's bit 0
        analytic = optics.outcome_distribution(0, b_bit, bs)
        counts = dict.fromkeys(optics.Detector, 0)
        for _ in range(args.trials):
            counts[optics.run_slot(0, b_bit, bs, rng).detector] += 1
        for det in optics.Detector:
            p = analytic[det]
            freq = counts[det] / args.trials
            # 4-sigma binomial window; degenerate cells demand exactness.
            tol = 4.0 * math.sqrt(p * (1 - p) / args.trials)
            rows.append([label, det.value, p, freq, freq - p, tol,
                         abs(freq - p) <= tol])
    # The JSON cells are the CSV rows, keyed by case and detector.
    cases = {}
    for row in rows:
        cell = dict(zip(header, row))
        cases.setdefault(cell.pop("case"), {})[cell.pop("detector")] = cell
    results = {"cases": cases, "all_pass": all(row[-1] for row in rows),
               "warnings": warnings}
    return results, rows, header


def _commitment_params(args):
    from . import protocol
    return protocol.CommitmentParams(m=args.m, n=args.n, bs=_mirror(args),
                                     master_seed=args.seed)


def cmd_commit(args) -> tuple[dict, Iterable, Sequence]:
    from . import protocol
    params = _commitment_params(args)
    transcript = protocol.run_commit_phase(params, b=args.bit)
    opening = transcript.honest_opening()
    if args.open_bit is not None:
        opening.claimed_bit = args.open_bit
    verdict = protocol.bob_verify_opening(transcript, opening)
    if args.transcript:
        with open(args.transcript, "w", newline="") as fh:
            _write_csv(fh, protocol.SLOT_ROW_HEADER, transcript.slot_rows())
    results = {
        "summary": transcript.summary(),
        "verdict": {"accepted": verdict.accepted, "reason": verdict.reason},
        "committed_bit": int(transcript.committed_bit),
        "honest_abort_probability": protocol.honest_abort_probability(params),
    }
    return results, transcript.slot_rows(), protocol.SLOT_ROW_HEADER


# The call behind each --strategy choice:
# (adversary module, args, params, rng) -> results.
_ATTACKS = {
    "alice-intercept": lambda adv, a, params, rng: adv.alice_intercept(
        a.n0, params, rng, alter_trials=a.trials).to_dict(),
    "alice-intercept-resend":
        lambda adv, a, params, rng: adv.alice_intercept_resend(
            a.n0, params, rng, alter_trials=a.trials).to_dict(),
    "alice-alter": lambda adv, a, params, rng: adv.alice_alter(
        params, rng, a.trials),
    "bob-bs": lambda adv, a, params, rng: adv.bob_illegal_bs(
        a.t_prime, params, rng, runs=a.runs).to_dict(),
    "bob-multiphoton": lambda adv, a, params, rng: adv.bob_multiphoton(
        a.k, params, rng, runs=a.runs).to_dict(),
    "bob-polarization":
        lambda adv, a, params, rng: adv.bob_illegal_polarization(
            adv.optics.PLUS, params, rng, runs=a.runs).to_dict(),
}


def cmd_attack(args) -> tuple[dict, list, list]:
    from . import adversary
    rng = substream(args.seed, 20)
    results = _ATTACKS[args.strategy](adversary, args,
                                      _commitment_params(args), rng)

    rows, header = None, None
    if "expected" in results and "empirical" in results:
        header = ["quantity", "expected", "empirical"]
        rows = [
            [key, results["expected"].get(key), results["empirical"].get(key)]
            for key in sorted(set(results["expected"]) | set(results["empirical"]))
        ]
    return results, rows, header


def cmd_params(args) -> tuple[dict, list, list]:
    from . import security
    bs = _mirror(args)
    result = security.choose_parameters(
        args.target_binding, args.target_concealing, bs,
        max_m=args.max_m, max_n=args.max_n,
    )
    trace = result.trace
    results = {
        "chosen": {"m": result.m, "n": result.n},
        "report": security.security_report(result.m, result.n, bs),
        "search_trace": trace,
    }
    return results, [list(row.values()) for row in trace], list(trace[0])


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """The type of every float option: no option's domain holds nan or
    an infinity."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqbc",
        description="Counterfactual bit-commitment simulator and analyzer",
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)
    parser._config_options = {}   # dest -> its actions: --config's keys

    def option(p, *flags, **kwargs):
        action = p.add_argument(*flags, **kwargs)
        parser._config_options.setdefault(action.dest, []).append(action)

    def common(p, sized, trials_default=None):
        if sized:
            option(p, "--m", type=int, default=70)
            option(p, "--n", type=int, default=130)
        option(p, "--r", type=_finite_float, default=0.5,
               help="beam splitter reflectivity (t = 1 - r)")
        if trials_default is not None:
            option(p, "--trials", type=int, default=trials_default)
        option(p, "--seed", type=int, default=DEFAULT_SEED)
        option(p, "--out", help="write the report to this path")
        option(p, "--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("table1", help="per-slot detector distributions")
    common(p, sized=False, trials_default=100_000)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("commit", help="honest commit + open run")
    common(p, sized=True)
    option(p, "--bit", type=int, choices=(0, 1), default=None,
           help="commitment bit (default: random)")
    option(p, "--open-bit", type=int, choices=(0, 1), default=None,
           help="open with this bit instead of the committed one")
    option(p, "--transcript", help="also dump the slot-level CSV here")
    p.set_defaults(func=cmd_commit)

    p = sub.add_parser("attack", help="run one adversarial strategy")
    common(p, sized=True, trials_default=10_000)
    option(p, "--strategy", required=True, choices=_ATTACKS)
    option(p, "--n0", type=int, default=0,
           help="intercepted slots per sequence")
    option(p, "--k", type=int, default=2, help="photons per slot")
    option(p, "--t-prime", type=_finite_float, default=0.5,
           dest="t_prime",
           help="transmissivity of Bob's illegal beam splitter")
    option(p, "--runs", type=int, default=1000,
           help="independent commit runs for detection statistics")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("params", help="solve for (m, n)")
    common(p, sized=False)
    option(p, "--target-binding", type=_finite_float, required=True)
    option(p, "--target-concealing", type=_finite_float, required=True)
    option(p, "--max-m", type=int, default=100_000)
    option(p, "--max-n", type=int, default=1_000_000)
    p.set_defaults(func=cmd_params)

    return parser


# The JSON values an option of each argparse type accepts.
_CONFIG_TYPES = {int: (int,), _finite_float: (int, float), None: (str,)}


def _apply_config(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    # The probe knows no subcommand, so their required flags cannot stop it
    # before the file is read. A --config after the subcommand falls in the
    # rest, and with no subcommand nothing is read: both are usage errors.
    probe = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    probe.add_argument("--config")
    probe.add_argument("rest", nargs=argparse.REMAINDER)
    known = probe.parse_known_args(argv)[0]
    if known.config and known.rest:
        with open(known.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ParameterError("config file must hold a JSON object")
        options = parser._config_options
        for key, value in config.items():
            if key not in options:
                raise ParameterError(f"config key {key!r} is no option")
            for action in options[key]:
                # Only a value the option would accept from the command line.
                if value is None:
                    ok = action.default is None
                else:
                    ok = (not isinstance(value, bool)
                          and isinstance(value, _CONFIG_TYPES[action.type])
                          and (not isinstance(value, float)
                               or math.isfinite(value))
                          and (action.choices is None
                               or value in action.choices))
                if not ok:
                    raise ParameterError(
                        f"config value {value!r} does not fit option {key!r}")
                # The value replaces the option's own default; `required`
                # is checked on the command line only.
                action.default, action.required = value, False
    args = parser.parse_args(argv)
    # Every count, bound and seed is an int64 to numpy and a float to math.
    for key, value in vars(args).items():
        if isinstance(value, int) and abs(value) >= 2**63:
            raise ParameterError(
                f"{key}'s magnitude is past the int64 limit 2^63 - 1")
    # Refused here, so that a command that draws nothing (params) does not
    # echo a seed that could seed nothing.
    if args.seed < 0:
        raise ParameterError(f"seed {args.seed} must be >= 0")
    return args


def main(argv=None) -> int:
    """Run one command; every failure maps to its exit code here."""
    try:
        args = _apply_config(build_parser(), argv)
        results, rows, header = args.func(args)
        config = {k: v for k, v in vars(args).items()
                  if k not in ("func", "config")}
        _emit(_report_envelope(args.command, config, results), args, rows,
              header)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except InfeasibleTargetError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ParameterError, ContractViolationError,
            AttackImpossibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
