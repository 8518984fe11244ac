"""Command-line surface: one subcommand per library operation.

Exit status: 0 on success, 2 on argument errors, 1 when a requested
computation is infeasible or output cannot be written.  Flags parse as plain
ints and floats; the library checks their ranges, and its ValueError is
printed as "error: ..." with status 2.  Standard output carries data only;
every diagnostic goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bayes_evidence import BetaPrior, evidence_at_threshold, posterior_h0
from .binomial_kernel import (
    BinomialOutcome,
    InfeasibleError,
    SelectionMode,
    TailConvention,
    select_barely_significant,
)
from .power_design import ZTestDesign, achieved_power, diagnosticity_gain, required_n
from .replicability import p_rep
from .sweep_report import (
    DEFAULT_ALPHAS,
    DEFAULT_N_VALUES,
    SweepGrid,
    dump_json,
    emit,
    find_crossing,
    run_sweep,
)

__all__ = ["parse_and_dispatch", "main"]

_MODES = {"nearest": SelectionMode.NEAREST_TO_ALPHA, "strict": SelectionMode.STRICT_AT_MOST_ALPHA}
_TAILS = {"two": TailConvention.TWO_SIDED_SYMMETRIC, "one": TailConvention.ONE_SIDED_UPPER}


def _alpha_n_pair(text: str) -> tuple[float, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected ALPHA,N (two comma-separated values), got {text!r}")
    return float(parts[0]), int(parts[1])


def _alpha_list(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p != "")


def _add_mode_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=sorted(_MODES), default="nearest",
                        help="how the barely-significant s is chosen (default: nearest)")


def _add_tail_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tail", choices=sorted(_TAILS), default="two",
                        help="sign-test tail convention (default: two, i.e. two-sided symmetric)")


def _add_prior_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--prior-a", type=float, default=1.0, metavar="R",
                        help="Beta prior shape a for the alternative (default: 1)")
    parser.add_argument("--prior-b", type=float, default=1.0, metavar="R",
                        help="Beta prior shape b for the alternative (default: 1)")


def _emit_json(obj) -> int:
    dump_json(obj, sys.stdout)
    return 0


def _cmd_posterior(args: argparse.Namespace) -> int:
    outcome = BinomialOutcome(args.n, args.s)
    report = posterior_h0(outcome, BetaPrior(args.prior_a, args.prior_b), args.pi0)
    return _emit_json({
        "n": args.n,
        "s": args.s,
        "prior_a": args.prior_a,
        "prior_b": args.prior_b,
        "pi0": args.pi0,
        "log_l0": report.log_l0,
        "log_l1": report.log_l1,
        "bf01": report.bf01,
        "posterior_h0": report.posterior_h0,
        "posterior_odds_h1": report.posterior_odds_h1,
    })


def _cmd_critical(args: argparse.Namespace) -> int:
    s, p_achieved = select_barely_significant(args.n, args.alpha, _MODES[args.mode], _TAILS[args.tail])
    return _emit_json({
        "n": args.n,
        "alpha": args.alpha,
        "mode": args.mode,
        "tail": args.tail,
        "s": s,
        "p_achieved": p_achieved,
    })


def _load_grid_file(path: str) -> tuple[int, ...]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read grid file {path!r}: {exc}") from exc
    if (not isinstance(payload, list) or not payload
            or any(isinstance(v, bool) or not isinstance(v, int) for v in payload)):
        raise ValueError(f"grid file {path!r} must hold a non-empty JSON array of integers")
    return tuple(payload)


def _cmd_sweep(args: argparse.Namespace) -> int:
    n_values = _load_grid_file(args.grid) if args.grid else DEFAULT_N_VALUES
    grid = SweepGrid(
        n_values=n_values,
        alphas=args.alphas if args.alphas is not None else DEFAULT_ALPHAS,
        mode=_MODES[args.mode],
        tail=_TAILS[args.tail],
        prior=BetaPrior(args.prior_a, args.prior_b),
    )
    rows = run_sweep(grid)
    emit(rows, args.format, args.out if args.out is not None else sys.stdout)
    return 0


def _cmd_crossing(args: argparse.Namespace) -> int:
    n = find_crossing(args.alpha, args.level, _MODES[args.mode], _TAILS[args.tail],
                      BetaPrior(args.prior_a, args.prior_b), args.n_max)
    return _emit_json({
        "alpha": args.alpha,
        "level": args.level,
        "mode": args.mode,
        "tail": args.tail,
        "n_max": args.n_max,
        "n": n,
    })


def _cmd_prep(args: argparse.Namespace) -> int:
    report = p_rep(args.p)
    return _emit_json({
        "p_in": report.p_in,
        "p_rep": report.p_rep,
        "failure_prob": report.failure_prob,
    })


def _cmd_power(args: argparse.Namespace) -> int:
    design = ZTestDesign(mu0=args.mu0, mu_alt=args.mu_alt, sigma=args.sigma,
                         alpha=args.alpha, beta=args.beta)
    n = required_n(design)
    power_at = None
    if args.show_power_at is not None:
        power_at = {"n": args.show_power_at, "power": achieved_power(args.show_power_at, design)}
    return _emit_json({
        "mu0": args.mu0,
        "mu_alt": args.mu_alt,
        "sigma": args.sigma,
        "alpha": args.alpha,
        "beta": args.beta,
        "required_n": n,
        "achieved_power": achieved_power(n, design),
        "power_at": power_at,
    })


def _cmd_diagnosticity(args: argparse.Namespace) -> int:
    gain = diagnosticity_gain(args.a, args.b, _MODES[args.mode],
                              BetaPrior(args.prior_a, args.prior_b))
    return _emit_json({
        "a": {"alpha": args.a[0], "n": args.a[1]},
        "b": {"alpha": args.b[0], "n": args.b[1]},
        "odds_a": gain.odds_a,
        "odds_b": gain.odds_b,
        "ratio": gain.ratio,
    })


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threshold-lab",
        description="Evidence calibration for significance thresholds: what a just-significant "
                    "result implies about the null, about replication, and about sample-size cost.",
        epilog="Defaults everywhere: mode=nearest, tail=two, Beta(1,1) prior, pi0=0.5, and the "
               f"built-in trial-count ladder {DEFAULT_N_VALUES[0]}..{DEFAULT_N_VALUES[-1]} "
               "(15 values) for sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("posterior", help="evidence report for an observed (n, s)",
                       description="Posterior probability of the point null theta=0.5 against a "
                                   "Beta-prior alternative, for n trials with s successes. "
                                   "Defaults: Beta(1,1) prior, pi0=0.5.")
    p.add_argument("--n", type=int, required=True, help="trial count")
    p.add_argument("--s", type=int, required=True, help="success count")
    _add_prior_flags(p)
    p.add_argument("--pi0", type=float, default=0.5, metavar="R",
                   help="prior probability of the null model (default: 0.5)")
    p.set_defaults(handler=_cmd_posterior)

    p = sub.add_parser("critical", help="barely-significant success count for (n, alpha)",
                       description="The success count whose sign-test p-value sits at the "
                                   "significance threshold. Defaults: mode=nearest, tail=two.")
    p.add_argument("--n", type=int, required=True, help="trial count")
    p.add_argument("--alpha", type=float, required=True, help="significance threshold")
    _add_mode_flag(p)
    _add_tail_flag(p)
    p.set_defaults(handler=_cmd_critical)

    p = sub.add_parser("sweep", help="posterior grid over alpha x n (CSV or JSON)",
                       description="Evaluate the barely-significant posterior over a grid of "
                                   "(alpha, n) cells. Defaults: the built-in 15-point trial-count "
                                   f"ladder {', '.join(str(n) for n in DEFAULT_N_VALUES)}; "
                                   "alphas 0.05, 0.01, 0.001, 0.0001; mode=nearest; tail=two; "
                                   "Beta(1,1) prior; CSV to standard output.")
    p.add_argument("--grid", metavar="FILE",
                   help="JSON file holding the list of trial counts (default: built-in ladder)")
    p.add_argument("--alphas", type=_alpha_list, metavar="LIST",
                   help="comma-separated significance levels, strictly decreasing "
                        "(default: 0.05,0.01,0.001,0.0001)")
    _add_mode_flag(p)
    _add_tail_flag(p)
    _add_prior_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default: csv)")
    p.add_argument("--out", metavar="PATH",
                   help="write to this file instead of standard output")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("crossing", help="first n whose posterior reaches a level",
                       description="Smallest trial count at which the barely-significant posterior "
                                   "first touches the given level (the curve is jittery, so this is "
                                   "first-touch). Every n up to n-max is scored, so null means no n "
                                   "reaches the level; the time grows linearly with the answer, or "
                                   "with n-max (about 0.2 s at 20000). Defaults: mode=nearest, "
                                   "tail=two, Beta(1,1) prior, n-max=20000.")
    p.add_argument("--alpha", type=float, required=True, help="significance threshold")
    p.add_argument("--level", type=float, required=True, help="posterior level to reach")
    p.add_argument("--n-max", type=int, default=20000,
                   help="largest n to consider (default: 20000)")
    _add_mode_flag(p)
    _add_tail_flag(p)
    _add_prior_flags(p)
    p.set_defaults(handler=_cmd_crossing)

    p = sub.add_parser("prep", help="replication probability for a realized p-value",
                       description="Probability that an equally powered replication reproduces "
                                   "the effect's direction, given a realized one-tailed p-value.")
    p.add_argument("--p", type=float, required=True, help="realized p-value")
    p.set_defaults(handler=_cmd_prep)

    p = sub.add_parser("power", help="one-sided z-test minimal sample size",
                       description="Minimal n for a one-sided z-test of mu0 vs mu-alt with known "
                                   "sigma to keep the type-II rate at or below beta.")
    p.add_argument("--mu0", type=float, required=True, help="null mean")
    p.add_argument("--mu-alt", type=float, required=True, help="alternative mean")
    p.add_argument("--sigma", type=float, required=True, help="known standard deviation")
    p.add_argument("--alpha", type=float, required=True, help="significance threshold")
    p.add_argument("--beta", type=float, required=True, help="maximum type-II error rate")
    p.add_argument("--show-power-at", type=int, metavar="INT",
                   help="also report achieved power at this n")
    p.set_defaults(handler=_cmd_power)

    p = sub.add_parser("diagnosticity", help="posterior odds against the null at two (alpha, n) points",
                       description="Compare the evidence carried by barely-significant results at "
                                   "two operating points; reports both odds and their ratio. "
                                   "Defaults: mode=nearest, Beta(1,1) prior.")
    p.add_argument("--a", type=_alpha_n_pair, required=True, metavar="ALPHA,N",
                   help="first operating point")
    p.add_argument("--b", type=_alpha_n_pair, required=True, metavar="ALPHA,N",
                   help="second operating point")
    _add_mode_flag(p)
    _add_prior_flags(p)
    p.set_defaults(handler=_cmd_diagnosticity)

    return parser


def parse_and_dispatch(argv: list[str] | None = None) -> int:
    """Run one CLI invocation and return its exit status (never raises SystemExit)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message; --help exits 0
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # inconsistent or out-of-range argument combinations
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(parse_and_dispatch())
