"""Command-line surface: one subcommand per library operation.

Exit status: 0 on success, 2 on argument errors, 1 when a requested
computation is infeasible or output cannot be written.  Flags parse as plain
ints and floats; the library checks their ranges, and its ValueError is
printed as "error: ..." with status 2; a flag value that does not parse is
argparse's usage error, which shows a value over 30 characters by its length.
Standard output carries data only; every diagnostic goes to standard error.

A call that names a command builds only that command's subparser, with the
same help text and messages as the full tree, which --help, no arguments or
an unknown command still get.
"""

from __future__ import annotations

import argparse
import json
import sys

from ._checks import _shown
from .bayes_evidence import BetaPrior, posterior_h0
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


def _number(kind: type):
    """int or float as a flag type: argparse's own message, but a value over 30 characters is shown by its length."""
    def parse(text: str):
        try:
            return kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {_shown(text)}") from None
    return parse


_int, _float = _number(int), _number(float)


def _alpha_n_pair(text: str) -> tuple[float, int]:
    values = text.split(",")
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected ALPHA,N (two comma-separated values), got {_shown(text)}")
    try:
        alpha = float(values[0])
    except ValueError:
        raise argparse.ArgumentTypeError(f"ALPHA must be a real number, got {_shown(values[0])}") from None
    try:
        return alpha, int(values[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"N must be an integer, got {_shown(values[1])}") from None


def _alpha_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated real numbers, got {_shown(text)}") from None


def _add_mode_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=sorted(m.value for m in SelectionMode), default="nearest",
                        help="how the barely-significant s is chosen (default: nearest)")


def _add_tail_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tail", choices=sorted(t.value for t in TailConvention), default="two",
                        help="sign-test tail convention (default: two, i.e. two-sided symmetric)")


def _add_prior_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--prior-a", type=_float, default=1.0, metavar="R",
                        help="Beta prior shape a for the alternative (default: 1)")
    parser.add_argument("--prior-b", type=_float, default=1.0, metavar="R",
                        help="Beta prior shape b for the alternative (default: 1)")


def _cmd_posterior(args: argparse.Namespace) -> dict:
    outcome = BinomialOutcome(args.n, args.s)
    report = posterior_h0(outcome, BetaPrior(args.prior_a, args.prior_b), args.pi0)
    return {
        **vars(outcome),
        "prior_a": args.prior_a,
        "prior_b": args.prior_b,
        "pi0": args.pi0,
        **vars(report),
    }


def _cmd_critical(args: argparse.Namespace) -> dict:
    critical = select_barely_significant(args.n, args.alpha, SelectionMode(args.mode),
                                         TailConvention(args.tail))
    return {
        "n": args.n,
        "alpha": args.alpha,
        "mode": args.mode,
        "tail": args.tail,
        **critical._asdict(),
    }


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


def _cmd_sweep(args: argparse.Namespace) -> None:
    n_values = _load_grid_file(args.grid) if args.grid else DEFAULT_N_VALUES
    grid = SweepGrid(
        n_values=n_values,
        alphas=args.alphas if args.alphas is not None else DEFAULT_ALPHAS,
        mode=SelectionMode(args.mode),
        tail=TailConvention(args.tail),
        prior=BetaPrior(args.prior_a, args.prior_b),
    )
    rows = run_sweep(grid)
    emit(rows, args.format, args.out if args.out is not None else sys.stdout)


def _cmd_crossing(args: argparse.Namespace) -> dict:
    n = find_crossing(args.alpha, args.level, SelectionMode(args.mode), TailConvention(args.tail),
                      BetaPrior(args.prior_a, args.prior_b), args.n_max)
    return {
        "alpha": args.alpha,
        "level": args.level,
        "mode": args.mode,
        "tail": args.tail,
        "n_max": args.n_max,
        "n": n,
    }


def _cmd_prep(args: argparse.Namespace) -> dict:
    return vars(p_rep(args.p))


def _cmd_power(args: argparse.Namespace) -> dict:
    design = ZTestDesign(mu0=args.mu0, mu_alt=args.mu_alt, sigma=args.sigma,
                         alpha=args.alpha, beta=args.beta)
    n = required_n(design)
    power_at = None
    if args.show_power_at is not None:
        power_at = {"n": args.show_power_at, "power": achieved_power(args.show_power_at, design)}
    return {
        **vars(design),
        "required_n": n,
        "achieved_power": achieved_power(n, design),
        "power_at": power_at,
    }


def _cmd_diagnosticity(args: argparse.Namespace) -> dict:
    gain = diagnosticity_gain(args.a, args.b, SelectionMode(args.mode),
                              BetaPrior(args.prior_a, args.prior_b))
    return {
        "a": {"alpha": args.a[0], "n": args.a[1]},
        "b": {"alpha": args.b[0], "n": args.b[1]},
        **gain._asdict(),
    }


_HANDLERS = {"posterior": _cmd_posterior, "critical": _cmd_critical, "sweep": _cmd_sweep, "crossing": _cmd_crossing,
             "prep": _cmd_prep, "power": _cmd_power, "diagnosticity": _cmd_diagnosticity}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every command's subparser, or only `command`'s when it names one (a fifth of the cost)."""
    every = command not in _HANDLERS
    parser = argparse.ArgumentParser(
        prog="threshold-lab",
        description="Evidence calibration for significance thresholds: what a just-significant "
                    "result implies about the null, about replication, and about sample-size cost.",
        epilog="Defaults everywhere: mode=nearest, tail=two, Beta(1,1) prior, pi0=0.5, and the "
               f"built-in trial-count ladder {DEFAULT_N_VALUES[0]}..{DEFAULT_N_VALUES[-1]} "
               "(15 values) for sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    if every or command == "posterior":
        p = sub.add_parser("posterior", help="evidence report for an observed (n, s)",
                           description="Posterior probability of the point null theta=0.5 against a "
                                       "Beta-prior alternative, for n trials with s successes. "
                                       "Defaults: Beta(1,1) prior, pi0=0.5.")
        p.add_argument("--n", type=_int, required=True, help="trial count")
        p.add_argument("--s", type=_int, required=True, help="success count")
        _add_prior_flags(p)
        p.add_argument("--pi0", type=_float, default=0.5, metavar="R",
                       help="prior probability of the null model (default: 0.5)")

    if every or command == "critical":
        p = sub.add_parser("critical", help="barely-significant success count for (n, alpha)",
                           description="The success count whose sign-test p-value sits at the "
                                       "significance threshold. Defaults: mode=nearest, tail=two.")
        p.add_argument("--n", type=_int, required=True, help="trial count")
        p.add_argument("--alpha", type=_float, required=True, help="significance threshold")
        _add_mode_flag(p)
        _add_tail_flag(p)

    if every or command == "sweep":
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

    if every or command == "crossing":
        p = sub.add_parser("crossing", help="first n whose posterior reaches a level",
                           description="Smallest trial count at which the barely-significant posterior "
                                       "first touches the given level (the curve is jittery, so this is "
                                       "first-touch). Every n up to n-max is scored, so null means no n "
                                       "reaches the level; the time grows linearly with the answer, or "
                                       "with n-max (about 0.06 s at 20000). Defaults: mode=nearest, "
                                       "tail=two, Beta(1,1) prior, n-max=20000.")
        p.add_argument("--alpha", type=_float, required=True, help="significance threshold")
        p.add_argument("--level", type=_float, required=True, help="posterior level to reach")
        p.add_argument("--n-max", type=_int, default=20000,
                       help="largest n to consider (default: 20000)")
        _add_mode_flag(p)
        _add_tail_flag(p)
        _add_prior_flags(p)

    if every or command == "prep":
        p = sub.add_parser("prep", help="replication probability for a realized p-value",
                           description="Probability that an equally powered replication reproduces "
                                       "the effect's direction, given a realized one-tailed p-value.")
        p.add_argument("--p", type=_float, required=True, help="realized p-value")

    if every or command == "power":
        p = sub.add_parser("power", help="one-sided z-test minimal sample size",
                           description="Minimal n for a one-sided z-test of mu0 vs mu-alt with known "
                                       "sigma to keep the type-II rate at or below beta.")
        p.add_argument("--mu0", type=_float, required=True, help="null mean")
        p.add_argument("--mu-alt", type=_float, required=True, help="alternative mean")
        p.add_argument("--sigma", type=_float, required=True, help="known standard deviation")
        p.add_argument("--alpha", type=_float, required=True, help="significance threshold")
        p.add_argument("--beta", type=_float, required=True, help="maximum type-II error rate")
        p.add_argument("--show-power-at", type=_int, metavar="INT",
                       help="also report achieved power at this n")

    if every or command == "diagnosticity":
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

    return parser


def parse_and_dispatch(argv: list[str] | None = None) -> int:
    """Run one CLI invocation and return its exit status (never raises SystemExit)."""
    argv = sys.argv[1:] if argv is None else argv
    try:  # a known command's parser holds only its subparser; help and errors read the same as the full tree's
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message and exits 0 (--help) or 2
        return exc.code
    try:
        payload = _HANDLERS[args.command](args)  # None when the handler wrote its own output (sweep)
        if payload is not None:
            dump_json(payload, sys.stdout)
        return 0
    except (ValueError, OSError) as exc:  # an InfeasibleError, unwritable output, or a bad argument combination
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (InfeasibleError, OSError)) else 2


def main() -> None:
    sys.exit(parse_and_dispatch())
