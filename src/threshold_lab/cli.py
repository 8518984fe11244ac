"""Command-line surface: one subcommand per library operation.

Exit status: 0 on success, 2 on argument errors, 1 when a requested
computation is infeasible or output cannot be written.  Flags parse as plain
ints and floats; the library checks their ranges, and its ValueError is
printed as "error: ..." with status 2; a flag value that does not parse is
argparse's usage error, which shows a value over 30 characters by its length.
Standard output carries data only; every diagnostic goes to standard error.

Each command is declared once, in _COMMANDS, and each flag once, in _FLAGS.
A call that names a command builds only that command's subparser, with the
same help text and messages as the full tree, which --help, no arguments or
an unknown command still get.

A call loads only the library modules that its command runs: each handler
imports what it calls from the one module that does its work, which also
binds the records and enums it takes, so that a warm process pays one cached
module lookup per call.  A text or flag that shows a library value, the
--mode and --tail choices and the default trial-count ladder, is read when a
parser first shows it; the full tree reads them all.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from ._checks import InfeasibleError, _shown
from ._format import dump_json

__all__ = ["parse_and_dispatch", "main"]


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


def _cmd_posterior(args: argparse.Namespace) -> dict:
    from .bayes_evidence import BetaPrior, BinomialOutcome, posterior_h0

    outcome = BinomialOutcome(args.n, args.s)
    report = posterior_h0(outcome, BetaPrior(args.prior_a, args.prior_b), args.pi0)
    return {
        **outcome._asdict(),
        "prior_a": args.prior_a,
        "prior_b": args.prior_b,
        "pi0": args.pi0,
        **report._asdict(),
    }


def _cmd_critical(args: argparse.Namespace) -> dict:
    from .binomial_kernel import SelectionMode, TailConvention, select_barely_significant

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
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read grid file {path!r}: {getattr(exc, 'strerror', None) or exc}") from exc
    if (not isinstance(payload, list) or not payload
            or any(isinstance(v, bool) or not isinstance(v, int) for v in payload)):
        raise ValueError(f"grid file {path!r} must hold a non-empty JSON array of integers")
    return tuple(payload)


def _cmd_sweep(args: argparse.Namespace) -> None:
    from .sweep_report import (DEFAULT_ALPHAS, DEFAULT_N_VALUES, BetaPrior, SelectionMode, SweepGrid, TailConvention,
                               emit, run_sweep)

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
    from .sweep_report import BetaPrior, SelectionMode, TailConvention, find_crossing

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
    from .replicability import p_rep

    return p_rep(args.p)._asdict()


def _cmd_power(args: argparse.Namespace) -> dict:
    from .power_design import ZTestDesign, achieved_power, required_n

    design = ZTestDesign(mu0=args.mu0, mu_alt=args.mu_alt, sigma=args.sigma,
                         alpha=args.alpha, beta=args.beta)
    n = required_n(design)
    power_at = None
    if args.show_power_at is not None:
        power_at = {"n": args.show_power_at, "power": achieved_power(args.show_power_at, design)}
    return {
        **design._asdict(),
        "required_n": n,
        "achieved_power": achieved_power(n, design),
        "power_at": power_at,
    }


def _cmd_diagnosticity(args: argparse.Namespace) -> dict:
    from .power_design import BetaPrior, SelectionMode, diagnosticity_gain

    gain = diagnosticity_gain(args.a, args.b, SelectionMode(args.mode),
                              BetaPrior(args.prior_a, args.prior_b))
    return {
        "a": {"alpha": args.a[0], "n": args.a[1]},
        "b": {"alpha": args.b[0], "n": args.b[1]},
        **gain._asdict(),
    }


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose own messages show a command-line value of over 30 characters by its length."""

    def parse_known_args(self, args=None, namespace=None):
        self.argv = sys.argv[1:] if args is None else args  # the values error() shortens
        return super().parse_known_args(args, namespace)

    def error(self, message):
        for value in (part for arg in self.argv for part in (arg, arg.partition("=")[2]) if len(part) > 30):
            message = message.replace(repr(value), _shown(value)).replace(value, _shown(value))
        super().error(message)


# The flags and texts that show a library value, read once, when a parser first shows them: a command that does not
# show them imports neither the selection kernel (for the --mode and --tail choices) nor the sweep (for its ladder).
@functools.cache
def _mode_flag() -> dict:
    from .binomial_kernel import SelectionMode

    return dict(choices=tuple(sorted(m.value for m in SelectionMode)), default="nearest",
                help="how the barely-significant s is chosen (default: nearest)")


@functools.cache
def _tail_flag() -> dict:
    from .binomial_kernel import TailConvention

    return dict(choices=tuple(sorted(t.value for t in TailConvention)), default="two",
                help="sign-test tail convention (default: two, i.e. two-sided symmetric)")


@functools.cache
def _ladder() -> tuple[int, ...]:
    from .sweep_report import DEFAULT_N_VALUES

    return DEFAULT_N_VALUES


# Each flag's argparse keywords, once, or the function that reads them; a command lists the flags it takes in _COMMANDS.
_FLAGS = {
    "--n": dict(type=int, required=True, help="trial count"),
    "--s": dict(type=int, required=True, help="success count"),
    "--alpha": dict(type=float, required=True, help="significance threshold"),
    "--mode": _mode_flag,
    "--tail": _tail_flag,
    "--prior-a": dict(type=float, default=1.0, metavar="R",
                      help="Beta prior shape a for the alternative (default: 1)"),
    "--prior-b": dict(type=float, default=1.0, metavar="R",
                      help="Beta prior shape b for the alternative (default: 1)"),
    "--pi0": dict(type=float, default=0.5, metavar="R", help="prior probability of the null model (default: 0.5)"),
    "--grid": dict(metavar="FILE", help="JSON file holding the list of trial counts (default: built-in ladder)"),
    "--alphas": dict(type=_alpha_list, metavar="LIST", help="comma-separated significance levels, strictly "
                                                             "decreasing (default: 0.05,0.01,0.001,0.0001)"),
    "--format": dict(choices=("csv", "json"), default="csv", help="output format (default: csv)"),
    "--out": dict(metavar="PATH", help="write to this file instead of standard output"),
    "--level": dict(type=float, required=True, help="posterior level to reach"),
    "--n-max": dict(type=int, default=20000, help="largest n to consider (default: 20000)"),
    "--p": dict(type=float, required=True, help="realized p-value"),
    "--mu0": dict(type=float, required=True, help="null mean"),
    "--mu-alt": dict(type=float, required=True, help="alternative mean"),
    "--sigma": dict(type=float, required=True, help="known standard deviation"),
    "--beta": dict(type=float, required=True, help="maximum type-II error rate"),
    "--show-power-at": dict(type=int, metavar="INT", help="also report achieved power at this n"),
    "--a": dict(type=_alpha_n_pair, required=True, metavar="ALPHA,N", help="first operating point"),
    "--b": dict(type=_alpha_n_pair, required=True, metavar="ALPHA,N", help="second operating point"),
}

# Each command once: (handler, help, description or the function that reads it, its flags in --help order).
_COMMANDS = {
    "posterior": (_cmd_posterior, "evidence report for an observed (n, s)",
                  "Posterior probability of the point null theta=0.5 against a Beta-prior alternative, for n "
                  "trials with s successes. Defaults: Beta(1,1) prior, pi0=0.5.",
                  ("--n", "--s", "--prior-a", "--prior-b", "--pi0")),
    "critical": (_cmd_critical, "barely-significant success count for (n, alpha)",
                 "The success count whose sign-test p-value sits at the significance threshold. Defaults: "
                 "mode=nearest, tail=two.", ("--n", "--alpha", "--mode", "--tail")),
    "sweep": (_cmd_sweep, "posterior grid over alpha x n (CSV or JSON)",
              lambda: "Evaluate the barely-significant posterior over a grid of (alpha, n) cells. Defaults: the "
                      f"built-in {len(_ladder())}-point trial-count ladder {', '.join(map(str, _ladder()))}; alphas "
                      "0.05, 0.01, 0.001, 0.0001; mode=nearest; tail=two; Beta(1,1) prior; CSV to standard output.",
              ("--grid", "--alphas", "--mode", "--tail", "--prior-a", "--prior-b", "--format", "--out")),
    "crossing": (_cmd_crossing, "first n whose posterior reaches a level",
                 "Smallest trial count at which the barely-significant posterior first touches the given level "
                 "(the curve is jittery, so this is first-touch). Null means no n up to n-max reaches it. Under the "
                 "flat prior the search skips every n that a certified bound on the posterior rules out, so at alpha "
                 ">= 1e-4 a level that no n reaches returns after a few hundred n; under another prior every n is "
                 "scored, so the time grows linearly with the answer, or with n-max (about 0.05 s at 20000). "
                 "Defaults: mode=nearest, tail=two, Beta(1,1) prior, n-max=20000.",
                 ("--alpha", "--level", "--n-max", "--mode", "--tail", "--prior-a", "--prior-b")),
    "prep": (_cmd_prep, "replication probability for a realized p-value",
             "Probability that an equally powered replication reproduces the effect's direction, given a "
             "realized one-tailed p-value.", ("--p",)),
    "power": (_cmd_power, "one-sided z-test minimal sample size",
              "Minimal n for a one-sided z-test of mu0 vs mu-alt with known sigma to keep the type-II rate at or "
              "below beta.", ("--mu0", "--mu-alt", "--sigma", "--alpha", "--beta", "--show-power-at")),
    "diagnosticity": (_cmd_diagnosticity, "posterior odds against the null at two (alpha, n) points",
                      "Compare the evidence carried by barely-significant results at two operating points; "
                      "reports both odds and their ratio. Defaults: mode=nearest, Beta(1,1) prior.",
                      ("--a", "--b", "--mode", "--prior-a", "--prior-b")),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every command's subparser, or only `command`'s when it names one (a fifth of the cost).
    Only the full tree's help prints the epilog, so only the full tree reads the ladder for it."""
    full = command not in _COMMANDS
    parser = _Parser(
        prog="threshold-lab",
        description="Evidence calibration for significance thresholds: what a just-significant "
                    "result implies about the null, about replication, and about sample-size cost.",
        epilog="Defaults everywhere: mode=nearest, tail=two, Beta(1,1) prior, pi0=0.5, and the "
               f"built-in trial-count ladder {_ladder()[0]}..{_ladder()[-1]} "
               f"({len(_ladder())} values) for sweeps." if full else None,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in _COMMANDS if full else [command]:
        _, help_text, description, flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text, description=description() if callable(description) else description)
        for flag in flags:
            p.add_argument(flag, **(_FLAGS[flag]() if callable(_FLAGS[flag]) else _FLAGS[flag]))
    return parser


def parse_and_dispatch(argv: list[str] | None = None) -> int:
    """Run one CLI invocation and return its exit status (never raises SystemExit)."""
    argv = sys.argv[1:] if argv is None else argv
    try:  # a known command's parser holds only its subparser; help and errors read the same as the full tree's
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message and exits 0 (--help) or 2
        return exc.code
    try:
        payload = _COMMANDS[args.command][0](args)  # None when the handler wrote its own output (sweep)
        if payload is not None:
            dump_json(payload, sys.stdout)
        return 0
    except (ValueError, OSError) as exc:  # an InfeasibleError, unwritable output, or a bad argument combination
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (InfeasibleError, OSError)) else 2


def main() -> None:
    sys.exit(parse_and_dispatch())
