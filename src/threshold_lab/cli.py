"""Command-line surface: one subcommand per library operation.

Exit status: 0 on success, 2 on argument errors, 1 when a requested
computation is infeasible or output cannot be written.  Flags parse as plain
ints and floats; the library checks their ranges, and its ValueError is
printed as "error: ..." with status 2; a flag value that does not parse is
argparse's usage error, which shows a value over 30 characters by its length.
Standard output carries data only; every diagnostic goes to standard error.

Each command is declared once, in _COMMANDS, and each flag once, in _FLAGS.
A call that names a command parses with one parser, that command's own, whose
help text and messages are those of its subparser in the full tree.  The full
tree is built only for --help, no arguments, an unknown command, or arguments
left over, which its top level reports.

A call loads only the library modules that its command runs: each handler
imports what it calls from the one module that does its work, so that a warm
process pays one cached module lookup per call.  The enums, the default grid
and the output format that every parser or handler may show come from
_checks, which imports no library module.
"""

from __future__ import annotations

import argparse
import json
import sys

from ._checks import DEFAULT_ALPHAS, DEFAULT_N_VALUES, InfeasibleError, SelectionMode, TailConvention, _shown, dump_json

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
    from .binomial_kernel import select_barely_significant

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
    except (OSError, ValueError) as exc:  # bad UTF-8, bad JSON and an int past the digit limit are ValueErrors
        raise ValueError(f"cannot read grid file {path!r}: {getattr(exc, 'strerror', None) or exc}") from exc
    if (not isinstance(payload, list) or not payload
            or any(isinstance(v, bool) or not isinstance(v, int) for v in payload)):
        raise ValueError(f"grid file {path!r} must hold a non-empty JSON array of integers")
    return tuple(payload)


def _cmd_sweep(args: argparse.Namespace) -> None:
    from .sweep_report import BetaPrior, SweepGrid, emit, run_sweep

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
    from .sweep_report import BetaPrior, find_crossing

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
    from .power_design import BetaPrior, diagnosticity_gain

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


# Each flag's argparse keywords, once; a command lists the flags it takes in _COMMANDS.
_FLAGS = {
    "--n": dict(type=int, required=True, help="trial count"),
    "--s": dict(type=int, required=True, help="success count"),
    "--alpha": dict(type=float, required=True, help="significance threshold"),
    "--mode": dict(choices=tuple(sorted(m.value for m in SelectionMode)), default="nearest",
                   help="how the barely-significant s is chosen (default: nearest)"),
    "--tail": dict(choices=tuple(sorted(t.value for t in TailConvention)), default="two",
                   help="sign-test tail convention (default: two, i.e. two-sided symmetric)"),
    "--prior-a": dict(type=float, default=1.0, metavar="R",
                      help="Beta prior shape a for the alternative (default: 1)"),
    "--prior-b": dict(type=float, default=1.0, metavar="R",
                      help="Beta prior shape b for the alternative (default: 1)"),
    "--pi0": dict(type=float, default=0.5, metavar="R", help="prior probability of the null model (default: 0.5)"),
    "--grid": dict(metavar="FILE", help="JSON file holding the list of trial counts (default: built-in ladder)"),
    "--alphas": dict(type=_alpha_list, metavar="LIST", help="comma-separated significance levels, strictly "
                     f"decreasing (default: {','.join(map(str, DEFAULT_ALPHAS))})"),
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

# Each command once: (handler, help, description, its flags in --help order).
_COMMANDS = {
    "posterior": (_cmd_posterior, "evidence report for an observed (n, s)",
                  "Posterior probability of the point null theta=0.5 against a Beta-prior alternative, for n "
                  "trials with s successes. Defaults: Beta(1,1) prior, pi0=0.5.",
                  ("--n", "--s", "--prior-a", "--prior-b", "--pi0")),
    "critical": (_cmd_critical, "barely-significant success count for (n, alpha)",
                 "The success count whose sign-test p-value sits at the significance threshold. Defaults: "
                 "mode=nearest, tail=two.", ("--n", "--alpha", "--mode", "--tail")),
    "sweep": (_cmd_sweep, "posterior grid over alpha x n (CSV or JSON)",
              "Evaluate the barely-significant posterior over a grid of (alpha, n) cells. Defaults: the built-in "
              f"{len(DEFAULT_N_VALUES)}-point trial-count ladder {', '.join(map(str, DEFAULT_N_VALUES))}; alphas "
              f"{', '.join(map(str, DEFAULT_ALPHAS))}; mode=nearest; tail=two; Beta(1,1) prior; CSV to standard "
              "output.", ("--grid", "--alphas", "--mode", "--tail", "--prior-a", "--prior-b", "--format", "--out")),
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


def _command_parser(name: str, add_parser=None) -> argparse.ArgumentParser:
    """name's own parser, or with add_parser its subparser in the full tree; either has its description and flags."""
    _, help_text, description, flags = _COMMANDS[name]
    parser = (add_parser(name, help=help_text, description=description) if add_parser
              else _Parser(prog=f"threshold-lab {name}", description=description))
    for flag in flags:
        parser.add_argument(flag, **_FLAGS[flag])
    return parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full tree, the top level and every command's subparser; or, when `command` names one, that command's own
    parser, which has the prog, description and flags of its subparser in the tree (an eighth of the parsers)."""
    if command in _COMMANDS:
        return _command_parser(command)
    parser = _Parser(
        prog="threshold-lab",
        description="Evidence calibration for significance thresholds: what a just-significant "
                    "result implies about the null, about replication, and about sample-size cost.",
        epilog="Defaults everywhere: mode=nearest, tail=two, Beta(1,1) prior, pi0=0.5, and the "
               f"built-in trial-count ladder {DEFAULT_N_VALUES[0]}..{DEFAULT_N_VALUES[-1]} "
               f"({len(DEFAULT_N_VALUES)} values) for sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in _COMMANDS:
        _command_parser(name, sub.add_parser)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv's namespace, as the full tree reads it.  A known command parses the rest of argv with its own parser
    alone, which prints the same help and errors as its subparser; arguments left over go to the full tree, whose top
    level reports them, as do --help, no arguments and an unknown command."""
    if argv and argv[0] in _COMMANDS:
        args, extras = build_parser(argv[0]).parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return build_parser().parse_args(argv)


def parse_and_dispatch(argv: list[str] | None = None) -> int:
    """Run one CLI invocation and return its exit status (never raises SystemExit)."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
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
