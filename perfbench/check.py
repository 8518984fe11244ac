"""Correctness check of one CLI response against the independent reference.

check(argv, rc, stdout) returns None when the response is right and a
one-line reason when it is not.  Every request in the benchmark expects
exit code 0.

Tolerances, all relative unless named otherwise:

- PRINT = 5e-12: the CLI prints reals at 12 significant digits, so any
  printed value is off by up to half a unit in the twelfth digit.
- LGAMMA_ULPS = 2: the library takes log binomial coefficients as
  differences of log-gamma values near n ln n, so at n trials a
  log-likelihood may be off by E(n) = 2 * eps * (n+1) ln(n+1) absolute
  (eps = 2.2e-16), and a tail probability by E(n) relative; a ratio of two
  likelihoods gets 2 E(n).  Over 60 random (n, alpha, tail) cells from
  n = 20 to 1e6 the worst tail error was 1.04 eps (n+1) ln(n+1), at
  n = 132, and 0.66 of it at n = 7e5.
- NORMAL = 1e-13 on normal-distribution values, against
  statistics.NormalDist, plus an absolute 1e-15 on failure_prob, which the
  library forms as 1 - p_rep.
- A selected success count or a required n must equal the reference unless
  the reference finds the two candidates within tolerance of each other
  (a numerical tie); none has been seen on any seed tried.

tolerance_use records, per field, the largest observed error divided by its
tolerance, so a run shows how much headroom each tolerance leaves.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import reference as ref

PRINT = 5e-12
LGAMMA_ULPS = 2
NORMAL = 1e-13
FAILURE_ABS = 1e-15

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

_CSV_COLUMNS = ["alpha", "n", "s_selected", "p_achieved", "log_bf01", "posterior_h0", "mode", "tail"]
_DEFAULT_NS = (20, 40, 60, 80, 100, 200, 400, 600, 800, 1000, 2000, 4000, 6000, 8000, 10000)
_DEFAULT_ALPHAS = (0.05, 0.01, 0.001, 0.0001)

tolerance_use: dict[str, float] = {}


class Mismatch(Exception):
    pass


def _close(field: str, got, want: float, rtol: float, atol: float = 0.0) -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        raise Mismatch(f"{field}: expected a number, got {got!r}")
    tol = rtol * abs(want) + atol
    err = abs(got - want)
    if not err <= tol:
        raise Mismatch(f"{field}: got {got!r}, reference {want!r}")
    if tol > 0:
        tolerance_use[field] = max(tolerance_use.get(field, 0.0), err / tol)


def _equal(field: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{field}: got {got!r}, expected {want!r}")


def _lgamma_err(n: int) -> float:
    return LGAMMA_ULPS * sys.float_info.epsilon * (n + 1) * math.log(n + 1)


def _p_tol(n: int) -> float:
    return PRINT + _lgamma_err(n)


def _selection(n: int, alpha: float, strict: bool, two_sided: bool, s: int | None) -> None:
    """s must be the reference selection, or tie with it within tolerance."""
    want = ref.select(n, alpha, strict, two_sided)
    if s == want:
        return
    if s is None or want is None or abs(s - want) != 1:
        raise Mismatch(f"s at n={n}, alpha={alpha}: got {s}, reference {want}")
    d_got = abs(float(ref.p_value(n, s, two_sided)) - alpha)
    d_want = abs(float(ref.p_value(n, want, two_sided)) - alpha)
    # strict: one of the two p-values sits on alpha; nearest: both are as close
    gap = min(d_got, d_want) if strict else abs(d_got - d_want)
    if gap > _p_tol(n) * alpha:
        raise Mismatch(f"s at n={n}, alpha={alpha}: got {s}, reference {want}")


def _json(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"output is not JSON: {exc}") from None


def _flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _check_critical(argv: list[str], out: dict) -> None:
    n, alpha = int(_flag(argv, "--n")), float(_flag(argv, "--alpha"))
    mode, tail = _flag(argv, "--mode", "nearest"), _flag(argv, "--tail", "two")
    _equal("keys", sorted(out), sorted(["n", "alpha", "mode", "tail", "s", "p_achieved"]))
    _equal("n", out["n"], n)
    _equal("alpha", out["alpha"], alpha)
    _equal("mode", out["mode"], mode)
    _equal("tail", out["tail"], tail)
    _selection(n, alpha, mode == "strict", tail == "two", out["s"])
    _close("p_achieved", out["p_achieved"], float(ref.p_value(n, out["s"], tail == "two")), _p_tol(n))


def _check_posterior(argv: list[str], out: dict) -> None:
    n, s = int(_flag(argv, "--n")), int(_flag(argv, "--s"))
    a, b = int(_flag(argv, "--prior-a", "1")), int(_flag(argv, "--prior-b", "1"))
    pi0 = float(_flag(argv, "--pi0", "0.5"))
    ev = ref.evidence(n, s, a, b, Fraction(pi0))
    _equal("keys", sorted(out), sorted(["n", "s", "prior_a", "prior_b", "pi0", "log_l0", "log_l1",
                                        "bf01", "posterior_h0", "posterior_odds_h1"]))
    _equal("n", out["n"], n)
    _equal("s", out["s"], s)
    _equal("prior_a", out["prior_a"], float(a))
    _equal("prior_b", out["prior_b"], float(b))
    _equal("pi0", out["pi0"], pi0)
    log_tol = _lgamma_err(n)
    _close("log_l0", out["log_l0"], ref.ln(ev["l0"]), PRINT, log_tol)
    _close("log_l1", out["log_l1"], ref.ln(ev["l1"]), PRINT, log_tol)
    _close("bf01", out["bf01"], float(ev["bf01"]), PRINT + 2 * log_tol)
    _close("posterior_h0", out["posterior_h0"], float(ev["posterior_h0"]), PRINT + 2 * log_tol)
    _close("posterior_odds_h1", out["posterior_odds_h1"], float(ev["odds_h1"]), PRINT + 2 * log_tol)


def _check_diagnosticity(argv: list[str], out: dict) -> None:
    strict = _flag(argv, "--mode", "nearest") == "strict"
    odds = []
    for flag in ("--a", "--b"):
        alpha_text, n_text = _flag(argv, flag).split(",")
        alpha, n = float(alpha_text), int(n_text)
        s = ref.select(n, alpha, strict, True)
        odds.append((alpha, n, float(ref.evidence(n, s)["odds_h1"]), 2 * _lgamma_err(n)))
    _equal("keys", sorted(out), sorted(["a", "b", "odds_a", "odds_b", "ratio"]))
    for key, (alpha, n, want, tol) in zip(("a", "b"), odds):
        _equal(key, out[key], {"alpha": alpha, "n": n})
        _close(f"odds_{key}", out[f"odds_{key}"], want, PRINT + tol)
    _close("ratio", out["ratio"], odds[1][2] / odds[0][2], PRINT + odds[0][3] + odds[1][3])


def _check_prep(argv: list[str], out: dict) -> None:
    p = float(_flag(argv, "--p"))
    want, failure = ref.p_rep(p)
    _equal("keys", sorted(out), sorted(["p_in", "p_rep", "failure_prob"]))
    _equal("p_in", out["p_in"], p)
    _close("p_rep", out["p_rep"], want, PRINT + NORMAL)
    _close("failure_prob", out["failure_prob"], failure, PRINT + NORMAL, FAILURE_ABS)


def _check_power(argv: list[str], out: dict) -> None:
    args = [float(_flag(argv, f)) for f in ("--mu0", "--mu-alt", "--sigma", "--alpha", "--beta")]
    mu0, mu_alt, sigma, alpha, beta = args
    _equal("keys", sorted(out), sorted(["mu0", "mu_alt", "sigma", "alpha", "beta", "required_n",
                                        "achieved_power", "power_at"]))
    for key, value in zip(("mu0", "mu_alt", "sigma", "alpha", "beta"), args):
        _equal(key, out[key], value)
    n = out["required_n"]
    want = ref.required_n(mu0, mu_alt, sigma, alpha, beta)
    if n != want:  # allowed only when power at the smaller n ties with 1 - beta
        if not isinstance(n, int) or abs(n - want) != 1 or \
                abs(ref.power(min(n, want), mu0, mu_alt, sigma, alpha) - (1.0 - beta)) > NORMAL:
            raise Mismatch(f"required_n: got {n!r}, reference {want}")
    _close("achieved_power", out["achieved_power"], ref.power(n, mu0, mu_alt, sigma, alpha), PRINT + NORMAL)
    at = _flag(argv, "--show-power-at")
    if at is None:
        _equal("power_at", out["power_at"], None)
    else:
        _equal("power_at.n", (out["power_at"] or {}).get("n"), int(at))
        _close("power_at.power", out["power_at"]["power"], ref.power(int(at), mu0, mu_alt, sigma, alpha),
               PRINT + NORMAL)


@functools.cache
def _crossings() -> dict[tuple[float, float], int | None]:
    payload = json.loads((EXPECTED_DIR / "crossings.json").read_text())
    return {(float(c["alpha"]), float(c["level"])): c["n"] for c in payload["crossings"]}


def _check_crossing(argv: list[str], out: dict) -> None:
    alpha, level = float(_flag(argv, "--alpha")), float(_flag(argv, "--level"))
    _equal("keys", sorted(out), sorted(["alpha", "level", "mode", "tail", "n_max", "n"]))
    _equal("echo", (out["alpha"], out["level"], out["mode"], out["tail"], out["n_max"]),
           (alpha, level, "nearest", "two", 20000))
    _equal("n", out["n"], _crossings()[(alpha, level)])


def _sweep_rows(argv: list[str], stdout: str) -> list[list]:
    """Rows as [alpha, n, s, p, log_bf01, posterior, mode, tail] with None for empty fields."""
    if _flag(argv, "--format", "csv") == "json":
        payload = _json(stdout)
        if not isinstance(payload, list):
            raise Mismatch("sweep JSON is not an array")
        for rec in payload:
            _equal("json keys", sorted(rec), sorted(_CSV_COLUMNS))
        return [[rec[c] for c in _CSV_COLUMNS] for rec in payload]
    records = list(csv.reader(io.StringIO(stdout)))
    if not records:
        raise Mismatch("empty sweep output")
    _equal("csv header", records[0], _CSV_COLUMNS)
    rows = []
    for rec in records[1:]:
        if len(rec) != len(_CSV_COLUMNS):
            raise Mismatch(f"malformed csv row {rec!r}")
        conv = (float, int, int, float, float, float, str, str)
        rows.append([None if text == "" else f(text) for f, text in zip(conv, rec)])
    return rows


def _check_sweep(argv: list[str], stdout: str) -> None:
    if argv == ["sweep"]:
        _equal("default sweep csv", stdout, (EXPECTED_DIR / "default_sweep.csv").read_text())
    grid = _flag(argv, "--grid")
    ns = tuple(json.loads(Path(grid).read_text())) if grid else _DEFAULT_NS
    alphas_text = _flag(argv, "--alphas")
    alphas = tuple(float(a) for a in alphas_text.split(",")) if alphas_text else _DEFAULT_ALPHAS
    mode, tail = _flag(argv, "--mode", "nearest"), _flag(argv, "--tail", "two")
    rows = _sweep_rows(argv, stdout)
    _equal("cells", [(r[0], r[1]) for r in rows], [(a, n) for a in alphas for n in ns])
    for alpha, n, s, p, log_bf01, post, row_mode, row_tail in rows:
        _equal("mode", row_mode, mode)
        _equal("tail", row_tail, tail)
        if ref.select(n, alpha, True, tail == "two") is None:
            # a sweep leaves a cell empty in either mode when no s reaches alpha
            _equal(f"infeasible cell n={n}, alpha={alpha}", (s, p, log_bf01, post), (None, None, None, None))
            continue
        _selection(n, alpha, mode == "strict", tail == "two", s)
        ev = ref.evidence(n, s)
        _close("sweep.p_achieved", p, float(ref.p_value(n, s, tail == "two")), _p_tol(n))
        _close("sweep.log_bf01", log_bf01, ref.ln(ev["bf01"]), PRINT, 2 * _lgamma_err(n))
        _close("sweep.posterior_h0", post, float(ev["posterior_h0"]), PRINT + 2 * _lgamma_err(n))


_CHECKERS = {"critical": _check_critical, "posterior": _check_posterior, "prep": _check_prep,
             "power": _check_power, "diagnosticity": _check_diagnosticity, "crossing": _check_crossing}


def check(argv: list[str], rc: int, stdout: str) -> str | None:
    """None if the response to argv is correct, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        if argv[0] == "sweep":
            _check_sweep(argv, stdout)
        else:
            out = _json(stdout)
            if not isinstance(out, dict):
                raise Mismatch("output is not a JSON object")
            _CHECKERS[argv[0]](argv, out)
    except Mismatch as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"
    return None
