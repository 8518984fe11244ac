"""Regenerate the committed answers under perfbench/expected/.

Usage, from the root of a threshold-lab checkout:

    PYTHONPATH=src python3 perfbench/make_expected.py

default_sweep.csv is the CLI's default `sweep` output, written only after
every row passes the independent reference check, so the file pins bytes
that are known to be right.  crossings.json holds the first n at which the
barely-significant posterior (nearest mode, two-sided, flat prior) reaches
each level, found by a brute-force forward scan over every n with the
reference, not with the library's find_crossing.  The scan also records,
for each answer, how close the nearest miss before it came to the level,
which shows no answer rests on a float tie.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction

import reference as ref
from check import EXPECTED_DIR, check
from workloads import CROSSING_ALPHAS, CROSSING_LEVELS

N_MAX = 20000  # the CLI's default crossing search limit


def default_sweep() -> str:
    from threshold_lab.cli import parse_and_dispatch

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = parse_and_dispatch(["sweep"])
    text = out.getvalue()
    # the same request spelled out, so that check() judges the rows rather
    # than comparing them with the file this writes
    problem = check(["sweep", "--mode", "nearest"], rc, text)
    if problem:
        raise SystemExit(f"default sweep fails the reference check: {problem}")
    return text


def crossings() -> list[dict]:
    answers = []
    for alpha_text in CROSSING_ALPHAS:
        alpha = float(alpha_text)
        levels = {lv: None for lv in CROSSING_LEVELS}
        closest = {lv: None for lv in CROSSING_LEVELS}
        n = 0
        while n < N_MAX and any(v is None for v in levels.values()):
            n += 1
            if ref.p_value(n, n, True) > Fraction(alpha):
                continue  # no success count reaches alpha; the library skips these n too
            s = ref.select(n, alpha, False, True)
            post = ref.evidence(n, s)["posterior_h0"]
            for lv in CROSSING_LEVELS:
                if levels[lv] is not None:
                    continue
                gap = abs(float(post) - float(lv))
                if float(post) >= float(lv):
                    levels[lv] = n
                closest[lv] = gap if closest[lv] is None else min(closest[lv], gap)
            ref.upper_tail.cache_clear()
            ref.pmf.cache_clear()
        for lv in CROSSING_LEVELS:
            answers.append({"alpha": alpha_text, "level": lv, "n": levels[lv], "min_gap": closest[lv]})
            print(f"alpha={alpha_text} level={lv}: n={levels[lv]} (closest approach {closest[lv]:.3g})",
                  file=sys.stderr)
    return answers


def main() -> None:
    EXPECTED_DIR.mkdir(exist_ok=True)
    sweep = default_sweep()
    payload = {
        "method": "forward scan of every n with perfbench/reference.py; nearest mode, two-sided, "
                  "Beta(1,1) prior, pi0 0.5, n_max 20000",
        "crossings": crossings(),
    }
    (EXPECTED_DIR / "default_sweep.csv").write_text(sweep)
    (EXPECTED_DIR / "crossings.json").write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
