"""Acceptance gate: one test per shipped guarantee, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s -v` to see the verdict lines;
each test also asserts, so the gate fails loudly under plain pytest.
"""

import io
import math
import random

from threshold_lab import (
    DEFAULT_N_VALUES,
    BetaPrior,
    BinomialModel,
    BinomialOutcome,
    InfeasibleError,
    SelectionMode,
    ZTestDesign,
    diagnosticity_gain,
    emit,
    find_crossing,
    log_marginal_h1,
    log_pmf,
    normal_cdf,
    normal_quantile,
    p_rep,
    parse_csv,
    posterior_h0,
    required_n,
    select_barely_significant,
)

import oracles
import reference


def _report(num, ok, label, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def _posteriors_by_cell(rows):
    return {(r.alpha, r.n): r.posterior_h0 for r in rows}


def test_criterion_01_posterior_spot_values(default_rows):
    posts = _posteriors_by_cell(default_rows)
    at_05 = posts[(0.05, 100)]
    at_01 = posts[(0.01, 100)]
    at_4 = posts[(0.0001, 100)]
    ok = (abs(at_05 - 0.52) <= 0.02) and (abs(at_01 - 0.22) <= 0.02) and (at_4 < 0.01)
    _report(
        1, ok, "posterior at n=100 under defaults",
        f"alpha=.05 -> {at_05:.4f} (want .52±.02), alpha=.01 -> {at_01:.4f} (want .22±.02), "
        f"alpha=.0001 -> {at_4:.4f} (want < .01)",
    )


def test_criterion_02_small_sample_bound_at_alpha_001(default_rows):
    posts = {r.n: r.posterior_h0 for r in default_rows if r.alpha == 0.001 and r.n <= 100}
    value_100 = posts[100]
    # the n=100 point is pinned to the exact-rational computation so the
    # logged figure is itself verified, not just bounded
    s_100 = next(r.s_selected for r in default_rows if r.alpha == 0.001 and r.n == 100)
    pinned = float(reference.evidence(100, s_100)["posterior_h0"])
    ok = all(v < 0.06 for v in posts.values()) and abs(value_100 - pinned) <= 1e-12 * pinned
    _report(
        2, ok, "posterior stays under .06 for n <= 100 at alpha=.001",
        f"values { {n: round(v, 5) for n, v in sorted(posts.items())} }; "
        f"the n=100 value, logged for the record, is {value_100:.12g}",
    )


def test_criterion_03_whole_range_bound_at_alpha_0001(default_rows):
    posts = {r.n: r.posterior_h0 for r in default_rows if r.alpha == 0.0001}
    worst_n = max(posts, key=posts.get)
    ok = len(posts) == 15 and all(v < 0.06 for v in posts.values())
    _report(
        3, ok, "posterior stays under .06 across the whole ladder at alpha=.0001",
        f"15 points, max {posts[worst_n]:.5f} at n={worst_n}",
    )


def test_criterion_04_crossing_locations():
    c1 = find_crossing(0.05, 0.50)
    c2 = find_crossing(0.01, 0.50)
    c3 = find_crossing(0.001, 0.25)
    ok = (c1 is not None and 60 <= c1 <= 140
          and c2 is not None and 900 <= c2 <= 1700
          and c3 is not None and 8000 <= c3 <= 11000)
    _report(
        4, ok, "posterior level crossings",
        f"(.05, .50) -> {c1} (want 60..140), (.01, .50) -> {c2} (want 900..1700), "
        f"(.001, .25) -> {c3} (want 8000..11000)",
    )


def test_criterion_05_replication_probability_curve():
    targets = {0.05: 0.877, 0.01: 0.950, 0.001: 0.986, 0.0001: 0.996}
    reports = {p: p_rep(p) for p in targets}
    ok = all(abs(reports[p].p_rep - want) <= 1e-3 for p, want in targets.items())
    ok = ok and all(
        abs(reports[p].failure_prob - (1.0 - want)) <= 1e-3 for p, want in targets.items()
    )
    got = ", ".join(f"p={p:g} -> {r.p_rep:.3f}" for p, r in sorted(reports.items(), reverse=True))
    _report(5, ok, "replication probability at the standard thresholds", got)


def test_criterion_06_minimal_sample_sizes():
    lenient = required_n(ZTestDesign(mu0=40.0, mu_alt=43.0, sigma=8.0, alpha=0.05, beta=0.02))
    strict = required_n(ZTestDesign(mu0=40.0, mu_alt=43.0, sigma=8.0, alpha=0.01, beta=0.02))
    ok = lenient == 98 and strict == 137
    _report(
        6, ok, "one-sided z-test minimal n (mu 40 vs 43, sigma 8, beta .02)",
        f"alpha=.05 -> {lenient} (want exactly 98), alpha=.01 -> {strict} (want exactly 137)",
    )


def test_criterion_07_diagnosticity_of_the_stricter_design():
    gain = diagnosticity_gain((0.05, 98), (0.01, 137))
    ok = 0.5 <= gain.odds_a <= 1.5 and 1.5 <= gain.odds_b <= 4.5
    _report(
        7, ok, "posterior odds against the null at the two designed operating points",
        f"odds(.05, 98) = {gain.odds_a:.4f} (want 0.5..1.5), "
        f"odds(.01, 137) = {gain.odds_b:.4f} (want 1.5..4.5), ratio {gain.ratio:.3f}",
    )


def test_criterion_08_flat_prior_marginal_identity():
    rng = random.Random(108)
    worst = 0.0
    for _ in range(1000):
        n = rng.randrange(1, 10001)
        s = rng.randrange(0, n + 1)
        got = math.exp(log_marginal_h1(BinomialOutcome(n, s)))
        want = 1.0 / (n + 1)
        worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-12
    _report(
        8, ok, "flat-prior marginal equals 1/(n+1) for 1000 random outcomes",
        f"worst relative error {worst:.3g} (allowed 1e-12)",
    )


def test_criterion_09_oracle_equivalence():
    checked = 0
    selection_ok = True
    for n in range(1, 31):
        for alpha in (0.05, 0.01, 0.001):
            for mode in SelectionMode:
                # the frozen reference's nearest mode returns n where nothing attains alpha; the library raises
                feasible = reference.select(n, alpha, True, True) is not None
                want = reference.select(n, alpha, mode is SelectionMode.STRICT_AT_MOST_ALPHA, True)
                if not feasible:
                    try:
                        select_barely_significant(n, alpha, mode)
                        selection_ok = False
                    except InfeasibleError:
                        pass
                else:
                    got = select_barely_significant(n, alpha, mode).s
                    selection_ok = selection_ok and got == want
                checked += 1

    rng = random.Random(109)
    worst = 0.0
    for _ in range(100):
        n = rng.randrange(1, 61)
        s = rng.randrange(0, n + 1)
        a = rng.uniform(1.0, 6.0)
        b = rng.uniform(1.0, 6.0)
        got = posterior_h0(BinomialOutcome(n, s), BetaPrior(a, b)).posterior_h0
        l0 = float(reference.pmf(n, s))
        l1 = math.exp(oracles.quadrature_log_marginal(n, s, a, b))
        want = l0 / (l0 + l1)
        worst = max(worst, abs(got - want) / want)
    posterior_ok = worst <= 1e-9

    ok = selection_ok and posterior_ok
    _report(
        9, ok, "exact-reference and quadrature cross-checks",
        f"{checked} selection cases exact-match: {selection_ok}; "
        f"100 quadrature posteriors, worst relative error {worst:.3g} (allowed 1e-9)",
    )


def test_criterion_10_property_suite(default_rows, expected):
    details = []

    half = BinomialModel(0.5)
    norm_ok = True
    for n in (1, 2, 7, 100, 1000, 10000):
        logs = [log_pmf(BinomialOutcome(n, s), half) for s in range(n + 1)]
        m = max(logs)
        total = math.exp(m) * sum(math.exp(v - m) for v in logs)
        norm_ok = norm_ok and abs(total - 1.0) < 1e-10
    details.append(f"pmf normalization up to n=10000: {norm_ok}")

    posts = _posteriors_by_cell(default_rows)
    order_ok = all(
        posts[(0.05, n)] > posts[(0.01, n)] > posts[(0.001, n)] > posts[(0.0001, n)]
        for n in DEFAULT_N_VALUES
    )
    details.append(f"curve ordering at all 15 shared n: {order_ok}")

    rise_strict = posts[(0.0001, 10000)] - posts[(0.0001, 100)]
    rise_loose = posts[(0.05, 10000)] - posts[(0.05, 100)]
    slope_ok = rise_strict < rise_loose
    details.append(f"slope flattening (rise {rise_strict:.4f} vs {rise_loose:.4f}): {slope_ok}")

    z = -6.0
    worst_rt = 0.0
    while z <= 6.0:
        worst_rt = max(worst_rt, abs(normal_quantile(normal_cdf(z)) - z))
        z += 0.01
    round_trip_ok = worst_rt < 1e-8
    details.append(f"normal round-trip worst {worst_rt:.2g}: {round_trip_ok}")

    def csv_text(rows):
        buf = io.StringIO()
        emit(rows, "csv", buf)
        return buf.getvalue()

    text = csv_text(default_rows)
    csv_ok = csv_text(parse_csv(io.StringIO(text))) == text
    details.append(f"CSV round-trip bit-equal: {csv_ok}")

    golden_ok = text == expected("default_sweep.csv")
    details.append(f"default sweep CSV equals the benchmark's expected file byte for byte: {golden_ok}")

    ok = norm_ok and order_ok and slope_ok and round_trip_ok and csv_ok and golden_ok
    _report(10, ok, "property bundle", "; ".join(details))
