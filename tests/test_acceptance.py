"""Acceptance gate: one test per top-level claim, one PASS/FAIL line each.

Each test records a `criterion NN PASS/FAIL` line (printed in the terminal
summary) and then asserts.  Criterion 4 is split in two: 4a checks the
refutation of the lcm(1..n)-scaling claim — it fails at every n >= 4
(checked up to 50), because the base sequence's coefficient denominator is exactly
n! and lcm(1..n) stops covering n! at n = 4 — together with the sharp n!
scale; 4b pins the denominator of w[3].  See README.md ("Findings") for the
analysis.
"""

from fractions import Fraction
from itertools import product as cartesian

from conftest import (
    ACCEPTANCE_LINES,
    CORPUS,
    DATA_DIR,
    SPECS_DIR,
    apery_closed_form,
    gen_apery,
    q_monomial,
    r3_closed_form,
    run_cli,
    u_c0,
)
from recint import series
from recint.brackets import (
    BracketTable,
    QTuple,
    build_expansion,
    certify_table,
    expand_terms,
    x_varset,
)
from recint.certify import certify
from recint.multipoly import MultiPoly, denom_profile, to_upoly
from recint.reclang import parse_poly_list, parse_spec, pretty_print, to_odd_form
from recint.scalars import factorial, lcm_upto
from recint.sequences import (
    RING_BC,
    _inversion_sums,
    gen_u,
    gen_w,
    split_sqrt_parity,
    u_bin,
    u_conv,
    w_inv,
)


def conclude(num: str, ok: bool, description: str, detail: str = "") -> None:
    line = f"criterion {num:<3} {'PASS' if ok else 'FAIL'}  {description}"
    if detail:
        line += f"  [{detail}]"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _q(text: str) -> QTuple:
    return QTuple([to_upoly(p, "t") for p in parse_poly_list(text, ("t",))])


def test_criterion_01_product_terms_have_integer_coefficients():
    u = gen_u(60)
    bad = [n for n, t in enumerate(u.terms) if denom_profile(t).lcm_denominator != 1]
    conclude(
        "1",
        not bad,
        "u[n] lies in Z[b, c] for all n <= 60",
        f"first failure at n={bad[0]}" if bad else "61 terms, every denominator lcm = 1",
    )


def test_criterion_02_three_constructions_agree():
    u = gen_u(40)
    conv = u_conv(40, gen_w(80))
    binm = u_bin(40, gen_w(40))
    bad = [n for n in range(41) if not (u[n] == conv[n] == binm[n])]
    conclude(
        "2",
        not bad,
        "recurrence, convolution, and binomial-sum forms agree termwise for n <= 40",
        f"first mismatch at n={bad[0]}" if bad else "exact equality at all 41 indices",
    )


def test_criterion_03_inversion_recovers_scaled_base_sequence():
    n = 25
    expected = [t * factorial(k) for k, t in enumerate(gen_w(n).terms)]
    recovered = w_inv(n, gen_u(n))  # raises if any odd power of s survives
    equal = list(recovered.terms) == expected
    odd_parts_vanish = all(
        split_sqrt_parity(raw)[1].is_zero() for raw in _inversion_sums(gen_u(8), range(9))
    )
    conclude(
        "3",
        equal and odd_parts_vanish,
        "inversion reproduces n! * w[n] for n <= 25 with odd s-powers cancelling",
        "only k = n (mod 2) contributes; raw sums for n <= 8 have zero odd part",
    )


def test_criterion_04a_lcm_scaling_clears_base_denominators():
    N = 50
    w = gen_w(N)
    # (a) n! clears every coefficient of w[n], and no smaller scale does.
    not_sharp = [
        n for n, t in enumerate(w.terms) if denom_profile(t).lcm_denominator != factorial(n)
    ]
    # (b) lcm(1..n) fails to clear w[n] exactly for 4 <= n <= N.
    lcm_fails = [
        n
        for n, t in enumerate(w.terms)
        if denom_profile(t * lcm_upto(n)).lcm_denominator != 1
    ]
    left = denom_profile(w[4] * lcm_upto(4)).lcm_denominator
    # (c) witness w[4](1, 1) from the recurrence n*w[n] = (b - n(n-1))*w[n-1]
    # + c*w[n-3] run over plain Fractions, bypassing MultiPoly.
    b = c = Fraction(1)
    plain = [Fraction(1)]
    for n in range(1, 5):
        acc = (b - n * (n - 1)) * plain[n - 1]
        if n >= 3:
            acc += c * plain[n - 3]
        plain.append(acc / n)
    witness = w[4].eval({"b": 1, "c": 1})
    ok = (
        not not_sharp
        and lcm_fails == list(range(4, N + 1))
        and left == 2
        and witness == plain[4] == Fraction(-71, 24)
    )
    detail = (
        f"lcm(1..n)*w[n] keeps a denominator at {len(lcm_fails)} of {N + 1} indices, "
        f"first n={lcm_fails[0] if lcm_fails else None}; lcm(1..4)*w[4] leaves denominator "
        f"{left}; denominator of w[n] differs from n! at n in {not_sharp[:5]}; "
        f"w[4](1, 1) = {witness} via MultiPoly, {plain[4]} via plain Fractions"
    )
    conclude(
        "4a",
        ok,
        "lcm(1..n) * w[n] in Z[b, c] refuted from n = 4; denominator of w[n] is exactly n! for n <= 50",
        detail,
    )


def test_criterion_04b_w3_needs_denominator_six():
    prof = denom_profile(gen_w(3)[3])
    conclude(
        "4b",
        prof.lcm_denominator == 6,
        "w[3] requires denominator exactly 6",
        f"coefficient denominator lcm = {prof.lcm_denominator}",
    )


def test_criterion_05_c0_collapse_matches_closed_form():
    u = gen_u(50)
    bad = [
        n
        for n in range(51)
        if u[n].subst_value("c", 0) != u_c0(n).cast(RING_BC)
    ]
    conclude(
        "5",
        not bad,
        "u[n] at c = 0 equals binom(2n, n) * prod_{i<n} (i(i+1) - b) for n <= 50",
        f"first mismatch at n={bad[0]}" if bad else "closed form exact at all 51 indices",
    )


def test_criterion_06_cubic_and_quadratic_series_identities():
    id3 = series.verify_id3(40)
    r2 = series.verify_r2(40)
    conclude(
        "6",
        id3.passed and r2.passed,
        "the cubic (id3) and quadratic (r2) identities hold through t^40",
        f"id3 first mismatch: {id3.first_mismatch}" if not id3.passed
        else (f"r2 first mismatch: {r2.first_mismatch}" if not r2.passed else "residual zero coefficientwise"),
    )


def test_criterion_07_ode_residuals_vanish():
    g = series.verify_ode_g(40)
    G = series.verify_ode_product(40)
    conclude(
        "7",
        g.passed and G.passed,
        "g satisfies its order-2 ODE and G = g(t)g(-t) its order-3 ODE at N = 40",
        f"trusted orders: {g.order} and {G.order}",
    )


def test_criterion_08_clausen_identity():
    report = series.verify_clausen(30)
    conclude(
        "8",
        report.passed,
        "the squared-series identity holds through t^30 over Z[b]",
        "Pochhammer products collapsed to polynomials in b",
    )


def test_criterion_09_bracket_suite_certifies():
    suite = [("t", 8), ("t^3", 8), ("t, t", 8), ("t, t^3", 8), ("t^3 - 3*t, t", 8), ("t^5, t^3, t", 6)]
    certs = [(text, certify_table(_q(text), bound)) for text, bound in suite]
    all_ok = all(c.certified for _, c in certs)
    spot_cubic = BracketTable(_q("t^3")).entry((2,)) == MultiPoly.monomial(
        x_varset(1), (4,), Fraction(27, 128)
    )
    spot_pair = BracketTable(_q("t, t")).entry((1, 1)) == MultiPoly.const(
        x_varset(2), Fraction(3, 4)
    )
    entries = sum(c.entry_count for _, c in certs)
    conclude(
        "9",
        all_ok and spot_cubic and spot_pair,
        "all suite brackets are power-of-2-denominator polynomials; divisions exact",
        f"{entries} entries across 6 tuples; <t^3>_2 = 27/128*x^4 and <(t,t)>_(1,1) = 3/4",
    )


def test_criterion_10_all_t_closed_form_and_defect_growth():
    closed_ok = True
    for d in (1, 2, 3):
        table = BracketTable(QTuple([q_monomial(0)] * d))
        for m in cartesian(range(7), repeat=d):
            if sum(m) > 6:
                continue
            poly = table.entry(m)
            if not poly.is_constant() or poly.constant_value() != r3_closed_form(m):
                closed_ok = False
    growth = []
    linear_ok = True
    pow2_ok = True
    for text, bound in (("t", 8), ("t^3", 8), ("t^5, t^3, t", 6)):
        q = _q(text)
        cert = certify_table(q, bound)
        pow2_ok = pow2_ok and cert.all_pow2
        slope_cap = max(p.degree() for p in q.polys) + 1
        if any(dfct > slope_cap * lvl + 1 for lvl, dfct in enumerate(cert.level_max_defect)):
            linear_ok = False
        growth.append(f"({text}): defects {cert.level_max_defect}, slope {cert.slope:.2f}")
    conclude(
        "10",
        closed_ok and linear_ok and pow2_ok,
        "all-t brackets equal binom(2|m|,|m|)/4^|m| * multinomial; defects grow linearly",
        "; ".join(growth),
    )


def test_criterion_11_bracket_expansion_reconstructs_product_terms():
    spec = parse_spec((SPECS_DIR / "useq.spec").read_text())
    odd = to_odd_form(spec)
    expansion = build_expansion(odd.p, spec.ring)
    u = gen_u(8)
    zero = MultiPoly.zero(spec.ring)
    totals = [sum((t.contribution for t in expand_terms(expansion, n)), zero) for n in range(9)]
    bad = [n for n in range(9) if totals[n] != u[n]]
    hand = expand_terms(expansion, 1)
    hand_ok = (
        [t.multiset for t in hand] == [[(1, 0, 1)], [(1, 1, 1)]]
        and [t.bracket_value for t in hand] == [Fraction(1, 2), Fraction(1, 8)]
        and [t.contribution.text() for t in hand] == ["-2*b - 1/2", "1/2"]
        and hand[0].contribution + hand[1].contribution == u[1]
    )
    conclude(
        "11",
        not bad and hand_ok,
        "bracket expansion equals u[n] for n <= 8, incl. the hand-checked n = 1 split",
        "(-(4b+1)/2) + (1/2) = -2b confirmed termwise",
    )


def test_criterion_12_apery_terms_match_closed_form():
    terms = gen_apery(30)  # every division by n^3 must be exact to get here
    bad = [n for n in range(31) if terms[n] != apery_closed_form(n)]
    conclude(
        "12",
        not bad and all(isinstance(t, int) for t in terms),
        "recurrence terms equal sum_k binom(n+k,k)^2 binom(n,k)^2 for n <= 30",
        f"a[30] = {terms[30]}",
    )


def test_criterion_13_parser_round_trip_and_exit_codes():
    stable = True
    for name in CORPUS:
        spec = parse_spec((SPECS_DIR / name).read_text())
        printed = pretty_print(spec)
        if pretty_print(parse_spec(printed)) != printed:
            stable = False
    wseq = parse_spec((SPECS_DIR / "wseq.spec").read_text())
    odd = to_odd_form(wseq)
    offenders = {i: part.text() for i, part in odd.offenders}
    offender_ok = (
        not odd.applicable
        and not certify(wseq, 2).theorem2_applicable
        and offenders.get(1) == "-t^2 + b + 1/4"
    )
    code, _, _ = run_cli("gen", "--spec", str(DATA_DIR / "malformed.spec"))
    conclude(
        "13",
        stable and offender_ok and code == 2,
        "corpus round-trips stably; base spec reports even part (b + 1/4) - t^2; malformed input exits 2",
        f"{len(CORPUS)} corpus files; offender i=1 even part: {offenders.get(1)}",
    )
