"""Integrality certifier: report contents, determinism, honest denominators."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SPECS_DIR, run_cli
from recint.brackets import build_expansion, expand_terms
from recint.certify import certify
from recint.multipoly import MultiPoly, denom_profile
from recint.reclang import parse_spec, run_spec, to_odd_form
from recint.scalars import lcm_upto


def load(name: str):
    return parse_spec((SPECS_DIR / name).read_text())


class TestProductSpec:
    def test_fully_integral(self):
        report = certify(load("useq.spec"), 25)
        assert report.pipeline == "odd-form"
        assert report.theorem2_applicable
        assert report.offenders == []
        assert report.in_ring
        assert report.in_ring_half
        assert report.dn_scaled_integral
        assert report.v2_defects == [0] * 26
        assert not report.critical

    def test_report_metadata(self):
        report = certify(load("useq.spec"), 5)
        assert report.seq_name == "u"
        assert report.ring_vars == ("b", "c")
        assert report.n_checked == 5
        assert len(report.per_term) == 6
        assert report.per_term[0] == {"n": 0, "denominator": 1, "v2_defect": 0}


class TestBaseSpec:
    def test_guarantee_does_not_apply(self):
        report = certify(load("wseq.spec"), 12)
        assert report.pipeline == "odd-form"
        assert not report.theorem2_applicable
        assert [o["i"] for o in report.offenders] == [1, 3]
        assert report.offenders[0]["even_part"] == "-t^2 + b + 1/4"
        assert report.offenders[1]["even_part"] == "c"
        assert not report.critical  # no guarantee, so no counterexample

    def test_denominators_reported_honestly(self):
        report = certify(load("wseq.spec"), 12)
        assert not report.in_ring
        assert not report.in_ring_half
        # lcm(1..n) scaling genuinely fails from n = 4
        assert not report.dn_scaled_integral
        assert report.v2_defects[:5] == [0, 0, 1, 1, 3]

    def test_lcm_scale_boundary(self):
        # the scaled-integrality flag flips exactly between n = 3 and n = 4
        assert certify(load("wseq.spec"), 3).dn_scaled_integral
        assert not certify(load("wseq.spec"), 4).dn_scaled_integral


class TestScaledIntegrality:
    """dn_scaled_integral reads whether term.den divides lcm(1..k); the term
    is in lowest terms, so that is when lcm(1..k) * term is integral."""

    @pytest.mark.parametrize("name", ["wseq.spec", "useq.spec", "apery.spec"])
    def test_divisibility_matches_the_scaled_term(self, name):
        spec = load(name)
        terms = run_spec(spec, 40).terms
        scaled = [denom_profile(t * lcm_upto(k)).lcm_denominator == 1 for k, t in enumerate(terms)]
        assert [lcm_upto(k) % t.den == 0 for k, t in enumerate(terms)] == scaled
        for n in (3, 4, 40):
            assert certify(spec, n).dn_scaled_integral == all(scaled[: n + 1])
        if name == "wseq.spec":
            # false exactly from k = 4 on: the cases where the predicate fails
            assert scaled == [k < 4 for k in range(41)]
        else:
            assert all(scaled)


class TestPlainPipeline:
    def test_apery(self):
        report = certify(load("apery.spec"), 20)
        assert report.pipeline == "plain"
        assert not report.theorem2_applicable
        assert "n^3" in report.reason
        assert report.in_ring
        assert not report.critical


class TestSyntheticSpecs:
    def test_odd_specs_stay_in_half_ring(self):
        for name in ("odd-cubic.spec", "odd-mixed.spec", "odd-deep.spec"):
            report = certify(load(name), 20)
            assert report.theorem2_applicable, name
            assert report.in_ring_half, name
            assert not report.critical, name

    def test_defects_match_denominator_profile(self):
        spec = load("odd-deep.spec")
        report = certify(spec, 15)
        seq = run_spec(spec, 15)
        for n, term in enumerate(seq.terms):
            assert report.v2_defects[n] == denom_profile(term).max_neg_v2


class TestCoefficientRing:
    """The guarantee is over Z[1/2]: every q_i coefficient needs a power-of-2
    denominator, whatever the parity of its odd form."""

    THIRD = "ring b; seq w; rec: n*w[n] = (1/3)*(2*n - 1)*w[n-1];"

    def test_odd_denominator_is_outside_the_guarantee(self):
        spec = parse_spec(self.THIRD)
        report = certify(spec, 4)
        assert [r["denominator"] for r in report.per_term] == [1, 3, 6, 54, 648]
        assert not report.theorem2_applicable
        assert report.reason == "q_1 has denominator 3, not a power of 2"
        assert not report.in_ring_half
        assert not report.critical
        # the odd form itself is intact, and expand still reads it
        assert to_odd_form(spec).applicable

    def test_reason_names_every_lag(self):
        spec = parse_spec(
            "ring b; seq w; rec: n*w[n] = (1/2)*(2*n - 1)*w[n-1] + b/5*(n - 1)*w[n-2]"
            " + (1/6)*(2*n - 3)*w[n-3];"
        )
        report = certify(spec, 3)
        assert not report.theorem2_applicable
        assert report.reason == (
            "q_2 has denominator 5, not a power of 2; q_3 has denominator 6, not a power of 2"
        )

    def test_cli_exit_code(self, tmp_path):
        path = tmp_path / "third.spec"
        path.write_text(self.THIRD)
        code, out, _ = run_cli("certify", "--spec", str(path), "--n", "4")
        assert code == 0
        assert "applicable=False" in out and "critical=False" in out


#: a_ij = k / 2^e * monomial: small elements of Z[1/2][b, c]
COEFFICIENTS = st.tuples(
    st.integers(-3, 3).filter(bool), st.integers(0, 2), st.sampled_from(("1", "b", "c"))
)


@st.composite
def odd_form_specs(draw, odd_prime: bool = False):
    """n*u[n] = sum_i p_i(n - i/2)*u[n-i] with p_i(t) = sum_j a_ij t^(2j+1),
    written as (a_ij)*((2*n - i)/2)^(2j+1); lags in 1..4 with gaps allowed.
    With odd_prime, one a_ij gets an odd prime in its denominator.  Returns
    (spec text, lag of that coefficient or None)."""
    lags = sorted(draw(st.sets(st.integers(1, 4), min_size=1)))
    tainted = draw(st.sampled_from(lags)) if odd_prime else None
    terms = []
    for i in lags:
        parts = []
        for j in sorted(draw(st.sets(st.integers(0, 2), min_size=1, max_size=2))):
            k, e, mono = draw(COEFFICIENTS)
            den = 2**e
            if i == tainted and not parts:
                den *= draw(st.sampled_from((3, 5, 7)))
                k = draw(st.sampled_from((-2, -1, 1, 2)))  # coprime to the prime
            parts.append(f"({k}/{den}*{mono})*((2*n - {i})/2)^{2 * j + 1}")
        terms.append(f"({' + '.join(parts)})*u[n-{i}]")
    return f"ring b c; seq u; rec: n*u[n] = {' + '.join(terms)};", tainted


class TestRandomOddForm:
    """Random instances of the theorem's hypothesis stay in Z[1/2][b, c]."""

    @settings(max_examples=20, deadline=None)
    @given(odd_form_specs())
    def test_terms_stay_in_the_half_ring(self, drawn):
        text, _ = drawn
        spec = parse_spec(text)
        report = certify(spec, 30)
        assert report.theorem2_applicable, text
        assert report.in_ring_half, text
        assert not report.critical, text
        odd = to_odd_form(spec)
        expansion = build_expansion(odd.p, spec.ring)
        direct = run_spec(spec, 6)
        zero = MultiPoly.zero(spec.ring)
        for n in range(7):
            total = sum((t.contribution for t in expand_terms(expansion, n)), zero)
            assert total == direct[n], (text, n)

    @settings(max_examples=25, deadline=None)
    @given(odd_form_specs(odd_prime=True))
    def test_odd_prime_denominator_is_never_critical(self, drawn):
        text, tainted = drawn
        report = certify(parse_spec(text), 12)
        assert not report.theorem2_applicable, text
        assert f"q_{tainted} has denominator" in report.reason, text
        assert not report.critical, text


class TestSerialization:
    def test_json_round_trip_and_key_order(self):
        report = certify(load("useq.spec"), 4)
        doc = json.loads(report.to_json())
        assert list(doc) == [
            "spec_hash", "seq_name", "ring_vars", "n_checked", "pipeline",
            "theorem2_applicable", "offenders", "reason", "in_ring",
            "in_ring_half", "dn_scaled_integral", "v2_defects", "per_term",
            "critical",
        ]
        assert doc["spec_hash"] == report.spec_hash

    def test_deterministic(self):
        text = (SPECS_DIR / "wseq.spec").read_text()
        a = certify(parse_spec(text), 10).to_json()
        b = certify(parse_spec(text), 10).to_json()
        assert a == b

    def test_table_lines_carry_flags_and_offenders(self):
        lines = certify(load("wseq.spec"), 6).table_lines()
        flags = lines[1]
        assert "pipeline=odd-form" in flags
        assert "applicable=False" in flags
        assert any("offender i=1" in line for line in lines)
