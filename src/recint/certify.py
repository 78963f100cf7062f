"""Integrality certification of recurrence specs.

certify() runs a parsed spec, profiles every term's coefficient
denominators, and reports three nested integrality levels: plain ring
membership (denominator 1), half-ring membership (power-of-2 denominators),
and lcm(1..n)-scaled membership.  For specs whose head is a single n the
half-shift analysis decides whether the power-of-2 guarantee applies; specs
with a higher power of n are handled by the plain pipeline, which divides
exactly and reports what it sees without any guarantee.

A report is flagged critical when the guarantee applies but the observed
denominators violate it: that combination would be a counterexample to the
underlying theorem, not a bug in the input.
"""

from __future__ import annotations

from math import lcm

from .multipoly import _decimal, denom_profile, json_text
from .reclang import RecurrenceSpec, run_spec, spec_hash, to_odd_form


class IntegralityReport:
    __slots__ = (
        "spec_hash", "seq_name", "ring_vars", "n_checked", "pipeline", "theorem2_applicable",
        "offenders", "reason", "in_ring", "in_ring_half", "dn_scaled_integral", "v2_defects",
        "per_term", "critical",
    )

    def __init__(
        self, spec_hash, seq_name, ring_vars, n_checked, pipeline, theorem2_applicable, offenders,
        reason, in_ring, in_ring_half, dn_scaled_integral, v2_defects, per_term, critical,
    ):
        self.spec_hash: str = spec_hash
        self.seq_name: str = seq_name
        self.ring_vars: tuple[str, ...] = ring_vars
        self.n_checked: int = n_checked
        self.pipeline: str = pipeline  # "odd-form" or "plain"
        self.theorem2_applicable: bool = theorem2_applicable
        self.offenders: list[dict] = offenders
        self.reason: str = reason
        self.in_ring: bool = in_ring
        self.in_ring_half: bool = in_ring_half
        self.dn_scaled_integral: bool = dn_scaled_integral
        self.v2_defects: list[int] = v2_defects
        self.per_term: list[dict] = per_term
        self.critical: bool = critical

    def to_json(self) -> str:
        return json_text({f: getattr(self, f) for f in self.__slots__})  # key order: __slots__

    def table_lines(self) -> list[str]:
        flags = (
            f"pipeline={self.pipeline} applicable={self.theorem2_applicable} "
            f"in_ring={self.in_ring} in_ring_half={self.in_ring_half} "
            f"dn_scaled={self.dn_scaled_integral} critical={self.critical}"
        )
        lines = [f"spec {self.spec_hash[:16]} seq {self.seq_name} n<={self.n_checked}", flags]
        for off in self.offenders:
            lines.append(f"  offender i={off['i']}: even part {off['even_part']}")
        if self.reason:
            lines.append(f"  note: {self.reason}")
        lines.append(f"{'n':>4} {'denominator':>16} {'v2_defect':>9}")
        for rec in self.per_term:
            lines.append(f"{rec['n']:>4} {_decimal(rec['denominator']):>16} {rec['v2_defect']:>9}")
        return lines


def certify(spec: RecurrenceSpec, n: int) -> IntegralityReport:
    """Run the spec to index n and certify the denominators it produces."""
    seq = run_spec(spec, n)
    per_term = []
    defects = []
    in_ring = True
    in_half = True
    dn_ok = True
    scale = 1  # lcm(1..k), kept as a running lcm
    for k, term in enumerate(seq.terms):
        prof = denom_profile(term)
        per_term.append(
            {"n": k, "denominator": prof.lcm_denominator, "v2_defect": prof.max_neg_v2}
        )
        defects.append(prof.max_neg_v2)
        if prof.lcm_denominator != 1:
            in_ring = False
        if not prof.two_adic_only:
            in_half = False
        # term is in lowest terms, so lcm(1..k) * term is integral exactly
        # when term.den divides lcm(1..k)
        scale = lcm(scale, max(k, 1))
        if scale % term.den:
            dn_ok = False

    if spec.lead_power == 1:
        pipeline = "odd-form"
        odd = to_odd_form(spec)
        offenders = [
            {"i": i, "even_part": part.text()} for i, part in odd.offenders
        ]
        # the guarantee is over Z[1/2]: a q_i denominator with an odd factor
        # puts the spec outside it, though its odd form may still expand
        off_ring = [(i, q.den) for i, q in enumerate(spec.q, start=1) if q.den & (q.den - 1)]
        applicable = odd.applicable and not off_ring
        reason = odd.reason or "; ".join(
            f"q_{i} has denominator {den}, not a power of 2" for i, den in off_ring
        )
    else:
        pipeline = "plain"
        applicable = False
        offenders = []
        reason = f"leading coefficient n^{spec.lead_power}: empirical report only"

    return IntegralityReport(
        spec_hash=spec_hash(spec),
        seq_name=spec.seq_name,
        ring_vars=spec.ring_vars,
        n_checked=n,
        pipeline=pipeline,
        theorem2_applicable=applicable,
        offenders=offenders,
        reason=reason,
        in_ring=in_ring,
        in_ring_half=in_half,
        dn_scaled_integral=dn_ok,
        v2_defects=defects,
        per_term=per_term,
        critical=applicable and not in_half,
    )
