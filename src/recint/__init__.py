"""recint: exact-arithmetic toolkit for integrality phenomena of
P-recursive sequences.

The package certifies, entirely over exact rationals, when the terms of a
parametric recurrence live in the half-ring R[1/2] of its parameter ring:
odd-form analysis of the recurrence, bracket tables with power-of-2
denominator certification, a battery of independent series identities, and
a small spec language plus CLI tying it together.
"""

from .brackets import (
    BracketCertification,
    BracketDivisionError,
    BracketTable,
    OddFormExpansion,
    QTuple,
    Theorem3ViolationError,
    build_expansion,
    certify_table,
    decompose_odd,
    expand_via_brackets,
    r3_closed_form,
)
from .certify import IntegralityReport, certify
from .multipoly import (
    DenomProfile,
    InexactDivisionError,
    MultiPoly,
    UPoly,
    VarSet,
    denom_profile,
    exact_div_linear,
    to_upoly,
)
from .reclang import (
    OddFormReport,
    ParamSeq,
    RecurrenceSpec,
    SpecSyntaxError,
    parse_poly,
    parse_spec,
    pretty_print,
    run_spec,
    spec_hash,
    to_odd_form,
)
from .scalars import VAL2_INF, Rational, binomial, factorial, lcm_upto, val2
from .sequences import (
    IdentityViolationError,
    IntegralityViolationError,
    RING_B,
    RING_BC,
    RING_BS,
    apery_closed_form,
    gen_apery,
    gen_u,
    gen_w,
    poch_product,
    seq_records,
    u_bin,
    u_c0,
    u_conv,
    w_inv,
)
from .series import (
    IdentityReport,
    OdeOperator,
    TruncSeries,
    base_ode,
    base_series,
    derivation_identity_check,
    inv_sqrt,
    product_series,
    symmetric_square_ode,
    verify_clausen,
    verify_hg_c0,
    verify_id3,
    verify_ode_g,
    verify_ode_product,
    verify_r2,
)

__version__ = "0.1.0"
