"""recint: exact-arithmetic toolkit for integrality phenomena of
P-recursive sequences.

The package certifies, entirely over exact rationals, when the terms of a
parametric recurrence live in the half-ring R[1/2] of its parameter ring:
odd-form analysis of the recurrence, bracket tables with power-of-2
denominator certification, a battery of independent series identities, and
a small spec language plus CLI tying it together.
"""

from .reclang import parse_poly

__version__ = "0.1.0"
