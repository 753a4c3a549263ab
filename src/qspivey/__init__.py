"""Exact q-analogue combinatorics with two independent oracles.

The package computes the q-Stirling, (q,r)-Whitney, q-Bell and
(q,r)-Dowling families over exact polynomial arithmetic, and verifies the
Spivey-type expansion identities that relate them.  Every recurrence is
certified against a symbolic normal-ordering engine for the deformed
ladder algebra, and that engine is in turn checked against a truncated
occupancy-space simulator, so no identity check rests on a single code
path.
"""

from .boson import CapOverflowError, FockVector, NormalForm, coherent_truncated
from .opexpr import OpExpr, ParseError, normal_order, parse, to_normal_form
from .polys import QPoly, XQPoly
from .qcalc import binom, falling_classic, q_factorial, q_falling, q_int
from .report import VerificationReport
from .triangles import (
    bell,
    q_bell_poly,
    q_stirling2,
    qr_dowling_poly,
    qr_whitney,
    r_dowling,
    r_whitney,
    r_whitney_classic,
    stirling2,
)
from .identities import (
    run_case,
    verify_bell_recurrence,
    verify_katriel,
    verify_lem1,
    verify_lem2,
    verify_lem3,
    verify_lem4,
    verify_q_expansion,
    verify_result1_xs,
    verify_result2_xs,
    verify_result3,
    verify_spivey,
    verify_stirling_def,
    verify_triangle_vs_oracle,
    verify_whitney_special,
)

__version__ = "0.1.0"

__all__ = [
    "CapOverflowError",
    "FockVector",
    "NormalForm",
    "OpExpr",
    "ParseError",
    "QPoly",
    "VerificationReport",
    "XQPoly",
    "bell",
    "binom",
    "coherent_truncated",
    "falling_classic",
    "normal_order",
    "parse",
    "q_bell_poly",
    "q_factorial",
    "q_falling",
    "q_int",
    "q_stirling2",
    "qr_dowling_poly",
    "qr_whitney",
    "r_dowling",
    "r_whitney",
    "r_whitney_classic",
    "run_case",
    "stirling2",
    "to_normal_form",
    "verify_bell_recurrence",
    "verify_katriel",
    "verify_lem1",
    "verify_lem2",
    "verify_lem3",
    "verify_lem4",
    "verify_q_expansion",
    "verify_result1_xs",
    "verify_result2_xs",
    "verify_result3",
    "verify_spivey",
    "verify_stirling_def",
    "verify_triangle_vs_oracle",
    "verify_whitney_special",
]
