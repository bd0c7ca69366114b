"""Explicit right-hand-side constants for the inequality suite.

Each constant is assembled by following its estimate's proof chain
literally, with the class caps m_bar (scalar deficit), Lambda
(isoperimetric floor) and V (volume cap) substituted for the measured
quantities they dominate.  Intermediate slack introduced by the chains
is retained, never re-optimized, so every bound here is exactly the
one the derivation certifies.

Notation: m_bar caps the deficit norm ||(6 - R)^+||_{L^2}^{1/2}; the
chains track the L^2 norm itself through the literal expressions they
were stated with.
"""

from __future__ import annotations

import math
from math import sqrt

from .errors import DomainError
from .metrics import ClassParams

PI = math.pi

#: the ledger, one (name, formula, derivation) row per constant in
#: derivation order; a formula reads the caps m_bar, Lambda and V and the
#: earlier rows from the mapping it is given
CHAIN = (
    ("C2", lambda k: 24.0 * PI + 1.5 * k["m_bar"],
     "24*pi + (3/2)*m_bar; energy identity plus the small/large-deficit "
     "dichotomy for the L2 gradient"),
    ("C3", lambda k: 8.0 * PI + 0.5 * k["m_bar"]**2 * k["C2"],
     "8*pi + (1/2)*m_bar^2*C2; csc^2 flux identity, then Cauchy-Schwarz "
     "against the L2 gradient bound"),
    ("c_align", lambda k: (sqrt(8.0 * PI + 0.5 * k["m_bar"] * k["C2"])
                           * sqrt(0.5 * k["C2"])),
     "sqrt(8*pi + (1/2)*m_bar*C2) * sqrt(C2/2); split csc^2|du + |du| "
     "dtheta| by Cauchy-Schwarz, close with the alignment identity"),
    ("c_hess", lambda k: (sqrt(8.0 * PI + 0.5 * k["m_bar"]**2 * k["C2"])
                          * sqrt(k["C2"])),
     "sqrt(8*pi + (1/2)*m_bar^2*C2) * sqrt(C2); csc|Hess| <= "
     "sqrt(csc^2|du|) * sqrt(|Hess|^2/|du|), close with the mass identity"),
    ("C5", lambda k: k["c_align"] + k["c_hess"],
     "c_align + c_hess; pointwise |grad ratio| <= csc|Hess| + "
     "csc^2|du + |du| dtheta|"),
    ("C4", lambda k: k["C5"] / k["Lambda"],
     "C5 / Lambda; 1-Poincare step with the isoperimetric floor standing "
     "in for the Sobolev constant"),
    ("c_cor36", lambda k: (k["c_align"] + k["C4"]) / k["Lambda"],
     "(c_align + C4) / Lambda; gradient of u - a*cos(theta) split into "
     "the two prior bounds, then the same Poincare step"),
    ("c_shell", lambda k: (8.0 / PI) * (8.0 * PI + 0.5 * k["m_bar"] * k["C2"]),
     "(8/pi)*(8*pi + (1/2)*m_bar*C2); mean-value shell selection over "
     "colatitudes [pi/8, pi/4]"),
    ("C6", lambda k: sqrt(2.0) * k["c_shell"],
     "sqrt(2)*c_shell; divergence identity weighted by csc^(1+eps), "
     "monotone limit eps -> 1, cos >= 1/sqrt(2) on the selection window"),
    ("C7", lambda k: k["C6"],
     "C6; polar flow average controlled by the csc^3 mass"),
    ("C8", lambda k: k["C7"],
     "C7; layer-cake rearrangement of the polar average"),
    ("C9", lambda k: 0.75 * PI**2 * k["C8"],
     "(3*pi^2/4)*C8; amplitude witness with gamma = 1 - (3*pi^2/4)*C8*r "
     "and r = deficit_norm^(1/12)"),
    ("C10", lambda k: 0.75 * PI * k["c_cor36"],
     "(3*pi/4)*c_cor36; amplitude witness with tau = "
     "(3*pi/4)*c_cor36*deficit_norm^(1/4)"),
    ("C12", lambda k: (0.5 * k["C2"]
                       + 2.0 * PI * sqrt(k["C4"] + 8.0 * PI / 3.0)
                       + 0.5 * PI * k["V"] * (1.0 + k["C9"] + k["C10"])),
     "C2/2 + 2*pi*sqrt(C4 + 8*pi/3) + (pi/2)*V*(1 + C9 + C10); good-set "
     "volume sandwich with csc L2 norm 2*pi on the round sphere and every "
     "deficit power <= 1 bounded by its smallest exponent"),
)


def constant_ledger(params: ClassParams) -> dict[str, float]:
    """Every CHAIN constant of the class caps, by name, in CHAIN order.

    Caps whose ledger has a constant that is not finite are refused with
    a DomainError naming the first such constant: a check against an
    infinite right-hand side would pass whatever it measured."""
    k = {"m_bar": float(params.mass_max), "Lambda": float(params.cheeger_min),
         "V": float(params.volume_max)}
    for name, formula, _ in CHAIN:
        try:
            k[name] = formula(k)
        except OverflowError:          # a float ** past the largest double
            k[name] = math.inf
        if not math.isfinite(k[name]):
            raise DomainError(f"class bounds give ledger constant {name} = "
                              f"{k[name]}, not a finite number")
    return {name: k[name] for name, _, _ in CHAIN}
