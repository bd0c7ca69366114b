"""Inequality suite: every estimate instantiated as a pass/fail check.

Left-hand sides are always measured by quadrature; right-hand sides
always come from the constant ledger and the measured deficit norm.
A check can therefore fail either because the mathematics was
implemented wrong or because the grid is too coarse; refinement trends
distinguish the two.  Discretization noise is absorbed by

    tol_disc = max(1e-6, C_Q * h^2)

with C_Q calibrated once on the round sphere and frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError
from .families import make
from .functionals import (POLAR_RADII, Evaluation, good_set_volumes,
                          set_measure, sublevel_round_volume)
from .grids import PI
from .metrics import ClassParams, WarpedMetric, class_membership, summarize
from .potential import PotentialSolution

#: quadrature-noise coefficient, calibrated on the round sphere by
#: measuring the identity-suite margin error over h in {pi/500, pi/1000,
#: pi/2000} and taking the largest observed error / h^2, rounded up.
C_Q = 10.0

ROUND_VOLUME = 2.0 * PI**2


def tol_disc(metric: WarpedMetric) -> float:
    """Discretization tolerance for the metric's grid spacing."""
    h = float(np.max(np.diff(metric.theta)))
    return max(1e-6, C_Q * h * h)


@dataclass(frozen=True)
class CheckResult:
    label: str
    lhs: float
    rhs: float
    margin: float            # rhs - lhs
    tolerance: float
    verdict: str             # "pass" | "fail" | "skipped"
    inputs: dict = field(default_factory=dict)


def _check(label: str, lhs: float, rhs: float, tol: float,
           **inputs) -> CheckResult:
    margin = float(rhs) - float(lhs)
    verdict = "pass" if margin >= -tol else "fail"
    return CheckResult(label=label, lhs=float(lhs), rhs=float(rhs),
                       margin=margin, tolerance=float(tol),
                       verdict=verdict, inputs=inputs)


def _skipped(label: str, reason: str, **inputs) -> CheckResult:
    inputs["reason"] = reason
    return CheckResult(label=label, lhs=np.nan, rhs=np.nan, margin=np.nan,
                       tolerance=0.0, verdict="skipped", inputs=inputs)


# ----------------------------------------------------------------------
# suites: each body reads one shared Evaluation, whose guard has run
# ----------------------------------------------------------------------

def _identity_suite(ev: Evaluation, ledger, tol: float) -> list[CheckResult]:
    """The three flux identities tying weighted gradients to the deficit."""
    ci = ev.core
    return [
        _check("eq_2_2", ci.i_csc2, 8.0 * PI + 0.5 * ci.i_deficit, tol,
               i_csc2=ci.i_csc2, i_deficit=ci.i_deficit),
        _check("eq_2_3", ci.i_align, 0.25 * ci.i_deficit, tol,
               i_align=ci.i_align, i_deficit=ci.i_deficit),
        _check("eq_2_4", ci.i_mass, ci.i_deficit, tol,
               i_mass=ci.i_mass, i_deficit=ci.i_deficit),
    ]


def _global_suite(ev: Evaluation, ledger: dict[str, float],
                  tol: float) -> list[CheckResult]:
    """Global L^1/L^2 estimates with ledger right-hand sides.

    The measured deficit enters through m = deficit norm^(1/2); every
    right-hand side written against norm^(1/2) therefore carries a
    factor m.
    """
    metric, pot = ev.metric, ev.pot
    ci, m, ac = ev.core, ev.m, ev.alignment
    tau_cheb = 0.1

    out = [
        _check("lemma_3_1", ci.grad_l2, ledger["C2"], tol, m=m),
        _check("cor_3_2", ci.grad_l1, ledger["C3"], tol, m=m),
        _check("eq_3_2", ci.i_align, ledger["c_align"] * m, tol, m=m),
        _check("eq_3_3", ev.csc_hessian_l1, ledger["c_hess"] * m, tol, m=m),
        _check("lemma_3_4", ev.ratio_seminorm, ledger["C5"] * m, tol, m=m),
        _check("cor_3_5_l1", ac.attained_l1_gap_ratio,
               ledger["C4"] * m, tol, m=m, a=ac.a),
        _check("cor_3_6_l1", ac.attained_l1_gap_u,
               ledger["c_cor36"] * m, tol, m=m, a=ac.a, sigma=ac.sigma),
    ]
    bad_ratio = np.abs(pot.ratio - ac.a) > tau_cheb
    out.append(_check("cor_3_5_chebyshev",
                      set_measure(metric, bad_ratio),
                      ledger["C4"] * m / tau_cheb, tol,
                      m=m, tau=tau_cheb, a=ac.a))
    bad_u = np.abs(pot.u - ac.a * metric.on_grid.cos - ac.sigma) > tau_cheb
    out.append(_check("cor_3_6_chebyshev",
                      set_measure(metric, bad_u),
                      ledger["c_cor36"] * m / tau_cheb, tol,
                      m=m, tau=tau_cheb, a=ac.a, sigma=ac.sigma))
    return out


_SUBLEVEL_GAMMAS = (0.0, 0.5, 0.9)


def _polar_suite(ev: Evaluation, ledger: dict[str, float],
                 tol: float) -> list[CheckResult]:
    """Shell, polar-mass, polar-average and sublevel-volume estimates."""
    pot = ev.pot
    out: list[CheckResult] = []

    sel = ev.shells
    for tag, sigma, value in (("p", sel.sigma_p, sel.shell_integral_p),
                              ("mp", sel.sigma_mp, sel.shell_integral_mp)):
        out.append(_check(f"lemma_4_1_{tag}",
                          value / np.sin(sigma)**2, ledger["c_shell"], tol,
                          sigma=sigma, shell_integral=value))

    for i, r in enumerate(POLAR_RADII, start=1):
        v_p, v_mp = ev.polar_masses[r]
        out.append(_check(f"lemma_4_2_p_{i}", v_p, ledger["C6"], tol, r=r))
        out.append(_check(f"lemma_4_2_mp_{i}", v_mp, ledger["C6"], tol, r=r))

    for i, t in enumerate(POLAR_RADII, start=1):
        avg_p = float(np.interp(t, pot.theta, pot.u))
        avg_mp = float(np.interp(PI - t, pot.theta, pot.u))
        rhs = ledger["C7"] * np.sin(t)
        out.append(_check(f"lemma_4_3_p_{i}", 1.0 - avg_p, rhs, tol,
                          t=t, average=avg_p))
        out.append(_check(f"lemma_4_3_mp_{i}", 1.0 + avg_mp, rhs, tol,
                          t=t, average=avg_mp))

    for i, r in enumerate(POLAR_RADII, start=1):
        sin3 = 2.0 / 3.0 - np.cos(r) + np.cos(r)**3 / 3.0
        for j, gamma in enumerate(_SUBLEVEL_GAMMAS, start=1):
            rhs = 4.0 * PI * ledger["C8"] / (1.0 - gamma) * sin3
            for tag, pole in (("p", +1), ("mp", -1)):
                lhs = sublevel_round_volume(pot, pole, r, gamma)
                out.append(_check(f"cor_4_4_{tag}_{i}_{j}", lhs, rhs,
                                  tol, r=r, gamma=gamma))
    return out


def _witness_measure(pot: PotentialSolution, a: float, sigma: float,
                     r: float, tau: float, gamma: float, pole: int) -> float:
    """Round measure of {|u - a cos - sigma| <= tau, u >< gamma} cap."""
    th = pot.theta
    aligned = np.abs(pot.u - a * pot.metric.on_grid.cos - sigma) <= tau
    if pole > 0:
        mask = aligned & (pot.u > gamma) & (th <= r)
    else:
        mask = aligned & (pot.u < -gamma) & (th >= PI - r)
    return set_measure(pot.metric, mask, use_round=True)


def _goodset_suite(ev: Evaluation, ledger: dict[str, float],
                   tol: float) -> list[CheckResult]:
    """Amplitude lower bound, witness regions and the volume sandwich."""
    pot = ev.pot
    m, ac = ev.m, ev.alignment
    nrm = m * m                      # the deficit L^2 norm itself
    out: list[CheckResult] = []

    # amplitude lower bound: a >= 1 - C9 nrm^(1/12) - C10 nrm^(1/4)
    bound = 1.0 - ledger["C9"] * nrm**(1.0 / 12.0) - ledger["C10"] * nrm**0.25
    out.append(_check("lemma_5_1", bound, ac.a, tol, m=m, a=ac.a))

    # witness regions at the proof's parameter choices
    if m <= 0.0:
        out.append(_skipped("lemma_5_1_witness_p", "zero deficit"))
        out.append(_skipped("lemma_5_1_witness_mp", "zero deficit"))
    else:
        r_w = nrm**(1.0 / 12.0)
        tau_w = 0.75 * PI * ledger["c_cor36"] * nrm**0.25
        gamma_w = 1.0 - 0.75 * PI**2 * ledger["C8"] * r_w
        lower = (16.0 / (3.0 * PI) * r_w**3
                 - PI * ledger["C8"] / (1.0 - gamma_w) * r_w**4
                 - ledger["c_cor36"] / tau_w * m)
        h = float(np.max(np.diff(pot.theta)))
        boundary = 8.0 * PI * np.sin(min(r_w, PI / 2))**2 * h
        for tag, pole in (("p", +1), ("mp", -1)):
            measured = _witness_measure(pot, ac.a, ac.sigma, r_w, tau_w,
                                        gamma_w, pole)
            out.append(_check(f"lemma_5_1_witness_{tag}", lower, measured,
                              max(tol, boundary), r=r_w, tau=tau_w,
                              gamma=gamma_w, lower_bound=lower,
                              nonempty=bool(measured > 0.0)))

    # volume sandwich at tau = nrm^(1/4), t = nrm^(1/48)
    if m > 1.0:
        for side in ("lower", "upper"):
            out.append(_skipped(f"lemma_5_2_{side}", "deficit norm exceeds "
                                "1; bound hypotheses unmet", m=m))
    else:
        tau = nrm**0.25
        t = nrm**(1.0 / 48.0)
        gs = good_set_volumes(pot, tau, t, ac)
        diff = gs.vol_E_g - gs.vol_E_round
        out.append(_check("lemma_5_2_lower", 0.0, diff, tol,
                          tau=tau, t=t))
        out.append(_check("lemma_5_2_upper", diff,
                          ledger["C12"] * nrm**(1.0 / 48.0), tol,
                          tau=tau, t=t, m=m))
    return out


_SUITE_BODIES = {"identity": _identity_suite, "global": _global_suite,
                 "polar": _polar_suite, "goodset": _goodset_suite}

#: suite names in their stable report order
SUITES = tuple(_SUITE_BODIES)


def require_suites(names) -> None:
    """Refuse any name that is not one of SUITES."""
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; choose from {SUITES}")


def require_schedule_length(length: int) -> None:
    """Refuse a sequence schedule of no members."""
    if length < 1:
        raise DomainError("schedule must be nonempty")


def require_tolerance(tolerance: Optional[float]) -> None:
    """Refuse a tolerance not finite and >= 0 (None: tol_disc)."""
    if tolerance is not None and not (0.0 <= tolerance < np.inf):
        raise DomainError(f"check tolerance {tolerance} must be finite >= 0")


def run_all_checks(pot: PotentialSolution, ledger: dict[str, float],
                   tolerance: Optional[float] = None,
                   suites=SUITES) -> list[CheckResult]:
    """The named suites, all by default, in stable (suite, label) order.

    All of them read one Evaluation, so the residual guard runs once and
    each shared field or integral is computed once; the evaluation is
    dropped on return.  No suite named means no evaluation and no checks.
    A `tolerance` that is not finite and >= 0 is refused.
    """
    require_suites(suites)
    require_tolerance(tolerance)
    names = [name for name in SUITES if name in suites]
    if not names:
        return []
    ev = Evaluation(pot)
    tol = tol_disc(pot.metric) if tolerance is None else tolerance
    return [c for name in names for c in _SUITE_BODIES[name](ev, ledger, tol)]


# ----------------------------------------------------------------------
# sequence experiments
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SequenceSpec:
    family: str
    schedule: tuple                 # tuple of parameter dicts
    name: str = ""

    def __post_init__(self):
        require_schedule_length(len(self.schedule))


@dataclass(frozen=True)
class SequenceEntry:
    """One schedule member; a member that fails to build keeps the
    defaults and its error."""
    index: int
    params: dict
    valid: bool = False
    error: str = ""
    m: float = np.nan
    volume: float = np.nan
    volume_gap: float = np.nan
    diameter_lower: float = np.nan
    diameter_upper: float = np.nan
    admitted: bool = False
    comparison_ok: bool = False
    cheeger_fails: bool = False


@dataclass(frozen=True)
class ConvergenceReport:
    spec: SequenceSpec
    entries: tuple
    m_decreasing: bool
    gap_decreasing_after_first: bool
    fitted_k: float                  # max gap_i / m_i^(1/24)
    hypotheses_ok: bool              # every index admitted and comparable


def run_sequence(spec: SequenceSpec, params: ClassParams
                 ) -> ConvergenceReport:
    """Drive a family schedule through membership and volume convergence.

    Per index: deficit m_i, volume and its gap to 2 pi^2, the diameter
    bracket, and the admissibility verdicts.  Invalid members are
    reported in place and the sequence continues.  fitted_k is the
    smallest constant K with gap_i <= K * m_i^(1/24) over the valid
    indices, realizing the advertised convergence rate (the deficit
    norm power 1/48 expressed through m = norm^(1/2)).
    """
    entries = []
    for i, fam_params in enumerate(spec.schedule, start=1):
        try:
            s = summarize(make(spec.family, **fam_params))
            member = class_membership(s, params)
            entries.append(SequenceEntry(
                index=i, params=dict(fam_params), valid=s.validation.ok,
                m=s.mass, volume=s.volume,
                volume_gap=abs(s.volume - ROUND_VOLUME),
                diameter_lower=s.diameter_lower,
                diameter_upper=s.diameter_upper,
                admitted=member.admitted,
                comparison_ok=member.comparison_ok,
                cheeger_fails=member.cheeger_fails))
        except Exception as exc:  # reported per index, sequence continues
            entries.append(SequenceEntry(
                index=i, params=dict(fam_params),
                error=f"{type(exc).__name__}: {exc}"))

    ok = [e for e in entries if e.valid]
    ms = [e.m for e in ok]
    gaps = [e.volume_gap for e in ok]
    m_dec = all(b < a for a, b in zip(ms, ms[1:]))
    gap_dec = all(b < a for a, b in zip(gaps[1:], gaps[2:])) if len(gaps) > 2 \
        else True
    with np.errstate(divide="ignore", invalid="ignore"):
        ks = [g / m**(1.0 / 24.0) for g, m in zip(gaps, ms) if m > 0.0]
    fitted_k = float(max(ks)) if ks else np.nan
    hypotheses = bool(ok) and all(e.admitted and e.comparison_ok
                                  for e in entries)
    return ConvergenceReport(spec=spec, entries=tuple(entries),
                             m_decreasing=m_dec,
                             gap_decreasing_after_first=gap_dec,
                             fitted_k=fitted_k,
                             hypotheses_ok=hypotheses)
