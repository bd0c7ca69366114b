"""Constant ledger: formulas, monotonicity, derivations, finiteness."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpedsphere import ClassParams, DomainError, constant_ledger
from warpedsphere.constants import CHAIN
from warpedsphere.grids import PI


def recompute(m, lam, vol):
    """Straight re-derivation of the chain, independent of the module."""
    c2 = 24.0 * PI + 1.5 * m
    c3 = 8.0 * PI + 0.5 * m**2 * c2
    c_align = np.sqrt(8.0 * PI + 0.5 * m * c2) * np.sqrt(0.5 * c2)
    c_hess = np.sqrt(8.0 * PI + 0.5 * m**2 * c2) * np.sqrt(c2)
    c5 = c_align + c_hess
    c4 = c5 / lam
    c_cor36 = (c_align + c4) / lam
    c_shell = (8.0 / PI) * (8.0 * PI + 0.5 * m * c2)
    c6 = np.sqrt(2.0) * c_shell
    c9 = 0.75 * PI**2 * c6
    c10 = 0.75 * PI * c_cor36
    c12 = (0.5 * c2 + 2.0 * PI * np.sqrt(c4 + 8.0 * PI / 3.0)
           + 0.5 * PI * vol * (1.0 + c9 + c10))
    return dict(C2=c2, C3=c3, c_align=c_align, c_hess=c_hess, C5=c5,
                C4=c4, c_cor36=c_cor36, c_shell=c_shell, C6=c6, C7=c6,
                C8=c6, C9=c9, C10=c10, C12=c12)


@pytest.mark.parametrize("m, lam, vol", [
    (1.0, 1.0, 40.0), (0.5, 2.0, 20.0), (3.0, 0.1, 40.0),
])
def test_ledger_matches_recomputation(m, lam, vol):
    ledger = constant_ledger(ClassParams(vol, 10.0, m, lam))
    expected = recompute(m, lam, vol)
    assert list(ledger) == [name for name, _, _ in CHAIN]
    for key, val in expected.items():
        assert ledger[key] == val, key


def test_monotone_in_mass_cap():
    lows = constant_ledger(ClassParams(40.0, 10.0, 0.5, 1.0))
    highs = constant_ledger(ClassParams(40.0, 10.0, 2.0, 1.0))
    for key in ("C2", "C3", "C5", "C6", "C12"):
        assert highs[key] > lows[key], key


def test_c4_decreases_in_cheeger_floor():
    weak = constant_ledger(ClassParams(40.0, 10.0, 1.0, 0.5))
    strong = constant_ledger(ClassParams(40.0, 10.0, 1.0, 2.0))
    assert strong["C4"] < weak["C4"]
    assert strong["c_cor36"] < weak["c_cor36"]


def test_chain_aliases():
    ledger = constant_ledger(ClassParams(40.0, 10.0, 1.0, 1.0))
    assert ledger["C7"] == ledger["C6"]
    assert ledger["C8"] == ledger["C7"]
    assert ledger["C9"] == pytest.approx(0.75 * PI**2 * ledger["C8"],
                                         rel=1e-14)


def test_chain_derives_every_constant():
    """One CHAIN row per ledger constant, each with its derivation, and
    each formula reading only caps and earlier rows."""
    names = [name for name, _, _ in CHAIN]
    assert len(set(names)) == len(names) == 14
    known = {"m_bar", "Lambda", "V"}
    for name, formula, derivation in CHAIN:
        assert derivation.strip(), name
        formula({key: 1.0 for key in known})
        known.add(name)


def test_ledger_values_finite_positive():
    ledger = constant_ledger(ClassParams(40.0, 10.0, 1.0, 1.0))
    for key, val in ledger.items():
        assert np.isfinite(val) and val > 0.0, key


_LOG_CAP = st.floats(-300.0, 308.0).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(m=_LOG_CAP, lam=_LOG_CAP, vol=_LOG_CAP)
def test_ledger_finite_or_refused(m, lam, vol):
    """Over caps spanning the double range, the ledger is 14 finite
    floats equal to the re-derivation, or a DomainError naming the first
    constant that is not finite; never an OverflowError or a warning."""
    params = ClassParams(vol, 10.0, m, lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ledger = constant_ledger(params)
        except DomainError as exc:
            assert any(f" {name} = " in str(exc) for name, _, _ in CHAIN)
            return
    assert len(ledger) == 14
    assert all(math.isfinite(v) for v in ledger.values())
    assert ledger == recompute(m, lam, vol)
