"""The nine acceptance criteria, one printed pass/fail line each.

Every test re-derives its own inputs at the stated grid sizes and
tolerances; shared session fixtures are deliberately not used here so a
criterion failing cannot hide behind fixture state.
"""

import contextlib
import json
import re
import time

import numpy as np
import pytest

from warpedsphere import (ClassParams, Evaluation, RadialGrid, SequenceSpec,
                          bubble_sphere, bump_sphere,
                          cheeger_levelset, constant_ledger, point_pick,
                          round_sphere, run_all_checks, run_sequence,
                          scalar_deficit, scaled_sphere,
                          solve_quadrature, summarize, tendril_sphere,
                          tol_disc)
from warpedsphere.cli import main as cli_main
from warpedsphere.grids import PI

from bvp_oracle import solve_bvp

ROUND_VOLUME = 2.0 * PI**2

REFERENCES = (
    ("round", lambda g: round_sphere(grid=g)),
    ("scaled", lambda g: scaled_sphere(1.1, grid=g)),
    ("bump", lambda g: bump_sphere(0.1, grid=g)),
    ("tendril", lambda g: tendril_sphere(2.0, 0.1, 0.3, grid=g)),
    ("bubble", lambda g: bubble_sphere(2.0, 0.1, grid=g)),
)


@contextlib.contextmanager
def criterion(number, description):
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        print(f"[{verdict}] acceptance criterion {number}: {description}")


def test_criterion_1_round_exactness():
    with criterion(1, "round-sphere exactness and runtime"):
        metric = round_sphere(grid=RadialGrid.uniform(2001))
        start = time.perf_counter()
        pot = solve_quadrature(metric)
        elapsed = time.perf_counter() - start
        assert np.max(np.abs(pot.u - np.cos(pot.theta))) <= 1e-10
        ci = Evaluation(pot).core
        assert abs(ci.i_csc2 - 8.0 * PI) <= 1e-6 * 8.0 * PI
        assert abs(ci.i_align) <= 1e-8
        assert abs(ci.i_mass) <= 1e-8
        assert elapsed < 1.0


def test_criterion_2_solver_equivalence():
    with criterion(2, "solver equivalence and refinement order"):
        start = time.perf_counter()
        grid = RadialGrid.uniform(2001)
        for name, build in REFERENCES:
            metric = build(grid)
            pot_q = solve_quadrature(metric)
            pot_b = solve_bvp(metric, epsilon=1e-3)
            gap = float(np.max(np.abs(pot_b.u - pot_q.u)))
            assert gap <= 5e-4, (name, gap)
        # measured refinement order of the finite-difference solver
        gaps = []
        for n in (251, 501, 1001):
            metric = round_sphere(grid=RadialGrid.uniform(n))
            pot = solve_bvp(metric, epsilon=1e-3)
            gaps.append(np.max(np.abs(pot.u - np.cos(pot.theta))))
        order = float(np.log2(gaps[0] / gaps[2]) / 2.0)
        assert 1.7 <= order <= 2.3, order
        assert time.perf_counter() - start < 30.0


def test_criterion_3_identity_margins():
    with criterion(3, "identity-suite margins and O(h^2) convergence"):
        for name, build in REFERENCES:
            margins = {}
            for n in (501, 1001, 2001):   # h = pi/500, pi/1000, pi/2000
                metric = build(RadialGrid.uniform(n))
                pot = solve_quadrature(metric)
                tol = tol_disc(metric)
                for c in run_all_checks(pot, None,
                                        suites=("identity",)):
                    assert c.margin >= -tol, (name, n, c.label, c.margin)
                    margins.setdefault(c.label, []).append(c.margin)
            for label, ms in margins.items():
                d1 = abs(ms[0] - ms[1])
                d2 = abs(ms[1] - ms[2])
                # O(h^2): the difference quarters per halving; accept
                # order >= 1 within band, or the round-off floor
                assert d2 <= 1e-10 or d1 / d2 >= 2.0, (name, label, d1, d2)


def test_criterion_4_full_suite():
    with criterion(4, "full inequality suite with ledger constants"):
        params = ClassParams(volume_max=40.0, diameter_max=10.0,
                             mass_max=3.0, cheeger_min=0.1)
        ledger = constant_ledger(params)
        grid = RadialGrid.uniform(2001)
        for name, build in REFERENCES:
            metric = build(grid)
            pot = solve_quadrature(metric)
            checks = run_all_checks(pot, ledger)
            for c in checks:
                assert c.verdict != "fail", (name, c.label, c.margin)
            by_label = {c.label: c for c in checks}
            for tag in ("p", "mp"):
                sigma = by_label[f"lemma_4_1_{tag}"].inputs["sigma"]
                assert PI / 8 <= sigma <= PI / 4, (name, tag, sigma)
                witness = by_label.get(f"lemma_5_1_witness_{tag}")
                if witness is not None and witness.verdict != "skipped" \
                        and witness.inputs.get("lower_bound", 0.0) > 0.0:
                    assert witness.inputs["nonempty"], (name, tag)


def test_criterion_5_spot_values():
    with criterion(5, "closed-form spot values on the round sphere"):
        metric = round_sphere(grid=RadialGrid.uniform(2001))
        pot = solve_quadrature(metric)

        ev = Evaluation(pot)
        sel = ev.shells
        assert abs(sel.shell_integral_p
                   - 4.0 * PI * np.sin(sel.sigma_p)**3) <= 1e-5

        v_p, v_mp = ev.polar_masses[PI / 8]
        assert abs(v_p - PI**2 / 2.0) <= 1e-5
        assert abs(v_mp - PI**2 / 2.0) <= 1e-5

        cheeger, _ = cheeger_levelset(metric)
        assert abs(cheeger - 4.0 / PI) <= 1e-4

        r = 0.1
        summary, _ = summarize(metric, ClassParams(40.0, 10.0, 1.0, 1.0))
        pick = point_pick(metric, r, summary)
        closed_form = 2.0 * (2.0 * PI * r - PI * np.sin(2.0 * r))
        assert abs(pick.sum_ball_volumes - closed_form) <= 1e-6
        assert pick.certificate_ok  # 1e12 * r^3 * 2 pi^2, trivially true


def test_criterion_6_bump_volume_convergence():
    with criterion(6, "bump schedule volume convergence in S(40,10,1,1)"):
        start = time.perf_counter()
        spec = SequenceSpec(
            family="bump",
            schedule=tuple({"eta": 2.0 ** -i} for i in range(1, 11)))
        report = run_sequence(spec, ClassParams(40.0, 10.0, 1.0, 1.0))
        entries = report.entries
        assert all(e.valid and e.admitted for e in entries)
        ms = [e.m for e in entries]
        gaps = [e.volume_gap for e in entries]
        assert all(b < a for a, b in zip(ms, ms[1:]))
        assert ms[-1] < 0.1
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-2
        k = report.fitted_k
        assert np.isfinite(k)
        assert all(g <= k * m ** (1.0 / 24.0) + 1e-12
                   for g, m in zip(gaps, ms))
        assert time.perf_counter() - start < 120.0


def test_criterion_7_bubble_membership_failure():
    with criterion(7, "bubble schedule: small Cheeger, volume gap stays"):
        params = ClassParams(40.0, 10.0, 1.0, 1.0)
        cheegers, gaps, ms = [], [], []
        for a in range(1, 7):
            metric = bubble_sphere(float(a), 0.05)
            s, member = summarize(metric, params)
            assert member.cheeger_fails, a
            assert not member.admitted, a
            cheegers.append(s.cheeger_surrogate)
            gaps.append(abs(s.volume - ROUND_VOLUME))
            ms.append(s.mass)
        assert all(b < a for a, b in zip(cheegers, cheegers[1:]))
        assert cheegers[-1] < 1e-2             # -> 0
        assert all(b > a for a, b in zip(gaps, gaps[1:]))
        assert all(g >= 1.0 for g in gaps[1:]) # bounded below from A = 2
        assert gaps[0] >= 0.4                  # A = 1 bubble is still small
        assert max(ms) < 2e3                   # bounded on the schedule
        # reported as a finding: the sequence command still exits 0
        assert cli_main(["sequence", "--family", "bubble",
                         "--count", "3", "--output", "/dev/null"]) == 0


def test_criterion_8_tendril_insensitivity():
    with criterion(8, "tendril schedule: m -> 0, gap -> 0, diameter keeps"):
        params = ClassParams(40.0, 10.0, 1.0, 1.0)
        ms, gaps = [], []
        for i in range(1, 11):
            metric = tendril_sphere(1.0, 2.0 ** -i)
            s, _ = summarize(metric, params)
            assert s.diameter_lower >= PI + 0.5, i
            ms.append(s.mass)
            gaps.append(abs(s.volume - ROUND_VOLUME))
        # m_i -> 0: strictly decreasing over the thin-corridor range and
        # small at the end (m ~ 3 sqrt(w) there)
        assert all(b < a for a, b in zip(ms[3:], ms[4:]))
        assert ms[-1] < 0.5
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-2


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-identical reports modulo timestamp"):
        scenarios = (
            ["verify", "--family", "tendril", "--param", "length=1",
             "--param", "width=0.25", "--grid-size", "501", "--seed", "7"],
            ["analyze", "--family", "bubble", "--param", "area_radius=2",
             "--param", "neck_theta=0.1", "--seed", "3"],
            ["sequence", "--family", "bump", "--count", "2", "--seed", "1"],
        )
        out = tmp_path / "report.json"
        for argv in scenarios:
            texts = []
            for _ in range(2):
                code = cli_main(argv + ["--output", str(out)])
                assert code == 0, argv
                text = out.read_text()
                texts.append(re.sub(r'"timestamp": "[^"]*"',
                                    '"timestamp": "X"', text))
            assert texts[0] == texts[1], argv
            json.loads(texts[0])  # remains well-formed JSON
