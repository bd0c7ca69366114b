"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Run from the root of the repository.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import outputs
import spans
import worker
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def in_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    workloads.write_configs()


def _without_timestamp(stdout: str) -> dict:
    report = json.loads(stdout)
    report.pop("timestamp")
    return report


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_in_process_call_matches_subprocess(in_root, workload):
    argv = workloads.generate(workload, 1)[0]
    code, out, _, _ = worker.call(worker.import_cli(), argv)
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-m", "warpedsphere.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert code == proc.returncode
    assert _without_timestamp(out) == _without_timestamp(proc.stdout)


def test_inputs_depend_only_on_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 3) == \
            workloads.generate(workload, 3)
        assert workloads.generate(workload, 3) != \
            workloads.generate(workload, 4)


def test_three_rounds_cover_every_stratum():
    graded = {workloads.graded_config(n): str(n)
              for n in workloads.VERIFY_GRID_N}
    strata = set()
    for argv in workloads.generate("verify", 5)[:15]:
        family = argv[argv.index("--family") + 1]
        if family != "tendril":
            family += "@" + (argv[argv.index("--grid-size") + 1]
                             if "--grid-size" in argv else graded[argv[1]])
        strata.add(family)
    assert len(strata) == 4 * len(workloads.VERIFY_GRID_N) + 1
    counts = sorted(argv[2] + argv[4] for argv in
                    workloads.generate("sequence", 5)[:9])
    assert counts == sorted(family + str(count)
                            for family in workloads.SEQUENCE_FAMILIES
                            for count in workloads.SEQUENCE_COUNTS)


def test_self_time_subtracts_children():
    # root [0, 10] with children [1, 4] and [5, 6]; [2, 3] inside the first
    recorded = [["cli.main", 0.0, 10.0, -1, 0, None],
                ["metrics.summarize", 1.0, 4.0, 0, 0, None],
                ["distance.diameter_bounds", 2.0, 3.0, 1, 0, None],
                ["grids.integrate", 5.0, 6.0, 0, 0, "ValueError"]]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0]
    summary = spans.summarize(recorded, calls=2)
    assert summary["layer_self"]["cli"] == 3.0
    assert summary["layer_self"]["potential"] == 0.0
    assert summary["inclusive"]["metrics.summarize"] == 1.5
    assert summary["calls"]["grids.integrate"] == 0.5
    assert summary["errors"] == {"grids.integrate:ValueError": 0.5}


def test_tracer_wraps_every_binding_and_restores_them(in_root):
    cli = worker.import_cli()
    from warpedsphere import functionals, grids
    original = grids.integrate
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert functionals.integrate is grids.integrate
        assert grids.integrate is not original
        code, _, _, _ = worker.call(
            cli, ["pointpick", "--family", "round", "--radius", "0.2"])
    finally:
        tracer.uninstall()
    assert code == 0 and grids.integrate is original
    summary = spans.summarize(tracer.spans, calls=1)
    assert summary["calls"]["metrics.ball_volume"] == 362
    assert summary["calls"]["cli.main"] == 1


def _report(diameter_upper: float, volume: float) -> str:
    return json.dumps({"run_id": "x", "timestamp": "now", "checks": [],
                       "summary": {"diameter_lower": 3.0,
                                   "diameter_upper": diameter_upper,
                                   "volume": volume}})


def test_compare_holds_certified_values_exactly():
    ref = outputs.digest(0, _report(3.5, 20.0))
    assert outputs.compare(ref, 0, _report(3.5, 20.0 * (1 + 1e-12))) is None
    assert outputs.compare(ref, 0, _report(3.5, 20.0 * (1 + 1e-8)))
    assert outputs.compare(ref, 0, _report(3.5 * (1 + 1e-15), 20.0))
    assert outputs.compare(ref, 1, _report(3.5, 20.0))


def test_invariants_without_reference():
    assert outputs.invariants(0, _report(3.5, 20.0)) is None
    assert outputs.invariants(2, _report(3.5, 20.0))
    assert outputs.invariants(0, "not json")
    assert outputs.invariants(1, _report(2.5, 20.0))


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
