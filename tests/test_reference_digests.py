"""The benchmark's stored output digests, replayed in-process.

`perfbench/reference/` holds the digest (exit code, verdicts, report
without its timestamp) of the leading inputs of every shipped seed.  Each
input here goes through the CLI as the benchmark calls it and must match
its digest by `perfbench/outputs.compare`: certified fields and verdicts
exactly, every other float to `outputs.REL_TOL` relative.  On round and
scaled spheres several check left-hand sides are pure round-off, so a
change that merely reorders floating-point operations on the verify path
fails here.  Only reads `perfbench/`.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import outputs  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

from warpedsphere import cli  # noqa: E402

#: leading inputs replayed per workload and seed
INPUTS = {"verify": 16, "sequence": 16, "pointpick": 3}


@pytest.mark.parametrize("seed", outputs.SHIPPED_SEEDS)
@pytest.mark.parametrize("workload", list(INPUTS))
def test_outputs_match_stored_digests(workload, seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workloads.write_configs()      # the graded-grid scenario files
    references = outputs.load_references(workload, seed)
    count = INPUTS[workload]
    assert len(references) >= count
    wrong = []
    for i, argv in enumerate(workloads.generate(workload, seed)[:count]):
        code, out, err, _ = worker.call(cli, argv)
        why = worker.check(i, argv, code, out, err, references)
        if why:
            wrong.append(f"{' '.join(argv)}: {why}")
    assert not wrong, "\n".join(wrong)
