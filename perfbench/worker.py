"""One workload run in a fresh interpreter; started by run.py.

Imports the CLI from the checkout's `src/`, generates the seeded inputs,
prints `ready` (the end of set-up), then calls `warpedsphere.cli.main` on
one input after another in a closed loop, with stdout and stderr
captured, and checks every output.  It measures whole rounds of inputs
(see workloads.py) until --seconds have passed.  The last line of stdout
is a JSON object with the call times and counts.

With --trace 1 every input is called twice, untraced and with spans
recorded (see spans.py); the spans are written to perfbench/out/ at the
end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import outputs
import spans
import workloads


def import_cli():
    """The CLI module from the checkout's src/, never an installed copy."""
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    from warpedsphere import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"warpedsphere was imported from {cli.__file__}, "
                          f"not from {src}")
    return cli


def call(cli, argv: list[str]):
    """One CLI call: (exit code or None if it raised, stdout, stderr, s)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            traceback.print_exc()
    seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def check(index: int, argv, code, stdout: str, stderr: str,
          references: list[dict]) -> str | None:
    """Why the call's output is wrong, or None."""
    if code is None:
        return "raised: " + (stderr.strip().splitlines() or ["?"])[-1]
    if index < len(references):
        ref = references[index]
        if ref["argv"] != argv:
            return "stored reference is for another input; regenerate it"
        return outputs.compare(ref["digest"], code, stdout)
    return outputs.invariants(code, stdout)


def run_calls(cli, inputs, references, round_size, seconds,
              tracer=None) -> dict:
    """Call inputs in order, whole rounds until `seconds` have passed.

    With a tracer, every input is called twice, once untraced and once
    traced, alternating which goes first, so that drift in machine speed
    and first-call costs fall on both alike."""
    times, traced_times, failures = [], [], []
    scenarios = out_bytes = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while k % round_size or time.perf_counter() < deadline:
        i = k % len(inputs)
        modes = (False,) if tracer is None else \
            (False, True) if k % 2 == 0 else (True, False)
        for traced in modes:
            if traced:
                tracer.call_id = k
                tracer.install()
            try:
                code, out, err, dt = call(cli, inputs[i])
            finally:
                if traced:
                    tracer.uninstall()
            (traced_times if traced else times).append(dt)
            why = check(i, inputs[i], code, out, err, references)
            if why:
                failures.append(f"{' '.join(inputs[i])}: {why}")
        scenarios += workloads.scenarios(inputs[i])
        out_bytes += len(out.encode())
        k += 1
    return {"times": times, "traced_times": traced_times,
            "scenarios": scenarios, "bytes": out_bytes,
            "failures": failures}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once set-up is done")
    args = parser.parse_args()

    cli = import_cli()
    workloads.write_configs()
    inputs = workloads.generate(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    references = outputs.load_references(args.workload, args.seed)
    per_round = workloads.round_size(args.workload)
    tracer = spans.Tracer() if args.trace else None
    result = run_calls(cli, inputs, references, per_round, args.seconds,
                       tracer)
    if tracer is None:
        result["peak_rss_kb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        result["summary"] = spans.summarize(tracer.spans,
                                            len(result["traced_times"]))
        tracer.write(os.path.join(
            workloads.WORK_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    # imported only now, so that set-up time holds only what the CLI imports
    import numpy
    import scipy
    result["versions"] = {"numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
