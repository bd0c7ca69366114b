"""Regenerate the stored output digests under perfbench/reference/.

    python3 perfbench/make_reference.py --workload verify

Runs the leading inputs of every shipped seed (outputs.SHIPPED_SEEDS,
outputs.REFERENCE_INPUTS) through the CLI in-process, with the thread
settings the benchmark uses, and stores each digest with its argv.
Regenerate only when the program's output is meant to change.
"""

from __future__ import annotations

import argparse
import os
import sys

from run import THREAD_ENV

os.environ.update(THREAD_ENV)   # before numpy is imported

import outputs  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    args = parser.parse_args()
    cli = worker.import_cli()
    workloads.write_configs()
    by_seed = {}
    for seed in outputs.SHIPPED_SEEDS:
        records = []
        inputs = workloads.generate(args.workload, seed)
        for argv in inputs[:outputs.REFERENCE_INPUTS[args.workload]]:
            code, out, err, _ = worker.call(cli, argv)
            if code not in (0, 1):
                print(f"{' '.join(argv)}: exit {code}\n{err}",
                      file=sys.stderr)
                return 1
            records.append({"argv": argv,
                            "digest": outputs.digest(code, out)})
        by_seed[seed] = records
        print(f"{args.workload} seed {seed}: {len(records)} digests",
              flush=True)
    outputs.save_references(args.workload, by_seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
