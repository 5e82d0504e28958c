"""Store reference values that later runs on the same seeds are checked against.

    python3 perfbench/make_reference.py --workload sweep_wide --seeds 1 2 3

For each seed it sets up the workload, runs the checked body and records the
weight-program objectives (the sweeps) or the estimates table
(cli_transport) in perfbench/reference.json. Run it only on a commit whose
outputs are trusted.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"
CHECKED = ("sweep_wide", "kernel_rbf_sweep", "cli_transport")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=CHECKED)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    stored = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    for seed in args.seeds:
        with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
            inputs = workload.setup(seed, Path(tmp))
            log = workloads.SolveLog()
            with tracer.observing(log.hooks()):
                result = workload.body(inputs, 0)
            outcome = workload.check(inputs, 0, result, log, None)
            if outcome.problems:
                print(f"seed {seed}: not stored, checks failed: {outcome.problems[:5]}", file=sys.stderr)
                return 1
            stored.setdefault(args.workload, {})[str(seed)] = workload.reference_values(inputs, log)
        print(f"{args.workload} seed {seed}: stored")
    REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
