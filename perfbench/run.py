"""Benchmark of the sitetransport package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It sets up the workload's inputs from the
seed, runs one checked body (untimed), then times bodies for S seconds and
checks each output. With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced bodies and prints the
per-layer metrics. The last line of standard output is one JSON object. The
exit code is nonzero when any output check fails. ``--workload all`` runs
every workload, each in a fresh process.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
NAMES = ("sim_default", "sweep_wide", "kernel_rbf_sweep", "cli_transport")
# Set-up is repeated and its median reported, so one slow disk write or
# page-cache miss does not decide setup_s.
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def run_all(args) -> int:
    """Each workload in its own process; merged result on the last line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
            print(lines[-1])
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sitetransport" / "__init__.py").is_file():
        print(f"sitetransport sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import envinfo
    import layers
    import workloads

    import_s = time.perf_counter() - PROCESS_START
    workload = workloads.WORKLOADS[args.workload]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    reference = layers.load_reference(HERE / "reference.json", args.workload, args.seed)

    setup_times = []
    for i in range(SETUP_REPEATS):
        workdir = run_dir / f"inputs{i}"
        workdir.mkdir(parents=True)
        t = time.perf_counter()
        inputs = workload.setup(args.seed, workdir)
        setup_times.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setup_times)

    try:
        run = layers.measure(workload, inputs, args.seconds, bool(args.trace), reference)
    finally:
        # keep the record, drop the generated inputs
        for i in range(SETUP_REPEATS):
            shutil.rmtree(run_dir / f"inputs{i}", ignore_errors=True)

    env = envinfo.environment(ROOT)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(run.walls)
    lib_failed = sum(run.lib_failed.values())
    fail_share = run.fail_share
    if args.trace:
        metrics = layers.per_layer(run)
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "work_per_s": {"value": workload.work(inputs) / wall_s, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "fail_share": fail_share,
        "library_failed": run.lib_failed,
        "attempted": run.attempted,
        "problems": run.problems,
        "walls_s": run.walls,
        "traced_walls_s": run.traced_walls,
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "layers": run.layers,
        "spans": run.spans,
    }
    (run_dir / "record.json").write_text(json.dumps(record), encoding="utf-8")

    q1, q3 = quartiles(run.walls)
    print(f"env: {envinfo.one_line(env)}")
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(run.walls)} timed bodies, "
        f"{workload.work(inputs):g} {workload.work_unit} each"
    )
    print(f"  wall_s       {wall_s:.4f} s (median; quartiles {q1:.4f}, {q3:.4f})")
    print(f"  work_per_s   {workload.work(inputs) / wall_s:.4g} {workload.work_unit}/s")
    print(f"  setup_s      {setup_s:.4f} s (imports {import_s:.3f} s + median of {SETUP_REPEATS} set-ups)")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    split = ", ".join(f"{k} {v}" for k, v in sorted(run.lib_failed.items())) or "none"
    print(
        f"  fail_share   {fail_share:.6f} ({lib_failed} library-reported failures [{split}] "
        f"+ {len(run.problems)} failed checks, of {run.attempted} operations)"
    )
    if args.trace:
        for name, metric in metrics.items():
            value = metric["value"]
            shown = "unavailable" if value is None else f"{value:.6g}"
            print(f"  {name:<44} {shown} {metric['unit']}")
    for problem in run.problems[:20]:
        print(f"  FAILED CHECK: {problem}")
    print(f"  record       {run_dir / 'record.json'}")
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": run.attempted,
                "failed": len(run.problems),
                "metrics": metrics,
            }
        )
    )
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
