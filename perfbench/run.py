"""The illoc benchmark: one command per workload, every verdict checked.

    python3 perfbench/run.py --workload findings --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from `src` (no
installation needed). The run builds the workload's deck from the seed, takes
the expected answers from the oracles, measures set-up time in fresh
interpreters, then runs the deck in a separate worker process: for --seconds
seconds with --trace 0, or as one warm, one untraced and one traced pass
with --trace 1. It prints each metric with its unit, each failed check with
its cause, and as the last line one JSON object with `correct`, `attempted`,
`failed` and the metrics named in BENCHMARK.json (end_to_end with --trace 0,
per_layer with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from reference import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
TIME_LIMIT_S = 170
SETUP_SAMPLES = 10  # before the worker, and as many again after it
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import illoc, illoc.cli\n"
    "illoc.cli.build_parser()\n"
    "print(time.perf_counter() - start)\n"
)
# A fresh interpreter importing a fixed set of standard-library modules, and
# its time at the reference speed: set-up samples are scaled by it.
REFERENCE_IMPORT_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import argparse, concurrent.futures, dataclasses, decimal, email.message, enum, "
    "fractions, json, re, typing\n"
    "print(time.perf_counter() - start)\n"
)
REFERENCE_IMPORT_S = 0.04


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    """The caller's environment with the package on the path.

    Bytecode writing is allowed even if the caller turned it off, so that
    set-up time is measured with compiled bytecode, as an installed package
    would run; the budget comes from each command line, not the caller.
    """
    dropped = ("ILLOC_BUDGET", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env["PYTHONPATH"] = SRC
    return env


def time_child(code: str, deadline: float) -> float:
    """Seconds a fresh interpreter reports for running `code`."""
    done = subprocess.run(
        [sys.executable, "-s", "-c", code], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=max(1.0, deadline - perf_counter()),
    )
    if done.returncode != 0:
        raise RuntimeError(f"a set-up interpreter failed: {done.stderr.strip()[-300:]}")
    return float(done.stdout.strip())


def measure_setup(deadline: float, count: int) -> list:
    """(raw, scaled) seconds to import the package and build the CLI parser.

    Reference interpreters (REFERENCE_IMPORT_CODE) alternate with the timed
    ones; each sample is scaled by the mean of the two references around it,
    which tracks how fast the machine starts interpreters and imports
    modules right then.
    """
    time_child(SETUP_CODE, deadline)  # compiles bytecode, if needed
    references = [time_child(REFERENCE_IMPORT_CODE, deadline)]
    samples = []
    for _ in range(count):
        raw = time_child(SETUP_CODE, deadline)
        references.append(time_child(REFERENCE_IMPORT_CODE, deadline))
        samples.append((raw, raw * REFERENCE_IMPORT_S / statistics.mean(references[-2:])))
    return samples


def run_worker(deck_path: str, seconds: int, trace_out, deadline: float) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--deck", deck_path,
            "--seconds", str(seconds)]
    if trace_out:
        argv += ["--trace-out", trace_out]
    try:
        done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("the worker did not finish in time") from None
    if done.returncode != 0:
        raise RuntimeError(f"the worker failed: {done.stderr.strip()[-800:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def report(spec_metrics, values: dict) -> dict:
    metrics = {}
    for metric in spec_metrics:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:32s} {value:14.6g} {metric['unit']}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="illoc benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = perf_counter()
    deadline = started + TIME_LIMIT_S

    for path in (os.path.join(SRC, "illoc", "__init__.py"), os.path.join(TESTS, "mb_oracle.py")):
        if not os.path.isfile(path):
            return fail(f"{os.path.relpath(path, ROOT)} is missing; run from a checkout of the repository")
    sys.path[:0] = [SRC, TESTS]
    import decks

    if args.workload not in decks.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(decks.WORKLOADS)}")
    spec = load_spec()
    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        import oracles

        oracles.check_tables()
        deck = decks.WORKLOADS[args.workload](args.seed, os.path.relpath(workdir, ROOT))
        deck_path = os.path.join(workdir, "deck.json")
        with open(deck_path, "w", encoding="utf-8") as handle:
            json.dump(deck, handle)
        print(f"workload {args.workload}, seed {args.seed}: {len(deck)} checks per pass, "
              f"expected answers in {perf_counter() - started:.2f} s")

        if args.trace:
            trace_out = os.path.join(ROOT, ".perfbench", f"trace-{args.workload}-{args.seed}.jsonl")
            result = run_worker(deck_path, args.seconds, trace_out, deadline)
            values = result["layers"]
            metrics_spec = spec["per_layer"]
            print(f"spans written to {os.path.relpath(trace_out, ROOT)}")
        else:
            setup = measure_setup(deadline, SETUP_SAMPLES)
            result = run_worker(deck_path, args.seconds, None, deadline)
            setup += measure_setup(deadline, SETUP_SAMPLES)
            values = dict(result, setup_s=statistics.median(s for _, s in setup))
            metrics_spec = spec["end_to_end"]
            print(f"set-up: median of {len(setup)} fresh interpreters, "
                  f"{statistics.median(r for r, _ in setup):.6g} s before scaling")
            print(f"reference loop: median {result['reference_ms']:.4g} ms this run, "
                  f"{REFERENCE_S * 1000:g} ms at the reference speed; "
                  f"{result['raw_checks_per_s']:.6g} checks/s before scaling")
            print(f"{result['attempted']} checks in {result['wall_s']:.2f} s "
                  f"({result['passes']:.2f} passes, {result['wall_checks_per_s']:.4g} checks/s "
                  f"by wall time); {result['beyond_p90']} executions of "
                  f"{result['distinct_beyond_p90']} distinct checks beyond p90")
            print(f"full scans: {result['full_scan_valuations']} valuations")
            print(f"failed_ratio {result['failed_ratio']:.6g} (failed / attempted)")
            print(f"peak_rss_mb {result['peak_rss_mb']:.6g} MB")
    except Exception as error:  # any error here is the benchmark's, not a verdict
        return fail(f"{type(error).__name__}: {error}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in result["failures"]:
        print(f"FAILED x{failure['count']} {failure['check']}: {failure['cause']}")
    metrics = report(metrics_spec, values)
    print(json.dumps({
        "correct": result["incorrect"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
