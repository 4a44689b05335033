"""Benchmark entry point.

    python3 perfbench/run.py --workload search --seed 1 --seconds 40 --trace 0

Runs whole rounds of one workload, each in a fresh interpreter (so the
package's module-level caches start cold, as in every CLI call), one at a
time, until about --seconds seconds have been measured.  Set-up time is
also sampled by extra interpreters that only import the package and
generate the inputs.

Times are reported in reference seconds.  The host this was built on
runs one process at speeds that differ by up to 1.7x from one half
minute to the next, so raw seconds of runs a few minutes apart do not
compare.  Every round therefore also times a fixed reference kernel of
the benchmark's own (worker.reference_s) after the set-up and after each
operation, and each time is multiplied by REF_KERNEL_S / (the mean of
the NEAR_REF kernel times taken on either side of it): a reference
second is a second at the host speed at which the kernel takes
REF_KERNEL_S.  Set-up times are scaled by the kernel times taken right
after the set-up.

With --trace 0 it reports the end-to-end metrics: times as sums of
per-operation medians over the rounds, set-up time and memory as
medians.  With --trace 1 it alternates two untraced and two traced
rounds and reports the per-layer metrics of the last traced one.  The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.

Run from the repository root; it needs the package source under src/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "composition", "certify")
SETUP_SAMPLES = 5          # set-up only interpreters per run, besides the rounds
ROUND_TIMEOUT_S = 120
RUN_LIMIT_S = 150          # start no round after this much time has passed
REF_KERNEL_S = 0.001       # reference kernel time that defines a reference second
NEAR_REF = 3               # kernel times on each side of an operation that scale it


def _child(args, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH"))
                                        if p)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def scaled_op_s(r):
    """A round's operation times in reference seconds, in run order."""
    kernel = r["setup_ref"] + r["ref"]     # in the order taken; ref[i] follows op i
    first = len(r["setup_ref"])            # kernel[first + i - 1] precedes op i
    out = {}
    for i, (label, (phase, t)) in enumerate(r["op_s"].items()):
        near = kernel[max(0, first + i - NEAR_REF):first + i + NEAR_REF]
        out[label] = (phase, t * REF_KERNEL_S / statistics.fmean(near))
    return out


def scaled_setup_s(r):
    return r["setup_s"] * REF_KERNEL_S / statistics.fmean(r["setup_ref"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rainbowramsey" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'rainbowramsey'}", file=sys.stderr)
        return 2

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    # one unmeasured start, so byte-code caches exist before anything is timed
    _child(base + ["--setup-only"], ROUND_TIMEOUT_S)
    started = perf_counter()
    rounds = []
    if args.trace:
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-{args.seed}.tsv"
        # untraced and traced rounds alternate, so the host's drift hits both
        for _ in range(2):
            rounds.append(_child(base + ["--trace", "0"], ROUND_TIMEOUT_S))
            rounds.append(_child(base + ["--trace", "1", "--spans", str(spans_file)],
                                 ROUND_TIMEOUT_S))
    else:
        while True:
            rounds.append(_child(base + ["--trace", "0"], ROUND_TIMEOUT_S))
            print(f"round {len(rounds)}: wall_s={rounds[-1]['wall_s']:.4f} (raw)",
                  file=sys.stderr)
            elapsed = perf_counter() - started
            per_round = elapsed / len(rounds)
            if elapsed + per_round / 2 >= args.seconds or elapsed + per_round >= RUN_LIMIT_S:
                break
    setups = [scaled_setup_s(r) for r in rounds]
    if not args.trace:
        setups += [scaled_setup_s(_child(base + ["--setup-only"], ROUND_TIMEOUT_S))
                   for _ in range(SETUP_SAMPLES)]
    op_s = [scaled_op_s(r) for r in rounds]
    wall = [sum(t for _, t in ops.values()) for ops in op_s]

    problems = [p for r in rounds for p in r["problems"]]
    for p in problems:
        print(f"FAILED CHECK: {p}", file=sys.stderr)
    # Per operation, the median over the rounds; a phase's time is the sum
    # over its operations.
    per_op = {label: (phase, statistics.median(ops[label][1] for ops in op_s))
              for label, (phase, _) in op_s[0].items()}
    phase_s = lambda phase: sum(t for ph, t in per_op.values() if ph == phase)
    if args.trace:
        traced = rounds[-1]
        overhead = statistics.median(wall[1::2]) - statistics.median(wall[0::2])
        # self times scaled like the traced round's own wall time
        to_ref = wall[-1] / traced["wall_s"]
        metrics = {name: {"value": value * to_ref if unit == "s" and value is not None
                          else value, "unit": unit}
                   for name, (value, unit) in traced["layers"].items()}
        metrics["search.nodes"] = {"value": traced["search_nodes"], "unit": "count"}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.spans"] = {"value": traced["spans"], "unit": "count"}
        for name in traced["missing"]:
            print(f"traced name missing: {name}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": phase_s("core") + phase_s("rest"), "unit": "s"},
            "core_s": {"value": phase_s("core"), "unit": "s"},
            "rest_s": {"value": phase_s("rest"), "unit": "s"},
            "core_rate": {"value": rounds[0]["core_items"] / phase_s("core"), "unit": "1/s"},
            "peak_rss_mib": {"value": statistics.median(r["peak_rss_kib"] for r in rounds) / 1024,
                             "unit": "MiB"},
        }
    print(f"{args.workload} seed={args.seed} rounds={len(rounds)} "
          f"attempted={sum(r['attempted'] for r in rounds)} "
          f"failed={sum(r['failed'] for r in rounds)}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']!s:>24} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
