"""One benchmark round in a fresh interpreter.

Imports the package, generates the workload's inputs, runs every
operation once (timed), reads the peak resident memory, then checks every
output.  After the set-up and after every operation it also times the
reference kernel, a fixed piece of pure-Python work of the benchmark's
own, so that the runner can scale each time to one host speed (see
run.py).  With --trace 1 the round records spans (see spans.py) and
reports per-layer figures.  Prints one JSON object on its last line.

Run from the repository root with the package on the path:
    PYTHONPATH=src python3 perfbench/worker.py --workload search --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import traceback
from contextlib import nullcontext
from fractions import Fraction
from time import perf_counter

# Kernel samples taken right after the set-up, before the first operation.
SETUP_REF_SAMPLES = 3
# Sets of B_7 the kernel compares pairwise: a fixed pseudo-random half.
_KERNEL_FAMILY = [m for m in range(1 << 7) if (m * 2654435761) % 7 < 3]


def reference_s():
    """Seconds one run of the reference kernel takes.

    The kernel mixes what the package's own hot loops do: dict and set
    updates, subset tests on bitmasks over a family of sets, exact
    Fraction sums and a float grid scan.  It is the benchmark's code,
    so a change to the package cannot move it; its time follows the
    host's speed.  The garbage collector is off while it runs, so the
    package's heap does not leak into its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    d, s = {}, set()
    for i in range(1200):
        d[i & 511] = d.get(i & 511, 0) + i
        s.add((i * 7) & 2047)
    fam = _KERNEL_FAMILY
    pairs = 0
    for a in fam:
        for b in fam:
            if a != b and a & ~b == 0:
                pairs += 1
    x = Fraction(0)
    for i in range(1, 60):
        x += Fraction(1, i * i + 1)
    worst = float("-inf")
    for i in range(500):
        b = min(i * 1e-3, 0.5)
        v = b * (-b * b + 3.8 * b - 2.0)
        if v > worst:
            worst = v
    took = perf_counter() - start
    if enabled:
        gc.enable()
    return took


def _with_color_map(args, kwargs):
    """1 when _search_embedding(members, pattern, mode, thin, color_of) gets
    a color map (a rainbow check), 0 for a monochromatic check."""
    color_of = kwargs["color_of"] if "color_of" in kwargs else (args[4:] or (None,))[0]
    return int(color_of is not None)


# Span targets: (module, attribute, span name, wrap options); see
# LAYER_METRICS for how span names become per-layer metrics.
_FOUND = {"outcome": lambda res: res is not None, "size": lambda a, k: len(a[0])}
_EMBED_KIND = dict(_FOUND, split=_with_color_map)
TARGETS = [
    ("search", "ramsey", "search.ramsey", {}),
    ("search", "rainbow_ramsey", "search.rainbow_ramsey", {}),
    ("search", "threshold_F", "search.threshold_F", {}),
    ("search", "two_color_partial_exact", "search.two_color_partial_exact", {}),
    ("search", "two_color_size_dp_oracle", "search.two_color_size_dp_oracle", {}),
    ("search", "fork_g_sweep", "search.fork_sweep", {}),
    ("search", "_prefix_is_orbit_min", "search.orbit_check", {"outcome": lambda res: res is False}),
    ("search", "_threshold3", "search.threshold3", {}),
    ("search", "_threshold2", "search.threshold2", {}),
    ("search", "_two_color_pareto_dp", "search.pareto_dp", {}),
    ("search", "_seed_three_point", "search.seed_three_point", {}),
    ("search", "_search_embedding", ("posets.mono_check", "posets.rainbow_embed"), _EMBED_KIND),
    ("colorings", "_search_embedding", ("posets.mono_check", "posets.rainbow_embed"), _EMBED_KIND),
    ("search", "_rainbow_strong_antichain", "colorings.rainbow_antichain", _FOUND),
    ("colorings", "_rainbow_strong_antichain", "colorings.rainbow_antichain", _FOUND),
    ("search", "lubell_interval", "lubell.interval", {}),
    ("posets", "find_copy", "posets.find_copy", {}),
    ("colorings", "find_copy", "posets.find_copy", {}),
    ("posets", "extremal_params", "posets.extremal_params", {}),
    ("colorings", "find_pattern", "colorings.find_pattern", {}),
    ("colorings", "validate_witness", "colorings.validate_witness", {}),
    ("colorings", "generate", "colorings.construct", {}),
    ("colorings", "thin_antichain", "colorings.construct", {}),
    ("lubell", "lubell_mass", "lubell.mass", {}),
    ("lubell", "maxpart_identity_residual", "lubell.residual", {}),
    ("lubell", "max_partition", "lattice.max_partition", {}),
    ("lattice", "max_partition", "lattice.max_partition", {}),
    ("lattice", "Family.make", "lattice.family_make", {}),
    ("corechain", "core_chain", "corechain.core_chain", {}),
    ("corechain", "validate_core_chain", "corechain.validate", {}),
    ("asymptotics", "c_sequence", "asymptotics.c_sequence", {}),
    ("asymptotics", "inequality_grid", "asymptotics.grid", {}),
]

# per-layer metric -> (unit, kind, span names); kind is calls, self (self
# seconds), ratio (hits / calls) or mean (mean input size per call)
LAYER_METRICS = {
    "search.self_s": ("s", "self", ("search.ramsey", "search.rainbow_ramsey")),
    "search.orbit_check_calls": ("count", "calls", ("search.orbit_check",)),
    "search.orbit_check_s": ("s", "self", ("search.orbit_check",)),
    "search.orbit_reject_ratio": ("ratio", "ratio", ("search.orbit_check",)),
    "search.threshold3_s": ("s", "self", ("search.threshold3",)),
    "search.threshold2_s": ("s", "self", ("search.threshold2",)),
    "search.pareto_dp_s": ("s", "self", ("search.pareto_dp",)),
    "search.seed_three_point_s": ("s", "self", ("search.seed_three_point",)),
    "search.fork_sweep_s": ("s", "self", ("search.fork_sweep",)),
    "posets.mono_check_calls": ("count", "calls", ("posets.mono_check",)),
    "posets.mono_check_s": ("s", "self", ("posets.mono_check",)),
    "posets.mono_check_hit_ratio": ("ratio", "ratio", ("posets.mono_check",)),
    "posets.mono_check_members_mean": ("sets", "mean", ("posets.mono_check",)),
    "posets.rainbow_embed_calls": ("count", "calls", ("posets.rainbow_embed",)),
    "posets.rainbow_embed_s": ("s", "self", ("posets.rainbow_embed",)),
    "posets.find_copy_calls": ("count", "calls", ("posets.find_copy",)),
    "posets.find_copy_s": ("s", "self", ("posets.find_copy",)),
    "posets.extremal_params_s": ("s", "self", ("posets.extremal_params",)),
    "colorings.rainbow_antichain_calls": ("count", "calls", ("colorings.rainbow_antichain",)),
    "colorings.rainbow_antichain_s": ("s", "self", ("colorings.rainbow_antichain",)),
    "colorings.rainbow_antichain_hit_ratio": ("ratio", "ratio", ("colorings.rainbow_antichain",)),
    "colorings.find_pattern_s": ("s", "self", ("colorings.find_pattern",)),
    "colorings.construct_s": ("s", "self", ("colorings.construct",)),
    "colorings.serialize_s": ("s", "self", ("colorings.serialize",)),
    "lubell.interval_calls": ("count", "calls", ("lubell.interval",)),
    "lubell.interval_s": ("s", "self", ("lubell.interval",)),
    "lubell.mass_s": ("s", "self", ("lubell.mass",)),
    "lubell.residual_s": ("s", "self", ("lubell.residual",)),
    "lattice.family_make_calls": ("count", "calls", ("lattice.family_make",)),
    "lattice.family_make_s": ("s", "self", ("lattice.family_make",)),
    "lattice.max_partition_s": ("s", "self", ("lattice.max_partition",)),
    "corechain.core_chain_s": ("s", "self", ("corechain.core_chain",)),
    "corechain.validate_s": ("s", "self", ("corechain.validate",)),
    "asymptotics.c_sequence_s": ("s", "self", ("asymptotics.c_sequence",)),
    "asymptotics.grid_s": ("s", "self", ("asymptotics.grid",)),
}
# spans the benchmark records itself, so never missing
BENCH_SPANS = {"colorings.serialize"}


def layer_metrics(summary, available):
    """Per-layer values from a span summary; None for a layer none of
    whose wrapped names exists any more."""
    out = {}
    for metric, (unit, kind, names) in LAYER_METRICS.items():
        if not any(n in available for n in names):
            out[metric] = (None, unit)
            continue
        rows = [summary.get(n, {}) for n in names]
        calls = sum(r.get("calls", 0) for r in rows)
        if kind == "calls":
            value = calls
        elif kind == "self":
            value = sum(r.get("self_s", 0.0) for r in rows)
        elif kind == "ratio":
            value = sum(r.get("hits", 0) for r in rows) / calls if calls else 0.0
        else:
            value = sum(r.get("size_sum", 0) for r in rows) / calls if calls else 0.0
        out[metric] = (value, unit)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file for the span list of a traced round")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = perf_counter()
    import rainbowramsey
    import workloads
    ops = workloads.build(args.workload, args.seed, rainbowramsey)
    setup_s = perf_counter() - t0
    setup_ref = [reference_s() for _ in range(SETUP_REF_SAMPLES)]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref": setup_ref}))
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        for module, attr, name, kw in TARGETS:
            tracer.wrap(f"rainbowramsey.{module}", attr, name, **kw)

    results, errors, times, ref = {}, {}, {}, []
    for op in ops:
        label = op.label
        ctx = tracer.span(f"bench.{op.phase}") if tracer else nullcontext()
        inner = tracer.span(op.span) if tracer and op.span else nullcontext()
        with ctx, inner:
            start = perf_counter()
            try:
                results[label] = op.run(results)
            except Exception:   # an op that raises is a failed op, reported below
                errors[label] = traceback.format_exc(limit=3)
            times[label] = perf_counter() - start
        ref.append(reference_s())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failed, problems, core_items = 0, [], 0
    for op in ops:
        label = op.label
        msg = errors.get(label)
        if msg is None and op.check is not None:
            try:
                op.check(results[label], results)
            except workloads.CheckFailed as exc:
                msg = str(exc)
            except Exception:
                msg = traceback.format_exc(limit=3)
        if msg is None:
            if op.phase == "core" and op.items is not None:
                core_items += op.items(results[label], results)
            continue
        failed += 1
        if not op.known_fault:
            problems.append(f"{label}: {msg}")
        else:
            print(f"known fault, {label}: {msg}", file=sys.stderr)

    search_nodes = sum(getattr(results.get(op.label), "details", {}).get("nodes", 0)
                       for op in ops if op.phase == "core")
    core_s = sum(times[op.label] for op in ops if op.phase == "core")
    rest_s = sum(times[op.label] for op in ops if op.phase == "rest")
    out = {
        "setup_s": setup_s, "setup_ref": setup_ref, "ref": ref,
        "wall_s": core_s + rest_s, "core_s": core_s, "rest_s": rest_s,
        "op_s": {op.label: [op.phase, times[op.label]] for op in ops},
        "core_items": core_items, "search_nodes": search_nodes, "peak_rss_kib": peak_kib,
        "attempted": len(ops), "failed": failed, "problems": problems,
    }
    if tracer is not None:
        summary = tracer.summary()
        out["layers"] = layer_metrics(summary, tracer.available | BENCH_SPANS)
        out["missing"] = tracer.missing
        out["spans"] = len(tracer.start)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
