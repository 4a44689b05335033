"""Command-line surface: every subcommand emits a result body plus a run
manifest (command line, version, wall time, digest of the result, and the
seed drawn by `coloring gen --kind fk-random`, the one run that draws any).

Replaying the same argv reproduces a byte-identical result body; only the
manifest's timestamp and wall time differ.  Exit codes: 0 on
success, 2 when a search exhausted its budget (partial result still
emitted), 1 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from datetime import datetime, timezone

from . import __version__
from .lattice import Family, mask_from_elements
from .lubell import lubell_mass, lubell_subcube, maxpart_identity_residual
from .posets import MODES, poset_by_name
from .corechain import core_chain, validate_core_chain
from .colorings import Coloring, generate, thin_antichain, validate_witness
from .search import (
    TWO_COLOR_N_MAX,
    SearchResult,
    fork_f_small,
    fork_g,
    rainbow_ramsey,
    ramsey,
    threshold_F,
    two_color_partial_exact,
    _jsonable,
)
from .asymptotics import GRID_CLAIMS, c_sequence, inequality_grid
from .criteria import REGISTRY, run_criterion


# defaults of the --budget and --n-cap flags of the exhaustive searches
_BUDGET = 2_000_000
_N_CAP = 3

# the largest N of lubell --subcube: C(10^4, 5 * 10^3) has 3,008 digits and
# takes milliseconds, while C(10^6, 5 * 10^5) takes seconds and larger N
# far longer
_SUBCUBE_N_MAX = 10_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _read_family(path: str) -> Family:
    text = _read_text(path)
    stripped = text.lstrip()
    return Family.from_json(text) if stripped.startswith("{") else Family.from_text(text)


def _read_coloring(path: str) -> Coloring:
    text = _read_text(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        result = obj.get("result") if isinstance(obj, dict) else None
        if isinstance(result, dict) and "coloring" in result:
            return Coloring.from_json(json.dumps(result["coloring"]))
        return Coloring.from_json(text)
    return Coloring.from_text(text)


def _search_payload(res: SearchResult):
    body = res.to_jsonable()
    rows = [{"problem": res.problem, "value": _jsonable(res.value), "method": res.method}]
    return body, rows, 2 if res.budget_exhausted else 0


# --- subcommand handlers: each returns (result_body, csv_rows, exit_code) --

def _cmd_ramsey(args):
    pats = [poset_by_name(p) for p in args.p]
    res = ramsey(pats, args.mode, args.n_cap, args.budget, not args.no_symmetry)
    res.problem = f"R({','.join(args.p)}) {args.mode}"
    return _search_payload(res)


def _cmd_rainbow(args):
    res = rainbow_ramsey(poset_by_name(args.p), poset_by_name(args.q), args.mode,
                         args.n_cap, args.budget, not args.no_symmetry)
    res.problem = f"RR({args.p},{args.q}) {args.mode}"
    return _search_payload(res)


def _cmd_threshold(args):
    res = threshold_F(args.n, args.k, args.partial, args.budget)
    return _search_payload(res)


def _cmd_two_color(args):
    if args.sweep is not None:
        if args.sweep < args.n:
            raise _UsageError(f"--sweep must be >= --n ({args.n}), got {args.sweep}")
        if args.sweep > TWO_COLOR_N_MAX:
            raise _UsageError(f"--sweep must be <= {TWO_COLOR_N_MAX}, got {args.sweep}")
        rows = []
        for n in range(args.n, args.sweep + 1):
            res = two_color_partial_exact(n, args.objective)
            rows.append({"n": n, "value": _jsonable(res.value),
                         "float": float(res.value)})
        body = {"problem": f"{'F' if args.objective == 'size' else 'G'}'(n,2) sweep",
                "rows": rows}
        return body, rows, 0
    res = two_color_partial_exact(args.n, args.objective)
    return _search_payload(res)


def _cmd_fork(args):
    if args.which == "g":
        if args.budget is not None or args.n_cap is not None:
            raise _UsageError("--budget and --n-cap apply to --which f only")
        value = fork_g(args.r, args.k)
        body = {"problem": f"g_{args.k}({args.r})", "value": value, "method": "formula"}
        return body, [body], 0
    res = fork_f_small(args.r, args.k, _N_CAP if args.n_cap is None else args.n_cap,
                       _BUDGET if args.budget is None else args.budget)
    return _search_payload(res)


def _cmd_lubell(args):
    if args.subcube is None and args.family is None:
        raise _UsageError("lubell needs --family or --subcube")
    if args.subcube is not None and args.family is not None:
        raise _UsageError("lubell takes --family or --subcube, not both")
    if args.residual and args.family is None:
        raise _UsageError("--residual needs --family")
    if args.subcube:
        n, a, b = args.subcube
        if n > _SUBCUBE_N_MAX:
            raise _UsageError(f"lubell --subcube needs N <= {_SUBCUBE_N_MAX}, got {n}")
        v = lubell_subcube(n, a, b)
        body = {"problem": f"lambda_{n}(B_{{{a},{n - b}}})", "value": _jsonable(v)}
    else:
        fam = _read_family(args.family)
        if args.residual:
            v = maxpart_identity_residual(fam, "dp")
            body = {"problem": f"max-partition residual (n={fam.ground})", "value": _jsonable(v)}
        else:
            v = lubell_mass(fam)
            body = {"problem": f"lubell mass (n={fam.ground}, {len(fam)} sets)",
                    "value": _jsonable(v)}
    return body, [body], 0


def _cmd_corechain(args):
    fams = [_read_family(p) for p in args.family]
    cc = core_chain(fams)
    check = validate_core_chain(cc, fams)
    body = {**json.loads(cc.to_json()), "valid": bool(check)}
    return body, [body], 0


# the flags each coloring gen kind reads, with their defaults; a flag the
# kind does not read is refused
_GEN_FLAGS = {
    "consecutive-level": {"n": 0, "parts": None},
    "trace": {"n": 0, "r_set": None},
    "level": {"n": 0},
    "rr-lower": {"e": 1, "q": 2, "f_tweak": 0},
    "f2-lower": {"n": 0},
    "g2-lower": {"n": 0},
    "fk-random": {"n": 0, "k": 2, "seed": 20250811},
}
_GEN_OPTIONS = list(dict.fromkeys(name for flags in _GEN_FLAGS.values() for name in flags))


def _cmd_coloring_gen(args):
    reads = _GEN_FLAGS[args.kind]
    stray = [f"--{name.replace('_', '-')}" for name in _GEN_OPTIONS
             if name not in reads and getattr(args, name) is not None]
    if stray:
        raise _UsageError(f"--kind {args.kind} does not read {', '.join(stray)}")
    params = {name: default if getattr(args, name) is None else getattr(args, name)
              for name, default in reads.items()}
    if args.kind == "consecutive-level":
        if params["parts"] is None:
            raise _UsageError("--kind consecutive-level needs --parts")
        params["parts"] = [int(x) for x in params["parts"].split(",")]
    elif args.kind == "trace":
        r_set = params.pop("r_set")
        elems = [int(x) for x in r_set.split(",")] if r_set else []
        params["r_mask"] = mask_from_elements(elems, params["n"])
    # the manifest records the seed drawn, and only fk-random draws one
    args.seed = params.pop("seed", None)
    out = generate(args.kind, params, seed=args.seed)
    col = out[0] if isinstance(out, tuple) else out
    body = {"coloring": json.loads(col.to_json()), "kind": args.kind,
            "classes": col.class_sizes()}
    if isinstance(out, tuple):
        body["centers"] = list(out[1].centers)
    return body, [{"kind": args.kind, "n": col.ground, "colors": col.num_colors}], 0


def _cmd_coloring_check(args):
    col = _read_coloring(args.coloring)
    mode_p = args.mode_p or args.mode
    mode_q = args.mode_q or args.mode
    v = validate_witness(col, poset_by_name(args.p), poset_by_name(args.q), mode_p, mode_q)
    body = {"n": col.ground, "p": args.p, "q": args.q,
            "mode_p": mode_p, "mode_q": mode_q, "avoided": v.avoided}
    if v.mono_copy is not None:
        emb, color = v.mono_copy
        body["mono_copy"] = {"images": list(emb.images), "color": color}
    if v.rainbow_copy is not None:
        emb, colors = v.rainbow_copy
        body["rainbow_copy"] = {"images": list(emb.images), "colors": list(colors)}
    return body, [body], 0


def _cmd_thin_antichain(args):
    fam = thin_antichain(args.n)
    body = {"n": args.n, "size": len(fam), "sets": list(fam.members),
            "family_text": fam.to_text()}
    return body, [{"n": args.n, "size": len(fam)}], 0


def _cmd_constants(args):
    ec = c_sequence(args.k_max, args.tol)
    rows = [{"k": k + 1, "c_k": c, "residual": r}
            for k, (c, r) in enumerate(zip(ec.c, ec.residuals))]
    body = {"tol": ec.tol, "c": list(ec.c), "residuals": list(ec.residuals)}
    return body, rows, 0


def _cmd_inequalities(args):
    claims = [(c, s) for c, s in GRID_CLAIMS if args.check in (None, c)]
    rows = []
    for check, step in claims:
        g = inequality_grid(check, step if args.step is None else args.step)
        rows.append({"claim": g.claim, "max_violation": g.max_violation,
                     "argmax": list(g.argmax), "points": g.points, "step": g.step})
    return {"checks": rows}, rows, 0


def _cmd_repro(args):
    rep = run_criterion(args.claim_id)
    rows = [{"criterion": REGISTRY[args.claim_id][0], "claim": args.claim_id,
             "status": status, "detail": text} for status, text in rep.lines]
    body = {"claim": args.claim_id, "criterion": REGISTRY[args.claim_id][0],
            "title": rep.title, "passed": rep.passed, "checks": rows}
    return body, rows, 0 if rep.passed else 2


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the result file here instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, default=_BUDGET,
                        help="node cap for exhaustive searches")
    n_cap = argparse.ArgumentParser(add_help=False)
    n_cap.add_argument("--n-cap", type=int, default=_N_CAP, dest="n_cap")

    parser = _Parser(prog="rainbowramsey",
                     description="exact rainbow Ramsey toolkit for the Boolean lattice")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ramsey", parents=[common, budget, n_cap])
    p.add_argument("--p", action="append", required=True,
                   help="poset name (repeat per color), e.g. --p C3 --p C3")
    p.add_argument("--mode", choices=MODES, default="weak")
    p.add_argument("--no-symmetry", action="store_true")
    p.set_defaults(handler=_cmd_ramsey)

    p = sub.add_parser("rainbow", parents=[common, budget, n_cap])
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--mode", choices=MODES, default="weak")
    p.add_argument("--no-symmetry", action="store_true")
    p.set_defaults(handler=_cmd_rainbow)

    p = sub.add_parser("threshold", parents=[common, budget])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--partial", action="store_true")
    p.set_defaults(handler=_cmd_threshold)

    p = sub.add_parser("two-color", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--objective", choices=("size", "mass"), default="size")
    p.add_argument("--sweep", type=int, help="also compute up to this n (tabular output)")
    p.set_defaults(handler=_cmd_two_color)

    p = sub.add_parser("fork", parents=[common])
    p.add_argument("--which", choices=("g", "f"), default="g")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    # --which g is a formula, so these have no default here: given with g
    # they are refused, and --which f falls back to the shared defaults
    p.add_argument("--budget", type=int, help=f"--which f only (default {_BUDGET})")
    p.add_argument("--n-cap", type=int, dest="n_cap", help=f"--which f only (default {_N_CAP})")
    p.set_defaults(handler=_cmd_fork)

    p = sub.add_parser("lubell", parents=[common])
    p.add_argument("--family", help="FAM v1 or JSON family file, or - for stdin")
    p.add_argument("--subcube", type=int, nargs=3, metavar=("N", "A", "B"))
    p.add_argument("--residual", action="store_true",
                   help="max-partition identity residual instead of the mass")
    p.set_defaults(handler=_cmd_lubell)

    p = sub.add_parser("corechain", parents=[common])
    p.add_argument("--family", action="append", required=True)
    p.set_defaults(handler=_cmd_corechain)

    p = sub.add_parser("coloring", parents=[])
    csub = p.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    g = csub.add_parser("gen", parents=[common])
    g.add_argument("--kind", required=True, choices=tuple(_GEN_FLAGS))
    # no defaults here: the kinds that read these flags fill them in
    g.add_argument("--n", type=int, help="every kind but rr-lower (default 0)")
    g.add_argument("--parts", help="comma-separated block lengths (consecutive-level)")
    g.add_argument("--r-set", help="comma-separated elements of R (trace)")
    g.add_argument("--e", type=int, help="rr-lower (default 1)")
    g.add_argument("--q", type=int, help="rr-lower (default 2)")
    g.add_argument("--f-tweak", type=int, help="rr-lower (default 0)")
    g.add_argument("--k", type=int, help="fk-random (default 2)")
    g.add_argument("--seed", type=int, help="fk-random (default 20250811)")
    g.set_defaults(handler=_cmd_coloring_gen)
    c = csub.add_parser("check", parents=[common])
    c.add_argument("--coloring", default="-", help="COL v1 / JSON coloring file, - for stdin")
    c.add_argument("--p", required=True)
    c.add_argument("--q", required=True)
    c.add_argument("--mode", choices=MODES, default="weak")
    c.add_argument("--mode-p", choices=MODES)
    c.add_argument("--mode-q", choices=MODES)
    c.set_defaults(handler=_cmd_coloring_check)

    p = sub.add_parser("thin-antichain", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_thin_antichain)

    p = sub.add_parser("constants", parents=[common])
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser("inequalities", parents=[common])
    p.add_argument("--check", choices=[c for c, _ in GRID_CLAIMS])
    p.add_argument("--step", type=float, help="grid step for every check run "
                   "(default: each check's own); finite and positive, at most 1 for tech-a")
    p.set_defaults(handler=_cmd_inequalities)

    p = sub.add_parser("repro", parents=[common])
    p.add_argument("claim_id", choices=sorted(REGISTRY))
    p.set_defaults(handler=_cmd_repro)

    return parser


def _emit(args, body, rows, started):
    result_text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    manifest = {
        "command": list(args._argv),
        "version": __version__,
        "wall_time_s": round(time.time() - started, 3),
        "result_digest": hashlib.sha256(result_text.encode()).hexdigest(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if getattr(args, "seed", None) is not None:
        manifest["seed"] = args.seed
    if args.format == "csv":
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _jsonable(v) for k, v in row.items()})
        buf.write(f"# manifest: {json.dumps(manifest, sort_keys=True)}\n")
        text = buf.getvalue()
    else:
        text = json.dumps({"manifest": manifest, "result": body}, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    args._argv = argv
    started = time.time()
    try:
        body, rows, code = args.handler(args)
    except (_UsageError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(args, body, rows, started)
    return code


if __name__ == "__main__":
    sys.exit(main())
