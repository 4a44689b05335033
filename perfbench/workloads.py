"""The benchmark workloads: seeded inputs, timed operations, and the
independent check of every operation's output.

A workload is a fixed list of operations.  Each operation calls the
package through module attributes (so the traced round sees the call),
is timed on its own, and is judged afterwards by the checks in indep.py.
Operations are grouped into two phases: "core", the part of the workload
the workload exists to measure, and "rest".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import indep


class CheckFailed(Exception):
    pass


def need(cond, msg):
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Op:
    label: str
    phase: str                  # "core" or "rest"
    run: object                 # run(results) -> result
    check: object = None        # check(result, results); raises CheckFailed
    items: object = None        # items(result, results) -> work units toward core_rate
    known_fault: str = ""       # a fault in the package this op is expected to hit
    span: str = ""              # traced round: span the benchmark records around run


# Every timed call is kept well under a second: on a shared host only
# short calls, repeated over many rounds, time steadily (see README).
# Node budgets of the n = 6 searches; each stops on its budget today.
CORE_BUDGETS = {"R(C4,C4)": 500, "R(C3,C3,C3)": 800, "RR(C3,A3)": 2000}
# Budget of the threshold_F(4,3,partial) call that is stopped early on
# purpose; the full search takes 916,623 nodes.
F43_STOP_BUDGET = 60_000

COMPOSITION_SWEEP = range(4, 25)
LEVEL_KS = range(4, 10)
WITNESS_CHECK_MAX_N = 12


def build(name, seed, pkg):
    """Generate the workload's inputs from seed; returns its operations."""
    rng = random.Random(f"{name}:{seed}")
    ops = {"search": _search, "composition": _composition, "certify": _certify}[name](rng, pkg)
    if len({op.label for op in ops}) != len(ops):
        raise ValueError("operation labels must be unique")
    return ops


def _relabel(pattern, rng, pkg):
    """The same poset with its elements renumbered at random."""
    k = pattern.size
    perm = list(range(k))
    rng.shuffle(perm)
    leq = [[False] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            leq[perm[i]][perm[j]] = pattern.leq[i][j]
    return pkg.posets.PosetPattern(k, tuple(tuple(row) for row in leq))


# ---------------------------------------------------------------------------
# search: the coloring searches
# ---------------------------------------------------------------------------

def _check_witness_classes(col, n, chain_len=None, rainbow_k=None, total=None):
    need(col is not None, "no witness")
    need(col.ground == n, f"witness on B_{col.ground}, expected B_{n}")
    if total is not None:
        need(col.total == total and (not total or len(col) == 1 << n),
             f"witness total={col.total}, expected {total}")
    items = col.items
    if chain_len is not None:
        need(indep.avoids_mono(n, items, _chain_leq(chain_len), False),
             f"witness has a monochromatic C{chain_len}")
    if rainbow_k == 3:
        need(indep.rainbow_triple(n, items) is None, "witness has a rainbow strong A3")
    elif rainbow_k is not None:
        need(indep.rainbow_antichain(n, items, rainbow_k) is None,
             f"witness has a rainbow strong A{rainbow_k}")


def _chain_leq(l):
    return tuple(tuple(i <= j for j in range(l)) for i in range(l))


def _check_capped(res, target, n_cap):
    """A search with a known answer `target`: decided values equal it; a
    value left open as ">m" must have m < target."""
    if isinstance(res.value, int):
        need(res.value == target, f"value {res.value}, expected {target}")
        need(not res.budget_exhausted and res.checked == (0, res.value),
             f"decided value with checked={res.checked} exhausted={res.budget_exhausted}")
        return res.value - 1
    last = res.checked[1]
    need(res.value == f">{last}", f"open value {res.value!r} vs checked {res.checked}")
    need(last < target, f"value {res.value} contradicts the known {target}")
    need(res.budget_exhausted or last == n_cap, "open value without a budget stop or cap")
    return last


def _search(rng, pkg):
    posets = pkg.posets
    c2 = _relabel(posets.standard_poset("chain", 2), rng, pkg)
    c3 = _relabel(posets.standard_poset("chain", 3), rng, pkg)
    c4 = _relabel(posets.standard_poset("chain", 4), rng, pkg)
    a3 = posets.standard_poset("antichain", 3)
    search = pkg.search
    b = CORE_BUDGETS

    def ramsey_check(length, k, n_cap):
        def check(res, _results):
            n = _check_capped(res, k * (length - 1), n_cap)
            _check_witness_classes(res.witness, n, chain_len=length, total=True)
        return check

    def rr_check(chain_len, lower, n_cap, decided):
        def check(res, _results):
            if decided:
                need(isinstance(res.value, int), f"undecided value {res.value!r} at n_cap {n_cap}")
            if isinstance(res.value, int):
                need(res.value >= lower, f"value {res.value} below the lower bound {lower}")
                need(not res.budget_exhausted and res.checked == (0, res.value), "bad checked range")
                n = res.value - 1
            else:
                n = res.checked[1]
                need(res.value == f">{n}" and n + 1 >= lower, f"open value {res.value!r}")
            _check_witness_classes(res.witness, n, chain_len=chain_len, rainbow_k=3, total=True)
        return check

    def chain_rr_check(res, _results):
        # RR(C_k, C_l) = (k-1)(l-1) for chains
        need(res.value == 4 and not res.budget_exhausted and res.checked == (0, 4),
             f"RR(C3,C3) = {res.value!r}, expected 4")
        col = res.witness
        _check_witness_classes(col, 3, chain_len=3, total=True)
        need(indep.rainbow_copy_naive(col.items, _chain_leq(3), False) is None,
             "witness has a rainbow weak C3")

    def same_as(label):
        def check(res, results):
            need(res.value == results[label].value,
                 f"symmetry off gives {res.value}, symmetry on {results[label].value}")
        return check

    def both(*checks):
        def check(res, results):
            for c in checks:
                c(res, results)
        return check

    def threshold_check(k, partial, n=4, known=None, at_least=None):
        def check(res, results):
            need(isinstance(res.value, int) and not res.budget_exhausted and res.checked == (n, n),
                 f"undecided: value={res.value!r} checked={res.checked}")
            if known is not None:
                need(res.value == known, f"value {res.value}, expected {known}")
            if at_least is not None:
                other = results[at_least].value
                need(res.value >= other, f"partial value {res.value} below total value {other}")
            _check_threshold_witness(res.witness, n, k, partial, res.value - 1)
        return check

    def stopped_check(res, _results):
        need(res.budget_exhausted, "the budget did not stop the search")
        need(res.checked[1] < 4, f"a budget stop claims n=4 decided (checked={res.checked})")
        need(res.witness is not None, "a budget stop drops the best coloring found so far")
        _check_threshold_witness(res.witness, 4, 3, True, None)

    nodes = lambda res, _results: res.details["nodes"]
    ops = [
        Op("ramsey C4,C4 n<=6", "core",
           lambda r: search.ramsey([c4, c4], "weak", 6, b["R(C4,C4)"]),
           ramsey_check(4, 2, 6), nodes),
        Op("ramsey C3,C3,C3 n<=6", "core",
           lambda r: search.ramsey([c3, c3, c3], "weak", 6, b["R(C3,C3,C3)"]),
           ramsey_check(3, 3, 6), nodes),
        Op("rainbow C3,A3 strong n<=6", "core",
           lambda r: search.rainbow_ramsey(c3, a3, "strong", 6, b["RR(C3,A3)"]),
           rr_check(3, 6, 6, False), nodes),
        Op("ramsey C3,C3 n<=4", "rest",
           lambda r: search.ramsey([c3, c3], "weak", 4), ramsey_check(3, 2, 4)),
        Op("ramsey C3,C3 n<=4 nosym", "rest",
           lambda r: search.ramsey([c3, c3], "weak", 4, symmetry=False),
           both(ramsey_check(3, 2, 4), same_as("ramsey C3,C3 n<=4"))),
        Op("rainbow C2,A3 strong n<=5", "rest",
           lambda r: search.rainbow_ramsey(c2, a3, "strong", 5), rr_check(2, 5, 5, True)),
        Op("rainbow C2,A3 strong n<=5 nosym", "rest",
           lambda r: search.rainbow_ramsey(c2, a3, "strong", 5, symmetry=False),
           both(rr_check(2, 5, 5, True), same_as("rainbow C2,A3 strong n<=5"))),
        Op("rainbow C3,C3 weak n<=4", "rest",
           lambda r: search.rainbow_ramsey(c3, c3, "weak", 4), chain_rr_check),
        Op("threshold F(4,3)", "rest", lambda r: search.threshold_F(4, 3, False),
           threshold_check(3, False)),
        Op("threshold F(3,3)", "rest", lambda r: search.threshold_F(3, 3, False),
           threshold_check(3, False, n=3)),
        Op("threshold F'(3,3)", "rest", lambda r: search.threshold_F(3, 3, True),
           threshold_check(3, True, n=3, at_least="threshold F(3,3)")),
        Op("threshold F(4,2)", "rest", lambda r: search.threshold_F(4, 2, False),
           threshold_check(2, False)),
        Op("threshold F'(4,2)", "rest", lambda r: search.threshold_F(4, 2, True),
           threshold_check(2, True, known=indep.fprime2_closed_form(4),
                           at_least="threshold F(4,2)")),
        Op("threshold F'(4,3) stopped", "rest",
           lambda r: search.threshold_F(4, 3, True, budget=F43_STOP_BUDGET), stopped_check,
           known_fault="a budget-stopped threshold_F reports checked=(4, 4) and drops its "
                       "incumbent witness"),
    ]
    # The order of independent searches is part of the seeded input; the
    # symmetry-off cross-checks only read results after every op has run.
    rng.shuffle(ops)
    return ops


def _check_threshold_witness(col, n, k, partial, max_min):
    need(col is not None, "no witness")
    need(col.ground == n and col.total == (not partial), "witness on the wrong lattice")
    if not partial:
        need(len(col) == 1 << n, "total witness leaves sets uncolored")
    sizes = [0] * k
    for _, c in col.items:
        need(c < k, f"witness uses more than {k} colors")
        sizes[c] += 1
    if max_min is not None:
        need(min(sizes) == max_min, f"witness min class size {min(sizes)}, value says {max_min}")
    if k == 2:
        classes = col.classes()
        need(indep.classes_comparable(classes.get(0, ()), classes.get(1, ())),
             "witness has a rainbow strong A2")
    else:
        need(indep.rainbow_triple(n, col.items) is None, "witness has a rainbow strong A3")


# ---------------------------------------------------------------------------
# composition: exact Lubell-mass and size DPs, closed forms
# ---------------------------------------------------------------------------

def _composition(rng, pkg):
    search, asym = pkg.search, pkg.asymptotics

    def gprime_check(n):
        def check(res, _results):
            v = res.value
            cfg = res.details["chain_config"]
            need(v == indep.gprime_from_config(n, cfg),
                 f"G'({n},2) = {v} differs from its chain config's mass")
            need(v >= indep.g2_lower_mass(n), f"G'({n},2) = {v} below the g2-lower construction")
            need(indep.below_one_plus_sqrt2(v), f"G'({n},2) = {v} not below 1+sqrt2")
            if n <= WITNESS_CHECK_MAX_N:
                cls = res.witness.classes()
                masses = [indep.lubell_of(n, cls.get(c, ())) for c in (0, 1)]
                need(min(masses) == v, f"G'({n},2) witness has min class mass {min(masses)}")
                need(indep.classes_comparable(cls.get(0, ()), cls.get(1, ())),
                     f"G'({n},2) witness has a rainbow strong A2")
        return check

    def fprime_check(n, plus_one):
        def check(res, _results):
            got = res + 1 if plus_one else res.value
            need(got == indep.fprime2_closed_form(n),
                 f"F'({n},2) = {got}, closed form {indep.fprime2_closed_form(n)}")
        return check

    def fork_check(sweep, _results):
        bad = next((r for r in range(1, len(sweep)) if sweep[r] != indep.fork_g1(r)), None)
        need(bad is None, f"g_1({bad}) = {sweep[bad] if bad else None} != floor(log2 r)+1")

    def c_check(ec, _results):
        c = ec.c
        need(len(c) == 10 and c[0] == 1.0, "c_1 must be 1")
        for prev, nxt in zip(c, c[1:]):
            need(nxt > prev, "c_k not increasing")
            need(abs(nxt * indep.entropy((nxt - prev) / nxt) - 1.0) < 1e-9,
                 f"c = {nxt} fails c h((c - c_prev)/c) = 1")

    def grid_check(rep, _results):
        need(rep.max_violation <= 1e-12, f"{rep.claim}: violation {rep.max_violation}")
        if rep.claim == "ineq1":
            worst = max(b * (-b * b + (1 + 2 * 2 ** 0.5) * b - 2)
                        for b in (min(i * rep.step, 0.5) for i in range(rep.points)))
            need(abs(worst - rep.max_violation) < 1e-12, "ineq1 maximum differs")

    core = [Op(f"G'({n},2) mass", "core",
               lambda r, n=n: search.two_color_partial_exact(n, "mass"),
               gprime_check(n), lambda res, _results: 1)
            for n in COMPOSITION_SWEEP]
    rest = []
    for n in COMPOSITION_SWEEP:
        rest.append(Op(f"F'({n},2) size dp oracle", "rest",
                       lambda r, n=n: search.two_color_size_dp_oracle(n), fprime_check(n, True)))
        rest.append(Op(f"F'({n},2) size", "rest",
                       lambda r, n=n: search.two_color_partial_exact(n, "size"),
                       fprime_check(n, False)))
    rest.append(Op("fork_g_sweep 1e6", "rest", lambda r: search.fork_g_sweep(10 ** 6, 1),
                   fork_check))
    rest.append(Op("c_sequence 10", "rest", lambda r: asym.c_sequence(10, 1e-12), c_check))
    for claim, step in (("tech-a", 1e-3), ("tech-b", 1e-3), ("tech-c", 1e-3), ("ineq1", 1e-4)):
        rest.append(Op(f"grid {claim}", "rest",
                       lambda r, claim=claim, step=step: asym.inequality_grid(claim, step),
                       grid_check))
    # A fixed order, with no seeded input: the computations take only n.
    # Shuffling the order by seed moved peak memory by up to 8% between
    # seeds, as the module caches filled in another order.
    return core + rest


# ---------------------------------------------------------------------------
# certify: lower-bound constructions, each built and checked once
# ---------------------------------------------------------------------------

def _certify(rng, pkg):
    posets, col_mod, lubell = pkg.posets, pkg.colorings, pkg.lubell
    lattice, corechain = pkg.lattice, pkg.corechain
    chain = lambda l: posets.standard_poset("chain", l)
    anti = lambda k: posets.standard_poset("antichain", k)
    ops = []
    colorings = []   # result keys of every coloring built, for the round trip

    def gen(key, kind, params, seed=None):
        colorings.append(key)
        ops.append(Op(f"gen {key}", "rest",
                      lambda r: col_mod.generate(kind, params(r) if callable(params) else params,
                                                 seed)))

    def col_of(r, key):
        got = r[f"gen {key}"]
        return got[0] if isinstance(got, tuple) else got

    def sized(res, r, key):
        return len(col_of(r, key))

    def validate(key, p, q, mode_p, mode_q, n_of):
        def run(r):
            return col_mod.validate_witness(col_of(r, key), p, q, mode_p, mode_q)

        def check(v, r):
            col = col_of(r, key)
            need(v.avoided, f"{key}: the package finds {v.mono_copy or v.rainbow_copy}")
            n = col.ground
            need(n == n_of(r), f"{key}: built on B_{n}")
            need(indep.avoids_mono(n, col.items, p.leq, mode_p == "strong"),
                 f"{key}: independent check finds a monochromatic copy")
            few_colors = len(set(c for _, c in col.items)) < q.size
            if mode_q == "weak":
                need(few_colors, f"{key}: {q.size} colors make a rainbow weak A{q.size}")
            else:
                need(few_colors or indep.rainbow_antichain(n, col.items, q.size) is None,
                     f"{key}: independent check finds a rainbow strong A{q.size}")

        ops.append(Op(f"validate {key}", "core", run, check, lambda res, r: sized(res, r, key)))

    def find(key, pattern, mode, chromatic, expect):
        def run(r):
            return col_mod.find_pattern(col_of(r, key), pattern, mode, chromatic)

        def check(hit, r):
            col = col_of(r, key)
            if not expect:
                need(hit is None, f"{key}: the package finds a {chromatic} copy")
                if pattern.size == 2:
                    cls = col.classes()
                    need(indep.classes_comparable(cls.get(0, ()), cls.get(1, ())),
                         f"{key}: independent check finds a rainbow strong A2")
                else:
                    need(indep.rainbow_triple(col.ground, col.items) is None,
                         f"{key}: independent check finds a rainbow strong A3")
                return
            need(hit is not None, f"{key}: no {chromatic} copy found")
            need(indep.embedding_ok(pattern.leq, hit[0].images, mode == "strong",
                                    dict(col.items), chromatic),
                 f"{key}: returned {chromatic} copy fails the relation check")

        ops.append(Op(f"find {chromatic} {key}", "core", run, check,
                      lambda res, r: sized(res, r, key)))

    # level colorings of B_{k+1}: no mono strong C2, no rainbow strong A_k
    for k in LEVEL_KS:
        key = f"level k={k}"
        gen(key, "level", {"n": k + 1})
        validate(key, chain(2), anti(k), "strong", "strong", lambda r, k=k: k + 1)
        find(key, anti(3), "strong", "rainbow", True)

    # trace colorings at N = m(P) + |Q| - 2, m(P) from extremal_params
    for pname, qname in (("V2", "A3"), ("C2", "A3"), ("L2", "A4"), ("C3", "A4"),
                         ("V3", "A3"), ("D2", "A3"), ("L3", "A3")):
        p, q = posets.poset_by_name(pname), posets.poset_by_name(qname)
        ekey = f"extremal {pname}"
        ops.append(Op(ekey, "rest", lambda r, p=p: posets.extremal_params(p, n_cap=5),
                      lambda res, r, p=p: _check_extremal(res, p)))
        order = list(range(16))
        rng.shuffle(order)

        def trace_params(r, ekey=ekey, q=q, order=order):
            n = r[ekey].m_weak + q.size - 2
            chosen = [e for e in order if e < n][:q.size - 2]
            return {"n": n, "r_mask": sum(1 << e for e in chosen)}

        key = f"trace {pname},{qname}"
        gen(key, "trace", trace_params)
        validate(key, p, q, "weak", "weak", lambda r, ekey=ekey, q=q: r[ekey].m_weak + q.size - 2)

    # rr-lower level-interval colorings: no mono C_{e+1}, no rainbow strong A_q
    for e, q, f in ((2, 4, 0), (3, 3, 0), (2, 5, 0), (3, 4, 0), (2, 4, 1), (2, 4, 2),
                    (3, 3, 2), (4, 3, 0), (2, 6, 0)):
        key = f"rr-lower e={e} q={q} f={f}"
        gen(key, "rr-lower", {"e": e, "q": q, "f_tweak": f})
        validate(key, chain(e + 1), anti(q), "weak", "strong",
                 lambda r, e=e, q=q, f=f: e * (q - 1) + f - 1)
        find(key, chain(e), "weak", "mono", True)

    # two-color constructions: classes mutually comparable, on a core chain
    for n in range(5, 15):
        for kind in ("f2-lower", "g2-lower"):
            key = f"{kind} n={n}"
            gen(key, kind, {"n": n})
            find(key, anti(2), "strong", "rainbow", False)
            ops.append(Op(f"core_chain {key}", "rest",
                          lambda r, key=key: corechain.core_chain(_class_families(col_of(r, key))),
                          lambda cc, r, key=key: _check_core_chain(cc, col_of(r, key))))
            ops.append(Op(f"validate_core_chain {key}", "rest",
                          lambda r, key=key: corechain.validate_core_chain(
                              r[f"core_chain {key}"], _class_families(col_of(r, key))),
                          lambda ok, r: need(ok.ok, f"core chain rejected: {ok.clause}")))
            ops.append(Op(f"lubell {key}", "rest",
                          lambda r, key=key: [lubell.lubell_mass(f)
                                              for f in _class_families(col_of(r, key))],
                          lambda ms, r, key=key, kind=kind, n=n: _check_two_class_masses(
                              ms, col_of(r, key), kind, n)))

    # fk-random k=3: no rainbow strong A_3
    for n in (8, 10, 12, 14):
        key = f"fk-random n={n}"
        gen(key, "fk-random", {"n": n, "k": 3}, seed=rng.randrange(1 << 31))
        find(key, anti(3), "strong", "rainbow", False)

    # thin antichains: the family is a thin strong A_{n-2}
    for n in range(4, 21):
        key = f"thin n={n}"
        ops.append(Op(f"gen {key}", "rest", lambda r, n=n: col_mod.thin_antichain(n),
                      lambda fam, r, n=n: _check_thin(fam, n)))
        ops.append(Op(f"find_copy {key}", "core",
                      lambda r, key=key, n=n: posets.find_copy(r[f"gen {key}"], anti(n - 2),
                                                                "strong", thin=True),
                      lambda emb, r, key=key, n=n: _check_thin_copy(emb, r[f"gen {key}"], n),
                      lambda emb, r: len(emb.images)))

    # seeded random families: masses, chain partitions, the identity residual
    for n in range(5, 13):
        share = 0.3 if n <= 8 else 0.1
        fam = lattice.Family.make(n, _level_sample(rng, n, share))
        mode = "enumerate" if n <= 8 else "dp"
        ops.append(Op(f"lubell random n={n}", "rest",
                      lambda r, fam=fam: lubell.lubell_mass(fam),
                      lambda m, r, fam=fam: need(m == indep.lubell_of(fam.ground, fam.members),
                                                 "Lubell mass differs from the direct sum")))
        ops.append(Op(f"max_partition random n={n}", "rest",
                      lambda r, fam=fam: lattice.max_partition(fam, "dp"),
                      lambda part, r, fam=fam: _check_partition(part, fam)))
        ops.append(Op(f"residual random n={n}", "rest",
                      lambda r, fam=fam, mode=mode: lubell.maxpart_identity_residual(fam, mode),
                      lambda res, r: need(res == 0, f"max-partition residual {res} != 0")))

    ops.append(Op("round trip", "rest", lambda r: _round_trip(r, colorings, col_of),
                  _check_round_trip, span="colorings.serialize"))
    return ops


def _level_sample(rng, n, share):
    """A seeded family holding round(share * C(n, k)) random k-sets of
    [n] for every k.  The dp's cost per member grows with the size of its
    up-set, so a fixed level profile gives every seed the same work."""
    by_level = [[] for _ in range(n + 1)]
    for m in range(1 << n):
        by_level[m.bit_count()].append(m)
    return [m for level in by_level for m in rng.sample(level, round(share * len(level)))]


def _class_families(col):
    return [col.class_family(c) for c in range(col.num_colors)]


def _check_extremal(params, p):
    """m(P) and m*(P): B_m has no weak (strong) copy, B_{m+1} has one,
    by trying every injection into the whole cube."""
    for m, strong in ((params.m_weak, False), (params.m_strong, True)):
        need(m is not None, "extremal value not pinned at n_cap 5")
        cube = lambda d: list(range(1 << d))
        need(indep.mono_copy_naive(cube(m), p.leq, strong) is None,
             f"B_{m} already holds a {'strong' if strong else 'weak'} copy")
        need(indep.mono_copy_naive(cube(m + 1), p.leq, strong) is not None,
             f"B_{m + 1} holds no {'strong' if strong else 'weak'} copy")


def _check_core_chain(cc, col):
    """Chain from the empty set to [n], nested, covering every colored
    set, with each open block meeting at most one class."""
    chain, n = cc.chain, col.ground
    need(chain[0] == 0 and chain[-1] == (1 << n) - 1, "core chain endpoints")
    need(all(a & ~b == 0 and a != b for a, b in zip(chain, chain[1:])), "core chain not nested")
    owners = [set() for _ in range(len(chain) - 1)]
    for m, c in col.items:
        blocks = [j for j in range(len(chain) - 1)
                  if chain[j] & ~m == 0 and m & ~chain[j + 1] == 0]
        need(blocks, f"set {m:#x} not covered by the core chain")
        for j in blocks:
            if m not in (chain[j], chain[j + 1]):
                owners[j].add(c)
    need(all(len(o) <= 1 for o in owners), "an open block meets two classes")


def _check_two_class_masses(masses, col, kind, n):
    cls = col.classes()
    direct = [indep.lubell_of(n, cls.get(c, ())) for c in range(len(masses))]
    need(masses == direct, f"{kind} n={n}: class masses differ from the direct sums")
    if kind == "g2-lower":
        need(min(masses) == indep.g2_lower_mass(n), f"g2-lower n={n}: min mass off the closed form")
    else:
        sizes = [len(cls.get(c, ())) for c in (0, 1)]
        need(min(sizes) + 1 == indep.fprime2_closed_form(n),
             f"f2-lower n={n}: min class size {min(sizes)} vs F'({n},2)")


def _check_thin(fam, n):
    members = fam.members
    sizes = [m.bit_count() for m in members]
    need(len(members) == n - 2 and len(set(sizes)) == n - 2, "not n-2 sets of distinct sizes")
    need(n - 1 not in sizes, "thin antichain has an (n-1)-set")
    need(all(a & ~b and b & ~a for i, a in enumerate(members) for b in members[i + 1:]),
         "thin antichain has a nested pair")


def _check_thin_copy(emb, fam, n):
    need(emb is not None, "no thin strong copy found in a thin antichain")
    leq = tuple(tuple(i == j for j in range(n - 2)) for i in range(n - 2))
    need(indep.embedding_relations_ok(leq, emb.images, True), "copy fails the relation check")
    need(set(emb.images) <= set(fam.members), "copy leaves the family")
    need(len({m.bit_count() for m in emb.images}) == n - 2, "copy is not thin")


def _check_partition(part, fam):
    n = fam.ground
    need(part.total() == math.factorial(n), "chain counts do not add up to n!")
    need(indep.maxpart_residual(n, fam.members, part.blocks) == 0,
         "chain counts break the max-partition mass identity")
    if n <= 8:
        blocks, leftover = indep.max_partition_enum(n, fam.members)
        need(part.blocks == blocks and part.leftover == leftover,
             "chain counts differ from walking all n! chains")


def _round_trip(results, keys, col_of):
    """COL v1 text and JSON round trip of every coloring built."""
    out = []
    for key in keys:
        col = col_of(results, key)
        Coloring = type(col)
        out.append((col, Coloring.from_text(col.to_text()), Coloring.from_json(col.to_json())))
    return out


def _check_round_trip(triples, _results):
    for col, text, js in triples:
        for back in (text, js):
            need((back.ground, back.total, back.items) == (col.ground, col.total, col.items),
                 "a coloring changed in a COL/JSON round trip")
