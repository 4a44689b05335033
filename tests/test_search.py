import hashlib
import json
import random
import sys
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial
from types import SimpleNamespace

import pytest

from rainbowramsey import posets
from rainbowramsey.lattice import Family, all_masks, canonical_key, is_subset, order_rows
from rainbowramsey.lubell import binom
from rainbowramsey.corechain import comparability
from rainbowramsey.posets import (
    PosetError,
    _search_embedding,
    find_copy,
    find_copy_naive,
    poset_by_name,
    standard_poset,
)
from rainbowramsey.colorings import (
    Coloring,
    _rainbow_strong_antichain,
    find_pattern,
    validate_witness,
)
from rainbowramsey.search import (
    BudgetExceeded,
    SearchError,
    _Counter,
    _MonoClass,
    _bits_of,
    _cube,
    _interior_table,
    _last_read,
    _mass_tables,
    _max_block_len,
    _perm_position_maps,
    _prefix_is_orbit_min,
    _rainbow_pair,
    _seed_three_point,
    _threshold3,
    _two_color_pareto_dp,
    fork_can_avoid,
    fork_can_avoid_naive,
    fork_f_small,
    fork_g,
    fork_g_sweep,
    iter_canonical_colorings,
    rainbow_ramsey,
    ramsey,
    threshold_F,
    two_color_partial_exact,
    two_color_size_dp_oracle,
)

C2 = poset_by_name("C2")
C3 = poset_by_name("C3")
C4 = standard_poset("chain", 4)
C6 = standard_poset("chain", 6)
V2 = poset_by_name("V2")
A3 = poset_by_name("A3")
A4 = poset_by_name("A4")
A2 = poset_by_name("A2")
L2 = poset_by_name("L2")


# --- R and RR ---------------------------------------------------------------

def test_ramsey_chain_values():
    assert ramsey([C2], "weak", 2).value == 1
    assert ramsey([C2, C2], "weak", 3).value == 2
    assert ramsey([C3, C3], "weak", 4).value == 4


def test_ramsey_witness_is_avoiding():
    res = ramsey([C3, C3], "weak", 4)
    w = res.witness
    assert w is not None and w.ground == 3 and w.total
    for c in range(w.num_colors):
        assert find_copy(w.class_family(c), C3, "weak") is None


def test_ramsey_cap_and_budget():
    res = ramsey([C3, C3], "weak", n_cap=2)
    assert res.value == ">2" and res.witness.ground == 2
    res = ramsey([C3, C3], "weak", n_cap=4, budget=5)
    assert res.budget_exhausted and isinstance(res.value, str)


def test_search_n_cap_refused_before_tables(monkeypatch):
    from rainbowramsey import search
    built = (_cube.cache_info().misses, _perm_position_maps.cache_info().misses)
    for cap in (-1, -5):
        with pytest.raises(SearchError):
            ramsey([C2, C2], "weak", n_cap=cap)
        with pytest.raises(SearchError):
            rainbow_ramsey(C2, C2, "weak", n_cap=cap)
        with pytest.raises(SearchError):
            fork_f_small(2, 1, n_cap=cap)
    assert (_cube.cache_info().misses, _perm_position_maps.cache_info().misses) == built
    # a cap past 8 still answers a search decided by n = 8
    assert ramsey([C2, C2], "weak", n_cap=16).value == 2
    assert rainbow_ramsey(C2, C2, "weak", n_cap=9).value == 1
    assert fork_f_small(2, 1, n_cap=9).value == 2
    # one still undecided at n = 8 is refused before n = 9 is searched
    searched = []

    def undecided(n, *args):
        searched.append(n)
        return object()

    monkeypatch.setattr(search, "_avoiding", undecided)
    for call in (lambda: ramsey([C2, C2], "weak", n_cap=9),
                 lambda: rainbow_ramsey(C2, C2, "weak", n_cap=16),
                 lambda: fork_f_small(2, 1, n_cap=9)):
        searched.clear()
        with pytest.raises(SearchError, match="n_cap above 8 is refused"):
            call()
        assert searched == list(range(9))


def test_rainbow_ramsey_values():
    assert rainbow_ramsey(C2, C2, "weak", 2).value == 1
    assert rainbow_ramsey(C2, C3, "weak", 3).value == 2


def test_rainbow_ramsey_strong_lower_bound_via_witness():
    # the level coloring of B_4 avoids (mono strong C2, rainbow strong A3),
    # certifying RR*(C2, A3) >= 5 without any exhaustive n=4 run
    from rainbowramsey.colorings import level_coloring
    v = validate_witness(level_coloring(4), C2, A3, "strong", "strong")
    assert v.avoided


def test_section2_proposition_fork_target():
    # RR(P, V_2) = R_2(P) for P in {C2, C3}
    assert rainbow_ramsey(C2, V2, "weak", 3).value == ramsey([C2, C2], "weak", 3).value
    assert rainbow_ramsey(C3, V2, "weak", 4).value == ramsey([C3, C3], "weak", 4).value


def test_easy_proposition_consequence_on_witnesses():
    # an avoiding coloring for R_{|Q|-1}(P) is an avoiding coloring for RR(P,Q)
    for p, q in ((C2, C3), (C3, C3), (C3, A3)):
        res = ramsey([p] * (q.size - 1), "weak", n_cap=3)
        w = res.witness
        assert w is not None
        assert validate_witness(w, p, q, "weak", "weak").avoided


def test_canonical_enumeration_counts_are_bell_numbers():
    assert sum(1 for _ in iter_canonical_colorings(1)) == 2       # Bell(2)
    assert sum(1 for _ in iter_canonical_colorings(2)) == 15      # Bell(4)
    assert sum(1 for _ in iter_canonical_colorings(3)) == 4140    # Bell(8)


def test_color_renaming_invariance():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 3)
        masks = list(all_masks(n))
        colors = [rng.randrange(3) for _ in masks]
        col = Coloring(n, list(zip(masks, colors)), total=True)
        perm = [1, 2, 0]
        col2 = Coloring(n, [(m, perm[c]) for m, c in zip(masks, colors)], total=True)
        for pattern, mode, chrom in ((C2, "weak", "mono"), (A3, "strong", "rainbow"),
                                     (C3, "weak", "rainbow")):
            a = find_pattern(col, pattern, mode, chrom) is None
            b = find_pattern(col2, pattern, mode, chrom) is None
            assert a == b


# --- thresholds -------------------------------------------------------------

def test_threshold_f_prime_known_values():
    assert threshold_F(4, 2, partial=True).value == 4
    assert threshold_F(3, 2, partial=True).value == 3
    assert threshold_F(2, 2, partial=False).value == 3


def test_threshold_f3_small_values():
    assert threshold_F(2, 3, partial=False).value == 2
    assert threshold_F(3, 3, partial=False).value == 3
    assert threshold_F(4, 3, partial=False).value == 6


def test_threshold_witness_avoids_and_hits_max_min():
    res = threshold_F(4, 3, partial=False)
    w = res.witness
    assert w.total and min(w.class_sizes()) == res.details["max_min"] == 5
    assert find_pattern(w, A3, "strong", "rainbow") is None


def test_threshold_rejects_unsupported():
    with pytest.raises(SearchError):
        threshold_F(5, 2, partial=True)
    with pytest.raises(SearchError):
        threshold_F(3, 4, partial=False)


# --- the exact two-color extremal values ------------------------------------

def test_two_color_size_matches_brute():
    for n in (1, 2, 3, 4):
        assert two_color_partial_exact(n, "size").value == threshold_F(n, 2, True).value


def test_two_color_size_closed_form_window():
    for n in range(4, 13):
        expect = (1 << (n // 2)) + (2 if n % 2 else 0)
        assert two_color_partial_exact(n, "size").value == expect


def test_two_color_size_pareto_oracle_agreement():
    for n in range(1, 25):
        assert two_color_partial_exact(n, "size").value == two_color_size_dp_oracle(n) + 1


def test_size_dp_oracle_matches_threshold_max_min():
    # at n = 0 the one-block seed chain is the single point 0: the empty
    # set counts once, so the oracle's max-min is 0, as F'(0,2) = 1 says
    assert _seed_three_point(0, [1], [[0]]) == (0, None)
    for n in range(5):
        assert two_color_size_dp_oracle(n) == threshold_F(n, 2, True).details["max_min"], n
    # below n = 0 there is no B_n: refused, not an IndexError
    for n in (-1, -2):
        with pytest.raises(SearchError, match="needs n >= 0"):
            two_color_size_dp_oracle(n)


def test_two_color_size_witness_valid():
    for n in (4, 5, 8, 9):
        res = two_color_partial_exact(n, "size")
        w = res.witness
        assert min(w.class_sizes()) == res.value - 1
        assert comparability([w.class_family(0), w.class_family(1)])


def _config_brute(n, pt, interior):
    """Max-min class weight by brute force over every core-chain
    configuration: all level subsets containing 0 and n, all block
    colorings, all point assignments, for point weights pt(l) and block
    interiors interior(a, b).  Independent of the Pareto DP's pruning and
    dominance."""
    from itertools import combinations

    best = 0
    inner = list(range(1, n))
    for r in range(len(inner) + 1):
        for chosen in combinations(inner, r):
            levels = (0,) + chosen + (n,)
            blocks = [(levels[i], levels[i + 1])
                      for i in range(len(levels) - 1) if levels[i + 1] - levels[i] >= 2]
            bw = [interior(a, b) for a, b in blocks]
            for bcol in range(1 << len(blocks)):
                base0 = sum(w for i, w in enumerate(bw) if not bcol >> i & 1)
                base1 = sum(w for i, w in enumerate(bw) if bcol >> i & 1)
                for pcol in range(1 << len(levels)):
                    m0, m1 = base0, base1
                    for i, l in enumerate(levels):
                        if pcol >> i & 1:
                            m1 += pt(l)
                        else:
                            m0 += pt(l)
                    v = min(m0, m1)
                    if v > best:
                        best = v
    return best


def _mass_config_brute(n):
    from rainbowramsey.lubell import lubell_interval

    def pt(l):
        return Fraction(1, binom(n, l))

    return _config_brute(n, pt, lambda a, b: lubell_interval(n, a, b) - pt(a) - pt(b))


def test_two_color_mass_small_exact_and_config_brute():
    assert two_color_partial_exact(2, "mass").value == 1
    assert two_color_partial_exact(3, "mass").value == 2
    assert two_color_partial_exact(4, "mass").value == 2
    for n in (2, 3, 4, 5, 6):
        assert two_color_partial_exact(n, "mass").value == _mass_config_brute(n)


def test_pareto_dp_matches_brute_on_random_level_weights():
    # per-level weights wt[l] >= 0, zeros included: a block weighs
    # sum_i C(b-a, i-a) * wt[i], like the Lubell mass with other point
    # weights; zero interiors take the DP's uncolored-block branch
    zero_interiors = 0
    for seed in range(50):
        rng = random.Random(seed)
        for n in range(1, 7):
            wt = [rng.choice((0, 0, 1, 2, 3, 5, 8)) for _ in range(n + 1)]
            blk = _interior_table(
                n, wt, lambda a, b: sum(comb(b - a, i - a) * wt[i] for i in range(a, b + 1)))
            zero_interiors += any(blk[a][b] == 0 for a in range(n + 1)
                                  for b in range(a + 2, n + 1))
            seed_v, _ = _seed_three_point(n, wt, blk)
            v, _ = _two_color_pareto_dp(n, wt, blk, seed_v)
            brute = _config_brute(n, wt.__getitem__, lambda a, b: sum(
                comb(b - a, i - a) * wt[i] for i in range(a + 1, b)))
            assert max(v, seed_v) == brute, (seed, n, wt)
    assert zero_interiors > 0


def test_integer_mass_dp_matches_rational_weights():
    # the same DP on unscaled Fraction tables: scaling every weight by
    # L > 0 must change neither the optimum nor the chosen chain config
    from rainbowramsey.lubell import lubell_interval
    for n in range(1, 21):
        pts = [Fraction(1, binom(n, l)) for l in range(n + 1)]
        blk = _interior_table(n, pts, lambda a, b: lubell_interval(n, a, b))
        seed, seed_cfg = _seed_three_point(n, pts, blk)
        v, cfg = _two_color_pareto_dp(n, pts, blk, seed)
        if cfg is None:
            v, cfg = seed, seed_cfg
        res = two_color_partial_exact(n, "mass")
        assert (res.value, res.details["chain_config"]) == (v, cfg)


def _literal_seed_three_point(n, pts, blk):
    """The two-block seed scan as first written: per split and coloring,
    both class weights summed from the blocks and points one by one, and
    min() of the pair.  Oracle for _seed_three_point's subset-sum scan."""
    zero = pts[0] - pts[0]
    best = zero
    best_cfg = None
    for s in [None] + list(range(1, n)):
        if s is None:
            blocks, levels = ([(0, n)], [0, n]) if n else ([], [0])
        else:
            blocks, levels = [(0, s), (s, n)], [0, s, n]
        block_ws = [blk[a][b] for (a, b) in blocks]
        for colors in range(1 << len(blocks)):
            base = [zero, zero]
            for i, w in enumerate(block_ws):
                base[(colors >> i) & 1] += w
            for pcolors in range(1 << len(levels)):
                tot = base[:]
                for i, l in enumerate(levels):
                    tot[(pcolors >> i) & 1] += pts[l]
                v = min(tot)
                if v > best:
                    best = v
                    flip = (pcolors >> 0) & 1
                    owner = lambda bit: bit ^ flip
                    cfg = [(0, None, 0)]
                    for i, (a, b) in enumerate(blocks):
                        blk_to = owner((colors >> i) & 1) if b - a >= 2 else None
                        cfg.append((b, blk_to, owner((pcolors >> (i + 1)) & 1)))
                    best_cfg = cfg
    return best, best_cfg


def _literal_pareto_dp(n, pts, blk, seed_best):
    """The Pareto DP with its moves made inside the pair loop: each
    child's class weights summed from the block and point owners, and
    min() for the bound and the incumbent.  Oracle for
    _two_color_pareto_dp's precomputed moves."""
    zero = pts[0] - pts[0]
    remaining = [blk[l][n] + pts[n] for l in range(n)] + [zero]
    best = seed_best
    fronts = [{(pts[0], zero): None}] + [{} for _ in range(n)]
    for lvl in range(n):
        front = fronts[lvl]
        if not front:
            continue
        kept = []
        hi2 = None
        for pair in sorted(front, reverse=True):
            if hi2 is None or pair[1] > hi2:
                kept.append(pair)
                hi2 = pair[1]
        ub = remaining[lvl]
        row = blk[lvl]
        ups = sorted(((row[nxt] + pts[nxt] + remaining[nxt], nxt)
                      for nxt in range(lvl + 1, n + 1)), reverse=True)
        for pair in kept:
            a, b = pair
            need = max(best - min(a, b), 2 * best - a - b)
            if ub <= need:
                continue
            for up, nxt in ups:
                if up < need:
                    break
                w = row[nxt]
                pw = pts[nxt]
                tgt = fronts[nxt]
                for blk_to in ((0, 1) if w else (None,)):
                    for pt_to in (0, 1):
                        na = a + (w if blk_to == 0 else zero) + (pw if pt_to == 0 else zero)
                        nb = b + (w if blk_to == 1 else zero) + (pw if pt_to == 1 else zero)
                        ch = (na, nb)
                        if ch not in tgt:
                            tgt[ch] = (lvl, pair, blk_to, pt_to)
                        if nxt == n and min(ch) > best:
                            best = min(ch)
    arg = None
    for pair in fronts[n]:
        if min(pair) == best and (arg is None or pair < arg):
            arg = pair
    config = None
    if arg is not None:
        steps = []
        lvl, pair = n, arg
        while (link := fronts[lvl][pair]) is not None:
            steps.append((lvl,) + link[2:])
            lvl, pair = link[:2]
        steps.reverse()
        config = [(0, None, 0)] + steps
    return best, config


def _assert_seed_and_dp_match_literal(n, pts, blk, where):
    seed = _seed_three_point(n, pts, blk)
    assert seed == _literal_seed_three_point(n, pts, blk), where
    # from the seed, as the callers run it, and from 0, which stores more
    for start in (seed[0], pts[0] - pts[0]):
        got = _two_color_pareto_dp(n, pts, blk, start)
        assert got == _literal_pareto_dp(n, pts, blk, start), (where, start)


def test_seed_and_dp_match_literal_on_random_tables():
    # level-weight tables, whose completion bound holds, and free tables,
    # whose bound need not: the same value and config from both either way
    for seed in range(10):
        rng = random.Random(seed)
        for n in range(0, 13):
            num = (lambda: rng.choice((0, 0, 1, 2, 3, 5, 8))) if seed % 2 else (
                lambda: Fraction(rng.choice((0, 1, 2, 3, 7)), rng.choice((1, 2, 3, 6))))
            wt = [num() for _ in range(n + 1)]
            level_blk = _interior_table(
                n, wt, lambda a, b: sum(comb(b - a, i - a) * wt[i] for i in range(a, b + 1)))
            free_blk = [[num() if b - a >= 2 else wt[0] - wt[0] for b in range(n + 1)]
                        for a in range(n + 1)]
            for blk in (level_blk, free_blk):
                _assert_seed_and_dp_match_literal(n, wt, blk, (seed, n, wt, blk))


def test_seed_and_dp_match_literal_on_mass_and_size_tables():
    for n in range(1, 41):
        _, pts, blk = _mass_tables(n)
        _assert_seed_and_dp_match_literal(n, pts, blk, ("mass", n))
    for n in range(0, 41):
        pts = [1] * (n + 1)
        blk = _interior_table(n, pts, lambda a, b: 1 << (b - a))
        _assert_seed_and_dp_match_literal(n, pts, blk, ("size", n))


def test_integer_mass_table_matches_fraction_table():
    # the closed-form integer table against the Fraction masses scaled by
    # the same lcm, up to n = 63
    from rainbowramsey.lubell import lubell_interval
    for n in range(0, 64):
        scale, pts, blk = _mass_tables(n)
        assert all(type(w) is int for w in pts + [w for row in blk for w in row]), n
        assert pts == [scale / Fraction(binom(n, l)) for l in range(n + 1)], n
        assert blk == _interior_table(n, pts, lambda a, b: lubell_interval(n, a, b) * scale), n


def test_fork_g_values():
    assert fork_g(5, 1) == 3
    assert fork_g(3, 2) == 3
    assert [fork_g(r, 1) for r in (1, 2, 3, 4, 7, 8)] == [1, 2, 2, 3, 3, 4]


def test_fork_g_sweep_matches_pointwise():
    for k in (1, 2, 3):
        point = [0] + [fork_g(r, k) for r in range(1, 301)]
        # sweeps that end on either side of a step of g_k (for k = 1 the
        # steps are at r = 2^m), or inside a run
        steps = [r for r in range(2, 301) if point[r] != point[r - 1]]
        ends = {1, 2, 7, 100, 300} | {r for s in steps for r in (s - 1, s)}
        for r_max in sorted(ends):
            assert fork_g_sweep(r_max, k) == point[:r_max + 1]


def test_fork_can_avoid_matches_naive():
    for n in range(1, 10):
        for r in (1, 2, 3, 5, 9, 17):
            for k in (1, 2, 3):
                assert fork_can_avoid(n, r, k) == fork_can_avoid_naive(n, r, k)


def test_fork_can_avoid_refuses_r_below_one():
    # as fork_g does: r < 1 is outside the documented range of both
    for r in (0, -1):
        for n in (1, 2, 3):
            for call in (fork_can_avoid, fork_can_avoid_naive):
                with pytest.raises(SearchError, match="needs r >= 1"):
                    call(n, r, n + 1)
    # and the sweep refuses k < 1 as fork_g does, with no silent -1 values
    for call in (fork_g, fork_g_sweep):
        for k in (0, -1):
            with pytest.raises(SearchError, match="fork_g needs r >= 1 and k >= 1"):
                call(5, k)


def test_fork_refused_past_ground_cap():
    # the cap bounds fork_g's walk up n for a large k
    for call in (lambda: fork_g(1, 66), lambda: fork_g(1, 65), lambda: fork_g_sweep(3, 70),
                 lambda: fork_can_avoid(65, 1, 1)):
        with pytest.raises(SearchError, match="n=64 ground cap"):
            call()
    assert fork_g(1, 64) == 64


def test_max_block_len_matches_cumulative_sums():
    # the literal definition: the longest d <= n - lo + 1 for which the
    # bottom level has sum_{j=1..d-1} C(n - lo, j) < r strict supersets
    rs = list(range(1, 81)) + [10**6, 2**40, 2**64]
    for m in range(65):
        supersets = [sum(comb(m, j) for j in range(1, d)) for d in range(m + 2)]
        want = {r: max(d for d in range(m + 2) if supersets[d] < r) for r in rs}
        for n in range(m, 65):
            for r in rs:
                assert _max_block_len(n, n - m, r) == want[r], (n, n - m, r)


def test_fork_naive_uses_real_embedding_counts():
    from rainbowramsey.search import fork_block_check_naive
    # cross-check the bitset superset counter against find_copy on small blocks
    from rainbowramsey.lattice import levels_family
    for n in (3, 4, 5):
        for lo in range(n):
            for hi in range(lo, n + 1):
                for r in (1, 2, 3, 6):
                    fam = levels_family(n, lo, hi)
                    expect = find_copy(fam, standard_poset("chain", 2) if r == 1
                                       else standard_poset("fork", r), "weak") is not None
                    assert fork_block_check_naive(n, lo, hi, r) == expect


def test_fork_f_small():
    assert fork_f_small(2, 2, 4).value == 3
    assert fork_f_small(5, 1, 4).value == 3
    assert fork_f_small(2, 1, 4).value == 2
    with pytest.raises(SearchError):
        fork_f_small(2, 3, 3)
    # with no colors there is no Ramsey problem to decide
    for k in (0, -1):
        with pytest.raises(SearchError, match="1 <= k <= 2"):
            fork_f_small(2, k)
    # r = 1 is the chain C2; below that there is no fork
    assert fork_f_small(1, 1, 4).value == 1
    for r in (0, -1):
        with pytest.raises(SearchError, match="needs r >= 1"):
            fork_f_small(r, 1)
    with pytest.raises(SearchError, match="at least one pattern"):
        ramsey([])


def test_search_result_jsonable():
    res = rainbow_ramsey(C2, C3, "weak", 3)
    obj = res.to_jsonable()
    assert obj["value"] == 2 and obj["checked"] == {"n_min": 0, "n_max": 2}
    assert obj["witness"]["n"] == 1
    assert obj["nodes"] == res.details["nodes"] > 0
    assert two_color_partial_exact(4, "size").to_jsonable()["nodes"] is None


def _ramsey2_literal(n, p1, p2):
    """Independent oracle: literally try all 2^(2^n) two-colorings."""
    from rainbowramsey.lattice import Family
    masks = list(all_masks(n))
    for bits in range(1 << len(masks)):
        c1 = Family.make(n, (m for i, m in enumerate(masks) if bits >> i & 1))
        c2 = Family.make(n, (m for i, m in enumerate(masks) if not bits >> i & 1))
        if find_copy(c1, p1, "weak") is None and find_copy(c2, p2, "weak") is None:
            return True  # avoiding coloring exists
    return False


def test_ramsey_distinct_patterns():
    res = ramsey([C2, C3], "weak", 3)
    assert res.value == 3
    for n in (1, 2):
        assert _ramsey2_literal(n, C2, C3)  # avoiding colorings exist below
    assert not _ramsey2_literal(3, C2, C3)  # forced at the value


def test_rainbow_ramsey_antichain_target():
    # for Q = A_2 only monochromatic colorings avoid a rainbow weak A_2,
    # so RR(P, A_2) is the first cube containing a weak copy of P
    a2 = poset_by_name("A2")
    assert rainbow_ramsey(C3, a2, "weak", 3).value == 2
    assert rainbow_ramsey(V2, a2, "weak", 3).value == 2
    seqs = list(iter_canonical_colorings(2))
    masks = sorted(all_masks(2), key=lambda m: (m.bit_count(), m))
    forced = 0
    for seq in seqs:
        col = Coloring(2, list(zip(masks, seq)), total=True)
        v = validate_witness(col, C3, a2, "weak", "weak")
        forced += 0 if v.avoided else 1
    assert forced == len(seqs) == 15


def test_ramsey_strong_mode():
    # two colors force a nested same-color pair already on B_2: the empty
    # set and the full set are comparable to everything
    assert ramsey([C2, C2], "strong", 3).value == 2


def test_ramsey_refuses_unknown_mode():
    for mode in ("wek", "Strong", ""):
        with pytest.raises(PosetError, match="weak or strong"):
            ramsey([V2, V2], mode, 4)


def test_rainbow_ramsey_refuses_unknown_mode():
    for mode in ("Strong", "wek"):
        with pytest.raises(PosetError, match="weak or strong"):
            rainbow_ramsey(C2, A3, mode, 5)


def test_bad_mode_one_message_from_every_caller(monkeypatch):
    # posets._check_mode serves find_copy, find_pattern, validate_witness,
    # ramsey and rainbow_ramsey; validate_witness checks both modes before
    # its mono search
    from rainbowramsey import colorings

    def searched(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(colorings, "find_copy", searched)
    col = Coloring(1, [(0, 0), (1, 1)], total=True)
    calls = [lambda m: find_copy(Family.whole_cube(2), C2, m),
             lambda m: find_pattern(col, C2, m, "mono"),
             lambda m: find_pattern(col, C2, m, "rainbow"),
             lambda m: validate_witness(col, C2, A3, m, "weak"),
             lambda m: validate_witness(col, C2, A3, "weak", m),
             lambda m: ramsey([C2], m, 2), lambda m: rainbow_ramsey(C2, A3, m, 2)]
    for call in calls:
        with pytest.raises(PosetError, match=r"^mode must be weak or strong, got 'bogus'$"):
            call("bogus")


def test_rainbow_ramsey_strong_mode_with_partition_cross_check():
    a2 = poset_by_name("A2")
    res = rainbow_ramsey(C2, a2, "strong", 3)
    assert res.value == 3
    # independent check at n=3: all Bell(8) = 4140 canonical partitions
    masks = sorted(all_masks(3), key=lambda m: (m.bit_count(), m))
    forced = 0
    for seq in iter_canonical_colorings(3):
        col = Coloring(3, list(zip(masks, seq)), total=True)
        if not validate_witness(col, C2, a2, "strong", "strong").avoided:
            forced += 1
    assert forced == 4140
    # and the witness at n=2 really avoids both patterns
    w = res.witness
    assert w.ground == 2
    assert validate_witness(w, C2, a2, "strong", "strong").avoided


@pytest.mark.parametrize("n, value, digest", [
    (8, Fraction(17, 8), "e472ad1ef25262c5"),
    (12, Fraction(9, 4), "8f78f521cfd1ae7a"),
    (16, Fraction(30, 13), "ac262724512e1331"),
    (20, Fraction(37, 16), "7b7a9432f7edaf08"),
    (24, Fraction(44, 19), "5cd9adfc06c8bb1b"),
    (28, Fraction(51, 22), "88cf155859e08874"),
    (32, Fraction(58, 25), "6d0cf64c21f9ec5a"),
])
def test_pinned_gprime_bodies(n, value, digest):
    # the whole result body (value, witness, chain config), as computed by
    # the DP on Fraction weights before it moved to integer-scaled ones
    res = two_color_partial_exact(n, "mass")
    body = json.dumps([res.to_jsonable(), res.details], sort_keys=True)
    assert (res.value, hashlib.sha256(body.encode()).hexdigest()[:16]) == (value, digest)


@pytest.mark.parametrize("n, value, config", [
    (33, Fraction(59, 25), [(0, None, 0), (9, 0, 0), (33, 1, 0)]),
    (34, Fraction(61, 26), [(0, None, 0), (9, 0, 0), (34, 1, 0)]),
    (35, Fraction(7, 3), [(0, None, 0), (9, 0, 0), (35, 1, 0)]),
    (36, Fraction(26, 11), [(0, None, 0), (10, 0, 1), (36, 1, 0)]),
    (37, Fraction(33, 14), [(0, None, 0), (10, 0, 0), (37, 1, 0)]),
    (38, Fraction(68, 29), [(0, None, 0), (10, 0, 0), (38, 1, 0)]),
    (39, Fraction(7, 3), [(0, None, 0), (10, 0, 0), (39, 1, 0)]),
    (40, Fraction(71, 30), [(0, None, 0), (11, 0, 0), (40, 1, 0)]),
])
def test_pinned_gprime_configs_to_cap(n, value, config):
    # G'(n,2) and its chain config up to the n <= 40 cap (no witness past
    # n = 16), as the DP gave before it bounded transitions
    res = two_color_partial_exact(n, "mass")
    assert (res.value, res.details["chain_config"]) == (value, config)


def test_pinned_two_color_size_bodies():
    # F'(n,2) result bodies (value and witness coloring) for n = 1..16, as
    # built before the witness went through the chain-config coloring
    bodies = [two_color_partial_exact(n, "size").to_jsonable() for n in range(1, 17)]
    assert all(body["witness"] is not None for body in bodies)
    digest = hashlib.sha256(json.dumps(bodies, sort_keys=True).encode()).hexdigest()[:16]
    assert digest == "699a58b47b56ca72"


def test_two_color_cap_error():
    with pytest.raises(SearchError):
        two_color_partial_exact(41, "size")
    with pytest.raises(SearchError):
        two_color_partial_exact(0, "mass")


# --- anchored checks, pinned search trees, budget stops ---------------------

def _canonical(n):
    return sorted(all_masks(n), key=canonical_key)


def test_order_bitsets_match_subset_definitions():
    # the per-n table of B_n against its definitions
    for n in range(7):
        masks, ends, below, above, inc, related = _cube(n)
        assert list(masks) == _canonical(n)
        assert ends == {t for t in range(1, len(masks) + 1)
                        if t == len(masks) or masks[t].bit_count() != masks[t - 1].bit_count()}
        values = list(all_masks(n))
        for m in values:
            assert below[m] == sum(1 << x for x in values if is_subset(x, m) and x != m)
            assert above[m] == sum(1 << x for x in values if is_subset(m, x) and x != m)
            assert inc[m] == sum(1 << x for x in values
                                 if not is_subset(x, m) and not is_subset(m, x))
            assert related[m] == sum(1 << x for x in values
                                     if (is_subset(x, m) or is_subset(m, x)) and x != m)
        assert _cube(n) is _cube(n)


def test_anchored_mono_check_matches_naive():
    # seeded random canonical-order partial colorings: a set is refused by
    # its class exactly when the all-injections oracle finds a copy in the
    # class with it (each class stays copy-free, as in the searches)
    rng = random.Random(20240611)
    patterns = [standard_poset("chain", l) for l in (1, 2, 3, 4)] + [V2, poset_by_name("A2")]
    refused = 0
    for _ in range(60):
        n = rng.randint(2, 4)
        pattern = rng.choice(patterns)
        if n == 4 and pattern.size > 3:
            continue  # keeps the oracle's injection count small
        mode = rng.choice(("weak", "strong"))
        below = _cube(n).below
        k = rng.randint(1, 3)
        classes = [_MonoClass(pattern, mode, below) for _ in range(k)]
        members = [[] for _ in range(k)]
        for x in _canonical(n):
            c = rng.randrange(k + 1)
            if c == k:
                continue  # left uncolored
            free = find_copy_naive(Family.make(n, members[c] + [x]), pattern, mode) is None
            assert classes[c].add(x) == free
            refused += not free
            if free and rng.random() < 0.2:
                classes[c].remove(x)  # undo, as the search does on backtracking
            elif free:
                members[c].append(x)
    assert refused > 20


def test_anchored_rainbow_check_matches_unanchored():
    # a rainbow strong A_k (or a rainbow C_k) through the newest set is
    # found exactly when the unanchored search finds one among all colored
    # sets; chains up to C_5 reach the general kernel, not only _rainbow_pair
    for kind in ("antichain", "chain"):
        rng = random.Random(8128)
        found = 0
        for _ in range(80):
            n = rng.randint(2, 4)
            k = rng.randint(1, 4) if kind == "antichain" else rng.randint(2, 5)
            ncolors = rng.randint(max(1, k - 1), k + 2)
            _, _, below, _, inc, related = _cube(n)
            # the tables _avoiding picks: the antichain residual lies among
            # the sets incomparable to x, the chain's among its strict subsets
            if kind == "antichain":
                window = rows = inc
            else:
                window, rows = below, related
            color = {}
            class_bits = [0] * ncolors
            for x in _canonical(n):
                c = rng.randrange(ncolors + 1)
                if c == ncolors:
                    continue  # left uncolored
                before = tuple(m for m in _canonical(n) if m in color)
                color[x] = c
                # the kernel call _avoiding makes: positions are masks
                others = [b for d in range(ncolors) if d != c and (b := class_bits[d] & window[x])]
                through = _rainbow_strong_antichain(others, rows, k - 1)
                if kind == "antichain":
                    whole = find_pattern(Coloring(n, list(color.items())),
                                         standard_poset("antichain", k), "strong", "rainbow")
                else:
                    whole = _search_embedding(before + (x,), standard_poset("chain", k), "weak",
                                              False, color_of=color.get)
                assert (through is None) == (whole is None)
                if through is not None:
                    found += 1
                    copy = sorted(through + (x,), key=int.bit_count)
                    assert len({color[m] for m in copy}) == k
                    if kind == "antichain":
                        assert all(a & ~b and b & ~a for a in copy for b in copy if a != b)
                    else:
                        assert all(a & ~b == 0 and a != b for a, b in zip(copy, copy[1:]))
                    del color[x]  # refused: the colored sets stay copy-free
                    continue
                class_bits[c] |= 1 << x
        assert found > 20, kind


def test_rainbow_pair_matches_generic_kernels():
    # the two-set residuals of a strong A3 and of a C3 through x, tested by
    # _rainbow_pair over the class bitsets, give the same answer as the
    # generic kernels on seeded random partial colorings, n = 2..5
    rng = random.Random(3141)
    outcomes = {"antichain": [0, 0], "chain": [0, 0]}
    for _ in range(400):
        n = rng.randint(2, 5)
        _, _, below, _, inc, related = _cube(n)
        ncolors = rng.randint(2, 5)
        color = {m: c for m in range(1 << n) if (c := rng.randrange(ncolors + 1)) < ncolors}
        x = rng.randrange(1 << n)
        c = rng.randrange(ncolors)
        color.pop(x, None)
        class_bits = [0] * ncolors
        for m, d in color.items():
            class_bits[d] |= 1 << m
        classes = [SimpleNamespace(bits=b) for b in class_bits]
        # the antichain residual: the sets incomparable to x, by class
        parts = [class_bits[d] & inc[x] for d in range(ncolors) if d != c]
        got = _rainbow_pair(classes, ncolors, c, inc[x], inc)
        assert got == (_rainbow_strong_antichain([b for b in parts if b], inc, 2)
                       is not None)
        outcomes["antichain"][got] += 1
        # the chain residual: the colored strict subsets of x outside its class
        got = _rainbow_pair(classes, ncolors, c, below[x], related)
        colored = sum(class_bits)   # the classes are disjoint
        cand = tuple(_bits_of(below[x] & ~class_bits[c] & colored))
        assert got == (_search_embedding(cand, C2, "weak", False, color_of=color.get)
                       is not None)
        outcomes["chain"][got] += 1
    assert all(no > 50 and yes > 50 for no, yes in outcomes.values()), outcomes


def _literal_perm_positions(n):
    """For each permutation of [n] in itertools order, position i of the
    level order maps to the position of the permuted mask, by applying the
    permutation element by element."""
    masks = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
    pos = {m: i for i, m in enumerate(masks)}
    return [[pos[sum(1 << perm[a] for a in range(n) if m >> a & 1)] for m in masks]
            for perm in permutations(range(n))]


def _literal_sends(perm_positions):
    """sends[i][p]: the permutations, as a bitset in itertools order,
    taking the i-th mask of the level order to the p-th."""
    size = len(perm_positions[0])
    sends = [[0] * size for _ in range(size)]
    for k, where in enumerate(perm_positions):
        for i, p in enumerate(where):
            sends[i][p] |= 1 << k
    return sends


def _orbit_oracle(perm_positions, assign, t, rename):
    """(minimal, ties): the length-t prefix against every permuted prefix,
    colors renamed first-seen when rename is set; ties maps the index of
    each permutation whose permuted prefix equals the prefix to its color
    renaming (None without renaming)."""
    prefix = list(assign[:t])
    minimal, ties = True, {}
    for k, where in enumerate(perm_positions):
        permuted = [assign[where[i]] for i in range(t)]
        names = None
        if rename:
            names = {}
            permuted = [names.setdefault(c, len(names)) for c in permuted]
        if permuted < prefix:
            minimal = False
        elif permuted == prefix:
            ties[k] = names
    return minimal, ties


def _orbit_min_coloring(perm_positions, assign, rename):
    """The least coloring in the orbit of assign."""
    best = None
    for where in perm_positions:
        permuted = [assign[w] for w in where]
        if rename:
            names = {}
            permuted = [names.setdefault(c, len(names)) for c in permuted]
        if best is None or permuted < best:
            best = permuted
    return best


def test_orbit_test_matches_literal_oracle():
    # seeded random colorings, restricted-growth and free, n = 3..6; at
    # every complete-level boundary the orbit test agrees with the oracle
    # on the answer, on the tied permutations and on each one's renaming
    rng = random.Random(1996)
    rejected = deep = 0
    for n in range(3, 7):
        perm_positions = _literal_perm_positions(n)
        sends = _literal_sends(perm_positions)
        size = 1 << n
        ends = [sum(comb(n, l) for l in range(j + 1)) for j in range(n + 1)]
        # cols[p][k]: the permutations taking the k-th set of p's level to p
        cols = [tuple(sends[lo + k][p] for k in range(hi - lo))
                for lo, hi in zip([0] + ends, ends) for p in range(lo, hi)]
        assert _perm_position_maps(n) == (list(permutations(range(n))), cols)
        for rename in (True, False):
            for trial in range(10):
                k = rng.randint(2, 4)
                if trial % 2:
                    # colors by level with a few flips: large tied sets
                    base = [rng.randrange(k) for _ in range(n + 1)]
                    assign = [base[m.bit_count()] for m in
                              sorted(range(size), key=lambda m: (m.bit_count(), m))]
                    for _ in range(rng.randint(0, 3)):
                        assign[rng.randrange(size)] = rng.randrange(k)
                else:
                    assign = [rng.randrange(k) for _ in range(size)]
                if rename:
                    names = {}
                    assign = [names.setdefault(c, len(names)) for c in assign]
                if trial % 3 == 2:
                    # the least of its orbit: every prefix is minimal
                    assign = _orbit_min_coloring(perm_positions, assign, rename)
                fixed = {c: c for c in range(k)}
                tied = (0, [({} if rename else fixed, (1 << factorial(n)) - 1)])
                for t in ends:
                    ties = []
                    got = _prefix_is_orbit_min(assign, t, tied, cols, ties)
                    minimal, expect = _orbit_oracle(perm_positions, assign, t, rename)
                    assert got == minimal, (n, rename, assign, t)
                    if not got:
                        rejected += 1
                        break
                    deep += t == size
                    union = 0
                    for cmap, bits in ties:
                        assert bits and not bits & union
                        union |= bits
                        if not rename:  # fixed colors keep the identity renaming
                            assert cmap == fixed, (n, assign, t)
                        elif bits != 1:  # a lone identity keeps the renaming it had
                            assert all(expect[j] == cmap for j in _bits_of(bits))
                    assert set(_bits_of(union)) == set(expect), (n, rename, assign, t)
                    tied = (t, ties)
    assert rejected > 20 and deep > 10


def _on_memo_refusals(monkeypatch, seen):
    """Make every search call seen(state) on each arrival that its
    remembered orbit-test refusal refuses, state being _avoiding's local
    variables.  The remembered refusal lives in those variables and
    refusing by it calls nothing, so the node counter, which _avoiding
    ticks on every arrival just before its orbit test, reads them from
    its caller's frame."""
    from rainbowramsey import search

    class Watched(search._Counter):
        def tick(self):
            super().tick()
            state = sys._getframe(1).f_locals
            if state["t"] == state["refused_end"]:
                seen(state)

    monkeypatch.setattr(search, "_Counter", Watched)


def test_orbit_refusal_memo_is_sound(monkeypatch):
    # each arrival at a level end that a remembered refusal refuses is
    # refused by the orbit test too, run again there on the same state;
    # every pinned tree, and budgeted n = 6 runs, colors renamed and not
    from rainbowramsey import search
    inner = search._prefix_is_orbit_min
    tests = [0]
    memo = {"renamed": 0, "plain": 0}

    def tested(*args):
        tests[0] += 1
        return inner(*args)

    def recheck(state):
        memo["renamed" if state["rename"] else "plain"] += 1
        t, assign = state["t"], state["assign"]
        s = state["level_start"][t - 1]
        refusal = []
        assert inner(assign, t, state["tied"][s], state["cols"], refusal) is False
        # at or before the last position the remembered refusal reads
        assert refusal[0][0] <= state["refused_last"]

    monkeypatch.setattr(search, "_prefix_is_orbit_min", tested)
    _on_memo_refusals(monkeypatch, recheck)
    # the runs of test_pinned_search_trees, read from its parameters
    for run, *_ in test_pinned_search_trees.pytestmark[0].args[1]:
        run(True)
    for run in (lambda: rainbow_ramsey(C3, A3, "strong", 6, budget=4000),
                lambda: ramsey([C3, C3, C3], "weak", 6, budget=2000),
                lambda: ramsey([C4, C4], "weak", 6, budget=2000),
                lambda: ramsey([C3, C4], "weak", 5)):
        run()
    assert tests[0] > 5000 and memo["renamed"] > 10_000 and memo["plain"] > 5000, (tests, memo)


def test_last_read_is_the_literal_last_position_read():
    # seeded colorings, n = 4..6, colors renamed and fixed: at each refusal
    # of the orbit test the memo's last position is the last position that
    # the lowest refusing permutation reads, by the literal position maps
    rng = random.Random(2026)
    refusals = {True: 0, False: 0}
    beyond = 0
    for n in range(4, 7):
        perm_positions = _literal_perm_positions(n)
        perms, cols = _perm_position_maps(n)
        masks = _cube(n).masks
        where = {m: i for i, m in enumerate(masks)}
        size = 1 << n
        ends = [sum(comb(n, l) for l in range(j + 1)) for j in range(n + 1)]
        for rename in (True, False):
            for _ in range(60):
                k = rng.randint(2, 4)
                assign = [rng.randrange(k) for _ in range(size)]
                if rename:
                    names = {}
                    assign = [names.setdefault(c, len(names)) for c in assign]
                tied = (0, [({} if rename else {c: c for c in range(k)},
                             (1 << factorial(n)) - 1)])
                for s, t in zip([0] + ends, ends):
                    ties = []
                    if _prefix_is_orbit_min(assign, t, tied, cols, ties):
                        tied = (t, ties)
                        continue
                    i, bits = ties[0]
                    sigma = (bits & -bits).bit_length() - 1
                    expect = max(i, *(perm_positions[sigma][p] for p in range(s, i + 1)))
                    assert _last_read(masks, where, perms, s, ties[0]) == expect, \
                        (n, rename, assign, t)
                    refusals[rename] += 1
                    beyond += expect > i
                    break
    assert min(refusals.values()) > 100 and beyond > 100, (refusals, beyond)


def test_pinned_orbit_tree_on_s8(monkeypatch):
    # the orbit test over S_8 (40,320 permutations): a budgeted R(C3,C3,C3,C3)
    # stops in n = 8 with the same tree, witness and orbit-test outcomes;
    # of its 96 arrivals at level ends and 42 refusals, 27 are refused by
    # a remembered refusal without running the test
    from rainbowramsey import search
    calls = []
    memo = []
    inner = search._prefix_is_orbit_min

    def counted(*args):
        calls.append(inner(*args))
        return calls[-1]

    monkeypatch.setattr(search, "_prefix_is_orbit_min", counted)
    _on_memo_refusals(monkeypatch, memo.append)
    try:
        res = ramsey([C3] * 4, "weak", 8, budget=1000)
    finally:
        search._perm_position_maps.cache_clear()   # n = 8's table is about 63 MiB
    assert (res.value, res.details["nodes"], res.checked) == (">7", 1001, (0, 7))
    assert _digest(res.witness) == "f1f93e68ff016117"
    assert (len(calls) + len(memo), calls.count(False) + len(memo)) == (96, 42)
    assert (len(calls), calls.count(False), len(memo)) == (69, 15, 27)


def _digest(col):
    return hashlib.sha256(col.to_json().encode()).hexdigest()[:16]


@pytest.mark.parametrize("run, value, nodes, witness", [
    (lambda sym: ramsey([C3, C3], "weak", 4, symmetry=sym), 4, (231, 398), "bc3629ecffa3f604"),
    (lambda sym: rainbow_ramsey(C2, A3, "strong", 5, symmetry=sym), 5, (88, 99),
     "a4523f58c21297e3"),
    (lambda sym: rainbow_ramsey(C3, C3, "weak", 4, symmetry=sym), 4, (729, 1332),
     "bc3629ecffa3f604"),
    # distinct patterns: colors are not interchangeable, so the orbit test
    # compares colors as they are
    (lambda sym: ramsey([C2, C4], "weak", 4, symmetry=sym), 4, (246, 413), "964e90d4c3f44821"),
    (lambda sym: ramsey([C2, C2, C3], "weak", 4, symmetry=sym), 4, (1222, 2589),
     "b14d00e24aaee746"),
    (lambda sym: ramsey([C3, C4], "weak", 5, symmetry=sym), 5, (26_551, 211_136),
     "3c1ea7926399f81d"),
    # non-chain patterns: the mono check re-runs the copy search on the
    # class, and a rainbow q that is neither a chain nor an antichain is
    # looked for in the whole prefix
    (lambda sym: rainbow_ramsey(V2, A3, "strong", 5, symmetry=sym), 5, (399, 965),
     "f207d9f9ce97e6f3"),
    (lambda sym: ramsey([V2, L2], "weak", 4, symmetry=sym), 4, (148, 188), "ce739c8086240262"),
    (lambda sym: rainbow_ramsey(A2, L2, "strong", 4, symmetry=sym), 3, (49, 49),
     "6ea343e4c9b5f859"),
    (lambda sym: rainbow_ramsey(C2, V2, "strong", 4, symmetry=sym), 3, (15, 15),
     "33f981b1d4bcdcdb"),
    # decided at n = 6, so the orbit test over S_6 runs to the end
    (lambda sym: rainbow_ramsey(C2, A4, "strong", 6, symmetry=sym), 6, (42_633, 84_706),
     "1c1873d08b5001a5"),
    # a rainbow chain of four or more sets: the general relation-row kernel
    # over the strict subsets of the newest set
    (lambda sym: rainbow_ramsey(C2, C4, "weak", 4, symmetry=sym), 3, (83, 83),
     "33f981b1d4bcdcdb"),
    (lambda sym: rainbow_ramsey(A2, C4, "strong", 4, symmetry=sym), 4, (1_740, 3_983),
     "c02e147e53a80d99"),
    (lambda sym: rainbow_ramsey(C2, C6, "weak", 5, budget=3000, symmetry=sym), ">4",
     (3_001, 3_001), "a4523f58c21297e3"),
], ids=["R(C3,C3)", "RR(C2,A3) strong", "RR(C3,C3) weak", "R(C2,C4)", "R(C2,C2,C3)",
        "R(C3,C4)", "RR(V2,A3) strong", "R(V2,L2)", "RR(A2,L2) strong", "RR(C2,V2) strong",
        "RR(C2,A4) strong", "RR(C2,C4) weak", "RR(A2,C4) strong", "RR(C2,C6) weak stopped"])
def test_pinned_search_trees(run, value, nodes, witness):
    # the anchored checks prune exactly what the full copy searches did:
    # same node counts, values and witnesses, symmetry on and off
    for sym, expect_nodes in zip((True, False), nodes):
        res = run(sym)
        assert (res.value, res.details["nodes"], _digest(res.witness)) == (value, expect_nodes, witness)


def test_twins_bound_the_work_of_a_budget(monkeypatch):
    # D5's five middles are interchangeable and take increasing images, so
    # 100 nodes of R(D5,D5) strong run the copy search about 2 * 10^5 up
    # rows; trying every order of the middles took 1.6 * 10^7
    calls = 0

    def counted(members):
        up, down = order_rows(members)

        def counted_up(x):
            nonlocal calls
            calls += 1
            assert calls <= 1_000_000, "the copy search outran the node budget"
            return up(x)

        return counted_up, down

    monkeypatch.setattr(posets, "order_rows", counted)
    res = ramsey([poset_by_name("D5")] * 2, "strong", 6, budget=100)
    assert (res.value, res.details["nodes"], _digest(res.witness)) == (">5", 101, "a2950dbb9c2eec0d")


@pytest.mark.parametrize("partial, nodes, witness", [
    (False, 10_344, "54ef28b3dabcfbbf"),
    (True, 916_623, "6812d0731b9b8186"),
], ids=["F(4,3)", "F'(4,3)"])
def test_pinned_threshold3_trees(partial, nodes, witness):
    res = threshold_F(4, 3, partial)
    assert (res.value, res.details, _digest(res.witness)) == (
        6, {"max_min": 5, "nodes": nodes}, witness)


@pytest.mark.parametrize("partial, pins", [
    (False, [(1, 2, "f8e386787746dc92"), (2, 4, "4c268e66230b6949"), (3, 10, "aec2227f7086bce9"),
             (3, 20, "98bf73c458c7f452"), (3, 38, "87b9c28be06f2a52")]),
    (True, [(1, 3, "141c8079ac576404"), (2, 6, "4eabff8bd1ab2b41"), (3, 18, "2f3f1bef2506c8d7"),
            (3, 137, "0f7165841428ccd4"), (4, 1031, "d4432b4b71b1d379")]),
], ids=["F(n,2)", "F'(n,2)"])
def test_pinned_threshold2_witnesses(partial, pins):
    # the branch and bound keeps the first coloring, in its search order,
    # that strictly beats the incumbent, so the witness and tree are pinned
    for n, (value, nodes, witness) in enumerate(pins):
        res = threshold_F(n, 2, partial)
        assert (res.value, res.details, _digest(res.witness)) == (
            value, {"max_min": value - 1, "nodes": nodes}, witness), n


def _literal_threshold2(n, partial):
    """The largest smaller-class size over all 2-colorings of B_n with no
    incomparable pair in two colors; when partial, a set may also stay
    uncolored (None)."""
    sets = range(1 << n)
    rainbow_pairs = [(a, b) for a in sets for b in sets if a & b not in (a, b)]
    best = -1
    for colors in product((0, 1, None) if partial else (0, 1), repeat=1 << n):
        if any(colors[a] is not None and colors[b] is not None and colors[a] != colors[b]
               for a, b in rainbow_pairs):
            continue
        best = max(best, min(colors.count(0), colors.count(1)))
    return best


@pytest.mark.parametrize("partial", [False, True], ids=["F(n,2)", "F'(n,2)"])
def test_threshold2_matches_literal_sweep(partial):
    # all 2^(2^n) total and 3^(2^n) partial colorings for n <= 3
    for n in range(4):
        res = threshold_F(n, 2, partial)
        m = _literal_threshold2(n, partial)
        assert res.details["max_min"] == m and res.value == m + 1, n
        w = res.witness
        assert w.ground == n and w.total == (not partial)
        assert find_pattern(w, A2, "strong", "rainbow") is None, n
        sizes = w.class_sizes()
        assert len(sizes) <= 2 and min(sizes + [0] * (2 - len(sizes))) == m, n


@pytest.mark.parametrize("run", [
    lambda: ramsey([C3, C3], "weak", 4, budget=0),
    lambda: rainbow_ramsey(C3, C3, "weak", 4, budget=0),
], ids=["R", "RR"])
def test_budget_stop_in_n0_decides_nothing(run):
    res = run()
    assert res.budget_exhausted
    assert (res.value, res.witness, res.checked) == (None, None, (0, -1))
    assert res.to_jsonable()["value"] is None


def test_threshold3_budget_stop_keeps_incumbent():
    res = threshold_F(4, 3, partial=True, budget=60_000)
    assert res.budget_exhausted
    assert res.checked == (4, 3)  # nothing decided at n = 4
    m = res.details["max_min"]
    assert res.value == f">{m}" and res.details["nodes"] == 60_001
    w = res.witness
    assert w is not None and w.ground == 4 and not w.total
    assert min(w.class_sizes()) == m and w.num_colors == 3
    # F has no mono pattern: C6 is longer than any chain of B_4
    assert validate_witness(w, standard_poset("chain", 6), A3, "weak", "strong").avoided
    obj = res.to_jsonable()
    assert obj["value"] == f">{m}" and obj["nodes"] == 60_001
    # a budget too small to reach a full coloring has no incumbent
    res = threshold_F(4, 3, partial=True, budget=5)
    assert res.value is None and res.witness is None and res.checked == (4, 3)


@pytest.mark.parametrize("partial", [False, True], ids=["F(n,3)", "F'(n,3)"])
@pytest.mark.parametrize("budget", [0, 1])
def test_threshold3_stops_at_the_first_nodes(partial, budget):
    # the root is node 1 and its first child node 2: a budget of 0 or 1
    # stops the search there, before any full coloring, at every n
    for n in range(5):
        res = threshold_F(n, 3, partial, budget=budget)
        assert res.budget_exhausted, n
        assert (res.value, res.witness, res.checked) == (None, None, (n, n - 1)), n
        assert res.details["nodes"] == budget + 1, n


def _literal_threshold3(n, partial, budget):
    """F(n,3) / F'(n,3) by the plain node rule: every child that completes
    no rainbow triple is entered and ticks a _Counter, the bound is tested
    on entry, and the triple test walks the sets of one class bit by bit.
    Returns (max-min, class bitsets, stopped, nodes)."""
    counter = _Counter(budget)
    size = 1 << n
    inc = _cube(n).inc
    cls = [0, 0, 0]
    counts = [0, 0, 0]
    best, best_cls = -1, None

    def place(t, used):
        nonlocal best, best_cls
        counter.tick()
        if t == size:
            if min(counts) > best:
                best, best_cls = min(counts), cls[:]
            return
        if min(counts) + size - t <= best:
            return
        for c in range(min(3, used + 1)):
            a_bits, b_bits = inc[t] & cls[c - 2], inc[t] & cls[c - 1]
            while a_bits and not inc[(a_bits & -a_bits).bit_length() - 1] & b_bits:
                a_bits &= a_bits - 1
            if a_bits:
                continue
            counts[c] += 1
            cls[c] |= 1 << t
            place(t + 1, max(used, c + 1))
            cls[c] ^= 1 << t
            counts[c] -= 1
        if partial:
            place(t + 1, used)

    try:
        place(0, 0)
    except BudgetExceeded:
        return best, best_cls, True, counter.nodes
    return best, best_cls, False, counter.nodes


def test_threshold3_matches_literal_node_rule():
    # the same tree node for node: incumbent, class bitsets, stop and
    # node count agree at every budget tried, up to past the full tree
    def run(n, partial, budget):
        counter = _Counter(budget)
        return (*_threshold3(n, partial, counter), counter.nodes)

    for n in range(4):
        for partial in (False, True):
            full = _literal_threshold3(n, partial, None)
            assert run(n, partial, None) == full, (n, partial)
            for budget in sorted({*range(12), *range(12, full[3] + 9, 1 + full[3] // 25)}):
                assert run(n, partial, budget) == _literal_threshold3(n, partial, budget), (
                    n, partial, budget)
    assert run(4, False, None) == _literal_threshold3(4, False, None)
    for budget in (0, 1, 2, 3, 7, 40, 333, 2_718, 9_999, 17_500, 31_416, 59_999, 60_000):
        assert run(4, True, budget) == _literal_threshold3(4, True, budget), budget


def test_threshold2_budget_stop_keeps_incumbent():
    # F'(4,2) takes 1,031 nodes; 50 stop it after a first incumbent
    res = threshold_F(4, 2, partial=True, budget=50)
    assert res.budget_exhausted
    assert res.checked == (4, 3)  # nothing decided at n = 4
    m = res.details["max_min"]
    assert res.value == f">{m}" and res.details["nodes"] == 51
    w = res.witness
    assert w is not None and w.ground == 4 and not w.total
    assert min(w.class_sizes()) == m and w.num_colors == 2
    assert validate_witness(w, standard_poset("chain", 6), A2, "weak", "strong").avoided
    obj = res.to_jsonable()
    assert obj["value"] == f">{m}" and obj["nodes"] == 51
    # a budget too small to reach a full coloring has no incumbent
    res = threshold_F(4, 2, partial=True, budget=5)
    assert res.value is None and res.witness is None and res.checked == (4, 3)
