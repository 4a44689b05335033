import hashlib
import json
import random

import pytest

from rainbowramsey import posets
from rainbowramsey.lattice import Family, all_masks, levels_family, random_family
from rainbowramsey.posets import (
    PosetError,
    PosetPattern,
    _no_room,
    _pattern_from_strict,
    _search_embedding,
    extremal_params,
    find_copy,
    find_copy_naive,
    poset_by_name,
    standard_poset,
    structural_params,
)

STANDARD_SMALL = [
    standard_poset("chain", 2), standard_poset("chain", 3), standard_poset("chain", 4),
    standard_poset("antichain", 2), standard_poset("antichain", 3),
    standard_poset("fork", 2), standard_poset("fork", 3),
    standard_poset("broom", 2), standard_poset("gen-diamond", 2),
]

# every standard pattern up to six elements
STANDARD_SIX = STANDARD_SMALL + [
    standard_poset("chain", 5), standard_poset("chain", 6),
    standard_poset("antichain", 4), standard_poset("antichain", 5),
    standard_poset("antichain", 6),
    standard_poset("fork", 4), standard_poset("fork", 5),
    standard_poset("broom", 3), standard_poset("broom", 4), standard_poset("broom", 5),
    standard_poset("gen-diamond", 3), standard_poset("gen-diamond", 4),
]


def test_standard_poset_shapes():
    c3 = standard_poset("chain", 3)
    assert c3.less(0, 1) and c3.less(1, 2) and c3.less(0, 2)
    v2 = standard_poset("fork", 2)
    assert v2.less(0, 1) and v2.less(0, 2) and not v2.comparable(1, 2)
    d2 = standard_poset("gen-diamond", 2)
    assert d2.less(0, 1) and d2.less(0, 2) and d2.less(1, 3) and d2.less(2, 3)
    assert not d2.comparable(1, 2)
    with pytest.raises(PosetError):
        standard_poset("fork", 1)


def test_standard_poset_refuses_more_than_256_elements(monkeypatch):
    # a B_8 holds 256 sets; a larger pattern is refused before it is built
    assert standard_poset("antichain", 256).size == 256
    assert standard_poset("fork", 255).size == 256

    def built(*args):
        raise AssertionError("pattern built")

    monkeypatch.setattr(posets, "_pattern_from_strict", built)
    for kind, param, size in (("chain", 257, 257), ("chain", 600, 600),
                              ("antichain", 10**10, 10**10), ("fork", 256, 257),
                              ("broom", 256, 257), ("gen-diamond", 255, 257)):
        with pytest.raises(PosetError, match=f"a {kind} of {size} elements is refused"):
            standard_poset(kind, param)
    with pytest.raises(PosetError, match="at most 256"):
        poset_by_name("C400")
    with pytest.raises(PosetError, match="unknown standard poset kind"):
        standard_poset("tree", 10**10)


def test_pattern_validation():
    with pytest.raises(PosetError):
        PosetPattern(2, ((True, True), (True, True)))  # not antisymmetric
    with pytest.raises(PosetError):
        PosetPattern(3, ((True, True, False), (False, True, True), (False, False, True)))


def test_poset_json_round_trip():
    v3 = standard_poset("fork", 3)
    assert PosetPattern.from_json(v3.to_json()) == v3
    assert poset_by_name("L3") == standard_poset("broom", 3)


def test_find_copy_spec_examples():
    b2 = Family.whole_cube(2)
    emb = find_copy(b2, standard_poset("fork", 2), "weak")
    # bottom maps to the empty set, the tops to the two singletons
    assert emb is not None and emb.images == (0, 0b01, 0b10)
    level = Family.make(3, (m for m in all_masks(3) if m.bit_count() == 1))
    assert find_copy(level, standard_poset("chain", 2), "weak") is None
    assert find_copy(Family.whole_cube(5), standard_poset("antichain", 4),
                     "strong", thin=True) is None


def test_strong_implies_weak():
    rng = random.Random(4242)
    for _ in range(150):
        n = rng.randint(1, 6)
        host = random_family(n, rng, density=rng.choice([0.3, 0.5]))
        p = rng.choice(STANDARD_SIX)
        strong = find_copy(host, p, "strong")
        if strong is not None:
            assert find_copy(host, p, "weak") is not None


def test_ground_permutation_invariance():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 5)
        host = random_family(n, rng, density=0.4)
        perm = list(range(n))
        rng.shuffle(perm)

        def relabel(mask):
            out = 0
            for i in range(n):
                if mask >> i & 1:
                    out |= 1 << perm[i]
            return out

        host2 = Family.make(n, (relabel(m) for m in host))
        for p in (standard_poset("fork", 2), standard_poset("chain", 3)):
            for mode in ("weak", "strong"):
                a = find_copy(host, p, mode) is not None
                b = find_copy(host2, p, mode) is not None
                assert a == b


def test_full_cube_hosts_thin_weak_copy():
    # B_{|P|-1} contains a maximal chain of |P| sets, a thin weak copy of P
    for p in STANDARD_SIX:
        host = Family.whole_cube(p.size - 1)
        assert find_copy(host, p, "weak", thin=True) is not None


def test_find_copy_matches_naive_oracle():
    rng = random.Random(31)
    pats = [p for p in STANDARD_SMALL if p.size <= 4]
    for _ in range(40):
        n = rng.randint(2, 4)
        host = random_family(n, rng, density=rng.choice([0.3, 0.6]))
        for p in pats:
            for mode in ("weak", "strong"):
                for thin in (False, True):
                    fast = find_copy(host, p, mode, thin) is not None
                    slow = find_copy_naive(host, p, mode, thin) is not None
                    assert fast == slow, (n, host.members, mode, thin)


def test_room_precheck_matches_naive_oracle():
    # seeded small hosts (random families and level windows) and non-chain
    # patterns: find_copy, whose pre-check refuses a host with too few
    # members below or above, agrees with the all-injections oracle
    rng = random.Random(279)
    pats = [p for p in STANDARD_SIX if not p.is_chain() and p.size <= 4]
    refused = 0
    for _ in range(50):
        n = rng.randint(2, 4)
        if rng.random() < 0.5:
            lo = rng.randint(0, n - 1)
            host = levels_family(n, lo, min(n, lo + 1))
        else:
            host = random_family(n, rng, density=rng.choice([0.3, 0.6]))
        for p in pats:
            no_room = not p.is_antichain() and _no_room(host.members, p)
            refused += no_room
            for mode in ("weak", "strong"):
                for thin in (False, True):
                    slow = find_copy_naive(host, p, mode, thin) is None
                    assert (find_copy(host, p, mode, thin) is None) == slow, (
                        n, host.members, p, mode, thin)
                    assert slow or not no_room
    assert refused > 40


def test_chain_copy_matches_backtracking():
    # chain copies are the lexicographically first ones the backtracking
    # search returns, whatever the labels of the chain's elements
    rng = random.Random(2024)
    for _ in range(120):
        n = rng.randint(0, 6)
        host = random_family(n, rng, density=rng.choice([0.2, 0.4, 0.7]))
        for l in range(6):
            perm = list(range(l))
            rng.shuffle(perm)
            chain = _pattern_from_strict(l, ((perm[i], perm[j]) for i in range(l)
                                             for j in range(i + 1, l)))
            for mode in ("weak", "strong"):
                for thin in (False, True):
                    emb = find_copy(host, chain, mode, thin)
                    want = _search_embedding(host.members, chain, mode, thin)
                    assert (emb and emb.images) == want, (n, host.members, perm, mode, thin)
                    if n <= 4 and l <= 4:
                        naive = find_copy_naive(host, chain, mode, thin)
                        assert (emb is None) == (naive is None)


def test_structural_params():
    assert structural_params(standard_poset("antichain", 3)) == {"connected": False, "f": 2}
    assert structural_params(standard_poset("chain", 4)) == {"connected": True, "f": 0}
    assert structural_params(standard_poset("fork", 2)) == {"connected": True, "f": 1}
    assert structural_params(standard_poset("broom", 2)) == {"connected": True, "f": 1}


def test_extremal_params_values():
    v2 = extremal_params(standard_poset("fork", 2), n_cap=5)
    assert v2.m_weak == 1
    a4 = extremal_params(standard_poset("antichain", 4), n_cap=6)
    assert a4.r_star == 5
    for l in (2, 3, 4, 5):
        p = extremal_params(standard_poset("chain", l), n_cap=5)
        assert p.e_estimate == l - 1 and p.e_star_estimate == l - 1
        assert p.provenance["e"] == "wired: chain"


def test_extremal_params_window_estimate_on_chains():
    # the level-window search reproduces e(C_l) = l-1 without the wiring
    from rainbowramsey.posets import _level_window_estimate
    for l in (2, 3, 4):
        assert _level_window_estimate(standard_poset("chain", l), "weak", 5) == l - 1


def _literal_window_min(pattern, mode, n_cap):
    # the minimum over n <= n_cap, written out per n
    best = None
    for n in range(1, n_cap + 1):
        hit = next((m for m in range(1, n + 2) for lo in range(n - m + 2)
                    if find_copy(levels_family(n, lo, lo + m - 1), pattern, mode) is not None),
                   None)
        if hit is not None:
            best = hit - 1 if best is None else min(best, hit - 1)
    return best


def test_level_window_estimate_is_the_per_n_minimum():
    from rainbowramsey.posets import _level_window_estimate
    for p in (p for p in STANDARD_SIX if p.size <= 5):  # the weak scan of L5 alone takes 4 s
        for mode in ("weak", "strong"):
            for n_cap in range(1, 6):
                assert _level_window_estimate(p, mode, n_cap) == _literal_window_min(p, mode, n_cap)


def test_m_weak_le_m_strong():
    for p in STANDARD_SMALL:
        params = extremal_params(p, n_cap=4)
        if params.m_weak is not None and params.m_strong is not None:
            assert params.m_weak <= params.m_strong


def test_extremal_params_diamond():
    d2 = standard_poset("gen-diamond", 2)
    params = extremal_params(d2, n_cap=5)
    # the diamond needs three levels for its 3-chain, and three consecutive
    # levels of a large cube always host one
    assert params.m_weak == 1 and params.m_strong == 1
    assert params.e_estimate == 2 and params.e_star_estimate == 2


def _relabeled(pattern, rng):
    perm = list(range(pattern.size))
    rng.shuffle(perm)
    return _pattern_from_strict(pattern.size, ((perm[i], perm[j])
                                               for i in range(pattern.size)
                                               for j in range(pattern.size)
                                               if pattern.less(i, j)))


def test_copy_search_images_pinned():
    # (a) standard patterns have the identity as linear extension, so the
    # search's copy is the all-injections oracle's first one
    rng = random.Random(5150)
    pats = [p for p in STANDARD_SIX if p.size <= 4]
    hits = 0
    for _ in range(100):
        n = rng.randint(0, 4)
        host = random_family(n, rng, density=rng.choice([0.3, 0.5, 0.7]))
        for p in pats:
            for mode in ("weak", "strong"):
                for thin in (False, True):
                    got = _search_embedding(host.members, p, mode, thin)
                    naive = find_copy_naive(host, p, mode, thin)
                    assert got == (naive and naive.images), (n, host.members, p, mode, thin)
                    hits += got is not None
    assert hits > 1200
    # (b) relabeled patterns, members in canonical or mask order, and color
    # maps: the oracle cannot order these copies, so their digest is pinned
    rng = random.Random(6174)
    runs = []
    for _ in range(120):
        n = rng.randint(0, 5)
        host = random_family(n, rng, density=rng.choice([0.3, 0.5, 0.8]))
        members = host.members if rng.random() < 0.5 else tuple(sorted(host.members))
        colors = {m: rng.randrange(rng.randint(1, 6)) for m in members}
        p = _relabeled(rng.choice(STANDARD_SIX), rng)
        for mode in ("weak", "strong"):
            for thin in (False, True):
                for color_of in (None, colors.__getitem__):
                    runs.append(_search_embedding(members, p, mode, thin, color_of))
    assert sum(r is not None for r in runs) > 150
    digest = hashlib.sha256(json.dumps(runs).encode()).hexdigest()[:16]
    assert digest == "832c7dfa1ae4d521"
