import hashlib
import json
import random
from fractions import Fraction

import pytest

from rainbowramsey.lattice import (
    Family,
    LatticeError,
    RegionSpec,
    all_masks,
    are_comparable,
    canonical_key,
    full_mask,
    is_subset,
    mask_from_elements,
    region,
)
from rainbowramsey.lubell import lubell_mass
from rainbowramsey.corechain import comparability
from rainbowramsey.posets import (PosetError, PosetPattern, _search_embedding, poset_by_name,
                                  standard_poset)
from rainbowramsey.colorings import (
    Coloring,
    ColoringError,
    FkMeta,
    _IncomparableRows,
    _rainbow_strong_antichain,
    _supported_classes,
    consecutive_level_coloring,
    f2_lower_coloring,
    find_pattern,
    fk_class_size_bound,
    fk_random_coloring,
    fk_structural_ok,
    g2_lower_coloring,
    generate,
    level_coloring,
    rr_lower_coloring,
    thin_antichain,
    trace_coloring,
    validate_witness,
)


def test_coloring_canonical_renaming():
    # colors renamed in first-seen canonical order, whatever ids came in
    col = Coloring(2, [(0b11, 7), (0, 3), (0b01, 3)])
    assert col.color(0) == 0 and col.color(0b01) == 0 and col.color(0b11) == 1
    assert col.num_colors == 2


def test_canonical_order_matches_canonical_key_sort():
    # Coloring items and Family members come out in the order of a plain
    # sort by canonical_key, colors renamed in first-seen order after it
    rng = random.Random(14)
    for n in range(9):
        for trial in range(6):
            masks = list(all_masks(n))
            if trial:
                masks = rng.sample(masks, rng.randint(0, len(masks)))
            rng.shuffle(masks)
            pairs = [(m, rng.choice("xyz")) for m in masks]
            remap = {}
            want = []
            for m, c in sorted(pairs, key=lambda mc: canonical_key(mc[0])):
                want.append((m, remap.setdefault(c, len(remap))))
            col = Coloring(n, pairs, total=not trial)
            assert col.items == tuple(want)
            # the accessors agree with literal scans over items
            colors = [c for _, c in col.items]
            assert col.num_colors == len(set(colors))
            assert col.class_sizes() == [colors.count(c) for c in range(col.num_colors)]
            assert col.classes() == {c: tuple(m for m, d in col.items if d == c)
                                     for c in set(colors)}
            for c in range(col.num_colors + 1):   # the last one absent
                members = [m for m, d in col.items if d == c]
                assert col.class_family(c) == Family.make(n, members)
            repeated = masks + rng.sample(masks, len(masks) // 2)
            rng.shuffle(repeated)
            assert Family.make(n, repeated).members == tuple(sorted(masks, key=canonical_key))


def test_coloring_rejects_double_assignment():
    with pytest.raises(ColoringError):
        Coloring(2, [(0, 0), (0, 1)])
    with pytest.raises(ColoringError):
        Coloring(2, [(0, 0)], total=True)


def test_coloring_serialization_round_trips():
    col = trace_coloring(3, 0b011)
    assert Coloring.from_json(col.to_json()) == col
    assert Coloring.from_text(col.to_text()) == col
    assert col.to_text().splitlines()[0] == "n=3 total=1"


def test_consecutive_level_coloring_example():
    col = consecutive_level_coloring(2, [2, 1])
    assert col.color(0) == 0 and col.color(0b01) == 0 and col.color(0b10) == 0
    assert col.color(0b11) == 1
    with pytest.raises(ColoringError):
        consecutive_level_coloring(2, [1, 1])


def test_trace_coloring_example():
    col = trace_coloring(2, 0b01)
    assert col.color(0) == 0 and col.color(0b10) == 0
    assert col.color(0b01) == 1 and col.color(0b11) == 1


def test_rr_lower_shape():
    # e=1, q=3, f=0: two singleton level classes on B_1
    col = rr_lower_coloring(1, 3, 0)
    assert col.ground == 1 and col.num_colors == 2
    # f=1 recolors the empty set with a fresh color
    col = rr_lower_coloring(2, 3, 1)
    assert col.ground == 4
    assert all(col.color(m) != col.color(0) for m in range(1, 16))
    # f=2 recolors both extremes
    col = rr_lower_coloring(2, 3, 2)
    assert col.ground == 5
    assert col.color(0) != col.color(full_mask(5))
    singles = {c for m, c in col.items if c in (col.color(0), col.color(full_mask(5)))}
    assert sum(1 for _, c in col.items if c in singles) == 2


def test_f2_lower_class_sizes():
    assert sorted(f2_lower_coloring(5).class_sizes()) == [5, 6]
    assert sorted(f2_lower_coloring(4).class_sizes()) == [3, 4]
    assert sorted(f2_lower_coloring(6).class_sizes()) == [7, 8]
    with pytest.raises(ColoringError):
        f2_lower_coloring(3)


def test_f2_lower_avoids_rainbow_a2():
    a2 = standard_poset("antichain", 2)
    for n in (4, 5, 6, 7):
        col = f2_lower_coloring(n)
        assert find_pattern(col, a2, "strong", "rainbow") is None


def test_g2_lower_masses_match_closed_forms():
    from math import isqrt
    from rainbowramsey.lubell import binom
    for n in (8, 12, 16):
        col = g2_lower_coloring(n)
        h = isqrt(n * n // 2)
        m0 = lubell_mass(col.class_family(0))
        m1 = lubell_mass(col.class_family(1))
        assert m0 == 1 + Fraction(n + 1, h + 1)
        assert m1 == Fraction(n + 1, n - h + 1) - 1 - Fraction(1, binom(n, h))
        assert comparability([col.class_family(0), col.class_family(1)])


def test_generate_dispatch_and_seed_determinism():
    a = generate("level", {"n": 3})
    assert a == level_coloring(3)
    c1, m1 = generate("fk-random", {"n": 10, "k": 3}, seed=5)
    c2, m2 = generate("fk-random", {"n": 10, "k": 3}, seed=5)
    assert c1 == c2 and m1.centers == m2.centers
    c3, _ = generate("fk-random", {"n": 10, "k": 3}, seed=6)
    assert c3 != c1  # overwhelmingly likely under a different seed
    with pytest.raises(ColoringError):
        generate("fk-random", {"n": 10, "k": 3}, seed=None)


def test_constructions_capped_before_enumerating(monkeypatch):
    # each construction counts its sets from its parameters and refuses
    # more than 2^20 before any set is enumerated
    from rainbowramsey import colorings

    def enumerated(*args, **kwargs):
        raise AssertionError("sets enumerated")

    for name in ("all_masks", "submasks", "supermasks", "find_copy"):
        monkeypatch.setattr(colorings, name, enumerated)
    refused = [lambda: level_coloring(21),
               lambda: consecutive_level_coloring(21, [11, 11]),
               lambda: trace_coloring(25, 0b101), lambda: rr_lower_coloring(21, 2, 1),
               lambda: f2_lower_coloring(39), lambda: g2_lower_coloring(29),
               lambda: g2_lower_coloring(36), lambda: fk_random_coloring(40, 3, seed=1),
               lambda: fk_random_coloring(63, 2**40 + 1, seed=1)]
    for build in refused:
        with pytest.raises(ColoringError, match="more than the 1048576"):
            build()
    with pytest.raises(ColoringError, match=r"^level would color 2097152 sets"):
        level_coloring(21)
    # a ground past 63 is refused by the ground rule before any count,
    # and a thin antichain before its base is searched and its masks grow
    for build, n in ((lambda: level_coloring(70), 70), (lambda: f2_lower_coloring(10**6), 10**6),
                     (lambda: g2_lower_coloring(100_000), 100_000),
                     (lambda: fk_random_coloring(100_000, 3, seed=1), 100_000),
                     (lambda: fk_random_coloring(64, 2**40 + 1, seed=1), 64),
                     (lambda: rr_lower_coloring(5000, 3), 9999),
                     (lambda: thin_antichain(64), 64), (lambda: thin_antichain(200_000), 200_000)):
        with pytest.raises(LatticeError, match=rf"^ground size {n} outside \[0, 63\]$"):
            build()
    # the largest admitted ones reach the enumeration
    admitted = [lambda: level_coloring(20), lambda: rr_lower_coloring(20, 2, 1),
                lambda: f2_lower_coloring(38), lambda: g2_lower_coloring(28),
                lambda: fk_random_coloring(30, 3, seed=1), lambda: thin_antichain(63)]
    for build in admitted:
        with pytest.raises(AssertionError, match="sets enumerated"):
            build()


def test_constructions_refuse_negative_ground():
    # refused by the one ground rule, before any 1 << n is evaluated
    for build in (lambda: level_coloring(-1), lambda: trace_coloring(-1, 0),
                  lambda: consecutive_level_coloring(-1, []),
                  lambda: fk_random_coloring(-1, 3, seed=1)):
        with pytest.raises(LatticeError, match=r"^ground size -1 outside \[0, 63\]$"):
            build()


def test_every_entry_point_refuses_a_bad_ground_first(monkeypatch):
    # one rule, lattice._check_ground, with one message and class, before
    # any set is enumerated and before any input set is read
    from rainbowramsey import colorings, lattice

    def enumerated(*args, **kwargs):
        raise AssertionError("sets enumerated")

    def unread():
        raise AssertionError("input read")
        yield

    for module, names in ((colorings, ("all_masks", "submasks", "supermasks", "find_copy")),
                          (lattice, ("all_masks", "submasks"))):
        for name in names:
            monkeypatch.setattr(module, name, enumerated)
    for n in (-1, 64, 10**6):
        builds = [lambda: Coloring(n, unread()), lambda: thin_antichain(n),
                  lambda: Family.make(n, unread()), lambda: region(RegionSpec("full"), n),
                  lambda: mask_from_elements(unread(), n)]
        kinds = {"consecutive-level": {"n": n, "parts": [1]}, "trace": {"n": n, "r_mask": 0},
                 "level": {"n": n}, "f2-lower": {"n": n}, "g2-lower": {"n": n},
                 "fk-random": {"n": n, "k": 3}}
        if n > 0:
            # rr-lower derives n = e*(q-1) + f_tweak - 1, never -1 from
            # admitted parameters
            kinds["rr-lower"] = {"e": n + 1, "q": 2}
        builds += [lambda kind=kind, params=params: generate(kind, params, seed=1)
                   for kind, params in kinds.items()]
        for build in builds:
            with pytest.raises(LatticeError, match=rf"^ground size {n} outside \[0, 63\]$"):
                build()


def test_find_pattern_spec_examples():
    c2 = poset_by_name("C2")
    # one-color colorings never host a rainbow C2
    one = Coloring(2, [(m, 0) for m in all_masks(2)], total=True)
    assert find_pattern(one, c2, "weak", "rainbow") is None
    # the trace coloring of B_2 with R={1} has a mono weak C2 in color 0
    hit = find_pattern(trace_coloring(2, 0b01), c2, "weak", "mono")
    assert hit is not None and hit[1] == 0 and hit[0].images == (0, 0b10)
    # level coloring of B_{k+1} has no rainbow strong A_k (thin antichain bound)
    for k in (4, 5):
        col = level_coloring(k + 1)
        assert find_pattern(col, standard_poset("antichain", k), "strong", "rainbow") is None


def test_find_pattern_rainbow_weak_antichain_counts_colors():
    col = consecutive_level_coloring(3, [1, 1, 2])
    a3 = standard_poset("antichain", 3)
    hit = find_pattern(col, a3, "weak", "rainbow")
    assert hit is not None and len(set(hit[1])) == 3
    a4 = standard_poset("antichain", 4)
    assert find_pattern(col, a4, "weak", "rainbow") is None


def test_find_pattern_generic_rainbow():
    c3 = poset_by_name("C3")
    col = level_coloring(3)
    hit = find_pattern(col, c3, "weak", "rainbow")
    assert hit is not None
    a, b, c = hit[0].images
    assert is_subset(a, b) and is_subset(b, c) and len(set(hit[1])) == 3


def test_find_pattern_refuses_unknown_mode():
    c2, a3 = poset_by_name("C2"), poset_by_name("A3")
    col = level_coloring(3)
    for chromatic in ("mono", "rainbow"):
        with pytest.raises(PosetError, match="weak or strong"):
            find_pattern(col, a3, "bogus", chromatic)
    with pytest.raises(PosetError, match="weak or strong"):
        validate_witness(col, c2, a3, "weak", "bogus")


def test_validate_witness_rr_lower_example():
    c2, c3 = poset_by_name("C2"), poset_by_name("C3")
    col = rr_lower_coloring(1, 3, 0)  # n = (|C3|-1) e(C2) - 1 = 1
    assert validate_witness(col, c2, c3, "weak", "weak").avoided
    one = Coloring(2, [(m, 0) for m in all_masks(2)], total=True)
    assert not validate_witness(one, c2, c3, "weak", "weak").avoided


def test_rainbow_a2_matches_comparability_on_samples():
    a2 = standard_poset("antichain", 2)
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(1, 4)
        items = [(m, rng.choice([None, 0, 1])) for m in all_masks(n)]
        col = Coloring(n, [(m, c) for m, c in items if c is not None])
        classes = [[m for m, c in items if c == j] for j in (0, 1)]
        expect = (not classes[0] or not classes[1]) or comparability(
            [Family.make(n, classes[0]), Family.make(n, classes[1])])
        assert (find_pattern(col, a2, "strong", "rainbow") is None) == expect


def test_fk_random_structure_and_sizes():
    for n, k in ((14, 3), (14, 4), (12, 3), (20, 5)):
        col, meta = fk_random_coloring(n, k, seed=321)
        assert fk_structural_ok(col, meta)
        bound = fk_class_size_bound(meta)
        sizes = col.class_sizes()
        assert all(sizes[c] >= bound for c in meta.down_colors)
        assert all((f & g).bit_count() <= meta.cap_intersection
                   for i, f in enumerate(meta.centers) for g in meta.centers[:i])


def test_fk_random_exhaustion_reports():
    # (14, 5) cannot exist: complements would be 4 six-sets with pairwise
    # intersections <= 1 inside [14], whose union needs >= 15 elements
    with pytest.raises(ColoringError, match="exhausted"):
        fk_random_coloring(14, 5, seed=1, max_draws=2000)


def test_fk_random_refuses_empty_classes():
    # a center [n] leaves the top class empty, and for n <= 1 a repeated
    # center passes the intersection cap and leaves its own class empty
    with pytest.raises(ColoringError, match="center size 0 below n=0"):
        fk_random_coloring(0, 2, seed=1)
    with pytest.raises(ColoringError, match="2 distinct centers of size 0"):
        fk_random_coloring(1, 3, seed=1)


def test_fk_random_refuses_impossible_counts_before_drawing(monkeypatch):
    # fewer than k - 1 sets of the center size: refused before any draw
    def draw(*args):
        raise AssertionError("a center was drawn")

    monkeypatch.setattr(random.Random, "sample", draw)
    for n, k, count in ((1, 3, 1), (3, 6, 3)):
        with pytest.raises(ColoringError, match=f"{k - 1} distinct centers.* only {count}"):
            fk_random_coloring(n, k, seed=1)
    with pytest.raises(AssertionError, match="drawn"):
        fk_random_coloring(14, 3, seed=1)


def test_fk_meta_matches_the_sorted_renaming():
    # FkMeta names each paper class 1..k by its color under the old
    # construction: sort the assignment by canonical_key, rename first-seen
    for n in range(2, 11):
        for k in range(2, 6):
            for seed in range(3):
                try:
                    col, meta = fk_random_coloring(n, k, seed=seed, max_draws=300)
                except ColoringError:
                    continue
                assignment = {}
                for i, f in enumerate(meta.centers, start=1):
                    for m in all_masks(n):
                        if is_subset(m, f):
                            assignment.setdefault(m, i)
                for f in meta.centers:
                    for m in all_masks(n):
                        if is_subset(f, m) and m != f:
                            assignment[m] = k
                remap = {}
                items = []
                for m in sorted(assignment, key=canonical_key):
                    items.append((m, remap.setdefault(assignment[m], len(remap))))
                assert col.items == tuple(items)
                assert meta == FkMeta(n, k, meta.l, meta.cap_intersection, meta.centers,
                                      tuple(remap[i] for i in range(1, k)), remap[k])


def test_fk_structural_ok_refuses_misplaced_sets():
    col, meta = fk_random_coloring(12, 3, seed=321)
    items = list(col.items)
    # the largest set in no class lies below no center and above none
    stray = max((m for m in all_masks(12) if col.color(m) is None), key=canonical_key)

    def mutated(new_items):
        bad = Coloring(12, new_items)
        # the canonical renaming left every other set's color alone
        assert all(bad.color(m) == c for m, c in items if bad.color(m) is not None)
        return bad

    c = meta.down_colors[0]
    moved = [m for m, d in items if d == c][-1]
    out_of_downset = mutated([(m, d) for m, d in items if m != moved] + [(stray, c)])
    assert not fk_structural_ok(out_of_downset, meta)
    above_no_center = mutated(items + [(stray, meta.up_color)])
    assert not fk_structural_ok(above_no_center, meta)


def test_fk_random_no_rainbow_exhaustive_n8():
    a = standard_poset("antichain", 3)
    for k, seed in ((3, 11), (4, 12)):
        col, _ = fk_random_coloring(8, k, seed=seed)
        pattern = standard_poset("antichain", k)
        assert find_pattern(col, pattern, "strong", "rainbow") is None
    assert find_pattern(fk_random_coloring(8, 3, seed=11)[0], a, "strong", "rainbow") is None


def test_thin_antichain_full_range():
    for n in range(4, 17):
        fam = thin_antichain(n)
        sizes = [m.bit_count() for m in fam]
        assert len(fam) == n - 2
        assert len(set(sizes)) == n - 2
        assert (n - 1) not in sizes
        assert all(not are_comparable(a, b)
                   for i, a in enumerate(fam.members) for b in fam.members[i + 1:])
    with pytest.raises(ColoringError):
        thin_antichain(3)


def test_rr_lower_f1_certifies_broom_target():
    # brooms have a unique largest element but no unique smallest, so the
    # fresh color on the empty set blocks every strong rainbow copy
    c2, l2 = poset_by_name("C2"), poset_by_name("L2")
    col = rr_lower_coloring(1, 3, 1)  # n = 2
    v = validate_witness(col, c2, l2, "strong", "strong")
    assert v.avoided  # certifies RR*(C2, L2) >= 3 = e*(C2)(|L2|-1) + f(L2)


def test_rr_lower_f2_certifies_antichain_target():
    c2, a3 = poset_by_name("C2"), poset_by_name("A3")
    col = rr_lower_coloring(1, 3, 2)  # n = 3
    v = validate_witness(col, c2, a3, "strong", "strong")
    assert v.avoided  # certifies RR*(C2, A3) >= 4


def _naive_rainbow(col, pattern, mode):
    """All-injections oracle for find_pattern(..., 'rainbow')."""
    from itertools import permutations
    from rainbowramsey.lattice import is_subset

    strong = mode == "strong"
    k = pattern.size
    for images in permutations(col.members, k):
        if len({col.color(m) for m in images}) < k:
            continue
        ok = True
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                if pattern.less(i, j):
                    if not is_subset(images[i], images[j]) or images[i] == images[j]:
                        ok = False
                        break
                elif strong and not pattern.less(j, i):
                    if is_subset(images[i], images[j]) or is_subset(images[j], images[i]):
                        ok = False
                        break
            if not ok:
                break
        if ok:
            return True
    return False


def test_find_pattern_rainbow_matches_naive_oracle():
    rng = random.Random(2718)
    pats = [poset_by_name(s) for s in ("A2", "A3", "C2", "C3", "V2")]
    for _ in range(60):
        n = rng.randint(1, 4)
        items = [(m, rng.randrange(4)) for m in all_masks(n) if rng.random() < 0.7]
        col = Coloring(n, items)
        for pattern in pats:
            for mode in ("weak", "strong"):
                fast = find_pattern(col, pattern, mode, "rainbow") is not None
                slow = _naive_rainbow(col, pattern, mode)
                assert fast == slow, (n, items, mode, pattern.size)


def _rainbow_antichain(col, k):
    """The image tuple of the rainbow strong A_k that find_pattern returns, or None."""
    pattern = PosetPattern(k, tuple(tuple(i == j for j in range(k)) for i in range(k)))
    found = find_pattern(col, pattern, "strong", "rainbow")
    return None if found is None else found[0].images


def test_rainbow_antichain_matches_embedding_search():
    # existence agrees with the generic copy search under a color map
    rng = random.Random(1618)
    antichains = [PosetPattern(0, ())] + [standard_poset("antichain", k) for k in range(1, 5)]
    for _ in range(150):
        n = rng.randint(0, 5)
        items = [(m, rng.randrange(rng.randint(1, 5))) for m in all_masks(n) if rng.random() < 0.7]
        col = Coloring(n, items)
        for k, pattern in enumerate(antichains):
            fast = _rainbow_antichain(col, k)
            slow = _search_embedding(col.members, pattern, "strong", False, color_of=col.color)
            assert (fast is None) == (slow is None), (n, items, k)
            if fast is not None:
                assert len(fast) == k and len({col.color(m) for m in fast}) == k
                assert not any(are_comparable(a, b) for i, a in enumerate(fast) for b in fast[:i])


def _antichain_digest(runs):
    return hashlib.sha256(json.dumps(runs).encode()).hexdigest()[:16]


def test_rainbow_antichain_pinned_tuples():
    # the returned tuples themselves (first in the search order), not only
    # their existence, are part of every rainbow certificate body
    def found(col, ks):
        return [_rainbow_antichain(col, k) for k in ks]

    rng = random.Random(4242)
    seeded = []
    for _ in range(300):
        n = rng.randint(0, 6)
        items = [(m, rng.randrange(rng.randint(1, 6))) for m in all_masks(n) if rng.random() < 0.7]
        seeded.append(found(Coloring(n, items), range(6)))
    fk = [found(fk_random_coloring(n, 3, 1000 + n)[0], (2, 3)) for n in range(8, 15)]
    fk += [found(fk_random_coloring(n, 4, 321)[0], (3, 4)) for n in range(8, 12)]
    level = [found(level_coloring(k + 1), (3, k - 1, k)) for k in range(4, 10)]
    rr = [found(rr_lower_coloring(e, q, f), (q - 1, q))
          for e, q, f in ((2, 4, 0), (3, 3, 0), (2, 5, 0), (3, 4, 0), (2, 4, 1), (2, 4, 2),
                          (3, 3, 2), (4, 3, 0), (2, 6, 0))]
    assert fk[-1] == [(1, 4, 8), None]  # fk-random k=4 on B_11: no rainbow strong A4
    # and on B_12..B_14: the same A3 tuple, no rainbow strong A4
    assert [found(fk_random_coloring(n, 4, 321)[0], (3, 4)) for n in (12, 13, 14)] \
        == [[(1, 4, 8), None]] * 3
    assert level[0] == [(1, 6, 26), (1, 6, 26), None]
    assert _antichain_digest(seeded) == "052f274ea045c23e"
    assert _antichain_digest(fk) == "157e0b94a8bc5ae9"
    assert _antichain_digest(level) == "2a477105f13c9343"
    assert _antichain_digest(rr) == "4d5af7523ec13573"


def _position_classes(col):
    classes = [0] * col.num_colors
    for i, (_, c) in enumerate(col.items):
        classes[c] |= 1 << i
    return classes


def _bare_kernel(col, k):
    """The image tuple the kernel returns on every class, without the pre-check."""
    chosen = _rainbow_strong_antichain(_position_classes(col), _IncomparableRows(col.members), k)
    return None if chosen is None else tuple(col.members[i] for i in sorted(chosen))


def _naive_supported(classes, rows, k):
    """Drop every unsupported class at once, round after round, until none is."""
    live = list(range(len(classes)))
    while True:
        keep = [c for c in live
                if any(sum(1 for d in live if d != c and classes[d] & rows[i]) >= k - 1
                       for i in range(classes[c].bit_length()) if classes[c] >> i & 1)]
        if keep == live:
            return None if len(live) < k else [classes[c] for c in live]
        live = keep


def test_supported_classes_keep_the_kernel_tuple():
    # dropping the classes that cannot hold part of a rainbow strong A_k
    # leaves find_pattern's tuple the one the kernel finds on every class,
    # and the classes kept are those a round-by-round removal keeps
    rng = random.Random(4242)
    cases = []
    for _ in range(300):
        n = rng.randint(0, 6)
        items = [(m, rng.randrange(rng.randint(1, 6))) for m in all_masks(n) if rng.random() < 0.7]
        cases += [(Coloring(n, items), k) for k in range(6)]
    cases += [(fk_random_coloring(n, 3, 1000 + n)[0], k) for n in range(8, 15) for k in (2, 3)]
    cases += [(fk_random_coloring(n, 4, 321)[0], k) for n in range(8, 14) for k in (3, 4)]
    cases += [(level_coloring(k + 1), j) for k in range(4, 10) for j in (3, k - 1, k)]
    cases += [(rr_lower_coloring(e, q, f), j)
              for e, q, f in ((2, 4, 0), (3, 3, 0), (2, 5, 0), (3, 4, 0), (2, 4, 1), (2, 4, 2),
                              (3, 3, 2), (4, 3, 0), (2, 6, 0))
              for j in (q - 1, q)]
    # one position per class, related along x-y, x-p, p-q, q-r, p-r: x is
    # kept until y, related to x alone, is dropped after it in the pass
    rows = [0b00110, 0b00001, 0b11001, 0b10100, 0b01100]
    assert _supported_classes([1, 2, 4, 8, 16], rows, 3) == [4, 8, 16]
    assert _naive_supported([1, 2, 4, 8, 16], rows, 3) == [4, 8, 16]
    dropped = 0
    for col, k in cases:
        assert _rainbow_antichain(col, k) == _bare_kernel(col, k), (col.ground, col.items, k)
        classes = _position_classes(col)
        rows = _IncomparableRows(col.members)
        live = _supported_classes(classes, rows, k)
        assert live == _naive_supported(classes, rows, k), (col.ground, col.items, k)
        dropped += live is None or len(live) < len(classes)
    assert dropped > 300


def test_fk_absence_proved_before_the_kernel(monkeypatch):
    # every member of the top class lies above all of some center's class,
    # so the pre-check drops it and no 4 classes remain
    from rainbowramsey import colorings

    calls = []
    kernel = colorings._rainbow_strong_antichain
    monkeypatch.setattr(colorings, "_rainbow_strong_antichain",
                        lambda *args: calls.append(args) or kernel(*args))
    col = fk_random_coloring(14, 4, 321)[0]
    assert _rainbow_antichain(col, 4) is None and calls == []
    assert _rainbow_antichain(col, 3) == (1, 4, 8) and len(calls) == 1


def test_construction_colorings_pinned():
    # the colorings themselves, not only their class sizes and masses: a
    # set moved to the other class, or two classes swapped, changes a digest
    from rainbowramsey.search import two_color_partial_exact

    def digest(cols):
        return _antichain_digest([[c.ground, c.total, c.items] for c in cols])

    level = [level_coloring(n) for n in range(9)]
    rr = [rr_lower_coloring(e, q, f) for e in range(1, 4) for q in range(2, 6)
          for f in range(3) if e * (q - 1) + f >= 2]
    f2 = [f2_lower_coloring(n) for n in range(2, 15) if n % 2 == 0 or n >= 5]
    g2 = [g2_lower_coloring(n) for n in range(2, 15)]
    dp = [two_color_partial_exact(n, objective).witness
          for n in range(1, 17) for objective in ("size", "mass")]
    assert len(rr) == 35 and len(f2) == 12 and len(dp) == 32
    assert (digest(level), digest(rr)) == ("54ea1b7b734a8b19", "968f31f614ce822b")
    assert (digest(f2), digest(g2)) == ("39f293b4ca86255e", "834d45c7a9051eca")
    assert digest(dp) == "26caab7145068730"
