"""The benchmark's independent checks accept the package's witnesses and
reject each of them once a single color is flipped.

Every single-set recoloring of a witness is judged twice, by the check
in indep.py and by the package's own checker; the two must agree, and
at least one recoloring must be rejected.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
for p in (HERE, HERE.parent / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import pytest  # noqa: E402

import indep  # noqa: E402
import workloads  # noqa: E402
from rainbowramsey import colorings, lattice, search  # noqa: E402
from rainbowramsey.posets import standard_poset  # noqa: E402


def recolorings(col):
    """Every coloring that differs from col in the color of one set
    (existing colors and one fresh color)."""
    colors = range(col.num_colors + 1)
    for i, (mask, c) in enumerate(col.items):
        for other in colors:
            if other != c:
                items = list(col.items)
                items[i] = (mask, other)
                yield colorings.Coloring(col.ground, items, col.total)


def _agree(col, ours, theirs):
    rejected = 0
    for flipped in recolorings(col):
        verdict = ours(flipped)
        assert verdict == theirs(flipped), flipped.items
        rejected += not verdict
    assert rejected > 0


def test_chain_dp_on_ramsey_witness():
    col = search.ramsey([standard_poset("chain", 3)] * 2, "weak", 4).witness
    c3 = standard_poset("chain", 3)
    ours = lambda c: indep.avoids_mono(c.ground, c.items, c3.leq, False)
    theirs = lambda c: colorings.find_pattern(c, c3, "weak", "mono") is None
    assert ours(col) and theirs(col)
    _agree(col, ours, theirs)


def test_triple_enumeration_on_rainbow_witness():
    a3 = standard_poset("antichain", 3)
    col = search.rainbow_ramsey(standard_poset("chain", 2), a3, "strong", 5).witness
    ours = lambda c: indep.rainbow_triple(c.ground, c.items) is None
    theirs = lambda c: colorings.find_pattern(c, a3, "strong", "rainbow") is None
    assert ours(col) and theirs(col)
    _agree(col, ours, theirs)


def test_rainbow_chain_check_on_rainbow_witness():
    c3 = standard_poset("chain", 3)
    col = search.rainbow_ramsey(c3, c3, "weak", 4).witness
    ours = lambda c: indep.rainbow_copy_naive(c.items, c3.leq, False) is None
    theirs = lambda c: colorings.find_pattern(c, c3, "weak", "rainbow") is None
    assert ours(col) and theirs(col)
    _agree(col, ours, theirs)


@pytest.mark.parametrize("k", [3, 4])
def test_rainbow_antichain_search_on_level_coloring(k):
    col = colorings.level_coloring(k + 1)
    ak = standard_poset("antichain", k)
    ours = lambda c: indep.rainbow_antichain(c.ground, c.items, k) is None
    theirs = lambda c: colorings.find_pattern(c, ak, "strong", "rainbow") is None
    assert ours(col) and theirs(col)
    _agree(col, ours, theirs)


def test_comparability_on_two_color_constructions():
    a2 = standard_poset("antichain", 2)
    for col in (colorings.f2_lower_coloring(6), colorings.g2_lower_coloring(5)):
        def ours(c):
            cls = c.classes()
            return all(indep.classes_comparable(cls[a], cls[b])
                       for a in cls for b in cls if a < b)
        theirs = lambda c: colorings.find_pattern(c, a2, "strong", "rainbow") is None
        assert ours(col) and theirs(col)
        _agree(col, ours, theirs)


def test_threshold_witness_check():
    res = search.threshold_F(4, 3, False)
    col = res.witness
    max_min = res.value - 1
    ok = lambda c: _passes(workloads._check_threshold_witness, c, 4, 3, False, max_min)
    assert ok(col)
    assert not all(ok(f) for f in recolorings(col) if f.num_colors <= 3)


def _passes(check, *args):
    try:
        check(*args)
    except workloads.CheckFailed:
        return False
    return True


def test_embedding_relation_check():
    col = colorings.level_coloring(5)
    a3 = standard_poset("antichain", 3)
    emb, _ = colorings.find_pattern(col, a3, "strong", "rainbow")
    color = dict(col.items)
    assert indep.embedding_ok(a3.leq, emb.images, True, color, "rainbow")
    for image in emb.images:
        for other in emb.images:
            if other != image:
                flipped = dict(color)
                flipped[image] = color[other]
                assert not indep.embedding_ok(a3.leq, emb.images, True, flipped, "rainbow")
    c2 = standard_poset("chain", 2)
    assert not indep.embedding_relations_ok(c2.leq, (emb.images[1], emb.images[0]), False)


def test_gprime_config_check():
    for n in (8, 12):
        res = search.two_color_partial_exact(n, "mass")
        cfg = res.details["chain_config"]
        assert indep.gprime_from_config(n, cfg) == res.value
        assert indep.g2_lower_mass(n) <= res.value
        assert indep.below_one_plus_sqrt2(res.value)
        for i, (lvl, blk, pt) in enumerate(cfg):
            flipped = list(cfg)
            flipped[i] = (lvl, blk, 1 - pt)
            assert indep.gprime_from_config(n, flipped) != res.value
        cls = res.witness.classes()
        masses = [indep.lubell_of(n, cls[c]) for c in (0, 1)]
        assert min(masses) == res.value
        for flipped in recolorings(res.witness):
            if flipped.num_colors <= 2:
                fc = flipped.classes()
                got = min(indep.lubell_of(n, fc.get(c, ())) for c in (0, 1))
                ok = got == res.value and indep.classes_comparable(fc.get(0, ()), fc.get(1, ()))
                assert not ok


def test_g2_lower_closed_form_matches_the_construction():
    for n in range(2, 11):
        cls = colorings.g2_lower_coloring(n).classes()
        assert min(indep.lubell_of(n, cls.get(c, ())) for c in (0, 1)) == indep.g2_lower_mass(n)


def test_sqrt2_bound_and_closed_forms():
    assert indep.below_one_plus_sqrt2(Fraction(12, 5))
    assert not indep.below_one_plus_sqrt2(Fraction(29, 12))   # 2.4166 > 2.4142
    assert [indep.fprime2_closed_form(n) for n in (4, 5, 6, 7)] == [4, 6, 8, 10]
    assert [indep.fork_g1(r) for r in (1, 2, 3, 4, 7, 8)] == [1, 2, 2, 3, 3, 4]


def test_max_partition_enumeration_and_residual():
    import random
    rng = random.Random(5)
    fam = lattice.random_family(5, rng, 0.3)
    part = lattice.max_partition(fam, "dp")
    blocks, leftover = indep.max_partition_enum(5, fam.members)
    assert blocks == part.blocks and leftover == part.leftover
    assert indep.maxpart_residual(5, fam.members, blocks) == 0
    # move one chain between two blocks whose chains carry different mass
    per_chain = {f: indep.lubell_of(f.bit_count(), [g for g in fam.members if g & ~f == 0])
                 for f in fam.members if blocks[f]}
    a = next(iter(per_chain))
    b = next(f for f in per_chain if per_chain[f] != per_chain[a])
    moved = dict(blocks)
    moved[a] -= 1
    moved[b] += 1
    assert indep.maxpart_residual(5, fam.members, moved) != 0
