import json
import random

import pytest

from rainbowramsey.colorings import f2_lower_coloring, g2_lower_coloring
from rainbowramsey.lattice import Family, full_mask, is_subset
from rainbowramsey.corechain import (
    CoreChain,
    CoreChainError,
    comparability,
    core_chain,
    random_comparable_pair,
    validate_core_chain,
)


def test_comparability_examples():
    f1, f2 = Family.make(2, [0b01]), Family.make(2, [0b11])
    assert comparability([f1, f2], "comparable")
    g1, g2 = Family.make(2, [0b01]), Family.make(2, [0b10])
    assert comparability([g1, g2], "incomparable")
    h1, h2 = Family.make(2, [0, 0b11]), Family.make(2, [0b01, 0b10])
    assert comparability([h1, h2], "comparable")
    assert not comparability([g1, g2], "comparable")


def test_comparability_rejects_overlap():
    with pytest.raises(CoreChainError):
        comparability([Family.make(2, [1]), Family.make(2, [1, 2])])


def test_core_chain_examples():
    cc = core_chain([Family.make(2, [0b01]), Family.make(2, [0b11])])
    assert cc.chain == (0, 0b01, 0b11)
    assert cc.block_owner == (None, None)

    cc = core_chain([Family.make(3, [0, 0b111])])
    assert cc.chain == (0, 0b111)

    fams = [Family.make(3, [0b001, 0b111]), Family.make(3, [0b011])]
    cc = core_chain(fams)
    assert {0b001, 0b011, 0b111} <= set(cc.chain)
    assert validate_core_chain(cc, fams)


def test_core_chain_rejects_incomparable():
    with pytest.raises(CoreChainError, match="not mutually comparable"):
        core_chain([Family.make(2, [0b01]), Family.make(2, [0b10])])


def test_validator_clauses():
    g1, g2 = Family.make(2, [0b01]), Family.make(2, [0b10])
    bad = CoreChain(2, (0, 0b11), (None,))
    check = validate_core_chain(bad, [g1, g2])
    assert not check and check.clause == "truncated-block"

    fams = [Family.make(3, [0b011]), Family.make(3, [])]
    fine = CoreChain(3, (0, 0b001, 0b111), (None, 0))
    assert validate_core_chain(fine, fams)  # {1,2} sits inside B_{{1},[3]}
    broken = CoreChain(3, (0, 0b100, 0b111), (None, None))
    check = validate_core_chain(broken, fams)
    assert not check and check.clause == "coverage"  # {1,2} fits in neither block
    no_endpoints = CoreChain(3, (0b001, 0b111), (None,))
    check = validate_core_chain(no_endpoints, fams)
    assert not check and check.clause == "endpoints"
    out_of_order = CoreChain(3, (0, 0b011, 0b001, 0b111), (None, None, None))
    check = validate_core_chain(out_of_order, fams)
    assert not check and check.clause == "monotone"


def test_core_chain_soundness_random():
    rng = random.Random(777)
    for _ in range(500):
        n = rng.randint(1, 7)
        fams = random_comparable_pair(n, rng, l=rng.choice([2, 2, 3]))
        assert comparability(fams)
        cc = core_chain(fams)
        assert validate_core_chain(cc, fams)
        assert cc.chain[0] == 0 and cc.chain[-1] == full_mask(n)
        assert all(is_subset(cc.chain[i], cc.chain[i + 1]) for i in range(len(cc.chain) - 1))


def test_converse_block_assignment_is_comparable():
    # any block assignment along any chain yields mutually comparable families
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 7)
        fams = random_comparable_pair(n, rng)
        assert comparability(fams)


def test_core_chain_json_round_trip():
    fams = [Family.make(3, [0b001, 0b111]), Family.make(3, [0b011])]
    cc = core_chain(fams)
    # the JSON holds the whole chain: its fields, read back as they are,
    # rebuild it (the corechain CLI body is this JSON plus "valid")
    obj = json.loads(cc.to_json())
    assert CoreChain(3, tuple(obj["chain"]), tuple(obj["owners"])) == cc


def _recursive_core_chain(fams):
    """Reference construction: recurse below each chain point, keep the
    chosen family's members below no member of another family by a subset
    scan against each, and find each block's owner by a rescan of every
    member."""
    def rec(member_lists, top):
        lists = [[m for m in ms if m != top] for ms in member_lists]
        pool = [(m, idx) for idx, ms in enumerate(lists) for m in ms]
        if not pool:
            return [0, top] if top != 0 else [0]
        _, fam_idx = max(pool, key=lambda t: (t[0].bit_count(), -t[0]))
        others = [m for idx, ms in enumerate(lists) if idx != fam_idx for m in ms]
        kept = {m for m in lists[fam_idx] if not any(is_subset(m, h) for h in others)}
        s = top
        for m in kept:
            s &= m
        lists[fam_idx] = [m for m in lists[fam_idx] if m not in kept]
        return rec(lists, s) + [top]

    ground = fams[0].ground
    chain = rec([list(f.members) for f in fams], full_mask(ground))
    owner_of = {m: idx for idx, fam in enumerate(fams) for m in fam.members}
    owners = []
    for lo, hi in zip(chain, chain[1:]):
        owners.append(next((idx for m, idx in owner_of.items()
                            if m != lo and m != hi and is_subset(lo, m) and is_subset(m, hi)),
                           None))
    return CoreChain(ground, tuple(chain), tuple(owners))


def test_core_chain_matches_the_recursive_construction():
    rng = random.Random(2033)
    cases = []
    for _ in range(2000):
        n = rng.randint(1, 8)
        cases.append(random_comparable_pair(n, rng, l=rng.randint(1, 4)))
    for n in (2, *range(4, 15)):
        for col in (f2_lower_coloring(n), g2_lower_coloring(n)):
            cases.append([col.class_family(c) for c in range(col.num_colors)])
    owned = 0
    for fams in cases:
        cc = core_chain(fams)
        assert cc == _recursive_core_chain(fams), [list(f.members) for f in fams]
        owned += any(o is not None for o in cc.block_owner)
    assert owned > 1000
