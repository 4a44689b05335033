import json
import random

import pytest

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
