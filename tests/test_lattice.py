import random
from math import factorial

import pytest

from rainbowramsey.lattice import (
    Family,
    LatticeError,
    RegionSpec,
    all_masks,
    full_mask,
    is_subset,
    mask_from_elements,
    max_partition,
    order_rows,
    random_family,
    region,
)


def test_region_full_cube():
    assert len(region(RegionSpec("subcube", f=0, h=full_mask(3)), 3)) == 8
    assert len(region(RegionSpec("full"), 4)) == 16


def test_region_truncated_subcube():
    # B_{{1},{1,2,3}} minus its endpoints leaves {1,2} and {1,3}
    spec = RegionSpec("subcube", f=0b001, h=0b111, truncated=True)
    assert region(spec, 3).members == (0b011, 0b101)


def test_region_downset():
    fam = region(RegionSpec("downset", f=mask_from_elements([1, 2], 4)), 4)
    assert set(fam) == {0, 0b01, 0b10, 0b11}


def test_region_level_and_interval_union():
    lvl = region(RegionSpec("level", ell=2), 4)
    assert all(m.bit_count() == 2 for m in lvl) and len(lvl) == 6
    iu = region(RegionSpec("interval-union", intervals=((0, 0b01), (0b10, 0b11))), 2)
    assert set(iu) == {0, 0b01, 0b10, 0b11}


def test_region_errors():
    with pytest.raises(LatticeError):
        region(RegionSpec("subcube", f=0b11, h=0b01), 2)
    with pytest.raises(LatticeError):
        region(RegionSpec("level", ell=1, truncated=True), 3)


def test_upset_downset_duality():
    # |U_F| = |D_{complement F}| for every F, n <= 10
    for n in range(11):
        for f in all_masks(n):
            up = region(RegionSpec("upset", f=f), n)
            down = region(RegionSpec("downset", f=full_mask(n) & ~f), n)
            assert len(up) == len(down)


def test_max_partition_spec_cases():
    # every maximal chain passes through the empty set and through [n]
    mp = max_partition(Family.make(2, [0]), mode="enumerate")
    assert mp.blocks == {0: 2} and mp.leftover == 0
    mp = max_partition(Family.make(3, [0b111]), mode="enumerate")
    assert mp.blocks == {0b111: 6} and mp.leftover == 0
    mp = max_partition(Family.make(2, [0b01]), mode="enumerate")
    assert mp.blocks == {0b01: 1} and mp.leftover == 1


def test_max_partition_modes_agree():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 8)
        fam = random_family(n, rng, density=rng.choice([0.1, 0.3, 0.6]))
        a = max_partition(fam, mode="enumerate")
        b = max_partition(fam, mode="dp")
        assert a.blocks == b.blocks
        assert a.leftover == b.leftover
        assert a.total() == factorial(n)


def test_max_partition_dp_matches_enumeration():
    # one shared up-chain memo gives the literal walk's blocks, key order
    # and leftover, edge families included
    # (the walk is cached up to n = 8; one n = 9 family costs about 1 s)
    rng = random.Random(2024)
    fams = [random_family(9, rng, density=0.2)]
    for n in range(0, 9):
        full = full_mask(n)
        fams += [Family.make(n, []), Family.make(n, [0]), Family.make(n, [full]),
                 Family.make(n, [0, full]), Family.whole_cube(n)]
    for _ in range(120):
        n = rng.randint(1, 8)
        fams.append(random_family(n, rng, density=rng.choice([0.05, 0.2, 0.5, 0.9])))
    for fam in fams:
        a = max_partition(fam, mode="enumerate")
        b = max_partition(fam, mode="dp")
        assert list(b.blocks) == list(fam.members)
        assert list(b.blocks.items()) == list(a.blocks.items())
        assert b.leftover == a.leftover


def test_max_partition_mode_limits():
    fam = Family.make(11, [0])
    with pytest.raises(LatticeError):
        max_partition(fam, mode="enumerate")


def test_family_canonical_and_dedup():
    fam = Family.make(3, [0b110, 0b001, 0b110, 0b111])
    assert fam.members == (0b001, 0b110, 0b111)
    with pytest.raises(LatticeError):
        Family.make(2, [0b100])


def test_family_text_round_trip():
    fam = Family.make(4, [0, 0b0011, 0b1010, 0b1111])
    text = fam.to_text()
    assert text.splitlines()[0] == "n=4"
    assert "{}" in text
    assert Family.from_text(text) == fam


def test_family_json_round_trip():
    fam = Family.make(5, [0b00111, 0b10001])
    assert Family.from_json(fam.to_json()) == fam
    assert '"n": 5' in fam.to_json()
    with pytest.raises(LatticeError, match="not an object"):
        Family.from_json("[5, [7, 17]]")


def test_order_rows_match_subset_definitions():
    # positions follow the sequence, in any order; probes go one element
    # past the widest member, so some name elements no member has
    rng = random.Random(9091)
    seqs = [[], [0]] + [list(all_masks(n)) for n in range(8)]
    for _ in range(40):
        n = rng.randint(0, 7)
        seqs.append(rng.sample(range(1 << n), rng.randint(1, 1 << n)))
    for members in seqs:
        up, down = order_rows(members)
        for x in range(1 << (max(members, default=0).bit_length() + 1)):
            assert up(x) == sum(1 << i for i, m in enumerate(members) if is_subset(x, m))
            assert down(x) == sum(1 << i for i, m in enumerate(members) if is_subset(m, x))
