import random
from fractions import Fraction
from math import comb, factorial

import pytest

from rainbowramsey import lubell
from rainbowramsey.lattice import (
    Family,
    LatticeError,
    MaxPartition,
    all_masks,
    is_subset,
    max_partition,
    random_family,
)
from rainbowramsey.lubell import (
    binom,
    lubell_mass,
    lubell_mass_in,
    lubell_subcube,
    lubell_subcube_direct,
    maxpart_identity_residual,
)
from rainbowramsey.posets import find_copy, standard_poset


def test_mass_of_whole_cube_is_n_plus_1():
    for n in range(7):
        assert lubell_mass(Family.whole_cube(n)) == n + 1


def test_mass_of_one_level_is_1():
    for n in (3, 5):
        for ell in range(n + 1):
            fam = Family.make(n, (m for m in all_masks(n) if m.bit_count() == ell))
            assert lubell_mass(fam) == 1


def test_mass_of_extremes():
    assert lubell_mass(Family.make(6, [0, (1 << 6) - 1])) == 2


def test_subcube_closed_form_examples():
    assert lubell_subcube(4, 1, 1) == Fraction(5, 6)
    for n in (3, 6, 9):
        assert lubell_subcube(n, 0, 0) == n + 1
        for a in range(n + 1):
            assert lubell_subcube(n, a, n - a) == Fraction(1, binom(n, a))


def test_binom_matches_pascal_recurrence_past_64():
    row = [1]
    for n in range(71):
        assert [binom(n, k) for k in range(-2, n + 3)] == [0, 0] + row + [0, 0], n
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]


def test_subcube_past_64():
    assert lubell_subcube(200, 100, 100) == lubell_subcube_direct(200, 100, 100) \
        == Fraction(1, comb(200, 100))
    assert lubell_subcube(70, 3, 4) == lubell_subcube_direct(70, 3, 4)


def test_subcube_closed_equals_direct():
    for n in range(10):
        for a in range(n + 1):
            for b in range(n - a + 1):
                assert lubell_subcube(n, a, b) == lubell_subcube_direct(n, a, b)


def test_subcube_parameter_errors():
    with pytest.raises(LatticeError):
        lubell_subcube(3, 2, 2)


def test_residual_zero_cases():
    assert maxpart_identity_residual(Family.make(4, [0b1111])) == 0
    mid = Family.make(4, (m for m in all_masks(4) if m.bit_count() == 2))
    assert maxpart_identity_residual(mid) == 0


def test_residual_zero_random():
    rng = random.Random(55)
    for _ in range(40):
        n = rng.randint(1, 7)
        fam = random_family(n, rng, density=rng.choice([0.2, 0.4]))
        assert maxpart_identity_residual(fam) == 0


def _residual_oracle(fam, part):
    # the identity's right-hand side as one Fraction per block, each over
    # an is_subset scan of all members
    nfact = factorial(fam.ground)
    rhs = Fraction(0)
    for f, count in part.blocks.items():
        if count:
            inner = lubell_mass_in(f.bit_count(), (g for g in fam.members if is_subset(g, f)))
            rhs += Fraction(count, nfact) * inner
    return lubell_mass(fam) - rhs


def test_residual_matches_fraction_oracle_on_perturbed_counts(monkeypatch):
    # wrong chain counts, some not multiples of |F|!, must leave the same
    # nonzero residual as the per-block Fraction sum
    rng = random.Random(808)
    fams = [Family.whole_cube(4), Family.make(9, [0b11, 0b1011, 0b110001011]),
            Family.make(6, [0, 0b111111])]
    fams += [random_family(n, rng, density=rng.choice([0.05, 0.3, 0.7]))
             for n in (rng.randint(1, 9) for _ in range(60))]
    nonzero = 0
    for fam in fams:
        true = max_partition(fam, "dp")
        blocks = dict(true.blocks)
        for f in rng.sample(list(blocks), min(3, len(blocks))):
            blocks[f] += rng.choice([-2, -1, 1, 3, factorial(f.bit_count())])
        part = MaxPartition(fam.ground, blocks, true.leftover)
        monkeypatch.setattr(lubell, "max_partition", lambda fam, mode, part=part: part)
        got = maxpart_identity_residual(fam, "dp")
        assert got == _residual_oracle(fam, part)
        nonzero += got != 0
        monkeypatch.setattr(lubell, "max_partition", lambda fam, mode, part=true: part)
        assert maxpart_identity_residual(fam, "dp") == _residual_oracle(fam, true) == 0
    assert nonzero > 40


def test_k_lym_bound_on_chain_free_families():
    # a C_{k+1}-free family has mass at most k
    rng = random.Random(99)
    checked = 0
    for _ in range(120):
        n = rng.randint(2, 7)
        k = rng.choice([1, 2, 3])
        fam = random_family(n, rng, density=rng.choice([0.15, 0.35]))
        if find_copy(fam, standard_poset("chain", k + 1), "weak") is None:
            assert lubell_mass(fam) <= k
            checked += 1
    assert checked > 20
