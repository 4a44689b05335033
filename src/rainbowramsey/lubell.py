"""Exact Lubell-mass calculus over B_n.

All masses are fractions.Fraction; nothing here is ever rounded.  The
Pascal table of big-integer binomials is built eagerly at import and
shared read-only.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .lattice import Family, LatticeError, is_subset, max_partition

# Pascal rows up to n = 64, PASCAL[n][k] = C(n, k).
PASCAL = [[1]]
for _ in range(64):
    prev = PASCAL[-1]
    PASCAL.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])


def binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return PASCAL[n][k]


def lubell_mass(fam: Family) -> Fraction:
    """lambda_n(F) = sum over F in fam of 1 / C(n, |F|), exactly."""
    return lubell_mass_in(fam.ground, fam.members)


def lubell_mass_in(ground: int, masks) -> Fraction:
    """Lubell mass of a plain mask iterable measured inside B_ground."""
    total = Fraction(0)
    for m in masks:
        total += Fraction(1, binom(ground, m.bit_count()))
    return total


def lubell_subcube(n: int, a: int, b: int) -> Fraction:
    """Closed form for the mass of a subcube spanning levels a .. n-b:

        lambda_n(B_{a, n-b}) = (n+1) / (a+b+1) / C(a+b, a).
    """
    if a < 0 or b < 0 or a + b > n:
        raise LatticeError(f"lubell_subcube needs a,b >= 0 and a+b <= n, got {(n, a, b)}")
    return Fraction(n + 1, (a + b + 1) * binom(a + b, a))


def lubell_subcube_direct(n: int, a: int, b: int) -> Fraction:
    """Summation oracle for lubell_subcube: sum_i C(n-a-b, i-a) / C(n, i)."""
    if a < 0 or b < 0 or a + b > n:
        raise LatticeError(f"bad subcube parameters {(n, a, b)}")
    total = Fraction(0)
    for i in range(a, n - b + 1):
        total += Fraction(binom(n - a - b, i - a), binom(n, i))
    return total


def lubell_interval(n: int, lo: int, hi: int) -> Fraction:
    """Mass of a subcube spanning levels lo .. hi of B_n (closed form)."""
    return lubell_subcube(n, lo, n - hi)


def maxpart_identity_residual(fam: Family, mode: str = "enumerate") -> Fraction:
    """Residual of the max-partition mass identity

        lambda_n(F) - sum_F |C_{n,F}| / n! * lambda_{|F|}(D_F cap F),

    which is exactly zero for every family.  Uses direct chain
    enumeration by default (ground <= 8).
    """
    n = fam.ground
    if mode == "enumerate" and n > 8:
        raise LatticeError(f"residual check by enumeration capped at n=8, got {n}")
    part = max_partition(fam, mode=mode)
    nfact = factorial(n)
    rhs = Fraction(0)
    for f, count in part.blocks.items():
        if count == 0:
            continue
        inner = lubell_mass_in(f.bit_count(), (g for g in fam.members if is_subset(g, f)))
        rhs += Fraction(count, nfact) * inner
    return lubell_mass(fam) - rhs
