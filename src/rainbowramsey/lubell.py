"""Exact Lubell-mass calculus over B_n.

All masses are fractions.Fraction; nothing here is ever rounded.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .lattice import Family, LatticeError, max_partition


def binom(n: int, k: int) -> int:
    """C(n, k), exact, and 0 when k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


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

    With N_F(k) members of size k below F and m = |F|, each term is
    |C_{n,F}| * N_F(k) * k! (m-k)! * (n!/m!) / n!^2, so the right-hand
    side is one integer numerator over n!^2.  No division assumes that
    |C_{n,F}| is a multiple of m!, so a wrong count leaves a nonzero
    residual.
    """
    n = fam.ground
    if mode == "enumerate" and n > 8:
        raise LatticeError(f"residual check by enumeration capped at n=8, got {n}")
    part = max_partition(fam, mode=mode)
    fact = [factorial(i) for i in range(n + 1)]
    nfact = fact[n]
    members = fam.member_set()
    num = 0
    for f, count in part.blocks.items():
        if count == 0:
            continue
        m = f.bit_count()
        below = [0] * (m + 1)
        if 1 << m <= len(members):
            sub = f
            while True:
                if sub in members:
                    below[sub.bit_count()] += 1
                if not sub:
                    break
                sub = (sub - 1) & f
        else:
            for g in fam.members:
                if g & ~f == 0:
                    below[g.bit_count()] += 1
        inner = sum(c * fact[k] * fact[m - k] for k, c in enumerate(below) if c)
        num += count * inner * (nfact // fact[m])
    return lubell_mass(fam) - Fraction(num, nfact * nfact)
