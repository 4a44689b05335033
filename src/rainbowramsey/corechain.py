"""Mutual comparability and the core-chain decomposition.

A core chain for pairwise disjoint families F_1..F_l in B_n is a chain
0 = S_0 <= S_1 <= ... <= S_m = [n] whose closed subcubes B_{S_j,S_{j+1}}
cover every family member while each open (truncated) subcube meets at
most one family.  Mutually comparable families always have one; the
constructive recursion below is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .lattice import Family, LatticeError, canonical_order, full_mask, is_subset, set_repr, submasks


class CoreChainError(ValueError):
    pass


def _check_inputs(fams):
    if len(fams) < 1:
        raise CoreChainError("need at least one family")
    ground = fams[0].ground
    seen = {}
    for idx, fam in enumerate(fams):
        if fam.ground != ground:
            raise CoreChainError("families must share one ground set")
        for m in fam.members:
            if m in seen:
                raise CoreChainError(
                    f"families {seen[m]} and {idx} overlap at {set_repr(m)}")
            seen[m] = idx
    return ground


def _cross_pair(fams, nested):
    """The first (i, a, j, b) with i < j, a in fams[i] and b in fams[j]
    whose nestedness equals nested, or None."""
    for i in range(len(fams)):
        for j in range(i + 1, len(fams)):
            for a in fams[i].members:
                for b in fams[j].members:
                    if (is_subset(a, b) or is_subset(b, a)) == nested:
                        return (i, a, j, b)
    return None


def comparability(fams, sense: str = "comparable") -> bool:
    """Check all cross-family pairs for nestedness (or its absence).

    sense "comparable": every pair drawn from two distinct families is
    nested; "incomparable": no such pair is nested.  Families must be
    pairwise disjoint.
    """
    _check_inputs(fams)
    if sense not in ("comparable", "incomparable"):
        raise CoreChainError(f"unknown sense {sense!r}")
    return _cross_pair(fams, sense == "incomparable") is None


@dataclass(frozen=True)
class CoreChain:
    """chain: masks from 0 up to [n]; block_owner[j] owns the open subcube
    (S_j, S_{j+1}), as a family index or None when that interior is empty."""

    ground: int
    chain: tuple
    block_owner: tuple

    def to_json(self) -> str:
        return json.dumps({"chain": list(self.chain),
                           "owners": list(self.block_owner)})


def core_chain(fams) -> CoreChain:
    """Build a core chain for mutually comparable, pairwise disjoint families.

    Recursion: take the maximum-size member F below the current top
    (ties: smallest bitmask), keep the members of its family not covered
    by other families, intersect them to get the next chain point, and
    recurse below it.  Deterministic by construction.
    """
    ground = _check_inputs(fams)
    bad = _cross_pair(fams, False)
    if bad is not None:
        i, a, j, b = bad
        raise CoreChainError(
            f"families {i} and {j} are not mutually comparable: "
            f"{set_repr(a)} vs {set_repr(b)}")

    def rec(member_lists, top):
        # sets equal to top are covered as the chain endpoint and drop out
        lists = [[m for m in ms if m != top] for ms in member_lists]
        pool = [(m, idx) for idx, ms in enumerate(lists) for m in ms]
        if not pool:
            return [0, top] if top != 0 else [0]
        f_big, fam_idx = max(pool, key=lambda t: (t[0].bit_count(), -t[0]))
        others = [m for idx, ms in enumerate(lists) if idx != fam_idx for m in ms]
        kept = {m for m in lists[fam_idx] if not any(is_subset(m, h) for h in others)}
        s = top
        for m in kept:
            s &= m
        next_lists = []
        for idx, ms in enumerate(lists):
            if idx == fam_idx:
                ms = [m for m in ms if m not in kept]
            for m in ms:
                if not is_subset(m, s):
                    raise CoreChainError("recursion invariant broken: member escapes new top")
            next_lists.append(ms)
        return rec(next_lists, s) + [top]

    chain = rec([list(f.members) for f in fams], full_mask(ground))
    owner_of = {}
    for idx, fam in enumerate(fams):
        for m in fam.members:
            owner_of[m] = idx
    owners = []
    for j in range(len(chain) - 1):
        lo, hi = chain[j], chain[j + 1]
        block_owner = None
        for m, idx in owner_of.items():
            if m != lo and m != hi and is_subset(lo, m) and is_subset(m, hi):
                block_owner = idx
                break
        owners.append(block_owner)
    return CoreChain(ground, tuple(chain), tuple(owners))


@dataclass(frozen=True)
class CoreChainCheck:
    ok: bool
    clause: str | None = None

    def __bool__(self):
        return self.ok


def validate_core_chain(cc: CoreChain, fams) -> CoreChainCheck:
    """Check the three core-chain clauses against the given families."""
    ground = _check_inputs(fams)
    chain = cc.chain
    if not chain or chain[0] != 0 or chain[-1] != full_mask(ground):
        return CoreChainCheck(False, "endpoints")
    for j in range(len(chain) - 1):
        if not is_subset(chain[j], chain[j + 1]):
            return CoreChainCheck(False, "monotone")
    for fam in fams:
        for m in fam.members:
            if not any(is_subset(chain[j], m) and is_subset(m, chain[j + 1])
                       for j in range(len(chain) - 1)):
                return CoreChainCheck(False, "coverage")
    for j in range(len(chain) - 1):
        lo, hi = chain[j], chain[j + 1]
        inside = set()
        for idx, fam in enumerate(fams):
            for m in fam.members:
                if m != lo and m != hi and is_subset(lo, m) and is_subset(m, hi):
                    inside.add(idx)
        if len(inside) > 1:
            return CoreChainCheck(False, "truncated-block")
    return CoreChainCheck(True, None)


def random_comparable_pair(n: int, rng, l: int = 2):
    """Generate l mutually comparable families by coloring blocks of a random chain.

    Draw a random maximal-chain prefix structure: random chain points, then
    assign each open block to one family and each chain point to a random
    family (or none).  By the converse core-chain property the result is
    always mutually comparable.
    """
    if n < 1:
        raise LatticeError("need n >= 1")
    perm = list(range(n))
    rng.shuffle(perm)
    cuts = sorted(rng.sample(range(1, n + 1), rng.randint(0, n - 1))) if n > 1 else []
    points = [0]
    for c in cuts:
        mask = 0
        for i in perm[:c]:
            mask |= 1 << i
        points.append(mask)
    points.append(full_mask(n))
    points = canonical_order(set(points))
    members = [set() for _ in range(l)]
    for j in range(len(points) - 1):
        lo, hi = points[j], points[j + 1]
        fam_idx = rng.randrange(l)
        for sub in submasks(hi & ~lo):
            m = lo | sub
            if m != lo and m != hi and rng.random() < 0.5:
                members[fam_idx].add(m)
    for p in points:
        pick = rng.randrange(l + 1)
        if pick < l and all(p not in ms for ms in members):
            members[pick].add(p)
    return [Family.make(n, ms) for ms in members]
