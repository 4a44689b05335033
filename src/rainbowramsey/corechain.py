"""Mutual comparability and the core-chain decomposition.

A core chain for pairwise disjoint families F_1..F_l in B_n is a chain
0 = S_0 <= S_1 <= ... <= S_m = [n] whose closed subcubes B_{S_j,S_{j+1}}
cover every family member while each open (truncated) subcube meets at
most one family.  Mutually comparable families always have one; the
constructive loop below is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

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

    One loop from [n] down: drop the members equal to the top, take the
    family of the largest remaining member (ties: smallest bitmask), keep
    its members that contain the union of the other families' remaining
    members, and meet the top with them for the next chain point.  Every
    cross-family pair is nested, so those are exactly its members below
    no member of another family.  Only they can lie strictly between the
    new point and the top, so that block's owner is the family when one
    of them differs from the new point, else None.  Deterministic.
    """
    ground = _check_inputs(fams)
    bad = _cross_pair(fams, False)
    if bad is not None:
        i, a, j, b = bad
        raise CoreChainError(
            f"families {i} and {j} are not mutually comparable: "
            f"{set_repr(a)} vs {set_repr(b)}")
    top = full_mask(ground)
    chain, owners = [top], []
    # sets equal to a chain point are covered by it and drop out
    lists = [[m for m in f.members if m != top] for f in fams]
    while any(lists):
        _, fam_idx = max(((m, idx) for idx, ms in enumerate(lists) for m in ms),
                         key=lambda t: (t[0].bit_count(), -t[0]))
        union = reduce(or_, (m for idx, ms in enumerate(lists) if idx != fam_idx for m in ms), 0)
        kept = {m for m in lists[fam_idx] if is_subset(union, m)}
        top = reduce(and_, kept, top)
        lists = [[m for m in ms if m != top and m not in kept] for ms in lists]
        if any(not is_subset(m, top) for ms in lists for m in ms):
            raise CoreChainError("core chain invariant broken: member escapes new top")
        chain.append(top)
        owners.append(fam_idx if kept - {top} else None)
    if top:
        chain.append(0)
        owners.append(None)
    return CoreChain(ground, tuple(reversed(chain)), tuple(reversed(owners)))


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
