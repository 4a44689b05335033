"""Boolean lattice B_n over bitmasks: order rows, regions, families, maximal-chain counts.

A subset of [n] = {1, ..., n} is a machine integer whose bit i-1 is set
iff element i is in the subset.  Ground sizes are capped at 63 so subset
tests stay single-word.  Chain counts are exact Python integers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import factorial

MAX_GROUND = 63


class LatticeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# bitmask set words
# ---------------------------------------------------------------------------

def full_mask(n: int) -> int:
    return (1 << n) - 1


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def are_comparable(a: int, b: int) -> bool:
    return a & ~b == 0 or b & ~a == 0


def mask_from_elements(elems, n: int) -> int:
    """Elements are 1-based, per the usual [n] convention.  A ground
    outside [0, MAX_GROUND] is refused before any bit is set, so a huge
    element cannot build a huge mask."""
    _check_ground(n)
    m = 0
    for e in elems:
        if not 1 <= e <= n:
            raise LatticeError(f"element {e} outside ground [{n}]")
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int):
    """1-based elements of a mask, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def set_repr(mask: int) -> str:
    return "{" + ",".join(str(e) for e in elements_of(mask)) + "}"


def all_masks(n: int):
    return range(1 << n)


def submasks(mask: int):
    """All subsets of mask, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def supermasks(mask: int, n: int):
    """All supersets of mask inside [n]."""
    free = full_mask(n) & ~mask
    for extra in submasks(free):
        yield mask | extra


def order_rows(members):
    """(up, down) for a sequence of distinct masks: up(x) is the bitset of
    the positions of the members containing x, down(x) that of the members
    contained in x (x itself included when it is a member).

    One row per ground element holds the positions of the members that
    have it: up(x) ANDs the rows of x's elements, down(x) clears the rows
    of the elements outside x.
    """
    everyone = (1 << len(members)) - 1
    width = max(members, default=0).bit_length()
    rows = [0] * width
    for i, x in enumerate(members):
        bit = 1 << i
        while x:
            low = x & -x
            x ^= low
            rows[low.bit_length() - 1] |= bit

    def up(x):
        if x >> width:
            return 0
        acc = everyone
        while x:
            low = x & -x
            x ^= low
            acc &= rows[low.bit_length() - 1]
        return acc

    def down(x):
        out = ~x & ((1 << width) - 1)
        hit = 0
        while out:
            low = out & -out
            out ^= low
            hit |= rows[low.bit_length() - 1]
        return everyone & ~hit

    return up, down


def _check_ground(n: int):
    if not 0 <= n <= MAX_GROUND:
        raise LatticeError(f"ground size {n} outside [0, {MAX_GROUND}]")


def _json_int(value):
    """value, when JSON gave an integer; a float, bool, string or null,
    which int() would truncate or parse, raises TypeError."""
    if type(value) is not int:
        raise TypeError(f"not an integer: {value!r}")
    return value


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def canonical_key(mask: int):
    """Level order: by set size, then by mask value."""
    return (mask.bit_count(), mask)


def canonical_order(masks) -> list:
    """masks sorted by canonical_key, by two C-keyed stable sorts: by mask,
    then by size."""
    return sorted(sorted(masks), key=int.bit_count)


@dataclass(frozen=True)
class Family:
    """A deduplicated family of subsets of [n], members in level order."""

    ground: int
    members: tuple

    @staticmethod
    def make(ground: int, masks) -> "Family":
        _check_ground(ground)
        full = full_mask(ground)
        uniq = set(masks)
        for m in uniq:
            if m & ~full:
                raise LatticeError(f"mask {m:#x} has bits outside ground [{ground}]")
        return Family(ground, tuple(canonical_order(uniq)))

    @staticmethod
    def whole_cube(n: int) -> "Family":
        return Family.make(n, all_masks(n))

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, mask):
        return mask in set(self.members)

    def member_set(self) -> frozenset:
        return frozenset(self.members)

    # --- FAM v1 text format and JSON -------------------------------------

    def to_text(self) -> str:
        lines = [f"n={self.ground}"]
        for m in self.members:
            lines.append("{}" if m == 0 else ",".join(str(e) for e in elements_of(m)))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Family":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("n="):
            raise LatticeError("FAM v1: first line must be n=<ground>")
        n = int(lines[0][2:])
        masks = []
        for ln in lines[1:]:
            if ln == "{}":
                masks.append(0)
            else:
                masks.append(mask_from_elements((int(tok) for tok in ln.split(",")), n))
        return Family.make(n, masks)

    def to_json(self) -> str:
        return json.dumps({"n": self.ground, "sets": list(self.members)})

    @staticmethod
    def from_json(text: str) -> "Family":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise LatticeError("FAM JSON: not an object")
        if not isinstance(obj["sets"], list):
            raise LatticeError("FAM JSON: sets must be a list of masks")
        try:
            n = _json_int(obj["n"])
            sets = [_json_int(m) for m in obj["sets"]]
        except TypeError:
            raise LatticeError("FAM JSON: n and the sets must be integers") from None
        return Family.make(n, sets)


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionSpec:
    """A named region of B_n.

    kind is one of "full", "level", "subcube", "upset", "downset",
    "interval-union".  Parameters: level wants ell; subcube wants (f, h);
    upset/downset want f; interval-union wants intervals=((f, h), ...).
    truncated drops the unique minimum and maximum of the region and is
    only legal for kinds that have them.
    """

    kind: str
    ell: int = 0
    f: int = 0
    h: int = 0
    intervals: tuple = ()
    truncated: bool = False


def region(spec: RegionSpec, n: int) -> Family:
    """Materialize a region of B_n as a Family."""
    _check_ground(n)
    full = full_mask(n)
    kind = spec.kind
    # the kinds with a unique min and max are the one interval between them
    one = {"full": (0, full), "subcube": (spec.f, spec.h),
           "upset": (spec.f, full), "downset": (0, spec.f)}
    if kind == "level":
        if not 0 <= spec.ell <= n:
            raise LatticeError(f"level {spec.ell} outside 0..{n}")
        masks = {m for m in all_masks(n) if m.bit_count() == spec.ell}
        extremes = None
    elif kind in one or kind == "interval-union":
        extremes = one.get(kind)
        intervals = spec.intervals if extremes is None else (extremes,)
        where = "per interval" if extremes is None else "inside the ground set"
        masks = set()
        for (f, h) in intervals:
            if f & ~full or h & ~full or not is_subset(f, h):
                raise LatticeError(f"{kind} needs F <= H {where}")
            masks.update(f | extra for extra in submasks(h & ~f))
    else:
        raise LatticeError(f"unknown region kind {kind!r}")

    if spec.truncated:
        if extremes is None:
            raise LatticeError(f"region kind {kind!r} has no unique min and max to truncate")
        masks.discard(extremes[0])
        masks.discard(extremes[1])
    return Family.make(n, masks)


def levels_family(n: int, lo: int, hi: int) -> Family:
    """Union of the consecutive levels lo..hi of B_n."""
    return Family.make(n, (m for m in all_masks(n) if lo <= m.bit_count() <= hi))


# ---------------------------------------------------------------------------
# max-partition of maximal chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxPartition:
    """Chain counts keyed by the largest family member met on the chain."""

    ground: int
    blocks: dict = field(compare=False)
    leftover: int = 0

    def total(self) -> int:
        return sum(self.blocks.values()) + self.leftover


_ENUM_LIMIT = 10
_DP_LIMIT = 20


def _max_partition_enumerate(fam: Family) -> MaxPartition:
    """Walk every maximal chain depth first from [n] down to the empty set,
    carrying the first member met; each leaf counts one chain."""
    n = fam.ground
    members = fam.member_set()
    counts = dict.fromkeys(fam.members, 0)
    counts[None] = 0

    def walk(g, hit):
        if hit is None and g in members:
            hit = g
        if not g:
            counts[hit] += 1
            return
        rest = g
        while rest:
            low = rest & -rest
            rest ^= low
            walk(g ^ low, hit)

    walk(full_mask(n), None)
    leftover = counts.pop(None)
    return MaxPartition(n, counts, leftover)


def _max_partition_dp(fam: Family) -> MaxPartition:
    """blocks[f] = up(f) * |f|!, where up(g) counts the saturated chains
    g -> [n] whose sets strictly above g all miss fam.  up does not depend
    on the member that starts the walk (f is never strictly above f), so
    one memo serves every member."""
    n = fam.ground
    full = full_mask(n)
    avoid = fam.member_set()
    memo = {full: 1}

    def up(g):
        got = memo.get(g)
        if got is not None:
            return got
        total = 0
        free = full & ~g
        while free:
            bit = free & -free
            free ^= bit
            nxt = g | bit
            if nxt not in avoid:
                total += up(nxt)
        memo[g] = total
        return total

    blocks = {f: up(f) * factorial(f.bit_count()) for f in fam.members}
    leftover = factorial(n) - sum(blocks.values())
    return MaxPartition(n, blocks, leftover)


def max_partition(fam: Family, mode: str = "dp") -> MaxPartition:
    """Partition the n! maximal chains of B_n by their largest member of fam.

    blocks[F] counts chains whose largest set of fam is F; leftover counts
    chains disjoint from fam.  mode "dp" counts ascending chains with one
    memo shared by every member (n <= 20); mode "enumerate", the literal
    reference, walks all n! chains (n <= 10).  Both are exact and agree.
    """
    n = fam.ground
    if mode == "enumerate":
        if n > _ENUM_LIMIT:
            raise LatticeError(f"enumeration mode capped at n={_ENUM_LIMIT}, got {n}")
        return _max_partition_enumerate(fam)
    if mode == "dp":
        if n > _DP_LIMIT:
            raise LatticeError(f"dp mode capped at n={_DP_LIMIT}, got {n}")
        return _max_partition_dp(fam)
    raise LatticeError(f"unknown max_partition mode {mode!r}")


def random_family(n: int, rng, density: float = 0.3) -> Family:
    """Seeded random family: each subset of [n] kept with the given density."""
    return Family.make(n, (m for m in all_masks(n) if rng.random() < density))
