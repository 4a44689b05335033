"""Colorings of B_n, the explicit lower-bound constructions, and the
monochromatic / rainbow pattern checkers behind every certificate.

A Coloring is a partial map from masks to small color ids; ids are
renamed to 0,1,2,... in first-seen canonical order at construction so
certificates compare across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from math import comb, isqrt
from operator import and_, or_

from .lattice import (
    Family,
    _check_ground,
    _json_int,
    all_masks,
    canonical_order,
    full_mask,
    is_subset,
    order_rows,
    submasks,
    supermasks,
)
from .posets import (Embedding, PosetPattern, _check_mode, _search_embedding, find_copy,
                     standard_poset)


class ColoringError(ValueError):
    pass


class Coloring:
    """Immutable partial coloring of B_n with contiguous color ids."""

    __slots__ = ("ground", "total", "items", "_map", "_classes")

    def __init__(self, ground: int, assignment, total: bool = False):
        _check_ground(ground)
        pairs = assignment.items() if isinstance(assignment, dict) else list(assignment)
        color_of = dict(pairs)
        if len(color_of) != len(pairs):
            masks = canonical_order(m for m, _ in pairs)
            twice = next(a for a, b in zip(masks, masks[1:]) if a == b)
            raise ColoringError(f"set {twice:#x} colored twice")
        rename = {}
        classes = []
        items = []
        for mask in canonical_order(color_of):
            if mask >> ground:
                raise ColoringError(f"colored set {mask:#x} outside ground")
            c = color_of[mask]
            new = rename.get(c)
            if new is None:
                new = rename[c] = len(classes)
                classes.append([])
            classes[new].append(mask)
            color_of[mask] = new
            items.append((mask, new))
        if total and len(items) != 1 << ground:
            raise ColoringError("total coloring must assign every subset")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "items", tuple(items))
        object.__setattr__(self, "_map", color_of)
        object.__setattr__(self, "_classes", dict(enumerate(map(tuple, classes))))

    def __setattr__(self, *a):
        raise AttributeError("Coloring is immutable")

    def __eq__(self, other):
        return (isinstance(other, Coloring)
                and (self.ground, self.total, self.items)
                == (other.ground, other.total, other.items))

    def __hash__(self):
        return hash((self.ground, self.total, self.items))

    def __len__(self):
        return len(self.items)

    def color(self, mask):
        return self._map.get(mask)

    @property
    def members(self):
        return tuple(m for m, _ in self.items)

    @property
    def num_colors(self):
        return len(self._classes)

    def classes(self):
        return dict(self._classes)

    def class_family(self, color) -> Family:
        return Family(self.ground, self._classes.get(color, ()))

    def class_sizes(self):
        return [len(ms) for ms in self._classes.values()]

    # --- serialization ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"n": self.ground, "total": self.total,
                           "colors": [[m, c] for m, c in self.items]})

    @staticmethod
    def from_json(text: str) -> "Coloring":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ColoringError("COL JSON: not an object")
        pairs = obj["colors"]
        if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
            raise ColoringError("COL JSON: colors must be a list of [mask, color] pairs")
        try:
            n = _json_int(obj["n"])
            items = [(_json_int(m), _json_int(c)) for m, c in pairs]
        except TypeError:
            raise ColoringError("COL JSON: n, masks and colors must be integers") from None
        total = obj["total"]
        if not isinstance(total, bool):
            raise ColoringError("COL JSON: total must be true or false")
        return Coloring(n, items, total)

    def to_text(self) -> str:
        lines = [f"n={self.ground} total={1 if self.total else 0}"]
        lines += [f"{m:x} {c}" for m, c in self.items]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Coloring":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        head = lines[0].split() if lines else []
        if (len(head) != 2 or not head[0].startswith("n=")
                or head[1] not in ("total=0", "total=1")):
            raise ColoringError("COL v1: header must be 'n=<n> total=<0|1>'")
        n = int(head[0][2:])
        total = head[1] == "total=1"
        items = []
        for ln in lines[1:]:
            mask_hex, c = ln.split()
            items.append((int(mask_hex, 16), int(c)))
        return Coloring(n, items, total)


# ---------------------------------------------------------------------------
# pattern checkers
# ---------------------------------------------------------------------------

def _rainbow_strong_antichain(classes, rows, k):
    """k pairwise related positions from k distinct classes, or None.

    classes is a list of nonempty bitsets of positions, one per color in
    color order; rows[i] is the bitset of the positions related to
    position i: incomparable to it for a rainbow antichain, comparable to
    it for a rainbow chain.  Color-major backtracking, scarcest class
    first (ties in color order; one candidate per chosen class, classes
    skippable within the slack #classes - k); the search is deterministic
    and exhaustive, so None is a proof of absence.  The candidates for a class are the set
    bits of allowed & class, lowest first, and the last class takes the
    lowest one.  Returns the chosen positions in the order chosen.
    """
    if len(classes) < k:
        return None
    class_bits = sorted(classes, key=int.bit_count)
    ncolors = len(class_bits)
    chosen = []

    # skips_left == ncolors - k - (pos - len(chosen)) >= 0 at every call,
    # so enough classes remain while a choice is still needed
    def rec(pos, allowed, skips_left):
        if len(chosen) == k:
            return True
        cand = allowed & class_bits[pos]
        if cand and len(chosen) == k - 1:
            chosen.append((cand & -cand).bit_length() - 1)
            return True
        while cand:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            chosen.append(i)
            if rec(pos + 1, allowed & rows[i], skips_left):
                return True
            chosen.pop()
        if skips_left > 0 and rec(pos + 1, allowed, skips_left - 1):
            return True
        return False

    if rec(0, -1, ncolors - k):
        return tuple(chosen)
    return None


def _supported_classes(classes, k):
    """The colors whose classes can hold a member of a rainbow strong A_k,
    in color order, or None when fewer than k remain.

    classes[c] holds the masks of color c.  A member x counts another class
    d unless all of d lies below x (the union of d's masks is inside x) or
    above it (x is inside their intersection).  Each round drops every class
    none of whose members counts k - 1 other live classes.  A count is never
    below the number of live classes holding a set incomparable to x, so a
    dropped class holds no member of any rainbow strong A_k, the kept
    classes include those an exact support check keeps, and the kernel's
    stable scarcest-first search over them meets its first answer on all.
    """
    spans = [(reduce(or_, masks), reduce(and_, masks)) for masks in classes]
    live = list(range(len(classes)))
    while len(live) >= k:
        kept = []
        for c in live:
            others = [spans[d] for d in live if d != c]
            if any(sum(1 for u, i in others if u & ~x and x & ~i) >= k - 1
                   for x in classes[c]):
                kept.append(c)
        if kept == live:
            return live
        live = kept
    return None


class _IncomparableRows(dict):
    """rows[i]: the members incomparable to member i, built on first use."""

    def __init__(self, members):
        super().__init__()
        self.members = members
        self.up, self.down = order_rows(members)
        self.everyone = (1 << len(members)) - 1

    def __missing__(self, i):
        x = self.members[i]
        row = self[i] = self.everyone & ~(self.up(x) | self.down(x))
        return row


def find_pattern(col: Coloring, pattern: PosetPattern, mode: str = "weak",
                 chromatic: str = "mono"):
    """Search col for a monochromatic or rainbow copy of pattern.

    Returns (Embedding, color) for mono, (Embedding, colors tuple) for
    rainbow, or None.  Deterministic first witness in canonical order.
    """
    _check_mode(mode)
    if chromatic == "mono":
        for c in range(col.num_colors):
            emb = find_copy(col.class_family(c), pattern, mode)
            if emb is not None:
                return (emb, c)
        return None
    if chromatic != "rainbow":
        raise ColoringError(f"chromatic must be mono or rainbow, got {chromatic!r}")

    members = col.members
    if mode == "strong" and pattern.is_antichain():
        k = pattern.size
        live = _supported_classes(list(col._classes.values()), k)
        if live is None:
            return None
        classes = [0] * col.num_colors
        for i, (_, c) in enumerate(col.items):
            classes[c] |= 1 << i
        chosen = _rainbow_strong_antichain([classes[c] for c in live],
                                           _IncomparableRows(members), k)
        if chosen is None:
            return None
        images = tuple(members[i] for i in sorted(chosen))
        return (Embedding(images, mode), tuple(col.color(m) for m in images))

    images = _search_embedding(members, pattern, mode, thin=False, color_of=col.color)
    if images is None:
        return None
    return (Embedding(images, mode), tuple(col.color(m) for m in images))


@dataclass(frozen=True)
class WitnessVerdict:
    """mono_copy / rainbow_copy carry (Embedding, color data) when found."""

    mono_copy: object
    rainbow_copy: object

    @property
    def avoided(self) -> bool:
        return self.mono_copy is None and self.rainbow_copy is None


def validate_witness(col: Coloring, p: PosetPattern, q: PosetPattern,
                     mode_p: str = "weak", mode_q: str = "weak") -> WitnessVerdict:
    """Certify col against the (P, Q) problem: look for a monochromatic
    copy of P and a rainbow copy of Q; avoided means col is a lower-bound
    witness at its ground size.  Both modes are checked before searching."""
    _check_mode(mode_q)   # find_pattern checks mode_p first
    mono = find_pattern(col, p, mode_p, "mono")
    rainbow = find_pattern(col, q, mode_q, "rainbow")
    return WitnessVerdict(mono, rainbow)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

# The most sets one construction colors.  Each construction checks its
# ground, then refuses a larger count, computed from its parameters,
# before enumerating: a 2^20-set coloring takes seconds and 100s of MiB.
_MAX_COLORED = 1 << 20


def _check_count(kind, count):
    """Refuse more than _MAX_COLORED sets; on a ground <= 63, count < 2^93."""
    if count > _MAX_COLORED:
        raise ColoringError(f"{kind} would color {count} sets, more than the "
                            f"{_MAX_COLORED} a construction may color")


def _level_blocks(n, parts):
    """The total coloring whose classes are runs of consecutive levels,
    parts[i] levels in class i from the empty set up."""
    color_of_level = []
    for idx, p in enumerate(parts):
        color_of_level += [idx] * p
    return Coloring(n, [(m, color_of_level[m.bit_count()]) for m in all_masks(n)],
                    total=True)


def _chain_config_coloring(n, config):
    """Materialize the partial 2-coloring described by a chain config on
    the canonical nested ground sets {1..l}: each (level, open-block owner,
    point owner) colors the chain point {1..level} and, unless the owner
    is None, the sets strictly between it and the previous point."""
    items = []
    prev = 0
    for (lvl, blk_to, pt_to) in config:
        items.append((full_mask(lvl), pt_to))
        if blk_to is not None:
            lo = full_mask(prev)
            items += [(lo | x << prev, blk_to) for x in all_masks(lvl - prev)[1:-1]]
        prev = lvl
    return Coloring(n, items)


def consecutive_level_coloring(n: int, parts) -> Coloring:
    """Color classes are intervals of consecutive levels with the given lengths."""
    _check_ground(n)
    parts = list(parts)
    if any(p < 1 for p in parts) or sum(parts) != n + 1:
        raise ColoringError(f"parts must be positive and sum to n+1, got {parts}")
    _check_count("consecutive-level", 1 << n)
    return _level_blocks(n, parts)


def trace_coloring(n: int, r_mask: int) -> Coloring:
    """phi(F) = |F intersect R|."""
    _check_ground(n)
    if r_mask >> n:
        raise ColoringError("trace set outside ground")
    _check_count("trace", 1 << n)
    return Coloring(n, [(m, (m & r_mask).bit_count()) for m in all_masks(n)], total=True)


def level_coloring(n: int) -> Coloring:
    """The trivial coloring phi(F) = |F|."""
    _check_ground(n)
    _check_count("level", 1 << n)
    return _level_blocks(n, [1] * (n + 1))


def rr_lower_coloring(e: int, q: int, f_tweak: int = 0) -> Coloring:
    """Level-interval coloring witnessing the rainbow Ramsey lower bound.

    Partitions the levels of B_n, n = e*(q-1) + f_tweak - 1, into q-1
    intervals of size e.  With f_tweak >= 1 the empty set gets a fresh
    color (a strong copy through the empty set would force a unique
    smallest element on the target, so this certifies targets without
    one); with f_tweak = 2 the full set gets a second fresh color (dually
    for targets without a unique largest element).
    """
    if e < 1 or q < 2 or f_tweak not in (0, 1, 2):
        raise ColoringError(f"bad rr-lower parameters {(e, q, f_tweak)}")
    n = e * (q - 1) + f_tweak - 1
    _check_ground(n)
    if n < 1:
        raise ColoringError("rr-lower needs e*(q-1)+f_tweak >= 2")
    _check_count("rr-lower", 1 << n)
    # the empty set, and for f_tweak = 2 the full set, alone in a level block
    return _level_blocks(n, [1] * (f_tweak >= 1) + [e] * (q - 1) + [1] * (f_tweak == 2))


def f2_lower_coloring(n: int) -> Coloring:
    """Extremal partial 2-coloring for the no-rainbow-A_2 size threshold.

    Even n: class 1 is the downset of an n/2-set S, class 2 the upset of S
    minus S.  Odd n >= 5: class 1 is the downset of S plus [n], class 2 the
    open subcube between S and [n].
    """
    _check_ground(n)
    if n < 2 or (n % 2 == 1 and n < 5):
        raise ColoringError(f"f2-lower needs even n >= 2 or odd n >= 5, got {n}")
    # the downset of S and the upset of S less S, with [n] moved for odd n
    _check_count("f2-lower", (1 << n // 2) + (1 << n - n // 2) - 1)
    return _chain_config_coloring(n, [(0, None, 0), (n // 2, 0, 0), (n, 1, 1 - n % 2)])


def g2_lower_coloring(n: int) -> Coloring:
    """Mass-extremal two classes: the upset of an |H| = floor(n/sqrt2) set
    plus the empty set, against the rest of the downset of H.

    floor(n/sqrt2) is resolved exactly as the largest h with 2h^2 <= n^2.
    """
    _check_ground(n)
    if n < 2:
        raise ColoringError("g2-lower needs n >= 2")
    h = isqrt(n * n // 2)
    assert 2 * h * h <= n * n < 2 * (h + 1) * (h + 1)
    # the empty set, the upset of H and the rest of the downset of H
    _check_count("g2-lower", (1 << n - h) + (1 << h) - 1)
    return _chain_config_coloring(n, [(0, None, 0), (h, 1, 0), (n, 0, 0)])


@dataclass(frozen=True)
class FkMeta:
    """Bookkeeping for the fk-random construction after canonical renaming."""

    n: int
    k: int
    l: int
    cap_intersection: int
    centers: tuple
    down_colors: tuple  # canonical color of paper-class i (owner of D_{F_i})
    up_color: int       # canonical color of the shared top class


def fk_random_coloring(n: int, k: int, seed: int, max_draws: int = 10000):
    """Randomized partial coloring with no strong rainbow A_k.

    Picks k-1 centers of size floor(n/2) + l_k with pairwise intersections
    at most floor(0.26 n) by seeded rejection sampling, colors
    D_{F_i} \\ union of earlier downsets with color i and the punctured
    upsets with a shared last color.  Returns (Coloring, FkMeta).
    """
    import random as _random

    _check_ground(n)
    if k < 2:
        raise ColoringError("fk-random needs k >= 2")
    if seed is None:
        raise ColoringError("fk-random requires a seed")
    l = ((k - 1).bit_length() - 1) // 2  # floor(log2(k-1) / 2)
    size = n // 2 + l
    if size >= n:
        # a center [n] leaves the top class empty
        raise ColoringError(f"fk-random needs center size {size} below n={n}")
    if comb(n, size) < k - 1:
        raise ColoringError(f"fk-random needs {k - 1} distinct centers of size {size}, "
                            f"but B_{n} has only {comb(n, size)}")
    # at most each center's downset and punctured upset
    _check_count("fk-random", (k - 1) * ((1 << size) + (1 << n - size) - 1))
    cap = (26 * n) // 100  # |F_i & F_j| <= 0.26 n, resolved in integers
    rng = _random.Random(seed)
    centers = []
    for _ in range(k - 1):
        for _attempt in range(max_draws):
            cand = 0
            for e in rng.sample(range(n), size):
                cand |= 1 << e
            # a repeat fails the cap (size > 0.26 n for n >= 2; n <= 1 draws one center)
            if all((cand & c).bit_count() <= cap for c in centers):
                centers.append(cand)
                break
        else:
            raise ColoringError(
                f"rejection sampling exhausted after {max_draws} draws per set "
                f"(n={n}, k={k}, cap={cap})")

    assignment = {}
    for i, f in enumerate(centers, start=1):
        for m in submasks(f):
            if m not in assignment:
                assignment[m] = i
    for f in centers:
        for m in supermasks(f, n):
            if m != f:
                assignment[m] = k  # disjoint from every downset: A > F_i rules A out of D_{F_j}

    col = Coloring(n, assignment)
    # no center lies in another's downset or punctured upset; [n] tops as size < n
    down_colors = tuple(col.color(f) for f in centers)
    return col, FkMeta(n, k, l, cap, tuple(centers), down_colors, col.color(full_mask(n)))


def fk_structural_ok(col: Coloring, meta: FkMeta) -> bool:
    """Membership certificate: class i inside D_{F_i}, top class inside the
    union of punctured upsets.  This forces rainbow-strong-A_k freeness."""
    down_of = {c: meta.centers[i] for i, c in enumerate(meta.down_colors)}
    for mask, c in col.items:
        if c == meta.up_color:
            if not any(is_subset(f, mask) and mask != f for f in meta.centers):
                return False
        else:
            f = down_of.get(c)
            if f is None or not is_subset(mask, f):
                return False
    return True


def fk_class_size_bound(meta: FkMeta) -> int:
    """Guaranteed size of each downset class: 2^{l+floor(n/2)} - (k-2) 2^{ceil(0.26n)}."""
    ceil_cap = -((-26 * meta.n) // 100)
    return (1 << (meta.l + meta.n // 2)) - (meta.k - 2) * (1 << ceil_cap)


# one if-chain over the kinds; the CLI keeps its own flag table, _GEN_FLAGS
def generate(kind: str, params: dict, seed=None):
    """Build a named construction; returns a Coloring (fk-random also
    returns its metadata)."""
    if kind == "consecutive-level":
        return consecutive_level_coloring(params["n"], params["parts"])
    if kind == "trace":
        return trace_coloring(params["n"], params["r_mask"])
    if kind == "level":
        return level_coloring(params["n"])
    if kind == "rr-lower":
        return rr_lower_coloring(params["e"], params["q"], params.get("f_tweak", 0))
    if kind == "f2-lower":
        return f2_lower_coloring(params["n"])
    if kind == "g2-lower":
        return g2_lower_coloring(params["n"])
    if kind == "fk-random":
        return fk_random_coloring(params["n"], params["k"], seed)
    raise ColoringError(f"unknown coloring kind {kind!r}")


# ---------------------------------------------------------------------------
# thin antichains
# ---------------------------------------------------------------------------

def thin_antichain(n: int) -> Family:
    """A thin antichain of size n-2 in B_n with no (n-1)-element member.

    Base families for n = 4, 5 are the first thin strong copies of
    A_{n-2} among the sets of levels 1..n-2 (find_copy); larger n use
    the two-step induction F -> {F + {n+1}} + {[n], {n+2}}.
    """
    _check_ground(n)   # before the induction's n-bit masks
    if n < 4:
        raise ColoringError("thin_antichain needs n >= 4")
    m = 4 if n % 2 == 0 else 5
    pool = Family.make(m, (x for x in all_masks(m) if 1 <= x.bit_count() <= m - 2))
    base = find_copy(pool, standard_poset("antichain", m - 2), "strong", thin=True)
    if base is None:
        raise ColoringError(f"no thin antichain base found in B_{m}")
    masks = list(base.images)
    while m < n:
        masks = [mask | (1 << m) for mask in masks]
        masks.append(full_mask(m))
        masks.append(1 << (m + 1))
        m += 2
    return Family.make(n, masks)
