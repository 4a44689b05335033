"""Exhaustive and structure-exploiting searches at desk scale.

Covers the k-color poset Ramsey numbers R, the rainbow Ramsey numbers RR
(arbitrary color counts via canonical set partitions), the rainbow
antichain thresholds F / F' (sizes) and G' (Lubell masses), and the
fork-Ramsey functions f_k(r), g_k(r).

Every finite value is exact: lower bounds carry an explicit avoiding
coloring, upper bounds an exhausted enumeration (method and node counts
in the result details).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, reduce
from itertools import accumulate, permutations, repeat
from math import comb, factorial, lcm
from operator import and_
from typing import NamedTuple

from .lattice import all_masks, canonical_key, order_rows
# lubell_interval is not called here; kept because the benchmark traces search.lubell_interval
from .lubell import binom, lubell_interval
from .colorings import Coloring, _chain_config_coloring, _rainbow_strong_antichain
from .posets import PosetPattern, standard_poset, _search_embedding


class SearchError(ValueError):
    pass


class BudgetExceeded(Exception):
    pass


def _jsonable(value):
    """value with an exact Fraction written as "p/q"."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


@dataclass
class SearchResult:
    problem: str
    value: object            # int, Fraction, or ">n" when capped
    method: str
    witness: Coloring | None
    checked: tuple           # (n_min, n_max) actually decided
    budget_exhausted: bool = False
    details: dict = field(default_factory=dict)

    def to_jsonable(self):
        return {
            "problem": self.problem,
            "value": _jsonable(self.value),
            "method": self.method,
            "witness": None if self.witness is None else json.loads(self.witness.to_json()),
            "checked": {"n_min": self.checked[0], "n_max": self.checked[1]},
            "budget_exhausted": self.budget_exhausted,
            "nodes": self.details.get("nodes"),
        }


class _Counter:
    __slots__ = ("nodes", "limit")

    def __init__(self, limit):
        if limit is not None and limit < 0:
            raise SearchError(f"budget must be >= 0, got {limit}")
        self.nodes = 0
        self.limit = limit

    def tick(self):
        self.nodes += 1
        if self.limit is not None and self.nodes > self.limit:
            raise BudgetExceeded


# ---------------------------------------------------------------------------
# one per-n table of B_n
# ---------------------------------------------------------------------------

class _Cube(NamedTuple):
    masks: tuple       # B_n in canonical order
    ends: frozenset    # the positions t with masks[t - 1] last on its level
    below: list        # bitsets over mask values: each mask's strict subsets,
    above: list        # its strict supersets
    inc: list          # and the masks incomparable to it


@cache
def _cube(n):
    """The _Cube of B_n, built once per n from lattice.order_rows."""
    masks = tuple(sorted(all_masks(n), key=canonical_key))
    ends = frozenset(accumulate(binom(n, l) for l in range(n + 1)))
    values = all_masks(n)
    up, down = order_rows(values)
    below = [down(m) ^ 1 << m for m in values]
    above = [up(m) ^ 1 << m for m in values]
    everything = (1 << len(values)) - 1
    inc = [everything ^ (b | a | 1 << m) for m, b, a in zip(values, below, above)]
    return _Cube(masks, ends, below, above, inc)


def _bits_of(x):
    while x:
        bit = x & -x
        x ^= bit
        yield bit.bit_length() - 1


# ---------------------------------------------------------------------------
# anchored pattern checks: sets are colored in canonical order, so the
# newest set x sits on the highest level colored so far and a new copy
# must use x as the image of a maximal element
# ---------------------------------------------------------------------------

class _MonoClass:
    """One color class of a canonical-order search, free of a copy of its
    pattern; bits is the bitset of the class's sets.  For a chain C_l a
    copy through x is a height test: h(x) = 1 + max h over the strict
    subsets of x in the class, and a copy exists iff h(x) >= l.  layers[j]
    is the bitset of the class's sets of height > j.  Other patterns
    re-run the copy search on the class."""

    __slots__ = ("pattern", "mode", "below", "layers", "bits")

    def __init__(self, pattern, mode, below):
        self.pattern = pattern
        self.mode = mode
        self.below = below
        self.layers = [0] * (pattern.size - 1) if pattern.is_chain() else None
        self.bits = 0

    def add(self, x):
        """Put x in the class and return True, or leave the class as it
        was and return False when x completes a copy of the pattern."""
        bit = 1 << x
        layers = self.layers
        if layers is None:
            if _search_embedding(tuple(_bits_of(self.bits | bit)), self.pattern,
                                 self.mode, False) is not None:
                return False
        else:
            below = self.below[x]
            h = len(layers)
            while h and not layers[h - 1] & below:
                h -= 1
            if h == len(layers):
                return False
            for j in range(h + 1):
                layers[j] |= bit
        self.bits |= bit
        return True

    def remove(self, x):
        """Undo the last successful add(x)."""
        keep = ~(1 << x)
        self.bits &= keep
        layers = self.layers
        if layers is not None:
            for j in range(len(layers)):
                layers[j] &= keep


# ---------------------------------------------------------------------------
# ground-set permutation symmetry (checked at complete-level boundaries)
# ---------------------------------------------------------------------------

_PERM_MAPS = {}


def _perm_position_maps(n):
    """For each position p of the canonical order, the sets of permutations
    sending each set of p's level to masks[p]: cols[p][k] holds the
    permutations sigma of the ground set with sigma(masks[lo + k]) =
    masks[p], lo the level's first position.  A set of permutations is a
    bitset whose bit k is the k-th of itertools.permutations(range(n)), so
    bit 0 is the identity.  For a fixed k the sets cols[p][k] over the p of
    one level partition all n! permutations, so the permutations reading a
    color at position lo + k are the OR of cols[p][k] over the sets p of
    that color.

    Built from the n^2 element sets "sigma(a) = b": sigma(A) = B exactly
    when every a in A goes into B, an AND over a in A of an OR over b in B.
    Tables for n <= 6 are kept, and at most one larger one (n = 8's holds
    12,870 sets of 40,320 bits, about 63 MiB).
    """
    cols = _PERM_MAPS.get(n)
    if cols is None:
        perms = list(permutations(range(n)))
        everyone = (1 << len(perms)) - 1
        # sends[a][b]: the permutations with sigma(a) = b, read from a
        # string of binary digits, the last permutation first
        digits = [bytes(48 + (v == b) for v in range(256)) for b in range(n)]
        sends = []
        for a in range(n):
            images = bytes(perm[a] for perm in reversed(perms))
            sends.append([int(images.translate(d), 2) for d in digits])
        masks, ends = _cube(n)[:2]
        cols = []
        lo = 0
        for hi in sorted(ends):
            level = masks[lo:hi]
            elements = [list(_bits_of(m)) for m in level]
            for m in level:
                # into[a]: the permutations sending a into m (an OR over b
                # in m; the sets sends[a][b] are disjoint, so a sum)
                into = [sum(sends[a][b] for b in _bits_of(m)) for a in range(n)]
                cols.append(tuple(reduce(and_, map(into.__getitem__, e), everyone)
                                  for e in elements))
            lo = hi
        if n > 6:
            for m in [m for m in _PERM_MAPS if m > 6]:
                del _PERM_MAPS[m]
        _PERM_MAPS[n] = cols
    return cols


def _prefix_is_orbit_min(assign, t, tied, cols, ties_out):
    """True iff the length-t prefix is lexicographically minimal in its
    permutation orbit (colors renamed first-seen when the classes carry a
    renaming, in which case assign is restricted-growth and so its own
    renaming).

    tied = (s, classes) holds, for the level end s before t (so positions
    s..t-1 are one level), the permutations whose permuted prefix equals
    the prefix through s; every other permutation is larger before s and
    stays larger.  A class is a pair (cmap, bits): a bitset of such
    permutations that share one color renaming cmap (None when colors are
    not renamed).  cols is _perm_position_maps(n): the permutations
    reading color c at position s + k, the ones sending masks[s + k] to a
    set colored c, are the OR of cols[p][k] over the level's positions p
    colored c, built when the test reaches k; assign[s]'s color is read
    by all the others.

    At each position i from s on the permutations split by the color
    they read.  A permutation reading a label below the prefix's is
    smaller, so the prefix is not minimal; one reading an equal label
    stays tied, a color new to cmap taking the next label and starting a
    new class (never a label below the prefix's: the tied permutations
    have seen every color of the prefix, so their next label is the
    prefix's largest plus one).  The classes still tied at t go to
    ties_out.  The identity always ties, so a class holding it alone is
    handed on as it is, its renaming no longer read.  On a refusal
    ties_out gets instead the pair (i, perms): the position i where the
    refusing permutations perms first read a smaller label.
    """
    s, classes = tied
    if len(classes) == 1 and classes[0][1] == 1:
        ties_out.append(classes[0])
        return True
    level = assign[s:t]
    first = level[0]
    # the level's columns by color, the first color's left out
    columns = {}
    for c, col in zip(level, cols[s:t]):
        if c != first:
            columns.setdefault(c, []).append(col)
    others = sorted(columns.items())
    for k, b in enumerate(level):
        reads = []
        for c, group in others:
            read = 0
            for col in group:
                read |= col[k]
            reads.append((c, read))
        kept = []
        for cmap, live in classes:
            # hits: the permutations of the class reading label b, by color
            # in color order; those reading the first color are the rest
            rest = live
            hits = []
            for c, read in reads:
                both = read & live
                if both:
                    rest ^= both
                    label = c if cmap is None else cmap.get(c, len(cmap))
                    if label < b:
                        ties_out.append((s + k, both))
                        return False
                    if label == b:
                        hits.append((c, both))
            if rest:
                label = first if cmap is None else cmap.get(first, len(cmap))
                if label < b:
                    ties_out.append((s + k, rest))
                    return False
                if label == b:
                    hits.append((first, rest))
                    hits.sort()
            for c, both in hits:
                kept.append((cmap if cmap is None or c in cmap else {**cmap, c: b}, both))
        classes = kept
    ties_out.extend(classes)
    return True


def _last_read(masks, where, s, refusal):
    """The last position that a refusal of the orbit test at the end of
    the level starting at s reads, refusal = (i, perms) as
    _prefix_is_orbit_min reports it (where[m] is the position of mask m).

    For sigma the lowest-numbered permutation of perms, decoded from its
    number (itertools.permutations numbers them in lexicographic order),
    the refusal reads the prefix's labels at positions s..i and sigma's
    colors at the positions of sigma(masks[p]) for p in s..i: its class
    and renaming at s come from the positions before s, and the renaming
    grows only by what sigma read.
    """
    i, perms = refusal
    number = (perms & -perms).bit_length() - 1
    n = len(where).bit_length() - 1
    left = list(range(n))
    images = []   # the bit of sigma(a), for a = 0..n-1
    for m in range(n - 1, -1, -1):
        place, number = divmod(number, factorial(m))
        images.append(1 << left.pop(place))
    last = i
    for p in range(s, i + 1):
        mask, image, a = masks[p], 0, 0
        while mask:
            if mask & 1:
                image |= images[a]
            mask >>= 1
            a += 1
        if where[image] > last:
            last = where[image]
    return last


def _rainbow_pair(classes, k, c, window, rows):
    """True when, of the classes[:k] other than classes[c], each cut to
    the bitset window, some set of one is in the row of a set of an
    earlier one: classes hold their sets as a bitset in .bits, and rows[a]
    is the bitset of the sets related to a (incomparable to it, or
    comparable to it)."""
    seen = 0
    for d in range(k):
        if d == c:
            continue
        part = classes[d].bits & window
        if seen:
            rest = part
            while rest:
                low = rest & -rest
                if rows[low.bit_length() - 1] & seen:
                    return True
                rest ^= low
        seen |= part
    return False


# ---------------------------------------------------------------------------
# R(P_1, ..., P_k) and RR(P, Q): one search over colorings in canonical order
# ---------------------------------------------------------------------------

def iter_canonical_colorings(n):
    """All colorings of B_n up to color renaming, as restricted-growth
    sequences over the canonical mask order (one per renaming class)."""
    total = 1 << n
    assign = [0] * total

    def rec(t, used):
        if t == total:
            yield tuple(assign)
            return
        for c in range(used + 1):
            assign[t] = c
            yield from rec(t + 1, max(used, c + 1))

    yield from rec(0, 0) if total else iter(())


def _avoiding(n, patterns, mode, counter, symmetry, rename, q=None):
    """A coloring of B_n whose class c is free of patterns[c] and, when q
    is given, that holds no rainbow q; or None.

    len(patterns) caps the number of colors (RR passes one pattern per
    set: no cap).  When rename is set the colors are interchangeable and
    only restricted-growth colorings are tried.  Every prefix reached
    holds no forbidden copy, so only copies through the newest set are
    looked for.  The search runs on an explicit stack: position t of the
    canonical order is depth t.

    A refusal of the orbit test is remembered until it can change.  A
    permutation sigma that refuses the prefix at level end t, first at
    position i, does so because of the prefix's labels through i,
    sigma's colors at the positions of sigma(masks[p]) for p from the
    level's start s through i (same level, so before t), and sigma's class
    and renaming at s, which the positions before s fix.  While none of
    these positions is uncolored sigma still refuses, so every arrival at
    t is refused, and counted as a node, without running the test again.
    The search records the last of these positions (_last_read) and drops
    the refusal when it uncolors a position at or below it.  A backtrack
    from below s uncolors s too, so at most one refusal stands at a time.
    """
    masks, ends, below, above, inc = _cube(n)
    total = len(masks)
    limit = len(patterns)
    use_sym = symmetry and n >= 4
    classes = [_MonoClass(p, mode, below) for p in patterns]
    assign = [0] * total
    used = [-1] * (total + 1)     # the highest color used before position t
    starts = sorted(ends)
    level_start = [lo for lo, hi in zip([0] + starts, starts) for _ in range(lo, hi)]
    # by a level's first position s: the orbit-test ties handed to the
    # level, (s, classes)
    tied = [None] * total
    # the standing refusal: its level end and the last position it reads
    refused_end = refused_last = -1
    if use_sym:
        # every permutation ties on the empty prefix, under no renaming yet
        tied[0] = (0, [({} if rename else None, (1 << factorial(n)) - 1)])
        cols = _perm_position_maps(n)
        where = {m: i for i, m in enumerate(masks)}

    if q is not None:
        q_size = q.size
        weak_antichain = mode == "weak" and q.is_antichain()
        # a new rainbow chain or strong antichain through x is x and q_size - 1
        # sets of window[x], from classes other than x's, pairwise related
        # by rows: x tops any new chain (no colored set lies above it), and a
        # weak copy of a chain is a chain
        window = rows = None
        if q.is_antichain():
            window = rows = inc
        elif q.is_chain():
            window, rows = below, [b | a for b, a in zip(below, above)]
        color_of = [None] * (1 << n)

        def rainbow_through(t, x, c):
            """Color x with c; True when that completes a rainbow q."""
            color_of[x] = c
            if max(used[t], c) + 1 < q_size:
                return False
            if weak_antichain:
                return True  # q_size distinct colors suffice for a weak antichain copy
            if window is None:
                return _search_embedding(tuple(masks[:t + 1]), q, mode, False,
                                         color_of=color_of.__getitem__) is not None
            window_x = window[x]
            if q_size == 3:   # two sets: one pass over the class bitsets
                return _rainbow_pair(classes, used[t] + 1, c, window_x, rows)
            others = [b for d in range(used[t] + 1)
                      if d != c and (b := classes[d].bits & window_x)]
            return _rainbow_strong_antichain(others, rows.__getitem__, q_size - 1) is not None

    t = 0
    c = None   # the next color to try at t; None on arrival at t
    while True:
        if c is None:
            counter.tick()
            if t == total:
                return Coloring(n, list(zip(masks, assign)), total=True)
            c = 0
            if t == refused_end:
                c = limit   # still refused: see the docstring
            elif use_sym and t in ends:
                ties = []
                s = level_start[t - 1]
                if _prefix_is_orbit_min(assign, t, tied[s], cols, ties):
                    tied[t] = (t, ties)
                else:
                    c = limit
                    refused_end, refused_last = t, _last_read(masks, where, s, ties[0])
        top = min(limit - 1, used[t] + 1) if rename else limit - 1
        x = masks[t]
        while c <= top:
            cls = classes[c]
            if cls.add(x):
                if q is None or not rainbow_through(t, x, c):
                    break
                cls.remove(x)
            c += 1
        if c <= top:
            assign[t] = c
            used[t + 1] = max(used[t], c)
            t += 1
            c = None
            continue
        if t == 0:
            return None
        t -= 1
        if t <= refused_last:
            refused_end = refused_last = -1
        c = assign[t]
        classes[c].remove(masks[t])
        c += 1


# The largest n ramsey and rainbow_ramsey search: their per-n tables grow
# with n! and 4^n (_perm_position_maps(8) holds 12,870 sets of 40,320
# permutations, one tuple over its level per set of B_8, about 63 MiB;
# n = 9's would hold 48,620 sets of 362,880, about 2.1 GiB), so a search
# still undecided at this n is refused before the next n's tables are
# built.
_N_CAP_MAX = 8


def _least_n(problem, method, n_cap, budget, avoiding):
    """The least n <= n_cap for which avoiding(n, counter) finds no
    avoiding coloring, with the avoiding coloring of n - 1 as witness.  A
    budget stop leaves the n it stopped in undecided: value ">n-1" (None
    when it stopped in n = 0) and checked=(0, n-1).  A negative n_cap, or
    one above _N_CAP_MAX that the search reaches undecided, raises
    SearchError."""
    if n_cap < 0:
        raise SearchError(f"n_cap must be >= 0, got {n_cap}")
    counter = _Counter(budget)
    witness = None
    try:
        for n in range(n_cap + 1):
            if n > _N_CAP_MAX:
                raise SearchError(f"undecided at n = {_N_CAP_MAX}; n_cap {n_cap} would search "
                                  f"n = {n}, and n_cap above {_N_CAP_MAX} is refused")
            found = avoiding(n, counter)
            if found is None:
                return SearchResult(problem, n, method, witness, (0, n),
                                    details={"nodes": counter.nodes})
            witness = found
    except BudgetExceeded:
        return SearchResult(problem, f">{n - 1}" if n else None, method, witness,
                            (0, n - 1), budget_exhausted=True,
                            details={"nodes": counter.nodes})
    return SearchResult(problem, f">{n_cap}", method, witness, (0, n_cap),
                        details={"nodes": counter.nodes})


def _check_mode(mode):
    if mode not in ("weak", "strong"):
        raise SearchError(f"mode must be weak or strong, got {mode!r}")


def ramsey(patterns, mode: str = "weak", n_cap: int = 4,
           budget: int | None = 2_000_000, symmetry: bool = True) -> SearchResult:
    """Least n <= n_cap such that every k-coloring of B_n yields a
    monochromatic copy of P_i in some color class i (k >= 1)."""
    _check_mode(mode)
    if not patterns:
        raise SearchError("ramsey needs at least one pattern")
    names = ",".join(f"P{i}" for i in range(len(patterns)))
    identical = all(p == patterns[0] for p in patterns)
    return _least_n(f"R({names}) {mode}", "brute", n_cap, budget,
                    lambda n, counter: _avoiding(n, patterns, mode, counter,
                                                 symmetry, identical))


def rainbow_ramsey(p: PosetPattern, q: PosetPattern, mode: str = "weak",
                   n_cap: int = 3, budget: int | None = 2_000_000,
                   symmetry: bool = True) -> SearchResult:
    """Least n <= n_cap such that every coloring of B_n (any number of
    colors) yields a monochromatic copy of P or a rainbow copy of Q.

    Colorings are enumerated as set partitions (restricted growth) with
    early pruning: a partial coloring already containing either pattern
    can never avoid."""
    _check_mode(mode)
    return _least_n(f"RR(P,Q) {mode}", "canonical-partition", n_cap, budget,
                    lambda n, counter: _avoiding(n, [p] * (1 << n), mode, counter,
                                                 symmetry, True, q))


# ---------------------------------------------------------------------------
# F(n,k) and F'(n,k): size thresholds for rainbow strong antichains
# ---------------------------------------------------------------------------

def _threshold2(n, partial, counter):
    """Exact F(n,2) / F'(n,2) by branch and bound over all 2-colorings.

    No rainbow strong A_2 means every set of one class is comparable to
    every set of the other.  blocked[c] is the OR of the sets incomparable
    to the other class's sets, so a set may join class c exactly when its
    bit is not in blocked[c] (forward checking).  The same bitset bounds
    the search: class c can grow only by the remaining sets outside
    blocked[c].  Sets are placed in mask order, colors in restricted
    growth, the uncolored option last.  Returns (max-min, classes,
    stopped) as _threshold3 does.
    """
    size = 1 << n
    everything = (1 << size) - 1
    inc = _cube(n).inc
    cls = [0, 0]
    blocked = [0, 0]
    best = -1
    best_cls = None

    def place(t, used):
        nonlocal best, best_cls
        counter.tick()
        if t == size:
            v = min(cls[0].bit_count(), cls[1].bit_count())
            if v > best:
                best = v
                best_cls = cls[:]
            return
        rest = everything >> t << t
        if any(c.bit_count() + (rest & ~b).bit_count() <= best for c, b in zip(cls, blocked)):
            return
        bit = 1 << t
        for c in range(min(2, used + 1)):
            if blocked[c] & bit:
                continue
            kept = blocked[1 - c]
            cls[c] |= bit
            blocked[1 - c] |= inc[t]
            place(t + 1, max(used, c + 1))
            blocked[1 - c] = kept
            cls[c] ^= bit
        if partial:
            place(t + 1, used)

    try:
        place(0, 0)
    except BudgetExceeded:
        return best, best_cls, True
    return best, best_cls, False


def _threshold3(n, partial, counter):
    """Exact F(n,3) / F'(n,3) by branch and bound over all 3-colorings.

    Maximizes the minimum class size over colorings with no rainbow strong
    A_3 (no incomparable triple in three distinct colors); colors are
    interchangeable, so restricted growth breaks the renaming symmetry.
    Sets are placed in mask order, so a new rainbow triple goes through the
    newest set x: a and b from the two other classes, both incomparable to
    x and to each other.  Colors are tried in turn, the uncolored option
    last; a color that completes a rainbow triple makes no node.  Returns
    (max-min, classes, stopped): classes are the incumbent's class bitsets
    over masks, None before a first full coloring; on a budget stop the
    incumbent is a lower bound.

    Each child is one node, counted in the search order as _Counter.tick
    would.  The bound (even giving every remaining set to the smallest
    class cannot beat the incumbent) is tested at the parent, child by
    child since the incumbent can rise between siblings: a child it cuts
    is counted and not entered.  The triple test reads two 256-entry
    tables, the OR of the inc rows of the sets in each byte of a bitset
    (n <= 4: at most 16 sets).
    """
    size = 1 << n
    inc = _cube(n).inc
    rows = inc + [0] * (16 - size)
    row_lo = [0] * 256
    row_hi = [0] * 256
    for j in range(1, 256):
        low = (j & -j).bit_length() - 1
        row_lo[j] = row_lo[j & j - 1] | rows[low]
        row_hi[j] = row_hi[j & j - 1] | rows[low + 8]
    cls = [0, 0, 0]
    counts = [0, 0, 0]
    best = -1
    best_cls = None
    nodes = counter.nodes
    # no budget: the tree has fewer than 4^(size + 1) nodes
    limit = 4 ** (size + 1) if counter.limit is None else counter.limit
    # (color, colors used after it) per number of colors used so far
    options = [[(c, max(used, c + 1)) for c in range(min(3, used + 1))]
               for used in range(4)]

    def place(t, used):
        """Enter the node at t, which the bound does not cut."""
        nonlocal nodes, best, best_cls
        if t == size:
            best = min(counts)
            best_cls = cls[:]
            return
        inc_t = inc[t]
        bit = 1 << t
        left = size - t - 1
        # a child is entered when its smallest class holds more than floor
        floor = best - left
        for c, after in options[used]:
            # a rainbow triple through t: a and b from the two other classes
            a = inc_t & cls[c - 2]
            if a and (row_lo[a & 255] | row_hi[a >> 8]) & inc_t & cls[c - 1]:
                continue
            nodes += 1
            if nodes > limit:
                raise BudgetExceeded
            if counts[c - 1] > floor < counts[c - 2] and counts[c] >= floor:
                counts[c] += 1
                cls[c] |= bit
                place(t + 1, after)
                cls[c] ^= bit
                counts[c] -= 1
                floor = best - left
        if partial:
            nodes += 1
            if nodes > limit:
                raise BudgetExceeded
            if counts[0] > floor < counts[1] and counts[2] > floor:
                place(t + 1, used)

    try:
        nodes += 1   # the root, never cut
        if nodes > limit:
            raise BudgetExceeded
        place(0, 0)
    except BudgetExceeded:
        return best, best_cls, True
    finally:
        counter.nodes = nodes
    return best, best_cls, False


def threshold_F(n: int, k: int, partial: bool,
                budget: int | None = 50_000_000) -> SearchResult:
    """Exact F(n,k) (total colorings) or F'(n,k) (partial colorings):
    the least m such that minimum class size >= m forces a rainbow strong
    A_k.  Returns max-min + 1 with an extremal witness.  A budget stop
    decides nothing (checked=(n, n-1)) and reports ">m" with the best
    coloring found, whose minimum class size m is a lower bound."""
    if n < 0:
        raise SearchError(f"threshold_F needs n >= 0, got {n}")
    counter = _Counter(budget)   # refuses a negative budget for every k
    if k not in (2, 3):
        raise SearchError("threshold_F supports k in {2, 3}")
    if n > 4:
        hint = "; use two_color_partial_exact" if k == 2 else ""
        raise SearchError(f"threshold_F with k={k} is capped at n=4{hint}")
    name = f"F'({n},{k})" if partial else f"F({n},{k})"
    search = _threshold2 if k == 2 else _threshold3
    v, classes, stopped = search(n, partial, counter)
    witness = None if classes is None else Coloring(
        n, [(m, c) for c, b in enumerate(classes) for m in _bits_of(b)], total=not partial)
    details = {"max_min": v, "nodes": counter.nodes}
    if stopped:
        value = None if witness is None else f">{v}"
        return SearchResult(name, value, "branch-bound", witness, (n, n - 1),
                            budget_exhausted=True, details=details)
    return SearchResult(name, v + 1, "branch-bound", witness, (n, n), details=details)


# ---------------------------------------------------------------------------
# F'(n,2) and G'(n,2) exactly, via the core-chain structure
# ---------------------------------------------------------------------------

def _balanced_min(b1, b2, points):
    """max over splits of min(b1 + p1, b2 + p2) with p1 + p2 = points."""
    lo, hi = min(b1, b2), max(b1, b2)
    if hi - lo >= points:
        return lo + points
    return (lo + hi + points) // 2


def _two_color_size(n):
    """Closed composition scan for F'(n,2) - 1 (largest balanced pair).

    Along a core chain only block dimensions matter; within one class a
    block split (x, y) -> x + y trades interior size 2^x + 2^y - 4 for
    2^(x+y) - 2 at the cost of one chain point, so per class a single
    block of dimension x plus unit glue blocks is optimal.  Scan all
    (x, y, glue) splits of n exactly.
    """
    best = -1
    best_cfg = None
    for x in range(n + 1):
        for y in range(n + 1 - x):
            s = n - x - y
            points = (1 if x else 0) + (1 if y else 0) + s + 1
            b1 = (1 << x) - 2 if x >= 1 else 0
            b2 = (1 << y) - 2 if y >= 1 else 0
            v = _balanced_min(b1, b2, points)
            if v > best:
                best = v
                best_cfg = (x, y, s)
    return best, best_cfg


def _size_chain_config(n, cfg):
    """The chain config (see colorings._chain_config_coloring) of a split
    (x, y, s): the x-block from the empty set in class 0, the y-block above
    it in class 1, then unit steps up to [n].  Each chain point, bottom up, goes
    to the class that is smaller so far, ties to class 0."""
    x, y, _ = cfg
    steps = ([(x, 0)] if x else []) + ([(x + y, 1)] if y else [])
    steps += [(lvl, None) for lvl in range(x + y + 1, n + 1)]
    sizes = [(1 << x) - 2 if x else 0, (1 << y) - 2 if y else 0]
    config = []
    for lvl, blk_to in [(0, None)] + steps:
        owner = 0 if sizes[0] <= sizes[1] else 1
        sizes[owner] += 1
        config.append((lvl, blk_to, owner))
    return config


def _interior_table(n, pts, closed):
    """blk[a][b]: the weight strictly inside the block between chain points
    a < b, i.e. the closed block's weight closed(a, b) less its two end
    points; zero when b - a < 2 (the block has no interior)."""
    zero = pts[0] - pts[0]
    return [[closed(a, b) - pts[a] - pts[b] if b - a >= 2 else zero
             for b in range(n + 1)] for a in range(n + 1)]


def _two_color_pareto_dp(n, pts, blk, seed_best):
    """Exact max-min over all core-chain colorings for additive weights.

    The weights are given as tables of any exact additive type (int or
    Fraction): pts[l] is the chain point on level l, blk[a][b] the interior
    of the block between chain points a < b (see _interior_table).
    State: chain point level with a Pareto front of class weight pairs.
    Transitions append the next chain point, coloring the skipped open
    block (if it has an interior) and the new point; the empty set's
    point is pinned to class 0 (global color swap symmetry).  Dominance
    and the optimistic completion bound are exact, so the returned value
    is the true optimum; parent links reconstruct an extremal config.

    The completion bound assumes only that remaining[l] bounds all weight
    placeable above the level-l point (so the weights must be nonnegative).
    It is applied twice: when a state is popped, and, strictly, to each
    transition before any child is stored.  The four children of (a, b)
    at nxt all add w + pw, so each has min <= min(a, b) + w + pw and sum
    a + b + w + pw; a transition failing the bound yields only children
    the pop-time test would skip, and since best only grows, the expanded
    states, the value and the parent links are those of storing them all.
    """
    zero = pts[0] - pts[0]
    # everything placeable above the level-l point sits strictly inside
    # B_{S_l, [n]}, whose weight is interior(l, n) plus the top point
    remaining = [blk[l][n] + pts[n] for l in range(n)] + [zero]

    best = seed_best
    start = (pts[0], zero)
    # fronts[l] maps each stored pair at the level-l point to its parent link
    fronts = [{start: None}] + [{} for _ in range(n)]
    for lvl in range(n):
        front = fronts[lvl]
        if not front:
            continue
        kept = []
        hi2 = None
        for pair in sorted(front, reverse=True):
            if hi2 is None or pair[1] > hi2:
                kept.append(pair)
                hi2 = pair[1]
        ub = remaining[lvl]
        row = blk[lvl]
        # every child at nxt adds row[nxt] + pts[nxt] in all, then at most
        # remaining[nxt]: one bound for the children at nxt, largest first,
        # each with its moves (class-0 gain, class-1 gain, block owner,
        # point owner) in block-owner-major order; an open block with no
        # interior has no owner
        ups = []
        for up, nxt in sorted(((row[nxt] + pts[nxt] + remaining[nxt], nxt)
                               for nxt in range(lvl + 1, n + 1)), reverse=True):
            w = row[nxt]
            pw = pts[nxt]
            if w:
                moves = ((w + pw, zero, 0, 0), (w, pw, 0, 1),
                         (pw, w, 1, 0), (zero, w + pw, 1, 1))
            else:
                moves = ((pw, zero, None, 0), (zero, pw, None, 1))
            ups.append((up, fronts[nxt], moves, nxt == n))
        for pair in kept:
            a, b = pair
            # adding u in all lifts the min past best only if u > need
            # (min(a, b) + u > best and a + b + u > 2 * best); a transition
            # with up == need is kept, for the pairs with min == best at n
            need = best - (a if a < b else b)
            if 2 * best - a - b > need:
                need = 2 * best - a - b
            if ub <= need:
                continue
            for up, tgt, moves, last in ups:
                if up < need:
                    break
                for ga, gb, blk_to, pt_to in moves:
                    na = a + ga
                    nb = b + gb
                    ch = (na, nb)
                    if ch not in tgt:
                        tgt[ch] = (lvl, pair, blk_to, pt_to)
                    if last and na > best and nb > best:
                        best = na if na < nb else nb
    arg = None
    for pair in fronts[n]:
        if min(pair) == best and (arg is None or pair < arg):
            arg = pair
    config = None
    if arg is not None:
        steps = []
        lvl, pair = n, arg
        while (link := fronts[lvl][pair]) is not None:
            steps.append((lvl,) + link[2:])   # (level, block owner, point owner)
            lvl, pair = link[:2]
        steps.reverse()
        config = [(0, None, 0)] + steps  # (level, open-block owner, point owner)
    return best, config


def _subset_sums(ws, zero):
    """sums[i]: the total of the ws[j] with bit j of i set."""
    sums = [zero]
    for w in ws:
        sums += [t + w for t in sums]
    return sums


def _seed_three_point(n, pts, blk):
    """Exact value of every one- or two-block chain (0, s, n): a strong
    starting bound for the Pareto DP, on the same weight tables.  At n = 0
    the one-block chain is the single point 0.  Returns (value, chain
    config), the config None when no chain beats 0.

    Class 1 of a split's coloring holds the blocks and points whose bits
    are set; its weight is one block subset sum plus one point subset sum,
    and class 0 has the rest (exact, as the weights are)."""
    zero = pts[0] - pts[0]
    best = zero
    best_cfg = None
    for s in [None] + list(range(1, n)):
        if s is None:
            blocks, levels = ([(0, n)], [0, n]) if n else ([], [0])
        else:
            blocks, levels = [(0, s), (s, n)], [0, s, n]
        block_sums = _subset_sums([blk[a][b] for (a, b) in blocks], zero)
        point_sums = _subset_sums([pts[l] for l in levels], zero)
        whole = block_sums[-1] + point_sums[-1]
        for colors, bs in enumerate(block_sums):
            for pcolors, ps in enumerate(point_sums):
                t = bs + ps
                v = whole - t
                if t < v:
                    v = t
                if v > best:
                    best = v
                    flip = (pcolors >> 0) & 1  # pin the empty set's point to class 0
                    owner = lambda bit: bit ^ flip
                    cfg = [(0, None, 0)]
                    for i, (a, b) in enumerate(blocks):
                        blk_to = owner((colors >> i) & 1) if b - a >= 2 else None
                        cfg.append((b, blk_to, owner((pcolors >> (i + 1)) & 1)))
                    best_cfg = cfg
    return best, best_cfg


def _mass_tables(n):
    """(scale, pts, blk): the Lubell masses of the chain points and block
    interiors of B_n (see _interior_table), each times scale = lcm_l C(n, l).

    Scaled, every mass is an exact integer: a block interior is a sum of
    C(b-a, i-a) * scale / C(n, i).  Scaling by scale > 0 keeps every
    comparison, so the DP's front and config are those of the fractions."""
    scale = lcm(*(binom(n, l) for l in range(n + 1)))
    pts = [scale // binom(n, l) for l in range(n + 1)]

    def closed(a, b):
        # lubell_subcube's closed form for levels a..b, times scale; the
        # floor division is exact, as the product is an integer
        k = a + n - b
        return scale * (n + 1) // ((k + 1) * comb(k, a))

    return scale, pts, _interior_table(n, pts, closed)


def two_color_partial_exact(n: int, objective: str = "size") -> SearchResult:
    """Exact F'(n,2) (objective "size") or G'(n,2) (objective "mass").

    Partial 2-colorings avoid a rainbow strong A_2 exactly when the color
    classes are mutually comparable, hence live on a core chain; only the
    chain point levels matter, so an exact scan / Pareto DP over level
    compositions settles the extremal value.
    """
    if n < 1 or n > 40:
        raise SearchError("two_color_partial_exact supports 1 <= n <= 40")
    if objective == "size":
        v, cfg = _two_color_size(n)
        witness = _chain_config_coloring(n, _size_chain_config(n, cfg)) if n <= 16 else None
        return SearchResult(f"F'({n},2)", v + 1, "composition-DP", witness,
                            (n, n), details={"max_min": v, "blocks": cfg})
    if objective == "mass":
        scale, pts, blk = _mass_tables(n)
        seed, seed_cfg = _seed_three_point(n, pts, blk)
        v, cfg = _two_color_pareto_dp(n, pts, blk, seed)
        if cfg is None:
            v, cfg = seed, seed_cfg
        v = Fraction(v, scale)
        witness = _chain_config_coloring(n, cfg) if n <= 16 else None
        return SearchResult(f"G'({n},2)", v, "composition-DP", witness, (n, n),
                            details={"max_min_mass": _jsonable(v),
                                     "chain_config": cfg})
    raise SearchError("objective must be size or mass")


def two_color_size_dp_oracle(n: int) -> int:
    """Pareto-DP recomputation of F'(n,2)-1 with size weights (cross-check
    for the closed composition scan).  n < 0 is refused; n = 0 gives 0."""
    if n < 0:
        raise SearchError(f"two_color_size_dp_oracle needs n >= 0, got n = {n}")
    pts = [1] * (n + 1)
    blk = _interior_table(n, pts, lambda a, b: 1 << (b - a))
    seed, _ = _seed_three_point(n, pts, blk)
    v, _ = _two_color_pareto_dp(n, pts, blk, seed)
    return v


# ---------------------------------------------------------------------------
# fork-Ramsey functions g_k(r) and f_k(r)
# ---------------------------------------------------------------------------

def _max_block_len(n, lo, r):
    """Longest d with levels lo..lo+d-1 of B_n free of weak V_r: the bottom
    level's strict-superset count sum_{j=1..d-1} C(n-lo, j) stays < r."""
    m = n - lo
    total = 0   # sum_{j=1..d} C(m, j)
    for d in range(m + 1):
        if total >= r:
            return d
        total += binom(m, d + 1)
    return m + 1


def fork_can_avoid(n: int, r: int, k: int) -> bool:
    """Does some consecutive-level k-coloring of B_n avoid a weak V_r?

    Greedy maximal blocks from the bottom are optimal: the longest V_r-free
    block starting at level lo is nondecreasing in lo, so any avoiding
    composition is dominated by the greedy one.  n is capped at 64: a
    call takes up to min(k, n + 1) greedy steps, and fork_g walks n up
    from k - 1, so the cap is what bounds fork_g for a large k.  r < 1 is
    refused, as by fork_g.
    """
    if n > 64:
        raise SearchError(f"n = {n} is past the n=64 ground cap")
    if r < 1:
        raise SearchError("fork_can_avoid needs r >= 1")
    if k > n + 1:
        return False  # no composition of n+1 into k positive parts
    lo = 0
    for _ in range(k):
        lo += _max_block_len(n, lo, r)
        if lo >= n + 1:
            return True
    return False


def fork_g(r: int, k: int) -> int:
    """g_k(r): least n (with n >= k-1 so k-part colorings exist) such that
    every consecutive-level k-coloring of B_n has a monochromatic weak V_r."""
    if r < 1 or k < 1:
        raise SearchError("fork_g needs r >= 1 and k >= 1")
    n = k - 1
    while fork_can_avoid(n, r, k):
        n += 1
    return n


def fork_g_sweep(r_max: int, k: int):
    """fork_g(r, k) for every r = 1..r_max, exact, using monotonicity in r
    (avoidance only gets easier as r grows): n never has to be rescanned,
    and the r at which n is forced form a run, whose end a binary search
    finds.  k < 1 is refused, as by fork_g."""
    if k < 1:
        raise SearchError("fork_g needs r >= 1 and k >= 1")
    out = [0]
    n = k - 1
    r = 1
    while r <= r_max:
        while fork_can_avoid(n, r, k):
            n += 1
        lo, hi = r, r_max  # n is forced at lo; the last r' <= hi where it is
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if fork_can_avoid(n, mid, k):
                hi = mid - 1
            else:
                lo = mid
        out.extend(repeat(n, lo + 1 - r))  # no temporary list of the run
        r = lo + 1
    return out


def fork_f_small(r: int, k: int, n_cap: int = 4,
                 budget: int | None = 2_000_000) -> SearchResult:
    """f_k(r) = R_k(V_r) by brute force over all k-colorings (1 <= k <= 2)."""
    if not 1 <= k <= 2:
        raise SearchError(f"fork_f_small needs 1 <= k <= 2, got k = {k}")
    if r < 1:
        raise SearchError(f"fork_f_small needs r >= 1, got r = {r}")
    pattern = standard_poset("chain", 2) if r == 1 else standard_poset("fork", r)
    res = ramsey([pattern] * k, "weak", n_cap, budget)
    res.problem = f"f_{k}({r})"
    return res


# ---------------------------------------------------------------------------
# independent fork oracle over explicit level blocks
# ---------------------------------------------------------------------------

def fork_block_check_naive(n: int, lo: int, hi: int, r: int) -> bool:
    """Weak V_r inside levels lo..hi of B_n by explicit superset counting
    over the actual lattice (independent of any binomial formula)."""
    above = _cube(n).above
    block = 0
    for m in all_masks(n):
        if lo <= m.bit_count() <= hi:
            block |= 1 << m
    for m in all_masks(n):
        if lo <= m.bit_count() < hi:
            if (above[m] & block).bit_count() >= r:
                return True
    return False


def fork_can_avoid_naive(n: int, r: int, k: int) -> bool:
    """Per-composition oracle for fork_can_avoid."""
    if r < 1:
        raise SearchError("fork_can_avoid_naive needs r >= 1")
    if k > n + 1:
        return False

    def rec(lo, blocks_left):
        if lo == n + 1:
            return True
        if blocks_left == 0:
            return False
        for hi in range(lo, n + 1):
            if fork_block_check_naive(n, lo, hi, r):
                break
            if rec(hi + 1, blocks_left - 1):
                return True
        return False

    return rec(0, k)
