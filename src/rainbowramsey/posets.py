"""Finite poset patterns and copy search inside set families.

A weak copy of P in a family maps p < p' to nested sets; a strong
(induced) copy additionally keeps incomparable pairs incomparable.  A
thin copy uses at most one set per level, i.e. all image sizes differ.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import NamedTuple

from .lattice import Family, _json_int, is_subset, levels_family, order_rows


class PosetError(ValueError):
    pass


@dataclass(frozen=True)
class PosetPattern:
    """A finite poset given by its full order relation matrix."""

    size: int
    leq: tuple  # leq[i][j] True iff i <= j

    def __post_init__(self):
        k = self.size
        if len(self.leq) != k or any(len(row) != k for row in self.leq):
            raise PosetError("leq must be a size x size matrix")
        # up[i] holds the j with i <= j.  The pairs are tested in the
        # order of the per-entry triple loop (i, then each j above i
        # lowest first), so the first fault found, and its message, are
        # the same; transitivity at (i, j) is up[j] within up[i].
        weights = [1 << j for j in range(k)]
        up = [sum(compress(weights, row)) for row in self.leq]
        for i, row in enumerate(up):
            if not row >> i & 1:
                raise PosetError("leq must be reflexive")
            rest = row
            while rest:
                low = rest & -rest
                rest ^= low
                j = low.bit_length() - 1
                if i != j and up[j] >> i & 1:
                    raise PosetError("leq must be antisymmetric")
                if up[j] & ~row:
                    raise PosetError("leq must be transitive")
        # the pairs i <= j: k for an antichain, k(k+1)/2 for a chain
        object.__setattr__(self, "_related", sum(map(int.bit_count, up)))

    def less(self, i: int, j: int) -> bool:
        return i != j and self.leq[i][j]

    def comparable(self, i: int, j: int) -> bool:
        return self.leq[i][j] or self.leq[j][i]

    def is_chain(self) -> bool:
        return self._related == self.size * (self.size + 1) // 2

    def is_antichain(self) -> bool:
        return self._related == self.size

    def linear_extension(self) -> tuple:
        """Deterministic linear extension: repeatedly pop the smallest-index minimal element."""
        remaining = list(range(self.size))
        order = []
        while remaining:
            for i in remaining:
                if not any(self.less(j, i) for j in remaining):
                    order.append(i)
                    remaining.remove(i)
                    break
        return tuple(order)

    @cached_property
    def _plan(self):
        """What the copy search reads of the pattern, built once: the
        linear extension, whether the pattern is an antichain, for each
        step t of the extension the flags below[t], one per earlier step s,
        telling whether the element placed at s lies below the one placed
        at t, and twin[t], the last earlier step whose element has the same
        elements strictly below and strictly above as t's (-1 if none).
        An earlier element never lies above a later one, so a pair not
        below is incomparable."""
        order = self.linear_extension()
        strict = [[self.leq[a][b] for b in order] for a in order]
        for t, row in enumerate(strict):
            row[t] = False
        lower = list(zip(*strict))   # lower[t][s]: step s below step t
        below = tuple(col[:t] for t, col in enumerate(lower))
        last = {}
        twin = []
        for t, col in enumerate(lower):
            key = col, tuple(strict[t])
            twin.append(last.get(key, -1))
            last[key] = t
        return order, not any(map(any, below)), below, tuple(twin)

    def to_json(self) -> str:
        return json.dumps({"size": self.size, "leq": [[bool(v) for v in row] for row in self.leq]})

    @staticmethod
    def from_json(text: str) -> "PosetPattern":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise PosetError("poset JSON: not an object")
        leq = obj["leq"]
        if not isinstance(leq, list) or not all(
                isinstance(row, list) and all(type(v) is bool for v in row) for row in leq):
            raise PosetError("poset JSON: leq must be a list of rows of true/false")
        try:
            size = _json_int(obj["size"])
        except TypeError:
            raise PosetError("poset JSON: size must be an integer") from None
        return PosetPattern(size, tuple(map(tuple, leq)))


class _Kind(NamedTuple):
    letter: str     # of its name, as in C3
    extra: int      # its elements besides the parameter's
    least: int      # the least parameter
    too_small: str  # the refusal of a smaller one
    order: object   # order(param, i, j): whether element i <= element j


# the named patterns, each order in closed form
_KINDS = {
    "chain": _Kind("C", 0, 1, "chain needs size >= 1", lambda l, i, j: i <= j),
    "antichain": _Kind("A", 0, 1, "antichain needs size >= 1", lambda k, i, j: i == j),
    "fork": _Kind("V", 1, 2, "fork V_r needs r >= 2", lambda r, i, j: i in (0, j)),
    "broom": _Kind("L", 1, 2, "broom L_s needs s >= 2", lambda s, i, j: j in (i, s)),
    "gen-diamond": _Kind("D", 2, 2, "generalized diamond D_k needs k >= 2",
                         lambda k, i, j: i in (0, j) or j == k + 1),
}
# the largest named pattern: building one takes memory and time quadratic
# in its size, and a B_8, the largest cube a search reaches, holds 256
# sets
_PATTERN_SIZE_MAX = 256


def standard_poset(kind: str, param: int) -> PosetPattern:
    """Named patterns: chain C_l, antichain A_k, fork V_r, broom L_s, gen-diamond D_k.

    The fork V_r is one bottom below r incomparable tops; the broom L_s is
    s incomparable bottoms below one top; D_k is a < b_1..b_k < c.  Each
    kind is one row of _KINDS, its order in closed form.  A pattern of
    more than _PATTERN_SIZE_MAX elements is refused before it is built.
    """
    if kind not in _KINDS:
        raise PosetError(f"unknown standard poset kind {kind!r}")
    spec = _KINDS[kind]
    size = param + spec.extra
    if size > _PATTERN_SIZE_MAX:
        raise PosetError(f"a {kind} of {size} elements is refused: "
                         f"patterns have at most {_PATTERN_SIZE_MAX}")
    if param < spec.least:
        raise PosetError(spec.too_small)
    elements = range(size)
    return PosetPattern(size, tuple(tuple([spec.order(param, i, j) for j in elements])
                                    for i in elements))


_NAME_RE = re.compile(r"([A-Z])(\d+)")


def poset_by_name(name: str) -> PosetPattern:
    """Parse names like C3, A4, V2, L3, D2."""
    m = _NAME_RE.fullmatch(name.strip())
    kind = next((kind for kind, spec in _KINDS.items() if m and spec.letter == m[1]), None)
    if kind is None:
        raise PosetError(f"cannot parse poset name {name!r}")
    return standard_poset(kind, int(m[2]))


# the copy modes every API call and CLI mode flag accepts
MODES = ("weak", "strong")


def _check_mode(mode):
    if mode not in MODES:
        raise PosetError(f"mode must be {' or '.join(MODES)}, got {mode!r}")


@dataclass(frozen=True)
class Embedding:
    """An injective copy of a pattern: images[p] is the set assigned to element p."""

    images: tuple
    mode: str
    thin: bool = False


# ---------------------------------------------------------------------------
# copy search
# ---------------------------------------------------------------------------

def _search_embedding(members, pattern: PosetPattern, mode: str, thin: bool,
                      color_of=None):
    """Backtracking search for a copy of pattern among members, or None.

    When color_of is given, images must additionally carry pairwise
    distinct colors (the rainbow constraint).  Pattern elements are placed
    in the pattern's linear extension.  The candidates for the next one
    are a bitset over member positions: the AND of the up rows
    (lattice.order_rows) of the images below it and, in strong mode, of
    the incomparability rows of the other images, less the positions
    used and those sharing a color (a level, when thin) with an image.
    They are walked lowest position first, so the copy returned is the
    first in member order.  Interchangeable elements (twins: the same
    elements strictly below and strictly above) take increasing
    positions: swapping two twins' images keeps a copy a copy, so the
    first copy has them in order.  Returns the image tuple, indexed by
    pattern element.
    """
    order, antichain, below, twin = pattern._plan
    k = len(order)
    if k > len(members):
        return None
    strong = mode == "strong"
    # block[i]: the positions an image at position i rules out, itself
    # and every position of its color (level, when thin) included
    block = None
    for key in (color_of, int.bit_count if thin else None):
        if key is None:
            continue
        same = {}
        keys = [key(x) for x in members]
        for i, v in enumerate(keys):
            same[v] = same.get(v, 0) | 1 << i
        if len(same) < k:
            return None  # fewer than k colors (levels) for k distinct ones
        rows = [same[v] for v in keys]
        block = rows if block is None else [a | b for a, b in zip(block, rows)]
    rowed = strong or not antichain   # later steps read the images' rows
    if rowed:
        up, down = order_rows(members)
    everyone = (1 << len(members)) - 1
    last = k - 1
    images = [0] * k
    ups = [0] * k
    incs = [0] * k

    def place(t, used):
        if t == k:
            return True
        cand = everyone & ~used
        if twin[t] >= 0:
            cand &= -(2 << images[twin[t]])
        for s, lower in enumerate(below[t]):
            if lower:
                cand &= ups[s]
            elif strong:
                cand &= incs[s]
        while cand:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            images[t] = i
            if rowed and t < last:
                x = members[i]
                u = ups[t] = up(x)
                if strong:
                    incs[t] = everyone & ~(u | down(x))
            if place(t + 1, used | (low if block is None else block[i])):
                return True
        return False

    if not place(0, 0):
        return None
    out = [None] * k
    for p, i in zip(order, images):
        out[p] = members[i]
    return tuple(out)


def _chain_copy(members, pattern: PosetPattern):
    """The copy of the chain pattern that _search_embedding returns, found
    by up-heights over member-index bitsets instead of backtracking.

    A strict chain is strong and thin, so mode and thin do not matter.
    The strict supersets of member i are the members containing members[i]
    (lattice.order_rows), less i itself; they all come after i in
    canonical order.  layers[j] is the bitset of the members that head an
    upward chain of more than j members (heights capped at the pattern
    size).  The backtracking answer is the lexicographically first index
    chain, so each step takes the lowest superset of the previous image
    that still heads a long enough chain.
    """
    l = pattern.size
    if l == 0:
        return ()
    up, _ = order_rows(members)

    def supersets(i):
        return up(members[i]) ^ 1 << i

    layers = [0] * l
    for i in range(len(members) - 1, -1, -1):
        above = supersets(i)
        h = 1
        while h < l and above & layers[h - 1]:
            h += 1
        bit = 1 << i
        for j in range(h):
            layers[j] |= bit
    if not layers[-1]:
        return None
    images = [None] * l
    heads = layers[-1]
    for t, p in enumerate(pattern._plan[0]):
        i = (heads & -heads).bit_length() - 1
        images[p] = members[i]
        if t + 1 < l:
            heads = supersets(i) & layers[l - t - 2]
    return tuple(images)


def _no_room(members, pattern: PosetPattern) -> bool:
    """True when some pattern element has more elements below (or above)
    it than every member has members strictly below (above) it.  The
    images of the elements below an element are distinct members strictly
    below its image in every mode, so then no copy exists."""
    k = range(pattern.size)
    below = max(sum(pattern.less(i, j) for i in k) for j in k)
    above = max(sum(pattern.less(j, i) for i in k) for j in k)
    # members come in level order: the last have the most members below
    return (not any(sum(y & ~x == 0 for y in members) > below for x in reversed(members))
            or not any(sum(x & ~y == 0 for y in members) > above for x in members))


def find_copy(host: Family, pattern: PosetPattern, mode: str = "weak",
              thin: bool = False):
    """First weak/strong (optionally thin) copy of pattern in host, or None.

    Deterministic: pattern elements are processed in a fixed linear
    extension and candidates in the family's canonical order, so the
    returned witness is reproducible.  Chain patterns are decided by
    up-heights over member bitsets (_chain_copy) and return the same copy.
    Other patterns that are no antichain first go through _no_room, which
    refuses a host whose members have too few members below or above.
    """
    _check_mode(mode)
    if pattern.size > len(host):
        return None
    if pattern.is_chain():
        images = _chain_copy(host.members, pattern)
    elif not pattern.is_antichain() and _no_room(host.members, pattern):
        return None
    else:
        images = _search_embedding(host.members, pattern, mode, thin)
    if images is None:
        return None
    return Embedding(images, mode, thin)


def find_copy_naive(host: Family, pattern: PosetPattern, mode: str = "weak",
                    thin: bool = False):
    """All-injections oracle for find_copy (tiny instances only)."""
    from itertools import permutations

    strong = mode == "strong"
    k = pattern.size
    for images in permutations(host.members, k):
        ok = True
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                if pattern.less(i, j):
                    if not is_subset(images[i], images[j]) or images[i] == images[j]:
                        ok = False
                        break
                elif strong and not pattern.less(j, i):
                    if is_subset(images[i], images[j]) or is_subset(images[j], images[i]):
                        ok = False
                        break
            if not ok:
                break
        if ok and thin:
            sizes = [m.bit_count() for m in images]
            ok = len(set(sizes)) == k
        if ok:
            return Embedding(images, mode, thin)
    return None


# ---------------------------------------------------------------------------
# structural and extremal parameters
# ---------------------------------------------------------------------------

def structural_params(pattern: PosetPattern) -> dict:
    """Connectivity of the comparability graph and the extreme-element index f.

    f = 0 if the pattern has both a unique largest and a unique smallest
    element, f = 2 if it has neither, f = 1 otherwise.
    """
    k = pattern.size
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(k):
            if j not in seen and i != j and pattern.comparable(i, j):
                seen.add(j)
                stack.append(j)
    connected = len(seen) == k
    has_max = any(all(pattern.leq[j][i] for j in range(k)) for i in range(k))
    has_min = any(all(pattern.leq[i][j] for j in range(k)) for i in range(k))
    f = 0 if (has_max and has_min) else (2 if not (has_max or has_min) else 1)
    return {"connected": connected, "f": f}


@dataclass(frozen=True)
class PosetParams:
    """Search-derived parameters; None means the search cap was too small
    to pin the value (the truth is >= cap, never guessed)."""

    connected: bool
    f: int
    m_weak: int | None
    m_strong: int | None
    r_star: int | None
    e_estimate: int | None
    e_star_estimate: int | None
    n_cap: int
    provenance: dict = field(compare=False, default_factory=dict)


def _cube_families(n_cap):
    return [Family.whole_cube(n) for n in range(n_cap + 1)]


def _max_cube_without(cubes, pattern, mode, thin=False):
    """Largest m <= cap with no copy in B_m, or None if every B_m <= cap is copy-free.

    Copy existence is monotone in m (a subcube embedding preserves both
    relations and level structure), so the first hit settles the value.
    """
    for m, cube in enumerate(cubes):
        if find_copy(cube, pattern, mode, thin) is not None:
            return m - 1
    return None


def _level_window_estimate(pattern, mode, n_cap):
    """The largest m with all m consecutive levels of B_{n_cap}
    pattern-free, or None when no window of B_{n_cap} hosts a copy.

    A copy in levels lo..lo+m-1 of B_n is one in the same levels of
    B_{n+1}, so the first window size hosting a copy never grows with n:
    this is the minimum of the value over n <= n_cap, cubes where no
    window hosts a copy constraining nothing.
    """
    for m in range(1, n_cap + 2):
        for lo in range(n_cap - m + 2):
            if find_copy(levels_family(n_cap, lo, lo + m - 1), pattern, mode) is not None:
                return m - 1
    return None


def extremal_params(pattern: PosetPattern, n_cap: int = 6) -> PosetParams:
    """Exhaustively computed m(P), m*(P), r*(P) up to n_cap, plus e-estimates.

    e_estimate / e_star_estimate are upper bounds on e(P), e*(P) from
    level windows of small cubes; they are exact (and flagged so) for
    chains, where e(C_l) = e*(C_l) = l - 1.
    """
    if n_cap < 1 or n_cap > 7:
        raise PosetError("extremal_params supports 1 <= n_cap <= 7")
    cubes = _cube_families(n_cap)
    sp = structural_params(pattern)
    m_weak = _max_cube_without(cubes, pattern, "weak")
    m_strong = _max_cube_without(cubes, pattern, "strong")
    r_star = _max_cube_without(cubes, pattern, "strong", thin=True)
    prov = {}
    if pattern.is_chain():
        e_est = e_star_est = pattern.size - 1
        prov["e"] = prov["e_star"] = "wired: chain"
    else:
        e_est, prov["e"] = _level_window_estimate(pattern, "weak", n_cap), "estimate"
        e_star_est, prov["e_star"] = _level_window_estimate(pattern, "strong", n_cap), "estimate"
    return PosetParams(sp["connected"], sp["f"], m_weak, m_strong, r_star,
                       e_est, e_star_est, n_cap, prov)
