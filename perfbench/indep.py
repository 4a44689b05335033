"""Independent checks of the package's outputs.

Nothing here calls the package's copy search, its pattern checkers or
its mass DP.  Colorings are read as plain (mask, color) pairs, patterns
as their order relation matrix, and every judgement is recomputed from
the definitions: bitset closures over B_n, a longest-chain DP, explicit
enumeration of pairs and triples, and direct Lubell sums with exact
fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

# ---------------------------------------------------------------------------
# B_n closures: bit m of down[x] (up[x]) is set iff mask m is a subset
# (superset) of x, x itself included
# ---------------------------------------------------------------------------

_CLOSURES = {}


def closures(n):
    got = _CLOSURES.get(n)
    if got is None:
        size = 1 << n
        down = [0] * size
        for x in range(size):
            acc = 1 << x
            rest = x
            while rest:
                bit = rest & -rest
                rest ^= bit
                acc |= down[x ^ bit]
            down[x] = acc
        full = size - 1
        up = [0] * size
        for x in range(full, -1, -1):
            acc = 1 << x
            rest = full & ~x
            while rest:
                bit = rest & -rest
                rest ^= bit
                acc |= up[x | bit]
            up[x] = acc
        got = _CLOSURES[n] = (down, up)
    return got


def _class_bits(items):
    bits = {}
    for m, c in items:
        bits[c] = bits.get(c, 0) | (1 << m)
    return bits


# ---------------------------------------------------------------------------
# monochromatic patterns
# ---------------------------------------------------------------------------

def longest_chain(n, masks):
    """Length of the longest chain among masks: L[x] = [x in masks] +
    max over one-element removals of L, so L[full] is the answer."""
    inside = set(masks)
    size = 1 << n
    longest = [0] * size
    for x in range(size):
        best = 0
        rest = x
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = longest[x ^ bit]
            if v > best:
                best = v
        longest[x] = best + (1 if x in inside else 0)
    return longest[size - 1]


def is_chain(leq):
    k = len(leq)
    return all(leq[i][j] or leq[j][i] for i in range(k) for j in range(k))


def mono_copy_naive(masks, leq, strong):
    """A copy of the poset leq among masks by trying every injection
    (small classes only), or None."""
    k = len(leq)
    for images in permutations(sorted(masks), k):
        if embedding_relations_ok(leq, images, strong):
            return images
    return None


def rainbow_copy_naive(items, leq, strong):
    """A copy of the poset leq in pairwise distinct colors, by trying every
    injection (small colorings only), or None."""
    color = dict(items)
    k = len(leq)
    for images in permutations(sorted(color), k):
        if len({color[m] for m in images}) == k and embedding_relations_ok(leq, images, strong):
            return images
    return None


def avoids_mono(n, items, leq, strong):
    """No color class holds a copy of the pattern.  Chains use the
    longest-chain DP; other patterns try every injection."""
    classes = {}
    for m, c in items:
        classes.setdefault(c, []).append(m)
    for masks in classes.values():
        if is_chain(leq):
            if longest_chain(n, masks) >= len(leq):
                return False
        else:
            if len(masks) > 24:
                raise ValueError("naive copy search is for classes of at most 24 sets")
            if mono_copy_naive(masks, leq, strong) is not None:
                return False
    return True


# ---------------------------------------------------------------------------
# rainbow strong antichains
# ---------------------------------------------------------------------------

CLOSURE_MAX_N = 12   # closures of B_12 take about 8 MB; larger n compare pairs


def incomparability(n, masks):
    """inc[m] = bitset (bit x for mask x) of the masks incomparable to m."""
    masks = list(masks)
    colored = 0
    for m in masks:
        colored |= 1 << m
    if n <= CLOSURE_MAX_N:
        down, up = closures(n)
        return {m: colored & ~(down[m] | up[m]) for m in masks}
    inc = dict.fromkeys(masks, 0)
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if a & ~b and b & ~a:
                inc[a] |= 1 << b
                inc[b] |= 1 << a
    return inc


def rainbow_triple(n, items):
    """A rainbow strong A_3 by enumeration: every incomparable pair of
    distinct colors, then a bitset test for a third set incomparable to
    both in a third color.  Returns the triple or None."""
    color = dict(items)
    bits = _class_bits(items)
    inc = incomparability(n, color)
    order = sorted(color)
    for i, a in enumerate(order):
        inc_a = inc[a]
        for b in order[i + 1:]:
            if not inc_a >> b & 1 or color[a] == color[b]:
                continue
            third = inc_a & inc[b] & ~bits[color[a]] & ~bits[color[b]]
            if third:
                return (a, b, (third & -third).bit_length() - 1)
    return None


def rainbow_antichain(n, items, k):
    """A rainbow strong A_k, or None: sets are taken in level order, and
    a branch is cut when its candidates carry fewer colors than sets
    still to pick."""
    color = dict(items)
    bits = _class_bits(items)
    inc = incomparability(n, color)
    order = sorted(color, key=lambda m: (m.bit_count(), m))
    colored = 0
    for m in color:
        colored |= 1 << m
    chosen = []

    def colors_in(cand):
        return sum(1 for b in bits.values() if b & cand)

    def rec(cand):
        if len(chosen) == k:
            return True
        if colors_in(cand) < k - len(chosen):
            return False
        for m in order:
            if not cand >> m & 1:
                continue
            cand &= ~(1 << m)
            chosen.append(m)
            nxt = cand & inc[m] & ~bits[color[m]]
            if rec(nxt):
                return True
            chosen.pop()
            if colors_in(cand) < k - len(chosen):
                return False
        return False

    return tuple(chosen) if rec(colored) else None


def classes_comparable(class_a, class_b):
    """Every set of class_a is comparable to every set of class_b
    (no rainbow strong A_2 between the two classes)."""
    return all(a & ~b == 0 or b & ~a == 0 for a in class_a for b in class_b)


# ---------------------------------------------------------------------------
# embeddings returned by the package
# ---------------------------------------------------------------------------

def embedding_relations_ok(leq, images, strong):
    """images[p] is the set of pattern element p: distinct sets, p < q maps
    to a strict subset, and (strong) incomparable elements map to
    incomparable sets."""
    k = len(leq)
    if len(images) != k or len(set(images)) != k:
        return False
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            a, b = images[i], images[j]
            sub = a & ~b == 0
            if leq[i][j] and not sub:
                return False
            if strong and not leq[i][j] and not leq[j][i]:
                if sub or b & ~a == 0:
                    return False
    return True


def embedding_ok(leq, images, strong, color_of, chromatic):
    """Relations as above, every image colored, and one color (mono) or
    pairwise distinct colors (rainbow)."""
    if not embedding_relations_ok(leq, images, strong):
        return False
    colors = [color_of.get(m) for m in images]
    if any(c is None for c in colors):
        return False
    if chromatic == "mono":
        return len(set(colors)) == 1
    return len(set(colors)) == len(colors)


# ---------------------------------------------------------------------------
# Lubell masses and the two-color thresholds
# ---------------------------------------------------------------------------

def lubell_of(n, masks):
    return sum((Fraction(1, math.comb(n, m.bit_count())) for m in masks), Fraction(0))


def interior_mass(n, a, b):
    """Mass of the open block strictly between chain points on levels a < b:
    sum over a < i < b of C(b-a, i-a) / C(n, i)."""
    return sum((Fraction(math.comb(b - a, i - a), math.comb(n, i)) for i in range(a + 1, b)),
               Fraction(0))


def gprime_from_config(n, config):
    """min over the two classes of the mass a chain config gives them.
    config entries are (level, owner of the open block below, owner of
    the point); the first entry is the empty set's point."""
    mass = [Fraction(0), Fraction(0)]
    prev = None
    for lvl, blk_to, pt_to in config:
        mass[pt_to] += Fraction(1, math.comb(n, lvl))
        if blk_to is not None:
            mass[blk_to] += interior_mass(n, prev, lvl)
        elif prev is not None and lvl - prev >= 2:
            raise ValueError("an open block of dimension >= 2 has no owner")
        prev = lvl
    if config[0][0] != 0 or prev != n:
        raise ValueError("chain config must run from level 0 to level n")
    return min(mass)


def g2_lower_mass(n):
    """min class mass of the g2-lower construction: the empty set plus
    the upset of an h-set against the rest of its downset,
    h = floor(n / sqrt 2)."""
    h = math.isqrt(n * n // 2)
    up = Fraction(1) + sum((Fraction(math.comb(n - h, i - h), math.comb(n, i))
                            for i in range(h, n + 1)), Fraction(0))
    down = sum((Fraction(math.comb(h, i), math.comb(n, i)) for i in range(1, h)), Fraction(0))
    return min(up, down)


def below_one_plus_sqrt2(v):
    """v < 1 + sqrt 2, exactly."""
    d = Fraction(v) - 1
    return d < 0 or d * d < 2


def fprime2_closed_form(n):
    """F'(n,2): 2^(n/2) for even n >= 2, 2^floor(n/2) + 2 for odd n >= 5."""
    if n % 2 == 0 and n >= 2:
        return 1 << (n // 2)
    if n % 2 == 1 and n >= 5:
        return (1 << (n // 2)) + 2
    raise ValueError(f"no closed form for F'({n},2)")


def fork_g1(r):
    """g_1(r) = floor(log2 r) + 1."""
    return r.bit_length()


def entropy(c):
    return -c * math.log2(c) - (1 - c) * math.log2(1 - c)


# ---------------------------------------------------------------------------
# max-partition of maximal chains
# ---------------------------------------------------------------------------

def max_partition_enum(n, members):
    """blocks[F] = number of maximal chains whose largest member is F, by
    walking all n! chains from the top; returns (blocks, leftover)."""
    inside = set(members)
    blocks = {m: 0 for m in members}
    leftover = 0
    full = (1 << n) - 1
    for perm in permutations(range(n)):
        cur = full
        hit = cur if cur in inside else None
        for i in perm:
            if hit is not None:
                break
            cur &= ~(1 << i)
            if cur in inside:
                hit = cur
        if hit is None:
            leftover += 1
        else:
            blocks[hit] += 1
    return blocks, leftover


def maxpart_residual(n, members, blocks):
    """The mass identity lambda_n(F) - sum_F |C_F| / n! lambda_|F|(D_F cap F),
    recomputed from chain counts; exactly 0 for correct counts."""
    rhs = Fraction(0)
    for f, count in blocks.items():
        if count:
            inner = [g for g in members if g & ~f == 0]
            rhs += Fraction(count, math.factorial(n)) * lubell_of(f.bit_count(), inner)
    return lubell_of(n, members) - rhs
