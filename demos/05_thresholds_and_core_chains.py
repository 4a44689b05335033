#!/usr/bin/env python3
"""Core chains, and the exact threshold functions F, F', G' they make
computable far beyond a search over colorings.
"""

import math
from rainbowramsey.lattice import Family, set_repr
from rainbowramsey.corechain import comparability, core_chain, validate_core_chain
from rainbowramsey.search import threshold_F, two_color_partial_exact

print("=" * 70)
print("Core chains for mutually comparable families")
print("=" * 70)
f1 = Family.make(4, [0b0001, 0b0011, 0b1111])
f2 = Family.make(4, [0b0111])
print(f"families: {[set_repr(m) for m in f1]} and {[set_repr(m) for m in f2]}")
print(f"mutually comparable: {comparability([f1, f2])}")
cc = core_chain([f1, f2])
print(f"core chain: {' <= '.join(set_repr(m) for m in cc.chain)}")
print(f"open-block owners: {cc.block_owner}")
print(f"validates: {bool(validate_core_chain(cc, [f1, f2]))}")

print()
print("=" * 70)
print("F'(n,2): the size threshold forcing a rainbow strong A_2")
print("=" * 70)
print("branch and bound over colorings (n <= 4) vs the composition scan (any n <= 40):")
for n in (2, 3, 4):
    res = threshold_F(n, 2, partial=True)
    dp = two_color_partial_exact(n, "size").value
    print(f"  n={n}: search {res.value} ({res.details['nodes']} nodes) == scan {dp}")
print("closed-form window 2^(n/2) (even) and 2^(n//2)+2 (odd):")
for n in range(4, 13):
    res = two_color_partial_exact(n, "size")
    print(f"  F'({n:2d},2) = {res.value:5d}   extremal blocks (low,high,glue) = {res.details['blocks']}")
print(f"and far beyond enumeration: F'(40,2) = {two_color_partial_exact(40, 'size').value}")

print()
print("=" * 70)
print("total colorings: F(n,2) and F(n,3) by branch and bound")
print("=" * 70)
for n in (2, 3, 4):
    f2v = threshold_F(n, 2, partial=False).value
    f3v = threshold_F(n, 3, partial=False).value
    print(f"  F({n},2) = {f2v},  F({n},3) = {f3v}")

print()
print("=" * 70)
print("G'(n,2): the exact Lubell-mass threshold (Pareto DP over level chains)")
print("=" * 70)
target = 1 + math.sqrt(2)
for n in (8, 12, 16, 20, 24):
    v = two_color_partial_exact(n, "mass").value
    print(f"  G'({n:2d},2) = {str(v):14s} = {float(v):.6f}   (1+sqrt2 - value = {target - float(v):+.4f})")
print("the exact values climb toward the limit 1 + sqrt(2) = 2.414214 from below")
