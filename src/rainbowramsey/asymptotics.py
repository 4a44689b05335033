"""Binary entropy, the fork-Ramsey growth constants, the rainbow-antichain
bound calculator, and numeric grid checks of the closed-form inequalities.

All logarithms are base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .lubell import binom

SQRT2 = math.sqrt(2.0)


class AsymptoticsError(ValueError):
    pass


def binary_entropy(c: float) -> float:
    """h(c) = -c log2 c - (1-c) log2 (1-c) on (0, 1)."""
    if not 0.0 < c < 1.0:
        raise AsymptoticsError(f"binary_entropy needs 0 < c < 1, got {c}")
    return -c * math.log2(c) - (1.0 - c) * math.log2(1.0 - c)


@dataclass(frozen=True)
class EntropyConstants:
    """Solutions c_1 < c_2 < ... of c_{k+1} h((c_{k+1} - c_k)/c_{k+1}) = 1."""

    c: tuple
    residuals: tuple
    tol: float


def _step_residual(c_next, c_prev):
    return abs(c_next * binary_entropy((c_next - c_prev) / c_next) - 1.0)


# A larger k_max is refused before any step.  The default tol already
# fails past k = 6,477, and c_sequence(10_000, 1e-6) takes under 0.3 s.
C_SEQUENCE_MAX_K = 10_000


def c_sequence(k_max: int, tol: float = 1e-12) -> EntropyConstants:
    """Solve the growth-constant recurrence by bisection.

    c -> c * h((c - c_k)/c) increases from 0 to above 1 on (c_k, c_k + 4]
    (write it as c_k * h(t)/t with t = c_k/c; h(t)/t is strictly
    decreasing), so bisection on that bracket is safe.  c_1 = 1 exactly.
    k_max above C_SEQUENCE_MAX_K is refused.
    """
    if k_max < 1:
        raise AsymptoticsError("k_max must be >= 1")
    if k_max > C_SEQUENCE_MAX_K:
        raise AsymptoticsError(f"k_max must be <= {C_SEQUENCE_MAX_K}, got {k_max}")
    if not math.isfinite(tol):
        raise AsymptoticsError(f"tol must be finite, got {tol!r}")
    if tol < 1e-14:
        raise AsymptoticsError("tol below 1e-14 is not resolvable in doubles")
    cs = [1.0]
    residuals = [0.0]
    for _ in range(k_max - 1):
        prev = cs[-1]
        lo, hi = prev + 1e-9, prev + 4.0

        def g(c):
            return c * binary_entropy((c - prev) / c) - 1.0

        if g(lo) >= 0.0 or g(hi) <= 0.0:
            raise AsymptoticsError("bisection bracket failed (solver bug)")
        for _it in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if g(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        res = _step_residual(root, prev)
        if res >= tol:
            raise AsymptoticsError(f"residual {res} above tol {tol}")
        cs.append(root)
        residuals.append(res)
    return EntropyConstants(tuple(cs), tuple(residuals), tol)


# ---------------------------------------------------------------------------
# the strong rainbow-antichain upper bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundInputs:
    """Inputs for the RR*(P, A_k) bound; the mass supremum lambda*_max(P)
    has no general algorithm and must be supplied with its provenance."""

    k: int
    lambda_star_max: object        # float or Fraction
    e_star: int | None = None
    not_c1_c2: bool = False
    provenance: str = "user"

    def __post_init__(self):
        if self.e_star is not None and self.lambda_star_max < self.e_star:
            raise AsymptoticsError("lambda*_max must be >= e*(P)")


def min_middle_binomial_dim(k: int) -> int:
    """m_k = least m with C(m, floor(m/2)) >= k."""
    if k < 1:
        raise AsymptoticsError("k must be >= 1")
    m = 0
    while binom(m, m // 2) < k:
        m += 1
    return m


def rainbow_antichain_bound(inputs: BoundInputs) -> dict:
    """Upper bound floor((k-1) lambda*_max) + m_k for RR*(P, A_k), plus the
    sharper floor(2 lambda*_max) + 2 at k = 3 when P is neither C_1 nor C_2."""
    if inputs.k < 2:
        raise AsymptoticsError("rainbow_antichain_bound needs k >= 2")
    lam = inputs.lambda_star_max
    lam_frac = lam if isinstance(lam, Fraction) else Fraction(lam)
    m_k = min_middle_binomial_dim(inputs.k)
    out = {
        "k": inputs.k,
        "m_k": m_k,
        "bound": int(math.floor((inputs.k - 1) * lam_frac)) + m_k,
        "provenance": inputs.provenance,
    }
    if inputs.k == 3 and inputs.not_c1_c2:
        out["bound_sharp"] = int(math.floor(2 * lam_frac)) + 2
    return out


# ---------------------------------------------------------------------------
# grid checks of the closed-form inequalities
# ---------------------------------------------------------------------------

# The default grid claims, each with its default step: the inequalities
# subcommand, criterion 12 and demo 06 all read this table.
GRID_CLAIMS = (("tech-a", 1e-3), ("tech-b", 1e-3), ("tech-c", 1e-3), ("ineq1", 1e-4))

# A grid of more points is refused before any evaluation.  Step 1e-4, the
# finest default, gives 37.5M points on tech-b and tech-c.
GRID_MAX_POINTS = 50_000_000
# ineq1 evaluates every point (about 0.5 us each, where the tech scans
# bound whole index ranges, a few thousand bounds per grid at step
# 1e-3), so its grids have a cap of their own: 5M points, a few seconds.
_INEQ1_MAX_POINTS = 5_000_000

# The first pass of a tech scan reads every _FLOOR_STRIDE-th alpha row:
# its worst point is a floor that lets the full pass skip early rows far
# below the maximum, at a small share of the full pass's bounds.
_FLOOR_STRIDE = 32


@dataclass(frozen=True)
class GridReport:
    claim: str
    max_violation: float
    argmax: tuple
    points: int
    step: float


def _ineq1_value(beta):
    return beta * (-beta * beta + (1.0 + 2.0 * SQRT2) * beta - 2.0)


def _tech_bound(check, alpha, b0, b1):
    """The tech claim's expressions with beta at b1 but the inverse taken
    at b0: at b0 = b1 = beta the value at (alpha, beta), and for b0 < b1
    a bound on the value at every beta in [b0, b1] (see _tech_scan)."""
    den = 1.0 - (alpha - b0)
    inv0 = 1.0 / den if den > 0.0 else math.inf  # alpha=1, beta=0 corner
    if check == "tech-a":
        return min(1.0 + b1 + inv0, 1.0 / alpha - 1.0 + b1)
    if check == "tech-b":
        return min(b1 + inv0 - 1.0, 1.0 / alpha + 1.0 + b1)
    return min(b1 + inv0, 1.0 / alpha + b1)


def _refuse_points(check, grid_step, cap=GRID_MAX_POINTS):
    raise AsymptoticsError(f"{check} at step {grid_step!r} needs more than "
                           f"{cap} grid points; use a larger step")


def _bisect_rows(check, grid_step, rows, floor):
    """Worst point of the given alpha rows, in scan order, among the
    points whose value is not below floor: each row's beta index range is
    bisected, left half first, and a range is skipped when its bound
    cannot beat the running worst or lies strictly below floor."""
    target = 1.0 + SQRT2
    worst = float("-inf")
    arg = ()
    for alpha, steps_b in rows:
        stack = [(0, steps_b)]
        while stack:
            j0, j1 = stack.pop()
            b1 = min(j1 * grid_step, alpha)
            ub = _tech_bound(check, alpha, min(j0 * grid_step, alpha), b1) - target
            if ub <= worst or ub < floor:
                continue
            if j0 == j1:
                worst = ub
                arg = (alpha, b1)
                continue
            mid = (j0 + j1) // 2
            stack.append((mid + 1, j1))
            stack.append((j0, mid))
    return worst, arg


def _tech_scan(check, grid_step):
    """Worst point of a tech grid by an exact two-pass branch and bound.

    Each alpha row's beta indices [0, steps_b] are bisected on a stack,
    left half first, so the ranges that survive are met in scan order; a
    range [j0, j1] is bounded by _tech_bound at b0 = beta_j0, b1 =
    beta_j1.  The bound holds for any index range.  IEEE 754 rounding is
    monotone, so each operation in the value is non-decreasing in each
    argument it grows with: j -> fl(j * step) and min(., alpha) are
    non-decreasing, so b0 <= beta_j <= b1 for j0 <= j <= j1; den =
    fl(1 - fl(alpha - beta)) does not decrease as beta grows, so 1/den
    (inf at den <= 0) does not increase, and inv_j <= inv0; fl(x + y),
    fl(x - c) and min are monotone in each argument.  Hence the first
    term at (beta_j, inv_j) is at most its value at (b1, inv0), the
    second term at beta_j at most its value at b1, and val_j <= ub =
    fl(min(t, u) - target) for every j in the range.  A one-index range
    has b0 = b1 = beta_j, so its bound is the point's value itself.

    The per-point scan takes a point only when val > worst, so a range
    with ub <= worst holds no point it would take.  The first pass runs
    the same scan over every _FLOOR_STRIDE-th row; its worst is the value
    of a grid point, a floor at most the grid's maximum M.  The full pass
    over every row in order also skips a range with ub < floor: each of
    its points is below M, so none is the first point of value M, which
    the per-point scan reports, and every range holding that point has
    ub >= M >= floor and ub > worst.  The comparison with the floor must
    stay strict, as the first pass may have found that very point (tech-c
    at (0.5, 0.0)).  So max_violation and argmax are bit-identical to
    evaluating every point in order.
    """
    a_lo, a_hi = (grid_step, 0.5) if check == "tech-a" else (0.5, 1.0)
    if (a_hi - a_lo) / grid_step > GRID_MAX_POINTS:
        _refuse_points(check, grid_step)
    rows = []
    points = 0
    for i in range(int(round((a_hi - a_lo) / grid_step)) + 1):
        alpha = min(a_lo + i * grid_step, a_hi)
        steps_b = int(alpha / grid_step)
        points += steps_b + 1
        if points > GRID_MAX_POINTS:
            _refuse_points(check, grid_step)
        rows.append((alpha, steps_b))
    floor, _ = _bisect_rows(check, grid_step, rows[::_FLOOR_STRIDE], float("-inf"))
    worst, arg = _bisect_rows(check, grid_step, rows, floor)
    return GridReport(check, worst, arg, points, grid_step)


def inequality_grid(check: str, grid_step: float = 1e-3) -> GridReport:
    """Evaluate one closed-form claim over its stated domain on a uniform
    grid and report the worst violation (which should be <= 1e-12 slack).

    tech-a: alpha <= 1/2; tech-b, tech-c: alpha >= 1/2; all with
    0 <= beta <= alpha <= 1 and target 1 + sqrt(2).  ineq1:
    beta(-beta^2 + (1 + 2 sqrt 2) beta - 2) <= 0 for beta in [0, 1/2].

    The report is that of evaluating every grid point in order.  The tech
    grids bisect each alpha row's beta indices and skip a range whose
    bound shows it cannot hold the reported point, in two passes: a
    sample of rows first for a floor, then every row (_tech_scan).  A step that
    is not finite and positive, or a grid of more than GRID_MAX_POINTS
    points (ineq1: _INEQ1_MAX_POINTS), is refused before any evaluation.
    """
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise AsymptoticsError(f"grid_step must be finite and positive, got {grid_step!r}")
    if check in ("tech-a", "tech-b", "tech-c"):
        return _tech_scan(check, grid_step)
    if check != "ineq1":
        raise AsymptoticsError(f"unknown check {check!r}")
    half = 0.5 / grid_step
    if half > _INEQ1_MAX_POINTS or round(half) + 1 > _INEQ1_MAX_POINTS:
        _refuse_points(check, grid_step, _INEQ1_MAX_POINTS)
    worst = float("-inf")
    arg = ()
    points = 0
    steps = int(round(half))
    for i in range(steps + 1):
        beta = min(i * grid_step, 0.5)
        val = _ineq1_value(beta)
        points += 1
        if val > worst:
            worst = val
            arg = (beta,)
    return GridReport(check, worst, arg, points, grid_step)
