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

# A tech grid of more alpha rows is refused before any row is built: the
# scan's cost follows the rows, not the points.  On a 2-CPU Xeon step 1e-5
# (50,001 rows) takes about 0.5 s per claim, step 5e-6 (100,001) about 1 s.
GRID_MAX_ROWS = 100_000

# The first pass of a scan reads every _FLOOR_STRIDE-th alpha row: its
# worst point is a floor that lets the full pass skip early rows far
# below the maximum, at a small share of the full pass's bounds.
_FLOOR_STRIDE = 32


@dataclass(frozen=True)
class GridReport:
    claim: str
    max_violation: float
    argmax: tuple
    points: int
    step: float


def _bound(check, alpha, b0, b1):
    """The claim's violation with beta at b1 in the terms that grow with
    beta and at b0 in those that fall: at b0 = b1 = beta the violation at
    (alpha, beta), and for b0 < b1 a bound on it at every beta in [b0, b1]
    (see _scan)."""
    if check == "ineq1":
        inner = -b0 * b0 + (1.0 + 2.0 * SQRT2) * b1 - 2.0
        return (b0 if inner <= 0.0 else b1) * inner
    den = 1.0 - (alpha - b0)
    inv0 = 1.0 / den if den > 0.0 else math.inf  # alpha=1, beta=0 corner
    if check == "tech-a":
        val = min(1.0 + b1 + inv0, 1.0 / alpha - 1.0 + b1)
    elif check == "tech-b":
        val = min(b1 + inv0 - 1.0, 1.0 / alpha + 1.0 + b1)
    else:
        val = min(b1 + inv0, 1.0 / alpha + b1)
    return val - (1.0 + SQRT2)


def _bisect_rows(check, grid_step, rows, floor):
    """Worst point of the given alpha rows, in scan order, among the
    points whose value is not below floor: each row's beta index range is
    bisected, left half first, and a range is skipped when its bound
    cannot beat the running worst or lies strictly below floor."""
    worst = float("-inf")
    arg = ()
    for alpha, steps_b in rows:
        stack = [(0, steps_b)]
        while stack:
            j0, j1 = stack.pop()
            b1 = min(j1 * grid_step, alpha)
            ub = _bound(check, alpha, min(j0 * grid_step, alpha), b1)
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


def _scan(check, grid_step):
    """Worst point of a grid by an exact two-pass branch and bound.

    The grid is a list of (alpha, steps_b) rows: for a tech claim one per
    alpha, for ineq1 the single row alpha = 1/2 (its argmax is (beta,)).
    Each row's beta indices [0, steps_b] are bisected on a stack, left
    half first, so the ranges that survive are met in scan order; a range
    [j0, j1] is bounded by _bound at b0 = beta_j0, b1 = beta_j1.  The
    bound holds for any index range.  IEEE 754 rounding is monotone, so
    each operation in the value is non-decreasing in each argument it
    grows with: j -> fl(j * step) and min(., alpha) are non-decreasing,
    so 0 <= b0 <= beta_j <= b1 for j0 <= j <= j1.  In a tech claim den =
    fl(1 - fl(alpha - beta)) does not decrease as beta grows, so 1/den
    (inf at den <= 0) does not increase, and inv_j <= inv0; fl(x + y),
    fl(x - c) and min are monotone in each argument.  Hence the first
    term at (beta_j, inv_j) is at most its value at (b1, inv0), the
    second term at beta_j at most its value at b1, and val_j <= ub =
    fl(min(t, u) - target) for every j in the range.  In ineq1
    fl(-b * b) does not increase and fl(c * b) does not decrease as b
    grows, so inner_j <= inner = fl(fl(-b0 * b0 + fl(c * b1)) - 2).  If
    inner <= 0, then beta_j * inner_j <= b0 * inner_j <= b0 * inner, as
    inner_j <= 0 and b0 >= 0; if inner > 0, then beta_j * inner_j <=
    beta_j * inner <= b1 * inner.  Rounding the product is monotone too,
    so val_j <= ub.  A one-index range has b0 = b1 = beta_j, so its bound
    is the point's value itself, -0.0 at ineq1's beta = 0 included.

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
    if check == "ineq1":
        half = 0.5 / grid_step
        if not math.isfinite(half):
            raise AsymptoticsError(f"ineq1 at step {grid_step!r} needs an unbounded "
                                   "grid row; use a larger step")
        rows = [(0.5, round(half))]
    else:
        a_lo, a_hi = (grid_step, 0.5) if check == "tech-a" else (0.5, 1.0)
        span = (a_hi - a_lo) / grid_step
        if span >= GRID_MAX_ROWS or round(span) + 1 > GRID_MAX_ROWS:
            raise AsymptoticsError(f"{check} at step {grid_step!r} needs more than "
                                   f"{GRID_MAX_ROWS} grid rows; use a larger step")
        rows = []
        for i in range(round(span) + 1):
            alpha = min(a_lo + i * grid_step, a_hi)
            rows.append((alpha, int(alpha / grid_step)))
        if not rows:   # tech-a past step 1
            raise AsymptoticsError(f"{check} at step {grid_step!r} has no grid point; "
                                   "use a smaller step")
    floor, _ = _bisect_rows(check, grid_step, rows[::_FLOOR_STRIDE], float("-inf"))
    worst, arg = _bisect_rows(check, grid_step, rows, floor)
    if check == "ineq1":
        arg = arg[1:]
    return GridReport(check, worst, arg, sum(s + 1 for _, s in rows), grid_step)


def inequality_grid(check: str, grid_step: float = 1e-3) -> GridReport:
    """Evaluate one closed-form claim over its stated domain on a uniform
    grid and report the worst violation (which should be <= 1e-12 slack).

    tech-a: alpha <= 1/2; tech-b, tech-c: alpha >= 1/2; all with
    0 <= beta <= alpha <= 1 and target 1 + sqrt(2).  ineq1:
    beta(-beta^2 + (1 + 2 sqrt 2) beta - 2) <= 0 for beta in [0, 1/2].

    The report is that of evaluating every grid point in order.  Every
    claim runs one scan (_scan): each alpha row's beta indices are
    bisected and a range is skipped when its bound shows it cannot hold
    the reported point, in two passes, a sample of rows first for a floor
    and then every row.  A step that is not finite and positive, a tech
    grid of no row (tech-a past step 1) or over GRID_MAX_ROWS rows, or an
    ineq1 row too long to count in a float is refused before evaluation.
    """
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise AsymptoticsError(f"grid_step must be finite and positive, got {grid_step!r}")
    if check not in dict(GRID_CLAIMS):
        raise AsymptoticsError(f"unknown check {check!r}")
    return _scan(check, grid_step)
