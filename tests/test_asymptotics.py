import math
import random
from fractions import Fraction

import pytest

from rainbowramsey import asymptotics
from rainbowramsey.asymptotics import (
    GRID_CLAIMS,
    AsymptoticsError,
    BoundInputs,
    GridReport,
    binary_entropy,
    c_sequence,
    rainbow_antichain_bound,
    inequality_grid,
    min_middle_binomial_dim,
)
from rainbowramsey.search import fork_g, two_color_partial_exact
from rainbowramsey.colorings import g2_lower_coloring
from rainbowramsey.lubell import lubell_mass


def test_entropy_values_and_symmetry():
    assert binary_entropy(0.5) == 1.0
    assert abs(binary_entropy(1 / 3) - 0.9183) < 1e-4
    rng = random.Random(1)
    for _ in range(50):
        c = rng.uniform(1e-6, 1 - 1e-6)
        assert abs(binary_entropy(c) - binary_entropy(1 - c)) < 1e-12
    with pytest.raises(AsymptoticsError):
        binary_entropy(0.0)
    with pytest.raises(AsymptoticsError):
        binary_entropy(1.5)


def test_c_sequence_contract():
    ec = c_sequence(10, 1e-12)
    assert ec.c[0] == 1.0
    assert 1.29 < ec.c[1] < 1.30
    assert all(r < 1e-12 for r in ec.residuals)
    assert all(a < b for a, b in zip(ec.c, ec.c[1:]))
    with pytest.raises(AsymptoticsError):
        c_sequence(0)
    with pytest.raises(AsymptoticsError):
        c_sequence(3, 1e-16)
    # a residual is never >= nan, and nan or inf is no JSON number
    for tol in (math.nan, math.inf, -math.inf):
        with pytest.raises(AsymptoticsError, match="tol must be finite"):
            c_sequence(3, tol)


def test_c_sequence_refuses_k_max_past_cap(monkeypatch):
    from rainbowramsey import asymptotics

    def stepped(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(asymptotics, "binary_entropy", stepped)
    for k_max in (10_001, 10**8):
        with pytest.raises(AsymptoticsError, match="k_max must be <= 10000"):
            c_sequence(k_max, 1e-6)


def test_c_sequence_residual_definition():
    ec = c_sequence(4, 1e-12)
    for k in range(1, 4):
        c_prev, c_next = ec.c[k - 1], ec.c[k]
        lhs = c_next * binary_entropy((c_next - c_prev) / c_next)
        assert abs(lhs - 1.0) < 1e-12


def test_m_k_scan():
    assert min_middle_binomial_dim(2) == 2
    assert min_middle_binomial_dim(3) == 3
    assert min_middle_binomial_dim(4) == 4
    assert min_middle_binomial_dim(6) == 4
    assert min_middle_binomial_dim(7) == 5
    assert min_middle_binomial_dim(10**19) == 67
    assert min_middle_binomial_dim(10**30) == 104


def test_rainbow_antichain_bound_chain_instance():
    # chain C_3 is uniformly induced Lubell-bounded with e* = lambda*_max = 2
    out = rainbow_antichain_bound(BoundInputs(3, 2, e_star=2, not_c1_c2=True,
                                      provenance="wired: chain"))
    assert out["m_k"] == 3
    assert out["bound"] == 2 * 2 + 3
    assert out["bound_sharp"] == 2 + 2 * 2  # the RR*(P,A_3) = 2 + 2e*(P) value
    out2 = rainbow_antichain_bound(BoundInputs(2, Fraction(3, 2)))
    assert out2["m_k"] == 2 and out2["bound"] == 1 + 2
    with pytest.raises(AsymptoticsError):
        rainbow_antichain_bound(BoundInputs(1, 2))
    with pytest.raises(AsymptoticsError):
        BoundInputs(3, 1, e_star=2)


def test_inequality_grids_hold():
    # reports measured with the per-point scan; they must stay bit-identical
    pinned = {
        "tech-a": (-0.0007841838420215019, (0.293, 0.001), 125750),
        "tech-b": (-0.0007841838420215019, (0.708, 0.001), 376187),
        "tech-c": (-0.4142135623730949, (0.5, 0.0), 376187),
        "ineq1": (-0.0, (0.0,), 5001),
    }
    for check, step in (("tech-a", 1e-3), ("tech-b", 1e-3), ("tech-c", 1e-3),
                        ("ineq1", 1e-4)):
        rep = inequality_grid(check, step)
        assert rep.max_violation <= 1e-12
        assert repr((rep.max_violation, rep.argmax, rep.points)) == repr(pinned[check])
        assert rep.claim == check and rep.step == step


def _literal_tech_grid(check, grid_step):
    """The per-point scan: every grid point through the closed-form min,
    updating the worst on strict >.  Reference for the bounded scan."""
    target = 1.0 + math.sqrt(2.0)
    worst = float("-inf")
    arg = ()
    points = 0
    a_lo, a_hi = (grid_step, 0.5) if check == "tech-a" else (0.5, 1.0)
    steps_a = int(round((a_hi - a_lo) / grid_step))
    for i in range(steps_a + 1):
        alpha = min(a_lo + i * grid_step, a_hi)
        steps_b = int(alpha / grid_step)
        for j in range(steps_b + 1):
            beta = min(j * grid_step, alpha)
            den = 1.0 - (alpha - beta)
            inv = 1.0 / den if den > 0.0 else math.inf
            if check == "tech-a":
                val = min(1.0 + beta + inv, 1.0 / alpha - 1.0 + beta)
            elif check == "tech-b":
                val = min(beta + inv - 1.0, 1.0 / alpha + 1.0 + beta)
            else:
                val = min(beta + inv, 1.0 / alpha + beta)
            val -= target
            points += 1
            if val > worst:
                worst = val
                arg = (alpha, beta)
    return GridReport(check, worst, arg, points, grid_step)


def _seeded_grid_steps():
    # log-uniform, so that about half the steps give rows longer than a
    # bounded block; 1e-3 is the default, 0.5 and 1.0 give one-point rows
    rng = random.Random(20251018)
    steps = [math.exp(rng.uniform(math.log(2e-3), math.log(0.5))) for _ in range(48)]
    return [1e-3, *steps, 0.5, 1.0]


@pytest.mark.parametrize("check", ["tech-a", "tech-b", "tech-c"])
def test_tech_grid_matches_literal_scan(check):
    # and two steps below the 2e-3 floor of the seeded ones
    for step in [*_seeded_grid_steps(), 7e-4, 1.3e-3]:
        assert repr(inequality_grid(check, step)) == repr(_literal_tech_grid(check, step)), step


def test_tech_grids_pinned_at_step_1e_4():
    # recorded with the 32-point block scan, bit-identical to the literal
    # scan, which is too slow at 37.5M points to run here
    pinned = {
        "tech-a": "GridReport(claim='tech-a', max_violation=-7.904547312920229e-05, "
                  "argmax=(0.2929, 0.0), points=12506560, step=0.0001)",
        "tech-b": "GridReport(claim='tech-b', max_violation=-7.904547312831411e-05, "
                  "argmax=(0.7071000000000001, 0.0), points=37511388, step=0.0001)",
        "tech-c": "GridReport(claim='tech-c', max_violation=-0.4142135623730949, "
                  "argmax=(0.5, 0.0), points=37511388, step=0.0001)",
    }
    for check, text in pinned.items():
        assert repr(inequality_grid(check, 1e-4)) == text


def _literal_ineq1_grid(grid_step):
    """The per-point ineq1 scan over beta in [0, 1/2], updating the worst
    on strict >.  Reference for the bounded scan."""
    worst = float("-inf")
    arg = ()
    points = 0
    for i in range(int(round(0.5 / grid_step)) + 1):
        beta = min(i * grid_step, 0.5)
        val = beta * (-beta * beta + (1.0 + 2.0 * math.sqrt(2.0)) * beta - 2.0)
        points += 1
        if val > worst:
            worst = val
            arg = (beta,)
    return GridReport("ineq1", worst, arg, points, grid_step)


def test_ineq1_grid_matches_literal_scan():
    # 2.5e-7 gives a row of 2,000,001 points
    for step in [*_seeded_grid_steps(), 1e-4, 2.5e-7]:
        assert repr(inequality_grid("ineq1", step)) == repr(_literal_ineq1_grid(step)), step


def test_tech_scan_bound_calls(monkeypatch):
    # the work, pinned without timing: bound evaluations at step 1e-3
    # (the 32-point block scan made 27,658, 19,391 and 12,631; the
    # bisection scan makes 1,764, 3,099 and 3,759), and for ineq1 at
    # step 1e-4 54 against its 5,001 points
    calls = []

    def counted(*args):
        calls.append(args)
        return bound(*args)

    bound = asymptotics._bound
    monkeypatch.setattr(asymptotics, "_bound", counted)
    for check, step, limit in (("tech-a", 1e-3, 2_000), ("tech-b", 1e-3, 3_500),
                               ("tech-c", 1e-3, 4_000), ("ineq1", 1e-4, 64)):
        calls.clear()
        inequality_grid(check, step)
        assert len(calls) <= limit, (check, len(calls))


def test_grid_refusals_before_any_bound(monkeypatch):
    # a tech grid past GRID_MAX_ROWS rows, and a step whose ineq1 row
    # 0.5 / step overflows, are refused before any evaluation
    def evaluated(*args):
        raise AssertionError("bound evaluated")

    monkeypatch.setattr(asymptotics, "_bound", evaluated)
    refused = [("tech-a", 1e-7), ("tech-b", 5e-6)]
    refused += [(check, 5e-324) for check, _ in GRID_CLAIMS]
    for check, step in refused:
        with pytest.raises(AsymptoticsError, match="grid row"):
            inequality_grid(check, step)


def test_empty_grid_refused_before_any_bound(monkeypatch):
    # tech-a past step 1 has no alpha row: a report of -inf over no
    # points would pass any <= 1e-12 test
    def evaluated(*args):
        raise AssertionError("bound evaluated")

    monkeypatch.setattr(asymptotics, "_bound", evaluated)
    for step in (1.0000001, 2.0, 10.0, 1e300):
        with pytest.raises(AsymptoticsError, match="has no grid point"):
            inequality_grid("tech-a", step)
    monkeypatch.undo()
    # step 1 still holds the one point (1/2, 0)
    assert inequality_grid("tech-a", 1.0).points == 1


def test_tech_c_argmax_on_balance_line():
    # the min is maximized where the two expressions cross: alpha = (1+beta)/2
    rep = inequality_grid("tech-c", 1e-3)
    alpha, beta = rep.argmax
    assert abs(alpha - (1 + beta) / 2) < 2e-3


def test_ineq1_equality_only_at_zero():
    rep = inequality_grid("ineq1", 1e-4)
    assert rep.max_violation == 0.0 and rep.argmax == (0.0,)


def test_fork_ratio_k1_is_exactly_c1_in_the_limit():
    # g_1(r)/log2 r = (floor(log r)+1)/log r -> 1 = c_1 from above
    for j in (4, 10, 20):
        r = 1 << j
        assert fork_g(r, 1) / j == (j + 1) / j


def test_fork_ratio_k2_trend_toward_c2():
    # exact values approach c_2 from above as r grows, mirroring how the
    # k=1 ratio (floor(log r)+1)/log r falls to 1
    c2 = c_sequence(2).c[1]
    ratios = {j: fork_g(1 << j, 2) / j for j in (4, 8, 12, 16, 20)}
    assert all(v > c2 for v in ratios.values())
    assert ratios[20] < ratios[4]
    vals = [ratios[j] for j in (4, 8, 12, 16, 20)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_g2_lower_construction_masses_and_dp_dominance():
    # the exact DP dominates the fixed-|H| construction at every n, and the
    # construction's distance to 1+sqrt(2) shrinks over the window
    target = 1 + math.sqrt(2)
    gaps = []
    for n in (12, 16, 20, 24):
        col = g2_lower_coloring(n)
        m0 = lubell_mass(col.class_family(0))
        m1 = lubell_mass(col.class_family(1))
        dp = two_color_partial_exact(n, "mass").value
        assert dp >= min(m0, m1)
        gaps.append(abs(float(min(m0, m1)) - target))
    assert gaps[-1] < gaps[0]
