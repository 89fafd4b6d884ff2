import collections
import gc
import math
import weakref

import numpy as np
import pytest

from qgammakit import bounds as bd
from qgammakit import specfun as sf
from qgammakit.corpus import _LEM5_CASES
from qgammakit.errors import ConvergenceError, DomainError, UsageError

import oracles


# ---------------------------------------------------------------------------
# sharp shift constants
# ---------------------------------------------------------------------------


def test_alzer_u_values():
    assert abs(bd.alzer_u(0.5, 0.5) - oracles.ALZER_U_HALF_HALF) <= 1e-14
    # q -> 1 limit of the lower shift is s/2
    assert abs(bd.alzer_u(0.9999, 0.6) - 0.3) <= 1e-3


def test_alzer_v_value():
    assert abs(bd.alzer_v(0.5, 0.5) - oracles.ALZER_V_HALF_HALF) <= 1e-12


def test_alzer_domain():
    with pytest.raises(DomainError):
        bd.alzer_u(1.5, 0.5)
    with pytest.raises(DomainError):
        bd.alzer_u(0.5, 1.5)


# ---------------------------------------------------------------------------
# ratio bounds
# ---------------------------------------------------------------------------


def test_every_method_brackets_classical_point():
    x, s = 1.0, 0.5
    exact = bd.gamma_ratio(x, s, 1.0)
    assert abs(exact - oracles.INV_GAMMA_1P5) <= 1e-13
    for method in bd.RATIO_BOUND_METHODS:
        bp = bd.ratio_bounds(x, s, 1.0, method)
        assert bp.contains(exact, 1e-12), method


def test_bracket_grid_all_methods():
    qs = [round(0.1 * i, 1) for i in range(1, 10)] + [1.0]
    for q in qs:
        for s in (0.1, 0.5, 0.9):
            for x in (0.1, 1.0, 10.0):
                exact = bd.gamma_ratio(x, s, q)
                tau = 1e-12 * max(1.0, exact)
                for method in bd.RATIO_BOUND_METHODS:
                    classical_only = method in (
                        "merkle", "kershaw", "logmean_refined", "geomean_refined"
                    )
                    if classical_only and q != 1.0:
                        continue
                    if method == "alzer_uv" and q > 1.0:
                        continue
                    bp = bd.ratio_bounds(x, s, q, method)
                    assert bp.lower <= exact + tau, (method, q, s, x)
                    assert exact <= bp.upper + tau, (method, q, s, x)


def test_degenerate_s_limit():
    bp = bd.ratio_bounds(1.0, 1.0 - 1e-6, 1.0, "kershaw")
    assert bp.upper - bp.lower < 1e-4


def test_geomean_refines_kershaw():
    g = bd.ratio_bounds(1.0, 0.25, 1.0, "geomean_refined")
    k = bd.ratio_bounds(1.0, 0.25, 1.0, "kershaw")
    assert g.lower >= k.lower and g.upper <= k.upper


def test_method_q_pairing_enforced():
    for method in ("merkle", "kershaw", "logmean_refined", "geomean_refined"):
        with pytest.raises(UsageError):
            bd.ratio_bounds(1.0, 0.5, 0.5, method)
    with pytest.raises(UsageError):
        bd.ratio_bounds(1.0, 0.5, 1.0, "no_such_method")


def test_bound_pair_invariant():
    with pytest.raises(ValueError):
        bd.BoundPair(2.0, 1.0)


# ---------------------------------------------------------------------------
# ratio-like functions
# ---------------------------------------------------------------------------


def test_g_q_function():
    # classical degenerate consistency: g_1(x; 0, 1, 0) = Gamma(x+1)/(x Gamma(x)) = 1
    for x in (0.5, 2.0, 7.0):
        assert abs(bd.g_q_function(x, 0.0, 1.0, 0.0, 1.0) - 1.0) <= 1e-12
    # large-x normalization
    assert abs(bd.g_q_function(1e3, 0.5, 1.0, 0.25, 1.0) - 1.0) <= 1e-2
    # the upper shift calibrates the bound exactly at the left endpoint
    v = bd.alzer_v(0.5, 0.5)
    assert abs(bd.g_q_function(1e-9, 0.5, 1.0, v, 0.5) - 1.0) <= 1e-7
    with pytest.raises(DomainError):
        bd.g_q_function(0.1, 0.0, 1.0, -0.5, 1.0)
    # Gamma(301)/Gamma(1) = 300! is past double precision
    with pytest.raises(DomainError):
        bd.g_q_function(1.0, 0.0, 300.0, 0.0, 1.0)


@pytest.mark.parametrize("x, a, b, c, q", [
    (1.0, 0.0, 1.0, 0.5, 2.0),
    (0.3, 0.5, 1.0, 0.25, 1.5),
    (4.0, 0.3, 1.1, 0.6, 3.0),
    (2.5, 0.0, 2.0, 1.0, 10.0),
    (0.01, 0.5, 1.0, 0.0, 1.1),
    (40.0, 1.0, 0.5, 2.0, 1.25),
])
def test_g_q_function_above_q_1_against_mpmath(x, a, b, c, q):
    """Above q = 1, [y]_q = q^(y-1) [y]_{1/q} and Gamma_q(y) =
    q^((y-1)(y-2)/2) Gamma_{1/q}(y); g_q is within its scalar cells'
    errors and 8 eps of its summands of 40-digit values."""
    from mpmath import log, mp, mpf

    with mp.workdps(40):
        Q = mpf(q)

        def ln_gamma_q(y):
            y = mpf(y)
            return (y - 1) * (y - 2) / 2 * log(Q) + log(oracles.qgamma_hp(y, 1 / Q, terms=3000))

        ln_bracket = log((Q ** (mpf(x) + c) - 1) / (Q - 1))
        ref = mp.exp((a - b) * ln_bracket + ln_gamma_q(mpf(x) + b) - ln_gamma_q(mpf(x) + a))
        cells = [sf.q_ln_gamma(x + b, q), sf.q_ln_gamma(x + a, q)]
        size = abs((a - b) * float(ln_bracket)) + sum(abs(e.value) for e in cells) + 1.0
        rel = sum(e.abs_error for e in cells) + 8.0 * 2.0**-52 * size
        g = bd.g_q_function(x, a, b, c, q)
        assert abs(mpf(g) - ref) <= rel * abs(ref), (g, ref)


@pytest.mark.parametrize("q", [0.01, 0.5, 0.99])
@pytest.mark.parametrize("y", [1e-300, 1e-17, 1e-12, 1e-10, 1e-6, 1.0, 50.0])
def test_qbracket_log_below_q_1_against_mpmath(y, q):
    """ln((1 - q^y)/(1 - q)) for q < 1 keeps its accuracy as y -> 0, where
    q^y rounds to 1: within 2 eps of 1 + |ln(1 - q^y)| + |ln(1 - q)| of
    40-digit values, the logs of two rounded arguments and their sum."""
    from mpmath import mp, mpf

    with mp.workdps(40):
        outer = mp.log(-mp.expm1(mpf(y) * mp.log(mpf(q))))
        inner = mp.log(1 - mpf(q))
        tol = 2.0 * 2.0**-52 * (1.0 + abs(outer) + abs(inner))
        assert abs(bd._qbracket_log(y, q) - (outer - inner)) <= tol


def test_g_q_function_near_0_below_q_1():
    # q^y rounds to 1 at y = 1e-17, where 1 - q^y read 0 and took no log
    g = bd.g_q_function(1e-17, 0.0, 1.0, 0.0, 0.5)
    assert math.isfinite(g) and abs(g - 1.0) <= 1e-12


def test_keckic_vasic():
    bp = bd.keckic_vasic_bounds(1.0, 2.0)
    assert abs(bp.lower - 2.0 * math.exp(-1.0)) <= 1e-14
    assert abs(bp.upper - 2.0 * math.sqrt(2.0) * math.exp(-1.0)) <= 1e-14
    assert bp.contains(1.0)
    assert bd.keckic_vasic_bounds(2.0, 3.0).contains(2.0)
    bp = bd.keckic_vasic_bounds(1.0, 1.0 + 1e-5)
    assert bp.upper - bp.lower < 1e-4
    with pytest.raises(UsageError):
        bd.keckic_vasic_bounds(2.0, 2.0)
    # Gamma(200)/Gamma(1) = 199! is past double precision
    with pytest.raises(DomainError):
        bd.keckic_vasic_bounds(1.0, 200.0)


def test_ball_ratio_bounds():
    b1 = bd.ball_ratio_bounds(1)
    assert abs(b1.thm51_exact - oracles.BALL1_RATIO) <= 1e-13
    assert b1.thm51.lower <= b1.thm51_exact <= b1.thm51.upper
    assert abs(b1.thm51.lower - math.sqrt(1.5)) <= 1e-14
    assert b1.eq13 is None

    b2 = bd.ball_ratio_bounds(2)
    assert abs(b2.thm51_exact - oracles.BALL2_RATIO) <= 1e-13
    assert b2.thm51.contains(b2.thm51_exact)
    assert abs(b2.eq13_exact - oracles.EQ13_N2_EXACT) <= 1e-13
    # the upper constant is attained at n = 2, so containment needs the
    # rounding tolerance
    assert b2.eq13.contains(b2.eq13_exact, 1e-12)

    for n in (3, 10, 120):
        bb = bd.ball_ratio_bounds(n)
        assert bb.thm51.contains(bb.thm51_exact, 1e-12)
        assert bb.eq13.contains(bb.eq13_exact, 1e-12)

    with pytest.raises(UsageError):
        bd.ball_ratio_bounds(0)


# ---------------------------------------------------------------------------
# auxiliary functions
# ---------------------------------------------------------------------------


def test_auxiliary_functions():
    for alpha in (0.1, 0.5, 2.0):
        assert abs(bd.auxiliary_function("f_ILM", 1.0, {"alpha": alpha}) - math.e) <= 1e-13
    assert abs(bd.auxiliary_function("G_c", 1.0, {"c": 0.0}) - oracles.G0_AT_1) <= 1e-13
    assert bd.auxiliary_function("g_AG", 1.0, {"a": 0.5, "q": 0.5}) >= 1.0
    assert abs(bd.auxiliary_function("beta_scaled", 1.0, {"q": 0.5, "beta": 2.0}) - 1.0) <= 1e-12
    val = bd.auxiliary_function("f_alpha", 2.0, {"alpha": 0.5})
    assert math.isfinite(val)
    assert bd.auxiliary_function("f_qpow", 1.0, {"q": 0.5}) == pytest.approx(0.5, rel=1e-12)


def test_auxiliary_usage_errors():
    with pytest.raises(UsageError):
        bd.auxiliary_function("f_alpha", 1.0, {})
    with pytest.raises(UsageError):
        bd.auxiliary_function("nope", 1.0, {})
    with pytest.raises(DomainError):
        bd.auxiliary_function("g_AG", 1.0, {"a": 0.5, "q": 1.5})
    # x^alpha at x = alpha = 1e5 is past double precision
    with pytest.raises(DomainError):
        bd.auxiliary_function("f_ILM", 1e5, {"alpha": 1e5})


# ---------------------------------------------------------------------------
# polygamma product family
# ---------------------------------------------------------------------------


def test_poly_constants():
    pc = bd.poly_constants(3, 2, 2, 1)
    assert pc.c == pytest.approx(0.5) and pc.d == pytest.approx(2.0 / 3.0)
    for tup in ((3, 2, 2, 1), (4, 3, 2, 1)):
        pc = bd.poly_constants(*tup)
        assert 0.0 < pc.c < 1.0 and 0.0 < pc.d < 1.0
    # the boundary tuple has c = B(1,1) = 1 exactly
    pc = bd.poly_constants(2, 1, 1, 0)
    assert pc.c == 1.0 and 0.0 < pc.d < 1.0


def test_poly_product_values():
    spec = bd.PolyProductSpec(2, 1, 1, 0, 1.0)
    assert abs(bd.poly_product(spec, 1.0) - oracles.EQ42_AT_1) <= 1e-12
    c = bd.poly_constants(3, 2, 2, 1).c
    spec = bd.PolyProductSpec(3, 2, 2, 1, c)
    for x in (0.5, 1.0, 5.0):
        assert bd.poly_product(spec, x) >= 0.0


def test_poly_product_index_constraints():
    with pytest.raises(UsageError):
        bd.PolyProductSpec(3, 2, 2, 0, 0.5)  # m + n != p + q
    with pytest.raises(UsageError):
        bd.PolyProductSpec(2, 2, 1, 1, 0.5)  # p not > m


# ---------------------------------------------------------------------------
# refined-shift machinery
# ---------------------------------------------------------------------------


def test_w_qn_nonneg():
    assert bd.w_qn(0.5, 0.5, 3) >= 0.0
    for s in (0.2, 0.8):
        for q in (0.3, 0.9):
            for n in (1, 2, 5):
                assert bd.w_qn(s, q, n) >= -1e-15


def test_lemma10():
    bp = bd.lemma10_lhs_rhs(0.3, 0.7, 1)
    assert bp.lower == pytest.approx(bp.upper, abs=1e-15)  # coincide at n = 1
    bp = bd.lemma10_lhs_rhs(0.3, 0.7, 4)
    assert bp.lower <= bp.upper
    with pytest.raises(DomainError):
        bd.lemma10_lhs_rhs(0.3, 1.2, 4)


def test_a_poly_and_root():
    for m, n, c in ((3, 1, 0.5), (2, 1, 0.9), (5, 2, 0.3)):
        assert bd.a_poly(1.0, m, n, c) == pytest.approx(2.0 - 2.0 * c)
        root = bd.a_poly_root(m, n, c)
        assert abs(bd.a_poly(root, m, n, c)) <= 1e-12
        ts = np.linspace(1.0, 2.0 * root, 10000)
        vals = [bd.a_poly(float(t), m, n, c) for t in ts]
        changes = sum(
            1 for i in range(len(vals) - 1)
            if (vals[i] >= 0.0 > vals[i + 1]) or (vals[i] < 0.0 <= vals[i + 1])
        )
        assert changes == 1
    assert bd.a_poly(1e6, 3, 1, 0.5) < 0.0
    with pytest.raises(UsageError):
        bd.a_poly(2.0, 1, 1, 0.5)
    with pytest.raises(DomainError):
        bd.a_poly(0.5, 3, 1, 0.5)


@pytest.mark.parametrize("m, n, c", _LEM5_CASES)
def test_a_poly_sign_changes_match_a_scalar_loop(m, n, c):
    root = bd.a_poly_root(m, n, c)
    for hi, points in ((0.5 * (1.0 + root), 10000), (2.0 * root, 9999), (2.0 * root, 10000)):
        neg = [bd.a_poly(float(t), m, n, c) < 0.0 for t in np.linspace(1.0, hi, points)]
        expected = sum(a != b for a, b in zip(neg, neg[1:]))
        assert bd.a_poly_sign_changes(m, n, c, hi, points) == expected
    assert bd.a_poly_sign_changes(m, n, c, 2.0 * root, 10000) == 1


def test_a_poly_sign_changes_validate_their_arguments():
    for m, n in ((1, 1), (2, 3), (3.0, 1), (3, 0)):
        with pytest.raises(UsageError):
            bd.a_poly_sign_changes(m, n, 0.5, 4.0, 100)
    for c in (0.0, 1.0, -0.5):
        with pytest.raises(DomainError):
            bd.a_poly_sign_changes(3, 1, c, 4.0, 100)
    with pytest.raises(DomainError):  # the grid reaches below t = 1
        bd.a_poly_sign_changes(3, 1, 0.5, 0.5, 100)


# ---------------------------------------------------------------------------
# chained digamma-difference inequalities
# ---------------------------------------------------------------------------


def test_psi_pair_classical():
    t = bd.psi_pair_inequality(1.0, 0.5)
    assert t.lhs > t.mid > t.rhs
    t = bd.psi_pair_inequality(1.0, 2.0)
    assert t.lhs < t.mid < t.rhs  # reversed for c > 1
    # c -> 0 limiting consequence
    assert oracles.EQ42_AT_1 >= 0.0
    with pytest.raises(DomainError):
        bd.psi_pair_inequality(1.0, 1.0)


def test_psi_pair_q_analogue():
    t = bd.psi_pair_inequality(1.0, 0.5, "q_analogue", 0.5)
    assert t.lhs > t.mid > t.rhs
    t = bd.psi_pair_inequality(1.0, 2.0, "q_analogue", 0.5)
    assert t.lhs < t.mid < t.rhs
    with pytest.raises(UsageError):
        bd.psi_pair_inequality(1.0, 0.5, "q_analogue", None)
    with pytest.raises(UsageError):
        bd.psi_pair_inequality(1.0, 0.5, "other")


def test_cor51_expr():
    assert bd.cor51_expr(1.0, 0.5) >= 0.0
    assert abs(bd.cor51_expr(1.0, 0.9999) - oracles.EQ42_AT_1) <= 1e-2
    v = bd.cor51_expr(50.0, 0.5)
    assert -1e-12 <= v <= 1e-6  # decays to 0 (roundoff may cross below)


def test_cor5_inequality():
    t = bd.cor5_inequality(1.0, 1.0, 1.0, 2.0, 0.5)
    assert t.lhs <= t.rhs
    t = bd.cor5_inequality(1.0, 1.0, 1.0, 0.5, 0.5)
    assert t.lhs >= t.rhs
    t = bd.cor5_inequality(1e-4, 1.0, 1.0, 2.0, 0.5)
    assert t.lhs <= t.rhs
    with pytest.raises(UsageError):
        bd.cor5_inequality(1.0, 1.0, 1.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# grid invariants from the classical digamma chains
# ---------------------------------------------------------------------------


def test_noncomparability():
    for s in [round(0.1 * i, 1) for i in range(1, 10)]:
        assert sf.digamma(1.0).value + sf.digamma(s).value < 2.0 * sf.digamma(math.sqrt(s)).value
    for x in (1.5, 2.0, 5.0):
        for s in [round(0.1 * i, 1) for i in range(1, 10)]:
            lhs = sf.digamma(x + 1.0).value + sf.digamma(x + s).value
            assert lhs - 2.0 * sf.digamma(x + math.sqrt(s)).value > 0.0


def test_psi_exp_concavity_consequence():
    for x in (0.2, 1.0, 4.0):
        for s in (0.2, 0.5, 0.8):
            lhs = sf.digamma(x + 1.0).value + sf.digamma(x + s).value
            rhs = 2.0 * sf.digamma(math.sqrt((x + 1.0) * (x + s))).value
            assert lhs <= rhs + 1e-12


def test_thm3_chain_on_grid():
    for q in (0.3, 0.7):
        for s in (0.25, 0.75):
            for x in (0.1, 1.0, 10.0):
                bp = bd.ratio_bounds(x, s, q, "im_midpoint")
                exact = bd.gamma_ratio(x, s, q)
                assert bp.lower <= exact + 1e-12 and exact <= bp.upper + 1e-12


# ---------------------------------------------------------------------------
# the run's cell table
# ---------------------------------------------------------------------------


def test_gamma_ratio_reads_the_cell_table_only_inside_a_run(monkeypatch):
    calls = collections.Counter()

    def counting(name):
        fn = getattr(sf, name)

        def counted(*args):
            calls[name, args[:-1]] += 1
            return fn(*args)

        return counted

    for name in ("ln_gamma", "q_ln_gamma"):
        monkeypatch.setattr(sf, name, counting(name))
    first = bd.gamma_ratio(2.0, 0.5, 0.7)
    assert bd.gamma_ratio(2.0, 0.5, 0.7) == first
    assert calls == {("q_ln_gamma", (3.0, 0.7)): 2, ("q_ln_gamma", (2.5, 0.7)): 2}
    calls.clear()
    tight = sf.TruncationPolicy(max_terms=1)
    with sf._run_cells():
        for _ in range(2):
            assert bd.gamma_ratio(2.0, 0.5, 0.7) == first
        # a failing point fails again from its cell, with the same error class
        for _ in range(2):
            with pytest.raises(ConvergenceError):
                bd.gamma_ratio(2.0, 0.5, 0.99, tight)
        for _ in range(2):
            with pytest.raises(DomainError):
                bd.gamma_ratio(1e308, 0.5, 1.0)
    assert calls == {
        ("q_ln_gamma", (3.0, 0.7)): 1,
        ("q_ln_gamma", (2.5, 0.7)): 1,
        ("q_ln_gamma", (3.0, 0.99)): 1,
        ("ln_gamma", (1e308,)): 1,
    }
    # the table ended with the run
    assert bd.gamma_ratio(2.0, 0.5, 0.7) == first
    assert calls["q_ln_gamma", (3.0, 0.7)] == 2


def test_a_stored_error_keeps_no_caller_frame_alive():
    class Marker:
        pass

    def caller():
        # a local of the frame that catches the error: it dies with the
        # frame unless the table keeps a traceback that holds the frame
        marker = Marker()
        try:
            bd.gamma_ratio(1e308, 0.5, 1.0)
        except DomainError as exc:
            message = str(exc)
        return weakref.ref(marker), message

    with sf._run_cells():
        first, first_message = caller()  # evaluates and stores the cell
        again, again_message = caller()  # raises again from the cell
        gc.collect()
        assert first() is None and again() is None
        assert again_message == first_message
