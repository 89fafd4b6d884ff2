import collections
import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgammakit import cm_engine as ce
from qgammakit import specfun as sf
from qgammakit import bounds as bd
from qgammakit.errors import ConvergenceError, DomainError, PreconditionError, UsageError

import oracles


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def test_nth_derivative_cross_paths():
    a = ce.nth_derivative(ce.make_target("q_digamma", q=0.5), 1, 1.0)
    b = sf.q_polygamma(1, 1.0, 0.5)
    assert abs(a.value - b.value) <= a.abs_error + b.abs_error


def test_nth_derivative_ln_gamma():
    enc = ce.nth_derivative("ln_gamma", 2, 1.0)
    assert abs(enc.value - oracles.ZETA2) <= 1e-12


def test_nth_derivative_identity_at_order_zero():
    enc = ce.nth_derivative("digamma", 0, 2.0)
    ref = sf.digamma(2.0)
    assert abs(enc.value - ref.value) <= enc.abs_error + ref.abs_error


def test_order_caps():
    with pytest.raises(UsageError):
        ce.nth_derivative("digamma", 13, 1.0)


def test_unknown_target_family():
    with pytest.raises(UsageError):
        ce.make_target("not_a_family")


@pytest.mark.parametrize("name, params", [
    ("polygamma", {}),
    ("q_digamma", {}),
    ("ln_gamma", {"q": 0.5}),
    ("digamma", {"n": 3}),
])
def test_make_target_refuses_a_missing_or_unknown_parameter(name, params):
    with pytest.raises(UsageError, match=name):
        ce.make_target(name, **params)


def test_make_target_binds_the_parameters_of_its_family():
    t = ce.make_target("q_polygamma", n=2, q=0.3, shift=0.25)
    assert (t.m, t.q, t.a) == (2, 0.3, 0.25)
    assert ce.make_target("polygamma", n=1).m == 1


def test_qseries_target_matches_q_polygamma():
    # the one-term series psi_q(x), its constant -ln(1 - q) derived, has
    # derivatives equal to psi_q^(k)
    q = 0.5
    target = ce.QSeriesTarget(q, [(1.0, 0, 0.0)])
    for k in (0, 1, 2, 4):
        for x in (0.3, 1.0, 8.0):
            a = target.deriv(k, x)
            b = sf.q_polygamma(k, x, q) if k else sf.q_digamma(x, q)
            assert abs(a.value - b.value) <= a.abs_error + b.abs_error + 1e-14


def test_qseries_target_derives_its_constant_amp_and_jpow():
    q = 0.5
    lnq = math.log(q)
    # psi_{q^2}((x + 1)/2) - psi_q(x + 1) + 3 psi_q'(x + 2): the m = 0
    # constants are -ln(1 - q^2) and ln(1 - q), and const = 0.25 adds
    # -0.25 ln(1 - q) to the latter
    t = ce.QSeriesTarget(q, [(1.0, 0, 1.0, 2.0), (-1.0, 0, 1.0), (3.0, 1, 2.0)], const=0.25)
    assert t.shift == 1.0 and t.jpow == 1
    assert t._const == pytest.approx(-math.log1p(-q * q) + 0.75 * math.log1p(-q), rel=1e-15)
    assert t.amp == pytest.approx(2.0 / (1.0 - q * q) + 1.0 / (1.0 - q) - 3.0 * lnq / (1.0 - q))
    # weights that share an r cancel exactly, and so does their constant's error
    diff = ce.QSeriesTarget(q, [(0.3, 0, 1.5), (-0.3, 0, 0.5), (1.0, 0, 0.0), (-1.0, 0, 2.0)])
    assert diff._const == 0.0 and diff._const_err == 0.0
    # const weighs psi_q's constant -ln(1 - q), also with no m = 0 term of r = 1
    neg = ce.QSeriesTarget(q, [(-1.0, 0, 0.0)], const=1.0)
    assert neg._const == 0.0 and neg._const_err == 0.0
    assert ce.QSeriesTarget(q, [(1.0, 1, 0.0)], const=2.0)._const == -2.0 * math.log1p(-q)


def test_qseries_target_sums_ln_gamma_q_terms():
    # ln Gamma_q(x + 1) - ln Gamma_q(x + s): the (1 - y) ln(1 - q) of each
    # term leaves sum w d = 1 - s times -ln(1 - q).  With dyadic x and s the
    # scalar calls see the same arguments
    q, s = 0.5, 0.25
    t = ce.QSeriesTarget(q, [(1.0, -1, 1.0), (-1.0, -1, s)])
    assert t.shift == s and t.jpow == -1
    assert t._const == (1.0 - s) * -math.log1p(-q)
    for x in (0.125, 1.0, 7.5):
        a, b = sf.q_ln_gamma(x + 1.0, q), sf.q_ln_gamma(x + s, q)
        e = t.deriv(0, x)
        assert abs(e.value - (a.value - b.value)) <= e.abs_error + a.abs_error + b.abs_error
        a, b = sf.q_digamma(x + 1.0, q), sf.q_digamma(x + s, q)
        e = t.deriv(1, x)
        assert abs(e.value - (a.value - b.value)) <= e.abs_error + a.abs_error + b.abs_error


@pytest.mark.parametrize("terms", [
    [(1.0, -1, 0.0)],  # ln Gamma_q alone: it would read 0.549 at x = 2, where it is 0
    [(0.1, -1, 0.0), (0.2, -1, 1.0), (-0.3, -1, 2.0)],  # weights whose fsum is 2.8e-17
    [(1.0, -1, 0.0, 2.0), (-1.0, -1, 1.0, 2.0)],  # r != 1
    [(1.0, -2, 0.0), (-1.0, -2, 1.0)],  # m < -1
], ids=["unbalanced", "fsum-not-0", "r-not-1", "m-below-minus-1"])
def test_qseries_target_refuses_terms_it_cannot_sum(terms):
    with pytest.raises(UsageError):
        ce.QSeriesTarget(0.5, terms)


def test_qseries_certificate_covers_the_conditioning_of_exp():
    # thm8-lcm[q=0.3,s=0.25] at a grid point where the two components cancel
    # to 1e-16 of their size; each exp argument is about -58
    from mpmath import log, mp, mpf

    from qgammakit import corpus

    q, s, x = 0.3, 0.25, 48.143724207843434
    u = bd.alzer_u(q, s)
    enc = corpus._gq_neg_log_deriv(s, 1.0, u, q).jet(x, 0)[0]
    with mp.workdps(60):
        mq, mx, mu, ms = mpf(q), mpf(x), mpf(u), mpf(s)
        truth = -log(mq) * sum(
            mq ** (j * (mx + mu)) * (1 - ms)
            + mq ** (j * (mx + ms)) * (mq ** (j * (1 - ms)) - 1) / (1 - mq**j)
            for j in range(1, 60)
        )
    assert abs(enc.value - float(truth)) <= enc.abs_error


class _ExactOrders(ce.Target):
    """Exact values at orders 0 and 1, and 0 above; defined only through
    ``deriv``."""

    def __init__(self, v0, v1):
        self.orders = (v0, v1)

    def deriv(self, k, x, policy=None):
        return sf.Enclosure(self.orders[k] if k < 2 else 0.0, 0.0, 1)


def test_product_slop_weighs_the_summands_not_the_cancelled_sum():
    # order 1 of f g is f g' + f' g = 0.1 * 3.0 - 0.3 * 1.0, which rounds to
    # 5.55e-17, where the doubles give exactly 2.78e-17: a slop on |value|
    # (3.7e-32) misses by 7.5e14 times
    from fractions import Fraction

    enc = ce.Product(_ExactOrders(0.1, -0.3), _ExactOrders(1.0, 3.0)).deriv(1, 1.0)
    exact = Fraction(0.1) * Fraction(3.0) + Fraction(-0.3) * Fraction(1.0)
    assert enc.value == 0.1 * 3.0 - 0.3 * 1.0
    assert abs(Fraction(enc.value) - exact) <= Fraction(enc.abs_error)


def test_a_square_fills_its_factor_once_and_keeps_its_bits(monkeypatch):
    """Product(f, f) evaluates f once, and gives the bits of the product
    of two equal but distinct factors."""
    xs = [0.01, 0.44, 3.0, 19.9]
    square, twin = ce.QSeriesTarget(0.3, [(1.0, 1, 0.0)]), ce.QSeriesTarget(0.3, [(1.0, 1, 0.0)])
    expected = ce.Product(square, twin).jet_grid(xs, 4)
    grids = collections.Counter()
    jets = ce.QSeriesTarget._jets

    def counted(self, xs, K, policy):
        grids[id(self)] += 1
        return jets(self, xs, K, policy)

    monkeypatch.setattr(ce.QSeriesTarget, "_jets", counted)
    got = ce.Product(square, square).jet_grid(xs, 4)
    assert grids == {id(square): 1}
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


def test_lincomb_slop_weighs_the_summands_not_the_cancelled_sum():
    # 0.1 + 0.2 - 0.3 rounds to 5.55e-17, where the doubles sum exactly to
    # 2.78e-17: a slop on |value| (4.9e-32) misses by 5.6e14 times
    from fractions import Fraction

    target = ce.LinComb([(1, ce.Const(0.1)), (1, ce.Const(0.2)), (-1, ce.Const(0.3))])
    enc = target.deriv(0, 1.0)
    exact = Fraction(0.1) + Fraction(0.2) - Fraction(0.3)
    assert enc.value == 0.1 + 0.2 - 0.3
    assert abs(Fraction(enc.value) - exact) <= Fraction(enc.abs_error)


# ---------------------------------------------------------------------------
# jets: orders 0..K in one pass, bit for bit the per-order derivatives
# ---------------------------------------------------------------------------

_EPS = 2.220446049250313e-16


def _per_order(t, k, x, policy=None):
    """d^k t at x, one order at a time, as the composite targets computed it
    before jets; leaf targets are asked through ``deriv``, a one-point grid."""
    if isinstance(t, ce.LinComb):
        val = err = size = 0.0
        used = 0
        for coef, target in t.terms:
            e = _per_order(target, k, x, policy)
            val += coef * e.value
            err += abs(coef) * e.abs_error
            size += abs(coef * e.value)
            used = max(used, e.terms_used)
        return sf.Enclosure(val, err + 4.0 * _EPS * size, used)
    if isinstance(t, ce.DerivOffset):
        return _per_order(t.base, k + t.offset, x, policy)
    if isinstance(t, ce.Product):
        val = err = size = 0.0
        used = 0
        fs = [_per_order(t.f, j, x, policy) for j in range(k + 1)]
        # the rows of f past its last nonzero one are left out, as in Product
        last = max((j for j, f in enumerate(fs) if f.value or f.abs_error), default=-1)
        for j in range(last + 1):
            f, g = fs[j], _per_order(t.g, k - j, x, policy)
            ck = math.comb(k, j)
            term = ck * f.value * g.value
            val += term
            err += ck * (abs(f.value) * g.abs_error + abs(g.value) * f.abs_error
                         + f.abs_error * g.abs_error)
            size += abs(term)
            used = max(used, f.terms_used, g.terms_used)
        return sf.Enclosure(val, err + (k + 2) * _EPS * size, used)
    if isinstance(t, ce.QSeriesTarget):
        policy = policy or sf.DEFAULT_POLICY
        lnq = math.log(t.q)
        pref = -lnq * lnq**k
        y = x + t.shift
        yt = x + t._start  # the tail of the moved terms
        total = abs_total = floor = 0.0
        j0, block = 0, ce._FIRST_BLOCK
        while True:
            hi = min(j0 + block, policy.max_terms)
            j = np.arange(j0 + 1, hi + 1, dtype=float)
            (c,), (weight,) = ce.QSeriesTarget._coeffs([t], j, t.shift)  # a stack of one
            # one exp per term, then k products by j
            arg = j * (y * lnq)
            terms = ce._exp_flushed(arg, -math.inf) * c
            slop_terms = ce._exp_flushed(arg, -math.inf) * weight
            for _ in range(k):
                terms *= j
                slop_terms *= j
            total += float(np.sum(terms))
            abs_total += float(np.sum(slop_terms * (1.0 + np.abs(arg) + k)))
            j0 = hi
            block = min(2 * block, 1 << 17)
            floor += max(t.amp, 1.0) * len(j) * (j0 + 1.0) ** (k + t.jpow)
            rho = ((j0 + 2.0) / (j0 + 1.0)) ** (k + t.jpow) * t.q**yt
            if rho < 1.0:
                tail = t.amp * (j0 + 1.0) ** (k + t.jpow) * t.q ** ((j0 + 1.0) * yt) / (1.0 - rho)
                if tail <= policy.eps * (1.0 + abs(total)):
                    break
            if j0 >= policy.max_terms:
                raise ConvergenceError("combined q-series did not certify")
        rec, rec_err = _recurrence_steps(t, k, x)
        val = (t._const if k == 0 else 0.0) + pref * total + rec
        slop = (2.0 + math.log2(max(j0, 2))) * _EPS * abs(pref) * abs_total
        const_slop = t._const_err if k == 0 else 0.0
        ulp0 = math.ulp(0.0)
        under = abs(pref) * ((ulp0 * (k + 3.0) + 2.0 * ce._FLUSHED) * floor) + ulp0
        return sf.Enclosure(val, abs(pref) * tail + slop + const_slop + under + rec_err, j0)
    return t.deriv(k, x, policy)


def _stirling2(n, k):
    """S(n, k), the Stirling numbers of the second kind."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def _recurrence_steps(t, k, x):
    """The recurrence part of a QSeriesTarget at order k, one step at a time:
    w r L^(n+1) (Li_{-n}(u) - u), n = m + k, u = q^z, summed over the N
    steps z = x + d + l r of each term, in order of m;
    (value, certified error)."""
    lnq = math.log(t.q)
    rate = (x + t.shift) * lnq
    steps = [(w * r, m, rate + ((d - t.shift) + ell * r) * lnq)
             for (w, m, d, r), n in zip(t.terms, t.steps) for ell in range(n)]
    steps.sort(key=lambda step: step[1])
    if not steps:
        return 0.0, 0.0
    e = np.array([ei for _, _, ei in steps])
    u = np.exp(e)
    v = u / -np.expm1(e)
    li1 = np.log1p(v)
    parts, sizes, floors = [], [], []
    for (wr, m, _), ei, ui, vi, l1 in zip(steps, e.tolist(), u.tolist(), v.tolist(), li1.tolist()):
        n = m + k
        if n == -1:
            rest, size = l1 - ui, l1 + ui
        else:
            # v (u + sum_{i>=1} i! S(n+1, i+1) v^i), by Horner
            rest = 0.0
            for i in range(n, 0, -1):
                rest = (rest + float(math.factorial(i) * _stirling2(n + 1, i + 1))) * vi
            rest = (rest + ui) * vi
            size = rest
        f = wr * lnq ** (n + 1)
        parts.append(f * rest)
        weight = abs(f) * ((n + 1) + (1.0 + (len(steps) + 7.0) / 7.0))
        sizes.append(size * (abs(ei) * 3.0 + 7.0) * weight)
        floors.append(abs(f) + 1.0)
    err = _EPS * abs(float(np.sum(sizes))) + 2.0 * math.ulp(0.0) * float(np.sum(floors))
    return float(np.sum(parts)), err


def _bits(enc):
    return (enc.value.hex(), enc.abs_error.hex(), enc.terms_used)


class _SwampedTarget(ce.Target):
    """Positive value drowned by its own certificate at every order."""

    def deriv(self, k, x, policy=None):
        return sf.Enclosure(1e-30, 1.0, 1)


class _AlternatingTarget(ce.Target):
    """(-1)^k / (1 + x), defined only through ``deriv``; raises at order 3
    for x > 1."""

    def deriv(self, k, x, policy=None):
        if k == 3 and x > 1.0:
            raise DomainError("order 3 is undefined past x = 1")
        return sf.Enclosure((-1.0) ** k / (1.0 + x), 0.0, 1)


# 0.3 d/dx ln(1 - q^(x + 0.5)), -psi_q(x) and psi_{q^2}'((x + 0.25)/2) / 2:
# shifts that differ, an m = 1 term and an r != 1 term
_Q_TERMS = [(0.3, 0, 1.5), (-1.0, 0, 0.0), (-0.3, 0, 0.5), (0.5, 1, 0.25, 2.0)]


# ln Gamma_q(x) + ln Gamma_q(x + 1) - 2 ln Gamma_q(x + 0.5) + psi_q(x + 0.25)
_LN_GAMMA_Q_TERMS = [(1.0, -1, 0.0), (1.0, -1, 1.0), (-2.0, -1, 0.5), (1.0, 0, 0.25)]


def _neg_psi_q(q):
    """-ln(1 - q) - psi_q(x) = (-ln q) sum_j q^(jx)/(1 - q^j), which is CM."""
    return ce.QSeriesTarget(q, [(-1.0, 0, 0.0)], const=1.0)


def _jet_targets():
    """One or more instances of every target class in cm_engine."""
    consts = bd.poly_constants(3, 2, 2, 1)
    return [
        ce.Const(2.5),
        ce.Affine(1.0, -2.0),
        ce.PowShift(0.5, -1.5),
        ce.LogShift(1.0),
        ce.XLogX(),
        ce.LnGammaFn(),
        ce.PolyGammaShift(0, 0.5),
        ce.PolyGammaShift(2),
        ce.QLnGammaFn(0.6),
        ce.QPolyGammaShift(0, 0.6, 0.5),
        ce.QPolyGammaShift(1, 1.5, 0.25),  # q > 1: order 1 has the branch term
        ce._PsiLeaf(-1, 0.5, 0.8),  # ln Gamma_q(x + a)
        ce.QSeriesTarget(0.7, _Q_TERMS, const=0.2),
        ce.QSeriesTarget(0.6, _LN_GAMMA_Q_TERMS),
        ce.ExpNegX(),
        ce.SinPlus2(),
        ce._KernelLeaf(3, 2),  # orders 2..14 of the kernel, both regimes
        ce.MonomialPolyGamma(2, 1, 1.0, 1.0),
        ce.MonomialPolyGamma(1, 0, 0.5, -1.0),
        ce.PolyProductTarget(3, 2, 2, 1, consts.c),
        ce.PolyProductTarget(2, 1, 1, 0, 1.0, sign=-1.0),
        ce.Product(ce.PowShift(0.5, -1.5), ce.SinPlus2()),
        ce.DerivOffset(ce.MonomialPolyGamma(2, 1, 1.0, 1.0), 2),
        ce.DerivOffset(ce.QSeriesTarget(0.5, _Q_TERMS), 1),
        ce.LinComb([
            (1.0, ce.PolyGammaShift(1)),
            (-0.5, ce.PolyGammaShift(1, 0.5)),
            (2.0, ce.DerivOffset(ce.LogShift(1.5), 1)),
            (0.3, ce.MonomialPolyGamma(1, 2, 0.5, 1.0)),
        ]),
        _SwampedTarget(),
        _AlternatingTarget(),
    ]


def _jet_id(target):
    # Class name; duplicates get pytest's index suffix.  The q > 1 psi_q
    # case and the q-series with ln Gamma_q terms are named apart, so that
    # the first of each class keeps its plain id.
    name = type(target).__name__
    if isinstance(target, ce.QPolyGammaShift) and target.q > 1.0:
        name += "QAbove1"
    if isinstance(target, ce.QSeriesTarget) and any(t[1] == -1 for t in target.terms):
        name += "LnGamma"
    return name


def test_jets_cover_every_target_class():
    classes = {
        cls for _, cls in inspect.getmembers(ce, inspect.isclass)
        if issubclass(cls, ce.Target) and cls.__module__ == ce.__name__
    } - {ce.Target}
    assert classes <= {type(t) for t in _jet_targets()}


@pytest.mark.parametrize("target", _jet_targets(), ids=_jet_id)
def test_jet_equals_per_order_derivatives_bit_for_bit(target):
    cap = target.max_order
    for x in (0.05, 0.7, 3.0, 25.0):
        if isinstance(target, _AlternatingTarget) and x > 1.0:
            continue
        full = target.jet(x, cap)
        assert len(full) == cap + 1
        for k in range(cap + 1):
            ref = _bits(_per_order(target, k, x))
            assert _bits(full[k]) == ref, (k, x)
            assert _bits(target.deriv(k, x)) == ref, (k, x)
        for K in (0, 1, cap // 2):
            assert [_bits(e) for e in target.jet(x, K)] == [_bits(e) for e in full[:K + 1]]


def test_one_raising_order_makes_the_point_inconclusive():
    grid = ce.GridSpec(0.5, 4.0, 8, "log")
    target = _AlternatingTarget()
    assert ce.check_sign_pattern(target, 2, grid, "completely_monotonic").status == "pass"
    rep = ce.check_sign_pattern(target, 4, grid, "completely_monotonic")
    assert rep.status == "inconclusive" and not rep.violations
    with pytest.raises(DomainError):
        target.jet(2.0, 4)
    # a q-series whose high orders run out of terms before the low ones: past
    # the recurrence shift every order certifies in the grid's first block,
    # so the budget is half of that
    q = 0.9
    series = _neg_psi_q(q)
    tight = sf.TruncationPolicy(max_terms=ce._FIRST_BLOCK // 2)
    rep = ce.check_sign_pattern(series, 0, grid, "completely_monotonic", policy=tight)
    assert rep.status == "pass"
    with pytest.raises(ConvergenceError):
        series.jet(0.5, 12, tight)
    rep = ce.check_sign_pattern(series, 12, grid, "completely_monotonic", policy=tight)
    assert rep.status == "inconclusive" and not rep.violations


def _count_kernel_rows(monkeypatch):
    """Count the rows (order, points, eps) the psi grid kernel computes."""
    rows = collections.Counter()
    kernel = sf._psi_kernel

    def counted(n0, K, ys, eps):
        rows.update((n, ys.tobytes(), eps) for n in range(n0, n0 + K + 1))
        return kernel(n0, K, ys, eps)

    monkeypatch.setattr(sf, "_psi_kernel", counted)
    return rows


def test_sign_pattern_evaluates_each_polygamma_order_once_per_point(monkeypatch):
    rows = _count_kernel_rows(monkeypatch)
    consts = bd.poly_constants(4, 3, 2, 1)
    target = ce.PolyProductTarget(4, 3, 2, 1, consts.c)
    grid = ce.GridSpec(1e-2, 10.0, 16, "log")
    # the factors share their orders through the run's table of rows
    with sf._run_cells():
        rep = ce.check_sign_pattern(target, 8, grid, "completely_monotonic")
    assert rep.status == "pass"
    assert {ys for _, ys, _ in rows} == {np.array(grid.values()).tobytes()}
    assert max(rows.values()) == 1


def test_rows_are_shared_only_inside_a_run(monkeypatch):
    rows = _count_kernel_rows(monkeypatch)
    target = ce.PolyGammaShift(1)
    grid = ce.GridSpec(0.5, 4.0, 8, "log")
    reports = [ce.check_sign_pattern(target, 3, grid, "completely_monotonic") for _ in range(2)]
    assert len(rows) == 4 and set(rows.values()) == {2}
    with sf._run_cells():
        reports += [ce.check_sign_pattern(target, 3, grid, "completely_monotonic") for _ in range(2)]
        # orders 1..4 once more, asked for by a composite target on the same grid
        ce.check_sign_pattern(ce.MonomialPolyGamma(0, 1), 3, grid, "completely_monotonic")
    assert set(rows.values()) == {3}
    assert len({repr(r) for r in reports}) == 1


# ---------------------------------------------------------------------------
# grid jets: orders 0..K at every point, bit for bit the per-point jets
# ---------------------------------------------------------------------------


def _assert_grid_matches_per_order(target, xs, K, policy=None):
    """Column p of jet_grid is _per_order at xs[p] bit for bit, and ok is
    False exactly where the scalar jet raises."""
    values, errors, ok = target.jet_grid(xs, K, policy)
    assert values.shape == errors.shape == (K + 1, len(xs))
    assert ok.shape == (len(xs),)
    for p, x in enumerate(xs):
        try:
            target.jet(x, K, policy)
        except (DomainError, ConvergenceError):
            assert not ok[p], x
            assert np.isnan(values[:, p]).all() and np.isnan(errors[:, p]).all()
            continue
        assert ok[p], x
        ref = [_per_order(target, k, x, policy) for k in range(K + 1)]
        got = [(float(v).hex(), float(e).hex()) for v, e in zip(values[:, p], errors[:, p])]
        assert got == [(e.value.hex(), e.abs_error.hex()) for e in ref], x
    return ok


@pytest.mark.parametrize("target", _jet_targets(), ids=_jet_id)
def test_jet_grid_columns_equal_per_order_derivatives_bit_for_bit(target):
    # at 2.637844611528822 (_KernelLeaf(3, 2), order 1) and 13.62406015037594
    # (PolyGammaShift(2), order 0), numpy's power on one element rounds
    # otherwise than the same power in a larger array
    xs = [0.05, 0.7, 2.637844611528822, 3.0, 13.62406015037594, 25.0]
    _assert_grid_matches_per_order(target, xs, target.max_order)


def test_jet_grid_marks_exactly_the_points_that_raise():
    q_series = ce.QSeriesTarget(0.7, _Q_TERMS, const=0.2)
    xs = [-0.7, 0.5, 0.0, 2.0, -0.1, 8.0]  # x <= 0 puts x + 0.0 out of the domain
    ok = _assert_grid_matches_per_order(q_series, xs, 6)
    assert ok.tolist() == [False, True, False, True, False, True]
    composite = ce.LinComb([
        (1.0, ce.DerivOffset(q_series, 1)),
        (0.5, ce.PowShift(-1.0, -1.0)),  # needs x > 1
    ])
    ok = _assert_grid_matches_per_order(composite, xs, 4)
    assert ok.tolist() == [False, False, False, True, False, True]
    # psi-family leaves, twice in one run: the second grid reads the run's table
    for leaf, expected in (
        (ce.LnGammaFn(), [False, True, False, True, False, True]),
        (ce.PolyGammaShift(1, 0.5), [False, True, True, True, True, True]),
        (ce.QPolyGammaShift(0, 0.6, 0.5), [False, True, True, True, True, True]),
    ):
        with sf._run_cells():
            for _ in range(2):
                assert _assert_grid_matches_per_order(leaf, xs, 4).tolist() == expected
    # high orders at small x run out of half the first block; the rest of the
    # grid certifies
    series = _neg_psi_q(0.9)
    tight = sf.TruncationPolicy(max_terms=ce._FIRST_BLOCK // 2)
    ok = _assert_grid_matches_per_order(series, [0.5, 1.0, 2.0, 4.0, 8.0, 16.0], 12, tight)
    assert not ok.all() and ok.any()


def test_q_psi_grid_fails_where_the_scalar_runs_out_of_terms():
    """Under a tight budget the small-x cells of a psi_q grid raise the
    scalar's ConvergenceError, message and all; the rest certify."""
    target = ce.QPolyGammaShift(1, 0.9)
    tight = sf.TruncationPolicy(max_terms=768)
    xs = [0.05, 0.2, 1.0, 4.0, 16.0]
    ok = _assert_grid_matches_per_order(target, xs, 4, tight)
    assert not ok.all() and ok.any()
    grid = target._jets(np.array(xs), 4, tight)
    for x, failure in zip(xs, grid.failures):
        if failure is None:
            continue
        with pytest.raises(ConvergenceError) as scalar:
            target.jet(x, 4, tight)
        assert type(failure) is ConvergenceError and str(failure) == str(scalar.value)


def _count_psi_calls(monkeypatch):
    """Count the scalar psi-family evaluator calls, made through specfun._psi."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("ln_gamma", "digamma", "polygamma", "q_ln_gamma", "q_digamma", "q_polygamma"):
        monkeypatch.setattr(sf, name, counted(name, getattr(sf, name)))
    return calls


# leaf; the calls of deriv(1, 1.0), a one-point jet of orders 0 and 1, and
# of a grid of orders 0..2 at three points; the cells (evaluator, context)
# of orders 1 and 2.  The classical leaves fill their grids in the grid
# kernel, which reads no scalar cell (test_rows_are_shared_only_inside_a_run)
_LEAF_CELLS = [
    (
        ce.QPolyGammaShift(1, 0.7),
        {"q_polygamma": 2}, {"q_polygamma": 9},
        ("q_polygamma", (2, 0.7)), ("q_polygamma", (3, 0.7)),
    ),
    (
        ce.QLnGammaFn(0.7),
        {"q_ln_gamma": 1, "q_digamma": 1}, {"q_ln_gamma": 3, "q_digamma": 3, "q_polygamma": 3},
        ("q_digamma", (0.7,)), ("q_polygamma", (1, 0.7)),
    ),
]


@pytest.mark.parametrize(
    "target, after_deriv, after_grid, order1, order2", _LEAF_CELLS,
    ids=[type(case[0]).__name__ for case in _LEAF_CELLS],
)
def test_q_psi_grid_shares_the_run_table_with_scalar_calls(
    monkeypatch, target, after_deriv, after_grid, order1, order2
):
    calls = _count_psi_calls(monkeypatch)
    xs = [0.5, 1.0, 2.0]
    with sf._run_cells():
        # a cell stored first by a scalar call is read by the grid
        first = target.deriv(1, 1.0)
        assert calls == after_deriv
        target.jet_grid(xs, 2)
        assert calls == after_grid
        table = sf._RUN_CELLS.get()
        assert _bits(table[getattr(sf, order1[0]), order1[1], None][1.0]) == _bits(first)
        # a cell the grid made is read by deriv with its bits
        cell = table[getattr(sf, order2[0]), order2[1], None][2.0]
        assert _bits(target.deriv(2, 2.0)) == _bits(cell)
        # and a second grid evaluates nothing
        target.jet_grid(xs, 2)
        assert calls == after_grid


def test_sign_pattern_makes_one_jet_grid_call_per_check(monkeypatch):
    calls = []
    jet_grid = ce.Target.jet_grid

    def counted(self, xs, K, policy=None):
        calls.append(type(self).__name__)
        return jet_grid(self, xs, K, policy)

    monkeypatch.setattr(ce.Target, "jet_grid", counted)
    q_series = ce.QSeriesTarget(0.5, _Q_TERMS)
    lcm = ce.LinComb([(1.0, q_series), (1.0, ce.PolyGammaShift(1))])
    ce.check_sign_pattern(lcm, 6, GRID, "log_completely_monotonic")
    assert calls == ["LinComb"]
    consts = bd.poly_constants(4, 3, 2, 1)
    ce.check_sign_pattern(ce.PolyProductTarget(4, 3, 2, 1, consts.c), 8, GRID, "completely_monotonic")
    assert calls == ["LinComb", "PolyProductTarget"]


def test_q_series_grid_caps_its_block_temporaries(monkeypatch):
    class RecordingNumpy:
        def __init__(self):
            self.sizes, self.rows = [], []

        def __getattr__(self, name):
            return getattr(np, name)

        def _recorded(self, out):
            self.sizes.append(np.size(out))
            self.rows.append(np.shape(out)[-1])
            return out

        def exp(self, *args, **kwargs):
            return self._recorded(np.exp(*args, **kwargs))

        def empty_like(self, *args, **kwargs):  # the block's (column, point, j) products
            return self._recorded(np.empty_like(*args, **kwargs))

    recorder = RecordingNumpy()
    # the block's exps go through specfun._exp_flushed
    monkeypatch.setattr(ce, "np", recorder)
    monkeypatch.setattr(sf, "np", recorder)
    q = 0.95
    target = ce.QSeriesTarget(q, _Q_TERMS[:3])  # jpow = 0
    xs = [float(v) for v in np.geomspace(0.05, 5.0, 64)]
    # past the recurrence shift the default eps certifies in the first block;
    # a far smaller one runs four blocks, the last of 8 first blocks
    fine = sf.TruncationPolicy(eps=1e-300)
    target.jet_grid(xs, 12, fine)
    assert max(recorder.rows) == 8 * ce._FIRST_BLOCK
    # the 64 points fill the cap exactly in the blocks of 256 terms or more
    assert max(recorder.sizes) == ce._CHUNK_ELEMENTS == 1 << 14
    # a stack of three columns at K = 7 (shift 0, 1 to 3 terms, orders
    # -1 to 1) counts its columns toward the cap: its points run in chunks
    stack = [target, ce.QSeriesTarget(q, [(1.0, -1, 0.0), (-1.0, -1, 0.5)]), ce.QSeriesTarget(q, [(1.0, 1, 0.0)])]
    recorder.sizes.clear()
    grids = ce._q_series_grids(stack, np.array(xs), 7, fine)
    assert ce._CHUNK_ELEMENTS // 2 < max(recorder.sizes) <= ce._CHUNK_ELEMENTS
    monkeypatch.undo()
    _assert_grid_matches_per_order(target, xs[::9], 12, fine)
    for column, grid in zip(stack, grids):
        (alone,) = ce._q_series_grids([column], np.array(xs), 7, fine)
        for a, b in zip((grid.values, grid.errors, grid.terms), (alone.values, alone.errors, alone.terms)):
            assert a.tobytes() == b.tobytes()


def test_a_stack_keeps_each_column_whatever_the_order_of_its_step_counts():
    """Columns of 2, 4 and 6 recurrence steps, of one shift, in every order:
    the recurrence part runs the columns of each count apart, reading those
    of one count wherever they stand in the stack, and each column keeps
    the bits it has alone."""
    q = 0.5
    columns = [ce.QSeriesTarget(q, [(1.0, 0, 0.0)]), ce.QSeriesTarget(q, [(1.0, 0, 0.0), (-1.0, 0, 0.25)]),
               ce.QSeriesTarget(q, [(2.0, 1, 0.0)]), ce.QSeriesTarget(q, [(1.0, 1, 0.0), (-1.0, 1, 0.5)]),
               ce.QSeriesTarget(q, [(1.0, 0, 0.0), (-2.0, 1, 0.25), (0.5, 2, 0.75)])]
    assert [len(t._m) for t in columns] == [2, 4, 2, 4, 6]
    xs = np.geomspace(0.1, 10.0, 8)
    for K in (0, 3):
        alone = {t: ce._q_series_grids([t], xs, K, None)[0] for t in columns}
        for order in itertools.permutations(columns):
            for t, grid in zip(order, ce._q_series_grids(list(order), xs, K, None)):
                for a, b in zip((grid.values, grid.errors, grid.terms),
                                (alone[t].values, alone[t].errors, alone[t].terms)):
                    assert a.tobytes() == b.tobytes(), (K, t.terms)


def test_no_q_series_grid_of_the_corpus_enters_a_second_block(monkeypatch, tmp_path):
    """The recurrence shift is sized to the grid's first block: over a
    ``verify --suite all`` run, every q-series grid certifies in it."""
    from qgammakit import cli

    blocks = []
    schedule = ce._blocks

    def counted(*args, **kwargs):
        blocks.append(0)
        for block in schedule(*args, **kwargs):
            blocks[-1] += 1
            yield block

    monkeypatch.setattr(ce, "_blocks", counted)
    assert cli.main(["verify", "--suite", "all", "--out", str(tmp_path / "report.json")]) == 0
    assert blocks and set(blocks) == {1}


def test_q_series_near_q_1_keeps_its_steps_and_temporaries_bounded(monkeypatch):
    """At q = 1 - 1e-9 the recurrence shift would take 1/|ln q| steps: the
    target caps them, keeps every temporary within _CHUNK_ELEMENTS or one
    row of a block, and each point ends in the scalar jet's ConvergenceError."""
    class RecordingNumpy:
        def __init__(self):
            self.shapes = []

        def __getattr__(self, name):
            return getattr(np, name)

        def _recorded(self, out):
            self.shapes.append(out.shape)
            return out

        def exp(self, *args, **kwargs):
            return self._recorded(np.exp(*args, **kwargs))

        def zeros(self, *args, **kwargs):
            return self._recorded(np.zeros(*args, **kwargs))

    target = ce.QSeriesTarget(1.0 - 1e-9, [(1.0, 0, 0.0), (-1.0, 0, 0.5)])
    assert sum(target.steps) <= ce._MAX_STEPS
    recorder = RecordingNumpy()
    monkeypatch.setattr(ce, "np", recorder)
    monkeypatch.setattr(sf, "np", recorder)
    xs = [0.01, 50.0]
    grid = target._jets(np.array(xs), 2, None)
    monkeypatch.undo()
    assert recorder.shapes
    assert all(math.prod(s) <= ce._CHUNK_ELEMENTS or math.prod(s) == s[-1] for s in recorder.shapes)
    for x, failure in zip(xs, grid.failures):
        with pytest.raises(ConvergenceError) as scalar:
            target.jet(x, 2)
        assert type(failure) is ConvergenceError and str(failure) == str(scalar.value)
    # at q = 0.999 the capped shift still certifies orders 0..4 at x = 0.01,
    # where the scalar q_digamma spends its whole budget
    near = ce.QSeriesTarget(0.999, [(1.0, 0, 0.0)])
    assert all(e.terms_used < sf.DEFAULT_POLICY.max_terms for e in near.jet(0.01, 4))
    with pytest.raises(ConvergenceError):
        sf.q_digamma(0.01, 0.999)


# ---------------------------------------------------------------------------
# sign-pattern checks
# ---------------------------------------------------------------------------

GRID = ce.GridSpec(1e-2, 10.0, 32, "log")


def test_cm_pass_on_trigamma():
    rep = ce.check_sign_pattern(ce.PolyGammaShift(1), 6, GRID, "completely_monotonic")
    assert rep.status == "pass" and not rep.violations
    assert rep.orders_checked == 6


def test_cm_pass_on_exp_neg():
    rep = ce.check_sign_pattern(ce.ExpNegX(), 8, GRID, "completely_monotonic")
    assert rep.status == "pass"


def test_cm_fails_on_identity():
    rep = ce.check_sign_pattern(ce.Affine(0.0, 1.0), 1, GRID, "completely_monotonic")
    assert rep.status == "fail"
    assert all(v.order == 1 for v in rep.violations)


def test_cm_fails_on_sin_plus_2():
    rep = ce.check_sign_pattern(ce.SinPlus2(), 8, GRID, "completely_monotonic")
    assert rep.status == "fail" and rep.violations


@pytest.mark.parametrize("target, K, claim", [
    (ce.Const(1.0), 0, "log_completely_monotonic"),
    (ce.ExpNegX(), -1, "completely_monotonic"),
])
def test_sign_pattern_refuses_an_order_set_that_checks_nothing(target, K, claim):
    with pytest.raises(UsageError):
        ce.check_sign_pattern(target, K, GRID, claim)


def test_lcm_checks_neg_log_derivative():
    # f = exp(-x) has -(ln f)' = 1, trivially CM; the check takes h' itself
    # and asserts orders 0..K-1
    rep = ce.check_sign_pattern(ce.Const(1.0), 4, GRID, "log_completely_monotonic")
    assert rep.status == "pass" and rep.orders_checked == 3
    # h' = -1 is not CM
    rep = ce.check_sign_pattern(ce.Const(-1.0), 4, GRID, "log_completely_monotonic")
    assert rep.status == "fail" and {v.order for v in rep.violations} == {0}


def test_inconclusive_reported_not_passed():
    rep = ce.check_sign_pattern(_SwampedTarget(), 2, GRID, "completely_monotonic")
    assert rep.status == "inconclusive"
    assert not rep.violations


def test_sign_pattern_eval_failure_is_inconclusive():
    # grid extends past the target's domain; those points must not crash
    # the check, nor silently pass
    rep = ce.check_sign_pattern(
        ce.PowShift(-5.0, -1.0), 2, ce.GridSpec(1.0, 20.0, 16, "log"),
        "completely_monotonic",
    )
    assert rep.status == "inconclusive"


def test_probe_eval_failure_is_inconclusive():
    def partial(x):
        if x < 1.0:
            raise DomainError("outside")
        return -x

    rep = ce.monotonicity_probe(partial, [0.5, 1.5, 2.5], "decreasing")
    assert rep.status == "inconclusive"


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def _pts(vals):
    return [{"x": float(v)} for v in vals]


def _chain(exprs, pts, claim):
    """check_chain on the expression list and on its row form, which must
    give the same report."""
    listed = ce.check_chain(exprs, pts, claim)
    rowed = ce.check_chain(lambda p: [e(p) for e in exprs], pts, claim)
    assert rowed == listed
    return listed


def test_chain_pass():
    rep = _chain(
        [lambda p: sf.digamma(p["x"]).value, lambda p: sf.digamma(p["x"] + 0.5).value],
        _pts(np.linspace(0.1, 10.0, 30)),
        "chain_lt",
    )
    assert rep.status == "pass"


def test_chain_reflexive_le():
    rep = ce.check_chain([lambda p: 2.0, lambda p: 2.0], _pts([1.0]), "chain_le")
    assert rep.status == "pass"


def test_chain_fail():
    rep = _chain([lambda p: 1.0, lambda p: 0.0], _pts(range(1, 6)), "chain_lt")
    assert rep.status == "fail"


def test_chain_strictness_spot_check():
    # equal expressions pass chain_le but fail the chain_lt spot check
    pts = _pts(range(1, 9))
    assert _chain([lambda p: 1.0, lambda p: 1.0], pts, "chain_le").status == "pass"
    rep = _chain([lambda p: 1.0, lambda p: 1.0], pts, "chain_lt")
    assert rep.status == "fail"
    # each names its pair as any chain violation does, at the spot points
    assert [(v.point, v.order, v.lhs, v.rhs, v.margin) for v in rep.violations] == [
        (x, 0, 1.0, 1.0, 0.0) for x in (3.0, 5.0, 7.0)
    ]
    assert all(v.params == {"x": v.point, "strict_spot": True} for v in rep.violations)


def test_chain_swamped_spot_cell_is_inconclusive():
    # margin 0 under an error of 2 decides nothing, also at a strict spot
    one = sf.Enclosure(1, 1, 1)
    rep = ce.check_chain(lambda p: [one, one], [{"x": 1.0}], "chain_lt")
    assert rep.status == "inconclusive" and not rep.violations


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chain_strictness_is_spot_checked_at_every_point_of_a_short_chain(n):
    # fewer than four points have no three interior ones: each is checked
    rep = ce.check_chain(lambda p: [1.0, 1.0], _pts(range(1, n + 1)), "chain_lt")
    assert rep.status == "fail"
    assert [v.point for v in rep.violations] == [float(x) for x in range(1, n + 1)]
    assert ce.check_chain(lambda p: [1.0, 1.0], [{"x": 1.0}], "chain_lt").status == "fail"
    assert ce.check_chain(lambda p: [1.0, 2.0], [{"x": 1.0}], "chain_lt").status == "pass"


def test_chain_requires_two_exprs():
    with pytest.raises(UsageError):
        ce.check_chain([lambda p: 1.0], _pts([1.0]), "chain_le")
    with pytest.raises(UsageError):
        ce.check_chain(lambda p: [1.0], _pts([1.0]), "chain_le")


@pytest.mark.parametrize("points", [[], [{}], [{"x": 1.0}, {}]], ids=["none", "empty", "one-empty"])
def test_chain_refuses_points_that_check_nothing(points):
    # no point checks nothing, and a point without parameters has no label
    with pytest.raises(UsageError):
        ce.check_chain(lambda p: [0.0, 1.0], points, "chain_le")


def test_chain_reports_the_first_parameter_without_x():
    rep = ce.check_chain(lambda p: [1.0, 0.0], [{"s": 0.25, "q": 0.5}], "chain_le")
    assert [v.point for v in rep.violations] == [0.25]


def test_chain_eval_failure_is_inconclusive():
    def boom(p):
        raise DomainError("outside")

    rep = _chain([boom, lambda p: 1.0], _pts([1.0, 2.0]), "chain_le")
    assert rep.status == "inconclusive"


def test_chain_fills_the_columns_of_a_q_with_one_grid_per_check(monkeypatch):
    grids = []
    stacked = ce._q_series_grids

    def counted(targets, xs, K, policy):
        grids.append((targets, xs.tolist(), K))
        return stacked(targets, xs, K, policy)

    monkeypatch.setattr(ce, "_q_series_grids", counted)
    psi, psi1 = (ce.QSeriesTarget(0.5, [(1.0, m, 0.0)]) for m in (0, 1))
    columns = {"psi": psi, "psi1": psi1, "unread": ce.QSeriesTarget(0.7, [(1.0, 0, 0.0)])}
    pts = [{"x": x, "k": k} for k in (1.0, 2.0) for x in (0.5, 1.0, 2.0)]
    seen = []

    def row(p, read):
        seen.append(read("psi"))
        return [read("psi"), read("psi").value + p["k"], read("psi1").value + 9.0]

    for _ in range(2):
        assert ce.check_chain(row, pts, "chain_lt", columns=columns).status == "pass"
    # one order-0 grid over the distinct points for the columns of q = 0.5,
    # per check: no column outlives its check, and those of a q that no row
    # reads are never filled
    assert grids == [([psi, psi1], [0.5, 1.0, 2.0], 0)] * 2
    # a cell is the Enclosure of its column's grid; these columns share
    # their shift, so the stack keeps each one's own bits
    assert seen[:3] == [psi.deriv(0, x) for x in (0.5, 1.0, 2.0)]


def test_chain_column_failure_is_inconclusive():
    # psi_q(x + 1) fails at x = -2; the other point passes
    columns = {"psi": ce.QSeriesTarget(0.5, [(1.0, 0, 1.0)])}
    rep = ce.check_chain(lambda p, read: [read("psi"), read("psi").value + 1.0], _pts([-2.0, 1.0]),
                         "chain_le", columns=columns)
    assert rep.status == "inconclusive" and not rep.violations
    with pytest.raises(UsageError):
        ce.check_chain([lambda p: 0.0, lambda p: 1.0], _pts([1.0]), columns=columns)


def _chain_oracle(row_fn, pts, claim, read=None):
    """The report of the row loop that ``check_chain`` ran before its rows
    filled arrays: a cell (margin, error, lo, hi) per adjacent pair of each
    row, a row that raises left out and the check marked failed."""
    xs = [float(pt["x"] if "x" in pt else next(iter(pt.values()))) for pt in pts]
    cells, where, failed = [], [], False
    for p, pt in enumerate(pts):
        try:
            values = row_fn(pt) if read is None else row_fn(pt, lambda key: read(key, xs[p]))
            row = [(v.value, v.abs_error) if isinstance(v, sf.Enclosure) else (float(v), 0.0)
                   for v in values]
        except (DomainError, ConvergenceError):
            failed = True
            continue
        for i, ((lo, elo), (hi, ehi)) in enumerate(zip(row, row[1:])):
            cells.append((hi - lo, elo + ehi, lo, hi))
            where.append((p, i))

    def violation(c):
        (p, i), (margin, _, lo, hi) = where[c], cells[c]
        return ce.Violation(xs[p], dict(pts[p]), i, lo, hi, margin)

    spots = (len(pts), [p for p, _ in where]) if claim == "chain_lt" else None
    return ce._decide("chain", 1e-12, cells, failed, violation, spots)


_CHAIN_VALUE = st.one_of(
    st.integers(-2, 2).map(float),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e-13]),
    st.builds(lambda v, e: sf.Enclosure(float(v), e, 1), st.integers(-2, 2), st.sampled_from([0.0, 0.5, 3.0])),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 4).flatmap(lambda w: st.tuples(st.just(w), st.lists(
           st.one_of(st.sampled_from([DomainError, ConvergenceError]),
                     st.lists(_CHAIN_VALUE, min_size=w, max_size=w)), min_size=1, max_size=9))),
       st.sampled_from(["chain_le", "chain_lt"]))
def test_chain_rows_decide_as_the_row_loop_did(width_rows, claim):
    """A row function and the list of callables give the status, worst
    margin and violations of the row loop, with floats, Enclosures, nan,
    inf and rows that raise, at every spot rule."""
    width, rows = width_rows
    pts = [{"x": float(i)} for i in range(len(rows))]

    def row(p):
        r = rows[int(p["x"])]
        if isinstance(r, type):
            raise r("cannot evaluate")
        return r

    expected = _chain_oracle(row, pts, claim)
    assert ce.check_chain(row, pts, claim) == expected
    assert ce.check_chain([lambda p, i=i: row(p)[i] for i in range(width)], pts, claim) == expected


def test_chain_columns_decide_as_the_row_loop_did():
    """With columns, each read is the Enclosure of its column at the point,
    and a point where a column fails is left out as a raising row was."""
    columns = {"psi": ce.QSeriesTarget(0.5, [(1.0, 0, 0.0)]), "psi1": ce.QSeriesTarget(0.5, [(1.0, 1, 0.0)])}
    pts = [{"x": x, "k": k} for k in (-1.0, 1e-13, 2.0) for x in (-2.0, 0.5, 1.0, 2.0, 7.0)]

    def row(p, read):
        return [read("psi"), read("psi").value + p["k"], read("psi1").value + 9.0]

    for claim in ("chain_le", "chain_lt"):
        rep = ce.check_chain(row, pts, claim, columns=columns)
        assert rep == _chain_oracle(row, pts, claim, lambda key, x: columns[key].deriv(0, x))
        assert rep.status == "fail" and rep.violations


@pytest.mark.parametrize("error", [DomainError, ConvergenceError])
def test_a_raising_row_is_inconclusive_and_no_violation(error):
    # the row at the middle spot point of a strict chain raises; the
    # others hold with room, so nothing fails
    def row(p):
        if p["x"] == 5.0:
            raise error("cannot evaluate")
        return [0.0, 1.0]

    rep = ce.check_chain(row, _pts(range(1, 9)), "chain_lt")
    assert rep.status == "inconclusive" and not rep.violations and rep.worst_margin == 1.0
    # beside a row that violates, the check fails on that row alone
    rep = ce.check_chain(lambda p: [0.0, -1.0] if p["x"] == 2.0 else row(p), _pts(range(1, 9)), "chain_le")
    assert rep.status == "fail" and [v.point for v in rep.violations] == [2.0]


def test_chain_rows_need_one_width():
    with pytest.raises(UsageError):
        ce.check_chain(lambda p: [0.0, 1.0] if p["x"] == 1.0 else [0.0, 1.0, 2.0], _pts([1.0, 2.0]))


# ---------------------------------------------------------------------------
# majorization
# ---------------------------------------------------------------------------


def test_majorization_basic():
    assert ce.check_majorization((1, 2), (1, 3)) is True
    assert ce.check_majorization((2, 2), (1, 2)) is False


def test_majorization_preconditions():
    with pytest.raises(PreconditionError):
        ce.check_majorization((1, 2), (2, 1))
    with pytest.raises(PreconditionError):
        ce.check_majorization((-1, 2), (1, 3))
    with pytest.raises(UsageError):
        ce.check_majorization((1, 2), (1, 2, 3))


# ---------------------------------------------------------------------------
# monotonicity probes
# ---------------------------------------------------------------------------


def test_probe_weighted_trigamma_increasing():
    rep = ce.monotonicity_probe(
        lambda x: x * sf.polygamma(1, x + 0.5).value,
        [float(v) for v in np.linspace(0.0, 20.0, 64)],
        "increasing",
    )
    assert rep.status == "pass"


def test_probe_weighted_trigamma_decreasing_at_zero_shift():
    rep = ce.monotonicity_probe(
        lambda x: x * sf.polygamma(1, x).value,
        ce.GridSpec(1e-2, 20.0, 64, "log"),
        "decreasing",
    )
    assert rep.status == "pass"


def test_probe_detects_below_threshold_shift():
    rep = ce.monotonicity_probe(
        lambda x: x * sf.polygamma(1, x + 0.4).value,
        ce.GridSpec(1e-2, 50.0, 64, "log"),
        "increasing",
    )
    assert rep.status == "fail" and len(rep.violations) >= 1


def test_probe_range_containment():
    n = 1
    rep = ce.monotonicity_probe(
        lambda x: -x * sf.polygamma(n + 1, x).value / sf.polygamma(n, x).value,
        ce.GridSpec(1e-2, 50.0, 64, "log"),
        "decreasing",
        value_range=(float(n), float(n + 1)),
    )
    assert rep.status == "pass"


class _OrderOneFails(ce.Target):
    """1/x, whose first derivative raises past x = 2."""

    def deriv(self, k, x, policy=None):
        if k == 1 and x > 2.0:
            raise DomainError("order 1 is undefined past x = 2")
        return sf.Enclosure((-1.0) ** k / x ** (k + 1), 0.0, 1)


@pytest.mark.parametrize("target, xs", [
    (ce.MonomialPolyGamma(1, 1, 0.5, 1.0), [-0.5, 0.0, 1.0, 3.0, 7.5]),  # psi'(0) raises
    (_OrderOneFails(), [0.5, 1.0, 3.0, 4.0]),
], ids=["MonomialPolyGamma", "order-1-fails"])
def test_target_probe_reads_one_grid_and_reports_as_the_callables(monkeypatch, target, xs):
    def callable_form(**kw):
        return ce.monotonicity_probe(
            lambda x: target.deriv(0, x).value, xs, "increasing",
            deriv_fn=lambda x: target.deriv(1, x).value, **kw,
        )

    expected = [callable_form(), callable_form(value_range=(-1.0, 1.0))]
    assert all(rep.status != "pass" for rep in expected)
    calls = []
    jet_grid = ce.Target.jet_grid

    def counted(self, xs, K, policy=None):
        calls.append(K)
        return jet_grid(self, xs, K, policy)

    monkeypatch.setattr(ce.Target, "jet_grid", counted)
    got = ce.monotonicity_probe(target, xs, "increasing", deriv_fn=target)
    assert calls == [1]
    assert repr(got) == repr(expected[0])
    got = ce.monotonicity_probe(target, xs, "increasing", deriv_fn=target, value_range=(-1.0, 1.0))
    assert repr(got) == repr(expected[1])
    # a Target fn alone reads order 0 only
    calls.clear()
    got = ce.monotonicity_probe(target, xs, "increasing")
    assert calls == [0]
    assert repr(got) == repr(ce.monotonicity_probe(lambda x: target.deriv(0, x).value, xs, "increasing"))


class _SwampedFalling(ce.Target):
    """-x, certified only to within 10 at every order."""

    def deriv(self, k, x, policy=None):
        return sf.Enclosure(-x if k == 0 else (-1.0 if k == 1 else 0.0), 10.0, 1)


@pytest.mark.parametrize(
    "kw", [{}, {"deriv_fn": "target"}, {"value_range": (0.0, 1.0)}],
    ids=["differences", "derivative", "range"],
)
def test_target_probe_is_inconclusive_where_its_error_swamps_the_margin(kw):
    xs = [1.0, 2.0, 3.0]
    for target in (_SwampedTarget(), _SwampedFalling()):
        kw_t = {k: (target if v == "target" else v) for k, v in kw.items()}
        rep = ce.monotonicity_probe(target, xs, "increasing", **kw_t)
        assert rep.status == "inconclusive" and not rep.violations
    # the same values from a callable carry no error and decide
    kw_c = {k: (lambda x: -1.0) if v == "target" else v for k, v in kw.items()}
    assert ce.monotonicity_probe(lambda x: -x, xs, "increasing", **kw_c).status == "fail"


def test_probe_direction_validation():
    with pytest.raises(UsageError):
        ce.monotonicity_probe(lambda x: x, [1.0, 2.0], "sideways")


# ---------------------------------------------------------------------------
# one tolerance rule
# ---------------------------------------------------------------------------

_TAU = 1e-12  # tau at the default tol for |value| <= 1


class _Cell(ce.Target):
    """Every order is Enclosure(v, e) at every x, or raises DomainError when
    the cell is None."""

    def __init__(self, cell):
        self.cell = cell

    def deriv(self, k, x, policy=None):
        if self.cell is None:
            raise DomainError("outside")
        return sf.Enclosure(*self.cell, 1)


@pytest.mark.parametrize("cell, status, strict_status, worst", [
    ((1.0, 0.0), "pass", "pass", 1.0),
    ((-_TAU / 2, 0.0), "pass", "fail", -_TAU / 2),
    ((-2 * _TAU, 0.0), "fail", "fail", -2 * _TAU),
    ((1e-13, 1.0), "inconclusive", "inconclusive", 1e-13),
    ((-1.0, 10.0), "inconclusive", "inconclusive", -1.0),
    (None, "inconclusive", "inconclusive", math.inf),
], ids=["clear", "within-tau", "past-tau", "swamped-positive", "swamped-negative", "raises"])
def test_chain_sign_pattern_and_probe_decide_a_cell_alike(cell, status, strict_status, worst):
    # the cell is a chain's pair (0, v), a sign pattern's order 0 and a
    # probe's derivative, all at one point
    target = _Cell(cell)
    pts = [{"x": 1.0}]

    def row(p):
        return [0.0, target.deriv(0, p["x"])]

    reports = [
        ce.check_chain(row, pts, "chain_le"),
        ce.check_sign_pattern(target, 0, [1.0], "nonneg"),
        ce.monotonicity_probe(target, [1.0], "increasing", deriv_fn=target),
    ]
    assert [(r.status, r.worst_margin) for r in reports] == [(status, worst)] * 3
    # at one point the strict spot check reads that point
    strict = [
        ce.check_chain(row, pts, "chain_lt"),
        ce.check_sign_pattern(target, 0, [1.0], "nonneg", strict=True),
    ]
    assert [(r.status, r.worst_margin) for r in strict] == [(strict_status, worst)] * 2


@pytest.mark.parametrize("report", [
    lambda: ce.check_chain(lambda p: [0.0, math.nan], [{"x": 1.0}]),
    lambda: ce.check_chain(lambda p: [math.inf, math.inf], [{"x": 1.0}]),
    lambda: ce.check_chain(lambda p: [0.0, math.inf], [{"x": 1.0}]),
    lambda: ce.monotonicity_probe(lambda x: math.nan, [1.0, 2.0, 3.0], "increasing"),
], ids=["nan", "inf-inf", "inf-margin", "nan-probe"])
def test_a_cell_that_is_not_a_finite_number_decides_nothing(report):
    # such a cell is swamped: neither a violation nor a pass
    rep = report()
    assert rep.status == "inconclusive" and not rep.violations


# ---------------------------------------------------------------------------
# determinism and report structure
# ---------------------------------------------------------------------------


def test_violations_sorted():
    rep = ce.check_chain(
        [lambda p: p["x"], lambda p: -p["x"]],
        _pts([5.0, 1.0, 3.0]),
        "chain_le",
    )
    pts = [v.point for v in rep.violations]
    assert pts == sorted(pts)


def test_grid_spec_validation():
    with pytest.raises(UsageError):
        ce.GridSpec(2.0, 1.0, 8)
    with pytest.raises(UsageError):
        ce.GridSpec(1.0, 2.0, 1)
    with pytest.raises(UsageError):
        ce.GridSpec(0.0, 2.0, 8, "log")
    with pytest.raises(UsageError):
        ce.GridSpec(1.0, 2.0, 8, "cubic")
    with pytest.raises(UsageError):
        ce.GridSpec(1.0, math.inf, 4)
    with pytest.raises(UsageError):
        ce.GridSpec(-math.inf, 1.0, 4, "linear")
    with pytest.raises(UsageError):
        ce.GridSpec(0.1, 1.0, 2.5)
    g = ce.GridSpec(0.0, 2.0, 5, "linear")
    assert g.values() == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_grid_spec_values_are_computed_once_and_shared_by_no_caller(monkeypatch):
    """A spec computes its points once, with numpy's floats, and each call
    returns a fresh list, so that no caller can change another's points."""
    calls = []
    geomspace = np.geomspace

    def counted(*args, **kwargs):
        calls.append(args)
        return geomspace(*args, **kwargs)

    monkeypatch.setattr(ce.np, "geomspace", counted)
    g = ce.GridSpec(1e-2, 50.0, 64, "log")
    first = g.values()
    assert first == [float(v) for v in geomspace(1e-2, 50.0, 64)]
    first[0] = -1.0
    second = g.values()
    assert second[0] == 1e-2 and second is not first
    assert g.values() == second and len(calls) == 1
