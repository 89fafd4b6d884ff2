import collections
import inspect
import math

import numpy as np
import pytest

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
    assert enc.value == sf.digamma(2.0).value


def test_order_caps():
    with pytest.raises(UsageError):
        ce.nth_derivative("digamma", 13, 1.0)
    fd = ce.FiniteDifference(lambda x: math.exp(-x))
    with pytest.raises(UsageError):
        fd.deriv(9, 1.0)


def test_unknown_target_family():
    with pytest.raises(UsageError):
        ce.make_target("not_a_family")


def test_fd_agreement_with_analytic():
    # within 1e-6 relative for k <= 4 on smooth targets over (0.5, 10]
    cases = [
        (lambda x: sf.digamma(x).value, ce.PolyGammaShift(0)),
        (lambda x: sf.polygamma(1, x).value, ce.PolyGammaShift(1)),
        (lambda x: sf.q_digamma(x, 0.5).value, ce.QPolyGammaShift(0, 0.5)),
    ]
    for fn, target in cases:
        fd = ce.FiniteDifference(fn)
        for k in (1, 2, 3, 4):
            for x in np.geomspace(0.55, 10.0, 12):
                a = target.deriv(k, float(x))
                f = fd.deriv(k, float(x))
                assert abs(a.value - f.value) <= 1e-6 * abs(a.value), (k, x)


def test_qseries_target_matches_q_polygamma():
    # the combined-series form of -(psi_q + ln(1-q)) has derivatives equal
    # to -psi_q^(k)
    q = 0.5
    lnq = math.log(q)
    target = ce.QSeriesTarget(q, [(0.0, lambda j: 1.0 / (-np.expm1(j * lnq)), 1.0 / (1.0 - q), 0)])
    for k in (1, 2, 4):
        for x in (0.3, 1.0, 8.0):
            a = target.deriv(k, x)
            b = sf.q_polygamma(k, x, q)
            assert abs(a.value + b.value) <= a.abs_error + b.abs_error + 1e-14


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


# ---------------------------------------------------------------------------
# jets: orders 0..K in one pass, bit for bit the per-order derivatives
# ---------------------------------------------------------------------------

_EPS = 2.220446049250313e-16


def _per_order(t, k, x, policy=None):
    """d^k t at x, one order at a time, as the composite targets computed it
    before jets; leaf targets are asked through their own ``deriv``."""
    if isinstance(t, ce.LinComb):
        val = err = 0.0
        used = 0
        for coef, target, shift, scale in t.terms:
            e = _per_order(target, k, scale * x + shift, policy)
            w = coef * scale**k
            val += w * e.value
            err += abs(w) * e.abs_error
            used = max(used, e.terms_used)
        return sf.Enclosure(val, err + 4.0 * _EPS * abs(val), used)
    if isinstance(t, ce.DerivOffset):
        return _per_order(t.base, k + t.offset, x, policy)
    if isinstance(t, ce.MonomialPolyGamma):
        val = err = 0.0
        for j in range(min(k, t.p) + 1):
            xc = math.comb(k, j) * math.perm(t.p, j) * x ** (t.p - j)
            order = t.m + k - j
            g = sf.digamma(x + t.a, policy) if order == 0 else sf.polygamma(order, x + t.a, policy)
            val += xc * g.value
            err += abs(xc) * g.abs_error
        return sf.Enclosure(t.sign * val, err + 4.0 * _EPS * abs(val), 1)
    if isinstance(t, ce.PolyProductTarget):
        def factor(order, j):
            if order == 0:
                return sf.Enclosure(1.0 if j == 0 else 0.0, 0.0, 0)
            g = sf.polygamma(order + j, x, policy)
            return sf.Enclosure((1.0 if order % 2 == 1 else -1.0) * g.value, g.abs_error, 0)

        m, n, p, q_idx = t.orders
        val = err = 0.0
        for j in range(k + 1):
            ck = math.comb(k, j)
            a, b = factor(m, j), factor(n, k - j)
            cc, dd = factor(p, j), factor(q_idx, k - j)
            val += ck * (a.value * b.value - t.c * cc.value * dd.value)
            err += ck * (
                abs(a.value) * b.abs_error
                + abs(b.value) * a.abs_error
                + t.c * (abs(cc.value) * dd.abs_error + abs(dd.value) * cc.abs_error)
            )
        return sf.Enclosure(t.sign * val, err + 8.0 * _EPS * abs(val), 1)
    if isinstance(t, ce.QSeriesTarget):
        policy = policy or sf.DEFAULT_POLICY
        lnq = math.log(t.q)
        pref = -lnq * lnq**k
        total = abs_total = floor = 0.0
        j0, block = 0, 256
        while True:
            hi = min(j0 + block, policy.max_terms)
            j = np.arange(j0 + 1, hi + 1, dtype=float)
            for shift, coeff_fn, _, _ in t.components:
                # one exp per term, then k products by j
                arg = j * ((x + shift) * lnq)
                terms = np.exp(arg) * coeff_fn(j)
                for _ in range(k):
                    terms *= j
                total += float(np.sum(terms))
                abs_total += float(np.sum(np.abs(terms) * (1.0 + np.abs(arg) + k)))
            j0 = hi
            block = min(2 * block, 1 << 17)
            tail, converged = 0.0, True
            for shift, _, amp, jpow in t.components:
                floor += max(amp, 1.0) * len(j) * (j0 + 1.0) ** (k + jpow)
                rho = ((j0 + 2.0) / (j0 + 1.0)) ** (k + jpow) * t.q ** (x + shift)
                if rho >= 1.0:
                    converged = False
                    continue
                tail += (
                    amp * (j0 + 1.0) ** (k + jpow) * t.q ** ((j0 + 1.0) * (x + shift)) / (1.0 - rho)
                )
            if converged and tail <= policy.eps * (1.0 + abs(total)):
                break
            if j0 >= policy.max_terms:
                raise ConvergenceError("combined q-series did not certify")
        val = t.sign * ((t.const if k == 0 else 0.0) + pref * total)
        slop = (2.0 + math.log2(max(j0, 2))) * _EPS * abs(pref) * abs_total
        const_slop = 3.0 * _EPS * abs(t.const) if k == 0 else 0.0
        ulp0 = math.ulp(0.0)
        under = abs(pref) * (ulp0 * (k + 3.0) * floor) + ulp0
        return sf.Enclosure(val, abs(pref) * tail + slop + const_slop + under, j0)
    return t.deriv(k, x, policy)


def _bits(enc):
    return (enc.value.hex(), enc.abs_error.hex(), enc.terms_used)


class _SwampedTarget(ce.AnalyticTarget):
    """Positive value drowned by its own certificate at every order."""

    def deriv(self, k, x, policy=None):
        return sf.Enclosure(1e-30, 1.0, 1)


class _AlternatingTarget(ce.AnalyticTarget):
    """(-1)^k / (1 + x), defined only through ``deriv``; raises at order 3
    for x > 1."""

    def deriv(self, k, x, policy=None):
        if k == 3 and x > 1.0:
            raise DomainError("order 3 is undefined past x = 1")
        return sf.Enclosure((-1.0) ** k / (1.0 + x), 0.0, 1)


def _q_components(q):
    lnq = math.log(q)
    return [
        (0.5, lambda j: np.full_like(j, -0.3), 0.3, 0),
        (0.0, lambda j: 1.0 / (-np.expm1(j * lnq)), 1.0 / (1.0 - q), 0),
        (0.25, lambda j: j * np.exp(j * (0.5 * lnq)), 1.0, 1),
    ]


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
        ce.QSeriesTarget(0.7, _q_components(0.7), const=0.2, sign=-1.0),
        ce.ExpNegX(),
        ce.SinPlus2(),
        ce.MonomialPolyGamma(2, 1, 1.0, 1.0),
        ce.MonomialPolyGamma(1, 0, 0.5, -1.0),
        ce.PolyProductTarget(3, 2, 2, 1, consts.c),
        ce.PolyProductTarget(2, 1, 1, 0, 1.0, sign=-1.0),
        ce.DerivOffset(ce.MonomialPolyGamma(2, 1, 1.0, 1.0), 2),
        ce.DerivOffset(ce.QSeriesTarget(0.5, _q_components(0.5)), 1),
        ce.LinComb([
            (1.0, ce.PolyGammaShift(1), 0.0),
            (-0.5, ce.PolyGammaShift(1, 0.5), 0.0, 2.0),
            (2.0, ce.DerivOffset(ce.LogShift(1.0), 1), 0.5),
            (0.3, ce.MonomialPolyGamma(1, 2, 0.5, 1.0), 0.0),
        ]),
        ce.FiniteDifference(lambda x: sf.digamma(x).value),
        _SwampedTarget(),
        _AlternatingTarget(),
    ]


def _jet_id(target):
    # Class name; duplicates get pytest's index suffix.  The q > 1 psi_q
    # case is named apart so the q < 1 case keeps its plain id.
    name = type(target).__name__
    if isinstance(target, ce.QPolyGammaShift) and target.q > 1.0:
        name += "QAbove1"
    return name


def test_jets_cover_every_target_class():
    classes = {
        cls for _, cls in inspect.getmembers(ce, inspect.isclass)
        if issubclass(cls, ce.Target) and cls.__module__ == ce.__name__
    } - {ce.Target, ce.AnalyticTarget}
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
    # a q-series whose high orders run out of terms before the low ones
    q = 0.9
    series = ce.QSeriesTarget(q, _q_components(q)[1:2])
    tight = sf.TruncationPolicy(max_terms=768)
    rep = ce.check_sign_pattern(series, 0, grid, "completely_monotonic", policy=tight)
    assert rep.status == "pass"
    with pytest.raises(ConvergenceError):
        series.jet(0.5, 12, tight)
    rep = ce.check_sign_pattern(series, 12, grid, "completely_monotonic", policy=tight)
    assert rep.status == "inconclusive" and not rep.violations


def test_sign_pattern_evaluates_each_polygamma_order_once_per_point(monkeypatch):
    calls = collections.Counter()
    polygamma = ce.polygamma

    def counted(n, x, policy=None):
        calls[n, x] += 1
        return polygamma(n, x, policy)

    monkeypatch.setattr(ce, "polygamma", counted)
    consts = bd.poly_constants(4, 3, 2, 1)
    target = ce.PolyProductTarget(4, 3, 2, 1, consts.c)
    grid = ce.GridSpec(1e-2, 10.0, 16, "log")
    rep = ce.check_sign_pattern(target, 8, grid, "completely_monotonic")
    assert rep.status == "pass"
    assert len({x for _, x in calls}) == 16
    assert max(calls.values()) == 1


def test_rows_are_shared_only_inside_a_run(monkeypatch):
    calls = collections.Counter()
    polygamma = ce.polygamma

    def counted(n, x, policy=None):
        calls[n, x] += 1
        return polygamma(n, x, policy)

    monkeypatch.setattr(ce, "polygamma", counted)
    target = ce.PolyGammaShift(1)
    grid = ce.GridSpec(0.5, 4.0, 8, "log")
    reports = [ce.check_sign_pattern(target, 3, grid, "completely_monotonic") for _ in range(2)]
    assert len(calls) == 4 * 8 and set(calls.values()) == {2}
    with sf._run_cells():
        reports += [ce.check_sign_pattern(target, 3, grid, "completely_monotonic") for _ in range(2)]
        # orders 1..4 once more, asked for by a composite target on the same grid
        ce.check_sign_pattern(ce.MonomialPolyGamma(0, 1), 3, grid, "completely_monotonic")
    assert set(calls.values()) == {3}
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
    _assert_grid_matches_per_order(target, [0.05, 0.7, 3.0, 25.0], target.max_order)


def test_jet_grid_marks_exactly_the_points_that_raise():
    q_series = ce.QSeriesTarget(0.7, _q_components(0.7), const=0.2, sign=-1.0)
    xs = [-0.7, 0.5, 0.0, 2.0, -0.1, 8.0]  # x <= 0 puts x + 0.0 out of the domain
    ok = _assert_grid_matches_per_order(q_series, xs, 6)
    assert ok.tolist() == [False, True, False, True, False, True]
    composite = ce.LinComb([
        (1.0, ce.DerivOffset(q_series, 1), 0.0),
        (0.5, ce.PowShift(-1.0, -1.0), 0.0),  # needs x > 1
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
    # high orders at small x run out of terms; the rest of the grid certifies
    series = ce.QSeriesTarget(0.9, _q_components(0.9)[1:2])
    tight = sf.TruncationPolicy(max_terms=768)
    ok = _assert_grid_matches_per_order(series, [0.5, 1.0, 2.0, 4.0, 8.0], 12, tight)
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
    """Count the scalar psi-family calls cm_engine makes."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("ln_gamma", "digamma", "polygamma", "q_ln_gamma", "q_digamma", "q_polygamma"):
        monkeypatch.setattr(ce, name, counted(name, getattr(ce, name)))
    return calls


# leaf; the calls of deriv(1, 1.0) and of a grid of orders 0..2 at three
# points; the cells (evaluator, context) of orders 1 and 2
_LEAF_CELLS = [
    (
        ce.QPolyGammaShift(1, 0.7),
        {"q_polygamma": 1}, {"q_polygamma": 9},
        ("q_polygamma", (2, 0.7)), ("q_polygamma", (3, 0.7)),
    ),
    (
        ce.QLnGammaFn(0.7),
        {"q_digamma": 1}, {"q_ln_gamma": 3, "q_digamma": 3, "q_polygamma": 3},
        ("q_digamma", (0.7,)), ("q_polygamma", (1, 0.7)),
    ),
    (
        ce.LnGammaFn(),
        {"digamma": 1}, {"ln_gamma": 3, "digamma": 3, "polygamma": 3},
        ("digamma", ()), ("polygamma", (1,)),
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
        table = sf._cells(getattr(ce, order1[0]), order1[1], None)
        assert table[1.0] is first
        # a cell the grid made is read by deriv as the same Enclosure
        assert target.deriv(2, 2.0) is sf._cells(getattr(ce, order2[0]), order2[1], None)[2.0]
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
    q_series = ce.QSeriesTarget(0.5, _q_components(0.5))
    lcm = ce.ExpNegForm(ce.LinComb([(1.0, q_series, 0.0), (1.0, ce.PolyGammaShift(1), 0.0)]))
    ce.check_sign_pattern(lcm, 6, GRID, "log_completely_monotonic")
    assert calls == ["LinComb"]
    consts = bd.poly_constants(4, 3, 2, 1)
    ce.check_sign_pattern(ce.PolyProductTarget(4, 3, 2, 1, consts.c), 8, GRID, "completely_monotonic")
    assert calls == ["LinComb", "PolyProductTarget"]


def test_q_series_grid_caps_its_block_temporaries(monkeypatch):
    class RecordingNumpy:
        def __init__(self):
            self.sizes = []

        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, a, *args, **kwargs):
            self.sizes.append(np.size(a))
            return np.exp(a, *args, **kwargs)

    recorder = RecordingNumpy()
    monkeypatch.setattr(ce, "np", recorder)
    q = 0.95
    target = ce.QSeriesTarget(q, _q_components(q))
    xs = [float(v) for v in np.geomspace(0.05, 5.0, 64)]
    target.jet_grid(xs, 12)
    # blocks of up to 8192 terms: 64 points x 256 terms fill the cap exactly
    assert max(recorder.sizes) == ce._CHUNK_ELEMENTS == 1 << 14
    monkeypatch.undo()
    _assert_grid_matches_per_order(target, xs[::9], 12)


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


def test_lcm_requires_exp_form():
    with pytest.raises(UsageError):
        ce.check_sign_pattern(ce.PolyGammaShift(1), 4, GRID, "log_completely_monotonic")


def test_lcm_checks_neg_log_derivative():
    # f = exp(-x) has -(ln f)' = 1, trivially CM
    rep = ce.check_sign_pattern(
        ce.ExpNegForm(ce.Const(1.0)), 4, GRID, "log_completely_monotonic"
    )
    assert rep.status == "pass"


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
    assert all(v.params.get("strict_spot") for v in rep.violations)


def test_chain_requires_two_exprs():
    with pytest.raises(UsageError):
        ce.check_chain([lambda p: 1.0], _pts([1.0]), "chain_le")
    with pytest.raises(UsageError):
        ce.check_chain(lambda p: [1.0], _pts([1.0]), "chain_le")


def test_chain_eval_failure_is_inconclusive():
    def boom(p):
        raise DomainError("outside")

    rep = _chain([boom, lambda p: 1.0], _pts([1.0, 2.0]), "chain_le")
    assert rep.status == "inconclusive"


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


class _OrderOneFails(ce.AnalyticTarget):
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


class _SwampedFalling(ce.AnalyticTarget):
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
# determinism and report structure
# ---------------------------------------------------------------------------


def test_reports_deterministic_across_jobs():
    def run(jobs):
        return ce.check_chain(
            [lambda p: sf.digamma(p["x"]).value, lambda p: sf.digamma(p["x"] + 0.3).value],
            _pts(np.linspace(0.1, 20.0, 64)),
            "chain_lt",
            jobs=jobs,
        )

    a, b = run(1), run(4)
    assert a.worst_margin == b.worst_margin
    assert a.status == b.status
    assert a.violations == b.violations


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
    g = ce.GridSpec(0.0, 2.0, 5, "linear")
    assert g.values() == [0.0, 0.5, 1.0, 1.5, 2.0]
