"""Certificate soundness: |value - f^(k)(x)| <= abs_error at every cell of a
jet grid, against closed forms evaluated at 40 digits.

The references are written out per target class (mpmath's polygamma and
loggamma, with Leibniz and linear-combination sums done in mpmath), never
through ``mp.diff``; psi_q is a direct sum (``_psi_q``), never ``mp.nsum``.
The points lean toward 1/e, where x ln x has a stationary point, and toward
both ends of [1e-2, 1e2].  ``kernel_derivative``, which has no closed form,
is checked against ``mp.diff`` at 40 digits.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from qgammakit import bounds as bd
from qgammakit import cm_engine as ce
from qgammakit import corpus
from qgammakit import specfun as sf


def _ref(t, k, x):
    """d^k t/dx^k at x as an mpf; call inside ``mp.workdps``."""
    x = mp.mpf(x)
    if isinstance(t, ce.Const):
        return mp.mpf(t.c) if k == 0 else mp.zero
    if isinstance(t, ce.Affine):
        return [t.a0 + t.a1 * x, mp.mpf(t.a1)][k] if k < 2 else mp.zero
    if isinstance(t, ce.PowShift):
        return mp.ff(t.p, k) * (x + t.c) ** (t.p - k)
    if isinstance(t, ce.LogShift):
        if k == 0:
            return mp.log(x + t.c)
        return (-1) ** (k - 1) * mp.factorial(k - 1) * (x + t.c) ** (-k)
    if isinstance(t, ce.XLogX):
        if k < 2:
            return [x * mp.log(x), mp.log(x) + 1][k]
        return (-1) ** k * mp.factorial(k - 2) * x ** (1 - k)
    if isinstance(t, ce.ExpNegX):
        return (-1) ** k * mp.exp(-x)
    if isinstance(t, ce.SinPlus2):
        return mp.sin(x + k * mp.pi / 2) + (2 if k == 0 else 0)
    if isinstance(t, ce.LnGammaFn):
        return mp.loggamma(x) if k == 0 else mp.polygamma(k - 1, x)
    if isinstance(t, ce.PolyGammaShift):
        return mp.polygamma(t.m + k, x + t.a)
    if isinstance(t, ce.QPolyGammaShift):
        return _psi_q(t.m + k, x + t.a, t.q)
    if isinstance(t, ce.DerivOffset):
        return _ref(t.base, k + t.offset, x)
    if isinstance(t, ce.LinComb):
        return mp.fsum(
            mp.mpf(coef) * mp.mpf(scale) ** k * _ref(target, k, scale * x + shift)
            for coef, target, shift, scale in t.terms
        )
    if isinstance(t, ce.MonomialPolyGamma):
        return t.sign * mp.fsum(
            mp.binomial(k, j) * mp.ff(t.p, j) * x ** (t.p - j) * mp.polygamma(t.m + k - j, x + t.a)
            for j in range(min(k, t.p) + 1)
        )
    if isinstance(t, ce.PolyProductTarget):
        def factor(order, j):
            if order == 0:
                return mp.one if j == 0 else mp.zero
            return (-1) ** (order + 1) * mp.polygamma(order + j, x)

        a, b, c, d = t.orders
        return t.sign * mp.fsum(
            mp.binomial(k, j)
            * (factor(a, j) * factor(b, k - j) - t.c * factor(c, j) * factor(d, k - j))
            for j in range(k + 1)
        )
    raise TypeError(f"no reference for {type(t).__name__}")


def _li_neg(k, u):
    """Li_{-k}(u) = sum_{m>=1} m^k u^m = u A_k(u) / (1 - u)^(k+1), with the
    Eulerian polynomial A_k in closed form."""
    if k == 0:
        return u / (1 - u)
    eulerian = [
        sum((-1) ** i * math.comb(k + 1, i) * (m + 1 - i) ** k for i in range(m + 1))
        for m in range(k)
    ]
    return u * mp.polyval(eulerian[::-1], u) / (1 - u) ** (k + 1)


def _psi_q(k, y, q, const=True):
    """psi_q^(k)(y) for 0 < q < 1 as an mpf; call inside ``mp.workdps``.

    The series (ln q)^(k+1) sum_j j^k q^(jy) / (1 - q^j) (plus -ln(1 - q) at
    k = 0, unless ``const`` is False) is summed term by term at y + N, where
    its terms fall by e^-4 or faster, until a term is below eps of the sum.
    The functional equation psi_q(y) = psi_q(y + N) + ln q sum_{i<N}
    q^(y+i) / (1 - q^(y+i)) brings it back; its terms differentiate to
    (ln q)^(k+1) Li_{-k}(q^(y+i)).
    """
    y, q = mp.mpf(y), mp.mpf(q)
    lnq = mp.log(q)
    n = max(0, math.ceil(4 / -lnq - y))
    z = y + n
    total = mp.zero
    j = 0
    while True:
        j += 1
        term = mp.mpf(j) ** k * q ** (j * z) / (1 - q**j)
        total += term
        if j >= k and term <= mp.eps * total:
            break
    shifted = mp.fsum(_li_neg(k, q ** (y + i)) for i in range(n))
    return (-mp.log(1 - q) if k == 0 and const else 0) + lnq ** (k + 1) * (total + shifted)


def _assert_sound(target, xs, K, ref=None):
    """Every cell of ``target.jet_grid(xs, K)`` is within its error of
    ``ref(k, x)`` (by default ``_ref(target, k, x)``)."""
    ref = ref or (lambda k, x: _ref(target, k, x))
    values, errors, ok = target.jet_grid(xs, K)
    with mp.workdps(40):
        for p, x in enumerate(xs):
            if not ok[p]:
                continue
            for k in range(K + 1):
                miss = abs(mp.mpf(values[k, p]) - ref(k, mp.mpf(x)))
                assert miss <= errors[k, p], (type(target).__name__, k, x, errors[k, p])


_X = st.one_of(
    st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
    st.floats(-1e-3, 1e-3).map(lambda d: math.exp(-1.0) * (1.0 + d)),
    st.floats(0.01, 0.0102),
    st.floats(98.0, 100.0),
)
_XS = st.lists(_X, min_size=1, max_size=4)

_LEAVES = [
    ce.Const(2.5),
    ce.Const(-0.5 * math.log(2.0 * math.pi)),
    ce.Affine(0.0, 1.0),
    ce.Affine(0.1, 0.3),
    ce.Affine(1.0, -2.0),
    ce.PowShift(0.0, -1.0),
    ce.PowShift(0.25, -1.0),
    ce.PowShift(-0.25, -1.0),
    ce.PowShift(0.625, -2.0),
    ce.PowShift(0.5, -1.5),
    ce.LogShift(0.0),
    ce.LogShift(1.0),
    ce.LogShift(-0.25),
    ce.XLogX(),
    ce.ExpNegX(),
    ce.SinPlus2(),
]


def _corpus_composites():
    """(K, target) of every composite a corpus check evaluates whose leaves
    have a closed-form reference here (no q-family leaf)."""
    covered = (ce.Const, ce.Affine, ce.PowShift, ce.LogShift, ce.XLogX, ce.ExpNegX,
               ce.SinPlus2, ce.LnGammaFn, ce.PolyGammaShift, ce.MonomialPolyGamma,
               ce.PolyProductTarget)

    def referenced(t):
        if isinstance(t, ce.LinComb):
            return all(referenced(term[1]) for term in t.terms)
        if isinstance(t, ce.DerivOffset):
            return referenced(t.base)
        return isinstance(t, covered)

    found = []
    for cid in corpus.ALL_IDS:
        for check in corpus.instantiate(cid):
            kw = check.kwargs
            for t in (kw.get("target"), kw.get("fn"), kw.get("deriv_fn")):
                lcm = isinstance(t, ce.ExpNegForm)
                t = t.h_prime if lcm else t
                composite = isinstance(t, (ce.LinComb, ce.MonomialPolyGamma,
                                           ce.PolyProductTarget, ce.DerivOffset))
                if composite and referenced(t):
                    found.append((kw.get("K", 1) - lcm, t))
    return found


_COMPOSITES = _corpus_composites()


def test_composites_come_from_every_composite_family():
    kinds = {type(t) for _, t in _COMPOSITES}
    assert kinds == {ce.LinComb, ce.MonomialPolyGamma, ce.PolyProductTarget, ce.DerivOffset}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(_LEAVES), _XS, st.integers(0, ce.Target.max_order))
def test_leaf_certificates_hold(leaf, xs, K):
    _assert_sound(leaf, xs, K)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(_COMPOSITES), _XS, st.data())
def test_composite_certificates_hold(case, xs, data):
    K, target = case
    _assert_sound(target, xs, data.draw(st.integers(0, K)))


@pytest.mark.parametrize("target, k, xs", [
    (ce.Affine(0.1, 0.3), 0, [0.37, 1.3, 7.0, 42.0]),
    (ce.XLogX(), 1, [math.exp(-1.0) * (1.0 + d) for d in (-1e-3, -1e-6, 0.0, 1e-9, 1e-4)]),
    (ce.LogShift(1.0), 0, [0.01]),  # 1 + x rounds by far more than eps |ln(1 + x)|
    (ce.PowShift(0.25, -1.0), 12, [0.3]),  # ... and moves y^(-13) by 13 eps/2
], ids=["Affine", "XLogX", "LogShift", "PowShift"])
def test_leaves_bound_cancellation_and_argument_rounding(target, k, xs):
    with mp.workdps(40):
        for x in xs:
            e = target.deriv(k, x)
            assert abs(mp.mpf(e.value) - _ref(target, k, x)) <= e.abs_error, x


def _beta_ref(q, beta):
    """h' of beta-lcm: psi_{q^(1/beta)}(beta x) - psi_q(x), negated for
    beta < 1, at order k."""
    sign = 1 if beta > 1 else -1

    def ref(k, x):
        qb = mp.mpf(q) ** (1 / mp.mpf(beta))
        return sign * (beta**k * _psi_q(k, beta * x, qb) - _psi_q(k, x, q))

    return ref


def _gq_ref(a, b, c, q, sign):
    """-(ln g_q(x; a, b, c))' at order k: (b - a) d/dx ln(1 - q^(x+c)) +
    psi_q(x + a) - psi_q(x + b), times ``sign``.  The psi_q constants cancel
    exactly, so they are left out: at x = 100 the value is 1e-31 of them."""

    def ref(k, x):
        lnq = mp.log(q)
        bracket = (mp.mpf(b) - a) * -(lnq ** (k + 1)) * _li_neg(k, mp.mpf(q) ** (x + c))
        psi_diff = _psi_q(k, x + a, q, const=False) - _psi_q(k, x + b, q, const=False)
        return sign * (bracket + psi_diff)

    return ref


def _psi_q_series(q):
    """psi_q as a QSeriesTarget: -ln(1 - q) + (-ln q) sum q^(jx) (-1/(1 - q^j))."""
    lnq = math.log(q)
    return ce.QSeriesTarget(q, [(0.0, lambda j: 1.0 / np.expm1(j * lnq), 1.0 / (1.0 - q), 0)],
                            const=-math.log1p(-q))


# at q = 5e-4 and x in [93, 100], exp(j x ln q) is subnormal or 0 for the
# first terms: only the absolute floor of QSeriesTarget covers them
_XS_UNDERFLOW = st.lists(st.one_of(st.floats(93.0, 100.0), _X), min_size=1, max_size=4)


def _q_series_cases():
    """(K, target, reference, points) of the beta-lcm targets, two
    _gq_neg_log_deriv targets as thm5-lcm and thm8-lcm build them, psi_q as
    a q-series (at q = 5e-4 in the underflow regime too) and psi_q leaves."""
    cases = []
    for check in corpus.instantiate("beta-lcm"):
        q, beta = map(float, re.findall(r"=([0-9.]+)", check.label))
        cases.append((check.kwargs["K"] - 1, check.kwargs["target"].h_prime, _beta_ref(q, beta),
                      _XS))
    u = bd.alzer_u(0.9, 0.5)
    for a, b, c, q, sign in ((0.3, 1.1, 0.6, 0.5, -1.0), (0.5, 1.0, u, 0.9, 1.0)):
        cases.append((7, corpus._gq_neg_log_deriv(a, b, c, q, sign), _gq_ref(a, b, c, q, sign),
                      _XS))
    for q in (0.3, 0.9):
        cases.append((8, _psi_q_series(q), lambda k, x, q=q: _psi_q(k, x, q), _XS))
    cases.append((7, _psi_q_series(5e-4), lambda k, x: _psi_q(k, x, 5e-4), _XS_UNDERFLOW))
    for leaf in (ce.QPolyGammaShift(0, 0.7), ce.QPolyGammaShift(2, 0.3, 0.25)):
        cases.append((8, leaf, None, _XS))
    return cases


_Q_SERIES = _q_series_cases()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(_Q_SERIES), st.data())
def test_q_series_certificates_hold(case, data):
    K, target, ref, xs = case
    _assert_sound(target, data.draw(xs), data.draw(st.integers(0, K)), ref)


@pytest.mark.parametrize("x", [97.0, 99.0, 100.0])
def test_q_series_floor_covers_underflowing_terms(x):
    # exp(x ln q) is subnormal or 0 and every later exp is 0; without an
    # absolute floor these cells report abs_error 0 and miss
    q = 5e-4
    _assert_sound(_psi_q_series(q), [x], 7, lambda k, x: _psi_q(k, x, q))


@pytest.mark.parametrize("q", [0.3, 0.9])
def test_q_series_constant_is_in_the_order_0_error(q):
    # at large x the series is below an ulp of the constant, so order 0 is
    # the constant's own rounding and that of adding it, and nothing else
    _assert_sound(_psi_q_series(q), [30.0, 60.0, 100.0], 2, lambda k, x: _psi_q(k, x, q))


def _kernel_ref(n, k, t):
    """d^k/dt^k t^n/(1 - e^(-t)) at t as an mpf; call inside ``mp.workdps``."""
    return mp.diff(lambda s: s**n / -mp.expm1(-s), mp.mpf(t), k)


_T0 = sf._KERNEL_T0
# t -> 0+ (down to where t^(n-1-k) is subnormal), t just below t0 (the
# Bernoulli series) and just above it (the exponential series), and t on
# [1, 40]
_KERNEL_T = st.one_of(
    st.floats(-20.0, 0.0).map(lambda e: 10.0**e),
    st.floats(-1e-6, 0.0).map(lambda d: _T0 * (1.0 + d)),
    st.floats(1e-12, 1e-6).map(lambda d: _T0 * (1.0 + d)),
    st.floats(0.0, 1.6).map(lambda e: 10.0**e),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.one_of(st.integers(1, 40), st.just(40)),
       st.one_of(st.integers(0, 20), st.sampled_from([0, 20])),
       _KERNEL_T)
@example(40, 0, 1e-10)  # t^39 underflows: only the absolute floor holds the truth, 1e-390
@example(40, 20, 3e-17)  # t^19 is subnormal, but the value, 1.9e-285, is not
def test_kernel_certificates_hold(n, k, t):
    enc = sf.kernel_derivative(n, k, t)
    with mp.workdps(40):
        assert abs(mp.mpf(enc.value) - _kernel_ref(n, k, t)) <= enc.abs_error, enc


@pytest.mark.parametrize("t", [1.9, 1.99, _T0, 2.01, 2.1])
def test_kernel_regimes_agree_near_t0(t):
    """Both series converge around t0: their values agree within the sum of
    their certificates."""
    for n in (1, 2, 5, 16, 40):
        for k in (0, 1, 7, 16, 20):
            a = sf._kernel_bernoulli(n, k, t, sf.DEFAULT_POLICY)
            b = sf._kernel_exp(n, k, t, sf.DEFAULT_POLICY)
            assert abs(a.value - b.value) <= a.abs_error + b.abs_error, (n, k, a, b)
