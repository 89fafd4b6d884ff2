"""Certificate soundness: |value - f^(k)(x)| <= abs_error at every cell of a
jet grid, against closed forms evaluated at 40 digits.

The references are written out per target class (mpmath's polygamma and
loggamma, with Leibniz and linear-combination sums done in mpmath), never
through ``mp.diff``.  The points lean toward 1/e, where x ln x has a
stationary point, and toward both ends of [1e-2, 1e2].
"""

import math

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from qgammakit import cm_engine as ce
from qgammakit import corpus


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


def _assert_sound(target, xs, K):
    values, errors, ok = target.jet_grid(xs, K)
    with mp.workdps(40):
        for p, x in enumerate(xs):
            if not ok[p]:
                continue
            for k in range(K + 1):
                miss = abs(mp.mpf(values[k, p]) - _ref(target, k, x))
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
@given(st.sampled_from(_LEAVES), _XS, st.integers(0, ce.ANALYTIC_ORDER_CAP))
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
