"""Certificate soundness: |value - f^(k)(x)| <= abs_error at every cell of a
jet grid, against closed forms evaluated at 40 digits.

The references are written out per target class (mpmath's polygamma and
loggamma, with the Leibniz sums of a ``Product`` and the sums of a
``LinComb`` done in mpmath), never through ``mp.diff``; psi_q is a
direct sum (``_psi_q``), never ``mp.nsum``, and ln Gamma_q a direct
product (``_ln_gamma_q``).  A QSeriesTarget's reference is the sum of
its terms' psi_q and ln Gamma_q, each corpus q-series and each column a
corpus chain reads is checked on its own, and two are checked against
references written apart from their terms as well.  The points lean
toward 1/e, where x ln x has a stationary point, and toward both ends of
[1e-2, 1e2].  The leaf, composite and q-series properties check every
one of their cases in each example: hypothesis draws only the points
and, where a case has no fixed order, the order, so no case depends on
being drawn.  Every corpus composite runs at its full order.
``kernel_derivative``, which has no closed form, is checked against
``mp.diff`` at 40 digits.
"""

import functools
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
    if isinstance(t, ce.ExpNegX):
        return (-1) ** k * mp.exp(-x)
    if isinstance(t, ce.SinPlus2):
        return mp.sin(x + k * mp.pi / 2) + (2 if k == 0 else 0)
    if isinstance(t, ce._PsiLeaf):
        n, y = t.m + k, x + t.a
        if t.q is None:
            return mp.loggamma(y) if n == -1 else _polygamma_at(n, y, mp.dps)
        return _q_psi(n, y, t.q)
    if isinstance(t, ce.QSeriesTarget):
        # const (-ln(1 - q)) plus the sum of w r^-(m+k) psi_{q^r}^(m+k)((x + d)/r),
        # where psi_q^(-1) is ln Gamma_q (r = 1); the constants of the
        # m + k = 0 terms are summed apart, so those that cancel do so exactly
        const = -t.const * mp.log(1 - mp.mpf(t.q)) if k == 0 else mp.zero
        total = mp.zero
        for w, m, d, r in t.terms:
            if m + k == -1:
                total += w * _ln_gamma_q_at(x + d, t.q, mp.dps)
                continue
            p = mp.mpf(t.q) ** mp.mpf(r)
            total += w * mp.mpf(r) ** -(m + k) * _psi_q_at(m + k, (x + d) / r, p, mp.dps)
            if m + k == 0:
                const -= w * mp.log(1 - p)
        return const + total
    if isinstance(t, ce.DerivOffset):
        return _ref(t.base, k + t.offset, x)
    if isinstance(t, ce.LinComb):
        return mp.fsum(mp.mpf(coef) * _ref(target, k, x) for coef, target in t.terms)
    if isinstance(t, ce.Product):
        return mp.fsum(mp.binomial(k, j) * _ref(t.f, j, x) * _ref(t.g, k - j, x)
                       for j in range(k + 1))
    raise TypeError(f"no reference for {type(t).__name__}")


@functools.lru_cache(maxsize=4096)
def _polygamma_at(n, y, dps):
    """mp.polygamma(n, y) at ``dps`` digits, remembered: the corpus
    composites share many of their (order, argument)."""
    with mp.workdps(dps):
        return mp.polygamma(n, y)


def _li_neg(k, u):
    """Li_{-k}(u) = sum_{m>=1} m^k u^m = u A_k(u) / (1 - u)^(k+1), with the
    Eulerian polynomial A_k in closed form."""
    if k == 0:
        return u / (1 - u)
    return u * mp.polyval(_eulerian(k)[::-1], u) / (1 - u) ** (k + 1)


@functools.lru_cache(maxsize=None)
def _eulerian(k):
    """The coefficients of the Eulerian polynomial A_k, lowest first."""
    return [
        sum((-1) ** i * math.comb(k + 1, i) * (m + 1 - i) ** k for i in range(m + 1))
        for m in range(k)
    ]


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
    qz = q ** (y + n)
    total, qjz, qj = mp.zero, mp.one, mp.one  # qjz = q^(jz), qj = q^j
    j = 0
    while True:
        j += 1
        qjz *= qz
        qj *= q
        term = mp.mpf(j) ** k * qjz / (1 - qj)
        total += term
        if j >= k and term <= mp.eps * total:
            break
    qy = q**y
    shifted = mp.fsum(_li_neg(k, qy * q**i) for i in range(n))
    return (-mp.log(1 - q) if k == 0 and const else 0) + lnq ** (k + 1) * (total + shifted)


@functools.lru_cache(maxsize=4096)
def _psi_q_at(k, y, q, dps):
    """_psi_q(k, y, q, const=False) at ``dps`` digits, remembered: the
    corpus q-series share many of their (order, argument, q)."""
    with mp.workdps(dps):
        return _psi_q(k, y, q, const=False)


def _ln_gamma_q(y, q):
    """ln Gamma_q(y) for 0 < q < 1 as an mpf; call inside ``mp.workdps``.

    Gamma_q(y) = (1 - q)^(1 - y) prod_{n>=0} (1 - q^(n+1))/(1 - q^(n+y)) is
    multiplied out directly for n < N, where q^N is below e^-4.  Expanding
    each log of the factors n >= N as -ln(1 - u) = sum u^j/j sums them to
    sum_{j>=1} q^(jN) (q^(jy) - q^j) / (j (1 - q^j)), whose terms fall by
    e^-4 or faster; it stops once q^(jN)/(1 - q) is below eps.
    """
    y, q = mp.mpf(y), mp.mpf(q)
    n = max(0, math.ceil(4 / -mp.log(q)))
    qy, prod = q**y, mp.one
    for i in range(n):
        prod *= (1 - q ** (i + 1)) / (1 - qy * q**i)
    qn, tail, j = q**n, mp.zero, 0
    while True:
        j += 1
        qjn = qn**j
        tail += qjn * (qy**j - q**j) / (j * (1 - q**j))
        if qjn < mp.eps * (1 - q):
            break
    return (1 - y) * mp.log(1 - q) + mp.log(prod) + tail


@functools.lru_cache(maxsize=4096)
def _ln_gamma_q_at(y, q, dps):
    """_ln_gamma_q(y, q) at ``dps`` digits, remembered: the chain columns
    share many of their (argument, q)."""
    with mp.workdps(dps):
        return _ln_gamma_q(y, q)


def _q_psi(n, y, q):
    """psi_q^(n)(y) as an mpf, n = -1 giving ln Gamma_q.  For q > 1,
    Gamma_q(y) = q^((y-1)(y-2)/2) Gamma_{1/q}(y) adds (y-1)(y-2)/2 ln q,
    (y - 3/2) ln q and ln q at orders -1, 0 and 1."""
    if q > 1.0:
        poly = [(y - 1) * (y - 2) / 2, y - mp.mpf(1.5), mp.one]
        return (poly[n + 1] * mp.log(q) if n < 2 else 0) + _q_psi(n, y, 1 / mp.mpf(q))
    return _ln_gamma_q(y, q) if n == -1 else _psi_q(n, y, q)


def _assert_sound(target, xs, K, ref=None, name=None):
    """Every cell of ``target.jet_grid(xs, K)`` is within its error of
    ``ref(k, x)`` (by default ``_ref(target, k, x)``); a miss names the
    target by ``name``, or by its class."""
    ref = ref or (lambda k, x: _ref(target, k, x))
    name = name or type(target).__name__
    values, errors, ok = target.jet_grid(xs, K)
    with mp.workdps(40):
        for p, x in enumerate(xs):
            if not ok[p]:
                continue
            for k in range(K + 1):
                miss = abs(mp.mpf(values[k, p]) - ref(k, mp.mpf(x)))
                assert miss <= errors[k, p], (name, k, x, errors[k, p])


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
    ce.PolyGammaShift(0),
    ce.PolyGammaShift(1),
    ce.QPolyGammaShift(0, 0.5),
    ce.QLnGammaFn(0.3),
    ce.QLnGammaFn(0.9),
    ce.QPolyGammaShift(0, 2.0),
]

# orders 0..4 of psi, psi' and psi_q on [0.55, 10], each leaf on its own
_PSI_XS = np.geomspace(0.55, 10.0, 12).tolist()


def _corpus_composites():
    """(label, K, target) of every composite a corpus check evaluates whose
    leaves have a closed-form reference here (no q-family leaf); an LCM
    check's target is h', checked at orders 0..K-1."""
    covered = (ce.Const, ce.Affine, ce.PowShift, ce.LogShift, ce.ExpNegX, ce.SinPlus2,
               ce.LnGammaFn, ce.PolyGammaShift)

    def referenced(t):
        if isinstance(t, ce.LinComb):
            return all(referenced(term[1]) for term in t.terms)
        if isinstance(t, ce.Product):
            return referenced(t.f) and referenced(t.g)
        if isinstance(t, ce.DerivOffset):
            return referenced(t.base)
        return isinstance(t, covered)

    found = []
    for cid in corpus.ALL_IDS:
        for check in corpus.instantiate(cid):
            kw = check.kwargs
            lcm = kw.get("claim") == "log_completely_monotonic"
            for t in (kw.get("target"), kw.get("fn"), kw.get("deriv_fn")):
                composite = isinstance(t, (ce.LinComb, ce.Product, ce.DerivOffset))
                if composite and referenced(t):
                    found.append((check.label, kw.get("K", 1) - lcm, t))
    return found


_COMPOSITES = _corpus_composites()


def test_composites_come_from_every_composite_family():
    kinds = {type(t) for *_, t in _COMPOSITES}
    assert kinds == {ce.LinComb, ce.MonomialPolyGamma, ce.PolyProductTarget, ce.DerivOffset}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_XS, st.lists(st.integers(0, ce.Target.max_order),
                     min_size=len(_LEAVES), max_size=len(_LEAVES)))
def test_leaf_certificates_hold(xs, orders):
    """Every leaf at the drawn points, leaf i at orders 0..orders[i]."""
    for i, (leaf, K) in enumerate(zip(_LEAVES, orders)):
        _assert_sound(leaf, xs, K, name=f"leaf {i}: {type(leaf).__name__}")


@pytest.mark.parametrize("leaf, xs, K", [
    (ce.PolyGammaShift(0), _PSI_XS, 4),
    (ce.PolyGammaShift(1), _PSI_XS, 4),
    (ce.QPolyGammaShift(0, 0.5), _PSI_XS, 4),
    # ln Gamma_q and psi_q vanish near 1 and 2: lnGamma_q(1) = lnGamma_q(2) = 0
    (ce.QLnGammaFn(0.9), [1.0 - 1e-6, 1.0 + 1e-10, 1.0 + 1e-14, 2.0 - 1e-12], 2),
    (ce.QLnGammaFn(0.9), [2.0 + 1e-6, 2.0 - 1e-8, 2.0 + 1e-14, 1.0 - 1e-12], 2),
    (ce.QLnGammaFn(0.3), [1.0 + 1e-9, 2.0 - 1e-9], 4),
    (ce.QPolyGammaShift(0, 2.0), [0.01, 1.0, 1.5, 100.0], 6),
], ids=["psi", "psi1", "psi_q", "lnGamma_q-0.9-near-1", "lnGamma_q-0.9-near-2",
        "lnGamma_q-0.3", "psi_q-above-1"])
def test_leaf_certificates_hold_at_their_edges(leaf, xs, K):
    _assert_sound(leaf, xs, K)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.lists(_X, min_size=1, max_size=2))
def test_composite_certificates_hold(xs):
    """Every corpus composite at its full K at the drawn points."""
    for label, K, target in _COMPOSITES:
        _assert_sound(target, xs, K, name=label)


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
    """psi_q as a one-term QSeriesTarget; it derives the constant -ln(1 - q)."""
    return ce.QSeriesTarget(q, [(1.0, 0, 0.0)])


def _corpus_q_series():
    """(label, K, target, grid points) of every QSeriesTarget the corpus
    builds, at the orders and on the grid its check asks for."""
    found = []
    for cid in corpus.ALL_IDS:
        for check in corpus.instantiate(cid):
            kw = check.kwargs
            t = kw.get("target")
            lcm = kw.get("claim") == "log_completely_monotonic"
            if isinstance(t, ce.QSeriesTarget):
                found.append((check.label, kw["K"] - lcm, t, ce._grid_values(kw["grid"])))
    return found


_CORPUS_Q = _corpus_q_series()


def test_corpus_q_series_come_from_every_q_series_claim():
    ids = {label.split("[")[0] for label, *_ in _CORPUS_Q}
    assert ids == {"beta-lcm", "cor1-lcm", "cor2-lcm", "qpow-lcm", "thm1-lcm", "thm30-lcm",
                   "thm5-lcm", "thm5-recip-lcm", "thm8-lcm"}


@pytest.mark.parametrize("label, K, target, xs", _CORPUS_Q, ids=[c[0] for c in _CORPUS_Q])
def test_corpus_q_series_certificates_hold(label, K, target, xs):
    """Every order of every corpus q-series at the ends of its grid and at
    x = 0.44 and 19.9, against the reference derived from its terms."""
    _assert_sound(target, [xs[0], 0.44, 19.9, xs[-1]], K)


def _chain_columns():
    """(label, target, points) of every column a corpus chain reads, with
    the distinct x of the chain's points."""
    found = []
    for cid in corpus.ALL_IDS:
        for check in corpus.instantiate(cid):
            xs = sorted({p["x"] for p in check.kwargs.get("points", [])})
            for key, t in (check.kwargs.get("columns") or {}).items():
                found.append((f"{check.label}[{','.join(map(str, key))}]", t, xs))
    return found


_COLUMNS = _chain_columns()


def test_chain_columns_come_from_every_q_series_chain():
    ids = {label.split("[")[0] for label, *_ in _COLUMNS}
    assert ids == {"ag-gx", "cor51-nonneg", "eq14-bounds", "eq14-sharp-u", "eq14-sharp-v",
                   "thm3-chain", "thm52-chain"}
    assert all(isinstance(t, ce.QSeriesTarget) for _, t, _ in _COLUMNS)


@pytest.mark.parametrize("label, target, xs", _COLUMNS, ids=[c[0] for c in _COLUMNS])
def test_chain_column_certificates_hold(label, target, xs):
    """Orders 0..2 of every chain column at the ends of its chain's points
    and at x = 0.44 and 19.9, against the reference derived from its terms."""
    _assert_sound(target, [xs[0], 0.44, 19.9, xs[-1]], 2)


def test_corpus_q_series_keep_their_sign_at_every_cell():
    """(-1)^k f^(k) >= 0 at every cell of every corpus q-series check: no
    cell reads negative and passes only through tau."""
    for label, K, target, xs in _CORPUS_Q:
        values, _, ok = target.jet_grid(xs, K)
        assert ok.all(), label
        signed = values * (-1.0) ** np.arange(K + 1)[:, None]
        assert (signed >= 0.0).all(), (label, int((signed < 0.0).sum()))


# at q = 5e-4 and x in [93, 100], exp(j x ln q) is subnormal or 0 for the
# first terms: only the absolute floor of QSeriesTarget covers them
_XS_UNDERFLOW = st.lists(st.one_of(st.floats(93.0, 100.0), _X), min_size=1, max_size=4)
# x -> 0+ and 1/e, where the recurrence part of a q-series near q = 1 holds
# most of the value
_XS_SMALL = st.lists(st.one_of(
    st.floats(0.01, 0.0102),
    st.floats(-1e-3, 1e-3).map(lambda d: math.exp(-1.0) * (1.0 + d)),
), min_size=1, max_size=3)


def _recurrence_cases():
    """(id, K, target, reference, points, edge points) of q-series that lean
    on their recurrence part: psi_q at q = 0.95 and 0.99 (up to 31 steps),
    the beta-lcm targets at q = 0.9, whose two terms take different steps,
    an ln Gamma_q ratio at q = 0.99, and a psi_q' difference at q = 5e-4,
    where q^z underflows in the steps too."""
    small = [0.01, math.exp(-1.0)]
    cases = [
        (f"psi_q-{q}", 12, _psi_q_series(q), lambda k, x, q=q: _psi_q(k, x, q), _XS_SMALL, small[:n])
        for q, n in ((0.95, 2), (0.99, 1))
    ]
    for beta in (2.0, 0.5):
        sign = 1.0 if beta > 1.0 else -1.0
        target = ce.QSeriesTarget(0.9, [(sign, 0, 0.0, 1.0 / beta), (-sign, 0, 0.0)])
        cases.append((f"beta-0.9-{beta}", 8, target, _beta_ref(0.9, beta), _XS, small))
    cases.append(("ln-ratio-0.99", 2, corpus._ln_ratio(0.99, 0.3), None, _XS_SMALL, small))
    cases.append(("psi1-diff-5e-4", 7, ce.QSeriesTarget(5e-4, [(1.0, 1, 0.0), (-1.0, 1, 0.25)]),
                  None, st.lists(st.floats(93.0, 100.0), min_size=1, max_size=4), [93.0, 100.0]))
    return cases


_RECURRENCE = _recurrence_cases()


def _q_series_cases():
    """(K, target, reference, points) of the beta-lcm targets and two
    _gq_neg_log_deriv targets as thm5-lcm and thm8-lcm build them, against
    references written apart from their terms; psi_q as a q-series (at
    q = 5e-4 in the underflow regime too); the recurrence cases; psi_q
    leaves."""
    cases = []
    for check in corpus.instantiate("beta-lcm"):
        q, beta = map(float, re.findall(r"=([0-9.]+)", check.label))
        cases.append((check.kwargs["K"] - 1, check.kwargs["target"], _beta_ref(q, beta), _XS))
    u = bd.alzer_u(0.9, 0.5)
    for a, b, c, q, sign in ((0.3, 1.1, 0.6, 0.5, -1.0), (0.5, 1.0, u, 0.9, 1.0)):
        cases.append((7, corpus._gq_neg_log_deriv(a, b, c, q, sign), _gq_ref(a, b, c, q, sign),
                      _XS))
    for q in (0.3, 0.9):
        cases.append((8, _psi_q_series(q), lambda k, x, q=q: _psi_q(k, x, q), _XS))
    cases.append((7, _psi_q_series(5e-4), lambda k, x: _psi_q(k, x, 5e-4), _XS_UNDERFLOW))
    cases += [case[1:5] for case in _RECURRENCE]
    for leaf in (ce.QPolyGammaShift(0, 0.7), ce.QPolyGammaShift(2, 0.3, 0.25)):
        cases.append((8, leaf, None, _XS))
    return cases


_Q_SERIES = _q_series_cases()


@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.data())
def test_q_series_certificates_hold(data):
    """Every case at points and an order drawn for it."""
    for i, (K, target, ref, xs) in enumerate(_Q_SERIES):
        _assert_sound(target, data.draw(xs), data.draw(st.integers(0, K)), ref,
                      name=f"q-series case {i}: {type(target).__name__}")


@pytest.mark.parametrize("K, target, ref, xs", [case[1:4] + case[5:] for case in _RECURRENCE],
                         ids=[case[0] for case in _RECURRENCE])
def test_q_series_recurrence_part_holds_at_its_edges(K, target, ref, xs):
    """Each recurrence case at every order up to K at its edge points, which
    the sampled test above need not draw."""
    _assert_sound(target, xs, K, ref)


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
