"""Certificate soundness: |value - f^(k)(x)| <= abs_error at every cell of a
jet grid, against closed forms evaluated at 40 digits.

The references are written out per target class (mpmath's polygamma and
loggamma, with the Leibniz sums of a ``Product`` and the sums of a
``LinComb`` done in mpmath), never through ``mp.diff``; psi_q is a
direct sum (``_psi_q``), never ``mp.nsum``, and ln Gamma_q a direct
product (``_ln_gamma_q``).  A QSeriesTarget's reference is the sum of
its terms' psi_q and ln Gamma_q, each corpus q-series and each column or
link a corpus bracket reads is checked on its own, and two are checked against
references written apart from their terms as well.  The points lean
toward 1/e, where x ln x has a stationary point, and toward both ends of
[1e-2, 1e2].  The leaf, composite and q-series properties check every
one of their cases in each example: hypothesis draws only the points
and, where a case has no fixed order, the order, so no case depends on
being drawn.  Every corpus composite runs at its full order.
``kernel_derivative``, which has no closed form, is checked against
``mp.diff`` at 40 digits.  ``ln_gamma``, ``digamma`` and ``polygamma``
each have a property of their own, from x = 1e-300 to 1e8 and near the
zeros of ln Gamma and psi, under the default policy and a coarse one;
``q_ln_gamma``, ``q_gamma``, ``q_digamma`` and ``q_polygamma`` share one,
at seven q on both sides of 1 and x from 1e-2 to 1e3, against the direct
sums; ``digamma_series``, ``polygamma_series`` and ``unit_ball_volume``
share one, from x = 1e-3 to 1e4 and up to dimension 1000.  The grid
kernel behind the classical psi-family leaves (``specfun._psi_kernel``)
has one too, at orders m..m+12 up to 40 and from 150 to 200, x from 1e-3
to 1e4 and near those zeros; its cells fail exactly where the scalars
raise DomainError.  So does the kernel-derivative grid
(``specfun._kernel_grid``), against ``mp.diff`` and ``kernel_derivative``'s
failures, and each column of a chain's stacked q-series grid is checked
against its terms' reference.
"""

import functools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from qgammakit import bounds as bd
from qgammakit import cm_engine as ce
from qgammakit import corpus
from qgammakit import specfun as sf
from qgammakit.errors import ConvergenceError, DomainError


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
        rate = mp.mpf(t.rate)
        return (-rate) ** k * mp.exp(-rate * x)
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
        return mp.fsum(
            mp.binomial(k, j) * _ref_at(t.f, j, x, mp.dps) * _ref_at(t.g, k - j, x, mp.dps)
            for j in range(k + 1))
    raise TypeError(f"no reference for {type(t).__name__}")


@functools.lru_cache(maxsize=4096)
def _ref_at(t, k, x, dps):
    """_ref(t, k, x) at ``dps`` digits, remembered: the rows of a
    ``Product`` read each order of its factors up to K times."""
    with mp.workdps(dps):
        return _ref(t, k, x)


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
    multiplied out directly for n < N, where q^N is below e^-4; both powers
    are formed alike, so that ln Gamma_q(1) reads 0 exactly.  Expanding
    each log of the factors n >= N as -ln(1 - u) = sum u^j/j sums them to
    sum_{j>=1} q^(jN) (q^(jy) - q^j) / (j (1 - q^j)), whose terms fall by
    e^-4 or faster; it stops once q^(jN)/(1 - q) is below eps.
    """
    y, q = mp.mpf(y), mp.mpf(q)
    n = max(0, math.ceil(4 / -mp.log(q)))
    qy, prod = q**y, mp.one
    for i in range(n):
        prod *= (1 - q ** (i + 1)) / (1 - q ** (y + i))
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
    ce.ExpNegX(-math.log(0.3)),
    ce.SinPlus2(),
    ce.LnGammaFn(),
    ce.PolyGammaShift(0),
    ce.PolyGammaShift(1),
    ce.PolyGammaShift(2, 0.5),
    ce.PolyGammaShift(0, 1.0 / 3.0),
    ce.QPolyGammaShift(0, 0.5),
    ce.QLnGammaFn(0.3),
    ce.QLnGammaFn(0.9),
    ce.QPolyGammaShift(0, 2.0),
]

# orders 0..4 of psi, psi' and psi_q on [0.55, 10], each leaf on its own
_PSI_XS = np.geomspace(0.55, 10.0, 12).tolist()


def _corpus_composites():
    """(label, K, target) of every composite a corpus check evaluates whose
    leaves have a reference here (elementary, ln Gamma, psi and q-series
    leaves); an LCM check's target is h', checked at orders 0..K-1."""
    covered = (ce.Const, ce.Affine, ce.PowShift, ce.LogShift, ce.ExpNegX, ce.SinPlus2,
               ce.LnGammaFn, ce.PolyGammaShift, ce.QSeriesTarget)

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
    # the q = 1 bracket links are composites of ln Gamma and psi leaves, and
    # the derivative-sign targets composites of psi, x, q^x and q-series
    ids = {label.split("[")[0] for label, *_ in _COMPOSITES}
    assert {"merkle-chain", "kershaw-chain", "noncompare", "kv-bounds",
            "eq43-range", "prop-cor45", "qthm-monotone", "prop51-chain", "cor51-nonneg"} <= ids


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
    """(label, K, target, grid points) of every QSeriesTarget an LCM or CM
    check of the corpus takes, at the orders and on the grid its check asks
    for.  The links of a bracket are in ``_LINKS``."""
    found = []
    for cid in corpus.ALL_IDS:
        for check in corpus.instantiate(cid):
            kw = check.kwargs
            t = kw.get("target")
            lcm = kw.get("claim") == "log_completely_monotonic"
            if isinstance(t, ce.QSeriesTarget) and kw["claim"] != "nonneg":
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


def _q_factors(t):
    """The QSeriesTargets that composite t takes as a factor or a term."""
    if isinstance(t, ce.LinComb):
        return [u for _, term in t.terms for u in _q_factors(term)]
    if isinstance(t, ce.Product):
        return [u for factor in (t.f, t.g) for u in _q_factors(factor)]
    return [t] if isinstance(t, ce.QSeriesTarget) else []


def _chain_columns():
    """(label, target, points) of every column a corpus chain reads, with
    the distinct x of the chain's points, and of every psi_q^(m)(x) in the
    composite of a nonneg check (cor51-nonneg's and qthm-monotone's
    products), on the check's grid and labelled by the claim, q and m."""
    found = {}
    for cid in corpus.ALL_IDS:
        for check in corpus.instantiate(cid):
            kw = check.kwargs
            xs = sorted({p["x"] for p in kw.get("points", [])})
            for key, t in (kw.get("columns") or {}).items():
                found[f"{check.label}[{','.join(map(str, key))}]"] = (t, xs)
            composite = kw.get("claim") == "nonneg" and not isinstance(kw["target"], ce.QSeriesTarget)
            for t in _q_factors(kw["target"]) if composite else []:
                ((w, m, d, _),) = t.terms
                assert (w, d) == (1.0, 0.0), check.label
                found[f"{cid}[{t.q},{m}]"] = (t, ce._grid_values(kw["grid"]))
    return [(label, t, xs) for label, (t, xs) in found.items()]


def _links():
    """(label, target, grid points, expects_violation) of every link a
    corpus bracket checks on its own, a nonneg check of one QSeriesTarget;
    the label is the claim's id and the values of the check's params."""
    found = []
    for cid in corpus.ALL_IDS:
        for check in corpus.instantiate(cid):
            kw = check.kwargs
            if kw.get("claim") == "nonneg" and isinstance(kw["target"], ce.QSeriesTarget):
                key = ",".join(map(str, kw["params"].values()))
                found.append((f"{cid}[{key}]", kw["target"], ce._grid_values(kw["grid"]),
                              corpus.get_descriptor(cid).expects_violation))
    return found


_COLUMNS = _chain_columns()
_LINKS = _links()
_BRACKET_Q = _COLUMNS + [link[:3] for link in _LINKS]


def test_chain_columns_come_from_every_q_series_chain():
    ids = {label.split("[")[0] for label, *_ in _COLUMNS}
    assert ids == {"cor51-nonneg", "eq14-bounds", "qthm-monotone", "thm52-chain"}
    # the two chains with rows read columns; the products read psi_q' and
    # psi_q'' (cor51-nonneg) and psi_q^(1..4) (qthm-monotone) at each q
    factors = [label for label, *_ in _COLUMNS if label.startswith(("cor51", "qthm"))]
    assert sorted(factors) == sorted(
        [f"cor51-nonneg[{q},{m}]" for q in (0.3, 0.5, 0.7, 0.9) for m in (1, 2)]
        + [f"qthm-monotone[{q},{m}]" for q in (0.3, 0.7) for m in (1, 2, 3, 4)])
    ids = {label.split("[")[0] for label, *_ in _LINKS}
    assert ids == {"ag-gx", "eq14-sharp-u", "eq14-sharp-v", "thm3-chain"}
    assert all(isinstance(t, ce.QSeriesTarget) for _, t, _ in _COLUMNS)


@pytest.mark.parametrize("label, target, xs", _BRACKET_Q, ids=[c[0] for c in _BRACKET_Q])
def test_chain_column_certificates_hold(label, target, xs):
    """Orders 0..2 of every chain column and every link at the ends of its
    chain's points or grid and at x = 0.44 and 19.9, against the reference
    derived from its terms."""
    _assert_sound(target, [xs[0], 0.44, 19.9, xs[-1]], 2)


def _chain_stacks():
    """(label, columns, points) of each stacked grid a corpus chain fills:
    its QSeriesTarget columns of one q, over the chain's distinct x."""
    found = []
    for cid in corpus.ALL_IDS:
        for check in corpus.instantiate(cid):
            columns = check.kwargs.get("columns") or {}
            xs = sorted({p["x"] for p in check.kwargs.get("points", [])})
            for q in sorted({t.q for t in columns.values()}):
                found.append((f"{check.label}[q={q}]", [t for t in columns.values() if t.q == q], xs))
    return found


_STACKS = _chain_stacks()


def test_stacks_come_from_every_column_chain():
    assert {label.split("[")[0] for label, *_ in _STACKS} == {"eq14-bounds", "thm52-chain"}
    assert sorted(len(columns) for _, columns, _ in _STACKS) == [4, 4] + [9] * 9


@pytest.mark.parametrize("label, columns, xs", _STACKS, ids=[c[0] for c in _STACKS])
def test_stacked_chain_column_certificates_hold(label, columns, xs):
    """Orders 0..2 of every column of a chain's stacked grid, where each
    column sums at the least shift of the stack, at the ends of the chain's
    points and at x = 0.44 and 19.9, against the reference derived from its
    terms."""
    pts = [xs[0], 0.44, 19.9, xs[-1]]
    grids = ce._q_series_grids(columns, np.array(pts), 2, None)
    with mp.workdps(40):
        for target, grid in zip(columns, grids):
            assert all(f is None for f in grid.failures), label
            for k in range(3):
                for p, x in enumerate(pts):
                    miss = abs(mp.mpf(grid.values[k, p]) - _ref(target, k, mp.mpf(x)))
                    assert miss <= grid.errors[k, p], (label, target.terms, k, x)


@pytest.mark.parametrize("label, columns, xs", _STACKS, ids=[c[0] for c in _STACKS])
def test_a_stack_of_one_is_the_lone_grid_bit_for_bit(label, columns, xs):
    """Each column alone, a stack of one, gives the bits of its target's
    own grid at every point of the chain; in the stack, a column keeps
    those bits where the columns share one shift (thm52-chain), and
    otherwise agrees with them within the sum of the two errors."""
    ps = np.array(xs)
    stacked = ce._q_series_grids(columns, ps, 0, None)
    for target, grid in zip(columns, stacked):
        (alone,) = ce._q_series_grids([target], ps, 0, None)
        values, errors, ok = target.jet_grid(xs, 0)
        assert ok.all() and grid.ok.all(), label
        assert alone.values.tobytes() == values.tobytes() and alone.errors.tobytes() == errors.tobytes()
        if len({t.shift for t in columns}) == 1:
            assert grid.values.tobytes() == values.tobytes(), label
            assert grid.errors.tobytes() == errors.tobytes(), label
        assert (np.abs(grid.values - values) <= grid.errors + errors).all(), label


def test_corpus_q_series_keep_their_sign_at_every_cell():
    """(-1)^k f^(k) >= 0 at every cell of every corpus q-series check, and
    each link >= 0 at every point of its grid: no cell reads negative and
    passes only through tau.  The links of the sharpness probes are
    negative by design, and are left out."""
    links = [(label, 0, t, xs) for label, t, xs, expects in _LINKS if not expects]
    for label, K, target, xs in _CORPUS_Q + links:
        values, _, ok = target.jet_grid(xs, K)
        assert ok.all(), label
        signed = values * (-1.0) ** np.arange(K + 1)[:, None]
        assert (signed >= 0.0).all(), (label, int((signed < 0.0).sum()))


def _chain_ends(check):
    """The values and errors, each of shape (points, ends), of an array
    chain's check, and its points."""
    kw = check.kwargs
    xs = ce._point_xs(kw["points"])
    read = ce._column_reader(kw["columns"] or {}, np.array(list(dict.fromkeys(xs))))
    return (*kw["ends"](read), kw["points"])


def _assert_ends_sound(label, values, errors, refs):
    """|value - ref| <= error at every cell, refs being mpf at 40 digits."""
    for p, row in enumerate(refs):
        for i, ref in enumerate(row):
            if ref is not None:
                assert abs(mp.mpf(values[p, i]) - ref) <= errors[p, i], (label, p, i, values[p, i], ref)


def _qbracket_ref(y, q, s):
    """(1 - s) ln [y]_q at 40 digits, for the exact y."""
    q = mp.mpf(q)
    return (1 - mp.mpf(s)) * mp.log((1 - q**y) / (1 - q))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.floats(-2.0, 2.0).map(lambda e: 10.0**e), min_size=1, max_size=6),
       st.floats(1e-3, 0.999), st.floats(1e-3, 0.999))
@example([1e-2, 1.0, 100.0], 0.999, 0.001)
@example([1e-2, 1.0, 100.0], 0.001, 0.999)
def test_qbracket_end_certificates_hold(ys, q, s):
    """``corpus._qbracket_end``, eq14-bounds' end (1 - s) ln [y]_q, against
    40 digits, y from 1e-2 to 1e2 and q and s across (0, 1), unwidened."""
    y = np.array(ys)
    value, error = corpus._qbracket_end(y, np.full_like(y, q), np.full_like(y, s), 0.0)
    with mp.workdps(40):
        refs = [[_qbracket_ref(mp.mpf(v), q, s)] for v in ys]
        _assert_ends_sound("qbracket", value[:, None], error[:, None], refs)


def _alzer_shifts_ref(q, s):
    """u(q, s) and v(q, s) at 40 digits, for the float q and s, v through a
    40-digit ln Gamma_q(s)."""
    q, s = mp.mpf(q), mp.mpf(s)
    u = mp.log((q**s - q) / ((1 - s) * (1 - q))) / mp.log(q)
    g = mp.exp(_ln_gamma_q_at(s, q, 40) / (s - 1))
    return u, mp.log(1 - (1 - q) * g) / mp.log(q)


def test_eq14_shift_errors_cover_the_rounding_of_the_shifts():
    """``corpus._shift_errors`` bounds the miss of ``alzer_u`` and
    ``alzer_v`` at each of eq14-bounds' 81 (q, s), unwidened."""
    pairs = [(round(0.1 * i, 1), round(0.1 * j, 1)) for i in range(1, 10) for j in range(1, 10)]
    with mp.workdps(40):
        for q, s in pairs:
            u, v = bd.alzer_u(q, s), bd.alzer_v(q, s)
            du, dv = corpus._shift_errors(q, s, u, v)
            exact_u, exact_v = _alzer_shifts_ref(q, s)
            assert abs(mp.mpf(u) - exact_u) <= du, (q, s, du)
            assert abs(mp.mpf(v) - exact_v) <= dv, (q, s, dv)


def test_eq14_bracket_ends_hold_at_every_point():
    """Both ends of every eq14-bounds point, (1 - s) ln [x + u]_q and
    (1 - s) ln [x + v]_q, at the exact x + u and x + v of the 40-digit u
    and v: each end's error covers the rounding of its shift, unwidened."""
    (check,) = corpus.instantiate("eq14-bounds")
    values, errors, points = _chain_ends(check)
    shifts = {}
    with mp.workdps(40):
        refs = []
        for p in points:
            q, s = p["q"], p["s"]
            u, v = shifts.get((q, s)) or shifts.setdefault((q, s), _alzer_shifts_ref(q, s))
            x = mp.mpf(p["x"])
            refs.append([_qbracket_ref(x + u, q, s), None, _qbracket_ref(x + v, q, s)])
        _assert_ends_sound("eq14-bounds", values, errors, refs)


def _means_ref(name, a, b):
    """The two means of a < b at 40 digits: geometric and arithmetic, or
    logarithmic and identric."""
    if name == "geo":
        return mp.sqrt(a * b), (a + b) / 2
    return (b - a) / mp.log(b / a), mp.exp((b * mp.log(b) - a * mp.log(a)) / (b - a) - 1)


def test_refined_chain_ends_hold_at_every_point():
    """(1 - s) psi at the exact mean points of x + s and x + 1, and
    ln Gamma(x + 1) - ln Gamma(x + s), at every point of both
    refined-chain checks, unwidened."""
    for check in corpus.instantiate("refined-chain"):
        name = check.label.split("[")[1].rstrip("]")
        values, errors, points = _chain_ends(check)
        with mp.workdps(40):
            refs = []
            for p in points:
                x, s = mp.mpf(p["x"]), mp.mpf(p["s"])
                lo, hi = _means_ref(name, x + s, x + 1)
                refs.append([(1 - s) * mp.digamma(lo), mp.loggamma(x + 1) - mp.loggamma(x + s),
                             (1 - s) * mp.digamma(hi)])
            _assert_ends_sound(check.label, values, errors, refs)


def test_refined_chain_mean_points_hold_to_16_eps():
    """The mean points of refined-chain, whose rounding ``_psi_end``
    bounds by 16 eps relatively, at its points and at s near 0 and 1."""
    x = np.tile(corpus._GRID20.values() + [1e-2, 0.37, 3.0, 50.0], 5)
    s = np.repeat([0.25, 0.5, 0.75, 1e-3, 0.999], len(x) // 5)
    with mp.workdps(40):
        for name, pair in corpus._refined_means(x, s).items():
            for xi, si, lo, hi in zip(x.tolist(), s.tolist(), *pair):
                refs = _means_ref(name, mp.mpf(xi) + mp.mpf(si), mp.mpf(xi) + 1)
                for y, ref in zip((lo, hi), refs):
                    assert abs(mp.mpf(y) - ref) <= 16 * sf._EPS_MACH * ref, (name, xi, si, y)


def test_thm52_chain_products_hold_at_every_point():
    """d^2, pref d^2 and q^x mid of thm52-chain at every point of its
    8-point grid, from its columns' 40-digit references, pref =
    (1 - q)/(1 - q^c) and q^x exact, unwidened."""
    (check,) = corpus.instantiate("thm52-chain", {"grid_points": 8})
    values, errors, points = _chain_ends(check)
    columns = check.kwargs["columns"]
    with mp.workdps(40):
        refs = []
        for p in points:
            x, q, c = mp.mpf(p["x"]), mp.mpf(p["q"]), p["c"]
            d, mid = (_ref(columns[p["q"], c, part], 0, x) for part in ("d", "mid"))
            lhs, rhs = (1 - q) / (1 - q**c) * d * d, d * d
            refs.append([rhs, q**x * mid, lhs] if c < 1.0 else [lhs, q**x * mid, rhs])
        _assert_ends_sound("thm52-chain", values, errors, refs)


# cor51-nonneg's cells with margin - error < 0, as the number of the last
# points of its 64-point grid, per q: from x = 12.94 at q = 0.3, 22.2 at
# q = 0.5 and 38.2 at q = 0.7.  There psi_q'^2 and the q^x psi_q'' term,
# each about q^(2x) in size, cancel at leading order, and their sum falls
# below its certified error (3.7e-68 against 9.4e-65 at x = 50, q = 0.3):
# these cells pass on tau alone until the claim is proved (ROADMAP, item 6)
_COR51_TAU_ONLY = {0.3: 11, 0.5: 7, 0.7: 3, 0.9: 0}


def test_q1_links_keep_their_sign_with_their_error_at_every_cell():
    """Each nonneg check of a LinComb is >= 0 at every point of its grid
    with margin - error >= 0, so no cell passes through tau: the q = 1
    links, of ln Gamma and psi leaves (kv-bounds' with (x + a) ln(x + b)
    products), prop51-chain's links, and the derivative signs and range
    links of eq43-range, prop-cor45 and qthm-monotone.  cor51-nonneg's
    cells where margin - error < 0 are exactly those of ``_COR51_TAU_ONLY``."""
    links = [(check.label, check.kwargs) for cid in corpus.ALL_IDS for check in corpus.instantiate(cid)
             if check.kwargs.get("claim") == "nonneg" and type(check.kwargs["target"]) is ce.LinComb]
    assert {label.split("[")[0] for label, _ in links} == {
        "merkle-chain", "kershaw-chain", "noncompare", "kv-bounds", "eq43-range", "prop-cor45",
        "qthm-monotone", "prop51-chain", "cor51-nonneg"}
    for label, kw in links:
        values, errors, ok = kw["target"].jet_grid(ce._grid_values(kw["grid"]), 0)
        assert ok.all(), label
        below = np.flatnonzero(values[0] - errors[0] < 0.0)
        n = values.shape[1]
        tail = _COR51_TAU_ONLY[kw["params"]["q"]] if label.startswith("cor51-nonneg") else 0
        assert below.tolist() == list(range(n - tail, n)), (label, below.tolist())


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
    on their recurrence part: psi_q at q = 0.95 and 0.99 (up to 63 steps),
    the beta-lcm targets at q = 0.9, whose two terms take different steps,
    an ln Gamma_q ratio at q = 0.99, psi_q and an ln Gamma_q ratio at
    q = 0.999, where the step cap binds and later blocks run (one point a
    draw: their references take 4000 steps each), and a psi_q' difference
    at q = 5e-4, where q^z underflows in the steps too."""
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
    one_small = _XS_SMALL.map(lambda xs: xs[:1])
    cases.append(("psi_q-0.999", 4, _psi_q_series(0.999), lambda k, x: _psi_q(k, x, 0.999),
                  one_small, small[:1]))
    cases.append(("ln-ratio-0.999", 2, corpus._ln_ratio(0.999, 0.3), None, one_small, small[:1]))
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


# the classical scalars: x from 1e-300 to 1e8, x on [1e-2, 1e2], and x
# within 1e-6 to 1e-14 of the zeros of ln Gamma (1 and 2) and of psi
_X_WIDE = st.floats(-300.0, 8.0).map(lambda e: 10.0**e)
_X_MID = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)
_PSI_ZERO = 1.4616321449683622


def _near(z):
    return st.tuples(st.floats(-14.0, -6.0), st.sampled_from([-1.0, 1.0])).map(
        lambda p: z + p[1] * 10.0 ** p[0])


# the default policy, and a coarse one under which the asymptotic series
# stops early, so that its first omitted term, not the rounding slop, is
# most of the certificate
_SCALAR_POLICIES = (None, sf.TruncationPolicy(eps=1e-6))


def _assert_scalar_sound(fn, ref, x, may_refuse=False):
    """``fn(x, policy)`` under each policy is finite and within its error of
    the 40-digit ``ref(x)``, or raises DomainError where ``ref(x)`` leaves
    double range, or ConvergenceError where ``may_refuse`` says that the
    term budget may not reach the series' tail."""
    with mp.workdps(40):
        truth = ref(mp.mpf(x))
        for policy in _SCALAR_POLICIES:
            try:
                enc = fn(x, policy)
            except DomainError:
                assert abs(truth) > sys.float_info.max, (x, truth)
                continue
            except ConvergenceError:
                assert may_refuse, (x, policy)
                continue
            assert math.isfinite(enc.value) and math.isfinite(enc.abs_error), (x, policy, enc)
            assert abs(mp.mpf(enc.value) - truth) <= enc.abs_error, (x, policy, enc, truth)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.tuples(_X_WIDE, _X_MID, _near(1.0), _near(2.0)))
@example((1e-300, 1.0, 1.0, 2.0))
@example((1e8, 20.0, 1.0 - 1e-14, 2.0 + 1e-14))
def test_ln_gamma_certificates_hold(xs):
    for x in xs:
        _assert_scalar_sound(sf.ln_gamma, mp.loggamma, x)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.tuples(_X_WIDE, _X_MID, _near(_PSI_ZERO)))
@example((1e-300, _PSI_ZERO, _PSI_ZERO - 1e-14))
@example((1e8, 20.0, _PSI_ZERO + 1e-14))
def test_digamma_certificates_hold(xs):
    for x in xs:
        _assert_scalar_sound(sf.digamma, mp.digamma, x)


# the orders above 40 where (x+i)^-(n+1), n! or y^n leave the normal range
_HIGH_ORDERS = (150, 160, 170, 171, 180, 200)
# one step below the shift thresholds 10 + n = 32, 64 and 128, with an odd
# last bit: x + 1 rounds to the coarser ulp past the power of 2, which moves
# psi^(n) by up to n + 1 half-ulps (1.55 times the bound at n = 118 before
# the slop counted it)
_BELOW_POWERS_OF_2 = ((22, 31.95603427188927), (54, 63.95603427188927), (118, 127.95603427188927))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_X_WIDE, _X_MID, st.floats(math.log10(210.0), 8.0).map(lambda e: max(10.0**e, 210.0)),
       st.floats(-2.0, math.log10(260.0)).map(lambda e: 10.0**e))
@example(1e-300, 1e-2, 210.0, 100.0)  # the shift terms of n = 170 underflow: -8.884e-36
@example(3e-7, 1.0, 1e3, 5.0)  # 40! sum (x+i)^-41 overflows although each summand does not
@example(1e8, 1e2, 1e8, 1e-2)  # y^(n+2) overflows where y^n does not
def test_polygamma_certificates_hold(x_wide, x_mid, x_far, x_high):
    """Orders 1..40 at both x; order 150 at x_mid (the shift plus the
    scaled series of ``_polygamma_far``, as y^150 overflows); orders 150
    and 200 at x >= 10 + n, where the scaled series is all; each order
    of ``_HIGH_ORDERS`` at x_high, which reaches 10 + n + 50 for every one
    of them: there n! (n >= 171) or a shift term leaves the normal range,
    and the value is representable or raises DomainError; and the cases of
    ``_BELOW_POWERS_OF_2``, where the rounded x + 1 crosses a power of 2."""
    cases = [(n, x) for n in range(1, 41) for x in (x_wide, x_mid)]
    cases += [(n, x_high) for n in _HIGH_ORDERS] + list(_BELOW_POWERS_OF_2)
    for n, x in cases + [(150, x_mid), (150, x_far), (200, x_far)]:
        _assert_scalar_sound(functools.partial(sf.polygamma, n),
                             lambda y: _polygamma_at(n, y, 40), x)


def _assert_kernel_sound(n0, xs, policy):
    """Each cell of ``specfun._psi_kernel``'s orders n0..n0+12 at ``xs`` is
    within its error of 40 digits, and fails exactly where the scalar
    ``ln_gamma``/``digamma``/``polygamma`` raises DomainError."""
    values, errors, _, failed = sf._psi_kernel(
        n0, 12, np.array(xs, dtype=float), (policy or sf.DEFAULT_POLICY).eps)
    with mp.workdps(40):
        for r, n in enumerate(range(n0, n0 + 13)):
            for p, x in enumerate(xs):
                try:
                    sf._psi_shifted(n, x, policy)
                except DomainError:
                    assert failed[r, p], (n, x)
                    continue
                assert not failed[r, p], (n, x)
                truth = mp.loggamma(x) if n == -1 else _polygamma_at(n, x, 40)
                assert abs(mp.mpf(values[r, p]) - truth) <= errors[r, p], (n, x, policy)


_KERNEL_X = st.floats(-3.0, 4.0).map(lambda e: 10.0**e)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.lists(_KERNEL_X, min_size=1, max_size=4),
       st.tuples(_near(1.0), _near(2.0), _near(_PSI_ZERO)),
       st.sampled_from([-1, 0, 3, 16, 28]), st.sampled_from(_SCALAR_POLICIES))
@example([1e-3, 1e4], (1.0, 2.0, _PSI_ZERO), -1, None)
# the points of _BELOW_POWERS_OF_2, orders 106..118: the slop must count
# the rounding of x + 1 there
@example([x for _, x in _BELOW_POWERS_OF_2], (1.0, 2.0, _PSI_ZERO), 106, None)
def test_psi_grid_kernel_certificates_hold(xs, near_zeros, n0, policy):
    """Orders n0..n0+12 of the grid kernel, up to 40 (and 118 in an
    example), on [1e-3, 1e4] and near the zeros of ln Gamma and psi, where
    the error stays relative to the summands, under the default policy and
    a coarse one; the points x <= 0 and those whose value leaves double
    range fail, as the scalar does."""
    _assert_kernel_sound(n0, xs + list(near_zeros) + [0.0, -1.5, 1e-300, 5e-324], policy)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(st.lists(_KERNEL_X, min_size=1, max_size=3))
@example([1e-3, 0.5, 160.5, 1e4])
def test_psi_grid_kernel_certificates_hold_at_high_orders(xs):
    """Orders 150..200, where n! or a shift term leaves the normal range and
    the kernel forms them in logs, or the value leaves double range."""
    for n0 in (150, 188):
        _assert_kernel_sound(n0, xs, None)


def _ball_volume_ref(n):
    return mp.pi ** (n / 2) / mp.gamma(1 + n / 2)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.floats(-3.0, 4.0).map(lambda e: 10.0**e), st.integers(0, 1000))
@example(1e-3, 1000)  # 40! sum (x + k)^-41 is 8e170; Omega_1000 underflows to 0
@example(1e4, 0)
def test_reference_route_certificates_hold(x, dim):
    """The cross-check routes: digamma_series at x, at psi's zero and at 1
    and 2, polygamma_series at orders 1..40 at x, and unit_ball_volume in
    dimension ``dim``; a DomainError only where the value leaves double
    range."""
    for y in (x, _PSI_ZERO, 1.0, 2.0):
        _assert_scalar_sound(sf.digamma_series, mp.digamma, y)
    for n in range(1, 41):
        _assert_scalar_sound(functools.partial(sf.polygamma_series, n),
                             lambda y: _polygamma_at(n, y, 40), x)
    _assert_scalar_sound(sf.unit_ball_volume, _ball_volume_ref, dim)


@pytest.mark.parametrize("q", [0.9, 0.99, 0.999])
def test_q_gamma_counts_the_logs_terms_once(q):
    """q_gamma's exp adds its own rounding to the certified error of
    ln Gamma_q, which already holds the log's rounding, and counts none of
    the log's terms again: the bound is below val (expm1(err) + terms eps)
    and still holds against 40 digits, unwidened, near q = 1 too."""
    for x in (0.5, 1.5, 7.0, 40.0):
        _assert_scalar_sound(lambda y, policy: sf.q_gamma(y, q, policy),
                             lambda y: mp.exp(_q_psi(-1, y, q)), x)
        log, enc = sf.q_ln_gamma(x, q), sf.q_gamma(x, q)
        assert enc.abs_error < enc.value * (math.expm1(log.abs_error) + log.terms_used * sf._EPS_MACH)


@pytest.mark.parametrize("dim", [0, 1, 2, 3, 7, 10, 25, 50, 100, 171, 300, 1000])
def test_unit_ball_volume_weighs_its_logs_summands(dim):
    """unit_ball_volume's log, (n/2) ln pi - ln Gamma(1 + n/2), rounds in
    units of its two summands, and its exp counts no term of ln Gamma
    again; the bound holds against 40 digits, unwidened."""
    _assert_scalar_sound(sf.unit_ball_volume, _ball_volume_ref, dim)


# the q scalars at q near 0, at 0.3 and 0.9, near 1 and above 1
_Q_SCALAR_QS = (0.01, 0.3, 0.9, 0.99, 1.5, 3.0, 40.0)
_PSI_Q_ZERO = 1.4595075276850873  # the zero of psi_q at q = 0.9 (mp.findroot, 40 digits)


def _q_scalar_sound(n, x, q):
    """``_assert_scalar_sound`` of psi_q^(n)(x), n >= -1, by its public
    evaluator (q_ln_gamma at n = -1, q_digamma at 0), against the direct
    sums of ``_q_psi``, and of Gamma_q(x) at n = -1.  The series may
    refuse where its hump max(n, 1)/(x ln(1/p)), p = min(q, 1/q), passes
    a tenth of the term budget."""
    fn = {-1: sf.q_ln_gamma, 0: sf.q_digamma}.get(n) or functools.partial(sf.q_polygamma, n)
    hump = max(n, 1) / (x * abs(math.log(q)))
    _assert_scalar_sound(lambda y, policy: fn(y, q, policy), lambda y: _q_psi(n, y, q), x,
                         hump > 0.1 * sf.DEFAULT_POLICY.max_terms)
    if n == -1:
        _assert_scalar_sound(lambda y, policy: sf.q_gamma(y, q, policy),
                             lambda y: mp.exp(_q_psi(-1, y, q)), x)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.floats(-2.0, 3.0).map(lambda e: 10.0**e), st.integers(1, 40),
       st.tuples(_near(1.0), _near(2.0), _near(_PSI_Q_ZERO)))
@example(1e-2, 40, (1.0 - 1e-14, 2.0 + 1e-14, _PSI_Q_ZERO))
@example(1e3, 1, (1.0 + 1e-6, 2.0 - 1e-6, _PSI_Q_ZERO + 1e-14))
def test_q_scalar_certificates_hold(x, n, near):
    """ln Gamma_q, Gamma_q, psi_q and psi_q^(n) at x for every q of
    ``_Q_SCALAR_QS``, and at q = 0.9 ln Gamma_q near its zeros 1 and 2 and
    psi_q near its zero, where the summands cancel."""
    for q in _Q_SCALAR_QS:
        for k in (-1, 0, n):
            _q_scalar_sound(k, x, q)
    for k, y in zip((-1, -1, 0), near):
        _q_scalar_sound(k, y, 0.9)


@pytest.mark.parametrize("n, x, q", [
    (1100, 419.23, 0.6),  # (ln q)^(n+1) is subnormal
    (100, 1.0, 0.99),  # -9.33e157, where the unscaled sum overflows
    (200, 1.0, 1e-300),  # -5.09e270, where (ln q)^(n+1) overflows
], ids=lambda v: str(v))
def test_q_polygamma_certificates_hold_at_the_edges(n, x, q):
    _q_scalar_sound(n, x, q)


@pytest.mark.parametrize("x", [30.0, 60.0, 100.0, 590.0, 600.0])
def test_q_psi_sum_covers_its_flushed_terms(x):
    # at q = 0.3 most of the first block's exps fall below 2^-1020 and are
    # flushed to 0; at x = 590 and 600, q^x is near 2^-1020 itself, so the
    # value is about the flushed terms (at x = 600 the first term of orders
    # 1..3 is flushed) and only the floor covers them
    for n in range(4):
        _q_scalar_sound(n, x, 0.3)


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


# a budget of 8 terms, which both regimes run out of near t0, and an eps
# far below the default
_KERNEL_POLICIES = (None, sf.TruncationPolicy(max_terms=8), sf.TruncationPolicy(eps=1e-30))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 40), st.integers(0, 20), st.lists(_KERNEL_T, min_size=2, max_size=6),
       st.sampled_from(_KERNEL_POLICIES))
@example(40, 0, [1e-10, 1.0, 40.0], None)
@example(40, 20, [3e-17, _T0, _T0 * (1.0 + 1e-9), 40.0], None)
@example(16, 16, [1e-2, 1.99, 2.01, 40.0], sf.TruncationPolicy(max_terms=8))
@example(770, 20, [2.5, 3.0], None)  # C(k, j) n!/(n-j)! t^(n-j) overflows at j = 1
@example(10**16, 20, [0.5, 3.0], None)  # perm(n, k) is past the largest double
def test_kernel_grid_certificates_hold(n, k, ts, policy):
    """Each cell of the kernel-derivative grid (``specfun._kernel_grid``)
    on a grid of points on both sides of t0 is within its error of 40
    digits, holds ``kernel_derivative``'s value, error and terms bit for
    bit, and fails exactly where it raises, with its class and message;
    t <= 0 and t = inf fail with DomainError."""
    ts = ts + [0.0, -1.0, math.inf]
    values, errors, terms, failures = sf._kernel_grid(n, k, np.array(ts), policy)
    with mp.workdps(40):
        for p, t in enumerate(ts):
            try:
                enc = sf.kernel_derivative(n, k, t, policy)
            except (DomainError, ConvergenceError) as exc:
                assert type(failures[p]) is type(exc) and str(failures[p]) == str(exc), (n, k, t)
                assert math.isnan(values[p]) and math.isnan(errors[p])
                continue
            assert failures[p] is None, (n, k, t, failures[p])
            assert (values[p].hex(), errors[p].hex(), terms[p]) == (
                enc.value.hex(), enc.abs_error.hex(), enc.terms_used), (n, k, t, policy)
            miss = abs(mp.mpf(values[p]) - _kernel_ref(n, k, t))
            assert miss <= errors[p], (n, k, t, policy, values[p], errors[p])


@pytest.mark.parametrize("t", [1.9, 1.99, _T0, 2.01, 2.1])
def test_kernel_regimes_agree_near_t0(t):
    """Both series converge around t0: their values agree within the sum of
    their certificates.  The exponential side is its one implementation,
    the array kernel, read at the one point."""
    for n in (1, 2, 5, 16, 40):
        for k in (0, 1, 7, 16, 20):
            a = sf._kernel_bernoulli(n, k, t, sf.DEFAULT_POLICY)
            (b,), (b_err,), _, (failure,) = sf._kernel_exp_grid(n, k, np.array([t]), sf.DEFAULT_POLICY)
            assert failure is None, (n, k, failure)
            assert abs(a.value - b) <= a.abs_error + b_err, (n, k, a, b, b_err)
