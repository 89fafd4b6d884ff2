"""Certified evaluation of the gamma / q-gamma family.

Every evaluator returns an Enclosure: a double-precision value together with
a certified bound on the truncation error of the defining series or product
(plus a documented, non-rigorous rounding-slop term).  Two independent
evaluation routes exist for the digamma/polygamma functions: the default
recurrence-shift + asymptotic route and a direct-series route with an
integral-comparison tail bracket, used to cross-check the former.

The geometric series (the q-gamma product, the psi_q series, the kernel
derivative series above t0 = 2 and cm_engine.QSeriesTarget) share one
block schedule, ``_blocks``: a first block of 256 terms (512 for the
kernel), then blocks that double up to 2**17 terms, the last one clamped to
``TruncationPolicy.max_terms``.  After each block the caller bounds the
rest of the series geometrically and stops once that tail is at most
eps * (1 + |partial sum|); if the budget runs out first, ConvergenceError.

The kernel derivatives have a second regime at t <= t0, where the
exponential series cancels: the Bernoulli generating function of
t/(1 - e^(-t)), summed term by term from a table of its coefficients, with
a geometric tail from |B_2m|/(2m)! < 4/(2 pi)^(2m).  It stops once the tail
is at most eps * sum|term|, a relative rule; past the budget or the table,
ConvergenceError.

Within one verification run the evaluator calls of the layers above
(cm_engine's grid leaves, the bounds functions, and the corpus probes and
chains that meet a point twice) read one cell table that ``_run_cells``
opens around the run's claims.  The cells of each (evaluator, non-point
arguments, policy) are keyed by the point; a cell is evaluated by one call
the first time it is asked for, and later asks get the same Enclosure
object, or a DomainError/ConvergenceError of the same class and message
raised again, so results keep their bits.  policy=None and DEFAULT_POLICY
share their cells.  The table is a ContextVar that the run resets when it
ends; outside a run the lookup just calls the evaluator and keeps nothing.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "Enclosure",
    "QParam",
    "TruncationPolicy",
    "LogMeanOrder",
    "DEFAULT_POLICY",
    "EULER_GAMMA",
    "ln_gamma",
    "digamma",
    "digamma_series",
    "polygamma",
    "polygamma_series",
    "q_gamma",
    "q_ln_gamma",
    "q_digamma",
    "q_polygamma",
    "log_mean",
    "kernel_h",
    "kernel_derivative",
    "unit_ball_volume",
]

EULER_GAMMA = 0.5772156649015328606065120900824024
_LN_2PI = math.log(2.0 * math.pi)
_EPS_MACH = 2.220446049250313e-16

# Bernoulli numbers B_2, B_4, ..., B_30 (floats of the exact rationals).
_BERNOULLI_2K = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
    -23749461029.0 / 870.0,
    8615841276005.0 / 14322.0,
)
# B_32: the first term past the table, which bounds the error of the
# asymptotic series when the table runs out
_BERNOULLI_32 = -7709321041217.0 / 510.0

# c_j of t/(1 - e^(-t)) = sum_j c_j t^j (DLMF 24.2.1) at j = 0, 1, 2, 4,
# ..., 120: c_0 = 1, c_1 = 1/2 and c_2m = B_2m/(2m)! (floats of the exact
# rationals); the odd c_j past 1 vanish, and |c_2m| < 4/(2 pi)^(2m)
# (DLMF 24.9.8)
_KERNEL_C = (
    1.0, 0.5, 0.08333333333333333, -0.001388888888888889,
    3.306878306878307e-05, -8.267195767195768e-07, 2.08767569878681e-08,
    -5.284190138687493e-10, 1.3382536530684679e-11, -3.3896802963225827e-13,
    8.586062056277845e-15, -2.174868698558062e-16, 5.5090028283602295e-18,
    -1.3954464685812522e-19, 3.534707039629467e-21, -8.953517427037546e-23,
    2.267952452337683e-24, -5.744790668872202e-26, 1.455172475614865e-27,
    -3.6859949406653103e-29, 9.336734257095045e-31, -2.36502241570063e-32,
    5.990671762482134e-34, -1.5174548844682903e-35, 3.843758125454189e-37,
    -9.736353072646691e-39, 2.466247044200681e-40, -6.247076741820743e-42,
    1.5824030244644914e-43, -4.008273685948936e-45, 1.0153075855569557e-46,
    -2.5718041582418717e-48, 6.514456035233815e-50, -1.6501309906896525e-51,
    4.179830628539476e-53, -1.058763466770291e-54, 2.6818791912607708e-56,
    -6.793279351107421e-58, 1.7207577616681404e-59, -4.358730329348894e-61,
    1.1040792903684666e-62, -2.7966655133781345e-64, 7.084036501679471e-66,
    -1.794407408289224e-67, 4.545287063611096e-69, -1.1513346631982051e-70,
    2.9163647710923614e-72, -7.387238263497337e-74, 1.8712093117637953e-75,
    -4.739828557761799e-77, 1.2006125993354507e-78, -3.0411872415142924e-80,
    7.703417274705106e-82, -1.951298390909883e-83, 4.942696565159462e-85,
    -1.2519996659171848e-86, 3.1713522017635153e-88, -8.033128970735334e-90,
    2.0348153391661465e-91, -5.154247466447474e-93, 1.3055861352149468e-94,
    -3.307088314175091e-96,
)

_LNGAMMA_SHIFT = 20.0
_DIGAMMA_SHIFT = 20.0


@dataclass(frozen=True, slots=True)
class Enclosure:
    """A computed value with a certified absolute truncation-error bound.

    ``abs_error`` bounds the truncation tail of the defining series plus a
    heuristic rounding-slop term (about terms_used * machine epsilon * the
    sum of the magnitudes of the summands, which is not rigorous for
    floating point).  ``warn_slow`` is set when a q-series needed more than
    10**5 terms (q very close to 1).
    """

    value: float
    abs_error: float
    terms_used: int
    warn_slow: bool = False

    def __post_init__(self):
        if self.abs_error < 0.0 or self.terms_used < 0:
            raise ValueError("abs_error and terms_used must be nonnegative")


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rule for the certified series evaluators.

    ``eps`` is the relative stopping tolerance and ``max_terms`` a hard term
    budget (exceeding it raises ConvergenceError rather than returning an
    uncertified value).
    """

    eps: float = 1e-16
    max_terms: int = 10**6

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError("eps must lie in (0, 1)")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class QParam:
    """Deformation parameter q > 0, q != 1, with its branch tag."""

    q: float
    branch: str = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.q) or self.q <= 0.0 or self.q == 1.0:
            raise DomainError(f"q must be positive, finite and != 1, got {self.q}")
        object.__setattr__(self, "branch", "sub_one" if self.q < 1.0 else "super_one")


@dataclass(frozen=True)
class LogMeanOrder:
    """Order r of the generalized logarithmic mean L_r."""

    r: float


def _require_positive(x, name="x"):
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or x <= 0.0:
        raise DomainError(f"{name} must be positive and finite, got {x!r}")


def _require_order(n):
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"derivative order must be an integer >= 1, got {n!r}")


def _as_q(q) -> float:
    if isinstance(q, QParam):
        return q.q
    qf = float(q)
    QParam(qf)  # validates
    return qf


def _slop(ops: float, magnitude):
    """Rounding slop ops·eps·|magnitude| of a result that took ``ops``
    rounded operations, where ``magnitude`` is the sum of the magnitudes of
    its summands (|value| when nothing cancels).  The one place that states
    the slop rule; ``magnitude`` may be an array."""
    return ops * _EPS_MACH * abs(magnitude)


def _exp(log_val: float, enc: Enclosure, ops: int = 0) -> Enclosure:
    """Enclosure of exp(log_val), where log_val is known to within
    ``enc.abs_error`` and took ``enc.terms_used + ops`` operations."""
    try:
        val = math.exp(log_val)
    except OverflowError:
        raise DomainError(f"exp({log_val}) overflows double precision") from None
    err = val * math.expm1(enc.abs_error) if enc.abs_error < 1.0 else math.inf
    # the absolute floor covers a subnormal or underflowed val, whose
    # rounding error is not relative to val
    err += _slop(enc.terms_used + ops, val) + 4.0 * math.ulp(0.0)
    return Enclosure(val, err, enc.terms_used, enc.warn_slow)


# ---------------------------------------------------------------------------
# classical gamma family
# ---------------------------------------------------------------------------


def _stirling_ln_gamma(y: float, eps: float):
    """Stirling form at y >= 20 with Bernoulli corrections.

    Returns (value, tail_bound, terms).  The correction series alternates,
    so the first omitted term bounds the truncation error.
    """
    base = (y - 0.5) * math.log(y) - y + 0.5 * _LN_2PI
    corr = 0.0
    y2 = y * y
    ypow = y  # y^(2k-1)
    tail = math.inf
    terms = 0
    for k, b2k in enumerate(_BERNOULLI_2K, start=1):
        term = b2k / ((2 * k) * (2 * k - 1) * ypow)
        if k > 1 and abs(term) <= eps * (abs(base) + abs(corr)):
            tail = abs(term)
            break
        corr += term
        ypow *= y2
        terms += 1
    else:
        # table exhausted; certify by the first omitted term, k = 16
        tail = abs(_BERNOULLI_32 / (32 * 31 * ypow))
    return base + corr, tail, terms


def ln_gamma(x: float, policy: TruncationPolicy | None = None) -> Enclosure:
    """ln Gamma(x) for x > 0 via upward recurrence to x >= 20 plus Stirling."""
    policy = policy or DEFAULT_POLICY
    _require_positive(x)
    shift_logs = []
    y = float(x)
    while y < _LNGAMMA_SHIFT:
        shift_logs.append(math.log(y))
        y += 1.0
    stirling, tail, terms = _stirling_ln_gamma(y, policy.eps)
    # the shift cancels logs of size ~ln 20 against a Stirling value of ~40;
    # only log(x) can be negative, so sum |log| = shift - 2 min(log x, 0)
    shift = math.fsum(shift_logs)
    val = stirling - shift
    if val == math.inf:
        raise DomainError(f"ln Gamma({x}) overflows double precision")
    magnitude = abs(stirling) + shift - 2.0 * min(math.log(x), 0.0)
    terms += len(shift_logs)
    return Enclosure(val, tail + _slop(terms + 4, magnitude), terms)


def digamma(x: float, policy: TruncationPolicy | None = None) -> Enclosure:
    """psi(x) for x > 0 via recurrence shift to x >= 20 plus asymptotic tail."""
    policy = policy or DEFAULT_POLICY
    _require_positive(x)
    recips = []
    y = float(x)
    while y < _DIGAMMA_SHIFT:
        recips.append(1.0 / y)
        y += 1.0
    asym = math.log(y) - 0.5 / y
    y2 = y * y
    ypow = y2
    corr = 0.0
    tail = math.inf
    terms = 0
    for k, b2k in enumerate(_BERNOULLI_2K, start=1):
        term = b2k / ((2 * k) * ypow)
        if k > 1 and abs(term) <= policy.eps * (abs(asym) + abs(corr)):
            tail = abs(term)
            break
        corr -= term
        ypow *= y2
        terms += 1
    else:
        tail = abs(_BERNOULLI_32) / (32 * ypow)
    asym += corr
    shift = math.fsum(recips)  # cancels against asym near the zero x0 = 1.4616
    val = asym - shift
    if val == -math.inf:  # 1/x overflows
        raise DomainError(f"psi({x}) overflows double precision")
    terms += len(recips)
    return Enclosure(val, tail + _slop(terms + 4, abs(asym) + shift), terms)


def digamma_series(x: float, policy: TruncationPolicy | None = None) -> Enclosure:
    """psi(x) from the defining series -gamma + sum(1/(n+1) - 1/(x+n)).

    Independent of the asymptotic route.  The tail is bracketed by integral
    comparison: for the convex, monotone summand f the tail sum over n >= N
    lies between int_N f + f(N)/2 and int_{N-1/2} f.
    """
    policy = policy or DEFAULT_POLICY
    _require_positive(x)
    n_terms = 4000
    n = np.arange(n_terms, dtype=float)
    partial = float((1.0 / (n + 1.0) - 1.0 / (x + n)).sum())
    # tail over n >= N of (x-1)/((n+1)(n+x)); sign handled via |x-1| scaling
    N = float(n_terms)

    def f_abs(t):
        return abs(1.0 / (t + 1.0) - 1.0 / (t + x))

    def integral_from(t0):
        # int_{t0}^inf |1/(t+1) - 1/(t+x)| dt = |ln((t0+x)/(t0+1))|
        return abs(math.log((t0 + x) / (t0 + 1.0)))

    lo = integral_from(N) + 0.5 * f_abs(N)
    hi = integral_from(N - 0.5)
    sign = 1.0 if x >= 1.0 else -1.0
    tail_mid = sign * 0.5 * (lo + hi)
    tail_err = 0.5 * (hi - lo) + _slop(1, hi)
    val = -EULER_GAMMA + partial + tail_mid
    return Enclosure(val, tail_err + _slop(n_terms, val), n_terms)


@functools.cache
def _asymptotic_coeffs(n: int, scaled: bool) -> tuple:
    """c_k = B_2k (2k+n-1)!/(2k)! of _polygamma_asymptotic's term c_k/y^(2k+n),
    for the 15 tabled B_2k and B_32, divided by (n-1)! when ``scaled``.

    Built once per (n, scaled), in the loop's own operation order, so every
    term keeps its bits; unscaled, (n-1)! must fit a float (n < 172), or
    this raises OverflowError on every call.
    """
    fact_nm1 = 1 if scaled else math.factorial(n - 1)
    rising = 1.0  # (n)(n+1)...(n+2k-1) / (2k)!
    coeffs = []
    for k, b2k in enumerate(_BERNOULLI_2K + (_BERNOULLI_32,), start=1):
        rising *= (n + 2 * k - 2) * (n + 2 * k - 1) / ((2 * k - 1) * (2 * k))
        coeffs.append(b2k * rising * fact_nm1)
    return tuple(coeffs)


def _polygamma_asymptotic(n: int, y: float, eps: float, scaled: bool = False):
    """(-1)^(n+1) psi^(n)(y) asymptotic, y large; first-omitted-term bound.

    The series stops at the first term that is negligible, no smaller than
    the term before it (the series has started to diverge), or past the
    Bernoulli table; that term is omitted and bounds the error.  With
    ``scaled``, the series and its bound are divided by (n-1)!/y^n, so
    nothing overflows where y^n does.
    """
    if scaled:
        ypow = 1.0
        lead = 1.0 + n / (2.0 * y)
    else:
        ypow = y**n
        lead = math.factorial(n - 1) / ypow + math.factorial(n) / (2.0 * y ** (n + 1))
    corr = 0.0
    y2 = y * y
    terms = 0
    prev = math.inf
    # term_k = B_2k * (2k+n-1)! / ((2k)! * y^(2k+n))
    for k, c in enumerate(_asymptotic_coeffs(n, scaled), start=1):
        ypow *= y2
        term = c / ypow
        past_table = k > len(_BERNOULLI_2K)
        if past_table or abs(term) >= prev or abs(term) <= eps * (lead + abs(corr)):
            break
        corr += term
        prev = abs(term)
        terms += 1
    return lead + corr, abs(term), terms


def polygamma(n: int, x: float, policy: TruncationPolicy | None = None) -> Enclosure:
    """psi^(n)(x), n >= 1, x > 0; sign convention (-1)^(n+1) psi^(n)(x) > 0.

    Raises DomainError where x is so small, or n so large, that the value
    or n! leaves double precision.
    """
    policy = policy or DEFAULT_POLICY
    _require_order(n)
    _require_positive(x)
    threshold = 10.0 + n
    shift_terms = []
    y = float(x)
    sign = 1.0 if n % 2 == 1 else -1.0
    try:
        while y < threshold:
            shift_terms.append(y ** (-(n + 1)))
            y += 1.0
        mag, tail, terms = _polygamma_asymptotic(n, y, policy.eps)
        if shift_terms:
            mag += math.factorial(n) * math.fsum(shift_terms)
    except OverflowError:
        if x < threshold:  # a shift term, n! or their sum overflowed
            raise DomainError(f"psi^({n})({x}) is out of double-precision range") from None
        # |psi^(n)(x)| < 1 here, so only y^n or (n-1)! overflowed
        return _polygamma_far(n, y, sign, policy.eps)
    val = sign * mag
    terms += len(shift_terms)
    return Enclosure(val, tail + _slop(terms + 4, val), terms)


def _polygamma_far(n: int, y: float, sign: float, eps: float) -> Enclosure:
    """psi^(n)(y) for y >= 10 + n where y^n overflows: the scaled asymptotic
    series times unit = (n-1)!/y^n, formed as exp(log (n-1)! - n log y)."""
    s, tail, terms = _polygamma_asymptotic(n, y, eps, scaled=True)
    log_fact, log_yn = math.log(math.factorial(n - 1)), n * math.log(y)
    log_unit = log_fact - log_yn
    unit = _exp(log_unit, Enclosure(log_unit, _slop(4, log_fact + log_yn), 0), 2)
    mag = unit.value * s
    # the smallest subnormal covers the rounding where unit underflows
    err = unit.abs_error * s + unit.value * (tail + _slop(terms + 4, s)) + 4.0 * math.ulp(0.0)
    return Enclosure(sign * mag, err, terms)


def polygamma_series(n: int, x: float, policy: TruncationPolicy | None = None) -> Enclosure:
    """psi^(n)(x) from n! * sum 1/(x+k)^(n+1), integral-comparison tail.

    The summand is positive, decreasing and convex, so the tail over k >= K
    lies between int_K f + f(K)/2 and int_{K-1/2} f, both in closed form;
    in particular it never exceeds (1/n)(x+K-1)^(-n).
    """
    policy = policy or DEFAULT_POLICY
    _require_order(n)
    _require_positive(x)
    K = 3000
    k = np.arange(K, dtype=float)
    partial = float(((x + k) ** (-(n + 1))).sum())
    lo = (x + K) ** (-n) / n + 0.5 * (x + K) ** (-(n + 1))
    hi = (x + K - 0.5) ** (-n) / n
    tail_mid = 0.5 * (lo + hi)
    tail_err = 0.5 * (hi - lo) + _slop(1, hi)
    mag = math.factorial(n) * (partial + tail_mid)
    err = math.factorial(n) * tail_err
    sign = 1.0 if n % 2 == 1 else -1.0
    val = sign * mag
    return Enclosure(val, err + _slop(K, val), K)


# ---------------------------------------------------------------------------
# q-gamma family (0 < q < 1 series; q > 1 via the Gamma_{1/q} relation)
# ---------------------------------------------------------------------------

_BLOCK = 256
_BLOCK_MAX = 1 << 17


def _blocks(policy: TruncationPolicy, what: str, *context, first: int = _BLOCK):
    """Index ranges [lo, hi) of the block schedule in the module docstring.

    The caller returns as soon as its tail certifies; once the budget is
    spent this raises ConvergenceError with ``what.format(*context)`` in
    its message, formatted only then so that it costs nothing per call.
    """
    lo, block = 0, first
    while lo < policy.max_terms:
        hi = min(lo + block, policy.max_terms)
        yield lo, hi
        lo, block = hi, min(2 * block, _BLOCK_MAX)
    raise ConvergenceError(
        f"{what.format(*context)} did not certify within {policy.max_terms} terms"
    )


def _q_ln_gamma_sub1(x: float, q: float, policy: TruncationPolicy):
    """log Gamma_q(x) for 0 < q < 1 from the infinite product, in log space.

    Term n is log((1 - q^(n+1)) / (1 - q^(n+x))) = log1p((q^(n+x) - q^(n+1))
    / (1 - q^(n+x))); the numerator is q^(n+1) expm1((x-1) ln q) and the
    denominator -expm1((n+x) ln q), so both keep their relative accuracy as
    x -> 1.  |term_n| <= q^n |q^x - q| / (1 - q^(n+min(x,1))), which decays
    geometrically with ratio q.  Every term has the sign of x - 1, so the
    summands' magnitudes add up to |const| + |total|, returned for the slop.
    """
    lnq = math.log(q)
    const = (1.0 - x) * math.log1p(-q)
    shift = math.expm1((x - 1.0) * lnq)  # q^(x-1) - 1
    diff = q * abs(shift)  # |q^x - q|
    m = min(x, 1.0)
    total = 0.0
    for n0, hi in _blocks(policy, "q-gamma product (x={}, q={})", x, q):
        n = np.arange(n0, hi, dtype=float)
        a = np.exp((n + 1.0) * lnq)  # q^(n+1)
        total += float(np.log1p(a * shift / -np.expm1((n + x) * lnq)).sum())
        qN = math.exp(hi * lnq)
        denom = (1.0 - math.exp((hi + m) * lnq)) * (1.0 - q)
        tail = diff * qN / denom if denom > 0.0 else math.inf
        val = const + total
        if tail <= policy.eps * (1.0 + abs(val)):
            return val, tail, hi, abs(const) + abs(total)


def q_ln_gamma(x: float, q, policy: TruncationPolicy | None = None) -> Enclosure:
    """log Gamma_q(x) with certified error; handles both q branches."""
    policy = policy or DEFAULT_POLICY
    _require_positive(x)
    qv = _as_q(q)
    if qv < 1.0:
        val, tail, terms, magnitude = _q_ln_gamma_sub1(x, qv, policy)
    else:
        p = 1.0 / qv
        sub, tail, terms, magnitude = _q_ln_gamma_sub1(x, p, policy)
        lin = (x - 1.0) * (1.0 - 0.5 * x) * math.log(p)
        val = lin + sub
        if val == math.inf:
            raise DomainError(f"log Gamma_q({x}) overflows double precision at q={qv}")
        magnitude += abs(lin)
    return Enclosure(val, tail + _slop(terms, magnitude), terms, warn_slow=terms > 10**5)


def q_gamma(x: float, q, policy: TruncationPolicy | None = None) -> Enclosure:
    """Gamma_q(x) for x > 0, q > 0, q != 1 (q = 1 callers use ln_gamma)."""
    enc = q_ln_gamma(x, q, policy)
    return _exp(enc.value, enc)


def _q_psi_sum(x: float, q: float, n: int, policy: TruncationPolicy):
    """sum_{k>=1} k^n q^(kx) / (1 - q^k) with a geometric tail certificate.

    Successive-term ratio is at most ((K+1)/K)^n * q^x once K terms are
    summed, which drops below 1 past the hump k ~ n/(x ln(1/q)).

    The terms peak there, and a block holds at most _BLOCK_MAX of them, so
    ln of a block sum is at most
    n (ln n - ln x - ln ln(1/q) - 1) - ln(1 - q) + ln(_BLOCK_MAX), formed
    in logs so that it neither overflows nor divides by zero; at n = 0 it
    is below 50.  The exponents k x ln q overflow only where
    x ln(1/q) max_terms passes the largest double.  Only where one of the
    two can happen is numpy's overflow warning silenced; an infinite sum
    becomes DomainError in the caller, and an exponent of -inf a term of 0.

    A term whose exp or quotient is subnormal or 0 loses up to ulp(0)/2 in
    each, which is not relative to the term: the returned tail adds the
    floor 2 ulp(0)/(1 - q) for every summed term and for the last one in
    the geometric tail.
    """
    lnq = math.log(q)
    under = 2.0 * math.ulp(0.0) / (1.0 - q)
    may_overflow = x * -lnq * policy.max_terms > 1e308 or (
        n
        and n * (math.log(n) - math.log(x) - math.log(-lnq) - 1.0)
        - math.log1p(-q)
        + math.log(_BLOCK_MAX)
        > 700.0
    )
    total = 0.0
    with np.errstate(over="ignore") if may_overflow else contextlib.nullcontext():
        for k0, hi in _blocks(policy, "q-series (x={}, q={}, order={})", x, q, n):
            k = np.arange(k0 + 1, hi + 1, dtype=float)
            logs = k * (x * lnq)
            if n:
                logs = logs + n * np.log(k)
            t = np.exp(logs) / (-np.expm1(k * lnq))
            total += float(t.sum())
            try:
                ratio = ((hi + 1.0) / hi) ** n * math.exp(x * lnq)
            except OverflowError:  # (1 + 1/hi)^n: far short of the hump
                continue
            if ratio < 1.0:
                tail = (float(t[-1]) + under) * ratio / (1.0 - ratio)
                if tail <= policy.eps * (1.0 + total):
                    return total, tail + hi * under, hi


def _q_psi(n: int, x: float, q, policy: TruncationPolicy | None) -> Enclosure:
    """psi_q^(n)(x) (n = 0: psi_q) by one _q_psi_sum call; n is checked.

    Where (ln p)^(n+1) underflows, it is kept as a mantissa and a binary
    exponent (``_power_parts``), so that its bits are not lost before it
    scales the sum.  Beyond one rounding per term, the slop counts
    (n+1)/2 for the power of the rounded ln p, and twice the size of the
    exponents: the exponent k x ln p + n ln k of term k is off by about
    eps times its two summands, which exp makes a relative error of the
    term.  Weighted by the terms, those summands average at most
    m x |ln p| + n ln m, as ln is concave, where m bounds the mean of k
    (``_mean_k``).
    """
    _require_positive(x)
    qv = _as_q(q)
    p = 1.0 / qv if qv > 1.0 else qv
    s, tail, terms = _q_psi_sum(x, p, n, policy or DEFAULT_POLICY)
    lnp = math.log(p)
    ops = terms + (n + 1) / 2
    if s:
        c = x * -lnp
        mean_k = _mean_k(n, c, terms)
        ops += 2.0 * (mean_k * c + n * math.log(mean_k))
    if n == 0:
        val = -math.log1p(-p) + lnp * s
        # the two summands cancel near the zero x0 ~ 1.46: base the slop on them
        magnitude = -math.log1p(-p) + abs(lnp * s)
        if qv > 1.0:
            val = (1.5 - x) * lnp + val
            magnitude += abs((1.5 - x) * lnp)
        err = abs(lnp) * tail
    else:
        extra = -lnp if qv > 1.0 and n == 1 else 0.0
        try:
            scale = lnp ** (n + 1)
        except OverflowError:
            scale = math.inf
        expo = 0  # lnp^(n+1) = scale 2^expo
        if abs(scale) < sys.float_info.min:
            scale, expo, more = _power_parts(-lnp, n + 1)
            scale = -scale if n % 2 == 0 else scale  # the sign of lnp^(n+1)
            ops += more
        val = math.ldexp(scale * s, expo) + extra
        err = math.ldexp(abs(scale) * tail, expo)
        magnitude = math.ldexp(abs(scale * s), expo) + abs(extra)
    # the absolute floor covers a subnormal product or sum
    err += _slop(ops, magnitude) + 4.0 * math.ulp(0.0)
    if not (math.isfinite(val) and math.isfinite(err)):
        raise DomainError(f"psi_q^({n})({x}) overflows double precision at q={q}")
    return Enclosure(val, err, terms, warn_slow=terms > 10**5)


def _mean_k(n: int, c: float, terms: int) -> float:
    """An upper bound, at least 1, on the mean of k weighted by the terms
    k^n q^(kx)/(1 - q^k), k = 1..terms, where c = x ln(1/q) > 0.

    The ratio of successive terms is at most rho(k) = (1 + 1/k)^n e^(-c),
    which falls with k and is 1 at k0 = 1/expm1(c/n).  Past K = 2 k0 + 1
    it is at most rho(K) < 1, so there the terms fall at least as fast as
    a geometric series of ratio rho(K), and the mean of k is at most
    K + 1/(1 - rho(K)).  At n = 0, rho(k) = e^(-c) for every k.
    """
    # capping c/n keeps expm1 finite; a smaller c/n only moves K further out
    K = 2.0 / math.expm1(min(c / n, 700.0)) + 1.0 if n else 1.0
    rho = math.exp(n * math.log1p(1.0 / K) - c)
    return min(float(terms), K + 1.0 / (1.0 - rho)) if rho < 1.0 else float(terms)


def q_digamma(x: float, q, policy: TruncationPolicy | None = None) -> Enclosure:
    """psi_q(x) = -ln(1-q) + ln q * sum q^(nx)/(1-q^n) for 0 < q < 1.

    For q > 1 the value follows from differentiating the Gamma_{1/q}
    relation: psi_q(x) = (3/2 - x) ln p + psi_p(x) with p = 1/q.
    """
    return _q_psi(0, x, q, policy)


def q_polygamma(n: int, x: float, q, policy: TruncationPolicy | None = None) -> Enclosure:
    """psi_q^(n)(x), n >= 1: term-wise derivative of the psi_q series.

    (-1)^(n+1) psi_q^(n)(x) = (-ln q)^(n+1) sum k^n q^(kx)/(1-q^k) > 0.
    For q > 1 only the first derivative picks up the extra -ln p term from
    the branch relation; higher orders agree with the p = 1/q values.
    """
    _require_order(n)
    return _q_psi(n, x, q, policy)


# ---------------------------------------------------------------------------
# means, kernels, ball volumes
# ---------------------------------------------------------------------------


def log_mean(r, a: float, b: float) -> float:
    """Generalized logarithmic mean L_r(a, b) (a = b returns a by continuity).

    r = -1 is the geometric mean, r = 0 the logarithmic mean, r = 1 the
    identric mean and r = 2 the arithmetic mean; L_r is increasing in r.
    """
    if isinstance(r, LogMeanOrder):
        r = r.r
    _require_positive(a, "a")
    _require_positive(b, "b")
    if a == b:
        return a
    if r == 0.0:
        return (a - b) / (math.log(a) - math.log(b))
    if r == 1.0:
        return math.exp((a * math.log(a) - b * math.log(b)) / (a - b) - 1.0)
    base = (a**r - b**r) / (r * (a - b))
    return base ** (1.0 / (r - 1.0))


def kernel_h(t: float) -> float:
    """t / (1 - e^(-t)) for t > 0 (tends to 1 as t -> 0+)."""
    _require_positive(t, "t")
    return t / (-math.expm1(-t))


_KERNEL_ORDER_CAP = 20
# kernel_derivative sums the Bernoulli series at t <= t0 and the exponential
# series above it
_KERNEL_T0 = 2.0


def kernel_derivative(
    n: int, k: int, t: float, policy: TruncationPolicy | None = None
) -> Enclosure:
    """d^k/dt^k of t^n / (1 - e^(-t)) by term-wise differentiation, in two
    regimes split at t0 = 2.

    At t <= t0 it differentiates t^(n-1) sum_j c_j t^j, the Bernoulli
    generating function, and stops once the tail is at most eps * sum|term|,
    a relative rule (``_kernel_bernoulli``).  Above t0 it expands
    1/(1-e^(-t)) = sum_m e^(-mt), whose alternating terms would cancel as
    t -> 0, with the block schedule and stop rule of the module docstring
    (``_kernel_exp``).
    """
    policy = policy or DEFAULT_POLICY
    if not isinstance(n, int) or n < 1 or not isinstance(k, int) or k < 0:
        raise DomainError(f"need integer n >= 1 and k >= 0, got n={n!r}, k={k!r}")
    if k > _KERNEL_ORDER_CAP:
        raise DomainError(f"derivative order {k} exceeds cap {_KERNEL_ORDER_CAP}")
    _require_positive(t, "t")
    try:
        if t <= _KERNEL_T0:
            return _kernel_bernoulli(n, k, t, policy)
        return _kernel_exp(n, k, t, policy)
    except OverflowError:
        raise DomainError(
            f"d^{k}/dt^{k} t^{n}/(1 - e^-t) at t={t} is out of double-precision range"
        ) from None


def _kernel_bernoulli(n: int, k: int, t: float, policy: TruncationPolicy) -> Enclosure:
    """kernel_derivative at t <= t0: sum_j c_j perm(n-1+j, k) t^(n-1+j-k).

    The terms are summed with t^e, e = max(n-1-k, 0), factored out, and t^e
    is put back as a mantissa and a binary exponent (``_power_parts``), so a
    subnormal t^e costs no bits of a representable result.  After term i
    the first omitted term has j = 2i, and the one of j = 2i' is at most
    b_p = 4 perm(p, k) t^(p-k) / (2 pi)^(2i') with p = n-1+2i'.  The ratio
    b_(p+2)/b_p = (t/2 pi)^2 (p+2)(p+1)/((p+2-k)(p+1-k)) falls with p, so
    once it is below 1 the tail is at most b_p/(1 - ratio).  The slop is
    3 eps of every |term| (the roundings of c_j, perm(p, k), the power and
    two products), one op per term for the sum, and those of the scaling;
    the absolute floor, as in ``_exp``, covers a value that underflows.
    """
    e = max(n - 1 - k, 0)
    r2 = (t / math.tau) ** 2
    total = magnitude = 0.0
    for i in range(min(policy.max_terms, len(_KERNEL_C))):
        p = n - 1 + (i if i < 2 else 2 * i - 2)
        if p >= k:
            term = _KERNEL_C[i] * math.perm(p, k) * t ** (p - k - e)
            total += term
            magnitude += abs(term)
        p = n - 1 + 2 * i
        if i == 0 or p < k:  # b_p does not bound c_1; perm(p, k) = 0 below k
            continue
        ratio = r2 * ((p + 2) * (p + 1)) / ((p + 2 - k) * (p + 1 - k))
        if ratio < 1.0:
            bound = 4.0 * math.perm(p, k) * t ** (p - k - e) / math.tau ** (2 * i)
            tail = bound / (1.0 - ratio)
            if tail <= policy.eps * magnitude:
                mant, expo, ops = _power_parts(t, e)
                val = math.ldexp(total * mant, expo)
                err = math.ldexp(tail * mant, expo) + _slop(
                    i + 4 + ops, math.ldexp(magnitude * mant, expo)
                )
                return Enclosure(val, err + 4.0 * math.ulp(0.0), i + 1)
    what = f"kernel derivative series (n={n}, k={k}, t={t}) did not certify within"
    if policy.max_terms < len(_KERNEL_C):
        raise ConvergenceError(f"{what} {policy.max_terms} terms")
    raise ConvergenceError(f"{what} its {len(_KERNEL_C)} tabulated Bernoulli terms")


def _power_parts(t: float, e: int):
    """(m, x, ops) with t^e = m 2^x, m in [0.5, 1), formed in ``ops``
    rounded operations without an underflow or overflow: the mantissa of t
    is raised to at most the 1000th power at a time, which keeps m normal."""
    mant, expo = math.frexp(t)
    m, x, ops = 1.0, 0, 0
    while e > 0:
        step = min(e, 1000)
        m, shift = math.frexp(m * mant**step)
        x += shift + expo * step
        e, ops = e - step, ops + 2
    return m, x, ops


def _kernel_exp(n: int, k: int, t: float, policy: TruncationPolicy) -> Enclosure:
    """kernel_derivative above t0 from 1/(1-e^(-t)) = sum_m e^(-mt): each
    t^n e^(-mt) differentiates in closed form by the product rule.  The tail
    over m is geometric with ratio at most e^(-t/2) once m >= 2k/t."""
    jmax = min(k, n)
    # C(k,j) * n!/(n-j)! * t^(n-j) for j = 0..jmax
    coefs = [math.comb(k, j) * math.perm(n, j) * t ** (n - j) for j in range(jmax + 1)]
    # m = 0 contribution: d^k/dt^k t^n
    total = math.perm(n, k) * t ** (n - k) if k <= n else 0.0
    # the alternating terms cancel as t -> 0: base the slop on them
    abs_total = abs(total)
    for m0, hi in _blocks(
        policy, "kernel derivative series (n={}, k={}, t={})", n, k, t, first=512
    ):
        m = np.arange(m0 + 1, hi + 1, dtype=float)
        emt = np.exp(-m * t)
        acc = np.zeros_like(m)
        bound = np.zeros_like(m)
        for j, c in enumerate(coefs):
            mp = m ** (k - j)
            acc += c * ((-1.0) ** (k - j)) * mp
            bound += c * mp
        total += float((acc * emt).sum())
        abs_total += float(bound @ emt)
        ratio = math.exp(-t) * ((hi + 2.0) / (hi + 1.0)) ** k
        if ratio < 1.0:
            pb = sum(c * (hi + 1.0) ** (k - j) for j, c in enumerate(coefs))
            tail = pb * math.exp(-(hi + 1.0) * t) / (1.0 - ratio)
            if tail <= policy.eps * (1.0 + abs(total)):
                return Enclosure(total, tail + _slop(hi, abs_total), hi)


def unit_ball_volume(n: int, policy: TruncationPolicy | None = None) -> Enclosure:
    """Volume of the n-dimensional Euclidean unit ball, pi^(n/2)/Gamma(1+n/2)."""
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"dimension must be a nonnegative integer, got {n!r}")
    enc = ln_gamma(1.0 + 0.5 * n, policy)
    return _exp(0.5 * n * math.log(math.pi) - enc.value, enc, 2)


# ---------------------------------------------------------------------------
# the run-scoped cell table
# ---------------------------------------------------------------------------

# the cell table of the current verification run; None outside a run
_RUN_CELLS: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "qgammakit_run_cells", default=None
)


@contextlib.contextmanager
def _run_cells():
    """Share every evaluator cell among all calls made inside the block.

    The table lives as long as the block, never longer: a second run, or a
    call outside any run, evaluates afresh.
    """
    token = _RUN_CELLS.set({})
    try:
        yield
    finally:
        _RUN_CELLS.reset(token)


def _cells(fn, context: tuple, policy) -> dict | None:
    """The run's cells of evaluator ``fn`` at the non-point arguments
    ``context``, keyed by the point; None outside a run.  policy=None and
    DEFAULT_POLICY share their cells."""
    table = _RUN_CELLS.get()
    if table is None:
        return None
    # one dict per (fn, context, policy), keyed by the point: smaller and
    # faster to probe than a key of all the arguments
    return table.setdefault((fn, context, policy or DEFAULT_POLICY), {})


def _cell(cells: dict | None, y: float, fn, *args) -> Enclosure:
    """``fn(*args)``, whose point is ``y``: evaluated the first time, then
    read from ``cells``.  A DomainError/ConvergenceError is stored as its
    class and arguments, and each later read raises a fresh instance, so the
    table holds no traceback and keeps no caller's frame alive.  With
    ``cells`` None (outside a run) this just calls ``fn``."""
    if cells is None:
        return fn(*args)
    cell = cells.get(y)
    if cell is None:
        try:
            cell = fn(*args)
        except (DomainError, ConvergenceError) as exc:
            cells[y] = (type(exc), exc.args)
            raise
        cells[y] = cell
    elif type(cell) is tuple:
        err_type, err_args = cell
        raise err_type(*err_args)
    return cell


def _once(fn, *args, at: int = 0, policy: TruncationPolicy | None = None) -> Enclosure:
    """``fn(*args, policy)`` through the run's table, where ``args[at]`` is
    the point.  Pass ``fn`` as the caller's module binding, so that a
    wrapper put there sees only the real evaluations."""
    cells = _cells(fn, args[:at] + args[at + 1 :], policy)
    return _cell(cells, args[at], fn, *args, policy)
