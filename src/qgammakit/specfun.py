"""Certified evaluation of the gamma / q-gamma family.

Every evaluator returns an Enclosure: a double-precision value together with
a certified bound on the truncation error of the defining series or product
(plus a documented, non-rigorous rounding-slop term).  Two independent
evaluation routes exist for the digamma/polygamma functions: the default
recurrence-shift + asymptotic route and a direct-series route with an
integral-comparison tail bracket, used to cross-check the former.

ln Gamma, psi and psi^(n) are one family, psi^(n) for n >= -1 (psi^(0) =
psi, psi^(-1) = ln Gamma), with one rule (``_psi_shifted``).  The
recurrence (DLMF 5.5.2, 5.15.5) moves x up to y >= 20 for n <= 0 and to
y >= 10 + n above.  At y the series (DLMF 5.11.1, 5.11.2, 5.15.8)

    (-1)^(n+1) psi^(n)(y) ~ lead_n(y) + sum_k B_2k (2k+n-1)!/((2k)! y^(2k+n)),

with lead_n = (y - 1/2) ln y - y + ln(2 pi)/2, 1/(2y) - ln y and
(n-1)!/y^n + n!/(2 y^(n+1)) for n = -1, 0 and above, stops at its first
term that is past the table of B_2..B_30, no longer falling, or at most
eps (|lead| + |sum|).  That first omitted term bounds the tail (DLMF
5.11(ii)), B_32's past the table.  The slop weighs |series| + sum |shift
terms|, so the error stays relative to the summands at psi's zero
1.4616... and ln Gamma's zeros 1 and 2.  Where a power of y overflows at
n >= 1, ``_polygamma_far`` sums the series scaled by (n-1)!/y^n; where a
shift term leaves the normal range or n! overflows, ``_shift_in_logs``
forms each n! (x+i)^-(n+1) in logs.

ln Gamma_q, psi_q and psi_q^(n), n >= -1 with the same convention, have
one rule too (``_q_psi``).  With p = min(q, 1/q), n = -1 sums the product
of ln Gamma_p in log space and n >= 0 the series of psi_p^(n)
(Gasper-Rahman 1.10), into whose terms' exponents (n+1) ln|ln p| is folded
at n >= 1.  For q > 1 one row adds the (n+1)-th derivative of
(x - 1)(1 - x/2) ln p, from Gamma_q(x) = q^((x-1)(x-2)/2) Gamma_p(x).  One
finish checks that the value is finite, weighs one slop and adds one floor.

The geometric series (the q-gamma product, the psi_q series, the kernel
derivative series above t0 = 2 and cm_engine.QSeriesTarget) share one
block schedule, ``_blocks``: a first block of 256 terms (512 for the
kernel), then blocks that double up to 2**17 terms, the last one clamped to
``TruncationPolicy.max_terms``.  After each block the caller bounds the
rest of the series geometrically and stops once that tail is at most
eps * (1 + |partial sum|), the 1 in the units of the unscaled psi_q sum;
if the budget runs out first, ConvergenceError.

The kernel derivatives have a second regime at t <= t0, where the
exponential series cancels: the Bernoulli generating function of
t/(1 - e^(-t)), summed term by term from a table of its coefficients, with
a geometric tail from |B_2m|/(2m)! < 4/(2 pi)^(2m).  It stops once the tail
is at most eps * sum|term|, a relative rule; past the budget or the table,
ConvergenceError.  Each regime has one implementation, in the form that
suits its series: the Bernoulli series, at most 62 terms, is a scalar loop
over constants built once per (n, k) (``_kernel_bernoulli``), and the
exponential series, in blocks of 512 terms and more, a numpy kernel over
many t (``_kernel_exp_grid``).  ``kernel_derivative`` reads that kernel
at its one point, and the grid of one derivative at many t,
``_kernel_grid``, calls the loop point by point, so the scalar and the
grid give the same bits, or raise the same error.

A grid of ln Gamma, psi and psi^(n), orders n0..n0+K at many points, has
a kernel of its own, ``_psi_kernel``: the rule above in numpy arrays,
certified as the scalars are, whose bits are not the scalars' (their shift
sums in order where the scalars take fsum, and their series is summed
scaled at n >= 1).  A row's bits depend only on (n, y, eps), never on the
other orders or points of a call.

The layers above reach these functions by two routes.  cm_engine's
classical psi-family leaves read grids through ``_psi_grid``; the
q-family leaves, the bounds functions and the corpus probes and chains
that meet a point twice read scalar cells through ``_psi(n, q, policy)``,
the one map from (n, q) to an evaluator and its cells.  Within one
verification run both live in one table that ``_run_cells`` opens around
the run's claims.  The kernel's rows are keyed by (n, the points' bytes,
eps), and a grid computes only the rows it misses, in one kernel call.
The cells of each (evaluator, non-point arguments, policy) are keyed by
the point; a cell is evaluated by one call the first time it is asked for,
and later asks get the same Enclosure object, or a
DomainError/ConvergenceError of the same class and message raised again, so
results keep their bits.  policy=None and DEFAULT_POLICY share their cells.
The table is a ContextVar that the run resets when it ends; outside a run
the lookup just evaluates and keeps nothing.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
from dataclasses import dataclass, field, replace

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
_NORMAL_MIN = 2.0**-1022  # the least normal double

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
_TABLED = len(_BERNOULLI_2K)  # the asymptotic series stops after this many terms

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


# numpy's exp takes a path 10 to 100 times slower per element where its
# result falls below about 2^-1021, as q^(jy) does for most of a block at
# large x; the q-series and the kernel-derivative grid flush those results
# to 0 and bound them by 2^-1020
_FLUSHED = 2.0**-1020
_EXP_LOW = math.log(_FLUSHED)


def _exp_flushed(a, least, out=None):
    """exp(a), with each result below 2^-1020 set to 0; the other elements
    keep the bits of np.exp.  ``least`` is a lower bound on ``a``."""
    if least >= _EXP_LOW:
        return np.exp(a, out=out)
    low = a < _EXP_LOW
    out = np.exp(np.maximum(a, _EXP_LOW, out=out), out=out)
    out[low] = 0.0
    return out


def _exp_value(v: float) -> float:
    """exp(v); DomainError, not OverflowError, where it overflows double
    precision."""
    try:
        return math.exp(v)
    except OverflowError:
        raise DomainError(f"exp({v}) overflows double precision") from None


def _exp(log_val: float, enc: Enclosure, ops: int = 1) -> Enclosure:
    """Enclosure of exp(log_val), where log_val is known to within
    ``enc.abs_error``, the log's own rounding included, and the exp takes
    ``ops`` rounded operations relative to its result."""
    val = _exp_value(log_val)
    err = val * math.expm1(enc.abs_error) if enc.abs_error < 1.0 else math.inf
    # the absolute floor covers a subnormal or underflowed val, whose
    # rounding error is not relative to val
    err += _slop(ops, val) + 4.0 * math.ulp(0.0)
    return Enclosure(val, err, enc.terms_used, enc.warn_slow)


# ---------------------------------------------------------------------------
# classical gamma family
# ---------------------------------------------------------------------------


def digamma_series(x: float, policy: TruncationPolicy | None = None) -> Enclosure:
    """psi(x) from the defining series -gamma + sum(1/(n+1) - 1/(x+n)).

    Independent of the asymptotic route.  The tail is bracketed by integral
    comparison: for the convex, monotone summand f the tail sum over n >= N
    lies between int_N f + f(N)/2 and int_{N-1/2} f.  ``policy`` is
    accepted, as ``digamma`` accepts it, but not read.
    """
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
    for the 15 tabled B_2k and B_32, divided by (n-1)! when ``scaled`` (n >= 1).

    Built once per (n, scaled), so every term keeps its bits: at n <= 0 by
    one division, above in the operation order of a term-by-term sum, where
    unscaled (n-1)! must fit a float (n < 172), or this raises OverflowError.
    """
    table = _BERNOULLI_2K + (_BERNOULLI_32,)
    if n < 1:
        return tuple(b2k / math.perm(2 * k, 1 - n) for k, b2k in enumerate(table, start=1))
    fact_nm1 = 1 if scaled else math.factorial(n - 1)
    rising = 1.0  # (n)(n+1)...(n+2k-1) / (2k)!
    coeffs = []
    for k, b2k in enumerate(table, start=1):
        rising *= (n + 2 * k - 2) * (n + 2 * k - 1) / ((2 * k - 1) * (2 * k))
        coeffs.append(b2k * rising * fact_nm1)
    return tuple(coeffs)


def _polygamma_asymptotic(n: int, y: float, eps: float, scaled: bool = False):
    """(value, bound, terms) of the series of the module docstring for
    (-1)^(n+1) psi^(n)(y), n >= -1.  With ``scaled`` (n >= 1) the series
    and its bound are divided by (n-1)!/y^n, so nothing overflows where y^n
    does."""
    y2 = y * y
    if n < 0:
        lead, ypow = (y - 0.5) * math.log(y) - y + 0.5 * _LN_2PI, y
    elif n == 0:
        lead, ypow = 0.5 / y - math.log(y), y2
    elif scaled:
        lead, ypow = 1.0 + n / (2.0 * y), y2
    else:
        ypow = y**n
        lead = math.factorial(n - 1) / ypow + math.factorial(n) / (2.0 * y ** (n + 1))
        ypow *= y2
    size, corr, terms, prev = abs(lead), 0.0, 0, math.inf
    for c in _asymptotic_coeffs(n, scaled):
        term = c / ypow
        bound = abs(term)
        if terms == _TABLED or bound >= prev or bound <= eps * (size + abs(corr)):
            break
        corr += term
        prev = bound
        terms += 1
        ypow *= y2
    return lead + corr, bound, terms


def _psi_shifted(n: int, x: float, policy: TruncationPolicy | None) -> Enclosure:
    """psi^(n)(x), n >= -1, by the rule of the module docstring; checks x."""
    eps = (policy or DEFAULT_POLICY).eps
    _require_positive(x)
    threshold = 20.0 if n < 1 else 10.0 + n
    sign = 1.0 if n % 2 else -1.0  # (-1)^(n+1)
    recip, log, power = n == 0, n < 0, -(n + 1)
    parts = []
    y = float(x)
    try:
        while y < threshold:
            parts.append(1.0 / y if recip else math.log(y) if log else y**power)
            y += 1.0
    except OverflowError:  # y^-(n+1), and so n! times it, passes the largest double
        raise DomainError(f"psi^({n})({x}) is out of double-precision range") from None
    shift, shift_err = math.fsum(parts) if parts else 0.0, 0.0
    if n > 0 and parts:
        # the terms fall, so parts[-1] is the least; 170! is the largest
        # factorial that is a double
        if n <= 170 and parts[-1] >= _NORMAL_MIN:
            shift *= math.factorial(n)
        else:
            shift, shift_err = _shift_in_logs(n, x, len(parts))
    try:
        asym, tail, terms = _polygamma_asymptotic(n, y, eps)
        if n > 0 and not tail:  # y^(n+2k) overflowed and its term read 0
            raise OverflowError
    except OverflowError:  # at n >= 1, a power of y or (n-1)!
        asym, tail, terms = _polygamma_far(n, y, eps)
    # ln Gamma(x) = ln Gamma(y) - shift, psi^(n)(x) = psi^(n)(y) + sign shift;
    # sign multiplies each summand, so that psi's zero reads +0.0, not -0.0
    val = sign * asym + (-1.0 if log else sign) * shift
    if not math.isfinite(val):
        raise DomainError(f"psi^({n})({x}) is out of double-precision range")
    magnitude = abs(asym) + shift
    if log and x < 1.0:  # ln x is the one negative shift term
        magnitude -= 2.0 * math.log(x)
    terms += len(parts)
    # where the point moved, the rounding of x + i moves a term of order n
    # by up to n + 1 half-ulps, as ``_psi_kernel`` counts it
    ops = terms + 4 + ((n + 3) / 2 if parts else 0)
    return Enclosure(val, tail + shift_err + _slop(ops, magnitude), terms)


def _shift_in_logs(n: int, x: float, count: int):
    """(sum, bound) of ``_psi_shifted``'s shift n! sum_{i<count} (x+i)^-(n+1)
    where a term leaves the normal range or n! overflows: each term is
    exp(ln n! - (n+1) ln(x+i)), formed as ``_polygamma_far`` forms its unit."""
    log_fact = math.log(math.factorial(n))
    encs = []
    for i in range(count):
        log_y = (n + 1) * math.log(x + i)
        log_term = log_fact - log_y
        encs.append(_exp(log_term, Enclosure(log_term, _slop(4, log_fact + abs(log_y)), 0), 2))
    return math.fsum(e.value for e in encs), math.fsum(e.abs_error for e in encs)


def ln_gamma(x: float, policy: TruncationPolicy | None = None) -> Enclosure:
    """ln Gamma(x), x > 0."""
    return _psi_shifted(-1, x, policy)


def digamma(x: float, policy: TruncationPolicy | None = None) -> Enclosure:
    """psi(x), x > 0."""
    return _psi_shifted(0, x, policy)


def polygamma(n: int, x: float, policy: TruncationPolicy | None = None) -> Enclosure:
    """psi^(n)(x), n >= 1, x > 0; sign convention (-1)^(n+1) psi^(n)(x) > 0.

    Raises DomainError where x is so small, or n so large, that the value
    or n! leaves double precision.
    """
    _require_order(n)
    return _psi_shifted(n, x, policy)


@functools.cache
def _grid_rows(n0: int, K: int):
    """The constants of ``_psi_kernel``'s rows n = n0..n0+K, as columns of
    shape (K+1, 1), built once per (n0, K), as ``_asymptotic_coeffs`` builds
    its rows, so that a kernel call builds no table: n; the shift threshold;
    the signs of the series, (-1)^(n+1), and of the shift, the same but -1
    at n = -1; the shift's factor n! and the unit's (n-1)! (1 at n <= 0,
    nan where not a double); ln n! and ln (n-1)!; the least shift term
    scaled by n! directly (below it, or where n! is not a double, the terms
    go to logs; -inf at n <= 0); the slop's fixed operations and those of
    the rounded x + i; and the series coefficients, scaled at n >= 1, as
    (16, K+1, 1)."""
    ns = range(n0, n0 + K + 1)

    def fact(m):
        return 1.0 if m < 1 else float(math.factorial(m)) if m <= 170 else math.nan

    def col(values):
        return np.array(list(values), dtype=float)[:, None]

    rows = (
        col(ns),
        col(20.0 if m < 1 else 10.0 + m for m in ns),
        col(1.0 if m % 2 else -1.0 for m in ns),
        col(-1.0 if m == -1 else 1.0 if m % 2 else -1.0 for m in ns),
        col(fact(m) for m in ns),
        col(fact(m - 1) for m in ns),
        col(math.log(math.factorial(max(m, 0))) for m in ns),
        col(math.log(math.factorial(max(m - 1, 0))) for m in ns),
        col(-math.inf if m < 1 else _NORMAL_MIN if m <= 170 else math.inf for m in ns),
        col(8.0 if m > 0 else 4.0 for m in ns),
        col((m + 3.0) / 2.0 for m in ns),
        np.array([_asymptotic_coeffs(m, m > 0) for m in ns]).T[:, :, None],
    )
    for a in rows:  # shared by every call: never written
        a.setflags(write=False)
    return rows


def _power(a, e):
    """a^e with both operands spread to their common shape, so that numpy
    runs one contiguous loop whatever that shape is: where e is a scalar in
    its inner loop, numpy squares or takes reciprocals by paths that round
    otherwise than its general loop, and so it does on a one-element
    operation, which is padded to two elements."""
    shape = np.broadcast(a, e).shape
    size = math.prod(shape)
    base, out = np.ones((2, 2)) if size < 2 else np.empty((2, size))
    base[:size].reshape(shape)[...] = a
    out[:size].reshape(shape)[...] = e
    return np.power(base, out, out=out)[:size].reshape(shape)


def _psi_kernel(n0: int, K: int, ys: np.ndarray, eps: float):
    """(values, errors, terms, failed), each of shape (K+1, P): psi^(n)(y)
    for n = n0..n0+K, n0 >= -1, at every y of ``ys``, by ``_psi_shifted``'s
    rule in array form; ``failed`` marks the cells where the scalar raises
    DomainError (y not positive and finite, or a value out of double range),
    and their value and error are nan.

    Each point moves up by count = ceil(threshold - y) steps.  The shift
    terms ln, 1/ and ^-(n+1) of x + i, i < count, are summed in order, and
    n! scales their sum, or, where n! is not a double or the least term is
    not normal, each n! (x+i)^-(n+1) is formed in logs, as
    ``_shift_in_logs`` forms it.  At n >= 1 the series is summed scaled,
    as ``_polygamma_far`` sums it, times unit = (n-1)!/y^n, which is formed
    in logs where it is not a normal double.  The stop rule, the first
    omitted term as the tail bound and the slop over |series| + sum |shift
    terms| (ln x counted twice where it is negative) are the scalar's.  The
    slop also counts the roundings of unit and of its product (4 more), and,
    where the point moved, the rounding of x + i, which moves a term of
    order n by up to n + 1 half-ulps ((n + 3)/2 more).

    Every operation acts cell by cell, with constants of n alone, and the
    sums run in order along their own axis, so a row's bits depend only on
    (n, y, eps): not on the other orders or points of the call.
    """
    (n, threshold, sign, shift_sign, fact, fact1, lfact, lfact1, least_min, ops0, arg_ops,
     coeffs) = _grid_rows(n0, K)
    ulp0 = math.ulp(0.0)
    with np.errstate(all="ignore"):
        outside = ~(ys > 0.0) | (ys == math.inf)
        x = np.where(outside, 1.0, ys)
        count = np.maximum(np.ceil(threshold - x), 0.0)
        moved = count > 0.0
        y = x + count
        rows, cols = np.arange(K + 1)[:, None], np.arange(len(ys))
        # the shift: each cell's terms summed in order up to its last one
        shift, shift_err = np.zeros_like(y), np.zeros_like(y)
        steps = int(count.max(initial=0.0))
        if steps:
            xi = x + np.arange(steps, dtype=float)[:, None]
            parts = _power(xi, -(n[:, :, None] + 1.0))
            if n0 == -1:
                parts[0] = np.log(xi)
            last = rows, np.maximum(count - 1.0, 0.0).astype(np.intp), cols
            shift = np.where(moved, np.add.accumulate(parts, axis=1)[last] * fact, 0.0)
            logs = moved & (parts[last] < least_min)
            if logs.any():
                log_y = (n[:, :, None] + 1.0) * np.log(xi)
                term = np.exp(lfact[:, :, None] - log_y)
                err = term * np.expm1(_slop(4, lfact[:, :, None] + np.abs(log_y)))
                err += _slop(2, term) + 4.0 * ulp0
                shift = np.where(logs, np.add.accumulate(term, axis=1)[last], shift)
                shift_err = np.where(logs, np.add.accumulate(err, axis=1)[last], 0.0)
        # the series at y: term k over y^(2k+2), or y^(2k+1) at n = -1
        ypow = np.empty((len(coeffs),) + y.shape)
        ypow[:] = y * y
        lead = 1.0 + n / (2.0 * y)
        if n0 <= 0 < n0 + K + 1:
            lead[-n0] = 0.5 / y[-n0] - np.log(y[-n0])
        if n0 == -1:
            lead[0] = (y[0] - 0.5) * np.log(y[0]) - y[0] + 0.5 * _LN_2PI
            ypow[0, 0] = y[0]
        t = np.zeros((len(coeffs) + 1,) + y.shape)
        np.divide(coeffs, np.multiply.accumulate(ypow, out=ypow), out=t[1:])
        before = np.add.accumulate(t[:-1])  # the sum of the terms before term k
        bound = np.abs(t[1:])
        stop = bound <= eps * (np.abs(lead) + np.abs(before))
        stop[1:] |= bound[1:] >= bound[:-1]
        stop[_TABLED] = True
        terms = stop.argmax(axis=0)
        series = lead + before[terms, rows, cols]
        bound = bound[terms, rows, cols]
        # unit = (n-1)!/y^n at n >= 1, 1 below
        unit = fact1 / _power(y, np.maximum(n, 0.0))
        unit_err = np.zeros_like(y)
        far = ~(unit >= _NORMAL_MIN)
        if far.any():
            log_yn = n * np.log(y)
            by_logs = np.exp(lfact1 - log_yn)
            unit = np.where(far, by_logs, unit)
            unit_err = by_logs * np.expm1(_slop(4, lfact1 + log_yn)) + _slop(2, by_logs)
            unit_err = np.where(far, unit_err + 4.0 * ulp0, 0.0)
        asym = unit * series
        val = sign * asym + shift_sign * shift
        magnitude = np.abs(asym) + shift
        if n0 == -1:
            magnitude[0] -= 2.0 * np.minimum(np.log(x), 0.0)
        terms = terms + count
        ops = terms + ops0 + np.where(moved, arg_ops, 0.0)
        err = unit * bound + unit_err * np.abs(series) + shift_err + _slop(ops, magnitude)
        err += 4.0 * ulp0
        failed = outside | ~(np.isfinite(val) & np.isfinite(err))
    return (
        np.where(failed, math.nan, val), np.where(failed, math.nan, err),
        np.where(failed, 0, terms).astype(np.int64), failed,
    )


def _polygamma_far(n: int, y: float, eps: float):
    """_polygamma_asymptotic's (value, bound, terms) where a power of y or
    (n-1)! overflows: the scaled series times unit = (n-1)!/y^n, formed as
    exp(log (n-1)! - n log y).  The bound leaves out the series' rounding,
    which the caller's slop counts."""
    s, tail, terms = _polygamma_asymptotic(n, y, eps, scaled=True)
    log_fact, log_yn = math.log(math.factorial(n - 1)), n * math.log(y)
    log_unit = log_fact - log_yn
    unit = _exp(log_unit, Enclosure(log_unit, _slop(4, log_fact + log_yn), 0), 2)
    # the smallest subnormal covers the rounding where unit underflows
    return unit.value * s, unit.abs_error * s + unit.value * tail + 4.0 * math.ulp(0.0), terms


def polygamma_series(n: int, x: float, policy: TruncationPolicy | None = None) -> Enclosure:
    """psi^(n)(x) from n! * sum 1/(x+k)^(n+1), integral-comparison tail.

    The summand is positive, decreasing and convex, so the tail over k >= K
    lies between int_K f + f(K)/2 and int_{K-1/2} f, both in closed form;
    in particular it never exceeds (1/n)(x+K-1)^(-n).  ``policy`` is
    accepted, as ``polygamma`` accepts it, but not read.

    This cross-check route raises DomainError where n! (n >= 171) or the
    value leaves double precision.
    """
    _require_order(n)
    _require_positive(x)
    if n > 170:
        raise DomainError(f"polygamma_series: n! overflows double precision at n={n}")
    K = 3000
    k = np.arange(K, dtype=float)
    with np.errstate(over="ignore"):
        partial = float(((x + k) ** (-(n + 1))).sum())
    lo = (x + K) ** (-n) / n + 0.5 * (x + K) ** (-(n + 1))
    hi = (x + K - 0.5) ** (-n) / n
    tail_mid = 0.5 * (lo + hi)
    tail_err = 0.5 * (hi - lo) + _slop(1, hi)
    mag = math.factorial(n) * (partial + tail_mid)
    err = math.factorial(n) * tail_err
    if not math.isfinite(mag):
        raise DomainError(f"polygamma_series({n}, {x}) overflows double precision")
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

    From n = floor((ln(2^-1020) - 1)/ln q) + 1 on, the exponent (n+1) ln q
    is surely below ln(2^-1020) - 1, where numpy's exp takes its slow path:
    those terms are left out without an exp, each under the floor
    2 * 2^-1020 |q^(x-1) - 1| / (1 - q^(n'+min(x,1))), n' the first one
    left out, which the returned tail adds.  The terms before the cut keep
    the bits of np.exp.
    """
    lnq = math.log(q)
    const = (1.0 - x) * math.log1p(-q)
    shift = math.expm1((x - 1.0) * lnq)  # q^(x-1) - 1
    diff = q * abs(shift)  # |q^x - q|
    m = min(x, 1.0)
    cut = math.floor((_EXP_LOW - 1.0) / lnq) + 1  # the first term left out
    total = under = 0.0
    for n0, hi in _blocks(policy, "q-gamma product (x={}, q={})", x, q):
        kept = min(hi, max(n0, cut))
        n = np.arange(n0, kept, dtype=float)
        a = np.exp((n + 1.0) * lnq)  # q^(n+1)
        total += float(np.log1p(a * shift / -np.expm1((n + x) * lnq)).sum())
        if kept < hi:  # |log1p(y)| <= 2 |y| for |y| <= 1/2
            under += (hi - kept) * 2.0 * _FLUSHED * abs(shift) / -math.expm1((kept + m) * lnq)
        qN = math.exp(hi * lnq)
        denom = (1.0 - math.exp((hi + m) * lnq)) * (1.0 - q)
        tail = diff * qN / denom if denom > 0.0 else math.inf
        if under:
            tail += under
        val = const + total
        if tail <= policy.eps * (1.0 + abs(val)):
            return val, tail, hi, abs(const) + abs(total)


def q_ln_gamma(x: float, q, policy: TruncationPolicy | None = None) -> Enclosure:
    """log Gamma_q(x) with certified error; handles both q branches."""
    return _q_psi(-1, x, q, policy)


def q_gamma(x: float, q, policy: TruncationPolicy | None = None) -> Enclosure:
    """Gamma_q(x) for x > 0, q > 0, q != 1 (q = 1 callers use ln_gamma)."""
    enc = q_ln_gamma(x, q, policy)
    return _exp(enc.value, enc)


def _q_psi_sum(x: float, q: float, n: int, policy: TruncationPolicy):
    """sum_{k>=1} k^n q^(kx) / (1 - q^k) with a geometric tail certificate,
    times |ln q|^(n+1) at n >= 1, where (n+1) ln|ln q| rides in each term's
    exponent, so that no power of ln q overflows or underflows on its own.

    Successive-term ratio is at most ((K+1)/K)^n * q^x once K terms are
    summed, which drops below 1 past the hump k ~ n/(x ln(1/q)).

    The terms peak there, and a block holds at most _BLOCK_MAX of them, so
    ln of a block sum is at most
    n (ln n - ln x - 1) + ln|ln q| - ln(1 - q) + ln(_BLOCK_MAX), formed
    in logs so that it neither overflows nor divides by zero; at n = 0 it
    is below 50.  The exponents k x ln q overflow only where
    x ln(1/q) max_terms passes the largest double.  Only where one of the
    two can happen is numpy's overflow warning silenced; an infinite sum
    becomes DomainError in the caller, and an exponent of -inf a term of 0.

    A term whose exp or quotient is subnormal or 0 loses up to ulp(0)/2 in
    each, which is not relative to the term: the returned tail adds the
    floor 2 ulp(0)/(1 - q) for every summed term and for the last one in
    the geometric tail.  The exponent of term k is at most k x ln q +
    n ln hi (+ (n+1) ln|ln q| at n >= 1) in a block that ends at hi; past
    the k where that bound falls below ln(2^-1020) - 1, the block's terms
    are below 2^-1020/(1 - q) and are flushed to 0 without an exp, which
    numpy takes 10 to 100 times slower per element there.  From the first
    block that flushes on, the floor adds 2^-1020/(1 - q) a term, and the
    last term of a flushed block, in the tail, is 0 under that floor.  The
    terms before the cut keep the bits of np.exp.
    """
    lnq = math.log(q)
    rate = x * lnq
    under = 2.0 * math.ulp(0.0) / (1.0 - q)
    log_lnq = math.log(-lnq)
    lift = (n + 1) * log_lnq if n else 0.0
    low = _EXP_LOW - 1.0 - lift  # term k is flushed where k x ln q + n ln hi < low
    # the stop test's floor, 1 in the unscaled sum's units, kept normal
    floor = math.exp(min(max(lift, -700.0), 700.0))
    may_overflow = x * -lnq * policy.max_terms > 1e308 or (
        n
        and n * (math.log(n) - math.log(x) - 1.0)
        + log_lnq
        - math.log1p(-q)
        + math.log(_BLOCK_MAX)
        > 700.0
    )
    total = 0.0
    with np.errstate(over="ignore") if may_overflow else contextlib.nullcontext():
        for k0, hi in _blocks(policy, "q-series (x={}, q={}, order={})", x, q, n):
            kept = hi
            if hi * rate < low and rate:  # a term may be flushed
                cut = (low - n * math.log(hi)) / rate
                if cut < hi:  # the terms past cut are flushed
                    kept = max(math.floor(cut), k0)
                    under = (2.0 * math.ulp(0.0) + _FLUSHED) / (1.0 - q)
            k = np.arange(k0 + 1, kept + 1, dtype=float)
            logs = k * rate
            if n:
                logs += n * np.log(k) + lift
            t = np.exp(logs, out=logs)  # in place: a large block allocates no more
            t /= -np.expm1(k * lnq)
            total += float(t.sum())
            try:
                ratio = ((hi + 1.0) / hi) ** n * math.exp(rate)
            except OverflowError:  # (1 + 1/hi)^n: far short of the hump
                continue
            if ratio < 1.0:
                last = float(t[-1]) if kept == hi else 0.0
                tail = (last + under) * ratio / (1.0 - ratio)
                if tail <= policy.eps * (floor + total):
                    return total, tail + hi * under, hi


def _q_psi(n: int, x: float, q, policy: TruncationPolicy | None) -> Enclosure:
    """psi_q^(n)(x), n >= -1, by the q rule of the module docstring; checks
    x and q, not n.  Beyond one rounding per term, the series' slop counts
    (n+1)/2 for the rounded ln p, and twice the size of the exponents: the
    exponent k x ln p + n ln k (+ (n+1) ln|ln p| at n >= 1) of term k is
    off by about eps times its summands, which exp makes a relative error
    of the term.  Weighted by the terms, those summands average at most
    m x |ln p| + n ln m + (n+1) |ln|ln p||, as ln is concave, where m
    bounds the mean of k (``_mean_k``).
    """
    _require_positive(x)
    qv = _as_q(q)
    p = 1.0 / qv if qv > 1.0 else qv
    policy = policy or DEFAULT_POLICY
    lnp = math.log(p)
    if n < 0:
        val, err, terms, magnitude = _q_ln_gamma_sub1(x, p, policy)
        ops = terms
    else:
        s, err, terms = _q_psi_sum(x, p, n, policy)
        ops = terms + (n + 1) / 2
        if s:
            c = x * -lnp
            mean_k = _mean_k(n, c, terms)
            ops += 2.0 * (mean_k * c + n * math.log(mean_k))
            if n:
                ops += 2.0 * (n + 1) * abs(math.log(-lnp))
        if n == 0:
            val = -math.log1p(-p) + lnp * s
            # the two summands cancel near the zero x0 ~ 1.46: base the slop on them
            magnitude = -math.log1p(-p) + abs(lnp * s)
            err *= abs(lnp)
        else:
            val, magnitude = (s if n % 2 else -s), s  # the sign of (ln p)^(n+1)
    if qv > 1.0 and n < 2:
        # the (n+1)-th derivative of (x - 1)(1 - x/2) ln p
        row = ((x - 1.0) * (1.0 - 0.5 * x), 1.5 - x, -1.0)[n + 1] * lnp
        val = row + val
        magnitude += abs(row)
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
    It is written in u = b/a - 1 and t = ln(b/a), a <= b, with ``log1p``
    and ``expm1``, so that nothing cancels as b approaches a.  Where b/a or
    (b/a)^r overflows, t is ln b - ln a and ln|expm1| is taken in logs.
    Raises DomainError where neither form gives a finite mean.
    """
    if isinstance(r, LogMeanOrder):
        r = r.r
    _require_positive(a, "a")
    _require_positive(b, "b")
    a, b = min(a, b), max(a, b)
    if a == b:
        return a
    u = (b - a) / a
    t = math.log1p(u)
    try:
        if r == 0.0:
            value = a * u / t
        elif r == 1.0:
            value = a * math.exp((1.0 + u) * t / u - 1.0)
        else:
            value = a * (math.expm1(r * t) / (r * math.expm1(t))) ** (1.0 / (r - 1.0))
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        value = _log_mean_in_logs(r, a, b, u, t)
    if not math.isfinite(value):
        raise DomainError(f"L_{r}({a}, {b}) overflows double precision")
    # a mean lies in [a, b]; rounding may step past an end where b - a is
    # a few ulps
    return min(max(value, a), b)


def _log_mean_in_logs(r, a, b, u, t):
    """L_r(a, b) where its direct form overflows, as b/a (u = inf) or
    (b/a)^r does.  With v(z) = ln(1 - e^-z) and
    c = v(|r| t) - v(t) - ln|r|, L_r is b e^(c/(r - 1)) for r > 0 and
    e^((ln b - r ln a - c)/(1 - r)) for r < 0, neither of which overflows."""
    if math.isinf(u):
        t = math.log(b) - math.log(a)
    try:
        if r == 0.0:
            return (b - a) / t
        if r == 1.0:
            return b * math.exp(t / u - 1.0)
        c = math.log(math.expm1(-abs(r) * t) / math.expm1(-t)) - math.log(abs(r))
        if r > 0.0:
            return b * math.exp(c / (r - 1.0))
        return math.exp((math.log(b) - r * math.log(a) - c) / (1.0 - r))
    except (OverflowError, ValueError, ZeroDivisionError):
        return math.inf


def kernel_h(t: float) -> float:
    """t / (1 - e^(-t)) for t > 0 (tends to 1 as t -> 0+)."""
    _require_positive(t, "t")
    return t / (-math.expm1(-t))


_KERNEL_ORDER_CAP = 20
# kernel_derivative sums the Bernoulli series at t <= t0 and the exponential
# series above it
_KERNEL_T0 = 2.0
_KERNEL_SERIES = "kernel derivative series (n={}, k={}, t={})"


def _kernel_order(n, k) -> None:
    """kernel_derivative's DomainError for an n or k it does not take."""
    if not isinstance(n, int) or n < 1 or not isinstance(k, int) or k < 0:
        raise DomainError(f"need integer n >= 1 and k >= 0, got n={n!r}, k={k!r}")
    if k > _KERNEL_ORDER_CAP:
        raise DomainError(f"derivative order {k} exceeds cap {_KERNEL_ORDER_CAP}")


def _kernel_range_error(n: int, k: int, t: float) -> DomainError:
    return DomainError(f"d^{k}/dt^{k} t^{n}/(1 - e^-t) at t={t} is out of double-precision range")


def kernel_derivative(
    n: int, k: int, t: float, policy: TruncationPolicy | None = None
) -> Enclosure:
    """d^k/dt^k of t^n / (1 - e^(-t)) by term-wise differentiation, in two
    regimes split at t0 = 2.

    At t <= t0 it differentiates t^(n-1) sum_j c_j t^j, the Bernoulli
    generating function, and stops once the tail is at most eps * sum|term|,
    a relative rule (``_kernel_bernoulli``).  Above t0 it expands
    1/(1-e^(-t)) = sum_m e^(-mt), whose alternating terms would cancel as
    t -> 0, with the block schedule and stop rule of the module docstring,
    and reads that regime's array kernel at its one point
    (``_kernel_exp_grid``).  Both regimes are the ones ``_kernel_grid``
    reads, so the scalar and the grid give the same bits.  A value or bound
    that leaves double precision raises DomainError.
    """
    policy = policy or DEFAULT_POLICY
    _kernel_order(n, k)
    _require_positive(t, "t")
    if t <= _KERNEL_T0:
        return _kernel_bernoulli(n, k, t, policy)
    (value,), (error,), (terms,), (failure,) = _kernel_exp_grid(n, k, np.array([float(t)]), policy)
    if failure is not None:
        raise failure
    return Enclosure(float(value), float(error), int(terms))


@functools.cache
def _bernoulli_terms(n: int, k: int) -> tuple:
    """The constants of ``_kernel_bernoulli``'s terms, built once per
    (n, k), so that a call forms no perm: per term i, its factor
    c_j perm(p, k) and power p - k - e (0.0 and 0 where p < k); and for the
    tail test after it, on b_p of p = n-1+2i, the factor 4 perm(p, k), the
    power p - k - e and the divisor (2 pi)^(2i) of b_p, and the numerator
    and denominator of its ratio (nan, and so no test, at i = 0, where b_p
    does not bound c_1, and where p < k).  Each is the float the loop would
    form from the same operands, so every term keeps its bits."""
    e = max(n - 1 - k, 0)
    rows = []
    for i, c in enumerate(_KERNEL_C):
        p = n - 1 + (i if i < 2 else 2 * i - 2)
        term = (c * math.perm(p, k), p - k - e) if p >= k else (0.0, 0)
        p = n - 1 + 2 * i
        test = (math.nan, 0, 1.0, math.nan, 1.0)
        if i and p >= k:
            test = (4.0 * math.perm(p, k), p - k - e, math.tau ** (2 * i),
                    float((p + 2) * (p + 1)), float((p + 2 - k) * (p + 1 - k)))
        rows.append(term + test)
    return tuple(rows)


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

    A scalar loop over ``_bernoulli_terms``, which stops after 6 to 25 of
    its at most 62 terms; ``_kernel_grid`` calls it point by point.  Past
    the budget or the table: ConvergenceError; where the value or its bound
    leaves double precision: DomainError.
    """
    e = max(n - 1 - k, 0)
    r2 = (t / math.tau) ** 2
    total = magnitude = 0.0
    try:
        for i, (coef, power, bfac, bpow, bdiv, num, den) in zip(
            range(policy.max_terms), _bernoulli_terms(n, k)
        ):
            term = coef * t**power
            total += term
            magnitude += abs(term)
            ratio = r2 * num / den
            if ratio < 1.0:
                tail = bfac * t**bpow / bdiv / (1.0 - ratio)
                if tail <= policy.eps * magnitude:
                    mant, expo, ops = _power_parts(t, e)
                    val = math.ldexp(total * mant, expo)
                    err = math.ldexp(tail * mant, expo) + _slop(
                        i + 4 + ops, math.ldexp(magnitude * mant, expo)
                    )
                    if not (math.isfinite(val) and math.isfinite(err)):
                        raise _kernel_range_error(n, k, t)
                    return Enclosure(val, err + 4.0 * math.ulp(0.0), i + 1)
    except OverflowError:  # a perm, power or ldexp passed the largest double
        raise _kernel_range_error(n, k, t) from None
    what = f"{_KERNEL_SERIES.format(n, k, t)} did not certify within"
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


def _sum_j(a: np.ndarray) -> np.ndarray:
    """The sum of ``a`` over its first axis, added in order for every
    column, so that a column's bits do not depend on how many columns there
    are (``sum`` adds one column pairwise, several row by row)."""
    return np.add.accumulate(a, axis=0)[-1]


def _kernel_exp_grid(n: int, k: int, t: np.ndarray, policy: TruncationPolicy):
    """kernel_derivative above t0 at every t of ``t`` (all finite): (values,
    errors, terms, failures), each point stopping at its own block.

    From 1/(1-e^(-t)) = sum_m e^(-mt), each t^n e^(-mt) differentiates in
    closed form by the product rule: m >= 1 adds
    sum_j (-m)^(k-j) c_j e^(-mt), c_j = C(k, j) n!/(n-j)! t^(n-j),
    j <= min(k, n), and m = 0 adds d^k/dt^k t^n.  The tail over m is
    geometric with ratio at most e^(-t/2) once m >= 2k/t: after a block
    that ends at hi it is at most pb e^(-(hi+1)t)/(1 - ratio), with
    pb = sum_j c_j (hi + 1)^(k-j) and ratio = e^(-t) ((hi+2)/(hi+1))^k.
    ``failures[p]`` is the ConvergenceError of a point still open when the
    budget is spent, the DomainError of one whose value or bound leaves
    double precision, or None; a failed point's value and error are nan.

    A block forms e^(-mt) once per (point, m), flushed to 0 below 2^-1020
    (``_exp_flushed``), and its moments mu_i = sum_m m^i e^(-mt), i <= k,
    so that it adds sum_j (-1)^(k-j) c_j mu_(k-j) to the value and
    sum_j c_j mu_(k-j) to sum |terms|, whose rounding (k products,
    log2(hi) + 1 for a moment and jmax + 1 for the sum over j) the slop
    hi eps sum |terms| covers, hi >= 512 being at least 2 k + log2(hi) + 2.
    A flushed exp drops less than 2^-1020 of each c_j m^(k-j), so the block
    adds 2^-1020 (hi - m0) pb to the error.  Each moment sums one point's
    row and each sum over j runs in order (``_sum_j``), so a cell's bits
    depend only on (n, k, t, policy), not on the other points."""
    P = len(t)
    jmax = min(k, n)
    try:
        lead = float(math.perm(n, k)) if k <= n else 0.0
        facs = [float(math.comb(k, j) * math.perm(n, j)) for j in range(jmax + 1)]
    except OverflowError:  # so does t^(n-j) at t > 2: every point fails
        lead, facs = math.inf, [math.inf] * (jmax + 1)
    values, errors, terms = np.full(P, math.nan), np.full(P, math.nan), np.zeros(P, dtype=np.int64)
    with np.errstate(all="ignore"):
        j = np.arange(jmax + 1)
        powers = _power(t, n - j[:, None])  # row j: t^(n-j), and t^(n-k) at j = k <= n
        coefs = np.array(facs)[:, None] * powers
        signs = ((-1.0) ** (k - j))[:, None]
        total = lead * powers[k] if k <= n else np.zeros(P)
        abs_total, flushed = np.abs(total), np.zeros(P)
        # where a power of t overflows, the cell stays nan and fails below
        live = np.flatnonzero(np.isfinite(_sum_j(coefs) + total))
        try:
            for m0, hi in _blocks(policy, _KERNEL_SERIES, n, k, "-", first=512):
                m = np.arange(m0 + 1, hi + 1, dtype=float)
                tl, cl = t[live], coefs[:, live]
                w = _exp_flushed(np.multiply.outer(tl, -m), -hi * tl.max(initial=0.0))
                moments = np.empty((k + 1, len(live)))
                for i in range(k + 1):
                    if i:
                        w *= m
                    moments[i] = w.sum(axis=1)
                parts = cl * moments[k - j]
                total[live] += _sum_j(signs * parts)
                abs_total[live] += _sum_j(parts)
                ratio = np.exp(-tl) * ((hi + 2.0) / (hi + 1.0)) ** k
                pb = _sum_j(cl * ((hi + 1.0) ** (k - j))[:, None])
                flushed[live] += _FLUSHED * (hi - m0) * pb
                tail = pb * np.exp(-(hi + 1.0) * tl) / (1.0 - ratio)
                done = (ratio < 1.0) & (tail <= policy.eps * (1.0 + np.abs(total[live])))
                at = live[done]
                values[at], terms[at] = total[at], hi
                errors[at] = tail[done] + _slop(hi, abs_total[at]) + flushed[at]
                live = live[~done]
                if not live.size:
                    break
        except ConvergenceError:  # the points still live did not certify
            pass
    tp = t.tolist()
    failures = [None] * P
    for p in live.tolist():
        failures[p] = ConvergenceError(
            f"{_KERNEL_SERIES.format(n, k, tp[p])} did not certify within {policy.max_terms} terms")
    for p in np.flatnonzero(~(np.isfinite(values) & np.isfinite(errors))).tolist():
        if failures[p] is None:
            failures[p] = _kernel_range_error(n, k, tp[p])
        values[p] = errors[p] = math.nan
        terms[p] = 0
    return values, errors, terms, failures


def _kernel_grid(n: int, k: int, ts: np.ndarray, policy: TruncationPolicy | None):
    """``kernel_derivative(n, k, t)`` at every t of ``ts``: (values, errors,
    terms) of shape (P,), and per point the DomainError/ConvergenceError
    the scalar raises there, or None; a failed point's value and error are
    nan.  An n or k the scalar does not take raises its DomainError.

    Each regime has one implementation, the one the scalar reads: the
    points at t <= t0 take ``_kernel_bernoulli``, one call a point, and
    those above t0 ``_kernel_exp_grid``, in one call.  So each cell has the
    bits, or the error, of ``kernel_derivative`` at its t, and depends only
    on (n, k, t, policy), not on the other points."""
    policy = policy or DEFAULT_POLICY
    _kernel_order(n, k)
    P = len(ts)
    values, errors, terms = np.full(P, math.nan), np.full(P, math.nan), np.zeros(P, dtype=np.int64)
    failures = [None] * P
    above = (ts > _KERNEL_T0) & (ts < math.inf)
    idx = np.flatnonzero(above)
    if idx.size:
        values[idx], errors[idx], terms[idx], exp_failures = _kernel_exp_grid(n, k, ts[idx], policy)
        for p, failure in zip(idx.tolist(), exp_failures):
            failures[p] = failure
    idx = np.flatnonzero(~above)
    for p, t in zip(idx.tolist(), ts[idx].tolist()):
        try:
            _require_positive(t, "t")
            enc = _kernel_bernoulli(n, k, t, policy)
        except (DomainError, ConvergenceError) as exc:
            failures[p] = exc
            continue
        values[p], errors[p], terms[p] = enc.value, enc.abs_error, enc.terms_used
    return values, errors, terms, failures


def unit_ball_volume(n: int, policy: TruncationPolicy | None = None) -> Enclosure:
    """Volume of the n-dimensional Euclidean unit ball, pi^(n/2)/Gamma(1+n/2)."""
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"dimension must be a nonnegative integer, got {n!r}")
    enc = ln_gamma(1.0 + 0.5 * n, policy)
    head = 0.5 * n * math.log(math.pi)
    # the log and the product in head, and the difference, round in units
    # of the summands
    log_err = enc.abs_error + _slop(2, abs(head) + abs(enc.value))
    return _exp(head - enc.value, replace(enc, abs_error=log_err))


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


def _psi(n: int, q: float | None, policy):
    """The function y -> Enclosure of psi^(n)(y), n >= -1, where psi^(0) = psi
    and psi^(-1) = ln Gamma, or of psi_q^(n)(y) when q is given, one scalar
    evaluator call per cell.  Each call goes through the run's cell table,
    so inside a run a cell is evaluated once, also where two grids of a
    q-leaf or a grid and a scalar call share it; outside a run nothing is
    kept.  The classical leaves' grids read ``_psi_grid`` instead.  A
    DomainError/ConvergenceError is stored as its class and arguments, and
    each later read raises a fresh instance, so the table holds no
    traceback and keeps no caller's frame alive."""
    if q is None:
        fn, tail = (ln_gamma, digamma, polygamma)[min(n, 1) + 1], ()
    else:
        fn, tail = (q_ln_gamma, q_digamma, q_polygamma)[min(n, 1) + 1], (q,)
    head = (n,) if n > 0 else ()
    table = _RUN_CELLS.get()
    if table is None:
        return lambda y: fn(*head, y, *tail, policy)
    # one dict per (fn, context, policy), keyed by the point: smaller and
    # faster to probe than a key of all the arguments.  The default policy
    # keys as None, by identity, so that no lookup hashes it.
    cells = table.setdefault((fn, head + tail, None if policy is DEFAULT_POLICY else policy), {})

    def read(y):
        cell = cells.get(y)
        if cell is None:
            try:
                cell = fn(*head, y, *tail, policy)
            except (DomainError, ConvergenceError) as exc:
                cells[y] = (type(exc), exc.args)
                raise
            cells[y] = cell
        elif type(cell) is tuple:
            err_type, err_args = cell
            raise err_type(*err_args)
        return cell

    return read


def _psi_grid(n0: int, K: int, ys: np.ndarray, policy):
    """Orders n0..n0+K of psi^(n)(y), n0 >= -1, at every y of ``ys`` by
    ``_psi_kernel``: (values, errors, terms) of shape (K+1, P), and per
    point the DomainError of its first failing order, or None.

    Inside a run the rows live in the run's table, keyed by (n, the bytes
    of ``ys``, eps): a grid computes only the orders it misses, in one
    kernel call over the range from the first to the last of them, and a
    row's bits do not depend on that range, so every grid over the same
    points, and a one-point jet, reads the same bits.  Outside a run
    nothing is kept."""
    eps = (policy or DEFAULT_POLICY).eps
    table = _RUN_CELLS.get()
    if table is None:
        values, errors, terms, failed = _psi_kernel(n0, K, ys, eps)
    else:
        key = ys.tobytes()
        rows = [table.get((_psi_kernel, n, key, eps)) for n in range(n0, n0 + K + 1)]
        missing = [i for i, row in enumerate(rows) if row is None]
        if missing:
            lo = missing[0]
            got = _psi_kernel(n0 + lo, missing[-1] - lo, ys, eps)
            for i in missing:
                rows[i] = table[_psi_kernel, n0 + i, key, eps] = tuple(a[i - lo] for a in got)
        values, errors, terms, failed = (np.array(a) for a in zip(*rows))
    failures = [None] * len(ys)
    for p in np.flatnonzero(failed.any(axis=0)).tolist():
        y = float(ys[p])
        failures[p] = DomainError(
            f"psi^({n0 + int(failed[:, p].argmax())})({y}) is out of double-precision range"
            if 0.0 < y < math.inf else f"x must be positive and finite, got {y!r}"
        )
    return values, errors, terms, failures
