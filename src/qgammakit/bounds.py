"""Closed-form constants, bounding functions and auxiliary functions.

Every two-sided bound is computable as a (lower, upper) pair for comparison
against the exact ratio; all ratio/bound arithmetic is done in log space and
exponentiated last, so large arguments and dimensions stay in range; a
result past double precision raises DomainError, not OverflowError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, UsageError
from . import specfun
from .specfun import (
    EULER_GAMMA,
    TruncationPolicy,
    _exp_value,
    log_mean,
)

__all__ = [
    "RATIO_BOUND_METHODS",
    "BoundPair",
    "PolyProductSpec",
    "PolyConstants",
    "BallRatioBounds",
    "ChainTriple",
    "TwoSides",
    "alzer_u",
    "alzer_v",
    "gamma_ratio",
    "ratio_bounds",
    "g_q_function",
    "keckic_vasic_bounds",
    "ball_ratio_bounds",
    "auxiliary_function",
    "poly_product",
    "poly_constants",
    "w_qn",
    "lemma10_lhs_rhs",
    "a_poly",
    "a_poly_root",
    "a_poly_sign_changes",
    "psi_pair_inequality",
    "cor51_expr",
    "cor5_inequality",
]

RATIO_BOUND_METHODS = (
    "alzer_uv",
    "im_midpoint",
    "psi_average",
    "merkle",
    "kershaw",
    "logmean_refined",
    "geomean_refined",
)

_CLASSICAL_ONLY = ("merkle", "kershaw", "logmean_refined", "geomean_refined")


@dataclass(frozen=True)
class BoundPair:
    lower: float
    upper: float
    method: str = ""

    def __post_init__(self):
        if (
            math.isfinite(self.lower)
            and math.isfinite(self.upper)
            and self.lower > self.upper
        ):
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")

    def contains(self, value: float, tol: float = 0.0) -> bool:
        return self.lower - tol <= value <= self.upper + tol


@dataclass(frozen=True)
class PolyProductSpec:
    """Index tuple p > m >= n > q_idx >= 0 with m + n = p + q_idx, plus c.

    q_idx is the fourth index of the polygamma product family (named so it
    cannot clash with the q-gamma deformation parameter).
    """

    p: int
    m: int
    n: int
    q_idx: int
    c: float

    def __post_init__(self):
        ok = (
            self.p > self.m >= self.n > self.q_idx >= 0
            and self.m + self.n == self.p + self.q_idx
        )
        if not ok:
            raise UsageError(
                f"indices must satisfy p > m >= n > q >= 0 and m+n = p+q, got "
                f"({self.p},{self.m},{self.n},{self.q_idx})"
            )


@dataclass(frozen=True)
class PolyConstants:
    c: float
    d: float


@dataclass(frozen=True)
class BallRatioBounds:
    thm51: BoundPair
    thm51_exact: float
    eq13: BoundPair | None
    eq13_exact: float | None


@dataclass(frozen=True)
class ChainTriple:
    lhs: float
    mid: float
    rhs: float


@dataclass(frozen=True)
class TwoSides:
    lhs: float
    rhs: float


def _check_s(s: float):
    if not (0.0 < s < 1.0):
        raise DomainError(f"s must lie in (0, 1), got {s}")


def _check_q(q: float):
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q}")


def _psi_q(n: int, x: float, q: float, policy=None) -> float:
    """psi_q^(n)(x), where n = -1 is ln Gamma_q and n = 0 is psi_q, and
    q = 1 is the classical function.  Every evaluator value below, and those
    the corpus probes and chains repeat, is read through ``specfun._psi``:
    within a verification run each cell is evaluated once."""
    return specfun._psi(n, None if q == 1.0 else q, policy)(x).value


# ---------------------------------------------------------------------------
# sharp two-sided ratio bounds
# ---------------------------------------------------------------------------


def alzer_u(q: float, s: float) -> float:
    """Best lower shift u(q, s) = ln((q^s - q)/((1-s)(1-q))) / ln q."""
    _check_s(s)
    _check_q(q)
    arg = (q**s - q) / ((1.0 - s) * (1.0 - q))
    if arg <= 0.0:
        raise DomainError(f"log argument is nonpositive at (q, s)=({q}, {s})")
    return math.log(arg) / math.log(q)


def alzer_v(q: float, s: float, policy: TruncationPolicy | None = None) -> float:
    """Best upper shift v(q, s) = ln(1 - (1-q) Gamma_q(s)^(1/(s-1))) / ln q."""
    _check_s(s)
    _check_q(q)
    g = _exp_value(_psi_q(-1, s, q, policy) / (s - 1.0))
    arg = 1.0 - (1.0 - q) * g
    if arg <= 0.0:
        raise DomainError(f"log argument is nonpositive at (q, s)=({q}, {s})")
    return math.log(arg) / math.log(q)


def gamma_ratio(x: float, s: float, q: float, policy=None) -> float:
    """Gamma_q(x+1) / Gamma_q(x+s), computed in log space (q = 1 classical)."""
    specfun._require_positive(x)
    _check_s(s)
    return _exp_value(_psi_q(-1, x + 1.0, q, policy) - _psi_q(-1, x + s, q, policy))


def _qbracket_log(y, q):
    """log((1 - q^y)/(1 - q)); reduces to log(y) as q -> 1.  For q < 1,
    1 - q^y is -expm1(y ln q), which keeps its relative accuracy as y -> 0
    where q^y rounds to 1.  For q > 1, [y]_q = q^(y-1) [y]_{1/q} =
    q^y (1 - q^(-y))/(q - 1), whose log is t + log(-expm1(-t)) -
    log(q - 1) with t = y ln q.  y and q may be numpy arrays, with
    0 < q < 1: numpy then takes the same operations at every element."""
    xp = np if isinstance(y, np.ndarray) or isinstance(q, np.ndarray) else math
    if xp is math and q > 1.0:
        t = y * math.log(q)
        return t + math.log(-math.expm1(-t)) - math.log(q - 1.0)
    return xp.log(-xp.expm1(y * xp.log(q))) - xp.log1p(-q)


def ratio_bounds(
    x: float,
    s: float,
    q: float,
    method: str,
    policy: TruncationPolicy | None = None,
    u_override: float | None = None,
    v_override: float | None = None,
) -> BoundPair:
    """Two-sided bracket for Gamma_q(x+1)/Gamma_q(x+s) by the named method.

    Methods 'merkle', 'kershaw', 'logmean_refined' and 'geomean_refined'
    require q = 1.  'alzer_uv' uses the sharp shifted q-bracket (its q -> 1
    limits s/2 and Gamma(s)^(1/(s-1)) at q = 1); 'im_midpoint' and
    'psi_average' are the two sides of the same Hadamard chain for psi_q,
    named for the midpoint upper bound and the endpoint-average lower bound
    respectively.  u_override / v_override exist for sharpness experiments.
    """
    specfun._require_positive(x)
    _check_s(s)
    if method not in RATIO_BOUND_METHODS:
        raise UsageError(f"unknown ratio bound method {method!r}")
    if method in _CLASSICAL_ONLY and q != 1.0:
        raise UsageError(f"method {method!r} requires q = 1, got q={q}")
    if q <= 0.0:
        raise DomainError(f"q must be positive, got {q}")
    one_minus_s = 1.0 - s

    if method == "alzer_uv":
        if q == 1.0:
            u = 0.5 * s if u_override is None else u_override
            v = (
                _exp_value(_psi_q(-1, s, 1.0, policy) / (s - 1.0))
                if v_override is None
                else v_override
            )
            return BoundPair(
                (x + u) ** one_minus_s, (x + v) ** one_minus_s, method
            )
        if q > 1.0:
            raise UsageError(
                "alzer_uv is implemented for 0 < q <= 1 (the displayed shift "
                "constants are stated for the sub-one branch)"
            )
        u = alzer_u(q, s) if u_override is None else u_override
        v = alzer_v(q, s, policy) if v_override is None else v_override
        lo = _exp_value(one_minus_s * _qbracket_log(x + u, q))
        hi = _exp_value(one_minus_s * _qbracket_log(x + v, q))
        return BoundPair(lo, hi, method)

    # at q = 1 (the only q 'merkle' accepts) _psi_q is digamma
    if method in ("im_midpoint", "psi_average", "merkle"):
        lo = _exp_value(
            0.5 * one_minus_s * (_psi_q(0, x + 1.0, q, policy) + _psi_q(0, x + s, q, policy))
        )
        hi = _exp_value(one_minus_s * _psi_q(0, x + 0.5 * (1.0 + s), q, policy))
        return BoundPair(lo, hi, method)

    # classical q = 1 chains: exp((1-s) psi(point)) with method-specific points
    if method == "kershaw":
        lo_pt, hi_pt = x + math.sqrt(s), x + 0.5 * (1.0 + s)
    elif method == "logmean_refined":
        lo_pt = log_mean(0.0, x + 1.0, x + s)
        hi_pt = log_mean(1.0, x + 1.0, x + s)
    else:  # geomean_refined
        lo_pt = math.sqrt((x + 1.0) * (x + s))
        hi_pt = x + 0.5 * (1.0 + s)
    lo = _exp_value(one_minus_s * _psi_q(0, lo_pt, 1.0, policy))
    hi = _exp_value(one_minus_s * _psi_q(0, hi_pt, 1.0, policy))
    return BoundPair(lo, hi, method)


def g_q_function(x: float, a: float, b: float, c: float, q: float, policy=None) -> float:
    """Shifted-bracket ratio ((1-q^(x+c))/(1-q))^(a-b) Gamma_q(x+b)/Gamma_q(x+a).

    At q = 1 the prefactor is read as (x+c)^(a-b) with classical Gamma.
    """
    if q <= 0.0:
        raise DomainError(f"q must be positive, got {q}")
    if x <= max(-a, -c):
        raise DomainError(f"x must exceed max(-a, -c) = {max(-a, -c)}, got {x}")
    if q == 1.0:
        pre = (a - b) * math.log(x + c)
    else:
        pre = (a - b) * _qbracket_log(x + c, q)
    return _exp_value(pre + _psi_q(-1, x + b, q, policy) - _psi_q(-1, x + a, q, policy))


def keckic_vasic_bounds(a: float, b: float, policy=None) -> BoundPair:
    """Keckic-Vasic bracket for Gamma(b)/Gamma(a), b > a > 0 (log space).
    ``policy`` is accepted, as the other brackets accept it, but not read."""
    specfun._require_positive(a, "a")
    if not (b > a):
        raise UsageError(f"need b > a, got a={a}, b={b}")
    base = a - b
    lo = _exp_value((b - 1.0) * math.log(b) - (a - 1.0) * math.log(a) + base)
    hi = _exp_value((b - 0.5) * math.log(b) - (a - 0.5) * math.log(a) + base)
    return BoundPair(lo, hi, "keckic_vasic")


def ball_ratio_bounds(n: int, policy=None) -> BallRatioBounds:
    """Closed-form brackets for the unit-ball volume ratios.

    thm51 brackets Omega_n^2/(Omega_{n-1} Omega_{n+1}) for n >= 1; eq13
    brackets (Omega_{n-1}/Omega_n)^2 for n >= 2 (upper attained at n = 2).
    """
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"need an integer n >= 1, got {n!r}")

    def log_omega(m: int) -> float:
        return 0.5 * m * math.log(math.pi) - _psi_q(-1, 1.0 + 0.5 * m, 1.0, policy)

    thm51_exact = _exp_value(2.0 * log_omega(n) - log_omega(n - 1) - log_omega(n + 1))
    thm51 = BoundPair(
        math.sqrt(1.0 + 1.0 / (n + 1.0)),
        math.sqrt(1.0 + 1.0 / (n + 0.5)),
        "thm51",
    )
    eq13 = None
    eq13_exact = None
    if n >= 2:
        alpha = 1.0
        beta = 2.0 * (math.log(8.0 / math.pi) + EULER_GAMMA - 1.0)
        psi_n = _psi_q(0, float(n), 1.0, policy)
        eq13 = BoundPair(
            _exp_value(alpha / n + psi_n) / (2.0 * math.pi),
            _exp_value(beta / n + psi_n) / (2.0 * math.pi),
            "eq13",
        )
        eq13_exact = _exp_value(2.0 * (log_omega(n - 1) - log_omega(n)))
    return BallRatioBounds(thm51, thm51_exact, eq13, eq13_exact)


# ---------------------------------------------------------------------------
# auxiliary functions from the application corollaries
# ---------------------------------------------------------------------------

AUXILIARY_IDS = ("f_alpha", "G_c", "f_ILM", "f_qpow", "g_AG", "beta_scaled")


def auxiliary_function(fn_id: str, x: float, params: dict, policy=None) -> float:
    """Evaluate one of the named auxiliary functions.

    f_alpha:     -ln Gamma(x) + (x - 1/2) ln x - x + psi'(x + alpha)/12
    G_c:         ln Gamma(x) - x ln x + x - ln(2 pi)/2 + psi(x + c)/2
    f_ILM:       x^alpha Gamma(x) (e/x)^x
    f_qpow:      (1 - q)^x Gamma_q(x)
    g_AG:        f_qpow(x) f_qpow(x + 2a) / f_qpow(x + a)^2
    beta_scaled: Gamma_q(x) / Gamma_{q^(1/beta)}(beta x)^(1/beta)
    """
    specfun._require_positive(x)
    if fn_id not in AUXILIARY_IDS:
        raise UsageError(f"unknown auxiliary function id {fn_id!r}")

    def need(key):
        if key not in params:
            raise UsageError(f"{fn_id} requires parameter {key!r}")
        return float(params[key])

    if fn_id == "f_alpha":
        alpha = need("alpha")
        if alpha < 0.0:
            raise UsageError("alpha must be >= 0")
        return (
            -_psi_q(-1, x, 1.0, policy)
            + (x - 0.5) * math.log(x)
            - x
            + _psi_q(1, x + alpha, 1.0, policy) / 12.0
        )
    if fn_id == "G_c":
        c = need("c")
        if c < 0.0:
            raise UsageError("c must be >= 0")
        return (
            _psi_q(-1, x, 1.0, policy)
            - x * math.log(x)
            + x
            - 0.5 * math.log(2.0 * math.pi)
            + 0.5 * _psi_q(0, x + c, 1.0, policy)
        )
    if fn_id == "f_ILM":
        alpha = need("alpha")
        return _exp_value(
            alpha * math.log(x) + _psi_q(-1, x, 1.0, policy) + x - x * math.log(x)
        )
    if fn_id == "f_qpow":
        q = need("q")
        _check_q(q)
        return _exp_value(x * math.log1p(-q) + _psi_q(-1, x, q, policy))
    if fn_id == "g_AG":
        q, a = need("q"), need("a")
        _check_q(q)
        if a <= 0.0:
            raise UsageError("g_AG requires a > 0")
        lf = lambda y: y * math.log1p(-q) + _psi_q(-1, y, q, policy)
        return _exp_value(lf(x) + lf(x + 2.0 * a) - 2.0 * lf(x + a))
    # beta_scaled
    q, beta = need("q"), need("beta")
    if q <= 0.0 or q == 1.0 or beta <= 0.0 or beta == 1.0:
        raise UsageError("beta_scaled requires q > 0, q != 1, beta > 0, beta != 1")
    qb = q ** (1.0 / beta)
    return _exp_value(
        _psi_q(-1, x, q, policy) - _psi_q(-1, beta * x, qb, policy) / beta
    )


# ---------------------------------------------------------------------------
# polygamma product family
# ---------------------------------------------------------------------------


def _psi_or_minus_one(order: int, x: float, policy=None) -> float:
    """psi^(order)(x) with the convention psi^(0) = -1 used by this family."""
    if order == 0:
        return -1.0
    return _psi_q(order, x, 1.0, policy)


def poly_product(spec: PolyProductSpec, x: float, policy=None) -> float:
    """F(x; c) = (-1)^(m+n) psi^(m) psi^(n) - c (-1)^(p+q) psi^(p) psi^(q)."""
    specfun._require_positive(x)
    a = _psi_or_minus_one(spec.m, x, policy)
    b = _psi_or_minus_one(spec.n, x, policy)
    cc = _psi_or_minus_one(spec.p, x, policy)
    dd = _psi_or_minus_one(spec.q_idx, x, policy)
    sign_mn = -1.0 if (spec.m + spec.n) % 2 else 1.0
    sign_pq = -1.0 if (spec.p + spec.q_idx) % 2 else 1.0
    return sign_mn * a * b - spec.c * sign_pq * cc * dd


def poly_constants(p: int, m: int, n: int, q_idx: int) -> PolyConstants:
    """Critical constants of the polygamma product family.

    c = (m-1)!(n-1)!/((p-1)!(q-1)!) for q >= 1 (drop the (q-1)! at q = 0);
    d = m! n!/(p! q!).  Both lie in (0, 1) under the index constraints.
    """
    PolyProductSpec(p, m, n, q_idx, 0.5)  # validates indices
    num = math.factorial(m - 1) * math.factorial(n - 1)
    if q_idx >= 1:
        c = num / (math.factorial(p - 1) * math.factorial(q_idx - 1))
    else:
        c = num / math.factorial(p - 1)
    d = math.factorial(m) * math.factorial(n) / (
        math.factorial(p) * math.factorial(q_idx)
    )
    return PolyConstants(c, d)


# ---------------------------------------------------------------------------
# refinement machinery for the sharp lower shift
# ---------------------------------------------------------------------------


def w_qn(s: float, q: float, n: int) -> float:
    """w(s) = q^n - q^(ns) + (1-s) q^(n u(q,s)) (1 - q^n); nonnegative."""
    _check_s(s)
    _check_q(q)
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    u = alzer_u(q, s)
    return q**n - q ** (n * s) + (1.0 - s) * q ** (n * u) * (1.0 - q**n)


def lemma10_lhs_rhs(s: float, q: float, n: int) -> BoundPair:
    """Power-mean comparison pair; lower = the n-th power side dominates.

    Returns (rhs, lhs) as BoundPair(lower=rhs, upper=lhs) so lower <= upper
    expresses ((q^s-q)/((1-s)(1-q)))^n >= (q^(ns)-q^n)/((1-s)(1-q^n)).
    """
    _check_s(s)
    _check_q(q)
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    lhs = ((q**s - q) / ((1.0 - s) * (1.0 - q))) ** n
    rhs = (q ** (n * s) - q**n) / ((1.0 - s) * (1.0 - q**n))
    return BoundPair(rhs, lhs, "lemma10")


# ---------------------------------------------------------------------------
# root structure of the comparison polynomial
# ---------------------------------------------------------------------------


def a_poly(t, m: int, n: int, c: float):
    """a(t) = t^(m-n) + t^n - c (1 + t^m) for t >= 1, m > n >= 1, 0 < c < 1;
    ``t`` is a float or a numpy array of them."""
    if not (isinstance(m, int) and isinstance(n, int) and m > n >= 1):
        raise UsageError(f"need integers m > n >= 1, got m={m!r}, n={n!r}")
    if not (0.0 < c < 1.0):
        raise DomainError(f"c must lie in (0, 1), got {c}")
    t_min = np.min(t, initial=1.0)
    if t_min < 1.0:
        raise DomainError(f"t must be >= 1, got {t_min}")
    return t ** (m - n) + t**n - c * (1.0 + t**m)


def a_poly_root(m: int, n: int, c: float, tol: float = 1e-13) -> float:
    """The unique root of a(t) on [1, inf), by bracket growth and bisection."""
    lo, hi = 1.0, 2.0
    grow = 0
    while a_poly(hi, m, n, c) >= 0.0:
        hi *= 2.0
        grow += 1
        if grow > 60:
            raise ConvergenceError("root bracket exceeded 2^60")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if a_poly(mid, m, n, c) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def a_poly_sign_changes(m: int, n: int, c: float, hi: float, points: int) -> int:
    """Number of sign changes of a(t) between neighbouring points of an even
    ``points``-point grid on [1, hi] (zero counts as positive)."""
    neg = a_poly(np.linspace(1.0, hi, points), m, n, c) < 0.0
    return int(np.count_nonzero(neg[1:] != neg[:-1]))


# ---------------------------------------------------------------------------
# chained digamma-difference inequalities
# ---------------------------------------------------------------------------


def psi_pair_inequality(
    x: float, c: float, variant: str = "classical", q: float | None = None, policy=None
) -> ChainTriple:
    """The three chained quantities of the squared-difference inequality.

    classical:  (1/c)(psi(x+c)-psi(x))^2,  psi'(x)-psi'(x+c),  (psi(x+c)-psi(x))^2
    q_analogue: the same chain with psi_q, prefactor (1-q)/(1-q^c) and the
                middle term scaled by q^x.
    The chain is lhs > mid > rhs for 0 < c < 1 and reverses for c > 1.
    """
    specfun._require_positive(x)
    specfun._require_positive(c, "c")
    if c == 1.0:
        raise DomainError("c = 1 is the degenerate boundary; use c != 1")
    if variant == "classical":
        d = _psi_q(0, x + c, 1.0, policy) - _psi_q(0, x, 1.0, policy)
        mid = _psi_q(1, x, 1.0, policy) - _psi_q(1, x + c, 1.0, policy)
        return ChainTriple(d * d / c, mid, d * d)
    if variant != "q_analogue":
        raise UsageError(f"unknown variant {variant!r}")
    if q is None:
        raise UsageError("q_analogue requires q")
    _check_q(q)
    d = _psi_q(0, x + c, q, policy) - _psi_q(0, x, q, policy)
    mid = (q**x) * (_psi_q(1, x, q, policy) - _psi_q(1, x + c, q, policy))
    pref = (1.0 - q) / (1.0 - q**c)
    return ChainTriple(pref * d * d, mid, d * d)


def cor51_expr(x: float, q: float, policy=None) -> float:
    """(psi_q'(x))^2 + (ln(1/q) q^x / (1-q)) psi_q''(x); claimed >= 0."""
    specfun._require_positive(x)
    _check_q(q)
    p1 = _psi_q(1, x, q, policy)
    p2 = _psi_q(2, x, q, policy)
    return p1 * p1 + math.log(1.0 / q) * (q**x) / (1.0 - q) * p2


def cor5_inequality(
    x: float, y: float, z: float, alpha: float, q: float, policy=None
) -> TwoSides:
    """Both sides of the power-scaled four-gamma inequality.

    lhs = (G_a(z+x) G_a(z+y) / (G_a(x+y+z) G_a(z)))^alpha with a = q^alpha;
    rhs = G_q(a(z+x)) G_q(a(z+y)) / (G_q(a z) G_q(a(x+y+z))) with a = alpha.
    lhs <= rhs for alpha > 1; reversed for alpha in (0, 1).
    """
    for name, v in (("x", x), ("y", y), ("z", z)):
        specfun._require_positive(v, name)
    if q <= 0.0:
        raise DomainError(f"q must be positive, got {q}")
    if alpha <= 0.0 or alpha == 1.0:
        raise UsageError("alpha must be positive and != 1")
    qa = q**alpha
    lhs = _exp_value(
        alpha
        * (
            _psi_q(-1, z + x, qa, policy)
            + _psi_q(-1, z + y, qa, policy)
            - _psi_q(-1, x + y + z, qa, policy)
            - _psi_q(-1, z, qa, policy)
        )
    )
    rhs = _exp_value(
        _psi_q(-1, alpha * (z + x), q, policy)
        + _psi_q(-1, alpha * (z + y), q, policy)
        - _psi_q(-1, alpha * z, q, policy)
        - _psi_q(-1, alpha * (x + y + z), q, policy)
    )
    return TwoSides(lhs, rhs)
