import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qgammakit import cm_engine
from qgammakit import specfun as sf
from qgammakit.errors import ConvergenceError, DomainError

import oracles


GAMMA = sf.EULER_GAMMA


def within(enc, target, tol):
    assert abs(enc.value - target) <= tol, (enc.value, target)


def test_import_needs_only_numpy():
    """The runtime depends on numpy alone: a fresh interpreter that imports
    qgammakit has loaded neither mpmath nor fractions, so no coefficient
    table is built from exact rationals at import."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    code = "import sys, qgammakit; print(sorted({'mpmath', 'fractions'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# classical gamma family
# ---------------------------------------------------------------------------


def test_ln_gamma_golden():
    within(sf.ln_gamma(1.0), 0.0, 1e-15)
    within(sf.ln_gamma(5.0), math.log(24.0), 1e-13)
    within(sf.ln_gamma(0.5), 0.5 * math.log(math.pi), 1e-14)


def test_ln_gamma_certificate_covers_truth():
    from mpmath import mp, mpf, loggamma

    with mp.workdps(40):
        for x in (0.1, 0.7, 1.0, 3.7, 12.0, 50.0, 200.0):
            enc = sf.ln_gamma(x)
            assert abs(mpf(enc.value) - loggamma(mpf(x))) <= enc.abs_error, x


def test_zeros_read_plus_zero():
    """psi at its zero and ln Gamma at 1 and 2 come out as +0.0, not -0.0:
    the canonical report prints the sign of a zero."""
    for enc in (sf.digamma(1.4616321449683622), sf.ln_gamma(1.0), sf.ln_gamma(2.0)):
        assert enc.value == 0.0 and math.copysign(1.0, enc.value) == 1.0, enc


def test_digamma_golden():
    within(sf.digamma(1.0), -GAMMA, 1e-14)
    within(sf.digamma(2.0), 1.0 - GAMMA, 1e-14)
    # value forced by the duplication identity at x = 1/2 plus psi(1) = -gamma
    within(sf.digamma(0.5), oracles.PSI_HALF, 1e-13)


def test_polygamma_golden():
    within(sf.polygamma(1, 1.0), oracles.ZETA2, 1e-12)
    within(sf.polygamma(1, 2.0), oracles.ZETA2 - 1.0, 1e-12)
    within(sf.polygamma(2, 1.0), oracles.NEG_TWO_ZETA3, 1e-11)


def test_polygamma_recurrence():
    # psi^(n)(x+1) - psi^(n)(x) = (-1)^n n!/x^(n+1), 1e-11 relative
    for n in range(1, 7):
        for x in np.linspace(0.25, 10.0, 40):
            lhs = sf.polygamma(n, x + 1.0).value - sf.polygamma(n, x).value
            rhs = (-1.0) ** n * math.factorial(n) / x ** (n + 1)
            assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


def test_digamma_recurrence():
    for x in np.linspace(0.1, 10.0, 30):
        lhs = sf.digamma(x + 1.0).value - sf.digamma(x).value
        assert abs(lhs - 1.0 / x) <= 1e-12 * max(1.0, 1.0 / x)


def test_polygamma_sign_pattern():
    for n in range(1, 7):
        for x in np.geomspace(1e-2, 100.0, 30):
            assert (-1.0) ** (n + 1) * sf.polygamma(n, float(x)).value > 0.0


def test_duplication_identity():
    for x in np.geomspace(1e-2, 25.0, 50):
        resid = (
            sf.digamma(2.0 * x).value
            - 0.5 * sf.digamma(x).value
            - 0.5 * sf.digamma(x + 0.5).value
            - math.log(2.0)
        )
        assert abs(resid) <= 1e-12


def test_series_paths_agree_with_main_paths():
    for x in np.geomspace(0.5, 50.0, 25):
        a, b = sf.digamma(float(x)), sf.digamma_series(float(x))
        assert abs(a.value - b.value) <= a.abs_error + b.abs_error
    for n in (1, 2, 3, 4):
        for x in np.geomspace(0.5, 50.0, 25):
            a, b = sf.polygamma(n, float(x)), sf.polygamma_series(n, float(x))
            assert abs(a.value - b.value) <= a.abs_error + b.abs_error


def test_series_paths_match_oracle():
    from mpmath import psi

    for x in (0.5, 1.3, 7.7):
        enc = sf.digamma_series(x)
        assert abs(enc.value - float(psi(0, x))) <= enc.abs_error
        enc = sf.polygamma_series(3, x)
        assert abs(enc.value - float(psi(3, x))) <= enc.abs_error


@pytest.mark.parametrize("n, x", [(100, 0.01), (40, 1e-8), (171, 5.0)])
def test_polygamma_series_refuses_what_leaves_double_precision(n, x):
    # n! sum (x + k)^-(n+1) overflows, or n! does not fit a float; as
    # polygamma(100, 0.01) does, with no numpy warning (warnings are errors)
    with pytest.raises(DomainError):
        sf.polygamma_series(n, x)


def test_domain_errors_classical():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            sf.ln_gamma(bad)
        with pytest.raises(DomainError):
            sf.digamma(bad)
    with pytest.raises(DomainError):
        sf.polygamma(0, 1.0)
    with pytest.raises(DomainError):
        sf.polygamma(1, -2.0)


@pytest.mark.parametrize("name, args", [
    ("polygamma", (1, 1e160)),
    ("polygamma", (3, 1e80)),
    ("polygamma", (20, 1e16)),
    ("polygamma", (1, 1e-160)),
    ("polygamma", (12, 1e-30)),
    ("kernel_derivative", (16, 0, 1e300)),
    ("digamma", (5e-324,)),
    ("ln_gamma", (1e308,)),
    ("q_ln_gamma", (1e308, 0.9)),
    ("q_gamma", (1e300, 2.0)),
    ("q_gamma", (200.0, 2.0)),
    ("q_polygamma", (200, 1.0, 1e-300)),
    ("q_polygamma", (300, 1.0, 0.01)),
    ("q_digamma", (1e308, 1e300)),
], ids=lambda v: str(v))
def test_edges_give_a_certified_value_or_domain_error(name, args):
    """psi^(n) at huge x and psi_q^(200)(1) at q = 1e-300 (-5.09e270) are
    representable, and each value lies within its certificate of the
    value at 40 digits; every other case overflows double precision and
    raises DomainError, not OverflowError or an infinity."""
    from mpmath import mp, mpf, psi

    fn = getattr(sf, name)
    if name == "polygamma" and args[1] > 1.0 or args == (200, 1.0, 1e-300):
        enc = fn(*args)
        with mp.workdps(40):
            ref = psi(args[0], mpf(args[1])) if name == "polygamma" else _q_polygamma_direct(*args)
            assert abs(mpf(enc.value) - ref) <= enc.abs_error
    else:
        with pytest.raises(DomainError):
            fn(*args)


def _q_psi_far(n, x, q):
    """psi_q^(n)(x) (n = 0: psi_q) from three terms of its series, exact to
    40 digits where p^x < 1e-100 (p = min(q, 1/q)) and n <= 5, as each
    further term is below 1e-90 of the one before; the q > 1 branch adds
    (3/2 - x) ln p at n = 0 and -ln p at n = 1."""
    from mpmath import log, log1p, mpf

    x, q = mpf(x), mpf(q)
    p = 1 / q if q > 1 else q
    assert p**x < mpf(10) ** -100
    s = sum(mpf(k) ** n * p ** (k * x) / (1 - p**k) for k in range(1, 4))
    lnp = log(p)
    if n == 0:
        val = -log1p(-p) + lnp * s
        return val + (mpf(1.5) - x) * lnp if q > 1 else val
    return lnp ** (n + 1) * s - (lnp if q > 1 and n == 1 else 0)


@pytest.mark.parametrize("n, x, q, raises", [
    (1, 1e308, 1e300, None),
    (0, 1e306, 0.01, None),
    (1, 1e306, 0.01, None),
    (1, 1e308, 0.01, None),
    (5, 1e300, 1e-300, None),
    (0, 1e308, 1e-300, None),
    (1, 5e-324, 0.9, ConvergenceError),
    (0, 5e-324, 0.9, ConvergenceError),
    (1, 5e-324, 1e300, ConvergenceError),
    (200000, 1.0, 0.5, DomainError),
], ids=lambda v: str(v))
def test_q_psi_edges_give_a_certified_value_or_raise(n, x, q, raises):
    """At extreme x and q the bound that decides whether numpy may
    overflow must not itself overflow, divide by zero or take log(0);
    x ln(1/q) times the term count passes the largest double where x is
    huge.  Each call gives a value within its certificate of the series at
    40 digits (where every term underflows, 0 with a positive error),
    ConvergenceError where x is subnormal and q^x rounds to 1, or
    DomainError where the sum overflows, also at an order so high that the
    tail ratio's (1 + 1/K)^n overflows.  pytest turns any numpy warning
    into an error."""
    from mpmath import mp, mpf

    fn = sf.q_digamma if n == 0 else functools.partial(sf.q_polygamma, n)
    if raises:
        with pytest.raises(raises):
            fn(x, q)
        return
    enc = fn(x, q)
    with mp.workdps(40):
        assert abs(mpf(enc.value) - _q_psi_far(n, x, q)) <= enc.abs_error


def _q_polygamma_direct(n, x, q):
    """psi_q^(n)(x), n >= 1 and q < 1, from the direct sum of its series at
    40 digits, stopped past the hump n/(x ln(1/q)) at the first term below
    1e-45 of the sum, where the terms fall faster than geometrically."""
    from mpmath import log, mp, mpf

    with mp.workdps(40):
        x, q = mpf(x), mpf(q)
        s, k = mpf(0), 1
        while True:
            t = mpf(k) ** n * q ** (k * x) / (1 - q**k)
            s += t
            if k > n / (x * -log(q)) and t < s * mpf(10) ** -45:
                return log(q) ** (n + 1) * s
            k += 1


@pytest.mark.parametrize("n, x, q", [
    (1100, 419.23, 0.6),  # (ln q)^(n+1) is subnormal
    # x = n/(e ln(1/q)): the two parts of each exponent, k x ln q and
    # n ln k, are about n and cancel
    (1000, 1000 / (math.e * -math.log(0.37)), 0.37),
    (4000, 4000 / (math.e * -math.log(0.37)), 0.37),
    (2000, 2000 / (math.e * -math.log(0.3)), 0.3),
], ids=lambda v: str(v))
def test_q_polygamma_certificate_holds_at_high_orders(n, x, q):
    """The certificate covers the (n+1) eps/2 of the rounded ln q in
    (ln q)^(n+1), the rounding of each term's exponent, which exp turns
    into relative error, and a power that underflows."""
    from mpmath import mp, mpf

    enc = sf.q_polygamma(n, x, q)
    with mp.workdps(40):
        assert abs(mpf(enc.value) - _q_polygamma_direct(n, x, q)) <= enc.abs_error


@pytest.mark.parametrize("n", [450, 453, 10**6])
def test_exp_keeps_a_certificate_where_it_underflows(n):
    """The ball volume of dimension n is subnormal (450) or below the
    smallest double (453, 10^6), so exp returns a tiny value or 0; the
    enclosure must still contain the positive true value."""
    from mpmath import gamma, mp, mpf, pi

    enc = sf.unit_ball_volume(n)
    with mp.workdps(40):
        ref = pi ** (mpf(n) / 2) / gamma(1 + mpf(n) / 2)
        assert abs(mpf(enc.value) - ref) <= enc.abs_error


# ---------------------------------------------------------------------------
# q-gamma family
# ---------------------------------------------------------------------------


def test_q_gamma_telescoping():
    within(sf.q_gamma(1.0, 0.5), 1.0, 1e-14)
    within(sf.q_gamma(2.0, 0.5), 1.0, 1e-14)


def test_q_gamma_oracle_value():
    enc = sf.q_gamma(0.5, 0.5)
    assert abs(enc.value - oracles.QGAMMA_HALF_HALF) <= max(enc.abs_error, 1e-13)


def test_q_gamma_recurrence():
    # Gamma_q(x+1) = (1-q^x)/(1-q) Gamma_q(x), 1e-12 relative
    for q in [round(0.1 * i, 1) for i in range(1, 10)]:
        for x in np.linspace(0.1, 20.0, 12):
            lhs = sf.q_gamma(x + 1.0, q).value
            rhs = (1.0 - q**x) / (1.0 - q) * sf.q_gamma(x, q).value
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs), (q, x)


def test_q_gamma_branch_relation():
    # Gamma_{1/q}(x) = q^((x-1)(1-x/2)) Gamma_q(x), 1e-12 relative
    for q in (0.2, 0.5, 0.8):
        for x in np.linspace(0.3, 12.0, 10):
            lhs = sf.q_gamma(float(x), 1.0 / q).value
            rhs = q ** ((x - 1.0) * (1.0 - 0.5 * x)) * sf.q_gamma(float(x), q).value
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_q_gamma_classical_limit():
    for x in np.linspace(0.5, 5.0, 8):
        g = math.exp(sf.ln_gamma(float(x)).value)
        gq = sf.q_gamma(float(x), 0.9999)
        assert abs(gq.value - g) / g <= 1e-3
        assert gq.warn_slow  # q this close to 1 needs > 1e5 terms


def test_q_digamma_values():
    enc = sf.q_digamma(1.0, 0.5)
    assert abs(enc.value - oracles.QDIGAMMA_1_HALF) <= max(enc.abs_error, 1e-13)
    # forward difference: psi_q(x+1) - psi_q(x) = -ln q * q^x/(1-q^x)
    d = sf.q_digamma(2.0, 0.5).value - sf.q_digamma(1.0, 0.5).value
    assert abs(d - math.log(2.0)) <= 1e-13
    # classical limit
    assert abs(sf.q_digamma(2.0, 0.9999).value - sf.digamma(2.0).value) <= 1e-3


def test_q_digamma_against_oracle_grid():
    for q in (0.3, 0.7):
        for x in (0.25, 1.0, 4.0):
            enc = sf.q_digamma(x, q)
            truth = float(oracles.qdigamma_hp(x, q))
            assert abs(enc.value - truth) <= enc.abs_error + 1e-14


def test_q_polygamma_values():
    enc = sf.q_polygamma(1, 1.0, 0.5)
    assert abs(enc.value - oracles.QPOLYGAMMA_1_1_HALF) <= max(enc.abs_error, 1e-13)
    for x in np.geomspace(0.05, 20.0, 12):
        assert sf.q_polygamma(2, float(x), 0.5).value < 0.0
    assert abs(sf.q_polygamma(1, 2.0, 0.9999).value - sf.polygamma(1, 2.0).value) <= 1e-2


def test_q_polygamma_sign_pattern():
    for n in (1, 2, 3, 5):
        for q in (0.3, 0.7):
            for x in np.geomspace(1e-2, 50.0, 15):
                assert (-1.0) ** (n + 1) * sf.q_polygamma(n, float(x), q).value > 0.0


def test_q_branch_derivative_consistency():
    # psi_{1/q} and psi'_{1/q} agree with centered differences of the
    # corresponding log-gamma branch
    q, h = 2.0, 1e-6
    for x in (0.7, 1.5, 4.0):
        fd = (sf.q_ln_gamma(x + h, q).value - sf.q_ln_gamma(x - h, q).value) / (2 * h)
        assert abs(fd - sf.q_digamma(x, q).value) <= 1e-7
        fd2 = (sf.q_digamma(x + h, q).value - sf.q_digamma(x - h, q).value) / (2 * h)
        assert abs(fd2 - sf.q_polygamma(1, x, q).value) <= 1e-6


def test_q_domain_errors():
    for bad_q in (0.0, -0.5, 1.0):
        with pytest.raises(DomainError):
            sf.q_gamma(1.0, bad_q)
    with pytest.raises(DomainError):
        sf.q_digamma(-1.0, 0.5)
    with pytest.raises(DomainError):
        sf.q_polygamma(0, 1.0, 0.5)


def test_qparam_branch_invariant():
    assert sf.QParam(0.3).branch == "sub_one"
    assert sf.QParam(2.5).branch == "super_one"
    with pytest.raises(DomainError):
        sf.QParam(1.0)


def test_truncation_policy_validation_and_budget():
    with pytest.raises(ValueError):
        sf.TruncationPolicy(eps=2.0)
    with pytest.raises(ValueError):
        sf.TruncationPolicy(max_terms=0)
    tight = sf.TruncationPolicy(max_terms=64)
    with pytest.raises(ConvergenceError):
        sf.q_digamma(0.5, 0.999, tight)


def test_enclosure_invariants():
    enc = sf.digamma(3.0)
    assert enc.abs_error >= 0.0 and enc.terms_used >= 0
    with pytest.raises(ValueError):
        sf.Enclosure(1.0, -1e-3, 0)


def test_run_cells_share_the_default_policy_and_keep_others_apart():
    with sf._run_cells():
        table = sf._RUN_CELLS.get()
        cell = sf._psi(0, None, None)(2.0)
        assert sf._psi(0, None, sf.DEFAULT_POLICY)(2.0) is cell
        # policy=None and DEFAULT_POLICY share one dict, keyed as None
        assert [key for key in table if key[0] is sf.digamma] == [(sf.digamma, (), None)]
        loose = sf.TruncationPolicy(eps=1e-10)
        assert sf._psi(0, None, loose)(2.0) is not cell
        assert table[sf.digamma, (), loose] is not table[sf.digamma, (), None]


# ---------------------------------------------------------------------------
# means, kernels, ball volumes
# ---------------------------------------------------------------------------


def test_log_mean_cases():
    assert abs(sf.log_mean(-1.0, 1.0, 4.0) - 2.0) <= 1e-14
    assert abs(sf.log_mean(2.0, 1.0, 3.0) - 2.0) <= 1e-14
    assert abs(sf.log_mean(0.0, 1.0, math.e) - (math.e - 1.0)) <= 1e-14
    assert abs(sf.log_mean(1.0, 1.0, math.e) - oracles.IDENTRIC_1_E) <= 1e-14
    assert sf.log_mean(3.0, 2.0, 2.0) == 2.0  # continuous extension
    assert sf.log_mean(sf.LogMeanOrder(-1.0), 1.0, 4.0) == sf.log_mean(-1.0, 1.0, 4.0)


def test_log_mean_increasing_in_order():
    orders = (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0)
    vals = [sf.log_mean(r, 1.0, 3.0) for r in orders]
    for lo, hi in zip(vals, vals[1:]):
        assert lo < hi - 1e-12


def test_log_mean_domain():
    with pytest.raises(DomainError):
        sf.log_mean(0.0, -1.0, 2.0)


def test_log_mean_takes_logs_where_a_power_overflows():
    """Where b/a or (b/a)^r leaves double precision, the mean, in [a, b] and
    within 4 eps (1 + t) of the 50-digit mean, t = ln(b/a), for the
    rounding of the logs grows with them.  A form that raises b/a or
    (b/a)^r overflows here, or raises 0 to a negative power."""
    cases = [
        (-1.0, 1e-300, 1e300), (2.0, 1e-300, 1e-100), (3.0, 1.0, 1e200), (2.0, 1e-300, 1e300),
        (-10.0, 1e-300, 1e300), (-0.01, 1e-10, 1e300), (0.0, 1e-300, 1e300), (0.5, 1e-308, 1.7e308),
        (0.99, 1e-300, 1e300), (1.0, 1e-300, 1e300), (1.01, 1e-200, 1e200), (1000.0, 1e-300, 1e-299),
    ]
    for r, a, b in cases:
        ref = oracles.log_mean_hp(r, a, b)
        t = math.log(b) - math.log(a)
        for value in (sf.log_mean(r, a, b), sf.log_mean(r, b, a)):
            assert a <= value <= b, (r, a, b, value)
            assert abs(value - ref) <= 4.0 * 2.0**-52 * (1.0 + t) * ref, (r, a, b, value)


@pytest.mark.parametrize("r", [-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0])
def test_log_mean_is_accurate_as_b_nears_a(r):
    """Within 4 eps of the 50-digit mean, in [a, b] and in either argument
    order, from b = a (1 + 2.2e-16) up to b = 101 a: a form that subtracts
    b^r - a^r loses every digit there, or divides 0 by 0."""
    for a in (0.5, 1.0, 3.0):
        for du in (2.2e-16, 1e-13, 1e-8, 1e-3, 0.3, 100.0):
            b = a * (1.0 + du)
            ref = oracles.log_mean_hp(r, a, b)
            for value in (sf.log_mean(r, a, b), sf.log_mean(r, b, a)):
                assert a <= value <= b, (r, a, b, value)
                assert abs(value - ref) <= 4.0 * 2.0**-52 * ref, (r, a, b, value)


def test_kernel_h():
    assert abs(sf.kernel_h(1e-9) - 1.0) <= 1e-8
    assert abs(sf.kernel_h(1.0) - oracles.KERNEL_H_1) <= 1e-14
    assert abs(sf.kernel_h(2.0) - oracles.KERNEL_H_2) <= 1e-14
    assert sf.kernel_h(1.0) ** 2 >= sf.kernel_h(2.0)
    with pytest.raises(DomainError):
        sf.kernel_h(0.0)


def test_kernel_derivative():
    assert sf.kernel_derivative(1, 2, 1.0).value > 0.0
    # k = 0 reproduces t^n/(1 - e^(-t))
    for n in (1, 3):
        for t in (0.1, 1.0, 10.0):
            enc = sf.kernel_derivative(n, 0, t)
            truth = t**n / (-math.expm1(-t))
            assert abs(enc.value - truth) <= enc.abs_error + 1e-12 * truth
    # first derivative against a centered difference
    h = 1e-6
    for n, k, t in ((1, 1, 0.7), (2, 2, 3.0), (16, 16, 0.05)):
        enc = sf.kernel_derivative(n, k, t)
        lo = sf.kernel_derivative(n, k - 1, t - h).value
        hi = sf.kernel_derivative(n, k - 1, t + h).value
        fd = (hi - lo) / (2.0 * h)
        assert abs(enc.value - fd) <= 1e-4 * max(1.0, abs(enc.value))
    with pytest.raises(DomainError):
        sf.kernel_derivative(1, 21, 1.0)
    with pytest.raises(DomainError):
        sf.kernel_derivative(1, 2, -1.0)


def test_certificates_bound_the_error_where_summands_cancel():
    """|value - truth| <= abs_error with no extra slack, against 40-digit mpmath,
    where the summands are much larger than the result: ln_gamma below the
    recurrence shift, digamma around its zero x0 = 1.4616, and the alternating
    kernel-derivative series at small t."""
    from mpmath import diff, expm1, loggamma, mp, mpf, psi

    def misses(fn, args, truth):
        enc = fn(*args)
        return abs(mpf(enc.value) - truth) > enc.abs_error

    with mp.workdps(40):
        bad = [("ln_gamma", x) for x in np.linspace(0.01, 2.6, 60)
               if misses(sf.ln_gamma, (float(x),), loggamma(mpf(float(x))))]
        x0 = 1.4616321449683623
        bad += [("digamma", x) for x in x0 + np.linspace(-1e-3, 1e-3, 21)
                if misses(sf.digamma, (float(x),), psi(0, mpf(float(x))))]
        for n in range(1, 17):
            for t in np.geomspace(0.01, 1.0, 5):
                t = float(t)
                truth = diff(lambda s, n=n: s**n / (-expm1(-s)), mpf(t), n)
                if misses(sf.kernel_derivative, (n, n, t), truth):
                    bad.append(("kernel_derivative", n, t))
    assert not bad, bad


def test_q_series_certificates_bound_the_error_near_the_zero():
    """|value - truth| <= abs_error against 40-digit mpmath where the two
    summands of psi_q cancel, around its zero x0 ~ 1.46, on both q branches."""
    from mpmath import log, mp, mpf

    def q_psi(x, q):
        x, q = mpf(x), mpf(q)
        if q > 1:
            p = 1 / q
            return (mpf(3) / 2 - x) * log(p) + q_psi(x, p)
        qx = q**x
        s, qnx, qn = mpf(0), qx, q  # q^(nx) and q^n at n = 1
        while True:
            t = qnx / (1 - qn)
            s += t
            if t < mpf(10) ** -45:
                return -log(1 - q) + log(q) * s
            qnx, qn = qnx * qx, qn * q

    bad = []
    with mp.workdps(40):
        for q, x0 in ((0.3, 1.43328), (0.9, 1.45951), (0.99, 1.46143), (3.0, 1.47955)):
            for x in x0 + np.linspace(-2e-4, 2e-4, 3):
                enc = sf.q_digamma(float(x), q)
                if abs(mpf(enc.value) - q_psi(float(x), q)) > enc.abs_error:
                    bad.append(("q_digamma", q, float(x)))
        # psi_q' for q > 1 adds -ln p to the p = 1/q series
        for x in (0.2, 1.0, 5.0):
            enc = sf.q_polygamma(1, x, 3.0)
            p = mpf(1) / 3
            s = sum(k * p ** (k * mpf(x)) / (1 - p**k) for k in range(1, 400))
            if abs(mpf(enc.value) - (log(p) ** 2 * s - log(p))) > enc.abs_error:
                bad.append(("q_polygamma", 3.0, x))
    assert not bad, bad


def test_q_ln_gamma_certificate_bounds_the_error_near_its_zeros():
    """|value - truth| <= abs_error against 50-digit direct products where
    ln Gamma_q vanishes, at x = 1 and x = 2, on both q branches."""
    from mpmath import log, mp, mpf

    def ln_gamma_q(x, q):
        x, q = mpf(x), mpf(q)
        if q > 1:
            p = 1 / q
            return (x - 1) * (1 - x / 2) * log(p) + ln_gamma_q(x, p)
        prod, qn1, qnx = mpf(1), q, q**x  # q^(n+1) and q^(n+x) at n = 0
        while qn1 > mpf(10) ** -55:
            prod *= (1 - qn1) / (1 - qnx)
            qn1, qnx = qn1 * q, qnx * q
        return (1 - x) * log(1 - q) + log(prod)

    bad = []
    with mp.workdps(50):
        for q in (0.3, 0.5, 0.9, 1.5, 3.0):
            for x0 in (1.0, 2.0):
                for d in np.geomspace(1e-9, 0.1, 7):
                    for x in (x0 - d, x0 + d):
                        enc = sf.q_ln_gamma(float(x), q)
                        if abs(mpf(enc.value) - ln_gamma_q(float(x), q)) > enc.abs_error:
                            bad.append((q, float(x)))
    assert not bad, (len(bad), bad[:5])


def test_polygamma_asymptotic_bounds_by_the_first_omitted_term():
    """At small y the asymptotic series diverges early, or runs past the
    Bernoulli table; the error bound is then the first omitted term, which
    bounds the remainder, checked against 40-digit mpmath."""
    from mpmath import bernoulli, factorial, mp, mpf, psi

    with mp.workdps(40):
        for n in (1, 2, 5, 12, 20):
            for y in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0):
                value, tail, terms = sf._polygamma_asymptotic(n, y, 1e-16)
                k = terms + 1
                omitted = abs(bernoulli(2 * k) * factorial(2 * k + n - 1)) / (
                    factorial(2 * k) * mpf(y) ** (2 * k + n)
                )
                assert abs(tail - omitted) <= 1e-12 * omitted, (n, y, terms)
                truth = (-1) ** (n + 1) * psi(n, mpf(y))
                rounding = (terms + 4) * 2.220446049250313e-16 * abs(value)
                assert abs(mpf(value) - truth) <= tail + rounding, (n, y, terms)


def _asymptotic_term_by_term(n, y, eps, scaled):
    """_polygamma_asymptotic as it was before its coefficient table: each
    term's B_2k (2k+n-1)!/(2k)! is rebuilt on every call."""
    if scaled:
        fact_nm1, ypow = 1, 1.0
        lead = 1.0 + n / (2.0 * y)
    else:
        fact_nm1, ypow = math.factorial(n - 1), y**n
        lead = fact_nm1 / ypow + math.factorial(n) / (2.0 * y ** (n + 1))
    corr, rising, y2, terms, prev = 0.0, 1.0, y * y, 0, math.inf
    for k, b2k in enumerate(sf._BERNOULLI_2K + (sf._BERNOULLI_32,), start=1):
        rising *= (n + 2 * k - 2) * (n + 2 * k - 1) / ((2 * k - 1) * (2 * k))
        ypow *= y2
        term = b2k * rising * fact_nm1 / ypow
        if k > len(sf._BERNOULLI_2K) or abs(term) >= prev or abs(term) <= eps * (lead + abs(corr)):
            break
        corr += term
        prev = abs(term)
        terms += 1
    return lead + corr, abs(term), terms


def _outcome(fn, *args):
    try:
        value, tail, terms = fn(*args)
    except Exception as exc:  # the class must match, OverflowError included
        return type(exc)
    return value.hex(), tail.hex(), terms


def test_polygamma_asymptotic_table_keeps_every_bit():
    """The cached coefficients give the values, bounds, term counts and
    exceptions of the term-by-term loop, OverflowError at n >= 172 unscaled
    included, over n <= 200 and y from the diverging range to y^n past
    double precision, and at the polygamma edge cases above."""
    rng = np.random.default_rng(14)
    cases = [(n, y) for n in range(1, 201) for y in (0.5, 4.0, 10.0 + n, 25.0 + 3.0 * n, 1e3)]
    cases += [(int(n), float(y)) for n, y in zip(rng.integers(1, 201, 300),
                                                 10.0 ** rng.uniform(-0.5, 6.0, 300))]
    cases += [(n, max(x, 10.0 + n)) for n, x in ((1, 1e160), (3, 1e80), (20, 1e16),
                                                  (1, 1e-160), (12, 1e-30))]
    for n, y in cases:
        for scaled in (False, True):
            for eps in (1e-16, 1e-40):
                args = (n, y, eps, scaled)
                assert _outcome(sf._polygamma_asymptotic, *args) == _outcome(
                    _asymptotic_term_by_term, *args), args


def test_stirling_past_the_table_bounds_by_the_first_omitted_term():
    """With eps below every tabulated Bernoulli term, the ln Gamma tail (the
    shared asymptotic series at n = -1) is the first omitted term, k = 16:
    |B_32| / (32 * 31 * y^31)."""
    from mpmath import bernoulli, mp, mpf

    value, tail, terms = sf._polygamma_asymptotic(-1, 20.0, 1e-40)
    assert terms == 15
    with mp.workdps(40):
        omitted = abs(bernoulli(32)) / (32 * 31 * mpf(20) ** 31)
        assert abs(tail - omitted) <= 1e-12 * omitted, (tail, float(omitted))


def _q_series_jet(x, q, policy):
    return cm_engine.QSeriesTarget(q, [(1.0, 0, 0.0)]).jet(x, 2, policy)[2]


# a q-series grid's blocks double from cm_engine._FIRST_BLOCK, so its fifth
# block runs from 15 to 31 first blocks; a budget between them clamps it
_GRID_BUDGET = 23 * cm_engine._FIRST_BLOCK + 1


@pytest.mark.parametrize(
    "series, easy, hard, budget",
    [
        (sf.q_ln_gamma, (1.5, 0.96), (1.5, 0.99), 1000),
        (sf.q_digamma, (1.5, 0.97), (1.5, 0.99), 1000),
        # above t0, where the kernel sums the exponential series in blocks
        (sf.kernel_derivative, (1, 20, 40.0), (1, 20, 2.5), 20),
        # near q = 1, where the recurrence shift is capped and blocks remain
        (_q_series_jet, (1.5, 0.9993), (1.5, 0.9996), _GRID_BUDGET),
    ],
    ids=["q_ln_gamma", "q_digamma", "kernel_derivative", "QSeriesTarget"],
)
def test_every_series_keeps_to_the_term_budget(series, easy, hard, budget):
    """A budget that is not a multiple of any block: the last block is
    clamped to it, a series that certifies there reports at most the budget,
    and one that needs more raises."""
    tight = sf.TruncationPolicy(max_terms=budget)
    assert series(*easy, tight).terms_used == tight.max_terms
    with pytest.raises(ConvergenceError, match=f"did not certify within {budget} terms"):
        series(*hard, tight)


def test_kernel_bernoulli_series_keeps_to_the_term_budget():
    """At t <= t0 the kernel sums the Bernoulli series term by term: a budget
    of exactly the terms it needs certifies, one term less raises, and so
    does a smaller eps than its table of coefficients can reach."""
    needed = sf.kernel_derivative(1, 20, 2.0).terms_used
    assert needed < len(sf._KERNEL_C)
    tight = sf.TruncationPolicy(max_terms=needed)
    assert sf.kernel_derivative(1, 20, 2.0, tight).terms_used == needed
    with pytest.raises(ConvergenceError, match=f"did not certify within {needed - 1} terms"):
        sf.kernel_derivative(1, 20, 2.0, sf.TruncationPolicy(max_terms=needed - 1))
    with pytest.raises(ConvergenceError, match="tabulated Bernoulli terms"):
        sf.kernel_derivative(1, 20, 2.0, sf.TruncationPolicy(eps=1e-60))


def test_grid_cells_keep_their_bits_alone_or_among_other_points():
    """A cell of the kernel-derivative grid and of the psi-family grid
    kernel has the same bits whether its point is computed alone, with one
    neighbour or among 40 points, on both sides of t0."""
    rng = np.random.default_rng(3)
    # at the first two, numpy's power on one element rounds otherwise than
    # in a larger array
    pts = np.concatenate([[2.637844611528822, 13.62406015037594],
                          np.exp(rng.uniform(math.log(1e-2), math.log(100.0), 38))])
    kernels = [functools.partial(sf._kernel_grid, n, n, policy=None) for n in range(1, 17)]
    kernels += [functools.partial(sf._psi_kernel, n0, K, eps=1e-16)
                for n0, K in ((-1, 12), (0, 0), (2, 0), (3, 12))]
    for kernel in kernels:
        among = kernel(pts)
        for p in range(len(pts)):
            for some in (pts[p:p + 1], pts[[p, p - 1]]):
                cells = kernel(some)
                for a, b in zip(among[:3], cells[:3]):
                    assert a[..., p].tobytes() == b[..., 0].tobytes(), (kernel.args, pts[p])


def test_unit_ball_volume():
    within(sf.unit_ball_volume(0), 1.0, 1e-14)
    within(sf.unit_ball_volume(1), 2.0, 1e-13)
    within(sf.unit_ball_volume(2), math.pi, 1e-13)
    within(sf.unit_ball_volume(3), 4.0 * math.pi / 3.0, 1e-13)
    assert sf.unit_ball_volume(200).value > 0.0
    with pytest.raises(DomainError):
        sf.unit_ball_volume(-1)
