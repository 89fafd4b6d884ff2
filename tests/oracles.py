"""Independent high-precision oracles (mpmath, 50 digits).

These evaluate the defining series/products directly and are kept separate
from the package code paths they check.  Frozen constants below were
produced by these oracles.
"""

from mpmath import mp, mpf, log, exp

mp.dps = 50


def qgamma_hp(x, q, terms=6000):
    """Gamma_q via direct product summation in log space."""
    x, q = mpf(x), mpf(q)
    tot = (1 - x) * log(1 - q)
    for n in range(terms):
        tot += log(1 - q ** (n + 1)) - log(1 - q ** (n + x))
    return exp(tot)


def qdigamma_hp(x, q, terms=6000):
    """psi_q via direct series summation."""
    x, q = mpf(x), mpf(q)
    s = mpf(0)
    for n in range(1, terms):
        s += q ** (n * x) / (1 - q**n)
    return -log(1 - q) + log(q) * s


def qpolygamma_hp(n, x, q, terms=6000):
    """psi_q^(n) via the term-wise differentiated series."""
    x, q = mpf(x), mpf(q)
    s = mpf(0)
    for k in range(1, terms):
        s += mpf(k) ** n * q ** (k * x) / (1 - q**k)
    return log(q) ** (n + 1) * s


def polygamma_hp(n, x, terms=200000):
    """psi^(n) via direct summation with an integral tail bound at 50 digits."""
    from mpmath import psi

    return psi(n, mpf(x))


def log_mean_hp(r, a, b):
    """L_r(a, b), a != b, from its definition."""
    a, b = mpf(a), mpf(b)
    if r == 0:
        return (b - a) / (log(b) - log(a))
    if r == 1:
        return exp((b * log(b) - a * log(a)) / (b - a) - 1)
    r = mpf(r)
    return ((b**r - a**r) / (r * (b - a))) ** (1 / (r - 1))


# frozen oracle outputs (see the functions above)
QGAMMA_HALF_HALF = 1.5720327257863238
QDIGAMMA_1_HALF = -0.42052903435604577
QPOLYGAMMA_1_1_HALF = 1.3183793521481788
ALZER_U_HALF_HALF = 0.271553303163612
ALZER_V_HALF_HALF = 0.32612474834866234
EQ42_AT_1 = 0.3016942779586569  # (pi^2/6)^2 - 2 zeta(3)
PSI_HALF = -1.9635100260214235  # -gamma - 2 ln 2
ZETA2 = 1.6449340668482264
NEG_TWO_ZETA3 = -2.4041138063191885
IDENTRIC_1_E = 1.7895723968418336  # exp(1/(e-1))
G0_AT_1 = -0.20754636565543919
INV_GAMMA_1P5 = 1.1283791670955126
KERNEL_H_1 = 1.5819767068693265
KERNEL_H_2 = 2.3130352854993315
BALL1_RATIO = 1.2732395447351628  # 4/pi
BALL2_RATIO = 1.1780972450961724  # 3 pi / 8
EQ13_N2_EXACT = 0.4052847345693511  # 4/pi^2
