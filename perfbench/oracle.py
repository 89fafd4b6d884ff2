"""40-digit mpmath references for the eval-mix certificate check.

The q-series are summed to convergence by routes that differ from the
package's.  The term-wise sum S_n(x) = sum_k k^n q^(kx) / (1 - q^k) is
regrouped as sum_m Li_{-n}(q^(x+m)) for m < M, plus the k-series of the
remainder, sum_k k^n q^(k(x+M)) / (1 - q^k), which converges like
q^(kM) once q^M is small.  The head needs about ln(1e3)/(-ln q) terms
(about 690 at q = 0.99) at any x, where the plain k-series at x = 0.01
needs millions.  The q-gamma product is split at the same M; its remainder
is -sum_j (q^(j(M+1)) - q^(j(M+x))) / (j (1 - q^j)).
"""

from __future__ import annotations

import functools
import math

from mpmath import mp, mpf

DIGITS = 40
_SPLIT = 1e-3  # q^M at most this before the remainder series takes over


@functools.cache
def _eulerian(n: int) -> tuple[int, ...]:
    """Row n of the Eulerian numbers A(n, 0..n-1)."""
    row = [1]
    for m in range(2, n + 1):
        row = [
            (j + 1) * (row[j] if j < len(row) else 0) + (m - j) * (row[j - 1] if j >= 1 else 0)
            for j in range(m)
        ]
    return tuple(row)


def _li_neg(n: int, r):
    """Polylogarithm Li_{-n}(r) = sum_k k^n r^k for 0 < r < 1."""
    if n == 0:
        return r / (1 - r)
    poly = mpf(0)
    for c in reversed(_eulerian(n)):
        poly = poly * r + c
    return r * poly / (1 - r) ** (n + 1)


def _split_index(x, q) -> int:
    return max(0, math.ceil(math.log(_SPLIT) / math.log(float(q)) - float(x)))


def _converged(term, total, k: int, n: int) -> bool:
    return k > n and abs(term) <= mpf(10) ** (-DIGITS - 8) * abs(total)


def _q_sum(n: int, x, q):
    """S_n(x) = sum_{k>=1} k^n q^(kx) / (1 - q^k), 0 < q < 1."""
    M = _split_index(x, q)
    total = mpf(0)
    for m in range(M):
        total += _li_neg(n, q ** (x + m))
    r = q ** (x + M)
    k = 1
    while True:
        term = mpf(k) ** n * r**k / (1 - q**k)
        total += term
        if _converged(term, total, k, n):
            return total
        k += 1


def _q_ln_gamma(x, q):
    M = _split_index(x, q)
    total = (1 - x) * mp.log(1 - q)
    for m in range(M):
        total += mp.log(1 - q ** (m + 1)) - mp.log(1 - q ** (m + x))
    j = 1
    while True:
        term = (q ** (j * (M + 1)) - q ** (j * (M + x))) / (j * (1 - q**j))
        total -= term
        if _converged(term, total, j, 0):
            return total
        j += 1


def reference(name: str, args: tuple):
    """The exact value of ``name(*args)`` as an mpf at DIGITS digits."""
    with mp.workdps(DIGITS):
        if name == "ln_gamma":
            return mp.loggamma(mpf(args[0]))
        if name == "digamma":
            return mp.digamma(mpf(args[0]))
        if name == "polygamma":
            n, x = args
            return mp.psi(n, mpf(x))
        if name == "kernel_derivative":
            n, k, t = args
            return mp.diff(lambda u: u**n / -mp.expm1(-u), mpf(t), k)
        x, q = mpf(args[-2]), mpf(args[-1])
        if name == "q_digamma":
            return -mp.log(1 - q) + mp.log(q) * _q_sum(0, x, q)
        if name == "q_polygamma":
            n = args[0]
            return mp.log(q) ** (n + 1) * _q_sum(n, x, q)
        if name == "q_gamma":
            return mp.exp(_q_ln_gamma(x, q))
    raise ValueError(f"no reference for {name!r}")


def certificate_holds(name: str, args: tuple, value: float, abs_error: float) -> tuple[bool, float]:
    """(|value - reference| <= abs_error, |value - reference| / abs_error)."""
    with mp.workdps(DIGITS):
        err = abs(mpf(value) - reference(name, args))
        if abs_error > 0:
            ratio = float(err / abs_error)
        else:
            ratio = 0.0 if err == 0 else math.inf
        return err <= abs_error, ratio
