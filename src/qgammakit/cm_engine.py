"""Numerical verification of complete monotonicity and chained inequalities.

Targets are registered, known families only: each target knows its k-th
derivative in closed form (term-wise differentiated series with certified
tails).  One class attribute, ``Target.max_order`` = 12, caps the orders a
check asks for.  A target's jet ``jet(x, K)`` gives the Enclosures of orders
0..K at x in one pass (Taylor-mode propagation): Leibniz and linear
combinations evaluate each inner order once per point, and a q-series
shares its blocks of terms across the orders: one exp per term, and order
k is order k-1 times j.

``jet_grid(xs, K)`` gives orders 0..K at every point of a grid as arrays:
values and errors of shape (K+1, P), and ``ok`` of shape (P,), False where
the scalar jet raises DomainError/ConvergenceError.  A q-series sums each
block for many points at once, in chunks of points that keep every block
temporary within 2**14 float64 elements (or one row of the block), and the
composite targets update whole (K+1, P) slices per term or Leibniz index,
each cell in the scalar operation order, so each column holds exactly the
bits of the scalar jet.  Every rounding slop is ``specfun._slop``'s
ops*eps*sum|summands|.  A sign-pattern check asks for one grid.

A q-series, ``QSeriesTarget``, is data: psi_q terms and a constant, from
which it derives its coefficients, tail bound and rounding slop.

The psi-family leaves (``LnGammaFn``, ``PolyGammaShift``, ``QLnGammaFn``,
``QPolyGammaShift``) are one class, ``_PsiLeaf``: order k is the evaluator
of order m + k at x + a, with or without q, picked by ``specfun._psi``, and
read through specfun's run-scoped cell table, one scalar evaluator call per
cell.  Within a verification run each (order, point) cell is evaluated
once, whether a scalar call, a leaf's grid or ``PolyProductTarget``'s grid
of polygamma orders asks for it, and keeps the bits of the scalar jet.
One function, ``_rows``, fills the grid of every leaf: a row per order,
a column per point, and a point fails where its first failing order does.

A monotonicity probe reads a target's orders 0 and 1, with their errors,
off one grid.

Each check builds its cells (margin, certified error, lhs, rhs) and hands
them to ``_decide``, the one place that computes tau, swamping, the strict
spot check, the worst margin and the status pass / fail / inconclusive.  A
swamped cell or a point that cannot be evaluated is inconclusive, never
silently passed.

Violations are sorted by (point, order), so a report depends only on the
check's inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DomainError, PreconditionError, UsageError
from .specfun import DEFAULT_POLICY, _blocks, _psi, _slop, Enclosure, TruncationPolicy

__all__ = [
    "GridSpec",
    "CLAIM_KINDS",
    "Violation",
    "VerificationReport",
    "nth_derivative",
    "check_sign_pattern",
    "check_chain",
    "check_majorization",
    "monotonicity_probe",
    "make_target",
    "merge_reports",
]

CLAIM_KINDS = (
    "completely_monotonic",
    "log_completely_monotonic",
    "increasing",
    "decreasing",
    "nonneg",
    "chain_lt",
    "chain_le",
)

# largest block temporary of a grid of q-series, in float64 elements
_CHUNK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class GridSpec:
    """Deterministic 1-d sampling: `points` values on [lo, hi], linear or log."""

    lo: float
    hi: float
    points: int
    spacing: str = "log"

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise UsageError(f"need finite lo < hi, got [{self.lo}, {self.hi}]")
        if self.points < 2:
            raise UsageError("need at least 2 grid points")
        if self.spacing not in ("linear", "log"):
            raise UsageError(f"unknown spacing {self.spacing!r}")
        if self.spacing == "log" and self.lo <= 0.0:
            raise UsageError("log spacing requires lo > 0")

    def values(self) -> list[float]:
        if self.spacing == "linear":
            return [float(v) for v in np.linspace(self.lo, self.hi, self.points)]
        return [float(v) for v in np.geomspace(self.lo, self.hi, self.points)]

    def with_points(self, points: int) -> "GridSpec":
        return GridSpec(self.lo, self.hi, points, self.spacing)


@dataclass(frozen=True)
class Violation:
    point: float
    params: dict
    order: int
    lhs: float
    rhs: float
    margin: float


@dataclass
class VerificationReport:
    claim_id: str
    status: str  # "pass" | "fail" | "inconclusive"
    worst_margin: float
    violations: list[Violation]
    grid: GridSpec | None = None
    orders_checked: int = 0

    def __post_init__(self):
        self.violations = sorted(self.violations, key=lambda v: (v.point, v.order))


def merge_reports(claim_id: str, reports: list[VerificationReport]) -> VerificationReport:
    """Combine sub-check reports into one report for a claim."""
    if not reports:
        return VerificationReport(claim_id, "pass", math.inf, [])
    statuses = {r.status for r in reports}
    return VerificationReport(
        claim_id,
        _status("fail" in statuses, "inconclusive" in statuses),
        min(r.worst_margin for r in reports),
        [v for r in reports for v in r.violations],
        grid=reports[0].grid,
        orders_checked=max(r.orders_checked for r in reports),
    )


def _status(fail: bool, unsure: bool) -> str:
    """The status of a check, and of a claim from its checks: a violation
    fails, else a doubt is inconclusive, else pass."""
    return "fail" if fail else ("inconclusive" if unsure else "pass")


def _decide(label, tol, cells, failed, violation, spots=None, **report) -> VerificationReport:
    """The report of a check from its cells (margin, certified error, lhs,
    rhs): the one tolerance rule.  tau = tol max(1, |lhs|, |rhs|) over the
    finite values; a cell is swamped where its error exceeds |margin| + tau,
    and a violation, ``violation(i)``, where it is not swamped and
    margin < -tau.  A strict check passes ``spots`` = (its number of
    points, each cell's point): with no violation, each unswamped cell at a
    spot point (three interior points, or all of fewer than four) with
    margin <= 10 tau is one, marked ``strict_spot``.  A violation fails the
    check, a swamped cell or ``failed`` (a cell that could not be evaluated)
    makes it inconclusive; a NaN margin decides nothing.
    """
    cells = np.asarray(cells, dtype=float).reshape(-1, 4)
    margin, err = cells[:, 0], cells[:, 1]
    mags = np.abs(cells[:, 2:])
    mags[~np.isfinite(mags)] = 0.0
    tau = tol * mags.max(axis=1, initial=1.0)
    swamped = err > np.abs(margin) + tau
    violations = [violation(i) for i in np.flatnonzero(~swamped & (margin < -tau)).tolist()]
    if spots is not None and not violations:
        n, point = spots
        at = range(n) if n < 4 else (n // 4, n // 2, (3 * n) // 4)
        near = np.flatnonzero(~swamped & (margin <= 10.0 * tau)).tolist()
        violations = [violation(i) for i in near if point[i] in at]
        violations = [replace(v, params=v.params | {"strict_spot": True}) for v in violations]
    status = _status(bool(violations), failed or bool(swamped.any()))
    # min(inf, *margin) as Python takes it: NaN never wins, and of equal
    # smallest values (0.0 and -0.0) the first one does
    return VerificationReport(label, status, min([math.inf, *margin.tolist()]), violations, **report)


# ---------------------------------------------------------------------------
# analytic target families
# ---------------------------------------------------------------------------


class _JetGrid:
    """Orders 0..K of a target at P points.

    ``values``, ``errors`` and ``terms`` have shape (K+1, P): column p is the
    jet at point p.  ``failures[p]`` is the DomainError/ConvergenceError the
    scalar jet raises at point p, or None; such a column holds nan.
    """

    def __init__(self, values, errors, terms, failures):
        self.values, self.errors, self.terms = values, errors, terms
        self.failures = failures

    @property
    def ok(self) -> np.ndarray:
        return np.array([f is None for f in self.failures], dtype=bool)

    def fail(self, p: int, exc: Exception) -> None:
        self.failures[p] = exc
        self.values[:, p] = self.errors[:, p] = np.nan

    def jet(self, p: int) -> list[Enclosure]:
        """The scalar jet at point p; re-raises the error it failed with."""
        if self.failures[p] is not None:
            raise self.failures[p]
        return [
            Enclosure(v, e, t)
            for v, e, t in zip(
                self.values[:, p].tolist(), self.errors[:, p].tolist(), self.terms[:, p].tolist()
            )
        ]


def _rows(ys: np.ndarray, orders, row) -> _JetGrid:
    """Row i holds the Enclosures ``row(orders[i])(y)`` at every y of ``ys``.

    ``row(n)`` gives the function y -> Enclosure of order n.  A point fails
    where its first failing order raises DomainError/ConvergenceError, as
    in the scalar jet, and its column holds nan.
    """
    yl = ys.tolist()
    failures = [None] * len(yl)
    rows = []
    for n in orders:
        fn = row(n)
        cells = []
        for p, y in enumerate(yl):
            try:
                e = fn(y)
                cells.append((e.value, e.abs_error, e.terms_used))
            except (DomainError, ConvergenceError) as exc:
                if failures[p] is None:
                    failures[p] = exc
                cells.append((math.nan, math.nan, 0))
        rows.append(cells)
    a = np.array(rows, dtype=float).reshape(len(rows), len(yl), 3)
    grid = _JetGrid(a[:, :, 0], a[:, :, 1], a[:, :, 2].astype(np.int64), failures)
    failed = [p for p, f in enumerate(failures) if f is not None]
    grid.values[:, failed] = grid.errors[:, failed] = np.nan
    return grid


class Target:
    """A function of x whose derivatives are evaluated in closed form, as
    Enclosures.

    ``deriv(k, x)`` gives one order, ``jet(x, K)`` orders 0..K at one point,
    and ``jet_grid(xs, K)`` orders 0..K at every point of a grid.  All three
    go through ``_jets``, the grid at once: ``jet`` is the grid at one point
    and ``deriv`` reads one order off the jet.  A subclass defines
    ``deriv``, ``_jets`` or both.  Leaf targets define ``deriv``, and the
    default ``_jets`` fills the grid with it through ``_rows``; the
    psi-family leaves (``_PsiLeaf``) define both over one row function, so
    that a scalar call and a grid read the same cells.  ``QSeriesTarget``
    and the composite targets define ``_jets`` only, and bind
    ``deriv = Target.deriv`` by name, so that each class has a ``deriv`` of
    its own to wrap and time (``perfbench/tracer.py`` counts the calls per
    class).  ``max_order`` is the highest order ``nth_derivative`` and
    ``check_sign_pattern`` ask any target for.
    """

    max_order = 12

    def deriv(self, k: int, x: float, policy: TruncationPolicy | None = None) -> Enclosure:
        return self.jet(x, k, policy)[k]

    def jet(self, x: float, K: int, policy: TruncationPolicy | None = None) -> list[Enclosure]:
        return self._jets(np.array([x], dtype=float), K, policy).jet(0)

    def jet_grid(self, xs, K: int, policy: TruncationPolicy | None = None):
        """Orders 0..K at every point of ``xs``: (values, errors, ok).

        ``values`` and ``errors`` have shape (K+1, P), one column per point,
        and hold exactly the bits ``jet(x, K)`` gives.  ``ok`` has shape
        (P,) and is False where ``jet(x, K)`` raises DomainError or
        ConvergenceError; the columns of such a point hold nan.
        """
        grid = self._jets(np.asarray(xs, dtype=float), K, policy)
        return grid.values, grid.errors, grid.ok

    def _jets(self, xs: np.ndarray, K: int, policy) -> _JetGrid:
        return _rows(xs, range(K + 1), lambda k: lambda x: self.deriv(k, x, policy))


def _exact(value: float) -> Enclosure:
    return Enclosure(value, 0.0, 0)


class Const(Target):
    def __init__(self, c: float):
        self.c = c

    def deriv(self, k, x, policy=None):
        return _exact(self.c if k == 0 else 0.0)


class Affine(Target):
    def __init__(self, a0: float, a1: float):
        self.a0, self.a1 = a0, a1

    def deriv(self, k, x, policy=None):
        if k == 0:
            # two roundings, relative to the summands rather than to the sum
            return Enclosure(self.a0 + self.a1 * x, _slop(2, abs(self.a0) + abs(self.a1 * x)), 1)
        return _exact(self.a1 if k == 1 else 0.0)


class PowShift(Target):
    """(x + c)^p for real p; falling-factorial derivatives."""

    def __init__(self, c: float, p: float):
        self.c, self.p = c, p

    def deriv(self, k, x, policy=None):
        y = x + self.c
        if y <= 0.0:
            raise DomainError(f"(x + {self.c}) must be positive, got x={x}")
        coef = 1.0
        for j in range(k):
            coef *= self.p - j
        if coef == 0.0:
            return _exact(0.0)
        v = coef * y ** (self.p - k)
        # coef rounds up to k times, and the rounding of y = x + c moves
        # y^(p - k) by |p - k| eps/2 relatively
        return Enclosure(v, _slop(4 + k + abs(self.p - k), v), 1)


class LogShift(Target):
    """ln(x + c)."""

    def __init__(self, c: float):
        self.c = c

    def deriv(self, k, x, policy=None):
        y = x + self.c
        if y <= 0.0:
            raise DomainError(f"(x + {self.c}) must be positive, got x={x}")
        # the rounding of y = x + c moves ln y by eps/2 and y^(-k) by k eps/2
        # relatively
        if k == 0:
            v = math.log(y)
            return Enclosure(v, _slop(4, abs(v) + 1.0), 1)
        v = (-1.0) ** (k - 1) * math.factorial(k - 1) * y ** (-k)
        return Enclosure(v, _slop(4 + k, v), 1)


class XLogX(Target):
    """x ln x."""

    def deriv(self, k, x, policy=None):
        if x <= 0.0:
            raise DomainError(f"x must be positive, got {x}")
        if k == 1:
            # ln x and 1 cancel near x = 1/e: the slop is over both summands
            lx = math.log(x)
            return Enclosure(lx + 1.0, _slop(4, abs(lx) + 1.0), 1)
        if k == 0:
            v = x * math.log(x)
        else:
            v = (-1.0) ** k * math.factorial(k - 2) * x ** (1 - k)
        return Enclosure(v, _slop(4, v), 1)


class _PsiLeaf(Target):
    """psi^(m)(x + a), or psi_q^(m)(x + a) when q is given: order k is the
    evaluator of order m + k at x + a (``specfun._psi``)."""

    def __init__(self, m: int, a: float = 0.0, q: float | None = None):
        self.m, self.a, self.q = m, a, q

    def deriv(self, k, x, policy=None):
        return _psi(self.m + k, self.q, policy)(x + self.a)

    def _jets(self, xs, K, policy):
        orders = range(self.m, self.m + K + 1)
        return _rows(xs + self.a, orders, lambda n: _psi(n, self.q, policy))


class LnGammaFn(_PsiLeaf):
    def __init__(self):
        super().__init__(-1)


class PolyGammaShift(_PsiLeaf):
    """psi^(m)(x + a); order 0 is psi itself."""

    def __init__(self, m: int, a: float = 0.0):
        super().__init__(m, a)


class QLnGammaFn(_PsiLeaf):
    def __init__(self, q: float):
        super().__init__(-1, q=q)


class QPolyGammaShift(_PsiLeaf):
    """psi_q^(m)(x + a)."""

    def __init__(self, m: int, q: float, a: float = 0.0):
        super().__init__(m, a, q)


class QSeriesTarget(Target):
    """const (-ln(1 - q)) + sum_i w_i (d/dx)^(m_i) psi_{q^(r_i)}((x + d_i)/r_i),
    0 < q < 1, where (d/dx)^(-1) psi_q is ln Gamma_q.

    A term is (w, m, d) or (w, m, d, r), with m >= -1 and r > 0 (1 by
    default).  With L = ln q, psi_{q^r}(y/r) = -ln(1 - q^r) + r L sum_{j>=1}
    q^(jy)/(1 - q^(jr)), so the terms make one series on x + shift > 0,
    shift = min d_i: C + (-L) sum_{j>=1} q^(j(x + shift)) c_j, where
    c_j = -sum_i g_i(j), g_i(j) = w_i r_i (jL)^(m_i) q^(j(d_i - shift)) /
    (1 - q^(j r_i)).  C sums w (-ln(1 - q^r)) over the m = 0 terms and
    ``const``, which weighs -ln(1 - q) as an r = 1 term does; the weights of
    one r are summed exactly first, so constants that cancel, as those of a
    difference of psi_q do, add 0 and no error.

    An ln Gamma_q term, m = -1, needs r = 1, and the weights of all such
    terms must sum to 0: ln Gamma_q(y) = (1 - y) ln(1 - q) + sum_{j>=1}
    (q^(jy) - q^j)/(j (1 - q^j)), so with sum w = 0 only the series and
    sum w d times -ln(1 - q) are left, and sum w d joins the r = 1 weights
    of C.  Anything else raises UsageError.

    The tail bound takes |c_j| <= amp j^jpow, with amp = sum |w_i| r_i
    |L|^(m_i) / (1 - q^(r_i)) and jpow = max m_i; the rounding slop weighs
    c_j by sum_i |g_i| (1 + |j (d_i - shift) L|), so that a c_j that
    cancels is covered (``_jets``).
    """

    def __init__(self, q: float, terms, const: float = 0.0):
        if not (0.0 < q < 1.0):
            raise DomainError(f"q must lie in (0, 1), got {q}")
        self.q, self.const = q, const
        self.terms = tuple((*t, 1.0)[:4] for t in terms)
        log_gamma = [(w, d, r) for w, m, d, r in self.terms if m == -1]
        if any(m < -1 for _, m, _, _ in self.terms):
            raise UsageError("a q-series term needs order m >= -1")
        if any(r != 1.0 for _, _, r in log_gamma) or math.fsum(w for w, _, _ in log_gamma):
            raise UsageError("ln Gamma_q terms (m = -1) need r = 1 and weights that sum to 0")
        lnq = math.log(q)
        self.shift = min(d for _, _, d, _ in self.terms)
        self.jpow = max(m for _, m, _, _ in self.terms)
        self.amp = sum(abs(w) * r * abs(lnq)**m / -math.expm1(r * lnq) for w, m, _, r in self.terms)
        # g_i(j) = w r (jL)^m exp(j a) / -expm1(j b)
        self._g = [(w * r, m, (d - self.shift) * lnq, r * lnq) for w, m, d, r in self.terms]
        # (q^r, the m = 0 weights of r summed, const and the w d of ln Gamma_q
        # among those of r = 1); q^r rounds by p/(1 - p) in ln(1 - p), and
        # each w d by eps/2 of itself
        zeroth = [(w, r) for w, m, _, r in self.terms if m == 0] + ([(const, 1.0)] if const else [])
        zeroth += [(w * d, 1.0) for w, d, _ in log_gamma]
        parts = [(q**r, math.fsum(w for w, ri in zeroth if ri == r))
                 for r in dict.fromkeys(r for _, r in zeroth)]
        self._const = sum(w * -math.log1p(-p) for p, w in parts)
        magnitude = sum(abs(w) * (p / (1.0 - p) - math.log1p(-p)) for p, w in parts)
        self._const_err = _slop(3 + len(parts), magnitude) + _slop(
            1, -math.log1p(-q) * sum(abs(w * d) for w, d, _ in log_gamma))

    deriv = Target.deriv

    def _coeffs(self, j):
        """c_j and its slop weight on the block ``j``."""
        lnq = math.log(self.q)
        c, weight = np.zeros_like(j), np.zeros_like(j)
        for wr, m, a, b in self._g:
            ja = j * a
            g = wr * (j * lnq) ** m * np.exp(ja) / -np.expm1(j * b)
            c -= g
            weight += np.abs(g) * (1.0 - ja)
        return c, weight

    def _jets(self, xs, K, policy):
        """One block loop for orders 0..K at every point.

        The rows (points x block) of a block share its j and coefficients,
        while every (order, point) keeps its own sums, tail test and stop,
        so each stops exactly where a lone order at a lone point would.
        Points run in chunks, so that no temporary holds more than
        _CHUNK_ELEMENTS elements or one row of the block.

        A term takes one exp, of e = j (x + shift) ln q, and t = exp(e) c_j;
        order k is order k-1 times j (Taylor mode), up to the chunk's
        highest order that is still active.  In the rounding slop, term k
        weighs exp(e) j^k (c_j's weight) (1 + |e| + k): exp turns the |e|
        ulp error of e into a relative error, and k products round.  Where
        an exp or a product is subnormal or 0, its error is absolute, so
        order k adds the floor (k + 3) ulp(0) J max(amp, 1)
        (hi + 1)^max(k + jpow, 0) per block of J terms, times |pref|, plus
        ulp(0) for the product with pref.  Past a block, the terms'
        bound amp j^n q^(jy), n = k + jpow, falls by at most
        ((hi + 2)/(hi + 1))^n q^y a step, or by q^y where n < 0 (an
        ln Gamma_q term at order 0).
        """
        policy = policy or DEFAULT_POLICY
        q, lnq, shift = self.q, math.log(self.q), self.shift
        P = len(xs)
        grid = _JetGrid(
            np.full((K + 1, P), np.nan), np.full((K + 1, P), np.nan),
            np.zeros((K + 1, P), dtype=np.int64), [None] * P,
        )
        for p, x in enumerate(xs.tolist()):
            if x + shift <= 0.0:
                grid.fail(p, DomainError(f"x + {shift} must be positive, got x={x}"))
        # from here on, column i is the point good[i]
        good = np.flatnonzero(grid.ok)
        active = np.ones((K + 1, len(good)), dtype=bool)
        total = np.zeros(active.shape)
        abs_total = np.zeros(active.shape)
        floor = np.zeros(K + 1)
        # T^(k) = C[k=0] + pref[k] * sum j^k ...
        pref = np.array([-lnq * lnq**k for k in range(K + 1)])
        const, const_err = np.zeros(K + 1), np.zeros(K + 1)
        const[0], const_err[0] = self._const, self._const_err
        y = xs[good] + shift
        rate = y * lnq
        qy = np.array([q**v for v in y.tolist()])
        powers = [k + self.jpow for k in range(K + 1)]
        try:
            for j0, hi in _blocks(policy, "combined q-series (q={}, K={})", q, K):
                j = np.arange(j0 + 1, hi + 1, dtype=float)
                c, weight = self._coeffs(j)
                live = np.flatnonzero(active.any(axis=0))
                step = max(1, _CHUNK_ELEMENTS // len(j))
                for c0 in range(0, len(live), step):
                    pts = live[c0:c0 + step]
                    # the chunk's points where order k already stopped are
                    # summed along; their recorded values stay
                    wanted = active[:, pts].any(axis=1).tolist()
                    top = max(k for k in range(K + 1) if wanted[k])
                    e = np.multiply.outer(rate[pts], j)
                    w = np.abs(e) + 1.0
                    np.exp(e, out=e)
                    t = e * c
                    u = np.multiply(e, weight, out=e)  # exp(e) j^k weight
                    wt = np.empty_like(t)  # u (1 + |e| + k)
                    for k in range(top + 1):
                        if k:
                            t *= j
                            u *= j
                        if wanted[k]:
                            total[k, pts] += t.sum(axis=1)
                            np.add(w, k, out=wt)
                            wt *= u
                            abs_total[k, pts] += wt.sum(axis=1)
                with np.errstate(divide="ignore", invalid="ignore"):
                    rho = np.multiply.outer(
                        [((hi + 2.0) / (hi + 1.0)) ** max(n, 0) for n in powers], qy[live]
                    )
                    far = [q**v for v in ((hi + 1.0) * y[live]).tolist()]
                    hpow = np.array([(hi + 1.0) ** n for n in powers])
                    tail = np.multiply.outer(self.amp * hpow, far) / (1.0 - rho)
                floor += (max(self.amp, 1.0) * len(j)) * np.maximum(hpow, 1.0)
                sums = total[:, live]
                done = active[:, live] & (rho < 1.0) & (tail <= policy.eps * (1.0 + np.abs(sums)))
                if done.any():
                    apref = np.abs(pref)[:, None]
                    slop = _slop(2.0 + math.log2(max(hi, 2)), apref) * abs_total[:, live]
                    cols = good[live]
                    grid.values[:, cols] = np.where(
                        done, const[:, None] + pref[:, None] * sums, grid.values[:, cols]
                    )
                    ulp0 = math.ulp(0.0)
                    under = apref * (ulp0 * (np.arange(K + 1) + 3.0) * floor)[:, None] + ulp0
                    err = apref * tail + slop + const_err[:, None] + under
                    grid.errors[:, cols] = np.where(done, err, grid.errors[:, cols])
                    grid.terms[:, cols] = np.where(done, hi, grid.terms[:, cols])
                    active[:, live] &= ~done
                if not active.any():
                    break
        except ConvergenceError as exc:
            for p in good[active.any(axis=0)].tolist():
                grid.fail(p, ConvergenceError(f"{exc} at x={xs[p]}"))
        return grid


class ExpNegX(Target):
    def deriv(self, k, x, policy=None):
        v = (-1.0) ** k * math.exp(-x)
        return Enclosure(v, _slop(2, v), 1)


class SinPlus2(Target):
    """sin(x) + 2: a smooth positive function that is not completely monotone."""

    def deriv(self, k, x, policy=None):
        cyc = k % 4
        if cyc == 0:
            v = math.sin(x) + (2.0 if k == 0 else 0.0)
        elif cyc == 1:
            v = math.cos(x)
        elif cyc == 2:
            v = -math.sin(x)
        else:
            v = -math.cos(x)
        return Enclosure(v, _slop(4, abs(v) + 1.0), 1)


class MonomialPolyGamma(Target):
    """sign * x^p * psi^(m)(x + a) with integer p >= 0 (Leibniz derivatives)."""

    def __init__(self, p: int, m: int, a: float = 0.0, sign: float = 1.0):
        self.p, self.m, self.a, self.sign = p, m, a, sign

    deriv = Target.deriv

    def _jets(self, xs, K, policy):
        # psi^(m + i)(x + a) for i = 0..K, each evaluated once
        g = PolyGammaShift(self.m, self.a)._jets(xs, K, policy)
        xl = xs.tolist()
        val = np.zeros(g.values.shape)
        err = np.zeros(g.values.shape)
        for j in range(min(K, self.p) + 1):
            # rows k >= j gain C(k, j) p!/(p - j)! x^(p - j) psi^(m + k - j)
            w = [math.comb(k, j) * math.perm(self.p, j) for k in range(j, K + 1)]
            xc = np.array(w, dtype=float)[:, None] * np.array([x ** (self.p - j) for x in xl])
            val[j:] += xc * g.values[: K + 1 - j]
            err[j:] += np.abs(xc) * g.errors[: K + 1 - j]
        return _JetGrid(self.sign * val, err + _slop(4, val), np.ones_like(g.terms), g.failures)


class PolyProductTarget(Target):
    """sign * [A B - c C D] with A = (-1)^(m+1) psi^(m) etc., psi^(0) == -1.

    With the sign convention each factor of order >= 1 is positive; the
    order-0 factor is the constant 1 and its derivatives vanish.
    """

    def __init__(self, p: int, m: int, n: int, q_idx: int, c: float, sign: float = 1.0):
        self.orders = (m, n, p, q_idx)
        self.c = c
        self.sign = sign

    deriv = Target.deriv

    def _jets(self, xs, K, policy):
        # the four factors share their polygamma orders: evaluate each once
        needed = sorted({order + j for order in self.orders if order for j in range(K + 1)})
        psi = _rows(xs, needed, lambda n: _psi(n, None, policy))
        row = {n: i for i, n in enumerate(needed)}

        def factor(order: int):
            """(values, errors) of the factor's orders 0..K, shape (K+1, P)."""
            if order == 0:
                v = np.zeros((K + 1, len(xs)))
                v[0] = 1.0
                return v, np.zeros_like(v)
            i = row[order]
            s = 1.0 if order % 2 == 1 else -1.0
            return s * psi.values[i:i + K + 1], psi.errors[i:i + K + 1]

        (av, ae), (bv, be), (cv, ce), (dv, de) = (factor(order) for order in self.orders)
        val = np.zeros((K + 1, len(xs)))
        err = np.zeros((K + 1, len(xs)))
        for j in range(K + 1):
            # rows k >= j gain C(k, j) [A^(j) B^(k-j) - c C^(j) D^(k-j)]
            ck = np.array([math.comb(k, j) for k in range(j, K + 1)], dtype=float)[:, None]
            n = K + 1 - j
            val[j:] += ck * (av[j] * bv[:n] - self.c * cv[j] * dv[:n])
            err[j:] += ck * (
                np.abs(av[j]) * be[:n]
                + np.abs(bv[:n]) * ae[j]
                + self.c * (np.abs(cv[j]) * de[:n] + np.abs(dv[:n]) * ce[j])
            )
        ones = np.ones((K + 1, len(xs)), dtype=np.int64)
        return _JetGrid(self.sign * val, err + _slop(8, val), ones, psi.failures)


class DerivOffset(Target):
    """d^offset of another target, viewed as a target itself."""

    def __init__(self, base: Target, offset: int):
        self.base, self.offset = base, offset

    deriv = Target.deriv

    def _jets(self, xs, K, policy):
        g = self.base._jets(xs, K + self.offset, policy)
        off = self.offset
        return _JetGrid(g.values[off:], g.errors[off:], g.terms[off:], g.failures)


class LinComb(Target):
    """sum of coef * base(argscale * x + shift) terms."""

    def __init__(self, terms):
        # terms: iterable of (coef, target, shift) or (coef, target, shift, argscale)
        norm = []
        for t in terms:
            coef, target, shift = t[0], t[1], t[2]
            scale = t[3] if len(t) > 3 else 1.0
            norm.append((float(coef), target, float(shift), float(scale)))
        self.terms = tuple(norm)

    deriv = Target.deriv

    def _jets(self, xs, K, policy):
        val = np.zeros((K + 1, len(xs)))
        err = np.zeros((K + 1, len(xs)))
        terms = np.zeros((K + 1, len(xs)), dtype=np.int64)
        failures = [None] * len(xs)
        for coef, target, shift, scale in self.terms:
            g = target._jets(scale * xs + shift, K, policy)
            w = np.array([coef * scale**k for k in range(K + 1)])[:, None]
            val += w * g.values
            err += np.abs(w) * g.errors
            np.maximum(terms, g.terms, out=terms)
            failures = [f if f is not None else gf for f, gf in zip(failures, g.failures)]
        return _JetGrid(val, err + _slop(4, val), terms, failures)


class ExpNegForm:
    """A function f = exp(-H) presented through h' = -(ln f)' = H'.

    Bundles the target whose complete monotonicity witnesses logarithmic
    complete monotonicity of f.
    """

    def __init__(self, h_prime: Target):
        self.h_prime = h_prime


# name -> constructor registry for the known families
_TARGET_FAMILIES = {
    "ln_gamma": lambda **kw: LnGammaFn(),
    "digamma": lambda **kw: PolyGammaShift(0, kw.get("shift", 0.0)),
    "polygamma": lambda **kw: PolyGammaShift(kw["n"], kw.get("shift", 0.0)),
    "q_ln_gamma": lambda **kw: QLnGammaFn(kw["q"]),
    "q_digamma": lambda **kw: QPolyGammaShift(0, kw["q"], kw.get("shift", 0.0)),
    "q_polygamma": lambda **kw: QPolyGammaShift(kw["n"], kw["q"], kw.get("shift", 0.0)),
    "exp_neg": lambda **kw: ExpNegX(),
    "identity": lambda **kw: Affine(0.0, 1.0),
    "sin_plus_2": lambda **kw: SinPlus2(),
    "reciprocal": lambda **kw: PowShift(kw.get("shift", 0.0), -1.0),
    "log_shift": lambda **kw: LogShift(kw.get("shift", 0.0)),
    "x_log_x": lambda **kw: XLogX(),
}


def make_target(name: str, **params):
    """Construct a registered analytic target by family name."""
    try:
        family = _TARGET_FAMILIES[name]
    except KeyError:
        raise UsageError(f"unknown target family {name!r}") from None
    return family(**params)


def nth_derivative(target, k: int, x: float, policy: TruncationPolicy | None = None) -> Enclosure:
    """d^k/dx^k of a registered target at x, with a certified error."""
    if isinstance(target, str):
        target = make_target(target)
    if k < 0:
        raise UsageError(f"derivative order must be >= 0, got {k}")
    cap = target.max_order
    if k > cap:
        raise UsageError(f"order {k} exceeds the target's cap {cap}")
    return target.deriv(k, x, policy)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _grid_values(grid) -> list[float]:
    if isinstance(grid, GridSpec):
        return grid.values()
    return [float(v) for v in grid]


def check_sign_pattern(
    target,
    K: int,
    grid,
    claim: str,
    tol: float = 1e-12,
    jobs: int = 1,
    label: str = "sign",
    params: dict | None = None,
    strict: bool = False,
    policy: TruncationPolicy | None = None,
) -> VerificationReport:
    """Verify (-1)^k f^(k)(x) >= 0 for k = 0..K on the grid.

    For ``log_completely_monotonic`` the target must be an ExpNegForm and the
    same pattern is asserted for h' = -(ln f)' at orders 0..K-1.  Each
    (point, order) is a cell of ``_decide`` with lhs (-1)^k f^(k)(x) and
    rhs 0.  ``strict`` adds its spot check: at three interior grid points
    (every point of a grid of fewer than four) each cell that its error does
    not swamp needs a margin > 10 tau.
    The grid is evaluated in one ``jet_grid`` call.  A K that leaves no
    order to check (K < 1 for ``log_completely_monotonic``, K < 0 for
    ``completely_monotonic``) raises UsageError.  ``jobs`` is accepted for
    compatibility and ignored.
    """
    if claim == "log_completely_monotonic":
        if not isinstance(target, ExpNegForm):
            raise UsageError("log_completely_monotonic requires an ExpNegForm target")
        inner = target.h_prime
        orders = range(0, K)
    elif claim in ("completely_monotonic", "nonneg"):
        inner = target.h_prime if isinstance(target, ExpNegForm) else target
        orders = range(0, K + 1) if claim == "completely_monotonic" else range(0, 1)
    else:
        raise UsageError(f"claim {claim!r} is not a sign-pattern claim")
    if not orders:
        raise UsageError(f"{claim} with K={K} checks no order")
    cap = inner.max_order
    if orders[-1] > cap:
        raise UsageError(f"requested order exceeds the derivative cap {cap}")

    xs = _grid_values(grid)
    base_params = dict(params or {})
    n = len(orders)
    values, errors, ok = inner.jet_grid(xs, n - 1, policy)
    # cell (point, order), point-major: signed = (-1)^k f^(k)(x)
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)[:, None]
    signed = np.where(ok, values * sign, np.nan).T.ravel()
    cells = np.column_stack([signed, errors.T.ravel(), signed, np.zeros_like(signed)])

    def violation(i):
        p, k = divmod(i, n)
        s = float(signed[i])
        return Violation(xs[p], base_params | {"k": k}, k, s, 0.0, s)

    return _decide(
        label, tol, cells, not ok.all(), violation,
        spots=(len(xs), np.repeat(np.arange(len(xs)), n)) if strict else None,
        grid=grid if isinstance(grid, GridSpec) else None,
        orders_checked=orders[-1],
    )


def _as_value_err(v) -> tuple[float, float]:
    if isinstance(v, Enclosure):
        return v.value, v.abs_error
    return float(v), 0.0


def _column_reader(columns: dict, xs: list[float]):
    """read(key, x): the order-0 value of the target ``columns[key]`` at x.

    The first read of a key fills its column with one grid over the
    distinct values of ``xs``; a point where the grid fails re-raises its
    DomainError/ConvergenceError on every read.
    """
    distinct = list(dict.fromkeys(xs))
    filled = {}

    def read(key, x):
        col = filled.get(key)
        if col is None:
            grid = columns[key]._jets(np.array(distinct), 0, None)
            col = filled[key] = dict(zip(distinct, zip(grid.values[0].tolist(), grid.failures)))
        value, failure = col[x]
        if failure is not None:
            raise failure
        return value

    return read


def check_chain(
    exprs,
    points,
    claim: str = "chain_le",
    tol: float = 1e-12,
    jobs: int = 1,
    label: str = "chain",
    columns: dict | None = None,
) -> VerificationReport:
    """Assert adjacent ordering of >= 2 values at every parameter point.

    ``exprs`` is either one row function, ``row(p) -> [v0, v1, ...]``, or a
    list of callables, each mapping a parameter dict to one value; the list
    runs as the row ``lambda p: [e(p) for e in exprs]``.  A value is a float
    or an Enclosure.  A row function lets the values of a point share work,
    such as a bracket that gives both the lower and the upper end; a row
    with fewer than two values raises UsageError.  ``points`` is a non-empty
    sequence of non-empty parameter dicts; key 'x' is the reported point when
    present, else the first parameter.  ``columns`` maps keys to Targets:
    the row is then called as ``row(p, read)``, where ``read(key)`` is the
    order-0 value of ``columns[key]`` at the point, and each column is
    filled by one grid over the chain's distinct points the first time a
    row reads it, so that it lives only as long as the check.  A point
    whose row raises DomainError or ConvergenceError is inconclusive.  Each
    adjacent pair (lo, hi) is a cell of ``_decide`` with margin hi - lo.
    chain_lt adds the strict spot check of a strict sign pattern, and a
    pair that fails it is a violation (order i, lo, hi, margin) marked
    ``strict_spot``.  ``jobs`` is accepted for compatibility and ignored:
    points are evaluated sequentially.
    """
    if claim not in ("chain_lt", "chain_le"):
        raise UsageError(f"claim {claim!r} is not a chain claim")
    if callable(exprs):
        row_fn = exprs
    elif columns is not None:
        raise UsageError("a chain with columns needs a row function")
    elif len(exprs) < 2:
        raise UsageError("a chain needs at least two expressions")
    else:
        row_fn = lambda p: [e(p) for e in exprs]
    pts = list(points)
    if not pts or not all(pts):
        raise UsageError("a chain needs at least one point, each with a parameter")
    xs = [float(pt["x"] if "x" in pt else next(iter(pt.values()))) for pt in pts]
    read = None if columns is None else _column_reader(columns, xs)

    # a cell per adjacent pair (margin, error, lo, hi), and its (point, pair)
    cells, where, failed = [], [], False
    for p, pt in enumerate(pts):
        try:
            values = row_fn(pt) if read is None else row_fn(pt, lambda key: read(key, xs[p]))
            row = [_as_value_err(v) for v in values]
        except (DomainError, ConvergenceError):
            failed = True
            continue
        if len(row) < 2:
            raise UsageError(f"a chain row needs at least two values, got {len(row)}")
        for i, ((lo, elo), (hi, ehi)) in enumerate(zip(row, row[1:])):
            cells.append((hi - lo, elo + ehi, lo, hi))
            where.append((p, i))

    def violation(c):
        (p, i), (margin, _, lo, hi) = where[c], cells[c]
        return Violation(xs[p], dict(pts[p]), i, lo, hi, margin)

    spots = (len(pts), [p for p, _ in where]) if claim == "chain_lt" else None
    return _decide(label, tol, cells, failed, violation, spots)


def check_majorization(a, b) -> bool:
    """Prefix-sum dominance of two nondecreasing nonnegative sequences.

    Raises UsageError for unequal lengths, and PreconditionError for
    unsorted or negative input (never sorts silently); returns True iff
    every prefix sum of a is <= the corresponding prefix sum of b.
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    if len(a) != len(b):
        raise UsageError(f"sequences differ in length: {len(a)} vs {len(b)}")
    for name, seq in (("a", a), ("b", b)):
        if any(v < 0.0 for v in seq):
            raise PreconditionError(f"sequence {name} has negative entries")
        if any(seq[i] > seq[i + 1] for i in range(len(seq) - 1)):
            raise PreconditionError(f"sequence {name} is not nondecreasing")
    sa = sb = 0.0
    for va, vb in zip(a, b):
        sa += va
        sb += vb
        if sa > sb:
            return False
    return True


def _guarded(f, x):
    try:
        return f(x)
    except (DomainError, ConvergenceError):
        return None


def _target_orders(target: Target, K: int, xs: list[float]) -> list[list]:
    """The (value, abs_error) pairs of orders 0..K of ``target`` at ``xs``,
    None where ``target.deriv(k, x)`` raises, from one ``jet_grid`` call.
    The grid fails a point at every order when one order fails there, so
    such a point asks each order alone."""
    values, errors, ok = target.jet_grid(xs, K)
    rows = [list(zip(v, e)) for v, e in zip(values.tolist(), errors.tolist())]
    for p in np.flatnonzero(~ok).tolist():
        for k in range(K + 1):
            rows[k][p] = _guarded(lambda x: _as_value_err(target.deriv(k, x)), xs[p])
    return rows


def _probe_values(f, k: int, xs: list[float]) -> list:
    """(value, abs_error) of order k of a Target, or of the callable ``f``
    with zero error, at every x of ``xs``."""
    if isinstance(f, Target):
        return _target_orders(f, k, xs)[k]
    return [_guarded(lambda x: (f(x), 0.0), x) for x in xs]


def monotonicity_probe(
    fn,
    grid,
    direction: str,
    deriv_fn=None,
    value_range: tuple[float, float] | None = None,
    tol: float = 1e-12,
    jobs: int = 1,
    label: str = "monotone",
    params: dict | None = None,
) -> VerificationReport:
    """First-difference (and optional first-derivative) monotonicity check.

    ``fn`` and ``deriv_fn`` are callables x -> float, or Targets: a Target
    ``fn`` gives its order 0 and a Target ``deriv_fn`` its order 1, read off
    one ``jet_grid`` call (one call for both when they are the same Target).
    A point where a value raises DomainError or ConvergenceError is
    inconclusive, and so is a comparison whose Target errors exceed
    |margin| + tau, as in ``check_chain``; a callable's value has zero
    error.  ``value_range = (lo, hi)`` additionally asserts
    lo < f(x) <= hi at every grid point (the range-containment form used by
    the ratio targets).  ``jobs`` is accepted for compatibility and ignored.
    """
    if direction not in ("increasing", "decreasing"):
        raise UsageError(f"direction must be increasing|decreasing, got {direction!r}")
    xs = _grid_values(grid)
    base_params = dict(params or {})
    if isinstance(fn, Target) and deriv_fn is fn:
        vals, dvals = _target_orders(fn, 1, xs)
    else:
        vals = _probe_values(fn, 0, xs)
        dvals = None if deriv_fn is None else _probe_values(deriv_fn, 1, xs)
    sgn = 1.0 if direction == "increasing" else -1.0
    # (margin, certified error, lhs, rhs, the violation it would be) per comparison
    cells = []
    for i in range(len(xs) - 1):
        if vals[i] is not None and vals[i + 1] is not None:
            (lo, elo), (hi, ehi) = vals[i], vals[i + 1]
            m = sgn * (hi - lo)
            cells.append((m, elo + ehi, lo, hi, Violation(xs[i], base_params, 0, lo, hi, m)))
    for x, (d, e) in ((x, dv) for x, dv in zip(xs, dvals or []) if dv is not None):
        m = sgn * d
        cells.append((m, e, d, 0.0, Violation(x, base_params | {"via": "derivative"}, 1, d, 0.0, m)))
    if value_range is not None:
        lo, hi = value_range
        for x, (v, e) in ((x, ve) for x, ve in zip(xs, vals) if ve is not None):
            m = min(v - lo, hi - v)
            violation = Violation(x, base_params | {"via": "range"}, 0, v, lo if v - lo < hi - v else hi, m)
            cells.append((m, e, v, 0.0, violation))
    failed = None in vals or None in (dvals or [])
    return _decide(
        label, tol, [c[:4] for c in cells], failed, lambda i: cells[i][4],
        grid=grid if isinstance(grid, GridSpec) else None,
        orders_checked=1 if deriv_fn is not None else 0,
    )
