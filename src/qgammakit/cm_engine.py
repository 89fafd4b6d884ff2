"""Numerical verification of complete monotonicity and chained inequalities.

Targets are registered, known families only: each target knows its k-th
derivative in closed form (term-wise differentiated series with certified
tails).  One class attribute, ``Target.max_order`` = 12, caps the orders a
check asks for.  A target's jet ``jet(x, K)`` gives the Enclosures of orders
0..K at x in one pass (Taylor-mode propagation): products and linear
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
which it derives its coefficients, tail bound and rounding slop.  It sums
each term past a recurrence shift of N steps, derived from q and the first
block of 64 terms and capped at 64 steps in all, so that near x = 0 its
first block certifies where the plain series would need 37/(x |ln q|)
terms.  The skipped steps come back in closed form, as polylogarithms of
negative order in q^z, each with its own rounding slop and an ulp(0)
floor where q^z underflows.  The q-series of one q can be summed as one
stack (``_q_series_grids``), sharing each block's exps; a lone target's
grid is the stack of one, and a chain's column reader fills the columns
of one q as one stack.

The elementary leaves (``Const``, ``Affine``, ``PowShift``, ``LogShift``,
``ExpNegX``, ``SinPlus2``) compute their grid in numpy, a row per order,
and so does the Clark-Ismail kernel's derivative (``_KernelLeaf``), from
specfun's kernel-derivative grid.
The psi-family leaves (``LnGammaFn``, ``PolyGammaShift``, ``QLnGammaFn``,
``QPolyGammaShift``) are one class, ``_PsiLeaf``: order k is psi^(m+k) or
psi_q^(m+k) at x + a, a row per order, a column per point, and a point
fails where its first failing order does.  Without q the grid comes from
specfun's grid kernel (``specfun._psi_grid``), whose rows a verification
run computes once each; with q, from one scalar evaluator call per cell,
picked by ``specfun._psi`` and read through the run's cell table by
``_rows``.

Two composites combine targets: ``LinComb``, a weighted sum, and
``Product``, f g by Leibniz, the one product rule; ``MonomialPolyGamma``,
``PolyProductTarget`` and ``XLogX`` are built from them.  ``DerivOffset``
reads a target's orders from an offset.

A monotonicity probe reads a target's orders 0 and 1, with their errors,
off one grid.

Each check builds its cells (margin, certified error, lhs, rhs) and hands
them to ``_decide``, the one place that computes tau, swamping, the strict
spot check, the worst margin and the status pass / fail / inconclusive.  A
swamped cell or a point that cannot be evaluated is inconclusive, never
silently passed.  A chain's values are arrays, a row per point, from which
``_chain`` forms all its cells at once: ``check_chain`` fills them from
its row function, and a claim may compute them as arrays itself.

Violations are sorted by (point, order), so a report depends only on the
check's inputs.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DomainError, PreconditionError, UsageError
from .specfun import (
    _EPS_MACH, _FLUSHED, DEFAULT_POLICY, _blocks, _exp_flushed, _kernel_grid, _psi, _psi_grid,
    _slop, Enclosure, TruncationPolicy,
)

__all__ = [
    "GridSpec",
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
    finite values; a cell is swamped where its error exceeds |margin| + tau
    or where its margin or error is not a finite number, and a violation,
    ``violation(i)``, where it is not swamped and margin < -tau.  A strict
    check passes ``spots`` = (its number of points, each cell's point):
    with no violation, each unswamped cell at a spot point (three interior
    points, or all of fewer than four) with margin <= 10 tau is one, marked
    ``strict_spot``.  A violation fails the
    check, a swamped cell or ``failed`` (a cell that could not be evaluated)
    makes it inconclusive.
    """
    cells = np.asarray(cells, dtype=float).reshape(-1, 4)
    margin, err = cells[:, 0], cells[:, 1]
    mags = np.abs(cells[:, 2:])
    mags[~np.isfinite(mags)] = 0.0
    tau = tol * mags.max(axis=1, initial=1.0)
    # written so that a margin or an error that is NaN or inf swamps its cell
    swamped = ~(err <= np.abs(margin) + tau) | ~np.isfinite(margin)
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
        failed = [p for p, f in enumerate(failures) if f is not None]
        values[:, failed] = errors[:, failed] = np.nan

    @property
    def ok(self) -> np.ndarray:
        return np.array([f is None for f in self.failures], dtype=bool)

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
    return _JetGrid(a[:, :, 0], a[:, :, 1], a[:, :, 2].astype(np.int64), failures)


class Target:
    """A function of x whose derivatives are evaluated in closed form, as
    Enclosures.

    ``deriv(k, x)`` gives one order, ``jet(x, K)`` orders 0..K at one point,
    and ``jet_grid(xs, K)`` orders 0..K at every point of a grid.  All three
    go through ``_jets``, the grid at once: ``jet`` is the grid at one point
    and ``deriv`` reads one order off the jet, so the three share one set
    of bits.  Every target here defines ``_jets`` alone.  A subclass that
    defines ``deriv`` alone gets the default ``_jets``, which fills the grid
    with it through ``_rows``.
    ``QSeriesTarget``, ``LinComb``, ``MonomialPolyGamma`` and
    ``PolyProductTarget`` bind ``deriv = Target.deriv`` by name, so that
    each has a ``deriv`` of its own to wrap and time
    (``perfbench/tracer.py`` counts the calls per class); on a
    ``verify --suite all`` pass those counts read 0, because every grid
    runs through ``_jets``, until the tracer wraps ``_jets`` (ROADMAP, open
    item 4).  ``max_order`` is the highest order ``nth_derivative`` and
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


def _closed_form(values, errors, failures=None) -> _JetGrid:
    """The grid of an elementary leaf: one closed-form evaluation per cell."""
    failures = failures or [None] * values.shape[1]
    return _JetGrid(values, errors, np.ones(values.shape, dtype=np.int64), failures)


def _shifted(xs, c: float, zero_ok: bool = False):
    """(y, failures): y = x + c, 1.0 at each point where it is not positive
    (or negative, with ``zero_ok``), and such a point's DomainError."""
    y = xs + c
    bad = y < 0.0 if zero_ok else y <= 0.0
    failures = [DomainError(f"(x + {c}) must be positive, got x={x}") if b else None
                for x, b in zip(xs.tolist(), bad.tolist())]
    return np.where(bad, 1.0, y), failures


class Const(Target):
    def __init__(self, c: float):
        self.c = c

    def _jets(self, xs, K, policy):
        values = np.zeros((K + 1, len(xs)))
        values[0] = self.c
        return _closed_form(values, np.zeros_like(values))


class Affine(Target):
    def __init__(self, a0: float, a1: float):
        self.a0, self.a1 = a0, a1

    def _jets(self, xs, K, policy):
        values, errors = np.zeros((2, K + 1, len(xs)))
        values[0] = self.a0 + self.a1 * xs
        # two roundings, relative to the summands rather than to the sum
        errors[0] = _slop(2, abs(self.a0) + np.abs(self.a1 * xs))
        values[1:2] = self.a1  # order 1, where K >= 1
        return _closed_form(values, errors)


class PowShift(Target):
    """(x + c)^p for real p; falling-factorial derivatives.  A whole power
    p >= 0 is defined at x + c = 0 too."""

    def __init__(self, c: float, p: float):
        self.c, self.p = c, p

    def _jets(self, xs, K, policy):
        p = self.p
        y, failures = _shifted(xs, self.c, zero_ok=p >= 0.0 and p == math.floor(p))
        values, errors = np.zeros((2, K + 1, len(xs)))
        coef = 1.0
        for k in range(K + 1):
            if k:
                coef *= p - (k - 1)
            if coef == 0.0:
                break  # and so are the orders above
            v = coef * y ** (p - k)
            # coef rounds up to k times, and the rounding of y = x + c moves
            # y^(p - k) by |p - k| eps/2 relatively
            values[k], errors[k] = v, _slop(4 + k + abs(p - k), v)
        return _closed_form(values, errors, failures)


class LogShift(Target):
    """ln(x + c)."""

    def __init__(self, c: float):
        self.c = c

    def _jets(self, xs, K, policy):
        y, failures = _shifted(xs, self.c)
        values, errors = np.empty((2, K + 1, len(xs)))
        # the rounding of y = x + c moves ln y by eps/2 and y^(-k) by k eps/2
        # relatively
        values[0] = np.log(y)
        errors[0] = _slop(4, np.abs(values[0]) + 1.0)
        for k in range(1, K + 1):
            values[k] = (-1.0) ** (k - 1) * math.factorial(k - 1) * y ** (-k)
            errors[k] = _slop(4 + k, values[k])
        return _closed_form(values, errors, failures)


class _PsiLeaf(Target):
    """psi^(m)(x + a), or psi_q^(m)(x + a) when q is given: order k is
    psi^(m+k) at x + a, from specfun's grid kernel (``specfun._psi_grid``),
    or psi_q^(m+k), one scalar evaluator call per cell (``specfun._psi``)."""

    def __init__(self, m: int, a: float = 0.0, q: float | None = None):
        self.m, self.a, self.q = m, a, q

    def _jets(self, xs, K, policy):
        ys = xs + self.a
        if self.q is None:
            return _JetGrid(*_psi_grid(self.m, K, ys, policy))
        return _rows(ys, range(self.m, self.m + K + 1), lambda n: _psi(n, self.q, policy))


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


class _KernelLeaf(Target):
    """d^k/dt^k t^n/(1 - e^(-t)), the Clark-Ismail kernel's derivative:
    order j is the (k + j)-th, a row per order from specfun's
    kernel-derivative grid (``specfun._kernel_grid``), whose cells have the
    bits of ``kernel_derivative``, and a point fails where its first
    failing order does."""

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k

    def _jets(self, xs, K, policy):
        rows = [_kernel_grid(self.n, self.k + j, xs, policy) for j in range(K + 1)]
        values, errors, terms = (np.array([row[i] for row in rows]) for i in range(3))
        failures = [next((f for f in fs if f is not None), None) for fs in zip(*(row[3] for row in rows))]
        return _JetGrid(values, errors, terms, failures)


# The first block of a q-series grid, in terms.  The recurrence shift is
# sized to it, so that past the shift every corpus cell certifies in this
# block; the scalar evaluators keep specfun's first block of 256.
_FIRST_BLOCK = 64

# The recurrence steps a q-series target takes in all.  A step costs about
# as much as four series terms (a Horner sum of up to max_order + 2 degrees
# per order, against one exp and one product per order), yet a second
# block costs more than the steps that spare it.  Measured by the benchmark
# on `verify --suite all` against a first block of 256 terms: with a cap of
# 16 steps, 15 of the pass's 100 grids ran a second block and the pass was
# 7.5% faster; with 64, no grid runs one and it was 9% faster.
_MAX_STEPS = 64


@functools.cache
def _li_table(n_max: int) -> np.ndarray:
    """Row n + 1 holds k! S(n + 1, k + 1) for k = 0..n_max, S the Stirling
    numbers of the second kind, so that Li_{-n}(u) = sum_k row[k] v^(k+1)
    with v = u/(1 - u) (DLMF 25.12); every coefficient is positive.  Row 0,
    n = -1, is 0: Li_1 = log1p(v) is summed apart."""
    rows = [[0] * (n_max + 1)]
    s = [1]  # S(n + 1, k + 1), k = 0..n
    for _ in range(n_max + 1):
        rows.append([math.factorial(k) * c for k, c in enumerate(s)] + [0] * (n_max + 1 - len(s)))
        s = [(k + 1) * c + (s[k - 1] if k else 0) for k, c in enumerate(s)] + [1]
    return np.array(rows, dtype=float)


def _span(idx):
    """The sorted distinct indices ``idx`` as a slice where they are a range,
    so that indexing with them makes views rather than copies."""
    if len(idx) and idx[-1] - idx[0] == len(idx) - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


class QSeriesTarget(Target):
    """const (-ln(1 - q)) + sum_i w_i (d/dx)^(m_i) psi_{q^(r_i)}((x + d_i)/r_i),
    0 < q < 1, where (d/dx)^(-1) psi_q is ln Gamma_q.

    A term is (w, m, d) or (w, m, d, r), with m >= -1 and r > 0 (1 by
    default).  With L = ln q, psi_{q^r}(y/r) = -ln(1 - q^r) + r L sum_{j>=1}
    q^(jy)/(1 - q^(jr)), so the terms make one series on x + shift > 0,
    shift = min d_i.  C sums w (-ln(1 - q^r)) over the m = 0 terms and
    ``const``, which weighs -ln(1 - q) as an r = 1 term does; the weights of
    one r are summed exactly first, so constants that cancel, as those of a
    difference of psi_q do, add 0 and no error.

    An ln Gamma_q term, m = -1, needs r = 1, and the weights of all such
    terms must sum to 0: ln Gamma_q(y) = (1 - y) ln(1 - q) + sum_{j>=1}
    (q^(jy) - q^j)/(j (1 - q^j)), so with sum w = 0 only the series and
    sum w d times -ln(1 - q) are left, and sum w d joins the r = 1 weights
    of C.  Anything else raises UsageError.

    Each term is summed past a recurrence shift.  The functional equation
    psi_{q^r}(y/r) = psi_{q^r}(y/r + 1) + r L q^y/(1 - q^y) moves term i
    right by N_i steps of r_i (``steps``), and the values it skips come back
    in closed form (the recurrence part, ``_recurrence``).  N_i =
    ceil(D/r_i), D = (2 ln(1/eps) + ln B)/(B |L|) with B = _FIRST_BLOCK =
    64 the grid's first block: past the shift the B-th power has fallen by
    eps^2/B, and every corpus cell certifies in the first block.  D is
    capped so that the N_i add up to at most _MAX_STEPS; near q = 1 the
    series then runs its later blocks as before.

    The series is C + (-L) sum_{j>=1} q^(j(x + shift)) c_j, c_j =
    -sum_i g_i(j), where g_i(j) = w_i r_i (jL)^(m_i) q^(j(d_i + N_i r_i -
    shift)) / (1 - q^(j r_i)) for j >= 2.  c_1 keeps the given d_i: the
    first power q^z of every skipped step joins it, so terms that cancel at
    first order, as a sharp constant makes them, cancel inside c_1 with the
    bits they had without the shift.  ``shift``, C and its error, ``amp``
    and ``jpow`` come from the terms as given.

    The tail bound takes |c_j| <= amp j^jpow q^(j(start - shift)), start =
    min(d_i + N_i r_i), with amp = sum |w_i| r_i |L|^(m_i) / (1 - q^(r_i))
    and jpow = max m_i; the rounding slop weighs c_j by sum_i |g_i| (1 +
    |ln of the power of q in g_i|), so that a c_j that cancels is covered
    (``_jets``).
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
        # the recurrence shift: N_i steps of r_i per term, D capped so that
        # sum N_i <= sum (D/r_i + 1) <= _MAX_STEPS
        reach = (-2.0 * math.log(_EPS_MACH) + math.log(_FIRST_BLOCK)) / (_FIRST_BLOCK * -lnq)
        cap = (_MAX_STEPS - len(self.terms)) / sum(1.0 / r for *_, r in self.terms)
        reach = max(0.0, min(reach, cap))
        self.steps = tuple(math.ceil(reach / r) for *_, r in self.terms)
        # m_i, the exponent past (x + shift) L and w_i r_i of step l of term
        # i, in order of m (the steps of ln Gamma_q terms first)
        ordered = sorted(zip(self.terms, self.steps), key=lambda tn: tn[0][1])
        rec = [(m, ((d - self.shift) + ell * r) * lnq, w * r)
               for (w, m, d, r), n in ordered for ell in range(n)]
        ms, self._delta, self._wr = np.array(rec, dtype=float).reshape(-1, 3).T.copy()
        self._m = ms.astype(int)
        self._logs = sum(n for (_, m, _, _), n in ordered if m == -1)
        moved = [d + n * r for (_, _, d, r), n in zip(self.terms, self.steps)]
        self._start = min(moved)
        # g_i(j) = w r (jL)^m exp(j a) / -expm1(j b), with a = (d - shift) L
        # from the moved d at j >= 2 and from the given d at j = 1: (w r, m,
        # moved d, d, b)
        self._g = [(w * r, m, dm, d, r * lnq) for (w, m, d, r), dm in zip(self.terms, moved)]
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

    def _coeffs(self, j, shift):
        """c_j and its slop weight on the block ``j``, for the series in
        q^(j(x + shift)), shift <= ``self.shift``."""
        lnq = math.log(self.q)
        c, weight = np.zeros_like(j), np.zeros_like(j)
        # (jL)^m and -expm1(j b) are shared by the terms of one m and one r
        power, denom = {}, {}
        for wr, m, dm, d, b in self._g:
            ja = j * ((dm - shift) * lnq)
            if j[0] == 1.0:
                ja[0] = (d - shift) * lnq
            if m not in power:
                power[m] = (j * lnq) ** m
            if b not in denom:
                denom[b] = -np.expm1(j * b)
            g = wr * power[m] * _exp_flushed(ja, ja[-1]) / denom[b]  # ja falls with j
            c -= g
            weight += np.abs(g) * (1.0 - ja)
        return c, weight

    def _recurrence(self, rate, K):
        """The recurrence part at orders 0..K: (values, errors), (K+1, P),
        at the points where (x + shift) ln q is ``rate``.

        Step l of term i at order k is w r L^(n+1) Li_{-n}(u), with n = m + k
        and u = q^z, z = x + d + l r.  Its first power, w r L^(n+1) u, is
        summed in c_1 (``_coeffs``), so that terms that cancel at first
        order, as a sharp constant makes them, cancel inside c_1 as they did
        before the shift; this part sums the rest, Li_{-n}(u) - u.  One exp
        and one expm1 per step, of e = z L = rate + (d - shift + l r) L,
        give u and v = u / -expm1(e); then Li_{-n}(u) - u = v (u +
        sum_{k>=1} k! S(n+1, k+1) v^k) by Horner (the leading zeros of a
        lower order leave its bits alone), and Li_1(u) - u = log1p(v) - u.
        The steps of a point are summed along one axis of fixed length, so
        a column depends only on its point.

        Each summand's relative error adds up: e carries 2.5 eps of itself
        (both of its parts are negative), u and v 2.5 |e| + 5 eps (exp's
        conditioning and three roundings), v^(n+1) n + 1 times that, Horner
        n + 2 eps and L^(n+1) n + 3; (n + 2)(3 |e| + 7) eps covers all of
        them, weighing log1p(v) + u where n = -1.  The sum adds S + 7 eps of
        the summands' magnitudes, which may cancel between terms.  Where u
        is subnormal or 0 its error is absolute: each step adds
        2 ulp(0)(|w r L^(n+1)| + 1).  Points run in chunks that keep every
        temporary within _CHUNK_ELEMENTS.
        """
        delta, logs = self._delta, self._logs
        P, S = len(rate), len(delta)
        values, errors = np.zeros((K + 1, P)), np.zeros((K + 1, P))
        if not S:
            return values, errors
        lnq = math.log(self.q)
        n1 = (self._m + 1) + np.arange(K + 1)[:, None]  # n + 1, (K+1, S)
        top = int(self._m[-1]) + K  # the steps of the highest m come last
        f = self._wr * np.array([lnq**p for p in range(top + 2)])[n1]
        size = np.abs(f)
        floor = 2.0 * math.ulp(0.0) * (size + 1.0).sum(axis=1)
        size *= n1 + (1.0 + (S + 7.0) / 7.0)
        # Horner coefficients of degrees D-1..1, highest first: (D-1, K+1, 1, S)
        coef = _li_table(max(top, 0))[n1].transpose(2, 0, 1)[:0:-1, :, None, :]
        f, size = f[:, None, :], size[:, None, :]
        step = max(1, _CHUNK_ELEMENTS // ((K + 1) * S))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for c0 in range(0, P, step):
                cols = slice(c0, c0 + step)
                e = rate[cols, None] + delta
                u = np.exp(e)
                v = np.expm1(e)
                np.divide(u, v, out=v)
                np.negative(v, out=v)
                rest = np.zeros((K + 1, len(e), S))
                for c in coef:
                    rest += c
                    rest *= v
                rest += u
                rest *= v
                if logs:
                    li1, ul = np.log1p(v[:, :logs]), u[:, :logs]
                    rest[0, :, :logs] = li1 - ul
                values[:, cols] = (rest * f).sum(axis=-1)
                if logs:
                    rest[0, :, :logs] = li1 + ul
                e *= -3.0  # e <= 0
                e += 7.0
                rest *= e
                rest *= size
                errors[:, cols] = rest.sum(axis=-1)
        return values, _slop(1.0, errors) + floor[:, None]

    def _jets(self, xs, K, policy):
        return _q_series_grids([self], xs, K, policy)[0]


def _q_series_grids(targets, xs, K, policy) -> list[_JetGrid]:
    """Orders 0..K of every QSeriesTarget of ``targets``, all of one q, at
    every point of ``xs``: one grid per target (a column of the stack),
    from one block loop.  A lone target's grid is the stack of one.

    The stack sums every column as a series in q^(j(x + shift)), shift the
    least of its columns' shifts, so that a block takes one exp per
    (point, j), of e = j (x + shift) ln q, shared by the columns; each
    column's coefficients absorb q^(j (its shift - shift)) (``_coeffs``),
    so a column's bits move with the stack's shift, and a stack of one
    keeps its own.  A point where x + shift <= 0 fails in every column.
    The recurrence part, the constant and the tail bound stay per column,
    and every (order, column, point) keeps its own sums, tail test and
    stop.  Points run in chunks, so that no temporary holds more than
    _CHUNK_ELEMENTS elements or one row of the block.  The recurrence part
    joins each cell as it stops; a point where it does not come out finite
    fails in its column with DomainError.

    A term of a column is t = exp(e) c_j; order k is order k-1 times j
    (Taylor mode), up to the chunk's highest order that is still active.
    In the rounding slop, term k weighs exp(e) j^k (c_j's weight)
    (1 + |e| + k): exp turns the |e| ulp error of e into a relative error,
    and k products round.  Where an exp or a product is subnormal or 0,
    its error is absolute, and an exp below 2^-1020, in a term or in c_j,
    is flushed to 0 (``_exp_flushed``), so order k adds the floor
    ((k + 3) ulp(0) + 2^-1019) J max(amp, 1) (hi + 1)^max(k + jpow, 0) per
    block of J terms, times |pref|, plus ulp(0) for the product with pref
    (|c_j| <= amp j^jpow, as start >= shift).  Past a block, the terms'
    bound amp j^n q^(jy), n = k + jpow and y = x + start, falls by at most
    ((hi + 2)/(hi + 1))^n q^y a step, or by q^y where n < 0 (an ln Gamma_q
    term at order 0).
    """
    policy = policy or DEFAULT_POLICY
    q, lnq = targets[0].q, math.log(targets[0].q)
    T, P = len(targets), len(xs)
    failures = [[None] * P for _ in targets]
    shift = min(target.shift for target in targets)
    outside = xs + shift <= 0.0
    for p in np.flatnonzero(outside).tolist():
        for column in failures:
            column[p] = DomainError(f"x + {shift} must be positive, got x={float(xs[p])}")
    good = np.flatnonzero(~outside)
    # cells (order, column, point), the points being good's
    shape = (K + 1, T, len(good))
    rec, rec_err = np.empty(shape), np.empty(shape)
    for c, target in enumerate(targets):
        rec[:, c], rec_err[:, c] = target._recurrence((xs[good] + target.shift) * lnq, K)
    # the recurrence part's error weighs the same summands by 21 or more, so
    # it is not finite where the value is not
    finite = np.isfinite(rec_err).all(axis=0)
    if not finite.all():
        for c, p in zip(*np.nonzero(~finite)):
            failures[c][good[p]] = DomainError(
                f"combined q-series (q={q}, K={K}) overflows at x={float(xs[good[p]])}")
    active = np.repeat(finite[None], K + 1, axis=0)
    values, errors = np.full(shape, np.nan), np.full(shape, np.nan)
    terms = np.zeros(shape, dtype=np.int64)
    total, abs_total = np.zeros(shape), np.zeros(shape)
    rate = (xs[good] + shift) * lnq
    # per column: amp, the floor, and T^(k) = C[k=0] + pref[k] * sum j^k ...
    # + the recurrence part
    amp = np.array([target.amp for target in targets])
    floor = np.zeros((K + 1, T))
    pref = np.array([-lnq * lnq**k for k in range(K + 1)])
    const, const_err = np.zeros((K + 1, T, 1)), np.zeros((K + 1, T, 1))
    const[0, :, 0] = [target._const for target in targets]
    const_err[0, :, 0] = [target._const_err for target in targets]
    y = xs[good] + np.array([[target._start] for target in targets])  # of the tail bound
    qy = np.array([q**v for v in y.ravel().tolist()]).reshape(y.shape)
    powers = [k + target.jpow for k in range(K + 1) for target in targets]  # (order, column)
    try:
        for j0, hi in _blocks(policy, "combined q-series (q={}, K={})", q, K, first=_FIRST_BLOCK):
            j = np.arange(j0 + 1, hi + 1, dtype=float)
            coeffs = [target._coeffs(j, shift) for target in targets]
            live = np.flatnonzero(active.any(axis=(0, 1)))
            step = max(1, _CHUNK_ELEMENTS // len(j))
            for c0 in range(0, len(live), step):
                pts = _span(live[c0:c0 + step])
                e = np.multiply.outer(rate[pts], j)
                w = np.abs(e) + 1.0
                _exp_flushed(e, rate[pts].min() * j[-1], out=e)
                for col, (c, weight) in enumerate(coeffs):
                    # the chunk's points where order k already stopped are
                    # summed along; their recorded values stay
                    wanted = active[:, col, pts].any(axis=1).tolist()
                    if not any(wanted):
                        continue
                    top = max(k for k in range(K + 1) if wanted[k])
                    t = e * c
                    # exp(e) j^k weight, in place in the last column
                    u = np.multiply(e, weight, out=e if col == T - 1 else None)
                    wt = np.empty_like(t)  # u (1 + |e| + k)
                    for k in range(top + 1):
                        if k:
                            t *= j
                            u *= j
                        if wanted[k]:
                            total[k, col, pts] += t.sum(axis=1)
                            np.add(w, k, out=wt)
                            wt *= u
                            abs_total[k, col, pts] += wt.sum(axis=1)
            live = _span(live)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.array([((hi + 2.0) / (hi + 1.0)) ** max(n, 0) for n in powers])
                rho = ratio.reshape(K + 1, T, 1) * qy[:, live]
                far = np.array([q**v for v in ((hi + 1.0) * y[:, live]).ravel().tolist()])
                hpow = np.array([(hi + 1.0) ** n for n in powers]).reshape(K + 1, T)
                tail = (amp * hpow)[:, :, None] * far.reshape(T, -1) / (1.0 - rho)
            floor += np.maximum(amp, 1.0) * len(j) * np.maximum(hpow, 1.0)
            sums = total[:, :, live]
            done = active[:, :, live] & (rho < 1.0) & (tail <= policy.eps * (1.0 + np.abs(sums)))
            if done.any():
                apref = np.abs(pref)[:, None, None]
                slop = _slop(2.0 + math.log2(max(hi, 2)), apref) * abs_total[:, :, live]
                val = const + pref[:, None, None] * sums + rec[:, :, live]
                ulp0 = math.ulp(0.0)
                floor_k = (ulp0 * (np.arange(K + 1) + 3.0) + 2.0 * _FLUSHED)[:, None] * floor
                under = apref * floor_k[:, :, None] + ulp0
                err = apref * tail + slop + const_err + under + rec_err[:, :, live]
                if not done.all():
                    val = np.where(done, val, values[:, :, live])
                    err = np.where(done, err, errors[:, :, live])
                values[:, :, live], errors[:, :, live] = val, err
                terms[:, :, live] = np.where(done, hi, terms[:, :, live])
                active[:, :, live] &= ~done
            if not active.any():
                break
    except ConvergenceError as exc:
        for c, p in zip(*np.nonzero(active.any(axis=0))):
            failures[c][good[p]] = ConvergenceError(f"{exc} at x={xs[good[p]]}")
    grids = []
    for c in range(T):
        cells = values[:, c], errors[:, c], terms[:, c]
        if len(good) < P:  # the points outside hold nan
            cells = [np.full((K + 1, P), np.nan), np.full((K + 1, P), np.nan),
                     np.zeros((K + 1, P), dtype=np.int64)]
            for a, b in zip(cells, (values[:, c], errors[:, c], terms[:, c])):
                a[:, good] = b
        grids.append(_JetGrid(*cells, failures[c]))
    return grids


class ExpNegX(Target):
    """e^(-rate x); rate = -ln q gives q^x."""

    def __init__(self, rate: float = 1.0):
        self.rate = rate

    def _jets(self, xs, K, policy):
        y = self.rate * xs
        values = np.multiply.outer((-self.rate) ** np.arange(K + 1), np.exp(-y))
        # a rate other than 1 rounds y = rate x, which moves e^(-y) by |y| eps/2
        # relatively, and rounds rate^k up to k times
        ops = 2.0 if self.rate == 1.0 else 2.0 + np.add.outer(np.arange(K + 1), np.abs(y))
        return _closed_form(values, _slop(ops, values))


class SinPlus2(Target):
    """sin(x) + 2: a smooth positive function that is not completely monotone."""

    def _jets(self, xs, K, policy):
        s, c = np.sin(xs), np.cos(xs)
        values = np.array([(s, c, -s, -c)[k % 4] for k in range(K + 1)])
        values[0] += 2.0
        return _closed_form(values, _slop(4, np.abs(values) + 1.0))


class DerivOffset(Target):
    """d^offset of another target, viewed as a target itself."""

    def __init__(self, base: Target, offset: int):
        self.base, self.offset = base, offset

    def _jets(self, xs, K, policy):
        g = self.base._jets(xs, K + self.offset, policy)
        off = self.offset
        return _JetGrid(g.values[off:], g.errors[off:], g.terms[off:], g.failures)


class LinComb(Target):
    """sum of coef * target(x) over (coef, target) terms; a shifted term's
    target carries its own shift."""

    def __init__(self, terms):
        self.terms = tuple((float(coef), target) for coef, target in terms)

    deriv = Target.deriv

    def _jets(self, xs, K, policy):
        val, err, size = (np.zeros((K + 1, len(xs))) for _ in range(3))
        terms = np.zeros((K + 1, len(xs)), dtype=np.int64)
        failures = [None] * len(xs)
        for coef, target in self.terms:
            g = target._jets(xs, K, policy)
            term = coef * g.values
            val += term
            err += abs(coef) * g.errors
            size += np.abs(term)
            np.maximum(terms, g.terms, out=terms)
            failures = [f if f is not None else gf for f, gf in zip(failures, g.failures)]
        return _JetGrid(val, err + _slop(4, size), terms, failures)


class Product(Target):
    """f g, with Leibniz derivatives: row k sums C(k, j) f^(j) g^(k-j) over
    j = 0..k, in order of j.  The one product rule: each summand adds
    C(k, j) (|f^(j)| e_g + |g^(k-j)| e_f + e_f e_g) to the error, and row k
    the rounding slop of its k + 1 summands, (k + 2) eps sum |summands|
    (two products per summand and k additions).  A square, g the same
    object as f, evaluates f once."""

    def __init__(self, f: Target, g: Target):
        self.f, self.g = f, g

    def _jets(self, xs, K, policy):
        f = self.f._jets(xs, K, policy)
        g = f if self.g is self.f else self.g._jets(xs, K, policy)
        val, err, size = (np.zeros((K + 1, len(xs))) for _ in range(3))
        terms = np.zeros((K + 1, len(xs)), dtype=np.int64)
        # the rows of f past its last one with a nonzero value or error (x^p
        # past order p) add exact zeros; the nan of a failed point is no row
        live = np.flatnonzero(np.nan_to_num(np.abs(f.values) + f.errors).any(axis=1))
        for j in range(live[-1] + 1 if live.size else 0):
            # rows k >= j gain C(k, j) f^(j) g^(k-j)
            n = K + 1 - j
            ck = np.array([math.comb(k, j) for k in range(j, K + 1)], dtype=float)[:, None]
            fv, fe, gv, ge = f.values[j], f.errors[j], g.values[:n], g.errors[:n]
            term = ck * fv * gv
            val[j:] += term
            err[j:] += ck * (np.abs(fv) * ge + np.abs(gv) * fe + fe * ge)
            size[j:] += np.abs(term)
            np.maximum(terms[j:], np.maximum(f.terms[j], g.terms[:n]), out=terms[j:])
        failures = [ff if ff is not None else gf for ff, gf in zip(f.failures, g.failures)]
        return _JetGrid(val, err + _slop(np.arange(2.0, K + 3.0)[:, None], size), terms, failures)


class MonomialPolyGamma(Product):
    """sign * x^p * psi^(m)(x + a) with integer p >= 0."""

    def __init__(self, p: int, m: int, a: float = 0.0, sign: float = 1.0):
        super().__init__(LinComb([(sign, PowShift(0.0, p))]), PolyGammaShift(m, a))

    deriv = Target.deriv


class PolyProductTarget(LinComb):
    """sign * [A B - c C D] with A = (-1)^(m+1) psi^(m) etc., psi^(0) read
    as -1: each factor of order >= 1 is positive, and an order-0 factor is
    the constant 1."""

    def __init__(self, p: int, m: int, n: int, q_idx: int, c: float, sign: float = 1.0):
        def psi(order):
            return PolyGammaShift(order) if order else Const(-1.0)

        super().__init__([
            (sign * (-1.0) ** (m + n), Product(psi(m), psi(n))),
            (-sign * c * (-1.0) ** (p + q_idx), Product(psi(p), psi(q_idx))),
        ])

    deriv = Target.deriv


class XLogX(Product):
    """x ln x."""

    def __init__(self):
        super().__init__(Affine(0.0, 1.0), LogShift(0.0))


# name -> constructor of the known families, with the parameters each takes
_TARGET_FAMILIES = {
    "ln_gamma": lambda: LnGammaFn(),
    "digamma": lambda shift=0.0: PolyGammaShift(0, shift),
    "polygamma": lambda n, shift=0.0: PolyGammaShift(n, shift),
    "q_ln_gamma": lambda q: QLnGammaFn(q),
    "q_digamma": lambda q, shift=0.0: QPolyGammaShift(0, q, shift),
    "q_polygamma": lambda n, q, shift=0.0: QPolyGammaShift(n, q, shift),
    "exp_neg": lambda: ExpNegX(),
    "identity": lambda: Affine(0.0, 1.0),
    "sin_plus_2": lambda: SinPlus2(),
    "reciprocal": lambda shift=0.0: PowShift(shift, -1.0),
    "log_shift": lambda shift=0.0: LogShift(shift),
    "x_log_x": lambda: XLogX(),
}


def make_target(name: str, **params):
    """Construct a registered analytic target by family name.  A parameter
    the family does not take, or one it needs and is not given, raises
    UsageError."""
    try:
        family = _TARGET_FAMILIES[name]
    except KeyError:
        raise UsageError(f"unknown target family {name!r}") from None
    try:
        inspect.signature(family).bind(**params)
    except TypeError as exc:
        raise UsageError(f"target family {name!r}: {exc}") from None
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
    label: str = "sign",
    params: dict | None = None,
    strict: bool = False,
    policy: TruncationPolicy | None = None,
) -> VerificationReport:
    """Verify (-1)^k f^(k)(x) >= 0 for k = 0..K on the grid.

    For ``log_completely_monotonic`` the target is h' = -(ln f)', not f,
    and the same pattern is asserted for h' at orders 0..K-1; ``nonneg``
    asserts order 0.  Each (point, order) is a cell of ``_decide`` with lhs
    (-1)^k f^(k)(x) and rhs 0.  ``strict`` adds its spot check: at three
    interior grid points (every point of a grid of fewer than four) each
    cell that its error does not swamp needs a margin > 10 tau.
    The grid is evaluated in one ``jet_grid`` call.  A K that leaves no
    order to check (K < 1 for ``log_completely_monotonic``, K < 0 for
    ``completely_monotonic``) raises UsageError.
    """
    # the orders checked are 0..n-1
    n = {"log_completely_monotonic": K, "completely_monotonic": K + 1, "nonneg": 1}.get(claim)
    if n is None:
        raise UsageError(f"claim {claim!r} is not a sign-pattern claim")
    if n < 1:
        raise UsageError(f"{claim} with K={K} checks no order")
    cap = target.max_order
    if n - 1 > cap:
        raise UsageError(f"requested order exceeds the derivative cap {cap}")

    xs = _grid_values(grid)
    base_params = dict(params or {})
    values, errors, ok = target.jet_grid(xs, n - 1, policy)
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
        orders_checked=n - 1,
    )


def _as_value_err(v) -> tuple[float, float]:
    if isinstance(v, Enclosure):
        return v.value, v.abs_error
    return float(v), 0.0


def _column_reader(columns: dict, distinct: np.ndarray):
    """read(key): the order-0 grid (a ``_JetGrid``) of the target
    ``columns[key]`` over the points ``distinct``.

    A column is filled the first time it is read: the QSeriesTargets of one
    q together, as one stack (``_q_series_grids``), any other target alone.
    A point where a grid fails holds nan, and the grid's ``failures`` keep
    its DomainError/ConvergenceError.
    """
    stacks, together = {}, {}  # q -> its q-series' keys; key -> the keys filled with it
    for key, target in columns.items():
        q_series = isinstance(target, QSeriesTarget)
        together[key] = stacks.setdefault(target.q, []) if q_series else []
        together[key].append(key)
    filled = {}

    def read(key):
        if key not in filled:
            keys = together[key]
            if isinstance(columns[key], QSeriesTarget):
                grids = _q_series_grids([columns[k] for k in keys], distinct, 0, None)
            else:
                grids = [columns[key]._jets(distinct, 0, None)]
            filled.update(zip(keys, grids))
        return filled[key]

    return read


def _point_xs(points) -> list[float]:
    """The reported point of each parameter dict: 'x' when present, else
    the first parameter; UsageError for no point or an empty one."""
    if not points or not all(points):
        raise UsageError("a chain needs at least one point, each with a parameter")
    return [float(pt["x"] if "x" in pt else next(iter(pt.values()))) for pt in points]


def _chain(
    ends,
    points,
    claim: str = "chain_le",
    tol: float = 1e-12,
    label: str = "chain",
    columns: dict | None = None,
) -> VerificationReport:
    """The one path of a chain, as arrays: ``ends(read)`` gives the chain's
    values at every point as (values, errors), each of shape (P, n), a row
    per point of ``points`` and nan where the point cannot be evaluated.
    ``read(key)`` is the order-0 grid of ``columns[key]`` over the chain's
    distinct x, in the order they first appear (``_column_reader``), and
    ``read`` is None for a chain without columns.

    Each adjacent pair (lo, hi) of a row is a cell of ``_decide``, point-major,
    with margin hi - lo and the sum of the two errors; a nan cell is
    swamped, so its check is inconclusive and the cell is never a
    violation.  chain_lt adds the strict spot check of a strict sign
    pattern, and a pair that fails it is a violation (order i, lo, hi,
    margin) marked ``strict_spot``.
    """
    if claim not in ("chain_lt", "chain_le"):
        raise UsageError(f"claim {claim!r} is not a chain claim")
    pts = list(points)
    xs = _point_xs(pts)
    read = None if columns is None else _column_reader(columns, np.array(list(dict.fromkeys(xs))))
    values, errors = ends(read)
    pairs = values.shape[1] - 1
    cells = np.empty((len(pts), pairs, 4))
    cells[:, :, 2], cells[:, :, 3] = lo, hi = values[:, :-1], values[:, 1:]
    with np.errstate(invalid="ignore"):  # inf - inf is a nan margin, as in Python floats
        np.subtract(hi, lo, out=cells[:, :, 0])
    np.add(errors[:, :-1], errors[:, 1:], out=cells[:, :, 1])
    cells = cells.reshape(-1, 4)

    def violation(c):
        p, i = divmod(c, pairs)
        margin, _, lo, hi = cells[c].tolist()
        return Violation(xs[p], dict(pts[p]), i, lo, hi, margin)

    spots = (len(pts), np.repeat(np.arange(len(pts)), pairs)) if claim == "chain_lt" else None
    return _decide(label, tol, cells, False, violation, spots)


def check_chain(
    exprs,
    points,
    claim: str = "chain_le",
    tol: float = 1e-12,
    label: str = "chain",
    columns: dict | None = None,
) -> VerificationReport:
    """Assert adjacent ordering of >= 2 values at every parameter point.

    ``exprs`` is either one row function, ``row(p) -> [v0, v1, ...]``, or a
    list of callables, each mapping a parameter dict to one value; the list
    runs as the row ``lambda p: [e(p) for e in exprs]``.  A value is a float
    or an Enclosure.  A row function lets the values of a point share work,
    such as a bracket that gives both the lower and the upper end; a row
    with fewer than two values, or with another number of values than the
    other rows, raises UsageError.  ``points`` is a non-empty
    sequence of non-empty parameter dicts; key 'x' is the reported point when
    present, else the first parameter.  ``columns`` maps keys to Targets:
    the row is then called as ``row(p, read)``, where ``read(key)`` is the
    order-0 Enclosure of ``columns[key]`` at the point, built from the
    column's grid over the chain's distinct points, filled the first time
    a row reads it, the q-series of one q in one stacked grid
    (``_column_reader``), so that it lives only as long as the check.  A
    point whose row raises DomainError or ConvergenceError is
    inconclusive.  The rows fill the arrays of ``_chain``, the path every
    chain takes: each adjacent pair (lo, hi) is a cell of ``_decide`` with
    margin hi - lo, and chain_lt adds the strict spot check.
    """
    if callable(exprs):
        row_fn = exprs
    elif columns is not None:
        raise UsageError("a chain with columns needs a row function")
    elif len(exprs) < 2:
        raise UsageError("a chain needs at least two expressions")
    else:
        row_fn = lambda p: [e(p) for e in exprs]
    pts = list(points)
    xs = _point_xs(pts)

    def ends(read):
        if read is not None:
            slot = {x: i for i, x in enumerate(dict.fromkeys(xs))}
        rows = []
        for pt, x in zip(pts, xs):
            try:
                if read is None:
                    values = row_fn(pt)
                else:
                    values = row_fn(pt, lambda key: read(key).jet(slot[x])[0])
                rows.append([_as_value_err(v) for v in values])
            except (DomainError, ConvergenceError):
                rows.append(None)
                continue
            if len(rows[-1]) < 2:
                raise UsageError(f"a chain row needs at least two values, got {len(rows[-1])}")
        width = next((len(row) for row in rows if row is not None), 2)
        if any(row is not None and len(row) != width for row in rows):
            raise UsageError("the rows of a chain need the same number of values")
        cells = np.array([row or [(math.nan, math.nan)] * width for row in rows], dtype=float)
        return cells[:, :, 0], cells[:, :, 1]

    return _chain(ends, pts, claim, tol, label, columns)


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
    lo < f(x) <= hi at every grid point; no corpus entry passes one, as
    ``eq43-range`` checks its range as two links.
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
