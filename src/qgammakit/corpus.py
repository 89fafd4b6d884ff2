"""Registry of verifiable claims with default grids and instantiation.

Each descriptor packages one claim family (a monotonicity statement, a
complete-monotonicity statement or a chained inequality), its parameter
domains and a default grid, so the whole collection can be verified with a
single command.  A few entries are deliberate expected-failure probes: they
perturb a sharp constant or step outside an if-and-only-if threshold and
must record at least one violation (they verify that the detector detects).

An LCM claim about f hands h' = -(ln f)' itself to ``check_sign_pattern``
with ``claim="log_completely_monotonic"``; a classical h' is a LinComb of
(coef, target) terms.  The q-analogue LCM claims give h' as the paper
writes it, as data: psi_q terms (weight, order, shift[, r]) for a
QSeriesTarget, which derives the coefficients; no entry defines a
coefficient function.  The q-analogue chains read their q-series the same
way, as columns of QSeriesTargets (ln Gamma_q ratios, psi_q sums and
differences), and call no scalar q-series evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, UsageError
from . import bounds as bd
from . import specfun as sf
from .cm_engine import (
    Affine,
    Const,
    DerivOffset,
    GridSpec,
    LinComb,
    LnGammaFn,
    LogShift,
    MonomialPolyGamma,
    PolyGammaShift,
    PolyProductTarget,
    PowShift,
    QSeriesTarget,
    VerificationReport,
    Violation,
    XLogX,
    check_chain,
    check_majorization,
    check_sign_pattern,
    merge_reports,
    monotonicity_probe,
)

__all__ = [
    "PropertyDescriptor",
    "Check",
    "list_properties",
    "get_descriptor",
    "instantiate",
    "run_descriptor",
    "manifest",
    "ALL_IDS",
]

_STD_GRID = GridSpec(1e-2, 100.0, 64, "log")
_GRID50 = GridSpec(1e-2, 50.0, 64, "log")
_GRID20 = GridSpec(1e-2, 20.0, 64, "log")
_Q_DEFAULT = (0.3, 0.5, 0.7, 0.9)
_S_DEFAULT = (0.25, 0.5, 0.75)


def _domains(**extra) -> dict:
    """Parameter domains of a claim: grid_points in [8, 4096] plus ``extra``."""
    return {"grid_points": (8, 4096), **extra}


@dataclass(frozen=True)
class PropertyDescriptor:
    """One verifiable claim: its kind, domains, default grid and source."""

    id: str
    claim: str
    citation: str
    parameter_domains: dict = field(default_factory=_domains)
    default_grid: GridSpec = _STD_GRID
    max_order: int = 8
    notes: str = ""
    expects_violation: bool = False


@dataclass(frozen=True)
class Check:
    """A single engine invocation prepared from a descriptor.

    Running it calls ``fn(**kwargs, tol=tol, label=label)``.  ``fn`` is
    looked up when the check is built, so a replaced module binding of an
    engine function is the one that runs.
    """

    label: str
    fn: Callable[..., VerificationReport]
    kwargs: dict

    def run(self, tol: float = 1e-12) -> VerificationReport:
        return self.fn(**self.kwargs, tol=tol, label=self.label)


_REGISTRY: dict[str, PropertyDescriptor] = {}
_BUILDERS: dict[str, Callable] = {}


def _register(desc: PropertyDescriptor):
    def wrap(builder):
        if desc.id in _REGISTRY:
            raise ValueError(f"duplicate descriptor id {desc.id}")
        _REGISTRY[desc.id] = desc
        _BUILDERS[desc.id] = builder
        return builder

    return wrap


def list_properties() -> list[PropertyDescriptor]:
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def get_descriptor(claim_id: str) -> PropertyDescriptor:
    try:
        return _REGISTRY[claim_id]
    except KeyError:
        raise UsageError(f"unknown claim id {claim_id!r}") from None


def manifest() -> str:
    """One line per claim: id | citation | parameter domains | grid."""
    lines = []
    for d in list_properties():
        dom = ", ".join(f"{k}={v}" for k, v in sorted(d.parameter_domains.items()))
        g = d.default_grid
        lines.append(
            f"{d.id:<18} | {d.citation:<58} | {dom:<40} | "
            f"{g.spacing}[{g.lo:g}, {g.hi:g}] x{g.points}"
        )
    return "\n".join(lines)


def _validate_overrides(desc: PropertyDescriptor, overrides: dict):
    for key, val in overrides.items():
        if key not in desc.parameter_domains:
            raise UsageError(f"{desc.id}: unknown override {key!r}")
        lo, hi = desc.parameter_domains[key]
        if not (lo <= val <= hi):
            raise DomainError(
                f"{desc.id}: override {key}={val} outside domain [{lo}, {hi}]"
            )


def instantiate(claim_id: str, overrides: dict | None = None, max_order: int | None = None) -> list[Check]:
    """Resolve a descriptor into concrete engine checks.

    ``overrides`` must stay inside the descriptor's parameter domains;
    ``grid_points`` and (where meaningful) ``n_max`` are recognized by every
    entry that samples a grid.  A negative ``max_order`` would check no
    order at all, so it raises UsageError.
    """
    if max_order is not None and max_order < 0:
        raise UsageError(f"max_order must be >= 0, got {max_order}")
    desc = get_descriptor(claim_id)
    overrides = dict(overrides or {})
    _validate_overrides(desc, overrides)
    points = overrides.pop("grid_points", None)
    grid = desc.default_grid.with_points(int(points)) if points else desc.default_grid
    K = min(max_order if max_order is not None else desc.max_order, desc.max_order)
    return _BUILDERS[claim_id](desc, grid, K, overrides)


def run_descriptor(
    claim_id: str,
    overrides: dict | None = None,
    tol: float = 1e-12,
    max_order: int | None = None,
) -> VerificationReport:
    """Run every check of a claim and merge them into one report.  A
    negative or non-finite ``tol`` would decide nothing: UsageError."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise UsageError(f"tol must be finite and >= 0, got {tol}")
    checks = instantiate(claim_id, overrides, max_order)
    return merge_reports(claim_id, [c.run(tol) for c in checks])


# ---------------------------------------------------------------------------
# target construction helpers
# ---------------------------------------------------------------------------


def _neg(terms):
    return [(-c, t) for c, t in terms]


def _psi_sum(q: float, terms):
    """sum_i w_i psi_q^(m_i)(x + d_i) for terms (w, m, d): a LinComb of
    polygamma leaves at q = 1, one QSeriesTarget below 1."""
    if q < 1.0:
        return QSeriesTarget(q, terms)
    return LinComb([(w, PolyGammaShift(m, d)) for w, m, d in terms])


def _gq_neg_log_deriv(a: float, b: float, c: float, q: float, sign: float = 1.0):
    """Target for -(ln g_q(x; a, b, c))' (negated when sign = -1):
    (b - a) d/dx ln(1 - q^(x+c)) + psi_q(x + a) - psi_q(x + b).

    For q = 1 the bracket term is an exact pole, (b - a)/(x + c).  For q < 1
    it is psi_q(x+c+1) - psi_q(x+c), and the four psi_q make one q-series.
    """
    w = sign * (b - a)
    if q == 1.0:
        psi = [(-sign, PolyGammaShift(0, b)), (sign, PolyGammaShift(0, a))]
        return LinComb([(w, PowShift(c, -1.0)), *psi])
    return QSeriesTarget(q, [(w, 0, c + 1.0), (-w, 0, c), (sign, 0, a), (-sign, 0, b)])


def _lcm_check(label, h_prime, grid, K):
    if not isinstance(h_prime, (LinComb, QSeriesTarget)):
        h_prime = LinComb(h_prime)
    return Check(label, check_sign_pattern, dict(
        target=h_prime, K=K, grid=grid, claim="log_completely_monotonic",
    ))


def _cm_check(label, target, grid, K, strict=False, params=None):
    return Check(label, check_sign_pattern, dict(
        target=target, K=K, grid=grid, claim="completely_monotonic",
        strict=strict, params=params,
    ))


def _chain_check(label, row, points, claim="chain_le", columns=None):
    """A chain whose ``row(p)`` gives all its values at point p at once; with
    ``columns``, ``row(p, read)`` reads its q-series as columns, ``read(key)``
    being the value of the target ``columns[key]`` at p's x."""
    return Check(label, check_chain, dict(exprs=row, points=points, claim=claim, columns=columns))


def _ln_ratio(q, s):
    """ln Gamma_q(x + 1) - ln Gamma_q(x + s) as one q-series: the log of
    ``bounds.gamma_ratio``."""
    return QSeriesTarget(q, [(1.0, -1, 1.0), (-1.0, -1, s)])


def _probe_check(label, fn, grid, direction, params, **kw):
    return Check(label, monotonicity_probe, dict(
        fn=fn, grid=grid, direction=direction, params=params, **kw
    ))


def _x_points(grid: GridSpec, extra: dict | None = None) -> list[dict]:
    extra = extra or {}
    return [{"x": x, **extra} for x in grid.values()]


# ---------------------------------------------------------------------------
# 1. shifted-bracket ratio family is LCM / reciprocal LCM
# ---------------------------------------------------------------------------

_THM5_CASES = (
    # (a, b, c_low for the direct claim, c_high for the reciprocal claim);
    # c_low = (a+b-1)/2 is the critical boundary for the second pair
    (0.0, 1.0, -0.25, 0.5),
    (0.3, 1.1, 0.2, 0.6),
)


@_register(PropertyDescriptor(
    "thm5-lcm", "log_completely_monotonic",
    "Bustoz-Ismail / Ismail-Muldoon shifted-bracket ratio family",
))
@_register(PropertyDescriptor(
    "thm5-recip-lcm", "log_completely_monotonic",
    "Bustoz-Ismail / Ismail-Muldoon reciprocal branch (c >= a)",
))
def _build_thm5(desc, grid, K, ov):
    recip = desc.id == "thm5-recip-lcm"
    checks = []
    for a, b, c_low, c_high in _THM5_CASES:
        c = c_high if recip else c_low
        lo = max(1e-2, max(-a, -c) + 1e-2)
        g = GridSpec(lo, 100.0, grid.points, "log")
        for q in (0.5, 1.0):
            checks.append(_lcm_check(
                f"{desc.id}[a={a},b={b},c={c},q={q}]",
                _gq_neg_log_deriv(a, b, c, q, sign=-1.0 if recip else 1.0), g, K,
            ))
    return checks


# ---------------------------------------------------------------------------
# 2. sharp two-sided bracket chain (and its sharpness probes)
# ---------------------------------------------------------------------------

_EQ14_DOM = _domains(q=(0.01, 0.99), s=(0.01, 0.99))


def _eq14_points(qs, ss, grid):
    xs = [float(v) for v in np.linspace(0.1, 10.0, grid.points)]
    return [{"x": x, "q": q, "s": s} for q in qs for s in ss for x in xs]


@_register(PropertyDescriptor(
    "eq14-bounds", "chain_lt",
    "sharp shifted q-bracket for the gamma-ratio (best-possible shifts)",
    _EQ14_DOM, GridSpec(0.1, 10.0, 30, "linear"),
))
def _build_eq14(desc, grid, K, ov):
    qs = [ov["q"]] if "q" in ov else [round(0.1 * i, 1) for i in range(1, 10)]
    ss = [ov["s"]] if "s" in ov else [round(0.1 * i, 1) for i in range(1, 10)]
    uv = {(q, s): (bd.alzer_u(q, s), bd.alzer_v(q, s)) for q in qs for s in ss}
    columns = {(q, s): _ln_ratio(q, s) for q in qs for s in ss}

    def row(p, read):
        q, s = p["q"], p["s"]
        u, v = uv[(q, s)]
        b = bd.ratio_bounds(p["x"], s, q, "alzer_uv", u_override=u, v_override=v)
        return [b.lower, math.exp(read((q, s))), b.upper]

    return [_chain_check("eq14-bounds", row, _eq14_points(qs, ss, grid), "chain_lt", columns)]


def _sharp_points(grid):
    return [{"x": float(v), "q": 0.5, "s": 0.5} for v in np.linspace(0.01, 0.5, grid.points)]


@_register(PropertyDescriptor(
    "eq14-sharp-u", "chain_le",
    "sharpness probe: lower shift + 0.05 must overshoot the ratio",
    default_grid=GridSpec(0.01, 0.5, 64, "linear"),
    notes="expected-failure detector check", expects_violation=True,
))
@_register(PropertyDescriptor(
    "eq14-sharp-v", "chain_le",
    "sharpness probe: upper shift - 0.05 must undershoot the ratio",
    default_grid=GridSpec(0.01, 0.5, 64, "linear"),
    notes="expected-failure detector check", expects_violation=True,
))
def _build_sharp(desc, grid, K, ov):
    lower_probe = desc.id == "eq14-sharp-u"
    u = bd.alzer_u(0.5, 0.5) + (0.05 if lower_probe else 0.0)
    v = bd.alzer_v(0.5, 0.5) - (0.0 if lower_probe else 0.05)

    def row(p, read):
        b = bd.ratio_bounds(p["x"], 0.5, 0.5, "alzer_uv", u_override=u, v_override=v)
        ratio = math.exp(read((0.5, 0.5)))
        return [b.lower, ratio] if lower_probe else [ratio, b.upper]

    columns = {(0.5, 0.5): _ln_ratio(0.5, 0.5)}
    return [_chain_check(desc.id, row, _sharp_points(grid), columns=columns)]


# ---------------------------------------------------------------------------
# 3. alternating subset-sum gamma product
# ---------------------------------------------------------------------------


@_register(PropertyDescriptor(
    "thm30-lcm", "log_completely_monotonic",
    "Grinshpan-Ismail alternating subset-sum gamma product",
))
def _build_thm30(desc, grid, K, ov):
    from itertools import combinations

    a_vals = (0.5, 1.0, 1.5)
    checks = []
    for n in (1, 2, 3):
        # -sum over subsets S of (-1)^|S| psi_q(x + sum_{i in S} a_i)
        terms = [(-(-1.0) ** size, 0, sum(a_vals[i] for i in idx))
                 for size in range(n + 1) for idx in combinations(range(n), size)]
        for q in (0.5, 1.0):
            checks.append(_lcm_check(f"thm30-lcm[n={n},q={q}]", _psi_sum(q, terms), grid, K))
    return checks


# ---------------------------------------------------------------------------
# 4./5. majorized shift products
# ---------------------------------------------------------------------------

_MAJOR_CASES = (((1.0, 2.0), (1.0, 3.0)), ((0.5, 1.5), (1.0, 2.0)))


def _major_target(a_seq, b_seq, q):
    """sum_i [psi_q(x + b_i) - psi_q(x + a_i)]."""
    pairs = zip(a_seq, b_seq)
    return _psi_sum(q, [t for a_i, b_i in pairs for t in ((1.0, 0, b_i), (-1.0, 0, a_i))])


@_register(PropertyDescriptor(
    "thm1-lcm", "log_completely_monotonic",
    "majorized shift differences of a function with CM second derivative",
))
def _build_thm1(desc, grid, K, ov):
    checks = []
    for a_seq, b_seq in _MAJOR_CASES:
        if not check_majorization(a_seq, b_seq):
            raise UsageError(f"sequences {a_seq}, {b_seq} are not prefix-dominated")
        for q in (0.5, 1.0):
            checks.append(_lcm_check(
                f"thm1-lcm[a={a_seq},b={b_seq},q={q}]",
                _major_target(a_seq, b_seq, q), grid, K,
            ))
    return checks


@_register(PropertyDescriptor(
    "cor1-lcm", "log_completely_monotonic",
    "products of gamma-ratios at majorized shifts",
))
def _build_cor1(desc, grid, K, ov):
    a_seq, b_seq = (0.2, 0.7), (0.5, 0.8)
    if not check_majorization(a_seq, b_seq):
        raise UsageError("corpus sequences are not prefix-dominated")
    return [
        _lcm_check(f"cor1-lcm[q={q}]", _major_target(a_seq, b_seq, q), grid, K)
        for q in (0.3, 0.9)
    ]


# ---------------------------------------------------------------------------
# 6. midpoint / trapezoid variants
# ---------------------------------------------------------------------------


@_register(PropertyDescriptor(
    "thm2-lcm", "log_completely_monotonic",
    "midpoint and trapezoid corrections for a CM second derivative",
    notes="instantiated with f = -ln x, whose second derivative 1/x^2 is CM",
))
def _build_thm2(desc, grid, K, ov):
    checks = []
    for s in (0.25, 0.75):
        m = 0.5 * (1.0 + s)
        midpoint = [
            (-1.0, PowShift(1.0, -1.0)),
            (1.0, PowShift(s, -1.0)),
            (-(1.0 - s), PowShift(m, -2.0)),
        ]
        trapezoid = [
            (1.0, PowShift(1.0, -1.0)),
            (-1.0, PowShift(s, -1.0)),
            (0.5 * (1.0 - s), PowShift(1.0, -2.0)),
            (0.5 * (1.0 - s), PowShift(s, -2.0)),
        ]
        checks.append(_lcm_check(f"thm2-lcm[midpoint,s={s}]", midpoint, grid, K))
        checks.append(_lcm_check(f"thm2-lcm[trapezoid,s={s}]", trapezoid, grid, K))
    return checks


@_register(PropertyDescriptor(
    "cor2-lcm", "log_completely_monotonic",
    "midpoint and trapezoid gamma-ratio corrections",
))
def _build_cor2(desc, grid, K, ov):
    checks = []
    for s in (0.25, 0.75):
        m = 0.5 * (1.0 + s)
        # psi_q(x+1) - psi_q(x+s) - (1-s) psi_q'(x+m)
        midpoint = [(1.0, 0, 1.0), (-1.0, 0, s), (-(1.0 - s), 1, m)]
        # -psi_q(x+1) + psi_q(x+s) + (1-s)/2 (psi_q'(x+1) + psi_q'(x+s))
        h = 0.5 * (1.0 - s)
        trapezoid = [(-1.0, 0, 1.0), (1.0, 0, s), (h, 1, 1.0), (h, 1, s)]
        for q in (0.5, 0.9):
            for name, terms in (("midpoint", midpoint), ("trapezoid", trapezoid)):
                label = f"cor2-lcm[{name},s={s},q={q}]"
                checks.append(_lcm_check(label, QSeriesTarget(q, terms), grid, K))
    return checks


# ---------------------------------------------------------------------------
# 7.-10. ratio bracket chains
# ---------------------------------------------------------------------------


def _bracket_chain(method, grid, claim, label):
    """A classical (q = 1) bracket of ``ratio_bounds`` around ``gamma_ratio``."""
    points = [{"x": x, "q": 1.0, "s": s} for s in _S_DEFAULT for x in grid.values()]

    def row(p):
        b = bd.ratio_bounds(p["x"], p["s"], 1.0, method)
        return [b.lower, bd.gamma_ratio(p["x"], p["s"], 1.0), b.upper]

    return _chain_check(label, row, points, claim)


@_register(PropertyDescriptor(
    "thm3-chain", "chain_le",
    "Hadamard chain for psi_q: endpoint average below, midpoint above",
    _domains(q=(0.01, 0.99)), _GRID20,
))
def _build_thm3(desc, grid, K, ov):
    """``ratio_bounds(x, s, q, "im_midpoint")`` around ``gamma_ratio``, with
    the logs of all three as columns."""
    qs = [ov["q"]] if "q" in ov else list(_Q_DEFAULT)
    columns = {}
    for q in qs:
        for s in _S_DEFAULT:
            h = 0.5 * (1.0 - s)
            columns[q, s, "lower"] = QSeriesTarget(q, [(h, 0, 1.0), (h, 0, s)])
            columns[q, s, "ratio"] = _ln_ratio(q, s)
            columns[q, s, "upper"] = QSeriesTarget(q, [(1.0 - s, 0, 0.5 * (1.0 + s))])
    points = [{"x": x, "q": q, "s": s} for q in qs for s in _S_DEFAULT for x in grid.values()]

    def row(p, read):
        return [math.exp(read((p["q"], p["s"], end))) for end in ("lower", "ratio", "upper")]

    return [_chain_check("thm3-chain", row, points, "chain_le", columns)]


@_register(PropertyDescriptor(
    "merkle-chain", "chain_lt",
    "Merkle's strict digamma chain for the classical ratio",
    default_grid=_GRID20,
))
def _build_merkle(desc, grid, K, ov):
    return [_bracket_chain("merkle", grid, "chain_lt", "merkle-chain")]


@_register(PropertyDescriptor(
    "refined-chain", "chain_le",
    "geometric-mean and logarithmic-mean refinements of the digamma bracket",
    default_grid=_GRID20,
))
def _build_refined(desc, grid, K, ov):
    return [
        _bracket_chain("geomean_refined", grid, "chain_le", "refined-chain[geo]"),
        _bracket_chain("logmean_refined", grid, "chain_le", "refined-chain[logmean]"),
    ]


@_register(PropertyDescriptor(
    "kershaw-chain", "chain_le",
    "Kershaw's two-sided digamma bracket",
    default_grid=_GRID20,
))
def _build_kershaw(desc, grid, K, ov):
    return [_bracket_chain("kershaw", grid, "chain_le", "kershaw-chain")]


# ---------------------------------------------------------------------------
# 11. non-comparability of the two lower bounds
# ---------------------------------------------------------------------------


@_register(PropertyDescriptor(
    "noncompare", "chain_lt",
    "the average and geometric-shift lower bounds are not comparable",
    default_grid=GridSpec(0.1, 0.9, 9, "linear"),
))
def _build_noncompare(desc, grid, K, ov):
    ss = [round(0.1 * i, 1) for i in range(1, 10)]
    pts_a = [{"x": s} for s in ss]
    chain_a = _chain_check(
        "noncompare[x->0]",
        lambda p: [
            bd._psi_q(0, 1.0, 1.0) + bd._psi_q(0, p["x"], 1.0),
            2.0 * bd._psi_q(0, math.sqrt(p["x"]), 1.0),
        ],
        pts_a, "chain_lt",
    )
    pts_b = [{"x": x, "s": s} for x in (1.5, 2.0, 5.0) for s in ss]
    chain_b = _chain_check(
        "noncompare[x>1]",
        lambda p: [
            2.0 * bd._psi_q(0, p["x"] + math.sqrt(p["s"]), 1.0),
            bd._psi_q(0, p["x"] + 1.0, 1.0) + bd._psi_q(0, p["x"] + p["s"], 1.0),
        ],
        pts_b, "chain_lt",
    )
    return [chain_a, chain_b]


# ---------------------------------------------------------------------------
# 12. refined lower shift is LCM, plus its two supporting inequalities
# ---------------------------------------------------------------------------


@_register(PropertyDescriptor(
    "thm8-lcm", "log_completely_monotonic",
    "the sharp lower-shift bracket ratio is LCM for 0 < q < 1",
    _domains(q=(0.01, 0.99), s=(0.01, 0.99)),
))
def _build_thm8(desc, grid, K, ov):
    qs = [ov["q"]] if "q" in ov else list(_Q_DEFAULT)
    ss = [ov["s"]] if "s" in ov else list(_S_DEFAULT)
    checks = []
    for q in qs:
        for s in ss:
            u = bd.alzer_u(q, s)
            checks.append(_lcm_check(
                f"thm8-lcm[q={q},s={s}]",
                _gq_neg_log_deriv(s, 1.0, u, q), grid, K,
            ))
    return checks


@_register(PropertyDescriptor(
    "lemma10-ineq", "chain_le",
    "n-th power of the shift bracket dominates the n-step bracket",
    default_grid=GridSpec(0.1, 0.9, 9, "linear"),
))
def _build_lemma10(desc, grid, K, ov):
    pts = [
        {"x": s, "q": q, "n": n}
        for s in [round(0.1 * i, 1) for i in range(1, 10)]
        for q in [round(0.1 * i, 1) for i in range(1, 10)]
        for n in (1, 2, 3, 4, 6)
    ]

    def row(p):
        b = bd.lemma10_lhs_rhs(p["x"], p["q"], p["n"])
        return [b.lower, b.upper]

    return [_chain_check("lemma10-ineq", row, pts)]


@_register(PropertyDescriptor(
    "wqn-nonneg", "chain_le",
    "series weights of the refined lower shift are nonnegative",
    default_grid=GridSpec(0.1, 0.9, 9, "linear"),
))
def _build_wqn(desc, grid, K, ov):
    pts = [
        {"x": s, "q": q, "n": n}
        for s in [round(0.1 * i, 1) for i in range(1, 10)]
        for q in [round(0.1 * i, 1) for i in range(1, 10)]
        for n in (1, 2, 3, 5, 8)
    ]
    return [_chain_check("wqn-nonneg", lambda p: [0.0, bd.w_qn(p["x"], p["q"], p["n"])], pts)]


# ---------------------------------------------------------------------------
# 13. Bustoz-Ismail corollary functions
# ---------------------------------------------------------------------------


@_register(PropertyDescriptor(
    "cor4-lcm", "log_completely_monotonic",
    "Bustoz-Ismail squared-ratio functions with shifted prefactors",
))
def _build_cor4(desc, grid, K, ov):
    f1 = [
        (0.5, PowShift(-0.25, -1.0)),
        (-0.5, PowShift(0.25, -1.0)),
        (-2.0, PolyGammaShift(0, 0.5)),
        (1.0, PolyGammaShift(0, 0.0)),
        (1.0, PolyGammaShift(0, 1.0)),
    ]
    f2 = [
        (0.5, PowShift(0.5, -1.0)),
        (-0.5, PowShift(0.0, -1.0)),
        (2.0, PolyGammaShift(0, 0.5)),
        (-1.0, PolyGammaShift(0, 0.0)),
        (-1.0, PolyGammaShift(0, 1.0)),
    ]
    g1 = GridSpec(0.26, 100.0, grid.points, "log")
    return [
        _lcm_check("cor4-lcm[first]", f1, g1, K),
        _lcm_check("cor4-lcm[second]", f2, grid, K),
    ]


@_register(PropertyDescriptor(
    "cor4-lcm-orig", "log_completely_monotonic",
    "original Bustoz-Ismail variant with prefactor (1 - 1/(2x))^(-1/2)",
    default_grid=GridSpec(0.51, 100.0, 64, "log"),
    notes="stated classically as CM on (1/2, inf); the stronger LCM form is verified",
))
def _build_cor4_orig(desc, grid, K, ov):
    terms = [
        (0.5, PowShift(-0.5, -1.0)),
        (-0.5, PowShift(0.0, -1.0)),
        (-2.0, PolyGammaShift(0, 0.5)),
        (1.0, PolyGammaShift(0, 0.0)),
        (1.0, PolyGammaShift(0, 1.0)),
    ]
    return [_lcm_check("cor4-lcm-orig", terms, grid, K)]


# ---------------------------------------------------------------------------
# 14. Stirling-quotient family and the Keckic-Vasic bracket
# ---------------------------------------------------------------------------


@_register(PropertyDescriptor(
    "ilm-lcm", "log_completely_monotonic",
    "Ismail-Lorch-Muldoon Stirling quotient x^a Gamma(x) (e/x)^x",
))
def _build_ilm(desc, grid, K, ov):
    def terms(alpha):
        return [
            (-alpha, PowShift(0.0, -1.0)),
            (1.0, LogShift(0.0)),
            (-1.0, PolyGammaShift(0, 0.0)),
        ]

    checks = [
        _lcm_check(f"ilm-lcm[alpha={a}]", terms(a), grid, K) for a in (0.5, 0.25)
    ]
    checks += [
        _lcm_check(f"ilm-lcm[recip,alpha={a}]", _neg(terms(a)), grid, K)
        for a in (1.0, 1.5)
    ]
    return checks


@_register(PropertyDescriptor(
    "kv-bounds", "chain_le",
    "Keckic-Vasic bracket for the gamma ratio",
    default_grid=GridSpec(0.5, 8.0, 16, "linear"),
))
def _build_kv(desc, grid, K, ov):
    pts = [
        {"x": a, "b": a + da}
        for a in grid.values()
        for da in (0.5, 1.0, 2.5)
    ]

    def row(p):
        b = bd.keckic_vasic_bounds(p["x"], p["b"])
        ratio = math.exp(bd._psi_q(-1, p["b"], 1.0) - bd._psi_q(-1, p["x"], 1.0))
        return [b.lower, ratio, b.upper]

    return [_chain_check("kv-bounds", row, pts)]


# ---------------------------------------------------------------------------
# 15. q-power weight and the three-point ratio
# ---------------------------------------------------------------------------


@_register(PropertyDescriptor(
    "qpow-lcm", "log_completely_monotonic",
    "the weight (1-q)^x Gamma_q(x) is LCM",
    _domains(q=(0.01, 0.99)),
))
def _build_qpow(desc, grid, K, ov):
    qs = [ov["q"]] if "q" in ov else list(_Q_DEFAULT)
    # h' = -ln(1 - q) - psi_q(x)
    return [
        _lcm_check(f"qpow-lcm[q={q}]", QSeriesTarget(q, [(-1.0, 0, 0.0)], const=1.0), grid, K)
        for q in qs
    ]


@_register(PropertyDescriptor(
    "ag-gx", "chain_le",
    "Alzer-Grinshpan three-point ratio stays above its limit 1",
    default_grid=_GRID20,
))
def _build_ag(desc, grid, K, ov):
    pts = [
        {"x": x, "a": a, "q": q}
        for a in (0.5, 1.0)
        for q in (0.3, 0.7)
        for x in grid.values()
    ]
    # ln g_AG: the (1 - q)^y factors cancel
    columns = {(a, q): QSeriesTarget(q, [(1.0, -1, 0.0), (1.0, -1, 2.0 * a), (-2.0, -1, a)])
               for a in (0.5, 1.0) for q in (0.3, 0.7)}
    return [_chain_check(
        "ag-gx", lambda p, read: [1.0, math.exp(read((p["a"], p["q"])))], pts, columns=columns,
    )]


# ---------------------------------------------------------------------------
# 16. beta-rescaled gamma and the four-point corollary
# ---------------------------------------------------------------------------


@_register(PropertyDescriptor(
    "beta-lcm", "log_completely_monotonic",
    "beta-rescaled q-gamma quotient, both regimes",
    _domains(q=(0.01, 0.99)),
))
def _build_beta(desc, grid, K, ov):
    """h' = psi_{q^(1/beta)}(beta x) - psi_q(x), negated for beta < 1."""
    qs = [ov["q"]] if "q" in ov else (0.3, 0.7)
    return [
        _lcm_check(f"beta-lcm[q={q},beta={beta}]",
                   QSeriesTarget(q, [(sign, 0, 0.0, 1.0 / beta), (-sign, 0, 0.0)]), grid, K)
        for q in qs for beta, sign in ((2.0, 1.0), (0.5, -1.0))
    ]


@_register(PropertyDescriptor(
    "cor5-ineq", "chain_le",
    "power-scaled four-gamma inequality, both regimes",
    default_grid=GridSpec(0.1, 5.0, 8, "linear"),
))
def _build_cor5(desc, grid, K, ov):
    triples = ((1.0, 1.0, 1.0), (0.5, 1.0, 2.0), (2.0, 0.3, 0.7), (1e-4, 1.0, 1.0))
    pts = [
        {"x": x, "y": y, "z": z, "alpha": alpha, "q": 0.5}
        for (x, y, z) in triples
        for alpha in (2.0, 3.0, 0.5, 0.3)
    ]

    def row(p):
        t = bd.cor5_inequality(p["x"], p["y"], p["z"], p["alpha"], p["q"])
        return [t.lhs, t.rhs] if p["alpha"] > 1.0 else [t.rhs, t.lhs]

    return [_chain_check("cor5-ineq", row, pts)]


# ---------------------------------------------------------------------------
# 17./18. strictly-CM families with only-if probes
# ---------------------------------------------------------------------------


def _falpha_terms(alpha):
    return [
        (-1.0, PolyGammaShift(0, 0.0)),
        (1.0, LogShift(0.0)),
        (-0.5, PowShift(0.0, -1.0)),
        (1.0 / 12.0, PolyGammaShift(2, alpha)),
    ]


@_register(PropertyDescriptor(
    "falpha-cm", "completely_monotonic",
    "Stirling-defect derivative with trigamma correction is strictly CM",
))
def _build_falpha(desc, grid, K, ov):
    checks = [
        _cm_check(f"falpha-cm[alpha={a}]", LinComb(_falpha_terms(a)), grid, K, strict=True)
        for a in (0.5, 1.0)
    ]
    checks.append(_cm_check(
        "falpha-cm[neg,alpha=0]", LinComb(_neg(_falpha_terms(0.0))), grid, K
    ))
    return checks


@_register(PropertyDescriptor(
    "falpha-onlyif", "completely_monotonic",
    "only-if probe: alpha = 0.4 must break complete monotonicity",
    default_grid=_GRID50,
    notes="expected-failure detector check", expects_violation=True,
))
def _build_falpha_onlyif(desc, grid, K, ov):
    return [_cm_check("falpha-onlyif", LinComb(_falpha_terms(0.4)), grid, K)]


def _gc_terms(c):
    return [
        (1.0, LnGammaFn()),
        (-1.0, XLogX()),
        (1.0, Affine(0.0, 1.0)),
        (1.0, Const(-0.5 * math.log(2.0 * math.pi))),
        (0.5, PolyGammaShift(0, c)),
    ]


@_register(PropertyDescriptor(
    "gc-cm", "completely_monotonic",
    "Alzer-Batir normalized log-gamma with half-digamma correction",
))
def _build_gc(desc, grid, K, ov):
    checks = [
        _cm_check(f"gc-cm[c={c}]", LinComb(_gc_terms(c)), grid, K)
        for c in (1.0 / 3.0, 0.5)
    ]
    checks.append(_cm_check("gc-cm[neg,c=0]", LinComb(_neg(_gc_terms(0.0))), grid, K))
    return checks


@_register(PropertyDescriptor(
    "gc-onlyif", "completely_monotonic",
    "only-if probe: c = 0.2 must break complete monotonicity",
    notes="expected-failure detector check", expects_violation=True,
))
def _build_gc_onlyif(desc, grid, K, ov):
    return [_cm_check("gc-onlyif", LinComb(_gc_terms(0.2)), grid, K)]


# ---------------------------------------------------------------------------
# 19./20. polygamma product family
# ---------------------------------------------------------------------------

_THM4_TUPLES = ((3, 2, 2, 1), (4, 3, 2, 1), (2, 1, 1, 0))


@_register(PropertyDescriptor(
    "thm4-cm", "completely_monotonic",
    "polygamma product comparisons at the critical constants",
))
def _build_thm4(desc, grid, K, ov):
    checks = []
    for tup in _THM4_TUPLES:
        consts = bd.poly_constants(*tup)
        checks.append(_cm_check(
            f"thm4-cm[F,{tup}]", PolyProductTarget(*tup, consts.c), grid, K
        ))
        if tup[3] > 0:
            checks.append(_cm_check(
                f"thm4-cm[-F,{tup}]", PolyProductTarget(*tup, consts.d, sign=-1.0), grid, K
            ))
    return checks


@_register(PropertyDescriptor(
    "eq42-nonneg", "nonneg",
    "squared trigamma dominates the negated tetragamma",
))
def _build_eq42(desc, grid, K, ov):
    return [Check("eq42-nonneg", check_sign_pattern, dict(
        target=PolyProductTarget(2, 1, 1, 0, 1.0), K=0, grid=grid, claim="nonneg", strict=True,
    ))]


# ---------------------------------------------------------------------------
# 21. squared-difference chains
# ---------------------------------------------------------------------------


_PAIR_CS = (0.5, 2.0)


def _pair_order(c, lhs, mid, rhs):
    """The chain lhs > mid > rhs for c < 1, reversed for c > 1, ascending."""
    return [rhs, mid, lhs] if c < 1.0 else [lhs, mid, rhs]


@_register(PropertyDescriptor(
    "prop51-chain", "chain_lt",
    "squared digamma-difference chain, both regimes",
    default_grid=_GRID50,
))
def _build_prop51(desc, grid, K, ov):
    pts = [{"x": x, "c": c} for c in _PAIR_CS for x in grid.values()]

    def row(p):
        t = bd.psi_pair_inequality(p["x"], p["c"], "classical")
        return _pair_order(p["c"], t.lhs, t.mid, t.rhs)

    return [_chain_check("prop51-chain", row, pts, "chain_lt")]


@_register(PropertyDescriptor(
    "thm52-chain", "chain_lt",
    "q-analogue of the squared-difference chain, both regimes",
    _domains(q=(0.01, 0.99)), _GRID20,
))
def _build_thm52(desc, grid, K, ov):
    """``psi_pair_inequality(x, c, "q_analogue", q)`` from two columns:
    psi_q(x + c) - psi_q(x) and psi_q'(x) - psi_q'(x + c)."""
    qs = [ov["q"]] if "q" in ov else (0.3, 0.7)
    pts = [{"x": x, "c": c, "q": q} for q in qs for c in _PAIR_CS for x in grid.values()]
    columns = {}
    for q in qs:
        for c in _PAIR_CS:
            columns[q, c, "d"] = QSeriesTarget(q, [(1.0, 0, c), (-1.0, 0, 0.0)])
            columns[q, c, "mid"] = QSeriesTarget(q, [(1.0, 1, 0.0), (-1.0, 1, c)])

    def row(p, read):
        x, c, q = p["x"], p["c"], p["q"]
        d = read((q, c, "d"))
        pref = (1.0 - q) / (1.0 - q**c)
        return _pair_order(c, pref * d * d, (q**x) * read((q, c, "mid")), d * d)

    return [_chain_check("thm52-chain", row, pts, "chain_lt", columns)]


@_register(PropertyDescriptor(
    "cor51-nonneg", "chain_le",
    "squared q-trigamma dominates the weighted q-tetragamma",
    _domains(q=(0.01, 0.99)), _GRID50,
))
def _build_cor51(desc, grid, K, ov):
    qs = [ov["q"]] if "q" in ov else list(_Q_DEFAULT)
    pts = [{"x": x, "q": q} for q in qs for x in grid.values()]
    # psi_q' and psi_q''
    columns = {(q, n): QSeriesTarget(q, [(1.0, n, 0.0)]) for q in qs for n in (1, 2)}

    def row(p, read):
        x, q = p["x"], p["q"]
        p1, p2 = read((q, 1)), read((q, 2))
        return [0.0, p1 * p1 + math.log(1.0 / q) * (q**x) / (1.0 - q) * p2]

    return [_chain_check("cor51-nonneg", row, pts, columns=columns)]


# ---------------------------------------------------------------------------
# 22./23. weighted polygamma monotonicity
# ---------------------------------------------------------------------------


def _f_an(a, n):
    sign = 1.0 if n % 2 == 1 else -1.0
    tgt = MonomialPolyGamma(n, n, a, sign)
    return tgt


@_register(PropertyDescriptor(
    "lem-thm11", "increasing",
    "x^n-weighted polygamma: increasing iff the shift is >= 1/2",
    default_grid=GridSpec(0.0, 20.0, 64, "linear"),
    max_order=6,
))
def _build_thm11(desc, grid, K, ov):
    checks = []
    for a in (0.5, 1.0):
        for n in (1, 2, 3):
            tgt = _f_an(a, n)
            checks.append(_probe_check(
                f"lem-thm11[incr,a={a},n={n}]", tgt, grid, "increasing",
                {"a": a, "n": n}, deriv_fn=tgt,
            ))
    dec_grid = GridSpec(1e-2, 20.0, grid.points, "log")
    for n in (1, 2, 3):
        checks.append(_probe_check(
            f"lem-thm11[decr,n={n}]", _f_an(0.0, n), dec_grid, "decreasing",
            {"n": n},
        ))
    # companion CM forms: x psi'(x) and psi'(x+a) + x psi''(x+a)
    checks.append(_cm_check("lem-thm11[cm,x*psi1]", MonomialPolyGamma(1, 1, 0.0, 1.0), dec_grid, K))
    for a in (0.5, 1.0):
        combo = LinComb([
            (1.0, PolyGammaShift(1, a)),
            (1.0, MonomialPolyGamma(1, 2, a, 1.0)),
        ])
        checks.append(_cm_check(f"lem-thm11[cm,deriv,a={a}]", combo, dec_grid, K))
    return checks


@_register(PropertyDescriptor(
    "thm11-onlyif", "increasing",
    "only-if probe: shift 0.4 must break the increasing claim",
    default_grid=_GRID50,
    notes="expected-failure detector check", expects_violation=True,
))
def _build_thm11_onlyif(desc, grid, K, ov):
    return [_probe_check(
        "thm11-onlyif", _f_an(0.4, 1), grid, "increasing", {"a": 0.4, "n": 1}
    )]


@_register(PropertyDescriptor(
    "eq43-range", "decreasing",
    "the polygamma log-slope ratio decreases onto (n, n+1]",
    default_grid=_GRID50,
))
def _build_eq43(desc, grid, K, ov):
    checks = []
    for n in (1, 2, 3):
        def fn(x, n=n):
            return -x * bd._psi_q(n + 1, x, 1.0) / bd._psi_q(n, x, 1.0)

        checks.append(_probe_check(
            f"eq43-range[n={n}]", fn, grid, "decreasing", {"n": n},
            value_range=(float(n), float(n + 1)),
        ))
    return checks


@_register(PropertyDescriptor(
    "prop-cor45", "decreasing",
    "shifted polygamma slope ratio decreases; tends to -n",
    default_grid=GridSpec(0.0, 50.0, 64, "linear"),
))
def _build_cor45(desc, grid, K, ov):
    checks = []
    for a in (0.5, 1.0):
        for n in (1, 2):
            def fn(x, a=a, n=n):
                return x * bd._psi_q(n + 1, x + a, 1.0) / bd._psi_q(n, x + a, 1.0)

            checks.append(_probe_check(
                f"prop-cor45[a={a},n={n}]", fn, grid, "decreasing", {"a": a, "n": n}
            ))
            checks.append(_chain_check(
                f"prop-cor45[limit,a={a},n={n}]",
                lambda p, f=fn, n=n: [abs(f(p["x"]) + n), 2e-2],
                [{"x": 1000.0}],
            ))
    return checks


# ---------------------------------------------------------------------------
# 24. kernel positivity and the weighted polygamma CM family
# ---------------------------------------------------------------------------


@_register(PropertyDescriptor(
    "ci-kernel", "chain_lt",
    "Clark-Ismail kernel derivatives stay positive up to order 16",
    _domains(n_max=(1, 16)), GridSpec(1e-2, 40.0, 64, "log"),
))
def _build_ci_kernel(desc, grid, K, ov):
    n_max = int(ov.get("n_max", 16))

    def row(p):
        return [0.0, sf.kernel_derivative(p["n"], p["n"], p["x"])]

    checks = []
    for n in range(1, n_max + 1):
        g = grid if n <= 8 else grid.with_points(max(8, grid.points // 2))
        checks.append(_chain_check(f"ci-kernel[n={n}]", row, _x_points(g, {"n": n}), "chain_lt"))
    return checks


@_register(PropertyDescriptor(
    "f0n-cm", "completely_monotonic",
    "x^n-weighted polygamma is CM up to weight 16",
    _domains(n_max=(1, 16)), max_order=6,
))
def _build_f0n(desc, grid, K, ov):
    n_max = int(ov.get("n_max", 16))
    checks = []
    for n in range(1, n_max + 1):
        g = grid if n <= 8 else grid.with_points(max(8, grid.points // 2))
        checks.append(_cm_check(f"f0n-cm[n={n}]", _f_an(0.0, n), g, K, params={"n": n}))
    return checks


@_register(PropertyDescriptor(
    "xf01-cm", "completely_monotonic",
    "second derivative of x^2 psi'(x) is strictly CM",
    max_order=6,
))
def _build_xf01(desc, grid, K, ov):
    # x^2 psi'(x) = 1 + x^2 psi'(x+1), so past order 1 the shifted form has
    # identical derivatives without the pole collision at x -> 0
    target = DerivOffset(MonomialPolyGamma(2, 1, 1.0, 1.0), 2)
    return [_cm_check("xf01-cm", target, grid, K, strict=True)]


# ---------------------------------------------------------------------------
# 25. q-analogue of the weighted monotonicity
# ---------------------------------------------------------------------------


@_register(PropertyDescriptor(
    "qthm-monotone", "decreasing",
    "(1-q^x)^n-weighted q-polygamma decreases",
    _domains(q=(0.01, 0.99)), _GRID20,
))
def _build_qthm(desc, grid, K, ov):
    qs = [ov["q"]] if "q" in ov else (0.3, 0.7)
    checks = []
    for q in qs:
        for n in (1, 2, 3):
            def fn(x, q=q, n=n):
                w = (1.0 - q**x) ** n
                sign = 1.0 if n % 2 == 1 else -1.0
                return w * sign * bd._psi_q(n, x, q)

            checks.append(_probe_check(
                f"qthm-monotone[q={q},n={n}]", fn, grid, "decreasing", {"q": q, "n": n}
            ))
    return checks


# ---------------------------------------------------------------------------
# 26. unit-ball volume brackets and the duplication identity
# ---------------------------------------------------------------------------


@_register(PropertyDescriptor(
    "ball-thm51", "chain_le",
    "unit-ball ratio refinement with half-shifted exponents",
    {"n_max": (1, 100000)}, GridSpec(1, 200, 200, "linear"),
))
def _build_ball51(desc, grid, K, ov):
    n_max = int(ov.get("n_max", 200))
    rows = {}
    for n in range(1, n_max + 1):
        bb = bd.ball_ratio_bounds(n)
        rows[float(n)] = [bb.thm51.lower, bb.thm51_exact, bb.thm51.upper]
    return [_chain_check("ball-thm51", lambda p: rows[p["x"]], [{"x": x} for x in rows])]


@_register(PropertyDescriptor(
    "ball-eq13", "chain_le",
    "exponential digamma bracket for consecutive ball-volume ratios",
    {"n_max": (2, 100000)}, GridSpec(2, 200, 199, "linear"),
    notes="lower bound strict; upper bound attained at n = 2",
))
def _build_ball13(desc, grid, K, ov):
    """The strict lower side is one chain per n, so that the strict spot
    check looks at every n; the upper side is one chain over all n."""
    n_max = int(ov.get("n_max", 200))
    checks, upper = [], {}
    for n in range(2, n_max + 1):
        bb = bd.ball_ratio_bounds(n)
        lo, exact, hi = bb.eq13.lower, bb.eq13_exact, bb.eq13.upper
        checks.append(_chain_check(
            f"ball-eq13[lo,n={n}]", lambda p, lo=lo, exact=exact: [lo, exact], [{"x": float(n)}],
            "chain_lt",
        ))
        upper[float(n)] = [exact, hi]
    checks.append(_chain_check("ball-eq13[hi]", lambda p: upper[p["x"]], [{"x": x} for x in upper]))
    return checks


@_register(PropertyDescriptor(
    "dup-psi", "chain_le",
    "digamma duplication identity residual stays below 1e-12",
    default_grid=GridSpec(1e-2, 25.0, 64, "log"),
))
def _build_dup(desc, grid, K, ov):
    def row(p):
        x = p["x"]
        resid = abs(
            bd._psi_q(0, 2.0 * x, 1.0)
            - 0.5 * bd._psi_q(0, x, 1.0)
            - 0.5 * bd._psi_q(0, x + 0.5, 1.0)
            - math.log(2.0)
        )
        return [resid, 1e-12]

    return [_chain_check("dup-psi", row, _x_points(grid))]


# ---------------------------------------------------------------------------
# 27. structural lemmas: root count, kernel superadditivity, mean ordering
# ---------------------------------------------------------------------------

_LEM5_CASES = ((3, 1, 0.5), (2, 1, 0.9), (5, 2, 0.3), (4, 3, 0.7))


@_register(PropertyDescriptor(
    "lem5-root", "nonneg",
    "comparison polynomial has exactly one root past 1",
    {"grid_points": (8, 100000)}, GridSpec(1.0, 2.0, 10000, "linear"),
))
def _build_lem5(desc, grid, K, ov):
    return [Check("lem5-root", _check_lem5, dict(grid=grid))]


def _check_lem5(grid, tol, label):
    """Each case's root has residual <= 1e-12 and a(t) changes sign exactly
    once on [1, 2 * root]; ``tol`` is unused (the residual bound is fixed)."""
    violations = []
    worst = math.inf
    for m, n, c in _LEM5_CASES:
        root = bd.a_poly_root(m, n, c)
        resid = abs(bd.a_poly(root, m, n, c))
        changes = bd.a_poly_sign_changes(m, n, c, 2.0 * root, grid.points)
        worst = min(worst, 1e-12 - resid)
        if resid > 1e-12:
            violations.append(Violation(root, {"m": m, "n": n, "c": c}, 0, resid, 1e-12, 1e-12 - resid))
        if changes != 1:
            violations.append(Violation(root, {"m": m, "n": n, "c": c, "sign_changes": changes}, 0, float(changes), 1.0, -abs(changes - 1)))
    status = "fail" if violations else "pass"
    return VerificationReport(label, status, worst, violations, grid=grid)


@_register(PropertyDescriptor(
    "lem6-kernel", "chain_le",
    "exponential smoothing kernel is superadditive under splitting",
    default_grid=GridSpec(1e-2, 20.0, 32, "log"),
))
def _build_lem6(desc, grid, K, ov):
    pts = [
        {"x": s, "t": s * f}
        for s in grid.values()
        for f in (1.5, 2.0, 4.0, 8.0)
    ]
    return [_chain_check(
        "lem6-kernel",
        lambda p: [sf.kernel_h(p["t"]), sf.kernel_h(p["x"]) * sf.kernel_h(p["t"] - p["x"])],
        pts,
    )]


@_register(PropertyDescriptor(
    "lem4-lr", "chain_lt",
    "generalized logarithmic mean increases in its order",
    default_grid=GridSpec(1.0, 3.0, 2, "linear"),
))
def _build_lem4(desc, grid, K, ov):
    orders = (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0)
    return [_chain_check(
        "lem4-lr", lambda p: [sf.log_mean(r, 1.0, 3.0) for r in orders], [{"x": 1.0}], "chain_lt"
    )]


ALL_IDS = tuple(sorted(_REGISTRY))
