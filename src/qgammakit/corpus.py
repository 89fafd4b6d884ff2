"""Registry of verifiable claims with default grids and instantiation.

Each descriptor packages one claim family (a monotonicity statement, a
complete-monotonicity statement or a chained inequality), its parameter
domains and a default grid, so the whole collection can be verified with a
single command.  A few entries are deliberate expected-failure probes: they
perturb a sharp constant or step outside an if-and-only-if threshold and
must record at least one violation (they verify that the detector detects).
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
    ExpNegForm,
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
    return [(-c, t, *rest) for (c, t, *rest) in terms]


def _gq_neg_log_deriv(a: float, b: float, c: float, q: float, sign: float = 1.0):
    """Target for -(ln g_q(x; a, b, c))' (negated when sign = -1).

    For q = 1 this is an explicit pole/digamma combination.  For q < 1 the
    three constituent series share the factor q^(jx), so they are combined
    coefficient-wise: the branch constants cancel exactly and no floating-
    point cancellation is left at either end of the grid.
    """
    if q == 1.0:
        terms = [
            (-(a - b), DerivOffset(LogShift(c), 1), 0.0),
            (-1.0, PolyGammaShift(0, b), 0.0),
            (1.0, PolyGammaShift(0, a), 0.0),
        ]
        return LinComb(terms if sign > 0 else _neg(terms))
    lnq = math.log(q)
    m = min(a, b)

    def coeff_bracket(j):
        return np.full_like(j, b - a)

    def coeff_psi(j):
        return (np.exp(j * ((b - m) * lnq)) - np.exp(j * ((a - m) * lnq))) / (
            -np.expm1(j * lnq)
        )

    components = [
        (c, coeff_bracket, abs(b - a), 0),
        (m, coeff_psi, 1.0 / (1.0 - q), 0),
    ]
    return QSeriesTarget(q, components, 0.0, sign)


def _lcm_check(label, target, grid, K):
    if not isinstance(target, (LinComb, QSeriesTarget)):
        target = LinComb(target)
    return Check(label, check_sign_pattern, dict(
        target=ExpNegForm(target), K=K, grid=grid, claim="log_completely_monotonic",
    ))


def _cm_check(label, target, grid, K, strict=False, params=None):
    return Check(label, check_sign_pattern, dict(
        target=target, K=K, grid=grid, claim="completely_monotonic",
        strict=strict, params=params,
    ))


def _chain_check(label, row, points, claim="chain_le"):
    """A chain whose ``row(p)`` gives all its values at point p at once."""
    return Check(label, check_chain, dict(exprs=row, points=points, claim=claim))


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

    def row(p):
        u, v = uv[(p["q"], p["s"])]
        b = bd.ratio_bounds(p["x"], p["s"], p["q"], "alzer_uv", u_override=u, v_override=v)
        return [b.lower, bd.gamma_ratio(p["x"], p["s"], p["q"]), b.upper]

    return [_chain_check("eq14-bounds", row, _eq14_points(qs, ss, grid), "chain_lt")]


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

    def row(p):
        b = bd.ratio_bounds(p["x"], 0.5, 0.5, "alzer_uv", u_override=u, v_override=v)
        ratio = bd.gamma_ratio(p["x"], 0.5, 0.5)
        return [b.lower, ratio] if lower_probe else [ratio, b.upper]

    return [_chain_check(desc.id, row, _sharp_points(grid))]


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
        for q in (0.5, 1.0):
            if q == 1.0:
                terms = []
                for size in range(n + 1):
                    sign = 1.0 if size % 2 == 0 else -1.0
                    for idx in combinations(range(n), size):
                        shift = sum(a_vals[i] for i in idx)
                        terms.append((-sign, PolyGammaShift(0, shift), 0.0))
                target = LinComb(terms)
            else:
                # the alternating subset sums collapse: coefficient of q^(jx)
                # is prod_i (1 - q^(j a_i)) / (1 - q^j)
                lnq = math.log(q)

                def coeff(j, n=n):
                    out = 1.0 / (-np.expm1(j * lnq))
                    for a in a_vals[:n]:
                        out = out * (-np.expm1(j * (a * lnq)))
                    return out

                target = QSeriesTarget(q, [(0.0, coeff, 1.0 / (1.0 - q), 0)])
            checks.append(_lcm_check(f"thm30-lcm[n={n},q={q}]", target, grid, K))
    return checks


# ---------------------------------------------------------------------------
# 4./5. majorized shift products
# ---------------------------------------------------------------------------

_MAJOR_CASES = (((1.0, 2.0), (1.0, 3.0)), ((0.5, 1.5), (1.0, 2.0)))


def _major_target(a_seq, b_seq, q):
    """sum_i [psi_q(x + b_i) - psi_q(x + a_i)] as a cancellation-free target."""
    if q == 1.0:
        terms = []
        for a_i, b_i in zip(a_seq, b_seq):
            terms += [(1.0, PolyGammaShift(0, b_i), 0.0), (-1.0, PolyGammaShift(0, a_i), 0.0)]
        return LinComb(terms)
    lnq = math.log(q)
    components = []
    for a_i, b_i in zip(a_seq, b_seq):
        def coeff(j, a_i=a_i, b_i=b_i):
            return (-np.expm1(j * ((b_i - a_i) * lnq))) / (-np.expm1(j * lnq))

        components.append((float(a_i), coeff, 1.0 / (1.0 - q), 0))
    return QSeriesTarget(q, components)


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
            (-1.0, PowShift(1.0, -1.0), 0.0),
            (1.0, PowShift(s, -1.0), 0.0),
            (-(1.0 - s), PowShift(m, -2.0), 0.0),
        ]
        trapezoid = [
            (1.0, PowShift(1.0, -1.0), 0.0),
            (-1.0, PowShift(s, -1.0), 0.0),
            (0.5 * (1.0 - s), PowShift(1.0, -2.0), 0.0),
            (0.5 * (1.0 - s), PowShift(s, -2.0), 0.0),
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
        for q in (0.5, 0.9):
            lnq = math.log(q)
            amp = 1.0 / (1.0 - q)

            # psi_q(x+1) - psi_q(x+s) - (1-s) psi_q'(x+m), coefficient-combined
            # and rebased at shift s (the slowest-decaying factor)
            def coeff_mid(j, s=s, m=m, lnq=lnq):
                return (
                    1.0
                    - np.exp(j * ((1.0 - s) * lnq))
                    + (1.0 - s) * lnq * j * np.exp(j * ((m - s) * lnq))
                ) / (-np.expm1(j * lnq))

            # -psi_q(x+1) + psi_q(x+s) + (1-s)/2 (psi_q'(x+1) + psi_q'(x+s))
            def coeff_trap(j, s=s, lnq=lnq):
                e = np.exp(j * ((1.0 - s) * lnq))
                return (e - 1.0 - 0.5 * (1.0 - s) * lnq * j * (e + 1.0)) / (
                    -np.expm1(j * lnq)
                )

            amp_mid = amp * (1.0 + (1.0 - s) * abs(lnq))
            checks.append(_lcm_check(
                f"cor2-lcm[midpoint,s={s},q={q}]",
                QSeriesTarget(q, [(s, coeff_mid, amp_mid, 1)]), grid, K,
            ))
            checks.append(_lcm_check(
                f"cor2-lcm[trapezoid,s={s},q={q}]",
                QSeriesTarget(q, [(s, coeff_trap, amp_mid, 1)]), grid, K,
            ))
    return checks


# ---------------------------------------------------------------------------
# 7.-10. ratio bracket chains
# ---------------------------------------------------------------------------


def _bracket_chain(method, qs, ss, grid, claim, label):
    xs = grid.values()
    points = [{"x": x, "q": q, "s": s} for q in qs for s in ss for x in xs]

    def row(p):
        b = bd.ratio_bounds(p["x"], p["s"], p["q"], method)
        return [b.lower, bd.gamma_ratio(p["x"], p["s"], p["q"]), b.upper]

    return _chain_check(label, row, points, claim)


@_register(PropertyDescriptor(
    "thm3-chain", "chain_le",
    "Hadamard chain for psi_q: endpoint average below, midpoint above",
    _domains(q=(0.01, 0.99)), _GRID20,
))
def _build_thm3(desc, grid, K, ov):
    qs = [ov["q"]] if "q" in ov else list(_Q_DEFAULT)
    return [_bracket_chain("im_midpoint", qs, _S_DEFAULT, grid, "chain_le", "thm3-chain")]


@_register(PropertyDescriptor(
    "merkle-chain", "chain_lt",
    "Merkle's strict digamma chain for the classical ratio",
    default_grid=_GRID20,
))
def _build_merkle(desc, grid, K, ov):
    return [_bracket_chain("merkle", (1.0,), _S_DEFAULT, grid, "chain_lt", "merkle-chain")]


@_register(PropertyDescriptor(
    "refined-chain", "chain_le",
    "geometric-mean and logarithmic-mean refinements of the digamma bracket",
    default_grid=_GRID20,
))
def _build_refined(desc, grid, K, ov):
    return [
        _bracket_chain("geomean_refined", (1.0,), _S_DEFAULT, grid, "chain_le", "refined-chain[geo]"),
        _bracket_chain("logmean_refined", (1.0,), _S_DEFAULT, grid, "chain_le", "refined-chain[logmean]"),
    ]


@_register(PropertyDescriptor(
    "kershaw-chain", "chain_le",
    "Kershaw's two-sided digamma bracket",
    default_grid=_GRID20,
))
def _build_kershaw(desc, grid, K, ov):
    return [_bracket_chain("kershaw", (1.0,), _S_DEFAULT, grid, "chain_le", "kershaw-chain")]


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
            bd._psi_q(1.0, 1.0) + bd._psi_q(p["x"], 1.0),
            2.0 * bd._psi_q(math.sqrt(p["x"]), 1.0),
        ],
        pts_a, "chain_lt",
    )
    pts_b = [{"x": x, "s": s} for x in (1.5, 2.0, 5.0) for s in ss]
    chain_b = _chain_check(
        "noncompare[x>1]",
        lambda p: [
            2.0 * bd._psi_q(p["x"] + math.sqrt(p["s"]), 1.0),
            bd._psi_q(p["x"] + 1.0, 1.0) + bd._psi_q(p["x"] + p["s"], 1.0),
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
        (0.5, PowShift(-0.25, -1.0), 0.0),
        (-0.5, PowShift(0.25, -1.0), 0.0),
        (-2.0, PolyGammaShift(0, 0.5), 0.0),
        (1.0, PolyGammaShift(0, 0.0), 0.0),
        (1.0, PolyGammaShift(0, 1.0), 0.0),
    ]
    f2 = [
        (0.5, PowShift(0.5, -1.0), 0.0),
        (-0.5, PowShift(0.0, -1.0), 0.0),
        (2.0, PolyGammaShift(0, 0.5), 0.0),
        (-1.0, PolyGammaShift(0, 0.0), 0.0),
        (-1.0, PolyGammaShift(0, 1.0), 0.0),
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
        (0.5, PowShift(-0.5, -1.0), 0.0),
        (-0.5, PowShift(0.0, -1.0), 0.0),
        (-2.0, PolyGammaShift(0, 0.5), 0.0),
        (1.0, PolyGammaShift(0, 0.0), 0.0),
        (1.0, PolyGammaShift(0, 1.0), 0.0),
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
            (-alpha, PowShift(0.0, -1.0), 0.0),
            (1.0, LogShift(0.0), 0.0),
            (-1.0, PolyGammaShift(0, 0.0), 0.0),
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
        ratio = math.exp(bd._ln_gamma_q(p["b"], 1.0) - bd._ln_gamma_q(p["x"], 1.0))
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
    checks = []
    for q in qs:
        lnq = math.log(q)

        def coeff(j, lnq=lnq):
            return 1.0 / (-np.expm1(j * lnq))

        checks.append(_lcm_check(
            f"qpow-lcm[q={q}]",
            QSeriesTarget(q, [(0.0, coeff, 1.0 / (1.0 - q), 0)]), grid, K,
        ))
    return checks


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
    return [_chain_check(
        "ag-gx",
        lambda p: [1.0, bd.auxiliary_function("g_AG", p["x"], {"a": p["a"], "q": p["q"]})],
        pts,
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
    """h' = psi_{q^(1/beta)}(beta x) - psi_q(x), negated for beta < 1.

    With 1 - q^(2j) = (1 - q^j)(1 + q^j) the two psi_q series combine into
    one of positive terms, c q^(jx) / (1 + q^(jc)) with c = 1/2 at beta = 2
    and c = 1 at beta = 1/2, and the branch constants into log1p(q^c).
    """
    qs = [ov["q"]] if "q" in ov else (0.3, 0.7)
    checks = []
    for q in qs:
        lnq = math.log(q)
        for beta, c, const in ((2.0, 0.5, math.log1p(math.sqrt(q))), (0.5, 1.0, math.log1p(q))):

            def coeff(j, c=c, lnq=lnq):
                return c / (1.0 + np.exp(j * (c * lnq)))

            target = QSeriesTarget(q, [(0.0, coeff, c, 0)], const=const)
            checks.append(_lcm_check(f"beta-lcm[q={q},beta={beta}]", target, grid, K))
    return checks


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
        (-1.0, PolyGammaShift(0, 0.0), 0.0),
        (1.0, LogShift(0.0), 0.0),
        (-0.5, PowShift(0.0, -1.0), 0.0),
        (1.0 / 12.0, PolyGammaShift(2, alpha), 0.0),
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
        (1.0, LnGammaFn(), 0.0),
        (-1.0, XLogX(), 0.0),
        (1.0, Affine(0.0, 1.0), 0.0),
        (1.0, Const(-0.5 * math.log(2.0 * math.pi)), 0.0),
        (0.5, PolyGammaShift(0, c), 0.0),
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


def _pair_chain(label, variant, qs, cs, grid):
    pts = [
        {"x": x, "c": c, "q": q}
        for q in qs
        for c in cs
        for x in grid.values()
    ]

    def row(p):
        t = bd.psi_pair_inequality(p["x"], p["c"], variant, p.get("q"))
        return [t.rhs, t.mid, t.lhs] if p["c"] < 1.0 else [t.lhs, t.mid, t.rhs]

    return _chain_check(label, row, pts, "chain_lt")


@_register(PropertyDescriptor(
    "prop51-chain", "chain_lt",
    "squared digamma-difference chain, both regimes",
    default_grid=_GRID50,
))
def _build_prop51(desc, grid, K, ov):
    return [_pair_chain("prop51-chain", "classical", (None,), (0.5, 2.0), grid)]


@_register(PropertyDescriptor(
    "thm52-chain", "chain_lt",
    "q-analogue of the squared-difference chain, both regimes",
    _domains(q=(0.01, 0.99)), _GRID20,
))
def _build_thm52(desc, grid, K, ov):
    qs = [ov["q"]] if "q" in ov else (0.3, 0.7)
    return [_pair_chain("thm52-chain", "q_analogue", qs, (0.5, 2.0), grid)]


@_register(PropertyDescriptor(
    "cor51-nonneg", "chain_le",
    "squared q-trigamma dominates the weighted q-tetragamma",
    _domains(q=(0.01, 0.99)), _GRID50,
))
def _build_cor51(desc, grid, K, ov):
    qs = [ov["q"]] if "q" in ov else list(_Q_DEFAULT)
    pts = [{"x": x, "q": q} for q in qs for x in grid.values()]
    return [_chain_check("cor51-nonneg", lambda p: [0.0, bd.cor51_expr(p["x"], p["q"])], pts)]


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
            (1.0, PolyGammaShift(1, a), 0.0),
            (1.0, MonomialPolyGamma(1, 2, a, 1.0), 0.0),
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
            return -x * bd._psi_n(n + 1, x) / bd._psi_n(n, x)

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
                return x * bd._psi_n(n + 1, x + a) / bd._psi_n(n, x + a)

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
                return w * sign * bd._psi_qn(n, x, q)

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
    checks = []
    for n in range(1, n_max + 1):
        bb = bd.ball_ratio_bounds(n)
        checks.append(_chain_check(
            f"ball-thm51[n={n}]",
            lambda p, b=bb.thm51, exact=bb.thm51_exact: [b.lower, exact, b.upper],
            [{"x": float(n)}],
        ))
    return checks


@_register(PropertyDescriptor(
    "ball-eq13", "chain_le",
    "exponential digamma bracket for consecutive ball-volume ratios",
    {"n_max": (2, 100000)}, GridSpec(2, 200, 199, "linear"),
    notes="lower bound strict; upper bound attained at n = 2",
))
def _build_ball13(desc, grid, K, ov):
    n_max = int(ov.get("n_max", 200))
    checks = []
    for n in range(2, n_max + 1):
        bb = bd.ball_ratio_bounds(n)
        pts = [{"x": float(n)}]
        lo, exact, hi = bb.eq13.lower, bb.eq13_exact, bb.eq13.upper
        checks.append(_chain_check(
            f"ball-eq13[lo,n={n}]", lambda p, lo=lo, exact=exact: [lo, exact], pts, "chain_lt"
        ))
        checks.append(_chain_check(
            f"ball-eq13[hi,n={n}]", lambda p, exact=exact, hi=hi: [exact, hi], pts
        ))
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
            bd._psi_q(2.0 * x, 1.0)
            - 0.5 * bd._psi_q(x, 1.0)
            - 0.5 * bd._psi_q(x + 0.5, 1.0)
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
    pts = [{"x": 1.0}] * 5  # replicate so the strictness spot check has interior points
    return [_chain_check(
        "lem4-lr", lambda p: [sf.log_mean(r, 1.0, 3.0) for r in orders], pts, "chain_lt"
    )]


ALL_IDS = tuple(sorted(_REGISTRY))
