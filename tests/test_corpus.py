import collections
import math
from fractions import Fraction

import pytest

from qgammakit import bounds as bd
from qgammakit import cm_engine as ce
from qgammakit import corpus
from qgammakit import specfun as sf
from qgammakit.errors import DomainError, UsageError


# every claim group the registry is required to cover
REQUIRED_IDS = [
    "thm5-lcm", "thm5-recip-lcm",
    "eq14-bounds",
    "thm30-lcm",
    "thm1-lcm",
    "cor1-lcm",
    "thm2-lcm", "cor2-lcm",
    "thm3-chain",
    "merkle-chain",
    "refined-chain",
    "kershaw-chain",
    "noncompare",
    "thm8-lcm", "lemma10-ineq", "wqn-nonneg",
    "cor4-lcm",
    "ilm-lcm", "kv-bounds",
    "qpow-lcm", "ag-gx",
    "beta-lcm", "cor5-ineq",
    "falpha-cm",
    "gc-cm",
    "thm4-cm",
    "eq42-nonneg",
    "prop51-chain", "thm52-chain", "cor51-nonneg",
    "lem-thm11",
    "eq43-range", "prop-cor45",
    "ci-kernel", "f0n-cm", "xf01-cm",
    "qthm-monotone",
    "ball-thm51", "ball-eq13", "dup-psi",
    "lem5-root", "lem6-kernel", "lem4-lr",
]

EXPECTED_FAILURE_IDS = [
    "eq14-sharp-u", "eq14-sharp-v", "falpha-onlyif", "gc-onlyif", "thm11-onlyif",
]


def test_registry_completeness():
    ids = set(corpus.ALL_IDS)
    missing = [cid for cid in REQUIRED_IDS + EXPECTED_FAILURE_IDS if cid not in ids]
    assert not missing, f"missing descriptors: {missing}"


def test_registry_size():
    assert len(corpus.list_properties()) >= 30


def test_descriptor_ids_unique_and_sorted_listing():
    props = corpus.list_properties()
    ids = [d.id for d in props]
    assert len(ids) == len(set(ids))
    assert ids == sorted(ids)


def test_expected_failure_flags():
    for cid in EXPECTED_FAILURE_IDS:
        assert corpus.get_descriptor(cid).expects_violation
    for cid in REQUIRED_IDS:
        assert not corpus.get_descriptor(cid).expects_violation


def test_default_grids_valid():
    for d in corpus.list_properties():
        g = d.default_grid
        assert g.lo < g.hi and g.points >= 2
        if g.spacing == "log":
            assert g.lo > 0.0
        if "x" in d.parameter_domains:
            lo, hi = d.parameter_domains["x"]
            assert lo <= g.lo and g.hi <= hi


def test_contains_thm8():
    assert any(d.id == "thm8-lcm" for d in corpus.list_properties())


def test_instantiate_unknown_id():
    with pytest.raises(UsageError):
        corpus.instantiate("no-such-claim")


def test_instantiate_out_of_domain_override():
    with pytest.raises(DomainError):
        corpus.instantiate("thm8-lcm", {"q": 2.0})
    with pytest.raises(UsageError):
        corpus.instantiate("thm8-lcm", {"zeta": 1.0})


@pytest.mark.parametrize("claim_id, key", [("falpha-cm", "alpha"), ("gc-cm", "c")])
def test_fixed_parameter_claims_refuse_an_override(claim_id, key):
    # their builders check fixed parameter values, so an override could
    # only be ignored
    assert key not in corpus.get_descriptor(claim_id).parameter_domains
    with pytest.raises(UsageError):
        corpus.instantiate(claim_id, {key: 3.0})


def test_instantiate_ball_n_max():
    # ball-thm51 is one chain over n = 1..n_max; ball-eq13 has a strict
    # chain per n and one chain over n for its upper side
    checks = corpus.instantiate("ball-thm51", {"n_max": 10})
    assert [len(c.kwargs["points"]) for c in checks] == [10]
    checks = corpus.instantiate("ball-eq13", {"n_max": 10})
    assert [len(c.kwargs["points"]) for c in checks] == [1] * 9 + [9]


def test_instantiate_eq42_is_chain():
    checks = corpus.instantiate("eq42-nonneg")
    assert len(checks) == 1
    rep = checks[0].run()
    assert rep.status == "pass"


def test_grid_points_override_thins_grids():
    full = corpus.instantiate("dup-psi")
    small = corpus.instantiate("dup-psi", {"grid_points": 8})
    assert len(full) == len(small) == 1
    assert small[0].run().status == "pass"


def test_manifest_lines():
    text = corpus.manifest()
    lines = text.splitlines()
    assert len(lines) == len(corpus.ALL_IDS)
    for cid in ("thm8-lcm", "ball-eq13", "eq42-nonneg"):
        assert any(line.startswith(cid) for line in lines)
    # one pipe-delimited record per claim: id | citation | domains | grid
    assert all(line.count("|") == 3 for line in lines)


def test_instantiate_refuses_a_negative_max_order():
    assert corpus.instantiate("thm8-lcm", max_order=0)
    with pytest.raises(UsageError):
        corpus.instantiate("thm8-lcm", max_order=-1)


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf])
def test_run_descriptor_refuses_a_tol_that_decides_nothing(tol):
    with pytest.raises(UsageError):
        corpus.run_descriptor("gc-onlyif", tol=tol)


def test_run_descriptor_merges_subchecks():
    rep = corpus.run_descriptor("noncompare")
    assert rep.claim_id == "noncompare"
    assert rep.status == "pass"


def test_only_if_probe_records_violations():
    rep = corpus.run_descriptor("thm11-onlyif")
    assert rep.status == "fail" and len(rep.violations) >= 1


@pytest.mark.parametrize("claim_id, bracket, points", [
    ("eq14-bounds", "ratio_bounds", 2430),
    ("kershaw-chain", "ratio_bounds", 192),
    ("prop51-chain", "psi_pair_inequality", 128),
    ("cor5-ineq", "cor5_inequality", 16),
    ("kv-bounds", "keckic_vasic_bounds", 48),
    ("lemma10-ineq", "lemma10_lhs_rhs", 405),
])
def test_chain_computes_its_bracket_once_per_point(monkeypatch, claim_id, bracket, points):
    """The row of a chain builds the bracket its values share once per point."""
    calls = []
    original = getattr(bd, bracket)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(bd, bracket, counted)
    checks = corpus.instantiate(claim_id)
    assert sum(len(c.kwargs["points"]) for c in checks) == points
    assert corpus.run_descriptor(claim_id).status == "pass"
    assert len(calls) == points


# the chains that read their q-series as columns, with the number of columns
_COLUMN_CHAINS = {
    "eq14-bounds": 81, "eq14-sharp-u": 1, "eq14-sharp-v": 1, "thm3-chain": 36,
    "thm52-chain": 8, "cor51-nonneg": 8, "ag-gx": 4,
}


def _count_scalar_q_calls(monkeypatch):
    """Count the scalar q_digamma and q_polygamma calls from here on."""
    calls = collections.Counter()
    for name in ("q_digamma", "q_polygamma"):
        fn = getattr(sf, name)
        monkeypatch.setattr(sf, name, lambda *a, fn=fn, name=name: calls.update([name]) or fn(*a))
    return calls


@pytest.mark.parametrize("claim_id", sorted(_COLUMN_CHAINS))
def test_chain_fills_each_column_once_and_calls_no_scalar_q_series(monkeypatch, claim_id):
    grids = collections.Counter()
    jets = ce.QSeriesTarget._jets

    def counted(self, xs, K, policy):
        grids[id(self)] += 1
        return jets(self, xs, K, policy)

    monkeypatch.setattr(ce.QSeriesTarget, "_jets", counted)
    calls = _count_scalar_q_calls(monkeypatch)
    checks = corpus.instantiate(claim_id)
    columns = [t for c in checks for t in (c.kwargs.get("columns") or {}).values()]
    assert len(columns) == _COLUMN_CHAINS[claim_id]
    rep = ce.merge_reports(claim_id, [c.run() for c in checks])
    assert rep.status == ("fail" if corpus.get_descriptor(claim_id).expects_violation else "pass")
    assert grids == collections.Counter(id(t) for t in columns)
    assert not calls


@pytest.mark.parametrize("claim_id, overrides", [
    ("eq14-bounds", {"q": 0.95, "s": 0.3}),
    ("thm3-chain", {"q": 0.99}),
    ("cor51-nonneg", {"q": 0.99}),
])
def test_column_chains_pass_near_q_1(monkeypatch, claim_id, overrides):
    calls = _count_scalar_q_calls(monkeypatch)
    assert corpus.run_descriptor(claim_id, overrides).status == "pass"
    assert not calls


# ---------------------------------------------------------------------------
# each chain column equals the public bounds function it replaces
# ---------------------------------------------------------------------------

_EPS = 2.0**-52
# dyadic points: x + s, x + c and x + a are exact wherever s, c and a are
_XS_DYADIC = (0.125, 0.75, 3.5, 9.0)


def _columns(claim_id):
    return {key: t for c in corpus.instantiate(claim_id) for key, t in c.kwargs["columns"].items()}


def _agrees(column, x, public, errors, magnitude):
    """The column's order 0 at x is within its certified error of
    ``public``, plus ``errors`` (those of the scalar cells behind
    ``public``) and 4 eps of ``magnitude`` + 1 (the summands of the float
    arithmetic of ``public``, and its last exp, log or sqrt)."""
    e = column.deriv(0, x)
    bound = e.abs_error + sum(errors) + 4.0 * _EPS * (magnitude + 1.0)
    assert abs(e.value - public) <= bound, (x, e, public)


def _moved(x, d):
    """|fl(x + d) - (x + d)|, exactly."""
    return float(abs(Fraction(x) + Fraction(d) - Fraction(x + d)))


def test_ratio_columns_agree_with_gamma_ratio():
    for cid in ("eq14-bounds", "eq14-sharp-u", "eq14-sharp-v", "thm3-chain"):
        for key, column in _columns(cid).items():
            if key[2:] not in ((), ("ratio",)):
                continue
            q, s = key[:2]
            for x in _XS_DYADIC:
                a, b = sf.q_ln_gamma(x + 1.0, q), sf.q_ln_gamma(x + s, q)
                # gamma_ratio reads ln Gamma_q at x + s rounded: psi_q times the move
                slope = abs(sf.q_digamma(x + s, q).value) + 1.0
                errors = [a.abs_error, b.abs_error, slope * _moved(x, s)]
                public = math.log(bd.gamma_ratio(x, s, q))
                _agrees(column, x, public, errors, abs(a.value) + abs(b.value))


def test_bracket_columns_agree_with_ratio_bounds_im_midpoint():
    for (q, s, end), column in _columns("thm3-chain").items():
        if end == "ratio":
            continue
        for x in _XS_DYADIC:
            b = bd.ratio_bounds(x, s, q, "im_midpoint")
            if end == "lower":
                w, cells = 0.5 * (1.0 - s), [sf.q_digamma(x + 1.0, q), sf.q_digamma(x + s, q)]
                public = math.log(b.lower)
            else:
                w, cells = 1.0 - s, [sf.q_digamma(x + 0.5 * (1.0 + s), q)]
                public = math.log(b.upper)
            _agrees(column, x, public, [w * e.abs_error for e in cells],
                    w * sum(abs(e.value) for e in cells))


def test_pair_columns_agree_with_psi_pair_inequality():
    for (q, c, part), column in _columns("thm52-chain").items():
        n = 0 if part == "d" else 1
        for x in _XS_DYADIC:
            t = bd.psi_pair_inequality(x, c, "q_analogue", q)
            cells = [sf.q_polygamma(n, x + c, q) if n else sf.q_digamma(x + c, q),
                     sf.q_polygamma(n, x, q) if n else sf.q_digamma(x, q)]
            # rhs = d^2 with d > 0, and mid = q^x (psi_q'(x) - psi_q'(x + c))
            public = math.sqrt(t.rhs) if part == "d" else t.mid / q**x
            _agrees(column, x, public, [e.abs_error for e in cells],
                    sum(abs(e.value) for e in cells))


def test_cor51_columns_agree_with_cor51_expr():
    columns = _columns("cor51-nonneg")
    for q in {q for q, _ in columns}:
        for x in _XS_DYADIC:
            p1, p2 = columns[q, 1].deriv(0, x), columns[q, 2].deriv(0, x)
            s1, s2 = sf.q_polygamma(1, x, q), sf.q_polygamma(2, x, q)
            k = math.log(1.0 / q) * (q**x) / (1.0 - q)
            e1, e2 = p1.abs_error + s1.abs_error, p2.abs_error + s2.abs_error
            bound = 2.0 * abs(p1.value) * e1 + e1 * e1 + abs(k) * e2
            bound += 8.0 * _EPS * (p1.value**2 + abs(k * p2.value) + 1.0)
            row = p1.value * p1.value + k * p2.value
            assert abs(row - bd.cor51_expr(x, q)) <= bound, (q, x)


def test_ag_columns_agree_with_g_ag():
    for (a, q), column in _columns("ag-gx").items():
        for x in _XS_DYADIC:
            cells = [(1.0, x), (1.0, x + 2.0 * a), (2.0, x + a)]
            lf = [(w, y * math.log1p(-q), sf.q_ln_gamma(y, q)) for w, y in cells]
            public = math.log(bd.auxiliary_function("g_AG", x, {"a": a, "q": q}))
            _agrees(column, x, public, [w * e.abs_error for w, _, e in lf],
                    sum(w * (abs(lin) + abs(e.value)) for w, lin, e in lf))


def test_qpow_constant_cancels_with_no_error():
    # h' = -ln(1 - q) - psi_q(x): its constant and psi_q's cancel to exactly
    # 0, so the order-0 certificate carries no rounding of them
    for check in corpus.instantiate("qpow-lcm"):
        h_prime = check.kwargs["target"]
        assert h_prime._const == 0.0 and h_prime._const_err == 0.0
