import collections
import math
from fractions import Fraction

import numpy as np
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
    ("cor5-ineq", "cor5_inequality", 16),
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


# the chains whose values are arrays, with their checks; each decides once
_ARRAY_CHAINS = {"eq14-bounds": 1, "refined-chain": 2, "thm52-chain": 1}


def _decided_cells(monkeypatch):
    """Record the cells (margin, error, lhs, rhs) of each ``_decide`` call
    from here on."""
    decided = []
    decide = ce._decide

    def recorded(label, tol, cells, *args, **kwargs):
        decided.append(np.asarray(cells, dtype=float).reshape(-1, 4))
        return decide(label, tol, cells, *args, **kwargs)

    monkeypatch.setattr(ce, "_decide", recorded)
    return decided


@pytest.mark.parametrize("claim_id", sorted(_ARRAY_CHAINS))
def test_array_chains_decide_once_and_call_no_scalar_bracket(monkeypatch, claim_id):
    """Each check of the three array chains reaches ``_decide`` once, and
    none calls a scalar bracket, ratio, exp or psi-family cell."""
    calls = collections.Counter()
    for module, names in ((bd, ("ratio_bounds", "gamma_ratio", "psi_pair_inequality")),
                          (sf, ("_exp", "ln_gamma", "digamma", "q_digamma", "q_polygamma"))):
        for name in names:
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, fn=fn, name=name, **k: calls.update([name]) or fn(*a, **k))
    decided = _decided_cells(monkeypatch)
    checks = corpus.instantiate(claim_id)
    assert all(c.fn is ce._chain for c in checks)
    assert corpus.run_descriptor(claim_id).status == "pass"
    assert len(decided) == len(checks) == _ARRAY_CHAINS[claim_id]
    assert not calls


@pytest.mark.parametrize("claim_id", sorted(_ARRAY_CHAINS))
def test_array_chain_cells_all_carry_an_error(monkeypatch, claim_id):
    """No cell of the three array chains reaches ``_decide`` with an error
    of exactly 0, and none is swamped (its error stays below |margin| +
    tol max(1, |lhs|, |rhs|))."""
    decided = _decided_cells(monkeypatch)
    corpus.run_descriptor(claim_id)
    cells = np.concatenate(decided)
    margin, err = cells[:, 0], cells[:, 1]
    tau = 1e-12 * np.maximum(1.0, np.abs(cells[:, 2:]).max(axis=1))
    assert len(cells) and (err > 0.0).all() and (err <= np.abs(margin) + tau).all()


def _rows_of(check):
    """The values of an array chain's check as the row function of
    ``check_chain``: row p is its (value, error) pairs as Enclosures."""
    kw = check.kwargs
    xs = ce._point_xs(kw["points"])
    values, errors = kw["ends"](ce._column_reader(kw["columns"] or {}, np.array(list(dict.fromkeys(xs)))))
    cells = {id(p): [sf.Enclosure(v, e, 0) for v, e in zip(vs, es)]
             for p, vs, es in zip(kw["points"], values.tolist(), errors.tolist())}
    return lambda p: cells[id(p)]


@pytest.mark.parametrize("claim_id", sorted(_ARRAY_CHAINS))
def test_array_chains_agree_with_their_rows(claim_id):
    """An array chain's report equals ``check_chain``'s on the same values
    given as rows: status, worst margin and violations."""
    for check in corpus.instantiate(claim_id):
        kw = check.kwargs
        rowed = ce.check_chain(_rows_of(check), kw["points"], kw["claim"], label=check.label)
        assert check.run() == rowed


# the q-analogue brackets, with the number of q-series each reads: the
# columns of a chain, or those in the targets of the links and derivative
# signs checked one at a time
_COLUMN_CHAINS = {"eq14-bounds": 81, "thm52-chain": 8}
_LINK_CLAIMS = {"thm3-chain": 24, "ag-gx": 4, "eq14-sharp-u": 1, "eq14-sharp-v": 1,
                "qthm-monotone": 12, "cor51-nonneg": 8}


def _q_series_in(t):
    """The QSeriesTargets in target t, a composite's leaves included; the
    factor of a square, a Product of a target with itself, counts once, as
    it is evaluated once."""
    if isinstance(t, ce.QSeriesTarget):
        return [t]
    if isinstance(t, ce.LinComb):
        return [u for _, term in t.terms for u in _q_series_in(term)]
    if isinstance(t, ce.Product):
        return _q_series_in(t.f) + ([] if t.g is t.f else _q_series_in(t.g))
    return []


def _read_q_series(checks):
    """The q-series the checks of a claim read: a chain's columns, or those
    in the target of each check."""
    found = []
    for c in checks:
        found += (c.kwargs.get("columns") or {}).values()
        found += _q_series_in(c.kwargs.get("target"))
    return found


def _count_scalar_q_calls(monkeypatch):
    """Count the scalar q_digamma and q_polygamma calls from here on."""
    calls = collections.Counter()
    for name in ("q_digamma", "q_polygamma"):
        fn = getattr(sf, name)
        monkeypatch.setattr(sf, name, lambda *a, fn=fn, name=name: calls.update([name]) or fn(*a))
    return calls


@pytest.mark.parametrize("claim_id", sorted(_COLUMN_CHAINS | _LINK_CLAIMS))
def test_chain_fills_each_column_once_and_calls_no_scalar_q_series(monkeypatch, claim_id):
    """Each column of a chain, and each link target of a claim checked
    link by link, fills one grid, and no check calls a scalar q-series.  A
    chain fills the columns of one q in one stacked grid."""
    grids, stacks = collections.Counter(), []
    stacked = ce._q_series_grids

    def counted(targets, xs, K, policy):
        grids.update(id(t) for t in targets)
        stacks.append({t.q for t in targets})
        return stacked(targets, xs, K, policy)

    monkeypatch.setattr(ce, "_q_series_grids", counted)
    calls = _count_scalar_q_calls(monkeypatch)
    checks = corpus.instantiate(claim_id)
    q_series = _read_q_series(checks)
    assert len(q_series) == (_COLUMN_CHAINS | _LINK_CLAIMS)[claim_id]
    rep = ce.merge_reports(claim_id, [c.run() for c in checks])
    assert rep.status == ("fail" if corpus.get_descriptor(claim_id).expects_violation else "pass")
    assert grids == collections.Counter(id(t) for t in q_series)
    if claim_id in _COLUMN_CHAINS:  # 9 stacks for eq14-bounds, 2 for thm52-chain
        assert sorted(min(qs) for qs in stacks) == sorted({t.q for t in q_series})
        assert all(len(qs) == 1 for qs in stacks)
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
# each chain column and each link equals the public bounds function it
# replaces
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


def _links(claim_id):
    """(params, target) of each link of a claim checked link by link."""
    return [(c.kwargs["params"], c.kwargs["target"]) for c in corpus.instantiate(claim_id)]


def _ratio_cells(x, s, q):
    """ln gamma_ratio(x, s, q), and the errors and magnitudes of the scalar
    cells behind it (``_agrees``); q = 1 reads ln Gamma and psi."""
    if q == 1.0:
        ln_gamma, psi = sf.ln_gamma, sf.digamma
    else:
        ln_gamma, psi = (lambda y: sf.q_ln_gamma(y, q)), (lambda y: sf.q_digamma(y, q))
    a, b = ln_gamma(x + 1.0), ln_gamma(x + s)
    # gamma_ratio reads ln Gamma_q at x + s rounded: psi_q times the move
    slope = abs(psi(x + s).value) + 1.0
    errors = [a.abs_error, b.abs_error, slope * _moved(x, s)]
    return math.log(bd.gamma_ratio(x, s, q)), errors, abs(a.value) + abs(b.value)


def test_ratio_columns_agree_with_gamma_ratio():
    for (q, s), column in _columns("eq14-bounds").items():
        for x in _XS_DYADIC:
            _agrees(column, x, *_ratio_cells(x, s, q))


def test_bracket_columns_agree_with_ratio_bounds_im_midpoint():
    """Each thm3-chain link is ln ratio - ln lower or ln upper - ln ratio,
    of ``gamma_ratio`` and ``ratio_bounds(x, s, q, "im_midpoint")``."""
    for params, link in _links("thm3-chain"):
        q, s = params["q"], params["s"]
        for x in _XS_DYADIC:
            b = bd.ratio_bounds(x, s, q, "im_midpoint")
            ln_ratio, errors, magnitude = _ratio_cells(x, s, q)
            if params["link"] == "lower":
                w, cells = 0.5 * (1.0 - s), [sf.q_digamma(x + 1.0, q), sf.q_digamma(x + s, q)]
                public = ln_ratio - math.log(b.lower)
            else:
                w, cells = 1.0 - s, [sf.q_digamma(x + 0.5 * (1.0 + s), q)]
                public = math.log(b.upper) - ln_ratio
            _agrees(link, x, public, errors + [w * e.abs_error for e in cells],
                    magnitude + w * sum(abs(e.value) for e in cells))


@pytest.mark.parametrize("claim_id", ["merkle-chain", "kershaw-chain"])
def test_q1_links_agree_with_ratio_bounds_merkle_and_kershaw(claim_id):
    """Each merkle-chain and kershaw-chain link is ln ratio - ln lower or
    ln upper - ln ratio, of ``gamma_ratio`` and ``ratio_bounds(x, s, 1,
    "merkle" | "kershaw")``: the q = 1 case of the thm3-chain links, with
    kershaw's lower end at x + sqrt(s)."""
    method = claim_id.split("-")[0]
    for params, link in _links(claim_id):
        s = params["s"]
        assert params["q"] == 1.0 and isinstance(link, ce.LinComb)
        for x in _XS_DYADIC:
            b = bd.ratio_bounds(x, s, 1.0, method)
            ln_ratio, errors, magnitude = _ratio_cells(x, s, 1.0)
            lower = params["link"] == "lower"
            public = ln_ratio - math.log(b.lower) if lower else math.log(b.upper) - ln_ratio
            if not lower:
                w, ys = 1.0 - s, [x + 0.5 * (1.0 + s)]
            elif method == "kershaw":
                w, ys = 1.0 - s, [x + math.sqrt(s)]
            else:
                w, ys = 0.5 * (1.0 - s), [x + 1.0, x + s]
            cells = [sf.digamma(y) for y in ys]
            _agrees(link, x, public, errors + [w * e.abs_error for e in cells],
                    magnitude + w * sum(abs(e.value) for e in cells))


def test_hadamard_links_share_one_builder_and_strictness():
    """thm3-chain, merkle-chain and kershaw-chain build their links alike,
    two per s; only merkle's are strict, as are noncompare's x > 1 links."""
    for claim_id, qs, strict in (("thm3-chain", 4, False), ("merkle-chain", 1, True),
                                 ("kershaw-chain", 1, False)):
        checks = corpus.instantiate(claim_id)
        assert len(checks) == 2 * 3 * qs
        assert all(c.kwargs["claim"] == "nonneg" and c.kwargs["strict"] == strict for c in checks)
    links = [c for c in corpus.instantiate("noncompare") if c.kwargs.get("claim") == "nonneg"]
    assert len(links) == 9 and all(c.kwargs["strict"] for c in links)


def test_sharp_links_agree_with_ratio_bounds_alzer_uv():
    """eq14-sharp-u's link is ln ratio - ln lower and eq14-sharp-v's
    ln upper - ln ratio, of ``gamma_ratio`` and ``ratio_bounds(x, 1/2, 1/2,
    "alzer_uv")`` with the probe's shift perturbed by 0.05."""
    q = s = 0.5
    u, v = bd.alzer_u(q, s), bd.alzer_v(q, s)
    for lower, u, v in ((True, u + 0.05, v), (False, u, v - 0.05)):
        ((_, link),) = _links("eq14-sharp-u" if lower else "eq14-sharp-v")
        shift = u if lower else v
        for x in _XS_DYADIC:
            b = bd.ratio_bounds(x, s, q, "alzer_uv", u_override=u, v_override=v)
            ln_ratio, errors, magnitude = _ratio_cells(x, s, q)
            public = ln_ratio - math.log(b.lower) if lower else math.log(b.upper) - ln_ratio
            # (1 - s) ln[y]_q at y = x + shift, whose terms read x + shift
            # and x + (shift + 1) with shift + 1 rounded
            y = x + shift
            slope = (1.0 - s) * (abs(sf.q_digamma(y, q).value) + abs(sf.q_digamma(y + 1.0, q).value))
            errors += [slope * (_moved(x, shift) + _moved(shift, 1.0))]
            _agrees(link, x, public, errors, magnitude + (1.0 - s) * abs(bd._qbracket_log(y, q)))


def test_ag_columns_agree_with_g_ag():
    for params, link in _links("ag-gx"):
        a, q = params["a"], params["q"]
        for x in _XS_DYADIC:
            cells = [(1.0, x), (1.0, x + 2.0 * a), (2.0, x + a)]
            lf = [(w, y * math.log1p(-q), sf.q_ln_gamma(y, q)) for w, y in cells]
            public = math.log(bd.auxiliary_function("g_AG", x, {"a": a, "q": q}))
            _agrees(link, x, public, [w * e.abs_error for w, _, e in lf],
                    sum(w * (abs(lin) + abs(e.value)) for w, lin, e in lf))


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
    """cor51-nonneg's link, one per q, is ``cor51_expr``: its certified
    error, plus the error of the scalar psi_q' and psi_q'' cells behind
    ``cor51_expr`` through the square and the weight, plus 8 eps of its
    summands for the float arithmetic of both."""
    links = _links("cor51-nonneg")
    assert [params["q"] for params, _ in links] == [0.3, 0.5, 0.7, 0.9]
    for params, link in links:
        q = params["q"]
        for x in _XS_DYADIC:
            e = link.deriv(0, x)
            s1, s2 = sf.q_polygamma(1, x, q), sf.q_polygamma(2, x, q)
            k = math.log(1.0 / q) * (q**x) / (1.0 - q)
            e1, e2 = s1.abs_error, s2.abs_error
            bound = e.abs_error + 2.0 * abs(s1.value) * e1 + e1 * e1 + abs(k) * e2
            bound += 8.0 * _EPS * (s1.value**2 + abs(k * s2.value) + 1.0)
            assert abs(e.value - bd.cor51_expr(x, q)) <= bound, (q, x)


def test_prop51_links_agree_with_psi_pair_inequality():
    """prop51-chain's links are sign (mid - d^2) and sign (d^2/c - mid) of
    ``psi_pair_inequality(x, c)``, sign = +1 at c = 1/2 and -1 at c = 2."""
    links = _links("prop51-chain")
    assert [(p["c"], p["link"]) for p, _ in links] == [
        (0.5, "d^2"), (0.5, "d^2/c"), (2.0, "d^2"), (2.0, "d^2/c")]
    for params, link in links:
        c = params["c"]
        sign = 1.0 if c < 1.0 else -1.0
        for x in _XS_DYADIC:
            t = bd.psi_pair_inequality(x, c)
            public = sign * (t.mid - t.rhs if params["link"] == "d^2" else t.lhs - t.mid)
            psi = [sf.digamma(x + c), sf.digamma(x)]
            psi1 = [sf.polygamma(1, x), sf.polygamma(1, x + c)]
            d = psi[0].value - psi[1].value
            e_d = psi[0].abs_error + psi[1].abs_error
            size_d = abs(psi[0].value) + abs(psi[1].value)
            # d^2 moves by 2 |d| e_d + e_d^2, and d^2/c by 1/c of that; d
            # rounds relative to the size of psi(x + c) and psi(x)
            errors = [max(1.0, 1.0 / c) * (2.0 * abs(d) * e_d + e_d * e_d)]
            errors += [e.abs_error for e in psi1]
            magnitude = t.lhs + t.rhs + sum(abs(e.value) for e in psi1) + 2.0 * abs(d) * size_d
            _agrees(link, x, public, errors, magnitude)


def test_kv_links_agree_with_keckic_vasic_bounds():
    """kv-bounds' links are ln ratio - ln lower and ln upper - ln ratio, of
    Gamma(x + d)/Gamma(x) and ``keckic_vasic_bounds(x, x + d)``."""
    links = _links("kv-bounds")
    assert [(p["d"], p["link"]) for p, _ in links] == [
        (d, end) for d in (0.5, 1.0, 2.5) for end in ("lower", "upper")]
    for params, link in links:
        d, lower = params["d"], params["link"] == "lower"
        for x in _XS_DYADIC:
            b = bd.keckic_vasic_bounds(x, x + d)
            a, z = sf.ln_gamma(x + d), sf.ln_gamma(x)
            ln_ratio = a.value - z.value
            public = ln_ratio - math.log(b.lower) if lower else math.log(b.upper) - ln_ratio
            t = 1.0 if lower else 0.5
            ends = abs((x + d - t) * math.log(x + d)) + abs((x - t) * math.log(x)) + d
            _agrees(link, x, public, [a.abs_error, z.abs_error], abs(a.value) + abs(z.value) + ends)


def test_qpow_constant_cancels_with_no_error():
    # h' = -ln(1 - q) - psi_q(x): its constant and psi_q's cancel to exactly
    # 0, so the order-0 certificate carries no rounding of them
    for check in corpus.instantiate("qpow-lcm"):
        h_prime = check.kwargs["target"]
        assert h_prime._const == 0.0 and h_prime._const_err == 0.0
