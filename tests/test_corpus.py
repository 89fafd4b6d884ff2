import math

import pytest

from qgammakit import bounds as bd
from qgammakit import corpus
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
    checks = corpus.instantiate("ball-thm51", {"n_max": 10})
    assert len(checks) == 10


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
    ("thm3-chain", "ratio_bounds", 768),
    ("thm52-chain", "psi_pair_inequality", 256),
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
