"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run pytest with -s to see them all in
order); an assertion failure marks the criterion FAILED before the line is
printed.
"""

import json
import math
import time

import numpy as np
import pytest

from qgammakit import cli, cm_engine as ce, corpus, specfun as sf

import oracles


def _report(name, ok=True):
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_golden_values():
    t0 = time.perf_counter()
    assert abs(sf.polygamma(1, 1.0).value - math.pi**2 / 6.0) <= 1e-12
    assert abs(sf.polygamma(2, 1.0).value - oracles.NEG_TWO_ZETA3) <= 1e-11
    assert abs(sf.ln_gamma(5.0).value - math.log(24.0)) <= 1e-13
    assert abs(sf.unit_ball_volume(2).value - math.pi) <= 1e-13
    assert abs(sf.unit_ball_volume(3).value - 4.0 * math.pi / 3.0) <= 1e-13
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"golden values took {elapsed:.2f}s"
    _report("criterion 1 (golden values)")


def test_criterion_2_functional_equations():
    t0 = time.perf_counter()
    # q-gamma recurrence over 9 x 22 = 198 grid points
    count = 0
    for q in [round(0.1 * i, 1) for i in range(1, 10)]:
        for x in np.linspace(0.1, 20.0, 22):
            lhs = sf.q_gamma(float(x) + 1.0, q).value
            rhs = (1.0 - q ** float(x)) / (1.0 - q) * sf.q_gamma(float(x), q).value
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs), (q, x)
            count += 1
    assert count >= 190
    # polygamma forward difference, n <= 6, 1e-11 relative
    for n in range(1, 7):
        for x in np.geomspace(0.05, 10.0, 20):
            lhs = sf.polygamma(n, float(x) + 1.0).value - sf.polygamma(n, float(x)).value
            rhs = (-1.0) ** n * math.factorial(n) / float(x) ** (n + 1)
            assert abs(lhs - rhs) <= 1e-11 * abs(rhs), (n, x)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"functional equations took {elapsed:.2f}s"
    _report("criterion 2 (functional-equation residuals)")


def test_criterion_3_limit_consistency():
    t0 = time.perf_counter()
    q = 0.9999
    for x in np.linspace(0.5, 5.0, 20):
        g = math.exp(sf.ln_gamma(float(x)).value)
        assert abs(sf.q_gamma(float(x), q).value - g) / g <= 1e-3
        assert abs(sf.q_digamma(float(x), q).value - sf.digamma(float(x)).value) <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"limit consistency took {elapsed:.2f}s"
    _report("criterion 3 (limit consistency)")


@pytest.fixture(scope="module")
def suite_report(tmp_path_factory):
    """One ``verify --suite all --jobs 1`` run, shared by criteria 4 and 7:
    (exit code, seconds, report path)."""
    out = tmp_path_factory.mktemp("suite") / "report.json"
    t0 = time.perf_counter()
    code = cli.main(["verify", "--suite", "all", "--jobs", "1", "--out", str(out)])
    return code, time.perf_counter() - t0, out


def test_criterion_4_full_corpus_suite(suite_report):
    code, elapsed, out = suite_report
    assert code == 0, "verify --suite all reported unexpected failures"
    doc = json.loads(out.read_text())
    by_id = {e["claim_id"]: e for e in doc["entries"]}
    assert len(by_id) >= 30
    # zero unexpected violations: non-probe entries pass, probes fail as designed
    for entry in doc["entries"]:
        expects = corpus.get_descriptor(entry["claim_id"]).expects_violation
        if expects:
            assert entry["status"] == "fail" and entry["violations"], entry["claim_id"]
        else:
            assert entry["status"] == "pass", entry["claim_id"]
    # the heavyweight groups are present
    for cid in ("eq14-bounds", "thm4-cm", "prop51-chain", "thm52-chain",
                "ball-thm51", "ball-eq13", "ci-kernel"):
        assert cid in by_id
    assert elapsed < 300.0, f"full suite took {elapsed:.1f}s"
    _report("criterion 4 (full corpus suite)")


def test_criterion_5_sharpness_spot_checks():
    rep = corpus.run_descriptor("eq14-sharp-u")
    assert rep.status == "fail" and len(rep.violations) >= 1
    assert all(0.0 < v.point <= 0.5 for v in rep.violations)

    rep = corpus.run_descriptor("eq14-sharp-v")
    assert rep.status == "fail" and len(rep.violations) >= 1
    assert all(0.0 < v.point <= 0.5 for v in rep.violations)

    rep = corpus.run_descriptor("thm11-onlyif")
    assert rep.status == "fail" and len(rep.violations) >= 1
    assert all(0.0 < v.point <= 50.0 for v in rep.violations)

    rep = corpus.run_descriptor("gc-onlyif")
    assert rep.status == "fail" and len(rep.violations) >= 1
    _report("criterion 5 (sharpness spot checks fail in the detecting sense)")


def test_criterion_6_cross_path_oracle():
    xs = np.geomspace(0.5, 50.0, 100)
    for x in xs:
        a, b = sf.digamma(float(x)), sf.digamma_series(float(x))
        assert abs(a.value - b.value) <= a.abs_error + b.abs_error, ("psi", x)
    for n in (1, 2, 3, 4):
        for x in xs:
            a = sf.polygamma(n, float(x))
            b = sf.polygamma_series(n, float(x))
            assert abs(a.value - b.value) <= a.abs_error + b.abs_error, (n, x)
    _report("criterion 6 (cross-path agreement within summed certificates)")


def test_criterion_7_determinism(suite_report, tmp_path):
    code, _, a = suite_report
    b = tmp_path / "b.json"
    assert code == 0
    assert cli.main(["verify", "--suite", "all", "--jobs", "8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _report("criterion 7 (reports byte-identical across --jobs)")


def test_criterion_8_negative_control():
    grid = ce.GridSpec(1e-2, 10.0, 64, "log")
    rep = ce.check_sign_pattern(
        ce.make_target("sin_plus_2"), 8, grid, "completely_monotonic",
        label="negative-control",
    )
    assert rep.status == "fail" and len(rep.violations) >= 1
    _report("criterion 8 (negative control detected)")
