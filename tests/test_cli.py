import collections
import json
import math
import os

import pytest

from qgammakit import cli
from qgammakit import corpus
from qgammakit import specfun as sf

import oracles


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_polygamma(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "polygamma:1", "--x", "1")
    assert code == 0
    assert abs(float(out.split()[0]) - oracles.ZETA2) <= 1e-12


def test_eval_qgamma(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "qgamma", "--x", "1", "--q", "0.5")
    assert code == 0
    assert abs(float(out.split()[0]) - 1.0) <= 1e-13


def test_eval_ball(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "ball:3")
    assert code == 0
    assert abs(float(out.split()[0]) - 4.0 * math.pi / 3.0) <= 1e-12


def test_eval_gamma_and_kernel(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "gamma", "--x", "5")
    assert code == 0 and abs(float(out.split()[0]) - 24.0) <= 1e-11
    code, out, _ = run(capsys, "eval", "--fn", "kernel", "--x", "1")
    assert code == 0 and abs(float(out.split()[0]) - oracles.KERNEL_H_1) <= 1e-13


def test_eval_gamma_propagates_the_log_error_like_q_gamma(capsys):
    """exp turns the ln Gamma error into val * expm1(err) and adds its own
    rounding slop, as q_gamma and unit_ball_volume do."""
    code, out, _ = run(capsys, "eval", "--fn", "gamma", "--x", "5", "--json")
    doc = json.loads(out)
    enc = sf.ln_gamma(5.0)
    val = math.exp(enc.value)
    slop = enc.terms_used * 2.220446049250313e-16 * val
    assert code == 0 and doc["value"] == val
    assert doc["abs_error"] == val * math.expm1(enc.abs_error) + slop


def test_eval_json_output(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "digamma", "--x", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"fn", "value", "abs_error", "terms_used"}
    assert abs(doc["value"] - (1.0 - 0.5772156649015329)) <= 1e-13


def test_eval_domain_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "--fn", "digamma", "--x", "-1")
    assert code == 2 and "domain" in err


def test_eval_usage_errors_exit_64(capsys):
    assert run(capsys, "eval", "--fn", "bogus", "--x", "1")[0] == 64
    assert run(capsys, "eval", "--fn", "polygamma:x", "--x", "1")[0] == 64
    assert run(capsys, "eval", "--fn", "qgamma", "--x", "1")[0] == 64  # missing --q
    assert run(capsys, "eval", "--badflag", "1")[0] == 64
    # eps 0 is refused like any eps outside (0, 1), not read as the default
    assert run(capsys, "eval", "--fn", "digamma", "--x", "1", "--eps", "0")[0] == 64


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_ratio_kershaw(capsys):
    code, out, _ = run(capsys, "bounds", "ratio", "--x", "1", "--s", "0.5",
                       "--q", "1", "--method", "kershaw")
    assert code == 0
    row = out.splitlines()[1].split()
    lower, exact, upper = float(row[1]), float(row[2]), float(row[3])
    assert lower <= oracles.INV_GAMMA_1P5 <= upper
    assert abs(exact - oracles.INV_GAMMA_1P5) <= 1e-12


def test_bounds_ratio_method_mismatch(capsys):
    code, _, err = run(capsys, "bounds", "ratio", "--x", "1", "--s", "0.5",
                       "--q", "0.5", "--method", "merkle")
    assert code == 64 and "requires q = 1" in err


@pytest.mark.parametrize("gap, expected", [(1e-9, 1), (1e-13, 0)], ids=["beyond-tau", "within-tau"])
def test_bounds_exit_1_where_a_bracket_misses_beyond_tau(capsys, monkeypatch, gap, expected):
    """The upper end sits ``gap`` below the exact ratio, 0.886: past
    tau = 1e-12 max(1, |lower|, |exact|, |upper|) the command exits 1."""
    from qgammakit import bounds as bd

    real = bd.ratio_bounds(1.0, 0.5, 1.0, "kershaw")
    exact = bd.gamma_ratio(1.0, 0.5, 1.0)
    monkeypatch.setattr(bd, "ratio_bounds",
                        lambda *args, **kw: bd.BoundPair(real.lower, exact - gap, real.method))
    code, out, _ = run(capsys, "bounds", "ratio", "--x", "1", "--s", "0.5",
                       "--q", "1", "--method", "kershaw")
    assert code == expected
    assert float(out.splitlines()[1].split()[3]) == exact - gap


def test_bounds_ball(capsys):
    code, out, _ = run(capsys, "bounds", "ball", "--n-max", "3")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 3
    r1 = rows[0].split()
    assert float(r1[1]) <= oracles.BALL1_RATIO <= float(r1[3])
    r2 = rows[1].split()
    assert float(r2[1]) <= oracles.BALL2_RATIO <= float(r2[3])


def test_bounds_ball_csv(capsys):
    code, out, _ = run(capsys, "bounds", "ball", "--n-max", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,ratio_lower")
    assert len(lines) == 3


def test_bounds_kv(capsys):
    code, out, _ = run(capsys, "bounds", "kv", "--a", "1", "--b", "2")
    assert code == 0
    row = out.splitlines()[1].split()
    assert float(row[2]) <= 1.0 <= float(row[4])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_claim(tmp_path, capsys):
    out_file = tmp_path / "r.json"
    code, out, _ = run(capsys, "verify", "--suite", "eq42-nonneg", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["suite"] == "eq42-nonneg"
    assert doc["summary"] == {"pass": 1, "fail": 0, "inconclusive": 0}
    assert doc["entries"][0]["claim_id"] == "eq42-nonneg"
    assert doc["entries"][0]["status"] == "pass"


def test_verify_thm8_with_max_order(tmp_path, capsys):
    out_file = tmp_path / "r.json"
    code, _, _ = run(capsys, "verify", "--suite", "thm8-lcm", "--max-order", "6",
                     "--out", str(out_file))
    assert code == 0


def test_verify_expected_failure_counts_as_pass(tmp_path, capsys):
    out_file = tmp_path / "r.json"
    code, _, _ = run(capsys, "verify", "--suite", "eq14-sharp-u", "--out", str(out_file))
    assert code == 0  # the probe found its violations, which is the expectation
    doc = json.loads(out_file.read_text())
    entry = doc["entries"][0]
    assert entry["status"] == "fail" and len(entry["violations"]) >= 1


def test_verify_unknown_suite(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--suite", "not-a-claim",
                       "--out", str(tmp_path / "r.json"))
    assert code == 64


@pytest.mark.parametrize("flag, value", [
    ("--max-order", "-1"), ("--max-order", "0"), ("--tol", "nan"), ("--tol", "-1"),
    ("--tol", "inf"),
])
def test_verify_refuses_settings_that_check_nothing(tmp_path, capsys, flag, value):
    # with these settings thm8-lcm would pass with no order checked, or the
    # expected-fail gc-onlyif would report pass
    out_file = tmp_path / "r.json"
    code, _, err = run(capsys, "verify", "--suite", "thm8-lcm,gc-onlyif", flag, value,
                       "--out", str(out_file))
    assert code == 64 and "usage error" in err
    assert not out_file.exists()


def test_verify_io_failure(capsys):
    code, _, err = run(capsys, "verify", "--suite", "dup-psi",
                       "--out", "/nonexistent-dir/report.json")
    assert code == 74


def test_verify_json_round_trip(tmp_path, capsys):
    out_file = tmp_path / "r.json"
    run(capsys, "verify", "--suite", "lemma10-ineq,wqn-nonneg", "--out", str(out_file))
    raw = out_file.read_text()
    doc = json.loads(raw)
    assert cli._canonical_json(doc) + "\n" == raw


def test_verify_csv_format(tmp_path, capsys):
    out_file = tmp_path / "r.csv"
    code, _, _ = run(capsys, "verify", "--suite", "dup-psi,thm11-onlyif",
                     "--format", "csv", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "claim_id,status,worst_margin,point,params,order,lhs,rhs,margin"
    assert any(line.startswith("dup-psi,pass") for line in lines)
    assert any(line.startswith("thm11-onlyif,fail") for line in lines)


def test_verify_deterministic_across_jobs(tmp_path, capsys):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    suite = "merkle-chain,thm3-chain,dup-psi"
    assert run(capsys, "verify", "--suite", suite, "--jobs", "1", "--out", str(a))[0] == 0
    assert run(capsys, "verify", "--suite", suite, "--jobs", "8", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    # --jobs stays validated: below 1 is a usage error, and no report is written
    code, _, err = run(capsys, "verify", "--suite", suite, "--jobs", "0", "--out", str(c))
    assert code == 64 and "--jobs must be >= 1" in err
    assert not c.exists()


def test_verify_env_jobs_override(tmp_path, capsys, monkeypatch):
    # no environment variable changes a run: QGK_JOBS is not read, so a
    # value that --jobs would refuse changes neither exit code nor report
    plain, env = tmp_path / "plain.json", tmp_path / "env.json"
    assert run(capsys, "verify", "--suite", "dup-psi", "--out", str(plain))[0] == 0
    for value in ("0", "abc", "2"):
        monkeypatch.setenv("QGK_JOBS", value)
        assert run(capsys, "verify", "--suite", "dup-psi", "--out", str(env))[0] == 0, value
        assert env.read_bytes() == plain.read_bytes()


def test_verify_grid_points_override(tmp_path, capsys):
    out_file = tmp_path / "r.json"
    code, _, _ = run(capsys, "verify", "--suite", "kershaw-chain",
                     "--grid-points", "12", "--out", str(out_file))
    assert code == 0


@pytest.mark.parametrize("points", ["2", "-5", "100000"])
def test_verify_grid_points_outside_a_domain_is_a_usage_error(tmp_path, capsys, points):
    out_file = tmp_path / "r.json"
    code, _, err = run(capsys, "verify", "--suite", "dup-psi", "--grid-points", points,
                       "--out", str(out_file))
    assert code == 64 and "usage error" in err and "[8, 4096]" in err
    assert not out_file.exists()


def test_verify_fixed_point_claims_ignore_grid_points(tmp_path, capsys):
    # cor5-ineq checks a fixed set of points, so only the config digest,
    # which records the option, differs
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "verify", "--suite", "cor5-ineq", "--out", str(a))[0] == 0
    assert run(capsys, "verify", "--suite", "cor5-ineq", "--grid-points", "9",
               "--out", str(b))[0] == 0
    doc_a, doc_b = json.loads(a.read_text()), json.loads(b.read_text())
    assert doc_a["entries"] == doc_b["entries"]
    assert doc_a["config"] != doc_b["config"]


def test_verify_run_evaluates_each_polygamma_cell_once(monkeypatch):
    calls = collections.Counter()
    polygamma = sf.polygamma

    def counted(n, x, policy=None):
        calls[n, x] += 1
        return polygamma(n, x, policy)

    monkeypatch.setattr(sf, "polygamma", counted)
    ids = ["cor4-lcm", "thm30-lcm"]
    doc, unexpected = cli._report_document("rows", ids, None, None, 1e-12)
    assert unexpected == 0
    assert calls and max(calls.values()) == 1
    # the same entries as the claims run one by one, outside any run
    alone = [cli._entry(corpus.run_descriptor(cid)) for cid in ids]
    assert max(calls.values()) > 1
    assert cli._canonical_json(doc["entries"]) == cli._canonical_json(alone)


def test_verify_run_evaluates_each_bounds_cell_once(monkeypatch):
    calls = collections.Counter()

    def counting(name):
        fn = getattr(sf, name)

        def counted(*args):
            calls[name, args] += 1
            return fn(*args)

        return counted

    # the chains and probes that read their cells one scalar call at a time
    names = ("ln_gamma", "digamma", "polygamma", "q_ln_gamma", "q_polygamma")
    for name in names:
        monkeypatch.setattr(sf, name, counting(name))
    ids = ["cor5-ineq", "kershaw-chain", "merkle-chain", "prop51-chain", "qthm-monotone",
           "refined-chain"]
    doc, unexpected = cli._report_document("rows", ids, None, None, 1e-12)
    assert unexpected == 0
    assert {name for name, _ in calls} == set(names)
    assert max(calls.values()) == 1


def test_verify_row_table_ends_with_the_run(monkeypatch):
    run_descriptor = corpus.run_descriptor
    seen = []

    def second_claim_raises(cid, *args, **kwargs):
        seen.append(sf._RUN_CELLS.get())
        if len(seen) == 2:
            raise RuntimeError("claim failed")
        return run_descriptor(cid, *args, **kwargs)

    assert sf._RUN_CELLS.get() is None
    cli._report_document("rows", ["dup-psi"], None, None, 1e-12)
    assert sf._RUN_CELLS.get() is None
    monkeypatch.setattr(corpus, "run_descriptor", second_claim_raises)
    with pytest.raises(RuntimeError):
        cli._report_document("rows", ["cor4-lcm", "thm30-lcm"], None, None, 1e-12)
    assert seen[0] and seen[1] is seen[0]
    assert sf._RUN_CELLS.get() is None


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------


def test_roots_unique(capsys):
    code, out, _ = run(capsys, "roots", "--m", "3", "--n", "1", "--c", "0.5")
    assert code == 0 and "sign_changes=1" in out
    code, out, _ = run(capsys, "roots", "--m", "2", "--n", "1", "--c", "0.9")
    assert code == 0 and "sign_changes=1" in out


def test_roots_constraint_violation(capsys):
    code, _, err = run(capsys, "roots", "--m", "1", "--n", "1", "--c", "0.5")
    assert code == 64


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


def test_canonical_float_formatting():
    assert cli._fmt(1.0) == "1.0000000000000000e+00"
    assert cli._fmt(math.pi) == "3.1415926535897931e+00"
    # 17 significant digits round-trip exactly
    for x in (math.pi, 1e-300, -2.5e17, 0.1):
        assert float(cli._fmt(x)) == x


def test_canonical_json_sorted_keys():
    s = cli._canonical_json({"b": 1, "a": {"d": 2.0, "c": [True, None]}})
    assert s == '{"a":{"c":[true,null],"d":2.0000000000000000e+00},"b":1}'
