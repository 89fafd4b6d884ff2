"""One pass of each workload's fixed work, and the checks of its outputs.

verify-all / verify-all-j2: ``qgk verify --suite all --jobs J`` run
in-process through ``cli.main``.  The suite is fixed, so the inputs do not
depend on the seed.

eval-mix: a seeded batch of direct calls into the public evaluators, with
the same number of calls in each stratum (function, and q where it has
one) and fresh log-uniform arguments in every batch.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

from probe import speed_probe

X_RANGE = (1e-2, 1e2)  # the corpus grid range
Q_VALUES = (0.3, 0.9, 0.99)
STRATA = (
    ("ln_gamma", None),
    ("digamma", None),
    ("polygamma", None),
    ("kernel_derivative", None),
) + tuple((name, q) for q in Q_VALUES for name in ("q_digamma", "q_polygamma", "q_gamma"))
PER_STRATUM = 1000  # calls per stratum in one eval-mix batch
CHECK_PER_STRATUM = 40  # calls per stratum checked against mpmath
PROBE_EVERY = 250  # eval-mix calls between two speed probes


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def verify_argv(jobs: int, out: Path) -> list[str]:
    return ["verify", "--suite", "all", "--jobs", str(jobs), "--out", str(out)]


def verify_pass(cli_main, argv: list[str]) -> tuple[float, bytes, int]:
    """Run one verify; return (wall seconds, report bytes, exit code).

    Exit code 1 (an unexpected verdict) still writes a report, and the claim
    check finds the claims at fault; without a report this raises.
    """
    out = Path(argv[-1])
    out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli_main(argv)
        wall = time.perf_counter() - t0
    return wall, out.read_bytes(), rc


@contextlib.contextmanager
def claim_clock(corpus, samples: list[tuple[float, float, float]]):
    """Append (speed probe before s, wall s, speed probe after s) for every
    ``corpus.run_descriptor`` call."""
    original = corpus.run_descriptor

    def timed(*args, **kwargs):
        before = speed_probe()
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            samples.append((before, wall, speed_probe()))

    corpus.run_descriptor = timed
    try:
        yield
    finally:
        corpus.run_descriptor = original


def report_entries(report: bytes) -> dict[str, dict]:
    return {e["claim_id"]: e for e in json.loads(report)["entries"]}


def reference_record(report: bytes) -> dict:
    """What the stored reference keeps of a report."""
    doc = json.loads(report)
    return {
        "sha256": hashlib.sha256(report).hexdigest(),
        "summary": doc["summary"],
        "claims": {
            e["claim_id"]: {
                "status": e["status"],
                "violations": sorted([v["point"], v["order"]] for v in e["violations"]),
            }
            for e in doc["entries"]
        },
    }


def claim_failures(report: bytes, reference: dict, baseline: bytes | None = None) -> set[str]:
    """Claims whose verdict or (point, order) violation set differs from the
    reference, or whose entry differs from ``baseline`` (the jobs=1 report)."""
    got = reference_record(report)["claims"]
    want = reference["claims"]
    failed = {cid for cid in want.keys() | got.keys() if got.get(cid) != want.get(cid)}
    if baseline is not None and baseline != report:
        base = report_entries(baseline)
        mine = report_entries(report)
        failed |= {cid for cid in base.keys() | mine.keys() if base.get(cid) != mine.get(cid)}
    return failed


# ---------------------------------------------------------------------------
# eval-mix
# ---------------------------------------------------------------------------


def _log_uniform(rng, n: int) -> list[float]:
    """n fresh x, log-uniform on X_RANGE, one in each of n equal log-bins.

    Stratifying keeps the cost of a batch steady from batch to batch (the
    q = 0.99 series cost about 1/x) while no argument repeats.
    """
    lo, hi = math.log(X_RANGE[0]), math.log(X_RANGE[1])
    u = (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n
    return rng.permutation(np.exp(lo + u * (hi - lo))).tolist()


def _orders(rng, lo: int, hi: int, n: int) -> list[int]:
    """n derivative orders, each of lo..hi equally often, in random order."""
    return rng.permutation(np.resize(np.arange(lo, hi + 1), n)).tolist()


def make_batch(seed: int, index: int) -> list[tuple[str, tuple]]:
    """Batch ``index`` of the eval-mix stream for ``seed``, in shuffled order."""
    rng = np.random.default_rng([seed, index])
    calls = []
    for name, q in STRATA:
        xs = _log_uniform(rng, PER_STRATUM)
        if name in ("ln_gamma", "digamma"):
            calls += [(name, (x,)) for x in xs]
        elif name == "polygamma":
            calls += [(name, (n, x)) for n, x in zip(_orders(rng, 1, 20, PER_STRATUM), xs)]
        elif name == "kernel_derivative":
            # the corpus evaluates d^n/dt^n t^n / (1 - e^-t) for n = 1..16
            calls += [(name, (n, n, x)) for n, x in zip(_orders(rng, 1, 16, PER_STRATUM), xs)]
        elif name == "q_polygamma":
            calls += [(name, (n, x, q)) for n, x in zip(_orders(rng, 1, 8, PER_STRATUM), xs)]
        else:
            calls += [(name, (x, q)) for x in xs]
    order = rng.permutation(len(calls)).tolist()
    return [calls[i] for i in order]


def check_sample(seed: int, batch: list) -> list[int]:
    """Seeded indices of the calls checked against mpmath, per stratum."""
    rng = np.random.default_rng([seed, 1 << 20])
    by_stratum: dict[tuple, list[int]] = {}
    for i, (name, args) in enumerate(batch):
        q = args[-1] if name.startswith("q_") else None
        by_stratum.setdefault((name, q), []).append(i)
    picked = []
    for key in STRATA:
        idx = by_stratum[key]
        picked += sorted(rng.choice(idx, CHECK_PER_STRATUM, replace=False).tolist())
    return picked


def eval_pass(api, batch: list, latencies: list[float]) -> tuple[float, list, int]:
    """Run every call of ``batch``; return (wall s, results, failures).

    A call fails if it raises or returns a non-finite value.  Each call's
    latency in µs is appended to ``latencies``.
    """
    fns = {name: getattr(api, name) for name, _ in STRATA}
    calls = [(fns[name], args) for name, args in batch]
    results = []
    failed = 0
    clock = time.perf_counter
    t_start = clock()
    for fn, args in calls:
        t0 = clock()
        try:
            r = fn(*args)
        except Exception:  # a raising call is a failed operation, not a crash
            r = None
        latencies.append((clock() - t0) * 1e6)
        results.append(r)
    wall = clock() - t_start
    for r in results:
        if r is None or not (math.isfinite(r.value) and math.isfinite(r.abs_error)):
            failed += 1
    return wall, results, failed


def certificate_misses(seed: int, batch: list, results: list) -> tuple[int, dict, dict]:
    """Check the seeded subsample against mpmath at 40 digits.

    ``results`` holds (value, abs_error, ...) per call, or None for a call
    that failed.  Returns (checked, misses per function, worst
    |error|/abs_error per function).
    """
    import oracle  # mpmath is only needed here, outside the timed passes

    misses: dict[str, int] = {}
    worst: dict[str, float] = {}
    picked = check_sample(seed, batch)
    for i in picked:
        name, args = batch[i]
        r = results[i]
        if r is None:
            continue
        ok, ratio = oracle.certificate_holds(name, args, r[0], r[1])
        worst[name] = max(worst.get(name, 0.0), ratio)
        if not ok:
            misses[name] = misses.get(name, 0) + 1
    return len(picked), misses, worst
