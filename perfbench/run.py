"""qgammakit benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from ``src/``.  With ``--trace 0`` the run times the workload's
fixed work repeatedly for ``--seconds`` and prints the end-to-end metrics,
with every time scaled to the reference machine speed by the speed probe
taken next to it (``probe.speed_probe``).
With ``--trace 1`` it alternates untraced and traced passes of the same
work and prints the per-layer metrics from the outside tracer.  Metric names
and units come from ``BENCHMARK.json``.  The last stdout line is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Reports, spans and a record of each run go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import workloads as W  # run.py's own directory is first on sys.path
from probe import PROBE_REFERENCE_S, speed_probe
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference" / "verify-all.json"

WORKLOADS = {"verify-all": 1, "verify-all-j2": 2, "eval-mix": None}  # name -> --jobs
MIN_PASSES = 3
SETUP_REPEATS = 9

SPECFUN = ("ln_gamma", "digamma", "polygamma", "q_digamma", "q_polygamma",
           "q_ln_gamma", "kernel_derivative")
TARGETS = ("QSeriesTarget", "PolyProductTarget", "MonomialPolyGamma", "LinComb")
CHECKS = ("check_sign_pattern", "check_chain", "monotonicity_probe")


# ---------------------------------------------------------------------------
# machine
# ---------------------------------------------------------------------------


def steal_ticks() -> int | None:
    """Steal ticks of all CPUs from /proc/stat (read-only), or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def probe_ms() -> float:
    """Median of 25 speed probes, in ms: the machine's current speed."""
    return statistics.median(speed_probe() for _ in range(25)) * 1e3


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def timed_median(fn) -> tuple[float, object]:
    """(median time of SETUP_REPEATS calls of fn, the last result).

    The median is scaled to the reference speed by the median of the speed
    probes taken between the calls.
    """
    times, probes = [], [speed_probe()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
        probes.append(speed_probe())
    return statistics.median(times) * PROBE_REFERENCE_S / statistics.median(probes), result


# Run in a fresh interpreter: the import of qgammakit, timed from inside, between
# speed probes of the same process.  Prints the import time, then the probes.
IMPORT_CHILD = """
import time
from probe import speed_probe
probes = [speed_probe() for _ in range(5)]
t0 = time.perf_counter()
import qgammakit
took = time.perf_counter() - t0
probes += [speed_probe() for _ in range(5)]
print(took, *probes)
"""


def fresh_import_s() -> float:
    """Median over SETUP_REPEATS fresh interpreters of the import of
    qgammakit, each scaled to the reference speed by its own probes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_CHILD], env=env, check=True,
                             cwd=ROOT, capture_output=True, text=True).stdout
        took, *probes = map(float, out.split())
        times.append(took * PROBE_REFERENCE_S / statistics.median(probes))
    return statistics.median(times)


class Run:
    """State of one benchmark run: the loop clock and the operation counts."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = None
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def more(self) -> bool:
        """True while another pass fits in --seconds (at least MIN_PASSES)."""
        now = time.perf_counter()
        if self.start is None:
            self.start = now
        if self.passes < MIN_PASSES:
            return True
        per_pass = (now - self.start) / self.passes
        return now + per_pass <= self.start + self.seconds

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)
            print(text)


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------


def verify_e2e(run: Run, cli, corpus, jobs: int, argv: list[str], reference: dict) -> dict:
    baseline = jobs_1_report(cli, jobs)
    walls, raw_walls, claim_us = [], [], []
    report = b""
    while run.more():
        claims = []
        with W.claim_clock(corpus, claims):
            wall, report, rc = W.verify_pass(lambda a: cli.main(a), argv)
        probes = [(before + after) / 2 for before, _, after in claims]
        scaled = [dt * PROBE_REFERENCE_S / p for p, (_, dt, _) in zip(probes, claims)]
        probing = 2 * sum(probes)
        outside = wall - probing - sum(dt for _, dt, _ in claims)  # cli around the claims
        walls.append(sum(scaled) + outside * PROBE_REFERENCE_S / statistics.median(probes))
        raw_walls.append(wall - probing)
        claim_us += [t * 1e6 for t in scaled]
        run.passes += 1
        run.attempted += len(reference["claims"])
        run.failed += check_claims(run, report, rc, reference, baseline)
    note_sha(run, report, reference)
    return {"wall_s": walls, "raw_wall_s": raw_walls, "call_us": claim_us}


def jobs_1_report(cli, jobs: int) -> bytes | None:
    """For jobs > 1, the jobs=1 report it must equal byte for byte (untimed)."""
    if jobs == 1:
        return None
    return W.verify_pass(lambda a: cli.main(a), W.verify_argv(1, OUT / "report-j1.json"))[1]


def check_claims(run: Run, report: bytes, rc: int, reference: dict, baseline) -> int:
    """Number of failed claims in one verify pass; notes what failed."""
    if rc != 0:
        run.note(f"qgk verify exited with {rc}")
    bad = W.claim_failures(report, reference, baseline)
    if bad:
        run.note(f"claims differing from the reference or the jobs=1 report: {sorted(bad)}")
    return len(bad)


def note_sha(run: Run, report: bytes, reference: dict) -> None:
    sha = hashlib.sha256(report).hexdigest()
    if sha != reference["sha256"]:
        run.note(f"report sha256 {sha} differs from the reference {reference['sha256']} "
                 "(not a failure: worst_margin bits may change)")


def eval_e2e(run: Run, api, seed: int, first_batch: list) -> dict:
    walls, raw_walls, call_us = [], [], []
    batch = first_batch
    while run.more():
        if run.passes:
            batch = W.make_batch(seed, run.passes)  # built outside the timed pass
        wall = raw = 0.0
        for i in range(0, len(batch), W.PROBE_EVERY):
            factor = PROBE_REFERENCE_S / speed_probe()
            latencies = []
            t, _, failed = W.eval_pass(api, batch[i:i + W.PROBE_EVERY], latencies)
            wall += t * factor
            raw += t
            call_us += [us * factor for us in latencies]
            run.failed += failed
        walls.append(wall)
        raw_walls.append(raw)
        run.passes += 1
        run.attempted += len(batch)
    return {"wall_s": walls, "raw_wall_s": raw_walls, "call_us": call_us}


def end_to_end(args, run: Run, declared: list[dict]) -> dict:
    jobs = WORKLOADS[args.workload]
    import_s = fresh_import_s()
    if jobs is None:
        build_s, batch = timed_median(lambda: W.make_batch(args.seed, 0))
    else:
        build_s, argv = timed_median(lambda: W.verify_argv(jobs, OUT / f"report-j{jobs}.json"))
    import qgammakit
    from qgammakit import cli, corpus

    if jobs is None:
        raw = eval_e2e(run, qgammakit, args.seed, batch)
        op = "library call"
    else:
        raw = verify_e2e(run, cli, corpus, jobs, argv, load_reference())
        op = "claim (corpus.run_descriptor call)"
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calls = raw["call_us"]
    values = {
        "norm_wall_s": statistics.median(raw["wall_s"]),
        "setup_s": import_s + build_s,
        "peak_rss_mb": peak_mb,
        "norm_call_p50_us": float(numpy.percentile(calls, 50)),
        "norm_call_p99_us": float(numpy.percentile(calls, 99)),
    }
    print("times are scaled to the reference speed, at which the speed probe takes "
          f"{PROBE_REFERENCE_S * 1e3} ms")
    print(f"norm_wall_s: median of {len(raw['wall_s'])} passes {[round(w, 4) for w in raw['wall_s']]}; "
          f"unscaled {[round(w, 4) for w in raw['raw_wall_s']]}")
    print(f"setup_s: fresh import {import_s:.4f} s + inputs {build_s:.6f} s "
          f"(medians of {SETUP_REPEATS})")
    print(f"norm_call_p50_us / norm_call_p99_us: one call is one {op}; {len(calls)} samples, "
          f"{int(len(calls) * 0.01)} beyond p99")
    print(f"fail_ratio: {run.failed}/{run.attempted}")
    return pick(declared, values)


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics
# ---------------------------------------------------------------------------


def counts(summary: dict, report_bytes: int) -> dict:
    """Every count in a traced pass; all must repeat exactly."""
    out = {"cli.report_bytes": report_bytes}
    for name, row in summary.items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.terms"] = row["terms"]
        if "distinct" in row:
            out[f"{name}.distinct"] = row["distinct"]
    return out


def layer_values(summaries: list[dict], claim_ids, report_bytes: int) -> dict:
    """Per-layer metric values: counts of the first traced pass, times as
    medians over the traced passes."""
    first = summaries[0]

    def med(fn):
        return statistics.median(fn(s) for s in summaries)

    def layer_self(s, layer):
        return sum(r["self_s"] for n, r in s.items() if n.startswith(layer + "."))

    v = {}
    for fn in SPECFUN:
        key = f"specfun.{fn}"
        v[f"{key}.calls"] = first[key]["calls"]
        v[f"{key}.terms"] = first[key]["terms"]
        v[f"{key}.self_s"] = med(lambda s: s[key]["self_s"])
        if "distinct" in first[key]:
            calls = first[key]["calls"]
            v[f"{key}.distinct_ratio"] = first[key]["distinct"] / calls if calls else 0.0
    v["specfun.calls"] = sum(r["calls"] for n, r in first.items() if n.startswith("specfun."))
    for cls in TARGETS:
        key = f"cm_engine.{cls}.deriv"
        v[f"{key}.calls"] = first[key]["calls"]
        v[f"{key}.self_s"] = med(lambda s: s[key]["self_s"])
    for check in CHECKS:
        key = f"cm_engine.{check}"
        v[f"{key}.calls"] = first[key]["calls"]
        v[f"{key}.busy_s"] = med(lambda s: s[key]["busy_s"])
    v["bounds.calls"] = sum(r["calls"] for n, r in first.items() if n.startswith("bounds."))
    for layer in ("specfun", "cm_engine", "bounds", "corpus", "cli"):
        v[f"{layer}.self_s"] = med(lambda s: layer_self(s, layer))
    for cid in claim_ids:
        key = f"corpus.claim.{cid}"
        v[f"corpus.claim_ms.{cid}"] = med(lambda s: s.get(key, {"busy_s": 0.0})["busy_s"]) * 1e3
    v["cli.report_bytes"] = report_bytes
    return v


def traced(args, run: Run, declared: list[dict]) -> dict:
    import qgammakit
    from qgammakit import cli, corpus

    jobs = WORKLOADS[args.workload]
    if jobs is None:
        batch = W.make_batch(args.seed, 0)

        def unit():
            wall, results, failed = W.eval_pass(qgammakit, batch, [])
            outputs = [None if r is None else (r.value, r.abs_error, r.terms_used) for r in results]
            return wall, outputs, failed
    else:
        reference = load_reference()
        argv = W.verify_argv(jobs, OUT / f"report-j{jobs}.json")
        baseline = jobs_1_report(cli, jobs)

        def unit():
            wall, report, rc = W.verify_pass(lambda a: cli.main(a), argv)
            return wall, report, check_claims(run, report, rc, reference, baseline)

    plain_walls, traced_walls, summaries = [], [], []
    first_plain = first_counts = None
    tracer = None
    while run.more():
        wall, plain_out, failed = unit()
        plain_walls.append(wall)
        if first_plain is None:
            first_plain = plain_out
        tracer = Tracer()
        with tracer:
            wall, traced_out, failed_t = unit()
        traced_walls.append(wall)
        run.passes += 1
        run.attempted += 2 * (len(batch) if jobs is None else len(reference["claims"]))
        run.failed += failed + failed_t
        if traced_out != plain_out:
            run.failed += 1
            run.note("the traced pass's output differs from the untraced pass's")
        summary = tracer.summary()
        report_bytes = 0 if jobs is None else len(traced_out)
        c = counts(summary, report_bytes)
        if first_counts is None:
            first_counts = c
        elif c != first_counts:
            diff = sorted(k for k in c.keys() | first_counts.keys() if c.get(k) != first_counts.get(k))
            run.failed += 1
            run.note(f"per-layer counts did not repeat: {diff[:10]}")
        summaries.append(summary)
    tracer.write(OUT / f"spans-{args.workload}.npz")

    values = layer_values(summaries, corpus.ALL_IDS, report_bytes)
    values["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    values["specfun.cert_checked"] = 0
    values["specfun.cert_miss_ratio"] = 0.0
    if jobs is None:
        checked, misses, worst = W.certificate_misses(args.seed, batch, first_plain)
        values["specfun.cert_checked"] = checked
        values["specfun.cert_miss_ratio"] = sum(misses.values()) / checked
        print(f"certificate misses of {checked} checked calls: {misses}; "
              f"worst |error|/abs_error: { {k: round(r, 3) for k, r in worst.items()} }")
    else:
        note_sha(run, traced_out, reference)
    print(f"tracing overhead: traced {statistics.median(traced_walls):.4f} s vs untraced "
          f"{statistics.median(plain_walls):.4f} s (medians of {len(traced_walls)} pairs)")
    return pick(declared, values)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def pick(declared: list[dict], values: dict) -> dict:
    """The declared metrics, in declaration order, with their units."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "qgammakit" / "__init__.py").is_file():
        print(f"error: no qgammakit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    OUT.mkdir(exist_ok=True)

    steal_before = steal_ticks()
    probe_before = probe_ms()
    run = Run(args.seconds)
    if args.trace:
        metrics = traced(args, run, spec["per_layer"])
    else:
        metrics = end_to_end(args, run, spec["end_to_end"])
    steal_after = steal_ticks()
    host = machine()
    host["steal_ticks"] = (
        steal_after - steal_before if None not in (steal_before, steal_after) else None
    )
    host["probe_ms"] = [round(probe_before, 4), round(probe_ms(), 4)]
    print("machine: " + json.dumps(host))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": host, "notes": run.notes, **result}
    with open(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
