"""Command-line front end: evaluation, bounds tables, suite verification.

Exit codes: 0 success / all claims verified, 1 verification failure,
2 domain error, 64 usage error, 74 I/O failure.  Reports are serialized
canonically (sorted keys, floats with 17 significant digits, lowercase
e-notation) so runs diff cleanly.  No environment variable changes a run.
``verify --jobs`` (default 1) is validated (>= 1) and kept for
compatibility; claims are checked sequentially whatever its value.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import math
import sys

from .errors import ConvergenceError, DomainError, PreconditionError, UsageError
from . import bounds as bd
from . import corpus
from .cm_engine import check_chain
from . import specfun as sf

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64
EXIT_IO = 74

_VERSION = "0.1.0"


def _fmt(x: float) -> str:
    """Canonical float: 17 significant digits, lowercase e-notation."""
    if not math.isfinite(x):
        x = math.copysign(1.7976931348623157e308, x) if not math.isnan(x) else 0.0
    return f"{x:.16e}"


# a string's escapes: the quote, the backslash and the control characters
_ESCAPES = str.maketrans({'"': '\\"', "\\": "\\\\", **{chr(c): f"\\u{c:04x}" for c in range(0x20)}})


def _canonical_json(obj) -> str:
    """Canonical JSON of dicts (keys sorted, written as strings), lists and
    tuples, bools, ints, floats (``_fmt``) and None; anything else is
    written as the string ``str(obj)``, so a numpy float is a float and a
    numpy int a string."""
    out = []
    _encode(obj, out.append)
    return "".join(out)


def _encode(obj, put) -> None:
    if isinstance(obj, dict):
        sep = "{"
        for k, v in sorted(obj.items()):
            key = f'{sep}"{str(k).translate(_ESCAPES)}":'
            if type(v) is float:  # most values: one put, no call
                put(key + _fmt(v))
            else:
                put(key)
                _encode(v, put)
            sep = ","
        put("{}" if sep == "{" else "}")
    elif isinstance(obj, (list, tuple)):
        sep = "["
        for v in obj:
            put(sep)
            _encode(v, put)
            sep = ","
        put("[]" if sep == "[" else "]")
    elif isinstance(obj, bool):  # before int, of which bool is a subclass
        put("true" if obj else "false")
    elif isinstance(obj, int):
        put(str(obj))
    elif isinstance(obj, float):
        put(_fmt(obj))
    elif obj is None:
        put("null")
    else:
        put(f'"{str(obj).translate(_ESCAPES)}"')


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="qgk", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate one function with its certified error")
    ev.add_argument("--fn", required=True,
                    help="gamma|lngamma|digamma|polygamma:<n>|qgamma|qdigamma|"
                         "qpolygamma:<n>|logmean:<r>|ball:<n>|kernel")
    ev.add_argument("--x", type=float, default=None)
    ev.add_argument("--y", type=float, default=None, help="second argument (logmean)")
    ev.add_argument("--q", type=float, default=None)
    ev.add_argument("--eps", type=float, default=None)
    ev.add_argument("--json", action="store_true")

    bo = sub.add_parser("bounds", help="closed-form bound tables")
    bsub = bo.add_subparsers(dest="bounds_kind", required=True)
    ra = bsub.add_parser("ratio")
    ra.add_argument("--x", type=float, required=True)
    ra.add_argument("--s", type=float, required=True)
    ra.add_argument("--q", type=float, required=True)
    ra.add_argument("--method", required=True, choices=bd.RATIO_BOUND_METHODS)
    ra.add_argument("--format", choices=("text", "csv"), default="text")
    ba = bsub.add_parser("ball")
    ba.add_argument("--n-max", type=int, required=True)
    ba.add_argument("--format", choices=("text", "csv"), default="text")
    kv = bsub.add_parser("kv")
    kv.add_argument("--a", type=float, required=True)
    kv.add_argument("--b", type=float, required=True)
    kv.add_argument("--format", choices=("text", "csv"), default="text")

    ve = sub.add_parser("verify", help="run corpus claims and write a report")
    ve.add_argument("--suite", default="all", help="all or comma-separated claim ids")
    ve.add_argument("--grid-points", type=int, default=None)
    ve.add_argument("--max-order", type=int, default=None)
    ve.add_argument("--tol", type=float, default=1e-12)
    ve.add_argument("--out", default="report.json")
    ve.add_argument("--format", choices=("json", "csv"), default="json")
    ve.add_argument("--jobs", type=int, default=1)

    ro = sub.add_parser("roots", help="root of the comparison polynomial")
    ro.add_argument("--m", type=int, required=True)
    ro.add_argument("--n", type=int, required=True)
    ro.add_argument("--c", type=float, required=True)
    return p


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _need_x(args):
    if args.x is None:
        raise UsageError("--x is required for this function")
    return args.x


def _cmd_eval(args) -> int:
    policy = sf.TruncationPolicy(eps=args.eps) if args.eps is not None else None
    fn = args.fn
    name, _, suffix = fn.partition(":")

    if name in ("qgamma", "qdigamma", "qpolygamma") and args.q is None:
        raise UsageError(f"--q is required for {name}")

    if name == "gamma":
        enc = sf.ln_gamma(_need_x(args), policy)
        enc = sf._exp(enc.value, enc)
    elif name == "lngamma":
        enc = sf.ln_gamma(_need_x(args), policy)
    elif name == "digamma":
        enc = sf.digamma(_need_x(args), policy)
    elif name == "polygamma":
        enc = sf.polygamma(_parse_int(suffix, fn), _need_x(args), policy)
    elif name == "qgamma":
        enc = sf.q_gamma(_need_x(args), args.q, policy)
    elif name == "qdigamma":
        enc = sf.q_digamma(_need_x(args), args.q, policy)
    elif name == "qpolygamma":
        enc = sf.q_polygamma(_parse_int(suffix, fn), _need_x(args), args.q, policy)
    elif name == "logmean":
        if args.y is None:
            raise UsageError("logmean needs --x and --y")
        r, x = _parse_float(suffix, fn), _need_x(args)
        val = sf.log_mean(r, x, args.y)
        # log_mean's exponents round in proportion to t = |ln(y/x)|, and
        # its power 1/(r - 1) multiplies the rounding of what it raises
        t = abs(math.log(args.y) - math.log(x))
        amp = 0.0 if r in (0.0, 1.0) else (4.0 + abs(r) * t) / abs(r - 1.0)
        enc = sf.Enclosure(val, sf._slop(4.0 + 2.0 * t + amp, val), 1)
    elif name == "ball":
        enc = sf.unit_ball_volume(_parse_int(suffix, fn), policy)
    elif name == "kernel":
        val = sf.kernel_h(_need_x(args))
        enc = sf.Enclosure(val, sf._slop(4, val), 1)
    else:
        raise UsageError(f"unknown function {fn!r}")

    if args.json:
        doc = {
            "fn": fn,
            "value": enc.value,
            "abs_error": enc.abs_error,
            "terms_used": enc.terms_used,
        }
        print(_canonical_json(doc))
    else:
        print(f"{_fmt(enc.value)}  (abs_error <= {enc.abs_error:.3e}, terms={enc.terms_used})")
    return EXIT_OK


def _parse_int(suffix: str, fn: str) -> int:
    try:
        return int(suffix)
    except ValueError:
        raise UsageError(f"{fn!r}: expected an integer suffix") from None


def _parse_float(suffix: str, fn: str) -> float:
    try:
        return float(suffix)
    except ValueError:
        raise UsageError(f"{fn!r}: expected a numeric suffix") from None


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _emit_rows(header, rows, fmt):
    if fmt == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(header)
        for row in rows:
            w.writerow(row)
    else:
        print("  ".join(f"{h:>22}" for h in header))
        for row in rows:
            print("  ".join(f"{c:>22}" for c in row))


def _out_of_order(triples) -> bool:
    """Whether a (lower, exact, upper) triple fails the one tolerance rule,
    each triple a row of ``check_chain``."""
    points = [{"row": i} for i in range(len(triples))]
    return check_chain(lambda p: triples[p["row"]], points).status == "fail"


def _cmd_bounds(args) -> int:
    if args.bounds_kind == "ratio":
        bp = bd.ratio_bounds(args.x, args.s, args.q, args.method)
        exact = bd.gamma_ratio(args.x, args.s, args.q)
        triples = [(bp.lower, exact, bp.upper)]
        _emit_rows(
            ("method", "lower", "exact", "upper"),
            [(args.method, _fmt(bp.lower), _fmt(exact), _fmt(bp.upper))],
            args.format,
        )
    elif args.bounds_kind == "ball":
        if args.n_max < 1:
            raise UsageError("--n-max must be >= 1")
        rows, triples = [], []
        for n in range(1, args.n_max + 1):
            bb = bd.ball_ratio_bounds(n)
            triples.append((bb.thm51.lower, bb.thm51_exact, bb.thm51.upper))
            if bb.eq13 is not None:
                triples.append((bb.eq13.lower, bb.eq13_exact, bb.eq13.upper))
            rows.append((
                n,
                _fmt(bb.thm51.lower), _fmt(bb.thm51_exact), _fmt(bb.thm51.upper),
                _fmt(bb.eq13.lower) if bb.eq13 else "",
                _fmt(bb.eq13_exact) if bb.eq13_exact is not None else "",
                _fmt(bb.eq13.upper) if bb.eq13 else "",
            ))
        _emit_rows(
            ("n", "ratio_lower", "ratio_exact", "ratio_upper",
             "sq_lower", "sq_exact", "sq_upper"),
            rows, args.format,
        )
    else:  # kv
        bp = bd.keckic_vasic_bounds(args.a, args.b)
        exact = math.exp(sf.ln_gamma(args.b).value - sf.ln_gamma(args.a).value)
        triples = [(bp.lower, exact, bp.upper)]
        _emit_rows(
            ("a", "b", "lower", "exact", "upper"),
            [(args.a, args.b, _fmt(bp.lower), _fmt(exact), _fmt(bp.upper))],
            args.format,
        )
    return EXIT_VERIFY_FAIL if _out_of_order(triples) else EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _report_document(suite_label, ids, grid_points, max_order, tol):
    config = {
        "suite": suite_label,
        "grid_points": grid_points if grid_points is not None else "default",
        "max_order": max_order if max_order is not None else "default",
        "tol": tol,
        "version": _VERSION,
    }
    digest = hashlib.sha256(_canonical_json(config).encode()).hexdigest()[:16]
    entries = []
    unexpected = 0
    # claims share their evaluator cells, within this run only
    with sf._run_cells():
        for cid in ids:
            desc = corpus.get_descriptor(cid)
            overrides = {}
            if grid_points is not None and "grid_points" in desc.parameter_domains:
                overrides["grid_points"] = grid_points
            rep = corpus.run_descriptor(cid, overrides, tol=tol, max_order=max_order)
            if desc.expects_violation:
                ok = rep.status == "fail" and len(rep.violations) >= 1
            else:
                ok = rep.status == "pass"
            if not ok:
                unexpected += 1
            entries.append(rep)
    entries.sort(key=lambda r: r.claim_id)
    summary = {
        "pass": sum(1 for r in entries if r.status == "pass"),
        "fail": sum(1 for r in entries if r.status == "fail"),
        "inconclusive": sum(1 for r in entries if r.status == "inconclusive"),
    }
    doc = {
        "suite": suite_label,
        "config": digest,
        "entries": [_entry(r) for r in entries],
        "summary": summary,
    }
    return doc, unexpected


def _entry(r) -> dict:
    """The report entry of one claim's VerificationReport."""
    return {
        "claim_id": r.claim_id,
        "status": r.status,
        "worst_margin": float(r.worst_margin),
        "violations": [
            {
                "point": float(v.point),
                "params": v.params,
                "order": int(v.order),
                "lhs": float(v.lhs),
                "rhs": float(v.rhs),
                "margin": float(v.margin),
            }
            for v in r.violations
        ],
    }


def _report_csv(doc) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(("claim_id", "status", "worst_margin", "point", "params",
                "order", "lhs", "rhs", "margin"))
    for entry in doc["entries"]:
        if entry["violations"]:
            for v in entry["violations"]:
                w.writerow((
                    entry["claim_id"], entry["status"], _fmt(entry["worst_margin"]),
                    _fmt(v["point"]), _canonical_json(v["params"]), v["order"],
                    _fmt(v["lhs"]), _fmt(v["rhs"]), _fmt(v["margin"]),
                ))
        else:
            w.writerow((entry["claim_id"], entry["status"],
                        _fmt(entry["worst_margin"]), "", "", "", "", "", ""))
    return buf.getvalue()


def _cmd_verify(args) -> int:
    if args.suite == "all":
        ids = list(corpus.ALL_IDS)
        label = "all"
    else:
        ids = [s.strip() for s in args.suite.split(",") if s.strip()]
        for cid in ids:
            corpus.get_descriptor(cid)  # raises UsageError on unknown ids
        label = ",".join(ids)
    # validated for compatibility only: claims are checked sequentially
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    # a bad option is a usage error before any claim runs, not a domain error
    # of the first claim that reads it
    if args.grid_points is not None:
        for cid in ids:
            domain = corpus.get_descriptor(cid).parameter_domains.get("grid_points")
            if domain is None:  # the claim has no grid to thin or refine
                continue
            lo, hi = domain
            if not lo <= args.grid_points <= hi:
                raise UsageError(
                    f"--grid-points {args.grid_points} is outside [{lo}, {hi}] for {cid}"
                )

    doc, unexpected = _report_document(
        label, ids, args.grid_points, args.max_order, args.tol
    )
    payload = _canonical_json(doc) + "\n" if args.format == "json" else _report_csv(doc)
    try:
        with open(args.out, "w") as fh:
            fh.write(payload)
    except OSError as ex:
        print(f"error: cannot write report: {ex}", file=sys.stderr)
        return EXIT_IO
    s = doc["summary"]
    print(
        f"suite={label} pass={s['pass']} fail={s['fail']} "
        f"inconclusive={s['inconclusive']} unexpected={unexpected} -> {args.out}"
    )
    return EXIT_OK if unexpected == 0 else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------


def _cmd_roots(args) -> int:
    root = bd.a_poly_root(args.m, args.n, args.c)
    changes = bd.a_poly_sign_changes(args.m, args.n, args.c, 2.0 * root, 10000)
    print(f"root={_fmt(root)} residual={bd.a_poly(root, args.m, args.n, args.c):.3e} "
          f"sign_changes={changes} over [1, {2.0 * root:.6g}] (10000 points)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_roots(args)
    except (UsageError, PreconditionError) as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, ConvergenceError, OverflowError) as ex:
        print(f"domain error: {ex}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as ex:
        print(f"i/o error: {ex}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
