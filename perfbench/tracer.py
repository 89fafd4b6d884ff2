"""Outside tracer: spans around the calls into each qgammakit layer.

The package is not edited.  While a Tracer is installed, every module-level
binding of a layer's public functions, and the ``deriv`` method of every
cm_engine target class, is replaced by a wrapper that records a span; the
originals are put back on exit.  ``cm_engine`` and ``bounds`` bind the
specfun evaluators when they are imported, so each binding is replaced where
it lives, in every module, not only in ``specfun``.

A span is (id, parent id, name, start, end, terms), where terms is the
``Enclosure.terms_used`` of the result.  Spans stay in per-thread buffers
until the traced pass ends.  Worker threads of ``cm_engine._pmap`` start
with an empty stack; their outermost spans take as parent the span open on
the main thread, which waits inside the check that started the pool.  A
span's self time is its duration minus the union of its children's
intervals (children in two workers overlap in time).
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from array import array

import numpy as np

# evaluators whose distinct-argument ratio is recorded
DISTINCT = ("polygamma", "digamma", "q_polygamma", "q_digamma")


class _Buffer:
    """The spans one thread closed, in columns, plus its open-span stack."""

    def __init__(self):
        self.stack: list[int] = []
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.terms = array("q")


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.summary()`` after."""

    def __init__(self):
        import qgammakit as pkg
        from qgammakit import bounds, cli, cm_engine, corpus, specfun

        self.layer_modules = {
            "specfun": specfun, "bounds": bounds, "cm_engine": cm_engine,
            "corpus": corpus, "cli": cli,
        }
        self.modules = (pkg, specfun, bounds, cm_engine, corpus, cli)
        self.names: list[str] = []
        self.distinct: dict[str, set] = {n: set() for n in DISTINCT}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._main = self._buffer()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = _Buffer()
        self._local.buf = buf
        self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, terms: bool, per_claim: bool = False):
        name_id = self._name_id(name)
        claim_ids: dict[str, int] = {}
        seen = self.distinct.get(name.rpartition(".")[2]) if name.startswith("specfun.") else None
        local, ids, main_stack, clock = self._local, self._ids, self._main.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            buf = getattr(local, "buf", None) or self._buffer()
            stack = buf.stack
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            nid = name_id
            if per_claim:
                cid = args[0]
                if cid not in claim_ids:
                    claim_ids[cid] = self._name_id(f"corpus.claim.{cid}")
                nid = claim_ids[cid]
            if seen is not None:  # an omitted policy and policy=None are one argument
                key = args
                while key and key[-1] is None:
                    key = key[:-1]
                seen.add((key, tuple(kwargs.items())))
            sid = next(ids)
            stack.append(sid)
            used = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if terms:
                    used = getattr(result, "terms_used", 0)
                return result
            finally:
                t1 = clock()
                stack.pop()
                buf.sid.append(sid)
                buf.parent.append(parent)
                buf.name.append(nid)
                buf.t0.append(t0)
                buf.t1.append(t1)
                buf.terms.append(used)

        return wrapper

    # -- installing ----------------------------------------------------------

    def _targets(self):
        """(owner, attribute, original, span name, records terms) to wrap."""
        for layer, mod in self.layer_modules.items():
            public = ("main",) if layer == "cli" else mod.__all__
            for attr in public:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield mod, attr, obj, f"{layer}.{attr}", layer == "specfun"
        cm = self.layer_modules["cm_engine"]
        for cls_name, cls in vars(cm).items():
            if inspect.isclass(cls) and cls.__module__ == cm.__name__ and "deriv" in vars(cls):
                yield cls, "deriv", cls.deriv, f"cm_engine.{cls_name}.deriv", True

    def __enter__(self):
        wrappers = {}
        for owner, attr, fn, name, terms in self._targets():
            if inspect.isclass(owner):
                wrapped = self._wrap(fn, name, terms)
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, fn))
            else:
                per_claim = name == "corpus.run_descriptor"
                wrappers[id(fn)] = (fn, self._wrap(fn, name, terms, per_claim))
        # replace every binding of a wrapped function, in every module
        for mod in self.modules:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, val))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    # -- aggregating ---------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All closed spans as columns, ordered by span id."""
        cols = {}
        for col in ("sid", "parent", "name", "t0", "t1", "terms"):
            cols[col] = np.concatenate(
                [np.array(getattr(b, col)) for b in self._buffers]
            )
        order = np.argsort(cols["sid"], kind="stable")
        return {k: v[order] for k, v in cols.items()}

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self_s, busy_s (inclusive) and terms."""
        sp = self.spans()
        n = len(sp["sid"])
        dur = sp["t1"] - sp["t0"]
        covered = np.zeros(n)
        # sid i sits in row i: ids are dense because every span has closed
        order = np.lexsort((sp["t0"], sp["parent"]))
        prev, run_end, acc = -1, -np.inf, 0.0
        for parent, s, e in zip(sp["parent"][order].tolist(), sp["t0"][order].tolist(),
                                sp["t1"][order].tolist()):
            if parent != prev:
                if prev >= 0:
                    covered[prev] = acc
                prev, run_end, acc = parent, -np.inf, 0.0
            if parent < 0:
                continue
            if e > run_end:
                acc += e - max(s, run_end)
                run_end = e
        if prev >= 0:
            covered[prev] = acc
        self_s = dur - covered
        k = len(self.names)
        calls = np.bincount(sp["name"], minlength=k)
        selfs = np.bincount(sp["name"], weights=self_s, minlength=k)
        busy = np.bincount(sp["name"], weights=dur, minlength=k)
        terms = np.bincount(sp["name"], weights=sp["terms"], minlength=k)
        out = {
            name: {"calls": int(calls[i]), "self_s": float(selfs[i]),
                   "busy_s": float(busy[i]), "terms": int(terms[i])}
            for i, name in enumerate(self.names)
        }
        for fn, seen in self.distinct.items():
            out[f"specfun.{fn}"]["distinct"] = len(seen)
        return out

    def write(self, path) -> None:
        """Save the spans and the name table as an .npz file."""
        np.savez(path, names=np.array(self.names), **self.spans())
