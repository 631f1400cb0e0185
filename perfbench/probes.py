"""Outside-in tracing of the gbengine layers.

A Tracer wraps public functions and methods of the gbengine modules,
records time and counts at each call, and puts every original back when
it is closed.  Nothing inside `src/` knows about it, and it is installed
only for traced units of work, so untraced timings are unaffected.

Each call charges its wall time to the module it belongs to, minus the
time of the wrapped calls nested inside it (self time), and to a group
(inclusive time, counted once when calls of one group nest).  Calls of
probes marked `span` also leave a span record (id, name, start, end,
parent span, solve id) in memory; the hot leaf operations (monomial
arithmetic, queue and lookup calls) only aggregate, so a trace stays
small enough to keep until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "gbengine"


class TraceError(RuntimeError):
    """A probe target is missing, so the layer it measures cannot be traced."""


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _pushed(tr, result, args, kwargs):
    queue = args[0]
    coeff = _arg(args, kwargs, 1, "coeff")
    poly = _arg(args, kwargs, 3, "poly")
    start = _arg(args, kwargs, 4, "start", 0)
    if coeff % queue.p and start < len(poly):
        tr.counts["termqueue.terms_pushed"] += len(poly) - start


def _popped(tr, result, args, kwargs):
    if result is not None:
        tr.counts["termqueue.terms_popped"] += 1


def _found_one(tr, result, args, kwargs):
    if result is not None:
        tr.counts["lookup.divisors"] += 1


def _found_all(tr, result, args, kwargs):
    tr.counts["lookup.divisors"] += len(result)


def _made_lookup(tr, result, args, kwargs):
    tr.lookups.append(result)


def _added_pairs(tr, result, args, kwargs):
    tr.counts["spairqueue.pairs_added"] += len(_arg(args, kwargs, 2, "pairs"))
    queued = getattr(args[0], "queued_bytes", 0)
    if queued > tr.counts["spairqueue.peak_queued_bytes"]:
        tr.counts["spairqueue.peak_queued_bytes"] = queued


def _popped_pair(tr, result, args, kwargs):
    if result is not None:
        tr.counts["spairqueue.pops"] += 1


@dataclass(frozen=True)
class Probe:
    target: str                  # below the package, e.g. "ring.Ring.mono_mul"
    group: str                   # inclusive-time bucket
    span: bool = False           # keep one span record per call
    observe: Callable | None = None   # (tracer, result, args, kwargs) hook

    @property
    def module(self):
        return self.target.split(".", 1)[0]


def _lookup_probes():
    out = [Probe("lookup.make_lookup", "lookup.update", observe=_made_lookup)]
    for cls in ("ListLookup", "KdLookup"):
        out += [
            Probe("lookup.%s.find_divisor" % cls, "lookup.query",
                  observe=_found_one),
            Probe("lookup.%s.find_all_divisors" % cls, "lookup.query",
                  observe=_found_all),
            Probe("lookup.%s.insert" % cls, "lookup.update"),
            Probe("lookup.%s.retire" % cls, "lookup.update"),
            Probe("lookup.%s.maybe_rebuild" % cls, "lookup.update"),
            Probe("lookup.%s.rebuild" % cls, "lookup.update"),
        ]
    return out


def _spairqueue_probes():
    out = []
    for cls in ("PairTriangle", "FlatPairQueue"):
        out += [
            Probe("spairqueue.%s.add_column" % cls, "spairqueue",
                  observe=_added_pairs),
            Probe("spairqueue.%s.pop_min" % cls, "spairqueue",
                  observe=_popped_pair),
            Probe("spairqueue.%s.peek_min_key" % cls, "spairqueue"),
        ]
    # the Koszul syzygy heap of the sb engine
    out += [Probe("spairqueue.MinHeap.%s" % m, "spairqueue")
            for m in ("push", "pop", "peek")]
    return out


PROBES = tuple([
    Probe("idealfile.parse_ideal", "idealfile.parse", span=True),
    Probe("sigbasis.sb_run", "sigbasis.engine", span=True),
    Probe("buchberger.buchberger_run", "buchberger.engine", span=True),
    Probe("division.interreduce", "division.interreduce", span=True),
    Probe("division.reduced_basis", "division.reduced_basis", span=True),
    Probe("division.classic_reduce", "division.reduce", span=True),
    Probe("termqueue.ReducerQueue.push_product", "termqueue",
          observe=_pushed),
    Probe("termqueue.ReducerQueue.pop_max", "termqueue", observe=_popped),
    Probe("pairbits.BitTriangle.get", "pairbits"),
    Probe("pairbits.BitTriangle.set", "pairbits"),
] + _lookup_probes() + _spairqueue_probes() + [
    Probe("ring.Ring.%s" % m, "ring")
    for m in ("mono", "mono_mul", "mono_div", "mono_lcm", "mono_divides",
              "mono_coprime")
])

ROOT_SPAN = "solve"


class Tracer:
    """Installs the probes; use as a context manager around traced work."""

    def __init__(self, probes=PROBES):
        self.probes = tuple(probes)
        self.calls = defaultdict(int)          # probe target -> calls
        self.self_s = defaultdict(float)       # module -> self time
        self.busy_s = defaultdict(float)       # group -> inclusive time
        self.counts = defaultdict(int)
        self.lookups = []                      # lookups made in this solve
        self.spans = []
        self.solves = 0
        self._stack = []                       # [child seconds] per open call
        self._open_spans = []
        self._depth = defaultdict(int)
        self._saved = None

    # -- install / restore -------------------------------------------------

    def resolve(self):
        """(probe, owner, attr, function) for every probe; raises TraceError
        when a probed name is missing."""
        found = []
        for probe in self.probes:
            modname, *path = probe.target.split(".")
            mod = sys.modules.get("%s.%s" % (PACKAGE, modname))
            owner = mod
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            attr = path[-1]
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                raise TraceError("%s.%s is missing: its layer cannot be traced"
                                 % (PACKAGE, probe.target))
            found.append((probe, owner, attr, fn))
        return found

    def install(self):
        if self._saved is not None:
            raise RuntimeError("tracer already installed")
        found = self.resolve()
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        saved = []
        try:
            for probe, owner, attr, fn in found:
                wrapper = self._wrap(probe, fn)
                if isinstance(owner, type):
                    saved.append((owner, attr, owner.__dict__.get(attr)))
                    setattr(owner, attr, wrapper)
                    continue
                # a module-level function: rebind every module-level name
                # that refers to it, including `from x import f` copies
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            saved.append((mod, name, fn))
                            setattr(mod, name, wrapper)
        except BaseException:
            self._restore(saved)
            raise
        self._saved = saved

    def restore(self):
        if self._saved is not None:
            self._restore(self._saved)
            self._saved = None

    @staticmethod
    def _restore(saved):
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)      # the method was inherited
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- the wrapper ---------------------------------------------------------

    def _wrap(self, probe, fn):
        clock = time.perf_counter
        stack = self._stack
        depth = self._depth
        calls = self.calls
        self_s = self.self_s
        busy_s = self.busy_s
        target, module, group = probe.target, probe.module, probe.group
        observe = probe.observe
        span = probe.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[group] += 1
            if span:
                sid = self._open_span()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                depth[group] -= 1
                if not depth[group]:
                    busy_s[group] += dt
                calls[target] += 1
                self_s[module] += dt - frame[0]
                if span:
                    self._close_span(sid, target, t0, t1)
            if observe is not None:
                observe(self, result, args, kwargs)
            return result

        return wrapper

    # -- spans ---------------------------------------------------------------

    def _open_span(self):
        sid = len(self.spans)
        self.spans.append(None)       # filled in when the span closes
        self._open_spans.append(sid)
        return sid

    def _close_span(self, sid, name, t0, t1):
        self._open_spans.pop()
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans[sid] = (sid, name, t0, t1, parent, self.solves)

    def solve(self, fn, *args):
        """Run fn(*args) as one solve: a root span whose self time is the
        part of the solve that no probe covers."""
        self.solves += 1
        frame = [0.0]
        self._stack.append(frame)
        sid = self._open_span()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.self_s[ROOT_SPAN] += (t1 - t0) - frame[0]
            self.busy_s[ROOT_SPAN] += t1 - t0
            self._close_span(sid, ROOT_SPAN, t0, t1)
            for lk in self.lookups:
                self.counts["lookup.divmask_hits"] += lk.stats.hits
                self.counts["lookup.divmask_misses"] += lk.stats.misses
            self.lookups = []

    def span_durations(self, name):
        return [s[3] - s[2] for s in self.spans if s is not None
                and s[1] == name]
