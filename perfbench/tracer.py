"""Per-layer tracing of hypergeo from outside the package.

The tracer replaces module attributes of ``hypergeo.*`` with timing
wrappers while a traced pass runs, and puts the originals back after.
Callers inside the package look those attributes up at call time, so a
wrapper sees every call; the package source is never edited.

A span is one wrapped call.  Its self time is its duration minus the time
its child spans cover.  Shard functions run on the worker threads of
``sampling.mc_run``; their spans are children of that ``mc_run`` span and
may overlap, so ``mc_run`` subtracts the union of their intervals.  Shard
functions are attributed by their ``__module__`` rather than hooked by
name, so moving the shard loop between modules keeps it measured.

A hooked name that a refactor removed is listed in ``absent`` and its
metrics read 0; nothing here gates a run.
"""

import functools
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

from hypergeo import algebra, bessel, experiments, hyper_bc, sampling, weyl

CELLS = ["%s%d" % (f, q) for f in "rch" for q in (1, 2, 4)]
SHARD_LAYERS = ["sampling.haar", "sampling.ball_rows", "sampling.p_map",
                "algebra.build_g", "algebra.log_minors"]

# (module, attribute, layer).  Public entry points are spans too, so the
# share of a pass that no span covers is the benchmark's own overhead.
SPANS = [
    (hyper_bc, "eval_phi_bc", "hyper_bc.eval_phi_bc"),
    (experiments, "boundedness_sweep", "experiments.boundedness_sweep"),
    (bessel, "bessel_phi_tilde", "bessel.bessel_phi_tilde"),
    (sampling, "_haar_batch", "sampling.haar"),
    (sampling, "_ball_rows", "sampling.ball_rows"),
    (sampling, "_p_map_batch", "sampling.p_map"),
    (algebra, "_build_g_embedded", "algebra.build_g"),
    (algebra, "_log_minors_embedded", "algebra.log_minors"),
    (bessel, "bessel_series", "bessel.series"),
    (bessel, "jack_C", "bessel.jack_C"),
    (bessel, "_jack_tables", "bessel.jack_tables"),
    (bessel, "_monomial", "bessel.monomial"),
    (bessel, "gen_pochhammer", "bessel.pochhammer"),
    (weyl, "hull_membership", "weyl.hull_membership"),
]


def per_layer_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer in SHARD_LAYERS:
        for cell in [None] + CELLS:
            name = layer + ".ms_per_shard" + ("." + cell if cell else "")
            out.append((name, "ms", "lower"))
    out += [
        ("algebra.log_minors.min_log_pivot", "ln", "higher"),
        ("hyper_bc.shard.self_ms_per_shard", "ms", "lower"),
        ("experiments.shard.self_ms_per_shard", "ms", "lower"),
        ("bessel.shard.self_ms_per_shard", "ms", "lower"),
        ("sampling.mc_run.shards", "count", "lower"),
        ("sampling.mc_run.self_ms", "ms", "lower"),
        ("sampling.mc_run.parallel_eff", "ratio", "higher"),
        ("sampling.stream_reuse", "ratio", "lower"),
        ("bessel.monomial.self_ms", "ms", "lower"),
        ("bessel.monomial.calls", "count", "lower"),
        ("bessel.jack_C.self_ms", "ms", "lower"),
        ("bessel.jack_C.calls", "count", "lower"),
        ("bessel.jack_tables.self_ms", "ms", "lower"),
        ("bessel.jack_tables.misses", "count", "lower"),
        ("bessel.pochhammer.self_ms", "ms", "lower"),
        ("bessel.series.self_ms", "ms", "lower"),
        ("bessel.series.degree_mean", "degree", "lower"),
        ("weyl.hull_membership.calls", "count", "lower"),
        ("weyl.hull_membership.self_ms", "ms", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
        ("trace.uncovered_share", "ratio", "lower"),
    ]
    return out


def _union(intervals):
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


class Tracer:
    """Spans and exact counters over the passes run while installed."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._restore = []
        self.absent = []
        self.cell = None
        self.passes = 0
        self.pass_s = 0.0
        self.covered_s = 0.0
        # (layer, cell) -> [calls, total seconds, self seconds]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.shard_busy_s = 0.0
        self.mc_capacity_s = 0.0
        self.streams_seen = set()
        self.streams = [0, 0]  # requested, already requested this pass
        self.degrees = []
        self.min_log_pivot = None
        self._jack_tables = None  # the cached original, for cache_info()

    # -- installing -----------------------------------------------------

    def _patch(self, module, attr, make):
        orig = getattr(module, attr, None)
        if orig is None:
            self.absent.append("%s.%s" % (module.__name__, attr))
            return
        setattr(module, attr, make(orig))
        self._restore.append((module, attr, orig))

    def install(self):
        self._jack_tables = getattr(bessel, "_jack_tables", None)
        for module, attr, layer in SPANS:
            self._patch(module, attr,
                        lambda fn, layer=layer: self._span_wrapper(fn, layer))
        self._patch(sampling, "mc_run", self._mc_run_wrapper)
        self._patch(sampling, "shard_stream", self._stream_wrapper)

    def uninstall(self):
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore = []

    # -- spans ----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run_span(self, layer, fn, args, kwargs, cover=None):
        """Call fn inside a span; return (result, start, end).

        Self time subtracts what child spans on this thread cover, or the
        union of the intervals in ``cover`` when children run elsewhere.
        """
        stack = self._stack()
        frame = [0.0]  # seconds covered by children on this thread
        stack.append(frame)
        cell = self.cell
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][0] += dur
            elif threading.get_ident() == self._main:
                self.covered_s += dur
            child = frame[0] if cover is None else _union(cover)
            with self._lock:
                rec = self.spans[(layer, cell)]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child
        return out, t0, t1

    def _span_wrapper(self, fn, layer):
        sets_cell = layer == "hyper_bc.eval_phi_bc"
        after = {"algebra.log_minors": self._note_logs,
                 "bessel.series": self._note_series}.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sets_cell and len(args) >= 4:  # (field, p, lam, t, ...)
                self.cell = "%s%d" % (str(args[0])[0].lower(),
                                      np.size(args[3]))
            try:
                out = self._run_span(layer, fn, args, kwargs)[0]
            finally:
                if sets_cell:
                    self.cell = None
            if after is not None:
                after(out)
            return out
        return traced

    def _note_logs(self, logs):
        """Track the smallest log pivot, read from the returned log-minors."""
        dlog = np.diff(logs, axis=-1, prepend=0.0)
        if dlog.size:
            low = float(dlog.min())
            with self._lock:
                if self.min_log_pivot is None or low < self.min_log_pivot:
                    self.min_log_pivot = low

    def _note_series(self, res):
        with self._lock:
            self.degrees.append(res.truncation_degree)

    def _mc_run_wrapper(self, orig):
        sig = inspect.signature(orig)

        @functools.wraps(orig)
        def traced(shard_fn, *args, **kwargs):
            bound = sig.bind(shard_fn, *args, **kwargs)
            bound.apply_defaults()
            workers = bound.arguments.get("workers", 1)
            layer = shard_fn.__module__.rsplit(".", 1)[-1] + ".shard"
            intervals = []

            def shard(*a, **k):
                out, t0, t1 = self._run_span(layer, shard_fn, a, k)
                with self._lock:
                    intervals.append((t0, t1))
                return out

            out, t0, t1 = self._run_span("sampling.mc_run", orig,
                                         (shard,) + args, kwargs,
                                         cover=intervals)
            with self._lock:
                self.shard_busy_s += sum(b - a for a, b in intervals)
                self.mc_capacity_s += workers * (t1 - t0)
            return out
        return traced

    def _stream_wrapper(self, orig):
        @functools.wraps(orig)
        def traced(seed, shard, role):
            key = (seed, shard, role)
            with self._lock:
                self.streams[0] += 1
                if key in self.streams_seen:
                    self.streams[1] += 1
                else:
                    self.streams_seen.add(key)
            return orig(seed, shard, role)
        return traced

    # -- passes and metrics ---------------------------------------------

    def run_pass(self, run):
        """Run one pass under the tracer; streams are counted per pass."""
        self.streams_seen = set()
        t0 = time.perf_counter()
        out = run()
        self.pass_s += time.perf_counter() - t0
        self.passes += 1
        return out

    def _total(self, layer, field, cell=None):
        """Sum of calls (field 0), seconds (1) or self seconds (2)."""
        return sum(rec[field] for (l, c), rec in self.spans.items()
                   if l == layer and (cell is None or c == cell))

    def _shards(self, cell=None):
        return sum(rec[0] for (l, c), rec in self.spans.items()
                   if l.endswith(".shard") and (cell is None or c == cell))

    def metrics(self, untraced_pass_s, traced_pass_s):
        """Per-layer metric values, per traced pass where they are totals."""
        n = max(self.passes, 1)
        vals = {}
        for layer in SHARD_LAYERS:
            for cell in [None] + CELLS:
                shards = self._shards(cell)
                name = layer + ".ms_per_shard" + ("." + cell if cell else "")
                vals[name] = (1e3 * self._total(layer, 1, cell) / shards
                              if shards else 0.0)
        vals["algebra.log_minors.min_log_pivot"] = self.min_log_pivot or 0.0
        for m in ("hyper_bc", "experiments", "bessel"):
            layer = m + ".shard"
            shards = self._total(layer, 0)
            vals[layer + ".self_ms_per_shard"] = (
                1e3 * self._total(layer, 2) / shards if shards else 0.0)
        vals["sampling.mc_run.shards"] = self._shards() / n
        vals["sampling.mc_run.self_ms"] = (
            1e3 * self._total("sampling.mc_run", 2) / n)
        vals["sampling.mc_run.parallel_eff"] = (
            self.shard_busy_s / self.mc_capacity_s if self.mc_capacity_s
            else 0.0)
        vals["sampling.stream_reuse"] = (
            self.streams[1] / self.streams[0] if self.streams[0] else 0.0)
        for layer in ("bessel.monomial", "bessel.jack_C", "bessel.jack_tables",
                      "bessel.pochhammer", "bessel.series",
                      "weyl.hull_membership"):
            vals[layer + ".self_ms"] = 1e3 * self._total(layer, 2) / n
        for layer in ("bessel.monomial", "bessel.jack_C",
                      "weyl.hull_membership"):
            vals[layer + ".calls"] = self._total(layer, 0) / n
        info = getattr(self._jack_tables, "cache_info", None)
        vals["bessel.jack_tables.misses"] = info().misses if info else 0
        vals["bessel.series.degree_mean"] = (
            float(np.mean(self.degrees)) if self.degrees else 0.0)
        vals["trace.overhead_s"] = traced_pass_s - untraced_pass_s
        vals["trace.overhead_share"] = (
            (traced_pass_s - untraced_pass_s) / untraced_pass_s)
        vals["trace.uncovered_share"] = 1.0 - self.covered_s / self.pass_s
        return vals
