"""In-memory span tracer for the benchmark's traced run.

Spans are recorded only by wrappers that live in this benchmark: a wrapper
replaces a public function at the place its caller looks it up at call
time (a module attribute, or a hook attribute on a strategy instance the
benchmark built), so nothing under ``src/`` is edited.  Each span carries
a name, start and end (``perf_counter_ns``), its parent span, the phase it
ran in and, when written out, the run id.  Spans stay in memory until
``dump`` writes them as gzipped JSON lines.

A span's layer is the first dotted component of its name (``linalg``,
``nonces``, ``protocol``, ``adversary``, ``analysis``, ``cli``; ``bench``
marks the benchmark's own operation spans).
"""
from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("linalg", "nonces", "protocol", "adversary", "analysis", "cli")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = "setup"
        # (span id, parent id, name, start ns, end ns, phase); parent 0 is the root.
        self.spans: list[tuple] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._next_id = 1
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, t0: int) -> None:
        t1 = perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, parent, name, t0, t1, self.phase))

    @contextmanager
    def span(self, name: str):
        sid, parent = self._open()
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, parent, name, t0)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.phase][name] += n

    def wrap(self, fn, name, after=None):
        """Wrap ``fn`` in a span.  ``name`` is a string or a function of the
        call's arguments; ``after(result)`` may return a suffix appended to
        the name once the call has returned."""
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            sid, parent = self._open()
            t0 = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if after is not None:
                    label = label + after(result)
                self._close(sid, parent, label, t0)
        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name, after=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until ``unpatch_all``."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, self.wrap(original, name, after))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ----------------------------------------------------------

    def durations_s(self, phase: str) -> dict[str, list[float]]:
        """Durations in seconds of the spans of ``phase``, grouped by name."""
        out: dict[str, list[float]] = defaultdict(list)
        for _, _, name, t0, t1, ph in self.spans:
            if ph == phase:
                out[name].append((t1 - t0) / 1e9)
        return out

    def self_times_s(self, phase: str) -> tuple[dict[str, float], dict[str, list[float]]]:
        """Self time per layer, and per-span self time grouped by name.

        A span's self time is its duration minus the durations of its
        direct children; spans nest strictly because the run is
        single-threaded.
        """
        child = defaultdict(int)
        for _, parent, _, t0, t1, ph in self.spans:
            if ph == phase and parent:
                child[parent] += t1 - t0
        per_layer = {layer: 0.0 for layer in LAYERS}
        per_name: dict[str, list[float]] = defaultdict(list)
        for sid, _, name, t0, t1, ph in self.spans:
            if ph != phase:
                continue
            own = (t1 - t0 - child.get(sid, 0)) / 1e9
            layer = name.split(".", 1)[0]
            if layer in per_layer:
                per_layer[layer] += own
            per_name[name].append(own)
        return per_layer, per_name

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for sid, parent, name, t0, t1, ph in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "parent": parent, "name": name,
                    "start_ns": t0, "end_ns": t1, "phase": ph,
                }) + "\n")
            for ph, counts in self.counts.items():
                fh.write(json.dumps({"run": self.run_id, "phase": ph,
                                     "counts": dict(counts)}) + "\n")


def strategy_key(strategy) -> str:
    return str(getattr(strategy, "name", type(strategy).__name__)).split(":", 1)[0]


def trace_strategies(tracer: Tracer, strategies) -> None:
    """Wrap the hooks of strategy instances the benchmark built."""
    def count_branches(result):
        tracer.count("protocol.exact_branches", len(result))
        return ""

    for strat in strategies:
        key = strategy_key(strat)
        tracer.patch(strat, "intercept", "adversary.intercept." + key)
        tracer.patch(strat, "nonce_announced", "adversary.nonce_announced." + key)
        tracer.patch(strat, "exact_branches", "adversary.exact_branches." + key, after=count_branches)
