"""Span tracing around lrforge's layer boundaries, installed from outside.

`Tracer.install()` replaces module (and class) attributes that one layer
calls across with wrappers that push a span on a thread-local stack. A span
knows its parent, so self time is its duration minus its children's; the
tuner's pool threads keep their own stacks, so their spans nest correctly.
Wrapping a module global also catches calls the module makes to itself
(`lr_at` -> `validate`), which is why nested validations show as children.

Nothing inside lrforge changes. End-to-end numbers never come from a traced
pass: the wrappers cost about a microsecond per call.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import threading
from time import perf_counter

# (module, attribute, span name). Several bindings of one function share a
# span name: `adaptive` calls `lr_at` through its own import of it.
SPANS = (
    ("lrforge.cli", "cmd_tune", "cli.tune"),
    ("lrforge.cli", "_write_json", "cli.artifacts"),
    ("lrforge.tuner", "write_leaderboard_csv", "cli.artifacts"),
    ("lrforge.tuner", "grid_search", "tuner.search"),
    ("lrforge.tuner", "run_trial", "trainer.run_trial"),
    ("lrforge.trainer", "run_surface_trial", "trainer.run_surface_trial"),
    ("lrforge.trainer", "forward_loss_grad", "model.forward_loss_grad"),
    ("lrforge.trainer", "accuracy_on", "model.accuracy_on"),
    ("lrforge.trainer", "surface_value_grad", "problems.surface_value_grad"),
    ("lrforge.problems", "gen_moons", "problems.gen_moons"),
    ("lrforge.optim", "step", "optim.step"),
    ("lrforge.schedule", "lr_at", "schedule.lr_at"),
    ("lrforge.adaptive", "lr_at", "schedule.lr_at"),
    ("lrforge.schedule", "validate", "schedule.validate"),
    ("lrforge.adaptive", "validate_policy", "schedule.validate"),
    ("lrforge.schedule", "sample_trace", "schedule.sample_trace"),
    ("lrforge.adaptive", "observe", "adaptive.observe"),
    ("lrforge.adaptive", "current_lr", "adaptive.current_lr"),
    ("lrforge.store", "PolicyStore.__init__", "store.load"),
    ("lrforge.store", "PolicyStore.append", "store.append"),
    ("lrforge.store", "PolicyStore.query_top_k", "store.query_top_k"),
)

# spans whose (start, end) intervals are kept, for concurrency and unions
INTERVALS = ("trainer.run_trial", "tuner.search")


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Per-name call counts, total and self time, plus hook counters."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[dict] = []
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    def _state(self) -> dict:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = {"stack": [], "spans": {}, "counts": {}, "intervals": []}
            with self._lock:
                self._threads.append(st)
        return st

    def count(self, name: str, n: float = 1):
        counts = self._state()["counts"]
        counts[name] = counts.get(name, 0) + n

    def _wrap(self, fn, name: str, before=None, after=None):
        tracer = self
        keep = name in INTERVALS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st["stack"]
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            token = before(args) if before else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                # [calls, top-level calls, total s, top-level total s, self s]
                s = st["spans"].get(name)
                if s is None:
                    s = st["spans"][name] = [0, 0, 0.0, 0.0, 0.0]
                top = parent is None or parent[0] != name
                s[0] += 1
                s[2] += dur
                s[4] += dur - frame[1]
                if top:
                    s[1] += 1
                    s[3] += dur
                if keep:
                    st["intervals"].append((name, t0, t1))
            if after:
                after(args, result, token)
            return result

        return wrapper

    def _lookup(self, module: str, attr: str):
        """(owner, name, original) for `module.attr`, or None if it is gone."""
        try:
            owner, key = _resolve(module, attr)
            original = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module}.{attr}")
            return None
        return owner, key, original

    def _replace(self, found, wrapper):
        owner, key, original = found
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def patch(self, module: str, attr: str, name: str, before=None, after=None):
        found = self._lookup(module, attr)
        if found:
            self._replace(found, self._wrap(found[2], name, before, after))

    def counter(self, module: str, attr: str, name: str):
        """Count calls without a span (cheap, and invisible to self times)."""
        found = self._lookup(module, attr)
        if not found:
            return
        original = found[2]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return original(*args, **kwargs)

        self._replace(found, wrapper)

    def install(self):
        """Wrap every layer boundary in SPANS, with the hooks the metrics need."""
        hooks = {
            "trainer.run_trial": dict(after=self._after_trial),
            "trainer.run_surface_trial": dict(after=self._after_surface),
            "schedule.sample_trace": dict(after=lambda a, r, t: self.count("sample_trace.points", len(r))),
            "store.load": dict(after=self._after_load),
            "store.append": dict(before=lambda a: len(a[0]), after=self._after_append),
            "store.query_top_k": dict(after=lambda a, r, t: self.count("top_k.results", len(r))),
        }
        for module, attr, name in SPANS:
            self.patch(module, attr, name, **hooks.get(name, {}))
        # the ranking key calls cost() once per candidate record
        self.counter("lrforge.store", "TrialRecord.cost", "top_k.ranked")
        if self.missing:
            print(f"tracer: not found, left untraced: {', '.join(self.missing)}",
                  file=sys.stderr)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # --- hooks ---

    def _after_trial(self, args, trace, token):
        self.count("trainer.trials")
        self.count("trainer.steps", trace.outcome.iterations_run - trace.outcome.diverged)
        self.count("trainer.diverged", trace.outcome.diverged)

    def _after_surface(self, args, path, token):
        self.count("surface.steps", len(path.iterations) - 1)

    def _after_load(self, args, result, token):
        store = args[0]
        self.count("store.records_loaded", len(store))
        self._state().setdefault("sizes", {})[id(store)] = _size(store.path)

    def _after_append(self, args, result, len_before):
        store = args[0]
        if len(store) > len_before:
            self.count("store.written")
            sizes = self._state().setdefault("sizes", {})
            size = _size(store.path)
            self.count("store.bytes_written", size - sizes.get(id(store), 0))
            sizes[id(store)] = size

    # --- results ---

    def snapshot(self) -> dict:
        """Merged spans, counters and intervals over all threads so far."""
        spans, counts, intervals = {}, {}, []
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for name, s in st["spans"].items():
                acc = spans.setdefault(name, [0, 0, 0.0, 0.0, 0.0])
                for i, v in enumerate(s):
                    acc[i] += v
            for name, v in st["counts"].items():
                counts[name] = counts.get(name, 0) + v
            intervals.extend(st["intervals"])
        return {"spans": spans, "counts": counts, "intervals": sorted(intervals, key=lambda x: x[1])}


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _union(intervals) -> float:
    total, end = 0.0, None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


# Per-layer metrics: name -> unit. Counts are per pass, so they repeat exactly.
PER_LAYER = {
    "schedule.validate.calls": "count",
    "schedule.validate.self_us": "us",
    "schedule.lr_at.calls": "count",
    "schedule.lr_at.self_us": "us",
    "schedule.sample_trace.us_per_pt": "us",
    "adaptive.observe.calls": "count",
    "adaptive.observe.self_us": "us",
    "adaptive.current_lr.calls": "count",
    "adaptive.current_lr.self_us": "us",
    "model.forward_loss_grad.calls": "count",
    "model.forward_loss_grad.self_us": "us",
    "model.accuracy_on.calls": "count",
    "model.accuracy_on.self_us": "us",
    "optim.step.calls": "count",
    "optim.step.self_us": "us",
    "problems.surface_value_grad.calls": "count",
    "problems.surface_value_grad.self_us": "us",
    "problems.gen_moons.s": "s",
    "trainer.run_trial.calls": "count",
    "trainer.steps": "count",
    "trainer.run_trial.self_us_per_step": "us",
    "trainer.run_surface_trial.self_us_per_step": "us",
    "trainer.diverged_frac": "ratio",
    "tuner.search.s": "s",
    "tuner.trial_s_p50": "s",
    "tuner.concurrency": "ratio",
    "tuner.self_s": "s",
    "store.load.us_per_record": "us",
    "store.append.calls": "count",
    "store.append.written": "count",
    "store.append.written_frac": "ratio",
    "store.append.self_us": "us",
    "store.bytes_written": "bytes",
    "store.query_top_k.self_ms": "ms",
    "store.query_top_k.scanned_per_result": "ratio",
    "cli.import_s": "s",
    "cli.artifacts_s": "s",
    "cli.tune.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}

# the counts that must repeat exactly between two traced runs
EXACT = tuple(n for n, u in PER_LAYER.items() if u in ("count", "bytes"))


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(snap: dict, passes: int) -> dict:
    """Reduce a snapshot of `passes` identical traced passes to PER_LAYER values.

    cli.import_s and the trace.* values come from the worker, not the spans.
    """
    spans, counts = snap["spans"], snap["counts"]

    def calls(name, top=False):
        return spans.get(name, [0] * 5)[1 if top else 0]

    def self_s(name):
        return spans.get(name, [0, 0, 0.0, 0.0, 0.0])[4]

    def total_s(name, top=False):
        return spans.get(name, [0, 0, 0.0, 0.0, 0.0])[3 if top else 2]

    def per_pass(v):
        q, r = divmod(v, passes)
        return q if not r else v / passes

    trial_iv = [(t0, t1) for n, t0, t1 in snap["intervals"] if n == "trainer.run_trial"]
    trials = [t1 - t0 for t0, t1 in trial_iv]
    search_s = sum(t1 - t0 for n, t0, t1 in snap["intervals"] if n == "tuner.search")
    steps = counts.get("trainer.steps", 0)
    surface_steps = counts.get("surface.steps", 0)
    appends = calls("store.append")
    out = {
        "schedule.validate.calls": per_pass(calls("schedule.validate", top=True)),
        # inclusive of nested validations: the cost of validating one policy
        "schedule.validate.self_us": 1e6 * _div(total_s("schedule.validate", top=True),
                                                calls("schedule.validate", top=True)),
        "schedule.lr_at.calls": per_pass(calls("schedule.lr_at")),
        "schedule.lr_at.self_us": 1e6 * _div(self_s("schedule.lr_at"), calls("schedule.lr_at")),
        "schedule.sample_trace.us_per_pt": 1e6 * _div(total_s("schedule.sample_trace"),
                                                      counts.get("sample_trace.points", 0)),
        "adaptive.observe.calls": per_pass(calls("adaptive.observe")),
        "adaptive.observe.self_us": 1e6 * _div(self_s("adaptive.observe"),
                                               calls("adaptive.observe")),
        "adaptive.current_lr.calls": per_pass(calls("adaptive.current_lr")),
        "adaptive.current_lr.self_us": 1e6 * _div(self_s("adaptive.current_lr"),
                                                  calls("adaptive.current_lr")),
        "model.forward_loss_grad.calls": per_pass(calls("model.forward_loss_grad")),
        "model.forward_loss_grad.self_us": 1e6 * _div(self_s("model.forward_loss_grad"),
                                                      calls("model.forward_loss_grad")),
        "model.accuracy_on.calls": per_pass(calls("model.accuracy_on")),
        "model.accuracy_on.self_us": 1e6 * _div(self_s("model.accuracy_on"),
                                                calls("model.accuracy_on")),
        "optim.step.calls": per_pass(calls("optim.step")),
        "optim.step.self_us": 1e6 * _div(self_s("optim.step"), calls("optim.step")),
        "problems.surface_value_grad.calls": per_pass(calls("problems.surface_value_grad")),
        "problems.surface_value_grad.self_us": 1e6 * _div(
            self_s("problems.surface_value_grad"), calls("problems.surface_value_grad")),
        "problems.gen_moons.s": total_s("problems.gen_moons") / passes,
        "trainer.run_trial.calls": per_pass(calls("trainer.run_trial")),
        "trainer.steps": per_pass(steps),
        "trainer.run_trial.self_us_per_step": 1e6 * _div(self_s("trainer.run_trial"), steps),
        "trainer.run_surface_trial.self_us_per_step": 1e6 * _div(
            self_s("trainer.run_surface_trial"), surface_steps),
        "trainer.diverged_frac": _div(counts.get("trainer.diverged", 0),
                                      counts.get("trainer.trials", 0)),
        "tuner.search.s": search_s / passes,
        "tuner.trial_s_p50": statistics.median(trials) if trials else 0.0,
        "tuner.concurrency": _div(sum(trials), search_s),
        "tuner.self_s": (search_s - _union(trial_iv)) / passes,
        "store.load.us_per_record": 1e6 * _div(total_s("store.load"),
                                               counts.get("store.records_loaded", 0)),
        "store.append.calls": per_pass(appends),
        "store.append.written": per_pass(counts.get("store.written", 0)),
        "store.append.written_frac": _div(counts.get("store.written", 0), appends),
        "store.append.self_us": 1e6 * _div(self_s("store.append"), appends),
        "store.bytes_written": per_pass(counts.get("store.bytes_written", 0)),
        "store.query_top_k.self_ms": 1e3 * _div(self_s("store.query_top_k"),
                                                calls("store.query_top_k")),
        "store.query_top_k.scanned_per_result": _div(counts.get("top_k.ranked", 0),
                                                     counts.get("top_k.results", 0)),
        "cli.artifacts_s": total_s("cli.artifacts") / passes,
        "cli.tune.self_s": self_s("cli.tune") / passes,
    }
    return out
