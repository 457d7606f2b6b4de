"""The three workloads: set-up, one timed pass, output checks and metrics.

Each workload is a closed loop with a single caller: the next call starts
when the previous one returns. A pass is one unit a user would wait for
(one `lr tune`; one sweep of the policy set; one store session), and a run
repeats identical passes until its time is up. lrforge is reached only
through the public calls that `lr tune`, `lr eval`/`lr surface` and
`lr top-k` make, looked up on the module at call time so that the tracer's
wrappers see them.

`run_pass` appends one dict of measurements to `self.measured`;
`finish(n)` checks the outputs of every pass and reduces the first n
passes (the untraced ones) to metrics. `END_TO_END` maps the benchmark's
workload-independent end-to-end names onto each workload's own metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
from time import perf_counter

import inputs

from lrforge import adaptive, cli, optim, problems, schedule, store, trainer


def digest(obj) -> str:
    """sha256 of a JSON rendering; floats keep every digit (repr)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def pct(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]); 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def merged(passes: list[dict]) -> dict:
    """Per-pass measurements combined: numbers summed, lists concatenated."""
    out: dict = {}
    for m in passes:
        for k, v in m.items():
            out[k] = out.get(k, [] if isinstance(v, list) else 0) + v
    out["walls"] = [m["wall"] for m in passes]
    return out


def _canon(policy: dict) -> str:
    return json.dumps(policy, sort_keys=True, separators=(",", ":"))


class Failures:
    """Counts operations that raise; keeps the first message of each kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, str] = {}

    def fail(self, what: str, exc: BaseException):
        self.failed += 1
        self.first.setdefault(what, f"{type(exc).__name__}: {exc}")


class Workload:
    name = ""
    # what an "op" and a "step" are in this workload's best_* rates
    OPS = STEPS = ""

    def __init__(self):
        self.fails = Failures()
        self.measured: list[dict] = []

    @property
    def walls(self) -> list[float]:
        return [m["wall"] for m in self.measured]


def pass_stats(rates: list[tuple]) -> dict:
    """Fastest, median and slowest pass of a run.

    `rates` holds (wall s, ops/s, steps/s) per pass. The `worst_*` values are
    the compared ones: see "Why the slowest pass" in README.md.
    """
    walls, ops, steps = zip(*rates)
    return {"best_wall_s": (min(walls), "s"), "worst_wall_s": (max(walls), "s"),
            "best_ops_per_s": (max(ops), "1/s"), "worst_ops_per_s": (min(ops), "1/s"),
            "median_ops_per_s": (statistics.median(ops), "1/s"),
            "best_steps_per_s": (max(steps), "1/s"), "worst_steps_per_s": (min(steps), "1/s"),
            "median_steps_per_s": (statistics.median(steps), "1/s")}


# --- tune_grid ---


class TuneGrid(Workload):
    """`lr tune` on a generated manifest, fresh out-dir and DB each pass."""

    name = "tune_grid"
    OPS, STEPS = "trials", "optimizer steps run"

    def __init__(self, seed: int, size: str, workdir: str):
        super().__init__()
        self.workdir = workdir
        self.workers = len(os.sched_getaffinity(0))
        self.doc = inputs.tune_manifest(seed, size)
        self.manifest = os.path.join(workdir, "manifest.json")
        with open(self.manifest, "w", encoding="utf-8") as f:
            json.dump(self.doc, f)
        search = self.doc["search"]
        self.trials = (len(search["templates"]) * len(search["lambda_grid"])
                       * search["trials_per_point"])

    def run_pass(self, i: int):
        out = os.path.join(self.workdir, f"pass{i}")
        argv = ["tune", "--manifest", self.manifest, "--workers", str(self.workers),
                "--out-dir", out, "--db", out + ".jsonl"]
        self.fails.attempted += self.trials
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(argv)
        except Exception as e:  # a crash loses every trial of the pass
            code = e
        self.measured.append({"wall": perf_counter() - t0, "out": out})
        if code != 0:
            self.fails.failed += self.trials
            self.fails.first.setdefault(
                "tune", f"lr tune returned {code!r}: {buf.getvalue()[-500:]}")

    def finish(self, n: int) -> dict:
        problems_, digests = [], []
        for m in self.measured:
            try:
                d, m["steps"], m["trial_ms"] = self._check_pass(m.pop("out"), problems_)
            except (OSError, ValueError, KeyError) as e:
                problems_.append(f"pass outputs unreadable: {e}")
                m["steps"], m["trial_ms"] = 0, []
                continue
            digests.append(d)
        shutil.rmtree(self.workdir, ignore_errors=True)
        if any(d != digests[0] for d in digests[1:]):
            problems_.append("passes gave different outputs")
        mm = merged(self.measured[:n])
        total = sum(mm["walls"])
        report = {
            **pass_stats([(m["wall"], self.trials / m["wall"], m["steps"] / m["wall"])
                       for m in self.measured[:n]]),
            "wall_s": (statistics.median(mm["walls"]), "s"),
            "trials_per_s": (self.trials * n / total, "1/s"),
            "train_steps_per_s": (mm["steps"] / total, "1/s"),
            "full_trial_p50_ms": (pct(mm["trial_ms"], 0.5), "ms"),
            "full_trial_p90_ms": (pct(mm["trial_ms"], 0.9), "ms"),
        }
        # latency over the trials that ran the whole budget: they do the same
        # work whatever the seed, unlike the mix of trial lengths
        samples = {"wall_s": n, "full_trial_p50_ms": len(mm["trial_ms"]),
                   "full_trial_p90_ms": len(mm["trial_ms"])}
        return {"report": report, "samples": samples, "problems": problems_,
                "digests": digests[0] if digests else {},
                "meta": {"workers": self.workers, "trials_per_pass": self.trials}}

    def _check_pass(self, out: str, problems_: list):
        with open(os.path.join(out, "leaderboard.csv"), "rb") as f:
            board = f.read()
        with open(os.path.join(out, "tune_result.json"), "rb") as f:
            result_bytes = f.read()
        result = json.loads(result_bytes)
        records = store.PolicyStore(out + ".jsonl").records()
        if len(records) != self.trials:
            problems_.append(f"{out}: {len(records)} records for {self.trials} trials")
        # each stored record must agree with what the tune reported for its cell
        by_cell: dict[tuple, list] = {}
        for r in records:
            by_cell.setdefault((_canon(r.policy), r.lam), []).append(r)
        rows = board.decode().splitlines()[1:]
        if len(rows) != len(result["entries"]):
            problems_.append(f"{out}: leaderboard has {len(rows)} rows for "
                             f"{len(result['entries'])} entries")
        for entry, row in zip(result["entries"], rows):
            cell = by_cell.get((_canon(entry["policy"]), entry["lambda"]), [])
            expect = _aggregate(cell, self.doc["search"]["objective"])
            got = {k: entry[k] for k in expect}
            if got != expect:
                problems_.append(f"{out}: rank {entry['rank']} reports {got}, "
                                 f"its records give {expect}")
            fields = row.split(",")
            if fields[0] != str(entry["rank"]) or fields[-1] != repr(entry["cost_iters"]):
                problems_.append(f"{out}: leaderboard row {fields[0]} disagrees "
                                 f"with tune_result.json")
        steps = sum(r.iterations_run - r.diverged for r in records)
        digests = {"leaderboard.csv": hashlib.sha256(board).hexdigest(),
                   "tune_result.json": hashlib.sha256(result_bytes).hexdigest()}
        budget = self.doc["train"]["budget"]
        full = [1e3 * r.wall_time_sec for r in records
                if r.iterations_run == budget and r.iterations_to_target is None]
        return digests, steps, full


def _aggregate(records: list, objective: str) -> dict:
    """A cell's reported numbers, recomputed from its stored records."""
    ok = [r for r in records if not r.diverged]
    pool = ok or records
    out = {"n_trials": len(records), "n_diverged": len(records) - len(ok),
           "cost_iters": sum(r.iterations_run for r in pool) / len(pool) if pool else None}
    if objective == "min_cost":
        hits = [r.iterations_to_target for r in ok if r.iterations_to_target is not None]
        out["reached_target"] = bool(hits)
        out["metric_mean"] = sum(hits) / len(hits) if hits else None
    return out


# --- schedule_surface ---


class ScheduleSurface(Workload):
    """`lr eval`, point queries, `lr surface` and plateau policies on a policy set."""

    name = "schedule_surface"
    OPS, STEPS = "LR evaluations (points, lr_at, current_lr)", "surface steps"

    def __init__(self, seed: int, size: str, workdir: str):
        super().__init__()
        spec = inputs.policy_set(seed, size)
        self.horizon = spec["horizon"]
        self.iterations = spec["iterations"]
        self.queries = spec["queries"]
        self.closed = [(name, _build(p)) for name, p in spec["closed"]]
        self.plateau = [(name, schedule.policy_from_dict(p), stream)
                        for name, p, stream in spec["plateau"]]
        self.surfaces = [(name, _surface(s), lam) for name, s, lam in spec["surfaces"]]
        self.starts = spec["starts"]
        self.scaled = {name: {s: schedule.Scaled(lam=lam, base=p) for s, _, lam in self.surfaces}
                       for name, p in self.closed}
        self.opt = optim.OptimizerSpec("sgd")
        self.first = None
        self.digests: list[dict] = []

    def run_pass(self, i: int):
        fails = self.fails
        traces, points, lrs, paths = {}, {}, {}, {}
        eval_s, evals, steps, surface_ms = 0.0, 0, 0, []
        t_pass = perf_counter()
        for name, policy in self.closed:
            fails.attempted += 1
            t0 = perf_counter()
            try:
                traces[name] = schedule.sample_trace(policy, self.horizon, 1)
            except Exception as e:
                fails.fail("sample_trace", e)
            values = []
            for t in self.queries[name]:
                fails.attempted += 1
                try:
                    values.append(schedule.lr_at(policy, t))
                except Exception as e:
                    fails.fail("lr_at", e)
            eval_s += perf_counter() - t0
            evals += len(traces.get(name, ())) + len(values)
            points[name] = values
            for sname, surface, _ in self.surfaces:
                fails.attempted += 1
                t0 = perf_counter()
                try:
                    path = trainer.run_surface_trial(surface, self.starts[sname],
                                                     self.scaled[name][sname], self.opt,
                                                     self.iterations)
                except Exception as e:
                    fails.fail("run_surface_trial", e)
                    continue
                surface_ms.append(1e3 * (perf_counter() - t0))
                steps += len(path.iterations) - 1
                paths[f"{name}@{sname}"] = path
        for name, policy, stream in self.plateau:
            t0 = perf_counter()
            lrs[name] = self._drive_plateau(policy, stream)
            eval_s += perf_counter() - t0
            evals += len(lrs[name])
        self.measured.append({"wall": perf_counter() - t_pass, "eval_s": eval_s,
                              "evals": evals, "steps": steps, "surface_ms": surface_ms})
        outputs = {
            "sample_trace": {n: [lr for _, lr in tr] for n, tr in traces.items()},
            "lr_at": points,
            "current_lr": lrs,
            "surface_paths": {n: [[float(x) for x in pt] + [v]
                                  for pt, v in zip(p.points, p.values)] + [p.diverged]
                              for n, p in paths.items()},
        }
        self.digests.append({k: digest(v) for k, v in outputs.items()})
        if self.first is None:
            self.first = (traces, points)

    def _drive_plateau(self, policy, stream) -> list:
        """What a trainer does with a plateau policy: one LR per step, one
        metric observation every PLATEAU_EVAL_EVERY steps."""
        fails = self.fails
        every = inputs.PLATEAU_EVAL_EVERY
        fails.attempted += 1
        try:
            state = adaptive.initial_state(policy)
        except Exception as e:
            fails.fail("initial_state", e)
            return []
        values = []
        for t in range(self.horizon):
            fails.attempted += 1
            try:
                values.append(adaptive.current_lr(state, policy, t))
            except Exception as e:
                fails.fail("current_lr", e)
            if (t + 1) % every == 0:
                fails.attempted += 1
                try:
                    state, _ = adaptive.observe(state, policy, stream[(t + 1) // every - 1],
                                                t=t + 1)
                except Exception as e:
                    fails.fail("observe", e)
        return values

    def finish(self, n: int) -> dict:
        problems_ = []
        traces, points = self.first
        for name, policy in self.closed:
            trace = traces.get(name, [])
            if len(trace) != self.horizon + 1:
                problems_.append(f"{name}: sample_trace returned {len(trace)} points")
            # each sampled point must equal a point query at the same t
            bad = [t for t, lr in trace if schedule.lr_at(policy, t) != lr]
            if bad:
                problems_.append(f"{name}: sample_trace and lr_at disagree at t={bad[0]}")
            by_t = dict(trace)
            if any(by_t.get(t) != v for t, v in zip(self.queries[name], points[name])):
                problems_.append(f"{name}: point queries disagree with sample_trace")
        if any(d != self.digests[0] for d in self.digests[1:]):
            problems_.append("passes gave different outputs")
        mm = merged(self.measured[:n])
        report = {
            **pass_stats([(m["wall"], m["evals"] / m["eval_s"],
                        m["steps"] / (sum(m["surface_ms"]) / 1e3)) for m in self.measured[:n]]),
            "wall_s": (statistics.median(mm["walls"]), "s"),
            "lr_evals_per_s": (mm["evals"] / mm["eval_s"], "1/s"),
            "surface_steps_per_s": (mm["steps"] / (sum(mm["surface_ms"]) / 1e3), "1/s"),
            "surface_trial_p50_ms": (pct(mm["surface_ms"], 0.5), "ms"),
            "surface_trial_p90_ms": (pct(mm["surface_ms"], 0.9), "ms"),
        }
        samples = {"wall_s": n, "surface_trial_p50_ms": len(mm["surface_ms"]),
                   "surface_trial_p90_ms": len(mm["surface_ms"])}
        return {"report": report, "samples": samples, "problems": problems_,
                "digests": self.digests[0],
                "meta": {"closed_policies": len(self.closed),
                         "plateau_policies": len(self.plateau),
                         "horizon": self.horizon, "surface_iterations": self.iterations}}


def _surface(spec: dict):
    if spec["kind"] == "quadratic":
        return problems.Quadratic(a=spec["a"])
    if spec["kind"] == "rosenbrock":
        return problems.Rosenbrock(a=spec["a"], b=spec["b"])
    return problems.MultiBasin(wells=tuple(
        problems.Well(center=tuple(w["center"]), depth=w["depth"], width=w["width"])
        for w in spec["wells"]))


def _build(spec: dict):
    if "nested_lambda" in spec:
        return schedule.Scaled(lam=spec["nested_lambda"],
                               base=schedule.policy_from_dict(spec["policy"]))
    return schedule.policy_from_dict(spec)


# --- store_history ---


class StoreHistory(Workload):
    """A stored history opened, then appended to, re-appended to and queried."""

    name = "store_history"
    OPS, STEPS = "store calls (open, append, re-append, top-k)", "new appends"

    def __init__(self, seed: int, size: str, workdir: str):
        super().__init__()
        spec = inputs.record_set(seed, size)
        self.workdir = workdir
        self.pristine = os.path.join(workdir, "history.jsonl")
        self.initial = [store.TrialRecord(**r) for r in spec["initial"]]
        db = store.PolicyStore(self.pristine)
        for r in self.initial:
            db.append(r)
        self.ops = [(kind, store.TrialRecord(**p) if kind == "append" else p)
                    for kind, p in spec["ops"]]
        self.answers: list[list] = []
        self.sizes: list[int] = []

    def run_pass(self, i: int):
        fails = self.fails
        path = os.path.join(self.workdir, "session.jsonl")
        shutil.copyfile(self.pristine, path)
        m = {"append_us": [], "reappend_us": [], "topk_ms": [], "load_s": []}
        answers = []
        t_pass = perf_counter()
        fails.attempted += 1
        try:
            db = store.PolicyStore(path)
        except Exception as e:
            fails.fail("open", e)
            db = None
        m["load_s"].append(perf_counter() - t_pass)
        for kind, payload in self.ops if db is not None else ():
            fails.attempted += 1
            if kind == "top_k":
                task, k, objective = payload
                t0 = perf_counter()
                try:
                    got = db.query_top_k(task, k, objective=objective)
                except Exception as e:
                    fails.fail("query_top_k", e)
                    continue
                m["topk_ms"].append(1e3 * (perf_counter() - t0))
                answers.append([_identity(r) for r in got])
                continue
            record = payload if kind == "append" else self.initial[payload]
            t0 = perf_counter()
            try:
                db.append(record)
            except Exception as e:  # StoreConflict included
                fails.fail(kind, e)
                continue
            m[f"{kind}_us"].append(1e6 * (perf_counter() - t0))
        m["wall"] = perf_counter() - t_pass
        self.measured.append(m)
        self.answers.append(answers)
        self.sizes.append(len(db) if db is not None else 0)

    def finish(self, n: int) -> dict:
        problems_ = []
        # each top-k answer must equal a brute-force sort of the records
        # loaded so far, replayed in operation order
        mirror = list(self.initial)
        expected = []
        for kind, payload in self.ops:
            if kind == "append":
                mirror.append(payload)
            elif kind == "top_k":
                task, k, objective = payload
                ranked = sorted((r for r in mirror if r.task == task),
                                key=lambda r: _rank_key(r, objective))
                expected.append([_identity(r) for r in ranked[:k]])
        if any(answers != expected for answers in self.answers):
            problems_.append("top-k answers differ from a brute-force sort")
        if any(size != len(mirror) for size in self.sizes):
            problems_.append(f"store holds {sorted(set(self.sizes))} records, "
                             f"expected {len(mirror)}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        mm = merged(self.measured[:n])
        report = {
            **pass_stats([(m["wall"], _calls(m) / _busy(m),
                        len(m["append_us"]) / (sum(m["append_us"]) / 1e6))
                       for m in self.measured[:n]]),
            "wall_s": (statistics.median(mm["walls"]), "s"),
            "store_load_s": (statistics.median(mm["load_s"]), "s"),
            "append_p50_us": (pct(mm["append_us"], 0.5), "us"),
            "append_p90_us": (pct(mm["append_us"], 0.9), "us"),
            "reappend_p50_us": (pct(mm["reappend_us"], 0.5), "us"),
            "topk_p50_ms": (pct(mm["topk_ms"], 0.5), "ms"),
            "topk_p90_ms": (pct(mm["topk_ms"], 0.9), "ms"),
            "store_ops_per_s": (_calls(mm) / _busy(mm), "1/s"),
            "appends_per_s": (len(mm["append_us"]) / (sum(mm["append_us"]) / 1e6), "1/s"),
        }
        samples = {"wall_s": n, "store_load_s": len(mm["load_s"]),
                   "append_p50_us": len(mm["append_us"]), "append_p90_us": len(mm["append_us"]),
                   "reappend_p50_us": len(mm["reappend_us"]),
                   "topk_p50_ms": len(mm["topk_ms"]), "topk_p90_ms": len(mm["topk_ms"])}
        return {"report": report, "samples": samples, "problems": problems_,
                "digests": {"top_k": digest(self.answers[0])},
                "meta": {"records": len(self.initial), "ops_per_pass": len(self.ops)}}


def _calls(m: dict) -> int:
    return len(m["load_s"]) + len(m["append_us"]) + len(m["reappend_us"]) + len(m["topk_ms"])


def _busy(m: dict) -> float:
    """Seconds spent inside store calls."""
    return (sum(m["load_s"]) + sum(m["append_us"] + m["reappend_us"]) / 1e6
            + sum(m["topk_ms"]) / 1e3)


def _identity(r) -> list:
    return [r.task, _canon(r.policy), r.lam, r.seed]


def _rank_key(r, objective: str) -> tuple:
    """Best first: not diverged, then the objective, then cost and identity."""
    cost = r.iterations_to_target if r.iterations_to_target is not None else r.iterations_run
    tie = (cost, _canon(r.policy), r.lam, r.seed)
    if objective == "max_accuracy":
        return (r.diverged, -r.final_accuracy) + tie
    missed = r.diverged or r.iterations_to_target is None
    return (missed, 0 if missed else r.iterations_to_target) + tie


WORKLOADS = {w.name: w for w in (TuneGrid, ScheduleSurface, StoreHistory)}
