"""Seeded input generation for the three workloads.

Everything here is plain Python driven by `random.Random(seed)`, so the same
seed gives the same manifest, policy set, record set and metric stream on
any numpy version. Nothing in this module imports lrforge: lrforge only ever
receives what these functions return.

The seed varies parameter values, λs and orders, never the shape of a
workload (family counts, grid size, operation mix), so the amount of work in
a pass barely moves from seed to seed.
"""

from __future__ import annotations

import random

# λ grid of `tune_grid`: the small end runs the full budget, the middle stops
# at the target, 1e5 diverges within ~40 steps.
TUNE_LAMBDAS = {"full": (1e-3, 0.1, 1.0, 1e5), "tiny": (1e-3, 1.0, 1e5)}
TUNE_BUDGET = {"full": 1000, "tiny": 200}


# --- tune_grid ---


def tune_manifest(seed: int, size: str = "full") -> dict:
    """An `lr tune` manifest: moons, MLP(2->16->2), SGD, min_cost at 0.95.

    The seed draws the λ of the cells that run the whole budget (around
    1e-3) and of those that diverge (around 1e5), and the template order.
    The task (the shipped manifests' moons(seed=5)), the training seed and
    the cells that stop at the target stay fixed: where those cells stop
    moved a pass's total steps by up to 15% between seeds.
    """
    rng = random.Random(f"tune_grid/{seed}")
    budget = TUNE_BUDGET[size]
    templates = [
        {"family": "FIX", "params": {"k": 1.0}},
        {"family": "TRI2", "params": {"k0": 1.0, "k1": 6.0, "l": 250}},
        {"family": "EXP", "params": {"k": 1.0, "gamma": 0.999}},
        {"family": "WARMUP", "params": {
            "w": 0.1, "inner": {"family": "COSINE", "params": {"k": 2.0, "t_max": budget}}}},
        {"family": "MULTI", "params": {"segments": [
            {"start": 0, "end": budget * 3 // 10,
             "policy": {"family": "FIX", "params": {"k": 1.0}, "lambda": 2.0}},
            {"start": budget * 3 // 10, "end": budget * 7 // 10,
             "policy": {"family": "TRI", "params": {"k0": 1.0, "k1": 3.0, "l": budget // 10},
                        "lambda": 1.0}},
            {"start": budget * 7 // 10, "end": budget + 1,
             "policy": {"family": "EXP", "params": {"k": 1.0, "gamma": 0.995},
                        "lambda": 0.5}}]}},
    ]
    rng.shuffle(templates)
    low, *middle, high = TUNE_LAMBDAS[size]
    lambdas = [low * 10 ** rng.uniform(-0.2, 0.2), *middle, high * 10 ** rng.uniform(-0.2, 0.2)]
    return {
        "dataset": {"kind": "moons", "seed": 5, "n": 800, "noise": 0.2},
        "model": {"kind": "mlp", "hidden": 16},
        "optimizer": {"kind": "sgd"},
        "train": {"batch_size": 32, "budget": budget, "eval_every": 100,
                  "target_accuracy": 0.95, "seed": 0},
        "search": {"templates": templates, "lambda_grid": lambdas,
                   "trials_per_point": 2, "objective": "min_cost"},
    }


# --- schedule_surface ---

SURFACE_HORIZON = {"full": 1000, "tiny": 60}
SURFACE_ITERS = {"full": 100, "tiny": 20}
SURFACE_QUERIES = {"full": 400, "tiny": 10}
SURFACE_COPIES = {"full": 2, "tiny": 1}
PLATEAU_EVAL_EVERY = 10

# per-surface multiplier applied to every policy (as a "lambda"), so that no
# policy in the set can leave the surface's stable step size: all generated
# amplitudes are at most 1.
SURFACES = (
    ("quadratic", {"kind": "quadratic", "a": [[1.0, 0.3], [0.3, 0.5]]}, 0.5),
    ("rosenbrock", {"kind": "rosenbrock", "a": 1.0, "b": 100.0}, 5e-4),
    ("multibasin", {"kind": "multibasin", "wells": [
        {"center": [0.0, 0.0], "depth": 1.1, "width": 0.3},
        {"center": [0.9, 0.0], "depth": 2.0, "width": 0.4},
        {"center": [-1.2, 0.0], "depth": 0.7, "width": 0.3}]}, 0.02),
)


def _closed_form(rng: random.Random, family: str, horizon: int) -> dict:
    k = rng.uniform(0.2, 1.0)
    k0 = rng.uniform(0.01, 0.2)
    k1 = rng.uniform(0.5, 1.0)
    l = rng.randint(20, 120)  # noqa: E741
    t_max = rng.randint(horizon, 2 * horizon)
    gamma = rng.uniform(0.5, 0.99)
    params = {
        "FIX": {"k": k},
        "STEP": {"k": k, "gamma": gamma, "l": l},
        "NSTEP": {"k": k, "gamma": gamma,
                  "milestones": sorted(rng.sample(range(1, horizon + 7), 6))},
        "EXP": {"k": k, "gamma": rng.uniform(0.99, 0.9999), "l": rng.randint(1, 5)},
        "POLY": {"k": k, "p": rng.uniform(0.5, 3.0), "t_max": t_max},
        "COSINE": {"k": k, "t_max": t_max, "k_min": k * rng.uniform(0.0, 0.1)},
        "LINEAR": {"k": k, "t_max": t_max, "k_min": k * rng.uniform(0.0, 0.1)},
        "TRI": {"k0": k0, "k1": k1, "l": l},
        "TRI2": {"k0": k0, "k1": k1, "l": l},
        "TRIEXP": {"k0": k0, "k1": k1, "l": l, "gamma": rng.uniform(0.995, 0.9999)},
        "SIN": {"k0": k0, "k1": k1, "l": l},
        "SIN2": {"k0": k0, "k1": k1, "l": l},
        "SINEXP": {"k0": k0, "k1": k1, "l": l, "gamma": rng.uniform(0.995, 0.9999)},
    }[family]
    return {"family": family, "params": params}


CLOSED_FAMILIES = ("FIX", "STEP", "NSTEP", "EXP", "POLY", "COSINE", "LINEAR",
                   "TRI", "TRI2", "TRIEXP", "SIN", "SIN2", "SINEXP")
BOUNDED = ("POLY", "COSINE", "LINEAR")


def policy_set(seed: int, size: str = "full") -> dict:
    """The `schedule_surface` inputs.

    Returns {"closed": [(name, spec)], "plateau": [(name, wire dict, stream)],
    "horizon", "iterations", "queries": {name: [t...]}, "surfaces", "starts"}.
    A spec is a wire dict, or {"nested_lambda": lam, "policy": wire dict} for
    a Scaled wrapped around an already scaled policy (the wire format would
    flatten it).
    """
    rng = random.Random(f"schedule_surface/{seed}")
    horizon = SURFACE_HORIZON[size]
    # families are fixed by position, so that only parameter values vary
    # with the seed and the work in a pass stays the same
    fam = lambda i: CLOSED_FAMILIES[i % len(CLOSED_FAMILIES)]  # noqa: E731
    closed = []
    for copy in range(SURFACE_COPIES[size]):
        for f in CLOSED_FAMILIES:
            closed.append((f"{f}_{copy}", _closed_form(rng, f, horizon)))
        inner = _closed_form(rng, BOUNDED[copy % len(BOUNDED)], horizon)
        closed.append((f"WARMUP_{copy}", {"family": "WARMUP", "params": {
            "w": rng.uniform(0.05, 0.2), "inner": inner}}))
        cuts = sorted(rng.sample(range(10, horizon), 3))
        bounds = [0] + cuts + [horizon + 1]
        closed.append((f"MULTI_{copy}", {"family": "MULTI", "params": {"segments": [
            {"start": a, "end": b,
             "policy": dict(_closed_form(rng, fam(5 * copy + j), b - a),
                            **{"lambda": rng.uniform(0.5, 1.0)})}
            for j, (a, b) in enumerate(zip(bounds, bounds[1:]))]}}))
        base = _closed_form(rng, fam(5 * copy + 4), horizon)
        closed.append((f"SCALED_{copy}", {
            "nested_lambda": rng.uniform(0.5, 1.0),
            "policy": dict(base, **{"lambda": rng.uniform(0.5, 1.0)})}))

    plateau = []
    n_obs = horizon // PLATEAU_EVAL_EVERY
    for copy in range(SURFACE_COPIES[size]):
        reduce = {"family": "PLATEAU_REDUCE", "params": {
            "k": rng.uniform(0.2, 1.0), "factor": rng.uniform(0.3, 0.7),
            "patience": rng.randint(2, 4), "monitor": "train_loss", "mode": "min",
            "min_delta": 1e-3, "cooldown": rng.randint(0, 2), "min_lr": 1e-4}}
        change = {"family": "PLATEAU_CHANGE", "params": {
            "policies": [_closed_form(rng, fam(3 * copy + j + 7), horizon) for j in range(3)],
            "patience": rng.randint(2, 4), "monitor": "test_accuracy", "mode": "max",
            "min_delta": 1e-3, "cooldown": rng.randint(0, 2)}}
        plateau.append((f"PLATEAU_REDUCE_{copy}", reduce, _metric_stream(rng, n_obs, "min")))
        plateau.append((f"PLATEAU_CHANGE_{copy}", change, _metric_stream(rng, n_obs, "max")))

    queries = {name: [rng.randint(0, horizon) for _ in range(SURFACE_QUERIES[size])]
               for name, _ in closed}
    starts = {"quadratic": [rng.uniform(-2, 2), rng.uniform(-2, 2)],
              "rosenbrock": [rng.uniform(-1.5, -0.5), rng.uniform(0.5, 1.5)],
              "multibasin": [rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)]}
    return {"closed": closed, "plateau": plateau, "horizon": horizon,
            "iterations": SURFACE_ITERS[size], "queries": queries,
            "surfaces": SURFACES, "starts": starts}


def _metric_stream(rng: random.Random, n: int, mode: str) -> list[float]:
    """A noisy curve that improves, then stalls, so plateaus trigger."""
    out, level = [], 1.0 if mode == "min" else 0.5
    for i in range(n):
        if i % 12 < 6:
            level += -0.02 if mode == "min" else 0.02
        out.append(level + rng.uniform(-0.005, 0.005))
    return out


# --- store_history ---

STORE_RECORDS = {"full": 20000, "tiny": 300}
STORE_TASKS = {"full": 10, "tiny": 3}
STORE_MIX = {"full": (300, 100, 40), "tiny": (20, 10, 6)}  # new, re-append, top-k
_STORE_FAMILIES = ("FIX", "STEP", "EXP", "COSINE", "TRI", "TRI2", "SIN2", "TRIEXP")
_STORE_LAMBDAS = tuple(10.0 ** (e / 4) for e in range(-12, 9))
STAMP = "2026-01-01T00:00:00+00:00"


def _task_name(i: int) -> str:
    return (f"moons(seed={i},n=800,noise=0.2)/mlp(2->16->2)/sgd/"
            + ("min_cost" if i % 2 else "max_accuracy"))


def _record(rng: random.Random, task: str, policy: dict, lam: float, seed: int) -> dict:
    diverged = rng.random() < 0.1
    budget = 1000
    hit = None if diverged or rng.random() < 0.4 else rng.randrange(1, 11) * 100
    acc = round(rng.uniform(0.3, 0.6), 4) if diverged else round(rng.uniform(0.7, 0.99), 4)
    return {"task": task, "policy": policy, "lam": lam, "seed": seed,
            "final_accuracy": acc, "best_accuracy": max(acc, round(rng.uniform(0.7, 0.99), 4)),
            "iterations_run": rng.randrange(1, 60) if diverged else (hit or budget),
            "iterations_to_target": hit, "diverged": diverged,
            "wall_time_sec": round(rng.uniform(0.05, 0.5), 6), "timestamp": STAMP,
            "artifact_version": "0.1.0"}


def record_set(seed: int, size: str = "full") -> dict:
    """The `store_history` inputs.

    Returns {"initial": [record kwargs], "ops": [(kind, payload)]}; kind is
    "append" (a new record), "reappend" (an index into initial) or "top_k"
    ((task, k, objective)). Identities (task, policy, lambda, seed) are
    unique by construction, so no operation can conflict.
    """
    rng = random.Random(f"store_history/{seed}")
    n, n_tasks = STORE_RECORDS[size], STORE_TASKS[size]
    n_new, n_re, n_q = STORE_MIX[size]
    tasks = [_task_name(rng.randrange(10**6) * n_tasks + i) for i in range(n_tasks)]
    policies = [_closed_form(rng, fam, 1000) for fam in _STORE_FAMILIES]
    # (task, policy, lambda) cells; seeds 0, 1, 2, ... fill each cell
    cells = [(t, p, lam) for t in tasks for p in range(len(policies))
             for lam in _STORE_LAMBDAS]
    rng.shuffle(cells)
    total = n + n_new
    identities = [(cells[i % len(cells)], i // len(cells)) for i in range(total)]
    rng.shuffle(identities)
    records = [_record(rng, t, policies[p], lam, s) for (t, p, lam), s in identities]
    initial, fresh = records[:n], records[n:]
    ops = ([("append", r) for r in fresh]
           + [("reappend", rng.randrange(n)) for _ in range(n_re)]
           + [("top_k", (rng.choice(tasks), rng.randint(1, 20),
                         ("max_accuracy", "min_cost")[i % 2])) for i in range(n_q)])
    rng.shuffle(ops)
    return {"initial": initial, "ops": ops, "tasks": tasks}
