"""The `lr` command line: eval, train, tune, range-test, top-k, surface.

Commands are driven by JSON manifests so runs are reproducible artifacts:
rerunning a manifest with the same seed rewrites byte-identical CSV and
JSON outputs and leaves the record database unchanged (appends of
already-stored trials are no-ops).

The trial commands (train, tune, range-test) share one front half,
`_setup`: it loads the manifest, builds the trial context, reads the
command's section, opens the record DB and checks the out dir, in that
order. Each flag that several commands take is declared once, on a parent
parser that each such command names in `build_parser`.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 every trial
diverged.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from functools import partial
from typing import Callable, NamedTuple

from . import __version__, model, problems, schedule, store, trainer, tuner
from .optim import OptimizerSpec
from .schedule import need

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_ALL_DIVERGED = 4


WORKERS_HELP = ("accepted for compatibility, no effect: every trial of a search "
                "trains in one stacked numpy computation")


class ManifestError(ValueError):
    """Manifest fails schema validation; message names the offending field."""


# --- the manifest table ---


class Req(NamedTuple):
    """Marks a key the manifest must give; every other key may be left out."""

    type: object


class Kind(NamedTuple):
    """A JSON object that takes only these keys, built from the ones it gives.

    `keys` maps each key to its type: a Python type (a float key takes an
    int, a bool is never a number, no number is NaN, infinite or past the
    float range), `[t]` for a list of t, a `Kind`, a dict
    of kind name -> `Kind` for an object picked by its "kind" key, or a
    function (value, where) -> value. `Req(t)` marks a required key. Only
    the keys present reach `build`, so every default is the constructor's own.
    """

    keys: dict
    build: Callable = dict


def _policy(value, where: str):
    try:
        return schedule.policy_from_dict(value)
    except schedule.PolicyError as e:
        raise ManifestError(f"{where}: {e}") from None


def _file_name(value, where: str) -> str:
    """A name that becomes part of a file name: no path separator, no NUL."""
    value = _check(value, str, where)
    need(not any(c in value for c in ("\0", os.sep, os.altsep or os.sep)),
         "%s must be a plain file name, got %r", where, value, error=ManifestError)
    return value


def _named_policy(value, where: str) -> dict:
    """A `policies` entry: {"name", "policy"}, or a bare policy named by its family."""
    if not (isinstance(value, dict) and "policy" in value):
        value = {"policy": value}
    return _check(value, Kind({"name": _file_name, "policy": Req(_policy)}), where)


#: Every top-level manifest key. A command reads the keys it needs and
#: leaves the others unchecked, so one manifest can serve several commands.
MANIFEST = {
    "task": str,
    "out_dir": str,
    "db": str,
    "dataset": {
        "blobs": Kind({"seed": Req(int), "n_per_class": Req(int), "n_classes": int,
                       "d": int, "separation": float}, problems.gen_blobs),
        "moons": Kind({"seed": Req(int), "n": Req(int), "noise": float}, problems.gen_moons),
        "idx": Kind({"train_images": Req(str), "train_labels": Req(str),
                     "test_images": Req(str), "test_labels": Req(str), "name": str},
                    problems.idx_task),
    },
    "model": {"linear": Kind({}, model.Linear),
              "mlp": Kind({"hidden": Req(int)}, model.MLP)},
    "optimizer": {
        "sgd": Kind({"momentum": float}, partial(OptimizerSpec, "sgd")),
        "adam": Kind({"beta1": float, "beta2": float, "eps": float},
                     partial(OptimizerSpec, "adam")),
    },
    "train": Kind({"batch_size": int, "budget": Req(int), "eval_every": int,
                   "target_accuracy": float, "seed": int}, trainer.TrainConfig),
    "policy": _policy,
    "search": Kind({"templates": Req([_policy]), "lambda_grid": [float],
                    "lambda_range": [float], "trials_per_point": int, "objective": str,
                    "boundaries": [int], "n_samples": int, "seed": int},
                   tuner.SearchSpace),
    "range_test": Kind({"k_grid": Req([float]), "trial_budget": int, "tolerance": float}),
    "surface": {
        "quadratic": Kind({"a": Req([[float]])}, problems.Quadratic),
        "rosenbrock": Kind({"a": float, "b": float}, problems.Rosenbrock),
        "multibasin": Kind({"wells": Req([Kind({"center": Req([float]), "depth": Req(float),
                                                "width": Req(float)}, problems.Well)])},
                           problems.MultiBasin),
    },
    "start": [float],
    "iterations": int,
    "policies": [_named_policy],
}


def _reject_unknown(obj: dict, known, where: str):
    unknown = [repr(k) for k in obj if k not in known]
    need(not unknown, "%s: unknown key %s", where, ", ".join(unknown), error=ManifestError)


def _check(value, type_, where: str, **context):
    """`value` checked against `type_` (see `Kind`) and built; errors name `where`.

    `context` reaches `build` beside the keys, for what a section needs from outside.
    """
    if isinstance(type_, (dict, Kind)):
        need(isinstance(value, dict), "'%s' must be a JSON object", where, error=ManifestError)
    if isinstance(type_, dict):
        kind = value.get("kind")
        need(isinstance(kind, str) and kind in type_, "%s.kind must be one of %s, got %r",
             where, ", ".join(type_), kind, error=ManifestError)
        rest = {k: v for k, v in value.items() if k != "kind"}
        return _check(rest, type_[kind], where, **context)
    if isinstance(type_, Kind):
        _reject_unknown(value, type_.keys, where)
        present = {}
        for key, key_type in type_.keys.items():
            required = isinstance(key_type, Req)
            if key in value:
                present[key] = _check(value[key], key_type.type if required else key_type,
                                      f"{where}.{key}")
            else:
                need(not required, "%s.%s is required", where, key, error=ManifestError)
        try:
            return type_.build(**present, **context)
        except ValueError as e:
            raise ManifestError(f"{where}: {e}") from None
    if isinstance(type_, list):
        need(isinstance(value, list), "%s has the wrong type: %r", where, value,
             error=ManifestError)
        return tuple(_check(v, type_[0], f"{where}[{i}]") for i, v in enumerate(value))
    if not isinstance(type_, type):
        return type_(value, where)
    # the one gate for a manifest number: json reads NaN, Infinity and 1e400
    # (as inf), none of them JSON, and an int past the float range is no float
    if type_ in (int, float) and type(value) in (int, float):
        need(schedule.finite(value), "%s must be a finite number, got %r", where, value,
             error=ManifestError)
    if type_ is float and type(value) is int:
        value = float(value)
    need(isinstance(value, type_) and (type_ is bool or not isinstance(value, bool)),
         "%s has the wrong type: %r", where, value, error=ManifestError)
    return value


def _load_manifest(path) -> dict:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise IOError(f"cannot read manifest {path}: {e}") from None
    doc = schedule.read_json(raw, f"manifest {path} is not valid JSON: ", ManifestError)
    need(isinstance(doc, dict), "manifest %s must be a JSON object", path, error=ManifestError)
    _reject_unknown(doc, MANIFEST, "manifest")
    return doc


def _read(doc: dict, key: str, default=..., **context):
    """Top-level manifest entry `key`, checked against `MANIFEST` and built."""
    if key not in doc:
        need(default is not ..., "manifest is missing '%s'", key, error=ManifestError)
        return default
    return _check(doc[key], MANIFEST[key], key, **context)


def _trial_context(doc: dict) -> tuner.TrialContext:
    """The dataset, model, optimizer and train sections that every trial runs on."""
    task = _read(doc, "dataset")
    cfg = _read(doc, "train")
    return tuner.TrialContext(
        model=_read(doc, "model", d_in=task.train.features.shape[1],
                    n_classes=task.train.n_classes),
        task=task, optimizer=_read(doc, "optimizer", OptimizerSpec()), config=cfg)


def _creatable(path: str) -> bool:
    """Whether the nearest existing ancestor of path (or path itself) is a writable dir."""
    existing = os.path.abspath(path)
    while not os.path.exists(existing):  # the first write makes each missing level
        existing = os.path.dirname(existing)
    return os.path.isdir(existing) and os.access(existing, os.W_OK)


def _open_db(args, doc: dict) -> store.PolicyStore:
    """The record store of --db or the manifest, checked appendable but not created."""
    path = store.resolve_db_path(args.db or _read(doc, "db", None))
    need(os.access(path, os.W_OK) if os.path.exists(path)
         else _creatable(os.path.dirname(os.path.abspath(path))),
         "cannot append to record database %s", path, error=OSError)
    return store.PolicyStore(path)


def _out_dir(doc: dict, override) -> str:
    """The output directory, checked writable but not created (see `_artifact`)."""
    path = override or _read(doc, "out_dir", None)
    need(path, "out_dir is required (manifest key or --out-dir)", error=ManifestError)
    need(_creatable(path), "cannot write to output directory %s", path, error=OSError)
    return path


def _artifact(out_dir: str, name: str) -> str:
    """The path of one output file, creating the out dir at the first."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _task_name(doc: dict, ctx: tuner.TrialContext, objective: str) -> str:
    parts = (ctx.task.name, ctx.model.descriptor(), ctx.optimizer.descriptor(), objective)
    return _read(doc, "task", None) or "/".join(parts)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _short_policy(policy) -> str:
    template, lam = schedule.split_lambda(policy)
    d = schedule.policy_to_dict(template)
    params = d.get("params", {})
    if d["family"] == "MULTI":
        body = ",".join(
            f"[{s['start']}:{s['end']}){s['policy']['family']}" for s in params["segments"])
    else:
        body = ",".join(f"{k}={_compact(v)}" for k, v in params.items())
    suffix = f" x{lam:g}" if lam != 1.0 else ""
    return f"{d['family']}({body}){suffix}"


def _short_name(policy) -> str:
    """`_short_policy` cut to a 44-column table cell."""
    name = _short_policy(policy)
    return name if len(name) <= 44 else name[:41] + "..."


def _compact(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, dict) and "family" in value:
        return value["family"]
    if isinstance(value, list):
        return "[" + ",".join(_compact(v) for v in value) + "]"
    return str(value)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as f:
        f.write(schedule.indented_json(obj) + "\n")


def _record_trials(db: store.PolicyStore, task_name: str, rows, stamp: str) -> int:
    """Append one record per (template, lambda, seed, outcome) row; returns the count.

    A row is recorded as given: a tune template that carries its own
    lambda keeps it in the policy dict, apart from the grid lambda.
    """
    rows = list(rows)
    for template, lam, seed, outcome in rows:
        db.append(store.make_record(task_name, template, lam, seed, outcome,
                                    timestamp=stamp))
    return len(rows)


def _train(ctx: tuner.TrialContext, cfg: trainer.TrainConfig, policy, out_dir: str,
           db: store.PolicyStore, task_name: str, stamp: str) -> trainer.TrialTrace:
    """One training run: trace_train.csv, trace_eval.csv, outcome.json and its record."""
    trace = trainer.run_trial(ctx.model, ctx.task, policy, ctx.optimizer, cfg)
    trainer.write_train_csv(trace, _artifact(out_dir, "trace_train.csv"))
    trainer.write_eval_csv(trace, _artifact(out_dir, "trace_eval.csv"))
    _write_json(_artifact(out_dir, "outcome.json"), trace.outcome.to_dict())
    template, lam = schedule.split_lambda(policy)
    _record_trials(db, task_name, [(template, lam, cfg.seed, trace.outcome)], stamp)
    return trace


def _setup(args, section: str):
    """A trial command's front half: (manifest, trial context, `section`, DB, out dir).

    The steps run in that order, so each command reports the same first error.
    """
    doc = _load_manifest(args.manifest)
    ctx = _trial_context(doc)
    return doc, ctx, _read(doc, section), _open_db(args, doc), _out_dir(doc, args.out_dir)


def _tune_rows(result: tuner.TuneResult):
    """Each trial of a search as a (template, lambda, seed, outcome) row."""
    return ((cell.template, cell.lam, seed, outcome) for cell in result.entries
            for seed, outcome in zip(cell.seeds, cell.outcomes))


# --- commands ---


def cmd_eval(args) -> int:
    text = args.policy
    if text.startswith("@"):
        with open(text[1:], "rb") as f:
            text = f.read()
    policy = schedule.policy_from_json(text)
    points = schedule.sample_trace(policy, args.t_max, args.stride)
    csv_text = schedule.trace_to_csv(points)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(csv_text)
        print(f"wrote {len(points)} points to {args.out}")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def cmd_train(args) -> int:
    doc, ctx, policy, db, out_dir = _setup(args, "policy")
    cfg = ctx.config
    task_name = _task_name(doc, ctx, "min_cost" if cfg.target_accuracy else "max_accuracy")

    o = _train(ctx, cfg, policy, out_dir, db, task_name, _now()).outcome
    print(f"task            {task_name}")
    print(f"policy          {_short_policy(policy)}")
    print(f"final accuracy  {o.final_accuracy:.4f}")
    print(f"best accuracy   {o.best_accuracy:.4f}")
    print(f"iterations      {o.iterations_run} / {cfg.budget}"
          + (f" (target hit at {o.iterations_to_target})"
             if o.iterations_to_target is not None else ""))
    if o.diverged:
        print("diverged        yes")
    print(f"wall time       {o.wall_time_sec:.2f}s")
    print(f"outputs         {out_dir}")
    return EXIT_ALL_DIVERGED if o.diverged else EXIT_OK


def _print_leaderboard(result: tuner.TuneResult, limit: int = 10):
    min_cost = result.objective == "min_cost"
    metric_col = "iters@target" if min_cost else "accuracy mean+-std"
    print(f"{'rank':>4}  {'policy':<44} {'lambda':>10}  {metric_col:>20}"
          + ("  speedup" if min_cost else "") + "  cost")
    for rank, cell in enumerate(result.entries[:limit], start=1):
        # the metric cell, and for min_cost the speedup cell
        if cell.metric_mean is None:
            metric = "diverged" if cell.n_diverged else "no target hit"
            cells = f"{metric:>20}" + ("        -" if min_cost else "")
        elif min_cost:
            speedup = result.speedup(cell)
            sp = f"{speedup:>6.2f}x" if speedup is not None else "   inf "
            cells = f"{cell.metric_mean:>20.1f}  {sp}"
        else:
            cells = f"{cell.metric_mean:.4f}+-{cell.metric_std:.4f}".rjust(20)
        print(f"{rank:>4}  {_short_name(cell.template):<44} {cell.lam:>10g}  {cells}  "
              f"{cell.cost_iters:.0f}")


def cmd_tune(args) -> int:
    doc, ctx, space, db, out_dir = _setup(args, "search")
    task_name = _task_name(doc, ctx, space.objective)
    stamp = _now()

    if space.boundaries is not None:
        composite, phase_results = tuner.compose_search(space, ctx)
        # composite.json flattens each winner's nested lambdas to one product,
        # which rounds differently: train and record the policy the file holds
        wire = schedule.policy_to_dict(composite)
        composite = schedule.policy_from_dict(wire)
        for i, result in enumerate(phase_results):
            tuner.write_leaderboard_csv(
                result, _artifact(out_dir, f"leaderboard_phase{i}.csv"))
            _record_trials(db, f"{task_name}#phase{i}", _tune_rows(result), stamp)
        _write_json(_artifact(out_dir, "composite.json"), wire)
        # confirmation run of the stitched policy over the full horizon
        trace = _train(ctx, replace(ctx.config, budget=space.boundaries[-1]), composite,
                       out_dir, db, task_name, stamp)
        for i, result in enumerate(phase_results):
            start, end = space.boundaries[i], space.boundaries[i + 1]
            print(f"phase {i} [{start}:{end}) winner: "
                  f"{_short_policy(result.winner.policy())}")
        print(f"composite final accuracy {trace.outcome.final_accuracy:.4f}")
        print(f"outputs {out_dir}")
        return EXIT_OK

    result = tuner.grid_search(space, ctx)

    tuner.write_leaderboard_csv(result, _artifact(out_dir, "leaderboard.csv"))
    _write_json(_artifact(out_dir, "tune_result.json"),
                tuner.tune_result_to_dict(result))
    n_records = _record_trials(db, task_name, _tune_rows(result), stamp)

    print(f"task {task_name}")
    print(f"{len(result.entries)} cells, {n_records} trials, db {db.path}")
    _print_leaderboard(result)
    print(f"outputs {out_dir}")
    return EXIT_OK


def cmd_range_test(args) -> int:
    doc, ctx, probes, db, out_dir = _setup(args, "range_test")
    task_name = _task_name(doc, ctx, "range_test")
    result = tuner.range_test(ctx, **probes)
    _record_trials(db, task_name, [(schedule.Fix(k=k), 1.0, result.seed, outcome)
                                   for k, outcome in zip(result.ks, result.outcomes)],
                   _now())

    _write_json(_artifact(out_dir, "range_test.json"), {
        "ks": result.ks, "accuracies": result.accuracies,
        "diverged": result.diverged, "trial_budget": result.trial_budget,
        "k_best": result.k_best, "bracket": list(result.bracket)})

    print(f"probes ({result.trial_budget} iterations each):")
    for k, acc, div in zip(result.ks, result.accuracies, result.diverged):
        status = "diverged" if div else f"accuracy {acc:.4f}"
        print(f"  k={k:g}: {status}")
    print(f"best k {result.k_best:g}")
    print(f"bracket [{result.bracket[0]:g}, {result.bracket[1]:g}]")
    return EXIT_OK


def cmd_top_k(args) -> int:
    db = store.PolicyStore(store.resolve_db_path(args.db))
    records = db.query_top_k(args.task, args.k, objective=args.objective)
    if not records:
        print(f"no records for task {args.task!r} in {db.path}")
        return EXIT_OK
    print(f"top {len(records)} of {len(db.records(args.task))} records "
          f"for {args.task} by {args.objective}")
    print(f"{'rank':>4}  {'policy':<44} {'lambda':>10} {'seed':>5}  "
          f"{'final_acc':>9}  {'cost':>8}")
    for rank, r in enumerate(records, start=1):
        name = _short_name(schedule.policy_from_dict(r.policy))
        acc = "diverged" if r.diverged else f"{r.final_accuracy:.4f}"
        print(f"{rank:>4}  {name:<44} {r.lam:>10g} {r.seed:>5}  {acc:>9}  "
              f"{r.cost():>8}")
    return EXIT_OK


def cmd_surface(args) -> int:
    doc = _load_manifest(args.manifest)
    surface = _read(doc, "surface")
    start = _read(doc, "start")
    need(len(start) == 2, "start must be [x, y]", error=ManifestError)
    iterations = _read(doc, "iterations")
    opt = _read(doc, "optimizer", OptimizerSpec())
    entries = _read(doc, "policies")
    need(entries, "policies must be non-empty", error=ManifestError)
    out_dir = _out_dir(doc, args.out_dir)

    paths = {}  # every path is traced before any is written or printed
    for i, entry in enumerate(entries):
        policy = entry["policy"]
        name = entry.get("name") or f"{schedule.family_name(policy)}_{i}"
        need(name not in paths, "duplicate policy name %r", name, error=ManifestError)
        paths[name] = trainer.run_surface_trial(surface, start, policy, opt, iterations)

    print(f"{'policy':<24} {'final value':>12}  {'min value':>12}")
    for name, path in paths.items():
        trainer.write_surface_csv(path, _artifact(out_dir, f"path_{name}.csv"))
        status = " (diverged)" if path.diverged else ""
        print(f"{name:<24} {path.final_value():>12.6f}  {min(path.values):>12.6f}"
              f"{status}")
    print(f"outputs {out_dir}")
    return EXIT_OK


# --- parser and entry point ---


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lr",
        description="Learning rate policy evaluation, training trials, and tuning.")
    parser.add_argument("--version", action="version", version=f"lr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # each flag that several commands take is declared once, on a parent parser
    manifest = argparse.ArgumentParser(add_help=False)
    manifest.add_argument("--manifest", required=True)
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)
    out_dir = argparse.ArgumentParser(add_help=False)
    out_dir.add_argument("--out-dir", dest="out_dir")
    db = argparse.ArgumentParser(add_help=False)
    db.add_argument("--db", help="record database path (default: $LRFORGE_DB)")

    p = sub.add_parser("eval", help="sample a policy's LR curve to CSV")
    p.add_argument("--policy", required=True,
                   help="policy JSON, or @path to a JSON file")
    p.add_argument("--t-max", type=int, required=True, dest="t_max")
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("train", help="run one training trial from a manifest",
                       parents=[manifest, out_dir, db])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tune", help="search policies/lambdas from a manifest",
                       parents=[manifest, workers, out_dir, db])
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("range-test", help="bracket usable fixed LRs with short probes",
                       parents=[manifest, workers, out_dir, db])
    p.set_defaults(func=cmd_range_test)

    p = sub.add_parser("top-k", help="best stored records for a task", parents=[db])
    p.add_argument("--task", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--objective", choices=("max_accuracy", "min_cost"),
                   default="max_accuracy")
    p.set_defaults(func=cmd_top_k)

    p = sub.add_parser("surface", help="trace optimizer paths across a 2-D surface",
                       parents=[manifest, out_dir])
    p.set_defaults(func=cmd_surface)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuner.AllDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ALL_DIVERGED
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
