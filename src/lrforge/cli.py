"""The `lr` command line: eval, train, tune, range-test, top-k, surface.

Commands are driven by JSON manifests so runs are reproducible artifacts:
rerunning a manifest with the same seed rewrites byte-identical CSV and
JSON outputs and leaves the record database unchanged (appends of
already-stored trials are no-ops).

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 every trial
diverged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

from . import __version__, model, problems, schedule, store, trainer, tuner
from .optim import OptimizerSpec

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_ALL_DIVERGED = 4


WORKERS_HELP = ("accepted for compatibility, no effect: every trial of a search "
                "trains in one stacked numpy computation")


class ManifestError(ValueError):
    """Manifest fails schema validation; message names the offending field."""


# --- manifest parsing ---


def _load_manifest(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise IOError(f"cannot read manifest {path}: {e}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ManifestError(f"manifest {path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ManifestError(f"manifest {path} must be a JSON object")
    return doc


def _section(doc: dict, key: str, required: bool = True) -> dict:
    if key not in doc:
        if required:
            raise ManifestError(f"manifest is missing the '{key}' section")
        return {}
    section = doc[key]
    if not isinstance(section, dict):
        raise ManifestError(f"'{key}' must be a JSON object")
    return section


def _field(section: dict, name: str, types, where: str, default=...):
    if name not in section:
        if default is ...:
            raise ManifestError(f"{where}.{name} is required")
        return default
    value = section[name]
    if types is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
        raise ManifestError(f"{where}.{name} has the wrong type: {value!r}")
    return value


def _task_from(doc: dict) -> problems.TaskData:
    section = _section(doc, "dataset")
    kind = _field(section, "kind", str, "dataset")
    if kind == "blobs":
        return problems.gen_blobs(
            seed=_field(section, "seed", int, "dataset"),
            n_per_class=_field(section, "n_per_class", int, "dataset"),
            n_classes=_field(section, "n_classes", int, "dataset", 2),
            d=_field(section, "d", int, "dataset", 2),
            separation=_field(section, "separation", float, "dataset", 10.0))
    if kind == "moons":
        return problems.gen_moons(
            seed=_field(section, "seed", int, "dataset"),
            n=_field(section, "n", int, "dataset"),
            noise=_field(section, "noise", float, "dataset", 0.1))
    if kind == "idx":
        return problems.idx_task(
            _field(section, "train_images", str, "dataset"),
            _field(section, "train_labels", str, "dataset"),
            _field(section, "test_images", str, "dataset"),
            _field(section, "test_labels", str, "dataset"),
            name=_field(section, "name", str, "dataset", "idx"))
    raise ManifestError(f"dataset.kind must be blobs, moons, or idx, got {kind!r}")


def _model_from(doc: dict, task: problems.TaskData) -> model.ModelSpec:
    section = _section(doc, "model")
    kind = _field(section, "kind", str, "model")
    d_in = task.train.features.shape[1]
    n_classes = task.train.n_classes
    if kind == "linear":
        return model.Linear(d_in=d_in, n_classes=n_classes)
    if kind == "mlp":
        return model.MLP(d_in=d_in, hidden=_field(section, "hidden", int, "model"),
                         n_classes=n_classes)
    raise ManifestError(f"model.kind must be linear or mlp, got {kind!r}")


def _optimizer_from(doc: dict) -> OptimizerSpec:
    section = _section(doc, "optimizer", required=False) or {"kind": "sgd"}
    kind = _field(section, "kind", str, "optimizer")
    if kind == "sgd":
        return OptimizerSpec(kind="sgd",
                             momentum=_field(section, "momentum", float, "optimizer", 0.0))
    if kind == "adam":
        return OptimizerSpec(kind="adam",
                             beta1=_field(section, "beta1", float, "optimizer", 0.9),
                             beta2=_field(section, "beta2", float, "optimizer", 0.999),
                             eps=_field(section, "eps", float, "optimizer", 1e-8))
    raise ManifestError(f"optimizer.kind must be sgd or adam, got {kind!r}")


def _train_config_from(doc: dict) -> trainer.TrainConfig:
    section = _section(doc, "train")
    cfg = trainer.TrainConfig(
        batch_size=_field(section, "batch_size", int, "train", 32),
        budget=_field(section, "budget", int, "train"),
        eval_every=_field(section, "eval_every", int, "train", None),
        target_accuracy=_field(section, "target_accuracy", float, "train", None),
        seed=_field(section, "seed", int, "train", 0))
    try:
        cfg.validate()
    except ValueError as e:
        raise ManifestError(f"train: {e}") from None
    return cfg


def _policy_from(doc: dict, key: str = "policy"):
    if key not in doc:
        raise ManifestError(f"manifest is missing the '{key}' section")
    try:
        return schedule.policy_from_dict(doc[key])
    except schedule.PolicyError as e:
        raise ManifestError(f"{key}: {e}") from None


def _surface_from(doc: dict) -> problems.Surface:
    section = _section(doc, "surface")
    kind = _field(section, "kind", str, "surface")
    try:
        if kind == "quadratic":
            return problems.Quadratic(a=_field(section, "a", list, "surface"))
        if kind == "rosenbrock":
            return problems.Rosenbrock(a=_field(section, "a", float, "surface", 1.0),
                                       b=_field(section, "b", float, "surface", 100.0))
        if kind == "multibasin":
            wells = _field(section, "wells", list, "surface")
            built = tuple(problems.Well(center=tuple(w["center"]), depth=w["depth"],
                                        width=w["width"]) for w in wells)
            return problems.MultiBasin(wells=built)
    except (KeyError, TypeError, ValueError) as e:
        raise ManifestError(f"surface: {e}") from None
    raise ManifestError(f"surface.kind must be quadratic, rosenbrock, or multibasin, "
                        f"got {kind!r}")


def _out_dir(doc: dict, override) -> str:
    path = override or doc.get("out_dir")
    if not path:
        raise ManifestError("out_dir is required (manifest key or --out-dir)")
    os.makedirs(path, exist_ok=True)
    return path


def _task_name(doc: dict, task: problems.TaskData, spec, opt: OptimizerSpec,
               objective: str) -> str:
    explicit = doc.get("task")
    if explicit:
        return explicit
    return f"{task.name}/{spec.descriptor()}/{opt.descriptor()}/{objective}"


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _short_policy(policy) -> str:
    template, lam = schedule.split_lambda(policy)
    d = schedule.policy_to_dict(template)
    params = d.get("params", {})
    if d["family"] == "MULTI":
        inner = ",".join(
            f"[{s['start']}:{s['end']}){s['policy']['family']}" for s in params["segments"])
        body = inner
    else:
        body = ",".join(f"{k}={_compact(v)}" for k, v in params.items())
    suffix = f" x{lam:g}" if lam != 1.0 else ""
    return f"{d['family']}({body}){suffix}"


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
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _append_trial_records(db: store.PolicyStore, task_name: str,
                          result: tuner.TuneResult, stamp: str) -> int:
    count = 0
    for cell in result.entries:
        for seed, outcome in zip(cell.seeds, cell.outcomes):
            record = store.make_record(task_name, cell.template, cell.lam, seed,
                                       outcome, timestamp=stamp)
            db.append(record)
            count += 1
    return count


# --- commands ---


def cmd_eval(args) -> int:
    text = args.policy
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as f:
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
    doc = _load_manifest(args.manifest)
    task = _task_from(doc)
    spec = _model_from(doc, task)
    opt = _optimizer_from(doc)
    cfg = _train_config_from(doc)
    policy = _policy_from(doc)
    out_dir = _out_dir(doc, args.out_dir)

    trace = trainer.run_trial(spec, task, policy, opt, cfg)
    trainer.write_train_csv(trace, os.path.join(out_dir, "trace_train.csv"))
    trainer.write_eval_csv(trace, os.path.join(out_dir, "trace_eval.csv"))
    _write_json(os.path.join(out_dir, "outcome.json"), trace.outcome.to_dict())

    task_name = _task_name(doc, task, spec, opt,
                           "min_cost" if cfg.target_accuracy else "max_accuracy")
    template, lam = schedule.split_lambda(policy)
    db = store.PolicyStore(store.resolve_db_path(args.db or doc.get("db")))
    db.append(store.make_record(task_name, template, lam, cfg.seed, trace.outcome,
                                timestamp=_now()))

    o = trace.outcome
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


def _search_space_from(doc: dict) -> tuner.SearchSpace:
    section = _section(doc, "search")
    raw_templates = _field(section, "templates", list, "search")
    if not raw_templates:
        raise ManifestError("search.templates must be non-empty")
    try:
        templates = tuple(schedule.policy_from_dict(t) for t in raw_templates)
    except schedule.PolicyError as e:
        raise ManifestError(f"search.templates: {e}") from None
    grid = section.get("lambda_grid")
    rng = section.get("lambda_range")
    if grid is not None and rng is not None:
        raise ManifestError("search: give lambda_grid or lambda_range, not both")
    if grid is None and rng is None:
        grid = [1.0]
    if rng is not None and (not isinstance(rng, list) or len(rng) != 2):
        raise ManifestError("search.lambda_range must be [low, high]")
    return tuner.SearchSpace(
        templates=templates,
        lambda_grid=tuple(float(v) for v in grid) if grid is not None else None,
        lambda_range=tuple(float(v) for v in rng) if rng is not None else None,
        trials_per_point=_field(section, "trials_per_point", int, "search", 1),
        objective=_field(section, "objective", str, "search", "max_accuracy"))


def _print_leaderboard(result: tuner.TuneResult, limit: int = 10):
    min_cost = result.objective == "min_cost"
    metric_col = "iters@target" if min_cost else "accuracy mean+-std"
    print(f"{'rank':>4}  {'policy':<44} {'lambda':>10}  {metric_col:>20}"
          + ("  speedup" if min_cost else "") + "  cost")
    for rank, cell in enumerate(result.entries[:limit], start=1):
        name = _short_policy(cell.template)
        if len(name) > 44:
            name = name[:41] + "..."
        if cell.metric_mean is None:
            metric = "diverged" if cell.n_diverged else "no target hit"
            line = f"{rank:>4}  {name:<44} {cell.lam:>10g}  {metric:>20}"
            if min_cost:
                line += "        -"
        elif min_cost:
            speedup = result.speedup(cell)
            sp = f"{speedup:>6.2f}x" if speedup is not None else "   inf "
            line = (f"{rank:>4}  {name:<44} {cell.lam:>10g}  "
                    f"{cell.metric_mean:>20.1f}  {sp}")
        else:
            spread = f"{cell.metric_mean:.4f}+-{cell.metric_std:.4f}"
            line = f"{rank:>4}  {name:<44} {cell.lam:>10g}  {spread:>20}"
        print(f"{line}  {cell.cost_iters:.0f}")


def cmd_tune(args) -> int:
    doc = _load_manifest(args.manifest)
    task = _task_from(doc)
    spec = _model_from(doc, task)
    opt = _optimizer_from(doc)
    cfg = _train_config_from(doc)
    space = _search_space_from(doc)
    section = _section(doc, "search")
    out_dir = _out_dir(doc, args.out_dir)
    ctx = tuner.TrialContext(model=spec, task=task, optimizer=opt, config=cfg)
    task_name = _task_name(doc, task, spec, opt, space.objective)
    db = store.PolicyStore(store.resolve_db_path(args.db or doc.get("db")))
    stamp = _now()

    boundaries = section.get("boundaries")
    if boundaries is not None:
        composite, phase_results = tuner.compose_search(space, ctx, boundaries,
                                                        workers=args.workers)
        for i, result in enumerate(phase_results):
            tuner.write_leaderboard_csv(
                result, os.path.join(out_dir, f"leaderboard_phase{i}.csv"))
            _append_trial_records(db, f"{task_name}#phase{i}", result, stamp)
        _write_json(os.path.join(out_dir, "composite.json"),
                    schedule.policy_to_dict(composite))
        # confirmation run of the stitched policy over the full horizon
        full_cfg = replace(cfg, budget=int(boundaries[-1]))
        trace = trainer.run_trial(spec, task, composite, opt, full_cfg)
        trainer.write_train_csv(trace, os.path.join(out_dir, "trace_train.csv"))
        trainer.write_eval_csv(trace, os.path.join(out_dir, "trace_eval.csv"))
        _write_json(os.path.join(out_dir, "outcome.json"), trace.outcome.to_dict())
        db.append(store.make_record(task_name, composite, 1.0, full_cfg.seed,
                                    trace.outcome, timestamp=stamp))
        for i, result in enumerate(phase_results):
            start, end = boundaries[i], boundaries[i + 1]
            print(f"phase {i} [{start}:{end}) winner: "
                  f"{_short_policy(result.winner.policy())}")
        print(f"composite final accuracy {trace.outcome.final_accuracy:.4f}")
        print(f"outputs {out_dir}")
        return EXIT_OK

    if space.objective == "min_cost":
        result = tuner.cost_effective(space, ctx, workers=args.workers)
    elif space.lambda_range is not None:
        n = _field(section, "n_samples", int, "search")
        seed = _field(section, "seed", int, "search", cfg.seed)
        result = tuner.random_search(space, ctx, n, seed, workers=args.workers)
    else:
        result = tuner.grid_search(space, ctx, workers=args.workers)

    tuner.write_leaderboard_csv(result, os.path.join(out_dir, "leaderboard.csv"))
    _write_json(os.path.join(out_dir, "tune_result.json"),
                tuner.tune_result_to_dict(result))
    n_records = _append_trial_records(db, task_name, result, stamp)

    print(f"task {task_name}")
    print(f"{len(result.entries)} cells, {n_records} trials, db {db.path}")
    _print_leaderboard(result)
    print(f"outputs {out_dir}")
    return EXIT_OK


def cmd_range_test(args) -> int:
    doc = _load_manifest(args.manifest)
    task = _task_from(doc)
    spec = _model_from(doc, task)
    opt = _optimizer_from(doc)
    cfg = _train_config_from(doc)
    section = _section(doc, "range_test")
    k_grid = _field(section, "k_grid", list, "range_test")
    trial_budget = _field(section, "trial_budget", int, "range_test", None)
    tolerance = _field(section, "tolerance", float, "range_test", 0.05)
    out_dir = _out_dir(doc, args.out_dir)

    ctx = tuner.TrialContext(model=spec, task=task, optimizer=opt, config=cfg)
    result = tuner.range_test(ctx, k_grid, trial_budget=trial_budget,
                              tolerance=tolerance, workers=args.workers)

    task_name = _task_name(doc, task, spec, opt, "range_test")
    db = store.PolicyStore(store.resolve_db_path(args.db or doc.get("db")))
    stamp = _now()
    for k, outcome in zip(result.ks, result.outcomes):
        db.append(store.make_record(task_name, schedule.Fix(k=k), 1.0, result.seed,
                                    outcome, timestamp=stamp))

    _write_json(os.path.join(out_dir, "range_test.json"), {
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
        name = _short_policy(schedule.policy_from_dict(r.policy))
        if len(name) > 44:
            name = name[:41] + "..."
        acc = "diverged" if r.diverged else f"{r.final_accuracy:.4f}"
        print(f"{rank:>4}  {name:<44} {r.lam:>10g} {r.seed:>5}  {acc:>9}  "
              f"{r.cost():>8}")
    return EXIT_OK


def cmd_surface(args) -> int:
    doc = _load_manifest(args.manifest)
    surface = _surface_from(doc)
    start = doc.get("start")
    if not (isinstance(start, list) and len(start) == 2):
        raise ManifestError("start must be [x, y]")
    iterations = _field(doc, "iterations", int, "manifest")
    opt = _optimizer_from(doc)
    raw_policies = _field(doc, "policies", list, "manifest")
    if not raw_policies:
        raise ManifestError("policies must be non-empty")
    out_dir = _out_dir(doc, args.out_dir)

    named = []
    seen = set()
    for i, entry in enumerate(raw_policies):
        if isinstance(entry, dict) and "policy" in entry:
            policy = _policy_from(entry, "policy")
            name = entry.get("name") or f"{schedule.family_name(policy)}_{i}"
        else:
            policy = _policy_from({"policy": entry}, "policy")
            name = f"{schedule.family_name(policy)}_{i}"
        if name in seen:
            raise ManifestError(f"duplicate policy name {name!r}")
        seen.add(name)
        schedule.compile(policy, iterations)  # before any path is traced or written
        named.append((name, policy))

    print(f"{'policy':<24} {'final value':>12}  {'min value':>12}")
    for name, policy in named:
        path = trainer.run_surface_trial(surface, start, policy, opt, iterations)
        trainer.write_surface_csv(path, os.path.join(out_dir, f"path_{name}.csv"))
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

    p = sub.add_parser("eval", help="sample a policy's LR curve to CSV")
    p.add_argument("--policy", required=True,
                   help="policy JSON, or @path to a JSON file")
    p.add_argument("--t-max", type=int, required=True, dest="t_max")
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("train", help="run one training trial from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--db", help="record database path (default: $LRFORGE_DB)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tune", help="search policies/lambdas from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--db", help="record database path (default: $LRFORGE_DB)")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("range-test", help="bracket usable fixed LRs with short probes")
    p.add_argument("--manifest", required=True)
    p.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--db", help="record database path (default: $LRFORGE_DB)")
    p.set_defaults(func=cmd_range_test)

    p = sub.add_parser("top-k", help="best stored records for a task")
    p.add_argument("--task", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--objective", choices=("max_accuracy", "min_cost"),
                   default="max_accuracy")
    p.add_argument("--db", help="record database path (default: $LRFORGE_DB)")
    p.set_defaults(func=cmd_top_k)

    p = sub.add_parser("surface", help="trace optimizer paths across a 2-D surface")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=cmd_surface)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ManifestError, schedule.PolicyError, store.StoreConflict) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
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
