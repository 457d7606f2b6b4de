"""Time `lr tune`, or the surface paths, at a git revision against this tree,
interleaved in one process.

    python3 tools/ab_tune.py REV [--seeds 1 7] [--passes 30] [--surface]

Unpacks REV's `src/lrforge` with `git archive` into a temporary directory
and imports it under another package name, `lrforge_rev`, beside this
tree's `lrforge`. For each seed it runs passes of the two trees
alternately, swapping which goes first each pair, so that both sample the
same spells of a machine whose speed drifts. Every pass of both trees must
give the same bytes.

A pass is one of:
  - by default, one `lr tune` of `perfbench/inputs.tune_manifest` (the
    tune_grid workload's manifest), which must write the same
    `leaderboard.csv` and `tune_result.json` bytes;
  - with `--surface`, every surface path of `perfbench/inputs.policy_set`
    (the schedule_surface workload's: each closed-form policy, scaled per
    surface, from the surface's start) through `run_surface_trial`, once
    under SGD and once under Adam, timed apart. Each path's points, values
    and diverged flag must be the same bytes.

Prints, per seed (and optimizer), each tree's median pass time with its
quartiles, and the median and quartiles over pairs of REV's time over this
tree's, so above 1 means this tree is faster.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import statistics
import struct
import subprocess
import sys
import tarfile
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARTIFACTS = ("leaderboard.csv", "tune_result.json")


def import_revision(rev: str, into: str):
    """lrforge as of `rev`, imported as the package `lrforge_rev`."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev, "src/lrforge"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    os.rename(os.path.join(into, "src", "lrforge"), os.path.join(into, "lrforge_rev"))
    sys.path.insert(0, into)  # lrforge imports itself relatively, so a new name is enough
    return importlib.import_module("lrforge_rev.cli")


def tune_pass(cli, manifest: str, out: str) -> tuple[float, tuple[bytes, ...]]:
    """Seconds of one `lr tune` into a fresh out-dir and DB, and its artifacts."""
    argv = ["tune", "--manifest", manifest, "--out-dir", out, "--db", out + ".jsonl"]
    buf = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    wall = perf_counter() - t0
    if code != 0:
        sys.exit(f"lr tune returned {code!r}: {buf.getvalue()[-500:]}")
    artifacts = []
    for name in ARTIFACTS:
        with open(os.path.join(out, name), "rb") as f:
            artifacts.append(f.read())
    return wall, tuple(artifacts)


def surface_paths(lrforge, spec: dict) -> list[tuple]:
    """(surface, start, policy) of each path of a `policy_set` spec, built by `lrforge`."""
    surfaces = {}
    for name, s, lam in spec["surfaces"]:
        if s["kind"] == "quadratic":
            surfaces[name] = lrforge.Quadratic(a=s["a"]), lam
        elif s["kind"] == "rosenbrock":
            surfaces[name] = lrforge.Rosenbrock(a=s["a"], b=s["b"]), lam
        else:
            surfaces[name] = lrforge.MultiBasin(wells=tuple(
                lrforge.Well(center=tuple(w["center"]), depth=w["depth"], width=w["width"])
                for w in s["wells"])), lam
    paths = []
    for _, p in spec["closed"]:
        policy = (lrforge.Scaled(lam=p["nested_lambda"],
                                 base=lrforge.policy_from_dict(p["policy"]))
                  if "nested_lambda" in p else lrforge.policy_from_dict(p))
        paths += [(surface, spec["starts"][name], lrforge.Scaled(lam=lam, base=policy))
                  for name, (surface, lam) in surfaces.items()]
    return paths


def surface_passes(lrforge, spec: dict, kind: str):
    """One pass over every path of a `policy_set` spec under the optimizer
    `kind`, traced by `lrforge`: a function of the pass number that returns
    its seconds and each path's bytes."""
    paths, opt = surface_paths(lrforge, spec), lrforge.OptimizerSpec(kind)

    def one_pass(_):
        t0 = perf_counter()
        results = [lrforge.run_surface_trial(surface, start, policy, opt, spec["iterations"])
                   for surface, start, policy in paths]
        wall = perf_counter() - t0
        return wall, tuple(b"".join(point.tobytes() for point in r.points)
                           + struct.pack(f"<{len(r.values)}d?", *r.values, r.diverged)
                           for r in results)
    return one_pass


def interleaved(passes: int, run: dict, what: str) -> dict[str, list[float]]:
    """Each tree's pass times, `passes` pairs of `run[tree]()`, with the order
    of the two swapped every pair; exits if a pass gives other bytes."""
    walls = {name: [] for name in run}
    expected = None
    for i in range(passes):
        for name in (list(run) if i % 2 == 0 else list(reversed(run))):
            wall, out = run[name](i)
            expected = expected or out
            if out != expected:
                sys.exit(f"{what}, pass {i}: {name} gave other bytes")
            walls[name].append(wall)
    return walls


def quartiles(xs: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return f"{q2:.4f} s [{q1:.4f}, {q3:.4f}]"


def report(what: str, rev: str, walls: dict[str, list[float]]):
    ratios = [a / b for a, b in zip(walls[rev], walls["this tree"])]
    q1, q2, q3 = statistics.quantiles(ratios, n=4)
    wins = sum(r > 1 for r in ratios)
    print(f"{what}: {rev} {quartiles(walls[rev])}, this tree {quartiles(walls['this tree'])}; "
          f"median ratio {q2:.3f}x [{q1:.3f}, {q3:.3f}] "
          f"(this tree faster in {wins}/{len(ratios)} pairs; same bytes)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the git revision to compare this tree against")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    ap.add_argument("--passes", type=int, default=30, help="pairs of passes per seed")
    ap.add_argument("--surface", action="store_true",
                    help="time the schedule_surface paths instead of lr tune")
    args = ap.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import inputs
    from lrforge import cli as this_cli

    with tempfile.TemporaryDirectory(prefix="ab_tune_") as tmp:
        trees = {args.rev: import_revision(args.rev, tmp), "this tree": this_cli}
        for seed in args.seeds:
            if args.surface:
                spec = inputs.policy_set(seed)
                for kind in ("sgd", "adam"):
                    run = {name: surface_passes(importlib.import_module(cli.__package__),
                                                spec, kind)
                           for name, cli in trees.items()}
                    what = f"seed {seed}, {kind}"
                    report(what, args.rev, interleaved(args.passes, run, what))
                continue
            manifest = os.path.join(tmp, f"manifest{seed}.json")
            with open(manifest, "w", encoding="utf-8") as f:
                json.dump(inputs.tune_manifest(seed), f)
            run = {name: (lambda i, side=side, cli=cli: tune_pass(
                cli, manifest, os.path.join(tmp, f"seed{seed}-pass{i}-{side}")))
                for side, (name, cli) in enumerate(trees.items())}
            report(f"seed {seed}", args.rev, interleaved(args.passes, run, f"seed {seed}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
