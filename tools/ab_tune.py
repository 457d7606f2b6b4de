"""Time `lr tune` at a git revision against this tree, interleaved in one process.

    python3 tools/ab_tune.py REV [--seeds 1 7] [--passes 30]

Unpacks REV's `src/lrforge` with `git archive` into a temporary directory
and imports it under another package name, `lrforge_rev`, beside this
tree's `lrforge`. For each seed it writes `perfbench/inputs.tune_manifest`
(the tune_grid workload's manifest) and runs tune passes of the two trees
alternately, swapping which goes first each pair, so that both sample the
same spells of a machine whose speed drifts. Every pass of both trees must
write the same `leaderboard.csv` and `tune_result.json` bytes.

Prints, per seed, each tree's median pass time with its quartiles, and the
median over pairs of REV's time over this tree's, so above 1 means this
tree is faster.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import statistics
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


def quartiles(xs: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return f"{q2:.4f} s [{q1:.4f}, {q3:.4f}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the git revision to compare this tree against")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    ap.add_argument("--passes", type=int, default=30, help="pairs of passes per seed")
    args = ap.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import inputs
    from lrforge import cli as this_cli

    with tempfile.TemporaryDirectory(prefix="ab_tune_") as tmp:
        trees = {args.rev: import_revision(args.rev, tmp), "this tree": this_cli}
        for seed in args.seeds:
            manifest = os.path.join(tmp, f"manifest{seed}.json")
            with open(manifest, "w", encoding="utf-8") as f:
                json.dump(inputs.tune_manifest(seed), f)
            walls = {name: [] for name in trees}
            expected = None
            for i in range(args.passes):
                names = list(trees) if i % 2 == 0 else list(reversed(trees))
                for side, name in enumerate(names):
                    out = os.path.join(tmp, f"seed{seed}-pass{i}-{side}")
                    wall, artifacts = tune_pass(trees[name], manifest, out)
                    expected = expected or artifacts
                    if artifacts != expected:
                        sys.exit(f"seed {seed}, pass {i}: {name} wrote other "
                                 f"{' / '.join(ARTIFACTS)} bytes")
                    walls[name].append(wall)
            ratios = [a / b for a, b in zip(walls[args.rev], walls["this tree"])]
            wins = sum(r > 1 for r in ratios)
            print(f"seed {seed}: {args.rev} {quartiles(walls[args.rev])}, "
                  f"this tree {quartiles(walls['this tree'])}; "
                  f"median ratio {statistics.median(ratios):.3f}x "
                  f"(this tree faster in {wins}/{len(ratios)} pairs; same bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
