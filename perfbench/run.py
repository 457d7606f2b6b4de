"""lrforge benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload tune_grid --seed 1 --seconds 30 --trace 0

Run from anywhere; lrforge is imported from the `src/` next to this
directory and nowhere else, so the command fails in a tree without it.

Set-up (interpreter start, `import lrforge.cli`, input generation) is
timed in several fresh interpreters and reported as its median `setup_s`.
The measured process then repeats identical passes of the workload for
`--seconds`. Every metric is printed as a table, then the last line is one
JSON object: `correct`, `attempted`, `failed` and `metrics`, where metrics
are the `end_to_end` metrics of BENCHMARK.json (`--trace 0`) or its
`per_layer` metrics (`--trace 1`). See README.md for what each one means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 1
# fresh interpreters timed for setup_s, the measured one included
SETUPS = {"full": 5, "tiny": 2}
DEADLINE_S = 170


def _commit() -> str:
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _worker(args, workdir: str, setup_only: bool, timeout: float):
    """Run worker.py; return (setup seconds, parsed result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=max(1.0, timeout))
    lines = proc.stdout.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("READY ")]
    if proc.returncode != 0 or not ready or not (setup_only or len(lines) >= 2):
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return ready[0] - t0, None if setup_only else json.loads(lines[-1])


def _table(rows) -> str:
    out = []
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        out.append(f"  {name:<44} {shown:>14} {unit:<6} {note}")
    return "\n".join(out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-long smoke inputs for the bench's own tests")
    p.add_argument("--out", help="also write the full result (all metrics, metadata) here")
    p.add_argument("--update-reference", action="store_true",
                   help="store this run's output digests as the reference "
                        "(default seed, full size only)")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "lrforge", "__init__.py")):
        print(f"error: no lrforge sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.update_reference and (args.seed != DEFAULT_SEED or args.size != "full"):
        print("error: the reference is for the default seed at full size", file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    try:
        # set-up probes before and after the measured process, so that
        # their median spans the run rather than one moment of it
        probes = SETUPS[args.size] - 1
        setups = []
        for i in range(probes):
            if i == probes // 2:
                s, result = _worker(args, workdir, False, deadline - time.monotonic())
                setups.append(s)
            s, _ = _worker(args, f"{workdir}-setup{i}", True, deadline - time.monotonic())
            setups.append(s)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(HERE, ".work"), ignore_errors=True)

    problems = list(result["problems"])
    reference = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            reference = json.load(f)
    checked = args.seed == DEFAULT_SEED and args.size == "full"
    if args.update_reference:
        reference[args.workload] = result["digests"]
        with open(REFERENCE, "w") as f:
            json.dump(reference, f, indent=2, sort_keys=True)
            f.write("\n")
    elif checked and args.workload in reference and reference[args.workload] != result["digests"]:
        problems.append(f"output digests {result['digests']} differ from reference.json")
    ok = not problems
    failed_frac = result["failed"] / max(1, result["attempted"])

    report = dict(result["report"])
    report.update({
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "failed_frac": (failed_frac, "ratio"),
        "output_ok": (int(ok), "bool"),
    })
    samples = dict(result["samples"], setup_s=len(setups))
    samples.update({k: result["meta"]["passes"] for k in report
                    if k.startswith(("best_", "worst_", "median_"))})
    meta = dict(result["meta"], workload=args.workload, seed=args.seed, size=args.size,
                seconds=args.seconds, trace=args.trace, nproc=len(os.sched_getaffinity(0)),
                cpu=_cpu_model(), commit=_commit(), samples=samples,
                reference="compared" if checked and args.workload in reference else "not compared")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result.get("per_layer", {}) if args.trace else report
    metrics = {}
    for m in wanted:
        value, unit = source[m["name"]]
        if unit != m["unit"]:
            print(f"error: {m['name']} measured in {unit}, BENCHMARK.json says {m['unit']}",
                  file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": unit}

    print(f"perfbench {args.workload}  seed={args.seed} size={args.size} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print("end-to-end" + (" (untraced passes)" if args.trace else "") + ":")
    print(_table([(k, v, u, f"n={samples[k]}" if k in samples else "")
                  for k, (v, u) in sorted(report.items())]))
    print(f"  best_/median_/worst_: fastest, median, slowest pass; "
          f"ops = {result['ops']}, steps = {result['steps']}")
    if args.trace:
        print(f"per-layer (traced passes: {result['meta']['traced_passes']}):")
        print(_table([(k, v, u, "") for k, (v, u) in result["per_layer"].items()]))
        if result.get("untraced_boundaries"):
            print("  not traced (missing): " + ", ".join(result["untraced_boundaries"]))
    for what, msg in sorted(result["errors"].items()):
        print(f"failed {what}: {msg}")
    for msg in problems:
        print(f"check failed: {msg}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"meta": meta, "end_to_end": report,
                       "per_layer": result.get("per_layer"), "digests": result["digests"],
                       "problems": problems, "attempted": result["attempted"],
                       "failed": result["failed"]}, f, indent=2, sort_keys=True)
            f.write("\n")
    print(json.dumps({"correct": ok, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
