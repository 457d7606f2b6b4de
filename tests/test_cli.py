"""End-to-end CLI runs, through `python -m lrforge` or `cli.main` in this process."""

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lrforge import cli, schedule, trainer, tuner

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ESCAPE_MANIFEST = os.path.join(REPO, "manifests", "surface_escape.json")


def run_cli(*argv, cwd):
    env = {k: v for k, v in os.environ.items() if k != "LRFORGE_DB"}
    # the child runs in cwd, where a relative PYTHONPATH such as src would not resolve
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO, "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "lrforge", *argv],
                          capture_output=True, text=True, cwd=cwd, env=env)


def lr(capsys, *argv):
    """`lr` in this process: its exit code and what it wrote to stderr."""
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().err


def write_manifest(tmp_path, name="m.json", **overrides):
    doc = {
        "task": "toy",
        "dataset": {"kind": "blobs", "seed": 1, "n_per_class": 20,
                    "n_classes": 2, "d": 2, "separation": 10.0},
        "model": {"kind": "linear"},
        "optimizer": {"kind": "sgd"},
        "train": {"batch_size": 16, "budget": 60, "eval_every": 20, "seed": 0},
        "policy": {"family": "TRI2", "params": {"k0": 0.01, "k1": 0.2, "l": 10}},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_tree(root):
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


TIMING_NAME = re.compile(r"time|wall|elapsed|duration|stamp", re.IGNORECASE)


def assert_no_timing(out_dir, db):
    """Timing never lands in deterministic artifacts: no JSON key or CSV
    column is named for it, and no wall time or timestamp the run stored
    in the DB appears in any file."""
    stored = [json.loads(line) for line in Path(db).read_text().splitlines()]
    values = {repr(r["wall_time_sec"]) for r in stored} | {r["timestamp"] for r in stored}
    assert None not in values and "None" not in values  # every record has both
    files = read_tree(out_dir)
    assert files
    for name, data in files.items():
        text = data.decode()
        if name.endswith(".json"):
            names = []
            json.loads(text, object_hook=lambda obj: names.extend(obj) or obj)
        else:
            names = text.splitlines()[0].split(",")
        assert not [n for n in names if TIMING_NAME.search(n)], name
        assert not [v for v in values if v in text], name


def readme_commands() -> list:
    """Every `lr ...` command of README.md's sh blocks, in order, without the `lr`."""
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as f:
        blocks = re.findall(r"```sh\n(.*?)```", f.read(), re.S)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line)
            if argv[:1] == ["lr"]:
                commands.append(argv[1:])
    return commands


def test_readme_tour_runs_in_a_fresh_checkout(tmp_path, monkeypatch, capsys):
    shutil.copytree(os.path.join(REPO, "manifests"), tmp_path / "manifests")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LRFORGE_DB", raising=False)
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["eval", "train", "tune", "tune", "range-test",
                                              "top-k", "surface"]
    for argv in commands:
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 0, (argv, err)
        if argv[0] == "top-k":  # the tour queries a task that train and tune recorded
            assert out.startswith("top 3 of "), out


# --- eval ---


def test_eval_prints_csv(tmp_path):
    proc = run_cli("eval", "--policy", '{"family": "FIX", "params": {"k": 0.5}}',
                   "--t-max", "4", "--stride", "2", cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stdout == "iteration,lr\n0,0.5\n2,0.5\n4,0.5\n"


def test_eval_reads_policy_file_and_writes_out(tmp_path):
    policy_path = tmp_path / "p.json"
    policy_path.write_text('{"family": "STEP", "params": {"k": 1.0, "gamma": 0.5, "l": 2}}')
    out = tmp_path / "curve.csv"
    proc = run_cli("eval", "--policy", f"@{policy_path}", "--t-max", "4",
                   "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0
    assert "wrote 5 points" in proc.stdout
    assert out.read_text() == ("iteration,lr\n0,1.0\n1,1.0\n2,0.5\n3,0.5\n4,0.25\n")


def test_eval_rejects_bad_policy(tmp_path):
    proc = run_cli("eval", "--policy", '{"family": "NOPE", "params": {}}',
                   "--t-max", "4", cwd=tmp_path)
    assert proc.returncode == 2
    assert "error:" in proc.stderr


# --- train ---


def test_train_artifacts_and_byte_determinism(tmp_path):
    manifest = write_manifest(tmp_path)
    first = run_cli("train", "--manifest", manifest, "--out-dir", "out_a",
                    "--db", "db.jsonl", cwd=tmp_path)
    assert first.returncode == 0, first.stderr
    assert "final accuracy" in first.stdout
    out_a = read_tree(tmp_path / "out_a")
    assert set(out_a) == {"trace_train.csv", "trace_eval.csv", "outcome.json"}
    outcome = json.loads(out_a["outcome.json"])
    assert outcome["diverged"] is False
    assert "wall_time_sec" not in outcome
    assert_no_timing(tmp_path / "out_a", tmp_path / "db.jsonl")

    db_before = (tmp_path / "db.jsonl").read_bytes()
    second = run_cli("train", "--manifest", manifest, "--out-dir", "out_b",
                     "--db", "db.jsonl", cwd=tmp_path)
    assert second.returncode == 0
    assert read_tree(tmp_path / "out_b") == out_a
    assert (tmp_path / "db.jsonl").read_bytes() == db_before


def test_train_records_land_in_the_db(tmp_path):
    manifest = write_manifest(tmp_path)
    run_cli("train", "--manifest", manifest, "--out-dir", "out",
            "--db", "db.jsonl", cwd=tmp_path)
    lines = (tmp_path / "db.jsonl").read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["task"] == "toy"
    assert rec["policy"]["family"] == "TRI2"
    assert rec["outcome"]["diverged"] is False


def test_a_one_feature_blobs_manifest_trains(tmp_path, capsys):
    manifest = write_manifest(tmp_path, dataset={"kind": "blobs", "seed": 1, "n_per_class": 20,
                                                 "n_classes": 2, "d": 1, "separation": 10.0})
    code, err = lr(capsys, "train", "--manifest", manifest, "--out-dir", tmp_path / "out",
                   "--db", tmp_path / "db.jsonl")
    assert (code, err) == (0, "")
    outcome = json.loads((tmp_path / "out" / "outcome.json").read_text())
    assert outcome["diverged"] is False
    assert outcome["final_accuracy"] > 0.9


def test_train_divergence_exit_code(tmp_path):
    manifest = write_manifest(
        tmp_path, model={"kind": "mlp", "hidden": 8},
        train={"batch_size": 16, "budget": 100, "eval_every": 20, "seed": 0},
        policy={"family": "FIX", "params": {"k": 1e12}})
    proc = run_cli("train", "--manifest", manifest, "--out-dir", "out",
                   "--db", "db.jsonl", cwd=tmp_path)
    assert proc.returncode == 4
    assert "diverged        yes" in proc.stdout
    outcome = json.loads((tmp_path / "out" / "outcome.json").read_text())
    assert outcome["diverged"] is True


def test_missing_manifest_is_an_io_error(tmp_path):
    proc = run_cli("train", "--manifest", "nope.json", "--out-dir", "out",
                   cwd=tmp_path)
    assert proc.returncode == 3
    assert "cannot read manifest" in proc.stderr


DEEP = b"[" * 100000 + b"]" * 100000  # nested past the recursion limit


@pytest.mark.parametrize("text", [b'{"policy": ' + b"7" * 5000 + b"}", b'{"policy": "\xff"}',
                                  DEEP],
                         ids=["int-past-the-digit-limit", "not-utf-8", "nested-too-deep"])
@pytest.mark.parametrize("argv, message", [
    (("train", "--manifest", "{}", "--out-dir", "out"), "manifest {} is not valid JSON: "),
    (("eval", "--policy", "@{}", "--t-max", "4"), "invalid policy JSON: ")],
    ids=["manifest", "policy-file"])
def test_a_json_file_that_does_not_decode_is_named(tmp_path, capsys, monkeypatch, text, argv,
                                                   message):
    path = tmp_path / "in.json"
    path.write_bytes(text)
    monkeypatch.chdir(tmp_path)
    code, err = lr(capsys, *(a.format(path) for a in argv))
    assert code == 2 and err.startswith("error: " + message.format(path))


def test_manifest_validation_exit_code(tmp_path):
    manifest = write_manifest(tmp_path, policy={"family": "NOPE", "params": {}})
    proc = run_cli("train", "--manifest", manifest, "--out-dir", "out",
                   cwd=tmp_path)
    assert proc.returncode == 2
    bad_section = write_manifest(tmp_path, name="m2.json", train={"budget": -5})
    proc = run_cli("train", "--manifest", bad_section, "--out-dir", "out",
                   cwd=tmp_path)
    assert proc.returncode == 2
    assert "budget" in proc.stderr


@pytest.mark.parametrize("overrides, fragment", [
    ({"train": {"batch_size": 16, "budget": 60, "eval_evry": 7},
      "optimizer": {"kind": "sgd", "momentm": 0.9}}, "train: unknown key 'eval_evry'"),
    ({"optimizer": {"kind": "sgd", "momentm": 0.9}}, "optimizer: unknown key 'momentm'"),
    ({"dataset": {"kind": "moons", "seed": 5, "n": 80, "nois": 0.2, "d": 2}},
     "dataset: unknown key 'nois', 'd'"),
    ({"polcy": {"family": "FIX", "params": {"k": 0.1}}}, "manifest: unknown key 'polcy'"),
    ({"optimizer": {"kind": "rmsprop"}}, "optimizer.kind must be one of sgd, adam"),
])
def test_unknown_manifest_key_is_a_validation_error(tmp_path, capsys, overrides, fragment):
    manifest = write_manifest(tmp_path, **overrides)
    code, err = lr(capsys, "train", "--manifest", manifest, "--out-dir", tmp_path / "out",
                   "--db", tmp_path / "db.jsonl")
    assert code == 2
    assert fragment in err
    assert not (tmp_path / "db.jsonl").exists()


FIX_DOC = {"family": "FIX", "params": {"k": 0.1}}


@pytest.mark.parametrize("policy, message", [
    ({**FIX_DOC, "lamda": 2}, "policy got unknown keys ['lamda']"),
    ({"family": "MULTI", "params": {"segments": [{"start": 0, "end": 60, "policy": FIX_DOC,
                                                  "stop": 3}]}},
     "MULTI segment got unknown keys ['stop']"),
], ids=["top-level", "segment"])
def test_an_unknown_policy_key_is_a_validation_error(tmp_path, capsys, policy, message):
    code, err = lr(capsys, "eval", "--policy", json.dumps(policy), "--t-max", "1")
    assert (code, err) == (2, f"error: {message}\n")
    manifest = write_manifest(tmp_path, policy=policy)
    code, err = lr(capsys, "train", "--manifest", manifest, "--out-dir", tmp_path / "out",
                   "--db", tmp_path / "db.jsonl")
    assert (code, err) == (2, f"error: policy: {message}\n")
    assert not (tmp_path / "out").exists() and not (tmp_path / "db.jsonl").exists()


@pytest.mark.parametrize("command, section, values, fragment", [
    ("tune", "search", {"lambda_grid": [None]}, "search.lambda_grid[0] has the wrong type: None"),
    ("tune", "search", {"lambda_grid": [True, 0.1]}, "search.lambda_grid[0] has the wrong type"),
    ("tune", "search", {"lambda_grid": [0.1, "1"]}, "search.lambda_grid[1] has the wrong type"),
    ("tune", "search", {"lambda_grid": None, "lambda_range": [0.01, None], "n_samples": 2},
     "search.lambda_range[1] has the wrong type: None"),
    ("tune", "search", {"boundaries": 5}, "search.boundaries has the wrong type: 5"),
    ("tune", "search", {"boundaries": [0, 30.5, 60]}, "search.boundaries[1] has the wrong type"),
    ("range-test", "range_test", {"k_grid": [None]},
     "range_test.k_grid[0] has the wrong type: None"),
    ("range-test", "range_test", {"k_grid": [0.1, False]},
     "range_test.k_grid[1] has the wrong type: False"),
])
def test_list_entries_are_checked_one_by_one(tmp_path, capsys, command, section, values,
                                             fragment):
    base = {"search": {"templates": [{"family": "FIX", "params": {"k": 1.0}}],
                       "lambda_grid": [0.1]},
            "range_test": {"k_grid": [0.1]}}[section]
    doc = {k: v for k, v in {**base, **values}.items() if v is not None}
    manifest = write_manifest(tmp_path, **{section: doc})
    code, err = lr(capsys, command, "--manifest", manifest, "--out-dir", tmp_path / "out",
                   "--db", tmp_path / "db.jsonl")
    assert code == 2
    assert fragment in err


@pytest.mark.parametrize("change, fragment", [
    (lambda d: d["surface"]["wells"][1].update(radius=1.0),
     "surface.wells[1]: unknown key 'radius'"),
    (lambda d: d["surface"]["wells"][0].pop("depth"), "surface.wells[0].depth is required"),
    (lambda d: d["surface"]["wells"][0].update(center=[0, 0, 1]),
     "surface.wells[0]: center must have 2 coordinates, got 3"),
    (lambda d: d["policies"][2].update(nme="x"), "policies[2]: unknown key 'nme'"),
    (lambda d: d["surface"].update(kind="saddle"),
     "surface.kind must be one of quadratic, rosenbrock, multibasin, got 'saddle'"),
    (lambda d: d.update(iterations=True), "iterations has the wrong type: True"),
])
def test_nested_manifest_entries_are_checked(tmp_path, capsys, change, fragment):
    with open(ESCAPE_MANIFEST, encoding="utf-8") as f:
        doc = json.load(f)
    change(doc)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, err = lr(capsys, "surface", "--manifest", path, "--out-dir", tmp_path / "out")
    assert code == 2
    assert fragment in err


@pytest.mark.parametrize("command, section", [
    ("train", {}),
    ("tune", {"search": {"templates": [{"family": "FIX", "params": {"k": 1.0}}]}}),
    ("range-test", {"range_test": {"k_grid": [0.01, 0.1]}}),
])
def test_unwritable_db_fails_before_any_artifact(tmp_path, capsys, command, section):
    manifest = write_manifest(tmp_path, **section)
    out = tmp_path / "out"
    (tmp_path / "file").write_text("")
    code, err = lr(capsys, command, "--manifest", manifest, "--out-dir", out,
                   "--db", tmp_path / "file" / "db.jsonl")
    assert code == 3
    assert "cannot append to record database" in err
    assert read_tree(out) == {}
    assert (tmp_path / "file").read_text() == ""


MOMENTUM = {"optimizer": {"kind": "sgd", "momentum": 1.5}}
EPS = {"optimizer": {"kind": "adam", "eps": 0}}
FIX_GRID = {"templates": [{"family": "FIX", "params": {"k": 1.0}}], "lambda_grid": [0.1]}
INTP_MAX = np.iinfo(np.intp).max  # the largest size numpy can index
SURFACE = {"surface": {"kind": "quadratic", "a": [[1.0, 0.0], [0.0, 1.0]]},
           "start": [1.0, 1.0], "iterations": 5,
           "policies": [{"family": "FIX", "params": {"k": 0.1}}]}


@pytest.mark.parametrize("command, section, fragment", [
    ("train", MOMENTUM, "optimizer: momentum must be in [0, 1), got 1.5"),
    ("tune", MOMENTUM, "optimizer: momentum must be in [0, 1), got 1.5"),
    ("range-test", MOMENTUM, "optimizer: momentum must be in [0, 1), got 1.5"),
    ("surface", MOMENTUM, "optimizer: momentum must be in [0, 1), got 1.5"),
    ("train", EPS, "optimizer: eps must be > 0, got 0.0"),
    ("tune", EPS, "optimizer: eps must be > 0, got 0.0"),
    ("surface", EPS, "optimizer: eps must be > 0, got 0.0"),
    ("train", {"optimizer": {"kind": "adam", "beta1": 1.0}},
     "optimizer: betas must be in [0, 1), got 1.0, 0.999"),
    ("train", {"model": {"kind": "mlp", "hidden": 0}}, "model: invalid model dimensions"),
    ("tune", {"model": {"kind": "mlp", "hidden": 0}}, "model: invalid model dimensions"),
    ("range-test", {"model": {"kind": "mlp", "hidden": 0}}, "model: invalid model dimensions"),
    ("tune", {"search": {**FIX_GRID, "lambda_grid": [-1]}},
     "lambda_grid values must be positive and finite, got -1.0"),
    ("tune", {"search": {**FIX_GRID, "lambda_grid": []}}, "lambda_grid must be non-empty"),
    ("tune", {"search": {**FIX_GRID, "templates": []}}, "templates must be non-empty"),
    ("tune", {"search": {**FIX_GRID, "trials_per_point": 0}},
     "trials_per_point must be >= 1, got 0"),
    ("tune", {"search": {**FIX_GRID, "objective": "median"}},
     "objective must be max_accuracy or min_cost, got 'median'"),
    ("tune", {"search": {**FIX_GRID, "objective": "min_cost"}},
     "min_cost objective requires target_accuracy"),
    ("tune", {"search": {**FIX_GRID, "boundaries": [0, 50, 40]}},
     "boundaries must start at 0 and strictly increase"),
    ("range-test", {"range_test": {"k_grid": [0.1, 0.1]}}, "k_grid values must be distinct"),
    ("range-test", {"range_test": {"k_grid": [-0.1]}},
     "k_grid values must be positive and finite, got -0.1"),
    ("range-test", {"range_test": {"k_grid": []}}, "k_grid must be non-empty"),
    ("range-test", {"range_test": {"k_grid": [0.1], "trial_budget": -5}},
     "budget must be >= 0, got -5"),
    ("surface", {"iterations": -1}, "iterations must be >= 0, got -1"),
    # sizes past what numpy can index, named before any array is made
    ("train", {"dataset": {"kind": "blobs", "seed": 1, "n_per_class": 10**21}},
     f"dataset: n_per_class must be <= {INTP_MAX}, got {10**21}"),
    ("train", {"dataset": {"kind": "blobs", "seed": 1, "n_per_class": 2, "n_classes": 10**21}},
     f"dataset: n_classes must be <= {INTP_MAX}, got {10**21}"),
    ("tune", {"dataset": {"kind": "blobs", "seed": 1, "n_per_class": 2, "d": 10**21}},
     f"dataset: d must be <= {INTP_MAX}, got {10**21}"),
    ("range-test", {"dataset": {"kind": "moons", "seed": 1, "n": 10**21}},
     f"dataset: n must be <= {INTP_MAX}, got {10**21}"),
    # a probe budget and a tolerance that a range test cannot use, named by their keys
    ("range-test", {"range_test": {"k_grid": [0.1], "trial_budget": 0}},
     "trial_budget must be >= 1, got 0"),
    ("range-test", {"range_test": {"k_grid": [0.1], "trial_budget": -5}},
     "trial_budget: budget must be >= 0, got -5"),
    ("range-test", {"range_test": {"k_grid": [0.1], "tolerance": -0.5}},
     "tolerance must be finite and >= 0, got -0.5"),
    # a task key that names no task fails before the first training step
    ("train", {"task": 5}, "task has the wrong type: 5"),
    ("range-test", {"task": 5}, "task has the wrong type: 5"),
])
def test_bad_input_leaves_no_out_dir_and_no_db(tmp_path, capsys, monkeypatch, command, section,
                                                fragment):
    def run(*args, **kwargs):
        raise AssertionError("a training step ran")
    monkeypatch.setattr(trainer, "run_population", run)
    monkeypatch.setattr(tuner, "run_population", run)
    manifest = write_manifest(tmp_path, **{"search": FIX_GRID, "range_test": {"k_grid": [0.1]},
                                           **SURFACE, **section})
    db = ("--db", tmp_path / "db.jsonl") if command != "surface" else ()
    code, err = lr(capsys, command, "--manifest", manifest, "--out-dir", tmp_path / "out", *db)
    assert code == 2
    assert fragment in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "db.jsonl").exists()


def test_a_budget_too_large_to_allocate_is_a_validation_error(tmp_path):
    # the traces of 2**50 float64 steps take 8 PiB, past any user address
    # space, so the allocation fails at once under every overcommit setting
    manifest = write_manifest(tmp_path, train={"batch_size": 16, "budget": 2**50, "seed": 0})
    proc = run_cli("train", "--manifest", manifest, "--out-dir", "out", "--db", "db.jsonl",
                   cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: budget {2**50} is too large")
    assert not (tmp_path / "out").exists() and not (tmp_path / "db.jsonl").exists()


TRAIN_MOONS = os.path.join(REPO, "manifests", "train_moons.json")
HUGE = "9" * 400  # an integer past the float range


@pytest.mark.parametrize("old, new, fragment", [
    ('{"kind": "sgd"}', '{"kind": "adam", "eps": NaN}',
     "optimizer.eps must be a finite number, got nan"),
    ('{"kind": "sgd"}', '{"kind": "adam", "eps": Infinity}',
     "optimizer.eps must be a finite number, got inf"),
    ('"noise": 0.2', '"noise": 1e400', "dataset.noise must be a finite number, got inf"),
    ('"noise": 0.2', f'"noise": {HUGE}', "dataset.noise must be a finite number, got 999"),
    ('"batch_size": 32', f'"batch_size": {HUGE}', "train.batch_size must be a finite number"),
], ids=["nan-eps", "infinite-eps", "1e400-noise", "huge-int-noise", "huge-int-batch-size"])
def test_a_number_that_is_no_finite_float_fails_before_any_side_effect(tmp_path, capsys,
                                                                       old, new, fragment):
    with open(TRAIN_MOONS, encoding="utf-8") as f:
        text = f.read()
    assert old in text
    manifest = tmp_path / "m.json"
    manifest.write_text(text.replace(old, new))
    code, err = lr(capsys, "train", "--manifest", manifest, "--out-dir", tmp_path / "out",
                   "--db", tmp_path / "db.jsonl")
    assert code == 2
    assert fragment in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "db.jsonl").exists()


def test_eval_rejects_a_policy_number_past_the_float_range(tmp_path, capsys):
    code, err = lr(capsys, "eval", "--policy", f'{{"family": "FIX", "params": {{"k": {HUGE}}}}}',
                   "--t-max", "4", "--out", tmp_path / "curve.csv")
    assert code == 2
    assert "k must be finite, got 999" in err
    assert not (tmp_path / "curve.csv").exists()


def test_out_dir_is_made_at_the_first_artifact(tmp_path, capsys):
    manifest = write_manifest(tmp_path, **SURFACE)
    out = tmp_path / "a" / "b"
    assert lr(capsys, "surface", "--manifest", manifest, "--out-dir", out)[0] == 0
    assert set(os.listdir(out)) == {"path_FIX_0.csv"}
    (tmp_path / "file").write_text("")
    code, err = lr(capsys, "surface", "--manifest", manifest,
                   "--out-dir", tmp_path / "file" / "out")
    assert code == 3
    assert "cannot write to output directory" in err


def test_db_parents_are_made_at_the_first_append(tmp_path, capsys):
    db = tmp_path / "a" / "b" / "db.jsonl"
    bad = write_manifest(tmp_path, name="bad.json", **MOMENTUM)
    assert lr(capsys, "train", "--manifest", bad, "--out-dir", tmp_path / "out",
              "--db", db)[0] == 2
    assert not (tmp_path / "a").exists()
    manifest = write_manifest(tmp_path)
    assert lr(capsys, "train", "--manifest", manifest, "--out-dir", tmp_path / "out",
              "--db", db)[0] == 0
    assert len(db.read_text().splitlines()) == 1


def _table_keys(path, type_, kind=""):
    """(key path, kind, required) for each key below one `cli.MANIFEST` entry."""
    if isinstance(type_, dict):
        for name, kind_type in type_.items():
            yield from _table_keys(path, kind_type, name)
    elif isinstance(type_, cli.Kind):
        for key, key_type in type_.keys.items():
            required = isinstance(key_type, cli.Req)
            yield f"{path}.{key}", kind, required
            yield from _table_keys(f"{path}.{key}", key_type.type if required else key_type,
                                   kind)
    elif isinstance(type_, list):
        yield from _table_keys(f"{path}[]", type_[0], kind)


def test_readme_manifest_table_names_every_key():
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as f:
        section = f.read().split("## Manifest keys", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            key, kinds, _, default = (c.strip() for c in line.strip("|").split("|"))
            path = key.strip("`")
            nested = "." in path
            for kind in re.findall(r"`([a-z]+)`", kinds) or [""]:
                documented.add((path, kind, default == "required" if nested else None))
    table = set()
    for key, type_ in cli.MANIFEST.items():
        table |= set(_table_keys(key, type_)) or {(key, "", None)}
    assert documented == table


def test_multi_segment_that_outlives_its_policy_fails_before_training(tmp_path, capsys):
    with open(os.path.join(REPO, "manifests", "train_moons.json"), encoding="utf-8") as f:
        doc = json.load(f)
    doc["policy"] = {"family": "MULTI", "params": {"segments": [
        {"start": 0, "end": 2000,
         "policy": {"family": "COSINE", "params": {"k": 0.1, "t_max": 50}}}]}}
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc))
    code, err = lr(capsys, "train", "--manifest", manifest, "--out-dir", tmp_path / "out",
                   "--db", tmp_path / "db.jsonl")
    assert code == 2
    assert "policy: segments[0] [0, 2000): COSINE t_max ends at t=50" in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "db.jsonl").exists()


def test_plateau_field_of_the_wrong_type_is_a_validation_error(tmp_path):
    manifest = write_manifest(tmp_path, policy={
        "family": "PLATEAU_REDUCE", "params": {"k": "0.1", "factor": 0.5, "patience": 1}})
    proc = run_cli("train", "--manifest", manifest, "--out-dir", "out", cwd=tmp_path)
    assert proc.returncode == 2
    assert "k must be a number" in proc.stderr
    assert "Traceback" not in proc.stderr


# --- tune ---


def tune_manifest(tmp_path, **extra):
    """A blobs tune manifest; extra search keys given as None are left out."""
    search = {"templates": [{"family": "FIX", "params": {"k": 1.0}},
                            {"family": "EXP", "params": {"k": 1.0, "gamma": 0.97}}],
              "lambda_grid": [0.01, 0.1], "trials_per_point": 2}
    search.update(extra)
    search = {key: value for key, value in search.items() if value is not None}
    return write_manifest(tmp_path, name="tune.json", search=search)


@pytest.mark.parametrize("extra, fragment", [
    ({"n_samples": 5}, "search: n_samples applies only with lambda_range"),
    ({"seed": 9}, "search: seed applies only with lambda_range"),
    ({"boundaries": [0, 30, 60], "objective": "min_cost"},
     "search: objective min_cost does not apply with boundaries"),
])
def test_search_keys_the_mode_never_reads_are_rejected(tmp_path, capsys, extra, fragment):
    manifest = tune_manifest(tmp_path, **extra)
    code, err = lr(capsys, "tune", "--manifest", manifest, "--out-dir", tmp_path / "out",
                   "--db", tmp_path / "db.jsonl")
    assert code == 2
    assert fragment in err
    assert not (tmp_path / "db.jsonl").exists()


@pytest.mark.parametrize("extra, fragment", [
    ({"objective": "min_cost"}, "search: lambda_range applies only"),
    ({"boundaries": [0, 30, 60]}, "search: lambda_range applies only"),
    ({"n_samples": None}, "search: n_samples is required"),
])
def test_unreadable_lambda_range_fails_before_any_side_effect(tmp_path, capsys, extra,
                                                              fragment):
    manifest = tune_manifest(tmp_path, **{"lambda_grid": None, "lambda_range": [0.01, 0.1],
                                          "n_samples": 3, **extra})
    code, err = lr(capsys, "tune", "--manifest", manifest, "--out-dir", tmp_path / "out",
                   "--db", tmp_path / "db.jsonl")
    assert code == 2
    assert fragment in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "db.jsonl").exists()


def test_tune_outputs_and_worker_invariance(tmp_path):
    manifest = tune_manifest(tmp_path)
    first = run_cli("tune", "--manifest", manifest, "--workers", "1",
                    "--out-dir", "out_a", "--db", "db.jsonl", cwd=tmp_path)
    assert first.returncode == 0, first.stderr
    out_a = read_tree(tmp_path / "out_a")
    assert set(out_a) == {"leaderboard.csv", "tune_result.json"}
    db_before = (tmp_path / "db.jsonl").read_bytes()
    assert len(db_before.splitlines()) == 8  # 4 cells x 2 trials
    assert_no_timing(tmp_path / "out_a", tmp_path / "db.jsonl")

    second = run_cli("tune", "--manifest", manifest, "--workers", "4",
                     "--out-dir", "out_b", "--db", "db.jsonl", cwd=tmp_path)
    assert second.returncode == 0
    assert read_tree(tmp_path / "out_b") == out_a
    assert (tmp_path / "db.jsonl").read_bytes() == db_before

    board = json.loads(out_a["tune_result.json"])
    assert board["objective"] == "max_accuracy"
    assert len(board["entries"]) == 4
    assert board["entries"][0]["rank"] == 1


def test_tune_all_diverged_exit_code(tmp_path):
    manifest = write_manifest(
        tmp_path, name="tune.json", model={"kind": "mlp", "hidden": 8},
        train={"batch_size": 16, "budget": 100, "eval_every": 50, "seed": 0},
        # an LR of 10**600, an int past the float range, under the grid's lambdas
        search={"templates": [{"family": "FIX", "params": {"k": 1e12}},
                              {"family": "FIX", "params": {"k": 10**300}, "lambda": 10**300}],
                "lambda_grid": [1.0, 10.0]})
    proc = run_cli("tune", "--manifest", manifest, "--workers", "1",
                   "--out-dir", "out", "--db", "db.jsonl", cwd=tmp_path)
    assert proc.returncode == 4
    assert "error: every cell diverged" in proc.stderr


def test_tune_with_boundaries_names_the_phase_where_every_candidate_diverged(tmp_path):
    # an LR of 1e309 is inf, so every candidate diverges at its first step
    manifest = write_manifest(
        tmp_path, name="compose.json",
        search={"templates": [{"family": "FIX", "params": {"k": 1e308}}],
                "lambda_grid": [10.0], "boundaries": [0, 40, 80]})
    proc = run_cli("tune", "--manifest", manifest, "--workers", "1",
                   "--out-dir", "out", "--db", "db.jsonl", cwd=tmp_path)
    assert proc.returncode == 4
    assert "error: every candidate diverged in phase [0, 40)" in proc.stderr


def test_tune_with_boundaries_writes_a_composite(tmp_path):
    manifest = write_manifest(
        tmp_path, name="compose.json",
        search={"templates": [{"family": "FIX", "params": {"k": 1.0}}],
                "lambda_grid": [0.05, 0.2], "boundaries": [0, 40, 80]})
    proc = run_cli("tune", "--manifest", manifest, "--workers", "1",
                   "--out-dir", "out", "--db", "db.jsonl", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    files = read_tree(tmp_path / "out")
    assert set(files) == {"composite.json", "leaderboard_phase0.csv",
                          "leaderboard_phase1.csv", "trace_train.csv",
                          "trace_eval.csv", "outcome.json"}
    composite = json.loads(files["composite.json"])
    assert composite["family"] == "MULTI"
    segs = composite["params"]["segments"]
    assert [(s["start"], s["end"]) for s in segs] == [(0, 40), (40, 80)]
    assert "phase 0 [0:40) winner:" in proc.stdout
    # phase records are namespaced so they never collide with plain runs
    tasks = {json.loads(l)["task"] for l in
             (tmp_path / "db.jsonl").read_text().splitlines()}
    assert tasks == {"toy#phase0", "toy#phase1", "toy"}
    assert_no_timing(tmp_path / "out", tmp_path / "db.jsonl")


def test_composite_json_is_the_policy_the_confirmation_run_trained(tmp_path, capsys):
    # templates with their own lambda make nested Scaled winners, which
    # composite.json writes with one lambda, their product
    with open(os.path.join(REPO, "manifests", "compose_moons.json"), encoding="utf-8") as f:
        doc = json.load(f)
    doc["search"].update(lambda_grid=[0.7, 3.0], templates=[
        {"family": "FIX", "params": {"k": 0.3}, "lambda": 0.1},
        {"family": "TRI", "params": {"k0": 0.1, "k1": 0.7, "l": 100}, "lambda": 0.3}])
    compose = tmp_path / "compose.json"
    compose.write_text(json.dumps(doc))
    assert lr(capsys, "tune", "--manifest", compose, "--out-dir", tmp_path / "tune",
              "--db", tmp_path / "db.jsonl")[0] == 0
    tuned = read_tree(tmp_path / "tune")

    train = {key: doc[key] for key in ("dataset", "model", "optimizer")}
    train["train"] = {**doc["train"], "budget": doc["search"]["boundaries"][-1]}
    train["policy"] = json.loads(tuned["composite.json"])
    manifest = tmp_path / "train.json"
    manifest.write_text(json.dumps(train))
    assert lr(capsys, "train", "--manifest", manifest, "--out-dir", tmp_path / "train",
              "--db", tmp_path / "db.jsonl")[0] == 0
    trained = read_tree(tmp_path / "train")
    for name in ("trace_train.csv", "trace_eval.csv", "outcome.json"):
        assert trained[name] == tuned[name], name


def db_identities(db) -> list:
    """Each line's (task, policy dict, lambda, seed), sorted by their JSON text."""
    rows = [json.loads(line) for line in Path(db).read_text().splitlines()]
    return sorted(((r["task"], r["policy"], r["lambda"], r["seed"]) for r in rows),
                  key=json.dumps)


def test_each_command_records_the_policy_and_lambda_it_ran(tmp_path, capsys):
    # a tune template's own lambda stays in its policy dict, beside the grid lambda
    own = [{"family": "FIX", "params": {"k": 0.3}, "lambda": 0.1},
           {"family": "TRI", "params": {"k0": 0.1, "k1": 0.7, "l": 100}, "lambda": 0.3}]
    with open(os.path.join(REPO, "manifests", "compose_moons.json"), encoding="utf-8") as f:
        doc = json.load(f)
    doc["task"] = "c"
    doc["search"].update(lambda_grid=[0.7, 3.0], templates=own)
    compose = tmp_path / "compose.json"
    compose.write_text(json.dumps(doc))
    assert lr(capsys, "tune", "--manifest", compose, "--out-dir", tmp_path / "compose",
              "--db", tmp_path / "compose.jsonl")[0] == 0
    composite = json.loads((tmp_path / "compose" / "composite.json").read_text())
    assert db_identities(tmp_path / "compose.jsonl") == sorted(
        [(f"c#phase{i}", t, lam, 0) for i in (0, 1) for t in own for lam in (0.7, 3.0)]
        + [("c", composite, 1.0, 0)], key=json.dumps)

    grid = write_manifest(tmp_path, name="grid.json", search={
        "templates": own[:1], "lambda_grid": [0.5], "trials_per_point": 2})
    assert lr(capsys, "tune", "--manifest", grid, "--out-dir", tmp_path / "grid",
              "--db", tmp_path / "grid.jsonl")[0] == 0
    assert db_identities(tmp_path / "grid.jsonl") == [("toy", own[0], 0.5, 0),
                                                      ("toy", own[0], 0.5, 1)]

    # lr train records a scaled policy as its base and its lambda
    tri2 = {"family": "TRI2", "params": {"k0": 0.01, "k1": 0.2, "l": 10}}
    train = write_manifest(tmp_path, name="train.json", policy={**tri2, "lambda": 0.5})
    assert lr(capsys, "train", "--manifest", train, "--out-dir", tmp_path / "train",
              "--db", tmp_path / "train.jsonl")[0] == 0
    assert db_identities(tmp_path / "train.jsonl") == [("toy", tri2, 0.5, 0)]

    probe = write_manifest(tmp_path, name="rt.json", range_test={"k_grid": [0.1, 0.01]})
    assert lr(capsys, "range-test", "--manifest", probe, "--out-dir", tmp_path / "rt",
              "--db", tmp_path / "rt.jsonl")[0] == 0
    assert db_identities(tmp_path / "rt.jsonl") == [
        ("toy", {"family": "FIX", "params": {"k": k}}, 1.0, 0) for k in (0.01, 0.1)]


# --- range-test ---


def test_range_test_writes_summary(tmp_path):
    manifest = write_manifest(
        tmp_path, name="rt.json",
        train={"batch_size": 16, "budget": 400, "eval_every": 100, "seed": 0},
        range_test={"k_grid": [1e-6, 0.01, 0.1], "tolerance": 0.05})
    proc = run_cli("range-test", "--manifest", manifest, "--workers", "1",
                   "--out-dir", "out", "--db", "db.jsonl", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "best k" in proc.stdout and "bracket [" in proc.stdout
    summary = json.loads((tmp_path / "out" / "range_test.json").read_text())
    assert summary["ks"] == [1e-6, 0.01, 0.1]
    assert summary["trial_budget"] == 40
    assert len(summary["bracket"]) == 2
    assert summary["k_best"] in summary["ks"]
    assert len((tmp_path / "db.jsonl").read_text().splitlines()) == 3
    assert_no_timing(tmp_path / "out", tmp_path / "db.jsonl")


# --- top-k ---


def test_top_k_lists_stored_records(tmp_path):
    manifest = write_manifest(tmp_path)
    run_cli("train", "--manifest", manifest, "--out-dir", "out",
            "--db", "db.jsonl", cwd=tmp_path)
    proc = run_cli("top-k", "--task", "toy", "--k", "5", "--db", "db.jsonl",
                   cwd=tmp_path)
    assert proc.returncode == 0
    assert "top 1 of 1 records for toy" in proc.stdout
    assert "TRI2" in proc.stdout
    empty = run_cli("top-k", "--task", "missing", "--db", "db.jsonl", cwd=tmp_path)
    assert empty.returncode == 0
    assert "no records" in empty.stdout


@pytest.mark.parametrize("line", [
    "[1, 2]",
    '{"v": 1, "task": "t", "policy": {}, "lambda": 1.0, "seed": 0}',
    '{"v": 1, "task": "t", "policy": {}, "lambda": 1.0, "seed": 0, "outcome": '
    '{"final_accuracy": 0.5, "iterations_run": 1, "iterations_to_target": null, '
    '"diverged": false}}',
    # every field present, one of the wrong type
    *(json.dumps({"v": 1, "task": "t", "policy": {"family": "FIX", "params": {"k": 0.1}},
                  "lambda": 1.0, "seed": 0,
                  "outcome": {"final_accuracy": 0.5, "best_accuracy": 0.5,
                              "iterations_run": 1, "iterations_to_target": None,
                              "diverged": False, **outcome}, **top})
      for outcome, top in [({"final_accuracy": "x"}, {}), ({}, {"lambda": "x"}),
                           ({"diverged": "no"}, {}), ({"iterations_run": 1.5}, {}),
                           ({}, {"seed": True})]),
    # a byte that is not UTF-8
    b'{"v": 1, "task": "t\xff"}',
    # nesting past the recursion limit
    pytest.param(DEEP, id="nested-too-deep"),
])
def test_top_k_on_a_line_that_is_no_record_is_a_validation_error(tmp_path, capsys, line):
    (tmp_path / "bad.jsonl").write_bytes((line if type(line) is bytes else line.encode()) + b"\n")
    code, err = lr(capsys, "top-k", "--task", "t", "--db", tmp_path / "bad.jsonl")
    assert code == 2
    assert f"corrupt record at {tmp_path / 'bad.jsonl'}:1" in err


# --- surface ---


def test_surface_traces_the_shipped_manifest(tmp_path):
    proc = run_cli("surface", "--manifest", ESCAPE_MANIFEST,
                   "--out-dir", str(tmp_path / "out"),
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert {"path_fix.csv", "path_nstep.csv", "path_triexp.csv"} <= set(
        os.listdir(tmp_path / "out"))
    header = (tmp_path / "out" / "path_fix.csv").read_text().splitlines()[0]
    assert header == "iteration,x,y,value"
    assert "fix" in proc.stdout and "nstep" in proc.stdout


def test_surface_duplicate_names_rejected(tmp_path):
    doc = {"surface": {"kind": "quadratic", "a": [[1.0, 0.0], [0.0, 1.0]]},
           "start": [1.0, 1.0], "iterations": 5,
           "policies": [{"name": "p", "policy": {"family": "FIX", "params": {"k": 0.1}}},
                        {"name": "p", "policy": {"family": "FIX", "params": {"k": 0.2}}}]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("surface", "--manifest", str(path),
                   "--out-dir", str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 2
    assert "duplicate policy name" in proc.stderr


def test_surface_checks_every_horizon_before_tracing(tmp_path):
    doc = {"surface": {"kind": "quadratic", "a": [[1.0, 0.0], [0.0, 1.0]]},
           "start": [1.0, 1.0], "iterations": 20,
           "policies": [{"name": "fix", "policy": {"family": "FIX", "params": {"k": 0.1}}},
                        {"name": "tri", "policy": {"family": "TRI",
                                                   "params": {"k0": 0.0, "k1": 0.1, "l": 5}}},
                        {"name": "poly", "policy": {"family": "POLY",
                                                    "params": {"k": 0.1, "p": 1.0, "t_max": 10}}}]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    proc = run_cli("surface", "--manifest", str(path), "--out-dir", str(out), cwd=tmp_path)
    assert proc.returncode == 2
    assert "POLY t_max" in proc.stderr
    assert not out.exists()


def test_surface_rejects_a_metric_driven_policy_before_tracing(tmp_path):
    doc = {"surface": {"kind": "quadratic", "a": [[1.0, 0.0], [0.0, 1.0]]},
           "start": [1.0, 1.0], "iterations": 20,
           "policies": [{"name": "fix", "policy": {"family": "FIX", "params": {"k": 0.1}}},
                        {"name": "reduce", "policy": {
                            "family": "PLATEAU_REDUCE",
                            "params": {"k": 0.1, "factor": 0.5, "patience": 1}}}]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    proc = run_cli("surface", "--manifest", str(path), "--out-dir", str(out), cwd=tmp_path)
    assert proc.returncode == 2
    assert "PLATEAU_REDUCE has no closed form" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("width", [1e200, 1e-200], ids=["square-overflows", "square-is-zero"])
def test_surface_rejects_a_well_width_whose_square_leaves_the_float_range(tmp_path, width):
    # MultiBasin divides by width**2 and by 2 * width**2
    with open(ESCAPE_MANIFEST, encoding="utf-8") as f:
        doc = json.load(f)
    doc["surface"]["wells"][1]["width"] = width
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    proc = run_cli("surface", "--manifest", str(path), "--out-dir", str(out), cwd=tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (f"error: surface.wells[1]: well width must keep width**2 nonzero and "
                           f"2 * width**2 finite, got {width!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("name", ["sub/nstep", "nst\0ep"])
def test_surface_policy_name_must_be_a_plain_file_name(tmp_path, capsys, name):
    with open(ESCAPE_MANIFEST, encoding="utf-8") as f:
        doc = json.load(f)
    doc["policies"][1]["name"] = name
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, err = lr(capsys, "surface", "--manifest", path, "--out-dir", tmp_path / "out")
    assert code == 2
    assert f"policies[1].name must be a plain file name, got {name!r}" in err
    assert not (tmp_path / "out").exists()


def test_surface_diverges_a_path_whose_lr_is_past_the_float_range(tmp_path, capsys):
    # each number passes the manifest's float gate; their exact product does not
    huge = 10**200
    doc = {**SURFACE, "policies": [{"family": "FIX", "params": {"k": huge}, "lambda": huge}]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["surface", "--manifest", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 0
    assert "(diverged)" in capsys.readouterr().out
    trace = (tmp_path / "out" / "path_FIX_0.csv").read_text().splitlines()
    assert trace == ["iteration,x,y,value", "0,1.0,1.0,1.0"]  # the start point only


# --- the leaderboard and the flags each command takes ---


def _cell(template, lam, metric_mean=None, metric_std=None, cost_iters=100.0, n_diverged=0):
    return tuner.CellResult(template=template, lam=lam, seeds=[0], outcomes=[],
                            metric_mean=metric_mean, metric_std=metric_std,
                            cost_iters=cost_iters, n_diverged=n_diverged,
                            reached_target=None)


# a template with its own lambda, past the 44-column policy cell
LONG_NAME = schedule.Scaled(lam=0.5, base=schedule.TriExp(k0=0.001, k1=0.25, l=100,
                                                          gamma=0.999))


def test_leaderboard_rows(capsys):
    fix, step = schedule.Fix(k=0.1), schedule.Step(k=0.2, gamma=0.5, l=10)
    cli._print_leaderboard(tuner.TuneResult("max_accuracy", [
        _cell(fix, 1.0, 0.91234, 0.00567, 80.0),
        _cell(LONG_NAME, 2.5, 0.5, 0.0),
        _cell(step, 0.1, cost_iters=12.0, n_diverged=1),
    ], budget=100))
    cli._print_leaderboard(tuner.TuneResult("min_cost", [
        _cell(fix, 1.0, 25.0, 5.0, 25.0),
        _cell(step, 3.0, 0.0, 0.0, 40.5),
        _cell(fix, 0.5, cost_iters=7.0, n_diverged=2),
        _cell(LONG_NAME, 1e-05),
    ], budget=100))
    assert capsys.readouterr().out == (
        "rank  policy                                           lambda    accuracy mean+-std  cost\n"
        "   1  FIX(k=0.1)                                            1        0.9123+-0.0057  80\n"
        "   2  TRIEXP(k0=0.001,k1=0.25,l=100,gamma=0.999...        2.5        0.5000+-0.0000  100\n"
        "   3  STEP(k=0.2,gamma=0.5,l=10)                          0.1              diverged  12\n"
        "rank  policy                                           lambda          iters@target  speedup  cost\n"
        "   1  FIX(k=0.1)                                            1                  25.0    4.00x  25\n"
        "   2  STEP(k=0.2,gamma=0.5,l=10)                            3                   0.0     inf   40\n"
        "   3  FIX(k=0.1)                                          0.5              diverged        -  7\n"
        "   4  TRIEXP(k0=0.001,k1=0.25,l=100,gamma=0.999...      1e-05         no target hit        -  100\n")


#: the flags that take a value, and the commands that take each
FLAG_COMMANDS = {
    "--manifest": {"train", "tune", "range-test", "surface"},
    "--out-dir": {"train", "tune", "range-test", "surface"},
    "--db": {"train", "tune", "range-test", "top-k"},
    "--workers": {"tune", "range-test"},
}
REQUIRED_ARGS = {"eval": ["--policy", "{}", "--t-max", "1"], "top-k": ["--task", "t"]}


@pytest.mark.parametrize("command", ["eval", "train", "tune", "range-test", "top-k", "surface"])
@pytest.mark.parametrize("flag", sorted(FLAG_COMMANDS))
def test_each_command_takes_its_flags(capsys, command, flag):
    base = [command, *REQUIRED_ARGS.get(command, ["--manifest", "m.json"])]
    parse = cli.build_parser().parse_args
    if command not in FLAG_COMMANDS[flag]:
        with pytest.raises(SystemExit):
            parse([*base, flag, "7"])
        assert f"unrecognized arguments: {flag} 7" in capsys.readouterr().err
        return
    args = parse([*base, flag, "7"])
    assert getattr(args, flag[2:].replace("-", "_")) == (7 if flag == "--workers" else "7")
    if flag == "--manifest":
        with pytest.raises(SystemExit):  # the one required flag
            parse([command])
        assert "the following arguments are required: --manifest" in capsys.readouterr().err
    else:
        assert getattr(parse(base), flag[2:].replace("-", "_")) is None
