"""Behaviour fingerprint: every shipped manifest, byte for byte.

Each `manifests/*.json` runs through `lr` in a fresh directory. The sha256
of every artifact it writes, and of its DB lines with the timing fields
(`timestamp`, `wall_time_sec`) removed, must equal `fingerprint.json`.
The determinism tests only compare a run with itself; this pins the
outputs across refactors, so a change that moves one float in the last
bit fails here.

Regenerate only when outputs are meant to change, and say why:

    PYTHONPATH=src python tests/test_fingerprint.py
"""

import contextlib
import glob
import hashlib
import io
import json
import os
import sys

import pytest

from lrforge import cli

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFESTS = sorted(glob.glob(os.path.join(REPO, "manifests", "*.json")))
FINGERPRINT = os.path.join(REPO, "tests", "fingerprint.json")
TIMING_KEYS = ("timestamp", "wall_time_sec")

# which `lr` command a manifest is for, by its distinguishing section
COMMANDS = (("search", "tune"), ("range_test", "range-test"),
            ("surface", "surface"), ("policy", "train"))


def _command(doc: dict) -> str:
    return next(cmd for key, cmd in COMMANDS if key in doc)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(manifest: str, workdir: str) -> dict:
    """Run one manifest through `lr` and digest what it leaves behind."""
    with open(manifest, encoding="utf-8") as f:
        command = _command(json.load(f))
    out = os.path.join(workdir, "out")
    db = os.path.join(workdir, "db.jsonl")
    argv = [command, "--manifest", manifest, "--out-dir", out]
    if command != "surface":
        argv += ["--db", db]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    artifacts = {}
    for dirpath, _, names in os.walk(out):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                artifacts[os.path.relpath(path, out)] = _sha(f.read())
    lines = []
    if os.path.exists(db):
        with open(db, encoding="utf-8") as f:
            for line in f:
                obj = json.loads(line)
                for key in TIMING_KEYS:
                    obj.pop(key)
                lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    return {"command": command, "exit": code, "artifacts": dict(sorted(artifacts.items())),
            "db_lines": len(lines), "db": _sha("\n".join(lines).encode())}


def _expected() -> dict:
    with open(FINGERPRINT, encoding="utf-8") as f:
        return json.load(f)


def test_every_manifest_is_fingerprinted():
    assert sorted(_expected()) == [os.path.basename(m) for m in MANIFESTS]


@pytest.mark.parametrize("manifest", MANIFESTS, ids=os.path.basename)
def test_manifest_outputs_match_fingerprint(manifest, tmp_path):
    got = fingerprint(manifest, str(tmp_path))
    assert got == _expected()[os.path.basename(manifest)]


if __name__ == "__main__":
    import tempfile

    result = {}
    for m in MANIFESTS:
        with tempfile.TemporaryDirectory() as tmp:
            result[os.path.basename(m)] = fingerprint(m, tmp)
    with open(FINGERPRINT, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {FINGERPRINT}", file=sys.stderr)
