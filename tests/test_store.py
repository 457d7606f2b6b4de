"""JSONL trial store: idempotent appends, recovery, top-k queries."""

import json
import os
import subprocess
import sys
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrforge import __version__
from lrforge.schedule import (
    Composite,
    CosineDecay,
    Fix,
    Scaled,
    Segment,
    Step,
    Tri2,
    Warmup,
    canonical_json,
    canonical_policy_key,
    policy_from_json,
)
from lrforge.store import (
    DEFAULT_DB,
    OUTCOME_FIELDS,
    PolicyStore,
    StoreConflict,
    TrialRecord,
    make_record,
    resolve_db_path,
)
from lrforge.trainer import TrialOutcome


_OUTCOME = TrialOutcome(final_accuracy=0.8, best_accuracy=0.85,
                        iterations_run=50, iterations_to_target=40,
                        diverged=False, wall_time_sec=2.0)


def _rec(task="blobs", k=0.1, lam=1.0, seed=0, acc=0.9, best=None, iters=100,
         to_target=None, diverged=False, wall=1.5, ts="2026-01-01T00:00:00Z"):
    return TrialRecord(task=task, policy={"family": "FIX", "params": {"k": k}},
                       lam=lam, seed=seed, final_accuracy=acc,
                       best_accuracy=best if best is not None else acc,
                       iterations_run=iters, iterations_to_target=to_target,
                       diverged=diverged, wall_time_sec=wall, timestamp=ts,
                       artifact_version="x")


def test_append_assigns_line_ids(tmp_path):
    store = PolicyStore(tmp_path / "db.jsonl")
    assert store.append(_rec(k=0.1)) == 0
    assert store.append(_rec(k=0.2)) == 1
    assert store.append(_rec(k=0.3)) == 2
    assert len(store) == 3


def test_duplicate_append_is_a_byte_level_noop(tmp_path):
    path = tmp_path / "db.jsonl"
    store = PolicyStore(path)
    store.append(_rec())
    before = path.read_bytes()
    # same identity, same outcome, different timing: still a no-op
    again = _rec(wall=99.0, ts="2030-12-31T23:59:59Z")
    assert store.append(again) == 0
    assert path.read_bytes() == before
    assert len(store) == 1


def test_conflicting_outcome_is_rejected(tmp_path):
    store = PolicyStore(tmp_path / "db.jsonl")
    store.append(_rec(acc=0.9))
    with pytest.raises(StoreConflict):
        store.append(_rec(acc=0.91))


def test_a_line_repeating_an_identity_loads_once(tmp_path):
    path = tmp_path / "db.jsonl"
    first, second = PolicyStore(path), PolicyStore(path)
    first.append(_rec())
    second.append(_rec(wall=9.0))  # same stable outcome, other timing
    assert len(path.read_text().splitlines()) == 2
    reopened = PolicyStore(path)
    assert len(reopened) == 1
    assert reopened.records() == reopened.records("blobs") == [_rec()]
    assert reopened.query_top_k("blobs", 5) == [_rec()]
    before = path.read_bytes()
    assert reopened.append(_rec()) == 0
    assert path.read_bytes() == before


def test_a_line_repeating_an_identity_with_another_outcome_fails_to_load(tmp_path):
    path = tmp_path / "db.jsonl"
    first, second = PolicyStore(path), PolicyStore(path)
    first.append(_rec(k=0.2))
    first.append(_rec(acc=0.9))
    second.append(_rec(acc=0.91))
    with pytest.raises(StoreConflict, match=r"db\.jsonl:3 .*different outcome"):
        PolicyStore(path)


def test_identity_includes_task_lambda_and_seed(tmp_path):
    store = PolicyStore(tmp_path / "db.jsonl")
    store.append(_rec())
    assert store.append(_rec(task="moons", acc=0.5)) == 1
    assert store.append(_rec(lam=2.0, acc=0.5)) == 2
    assert store.append(_rec(seed=1, acc=0.5)) == 3


def test_records_filter_and_task_order(tmp_path):
    path = tmp_path / "db.jsonl"
    store = PolicyStore(path)
    store.append(_rec(task="b", k=0.1))
    store.append(_rec(task="a", k=0.1))
    store.append(_rec(task="b", k=0.2, acc=0.95))
    reopened = PolicyStore(path)
    reopened.append(_rec(task="a", k=0.2))
    reopened.append(_rec(task="b", k=0.3, acc=0.5))
    assert [r.task for r in reopened.records()] == ["b", "a", "b", "a", "b"]
    # line order per task, across the load and later appends
    assert [r.policy["params"]["k"] for r in reopened.records("b")] == [0.1, 0.2, 0.3]
    assert [r.policy["params"]["k"] for r in reopened.records("a")] == [0.1, 0.2]
    assert reopened.records("nope") == []
    # a caller's list is its own: changing it leaves the store alone
    top = reopened.query_top_k("b", k=3)
    got = reopened.records("b")
    got.clear()
    reopened.records("nope").append(_rec(task="nope"))
    assert len(reopened.records("b")) == 3
    assert reopened.records("nope") == []
    assert reopened.query_top_k("b", k=3) == top
    assert reopened.query_top_k("nope", k=3) == []


def test_reopen_sees_the_same_records(tmp_path):
    path = tmp_path / "db.jsonl"
    store = PolicyStore(path)
    store.append(_rec(k=0.1))
    store.append(_rec(k=0.2, acc=0.95))
    reopened = PolicyStore(path)
    assert len(reopened) == 2
    assert reopened.records() == store.records()
    # appends continue after the existing lines
    assert reopened.append(_rec(k=0.3)) == 2


# an interrupted writer's last line: cut inside the JSON, (from a writer
# that does not escape non-ASCII text) inside a character's UTF-8 bytes, or
# nested too deep to decode
@pytest.mark.parametrize("tail", [b'{"v":1,"task":"blo', b'{"v":1,"task":"bl\xc3',
                                  pytest.param(b"[" * 100000, id="nested-too-deep")])
def test_partial_trailing_line_is_dropped_and_truncated(tmp_path, caplog, tail):
    path = tmp_path / "db.jsonl"
    store = PolicyStore(path)
    store.append(_rec(k=0.1))
    store.append(_rec(k=0.2, acc=0.95))
    whole = path.read_bytes()
    path.write_bytes(whole + tail)
    with caplog.at_level("WARNING", logger="lrforge.store"):
        recovered = PolicyStore(path)
    assert "partial trailing line" in caplog.text
    assert len(recovered) == 2
    assert path.read_bytes() == whole  # garbage bytes removed from disk
    # the next append lands on its own line and reloads cleanly
    recovered.append(_rec(k=0.3))
    assert len(PolicyStore(path)) == 3


def test_missing_final_newline_is_repaired(tmp_path):
    path = tmp_path / "db.jsonl"
    store = PolicyStore(path)
    store.append(_rec(k=0.1))
    store.append(_rec(k=0.2, acc=0.95))
    whole = path.read_bytes()
    path.write_bytes(whole[:-1])  # complete record, newline lost
    recovered = PolicyStore(path)
    assert len(recovered) == 2
    assert path.read_bytes() == whole
    recovered.append(_rec(k=0.3))
    assert len(PolicyStore(path)) == 3


def _line(record: TrialRecord, **changes) -> bytes:
    """The record's line with top-level keys replaced, a value of None dropping its key."""
    obj = json.loads(_full_line(record))
    obj.update(changes)
    return json.dumps({k: v for k, v in obj.items() if v is not None}).encode()


def test_mid_file_corruption_is_an_error(tmp_path):
    path = tmp_path / "db.jsonl"
    store = PolicyStore(path)
    store.append(_rec(k=0.1))
    store.append(_rec(k=0.2, acc=0.95))
    good = path.read_bytes().split(b"\n")
    full = json.loads(good[0])["outcome"]
    outcome = dict(full)
    del outcome["best_accuracy"]
    # a field of the wrong type: an accuracy or lambda that is no finite number,
    # an iteration count that is no count, a seed that is no int, a diverged
    # flag that is no bool, a task that is no str, a policy that is no object or
    # holds a NaN, a wall time that is no finite number or None, a timestamp or
    # version no str or None
    wrong = [_line(_rec(), outcome={**full, key: value}) for key, value in [
        ("final_accuracy", "x"), ("best_accuracy", float("nan")), ("final_accuracy", True),
        ("iterations_run", 2.5), ("iterations_run", -1), ("iterations_to_target", "x"),
        ("iterations_to_target", False), ("diverged", "no"), ("diverged", 0)]]
    wrong += [_line(_rec(), **{"lambda": "x"}), _line(_rec(), **{"lambda": float("inf")}),
              _line(_rec(), seed=1.5), _line(_rec(), seed=True), _line(_rec(), task=5),
              _line(_rec(), policy=[{"family": "FIX"}]), _line(_rec(), wall_time_sec="x"),
              _line(_rec(), policy={"family": "FIX", "params": {"k": float("nan")}}),
              _line(_rec(), wall_time_sec=float("nan")), _line(_rec(), timestamp=5),
              _line(_rec(), artifact_version=1)]
    # an int past Python's 4300-digit limit, which does not decode
    too_long = _line(_rec(), seed=7).replace(b'"seed": 7', b'"seed": ' + b"7" * 5000)
    # lines that do not decode or parse (nested past the recursion limit, or a good
    # line behind a BOM, which RFC 8259 forbids), and lines that parse to something
    # not a record
    for bad in [b"not json", b'{"v": 1, "task": "t\xff"}', too_long,
                b"[" * 100000 + b"]" * 100000, b"\xef\xbb\xbf" + good[0], b"[1, 2]",
                _line(_rec(), outcome=None),
                _line(_rec(), outcome=outcome), _line(_rec(), outcome=[1, 2]),
                _line(_rec(), **{"lambda": [1.0]}), *wrong]:
        path.write_bytes(b"\n".join([bad] + good[1:]))
        with pytest.raises(ValueError, match="corrupt record at .*:1$"):
            PolicyStore(path)


def test_a_line_decodes_into_the_record_fields_the_outcome_fields_name():
    # a line's outcome values are passed positionally, after the identity
    assert tuple(f.name for f in fields(TrialRecord))[4:9] == OUTCOME_FIELDS
    assert set(OUTCOME_FIELDS) < {f.name for f in fields(TrialOutcome)}


def test_unknown_schema_version_is_an_error(tmp_path):
    path = tmp_path / "db.jsonl"
    line = json.dumps({"v": 999, "task": "t", "policy": {}, "lambda": 1.0,
                       "seed": 0, "outcome": {}})
    path.write_text(line + "\n")
    with pytest.raises(ValueError, match="schema version"):
        PolicyStore(path)


def test_resolve_db_path_precedence(monkeypatch):
    monkeypatch.delenv("LRFORGE_DB", raising=False)
    assert resolve_db_path() == DEFAULT_DB
    monkeypatch.setenv("LRFORGE_DB", "/tmp/env.jsonl")
    assert resolve_db_path() == "/tmp/env.jsonl"
    assert resolve_db_path("/tmp/explicit.jsonl") == "/tmp/explicit.jsonl"


def test_make_record_copies_outcome_and_stamps_version():
    rec = make_record("blobs", Step(k=0.1, gamma=0.5, l=3), lam=2.0, seed=7,
                      outcome=_OUTCOME, timestamp="2026-02-03T04:05:06Z")
    assert rec.policy == {"family": "STEP",
                          "params": {"k": 0.1, "gamma": 0.5, "l": 3}}
    assert rec.lam == 2.0 and rec.seed == 7
    assert rec.stable_outcome() == (0.8, 0.85, 50, 40, False)
    assert rec.artifact_version == __version__
    assert rec.cost() == 40
    assert _rec(to_target=None, iters=123).cost() == 123


@pytest.mark.parametrize("template", [
    Warmup(w=0.1, inner=Warmup(w=5, inner=CosineDecay(k=0.5, t_max=100))),
    Composite(segments=(Segment(0, 50, Fix(k=0.2)),
                        Segment(50, 100, Scaled(lam=0.5, base=Tri2(k0=0.1, k1=1.0, l=10))))),
    Scaled(lam=3.0, base=Scaled(lam=0.5, base=Step(k=0.1, gamma=0.5, l=3))),
], ids=["nested-warmup", "multi", "scaled"])
def test_record_identity_uses_the_canonical_policy_key(tmp_path, template):
    # the store's identity and the tuner's tie-break key are one encoding
    rec = make_record("blobs", template, lam=1.0, seed=0, outcome=_OUTCOME)
    assert rec.key()[1] == canonical_policy_key(template)
    store = PolicyStore(tmp_path / "db.jsonl")
    store.append(rec)
    assert PolicyStore(store.path).records()[0].key() == rec.key()


def _full_line(r: TrialRecord) -> str:
    """The record's line, encoded in one piece, policy and all."""
    return canonical_json({
        "v": 1, "task": r.task, "policy": r.policy, "lambda": r.lam, "seed": r.seed,
        "outcome": {"final_accuracy": r.final_accuracy, "best_accuracy": r.best_accuracy,
                    "iterations_run": r.iterations_run,
                    "iterations_to_target": r.iterations_to_target,
                    "diverged": r.diverged},
        "wall_time_sec": r.wall_time_sec, "timestamp": r.timestamp,
        "artifact_version": r.artifact_version})


def test_appended_lines_equal_the_whole_record_encoded_at_once(tmp_path):
    templates = [
        Warmup(w=0.1, inner=Warmup(w=5, inner=CosineDecay(k=0.5, t_max=100))),
        Composite(segments=(Segment(0, 50, Fix(k=0.2)),
                            Segment(50, 100, Scaled(lam=0.5, base=Tri2(k0=0.1, k1=1.0, l=10))))),
        Scaled(lam=3.0, base=Scaled(lam=0.5, base=Step(k=0.1, gamma=0.5, l=3))),
        Fix(k=1),
    ]
    records = [make_record(task, template, lam=1.0, seed=seed, outcome=_OUTCOME,
                           timestamp="2026-02-03T04:05:06Z")
               for template in templates for seed, task in enumerate(["blobs", "mōons ✓"])]
    records += [
        # an int and a float lambda are one identity, so they differ by seed
        replace(records[0], lam=2, seed=10), replace(records[0], lam=2.0, seed=11),
        replace(records[1], seed=12, wall_time_sec=None, timestamp=None,
                artifact_version=None, iterations_to_target=None, diverged=True),
        # the placeholder text inside strings, before and after the policy key
        replace(records[2], task='"policy":0,', artifact_version='"policy":0,'),
    ]
    path = tmp_path / "db.jsonl"
    store = PolicyStore(path)
    for r in records:
        store.append(r)
    want = "".join(_full_line(r) + "\n" for r in records)
    assert path.read_bytes() == want.encode()
    assert '"lambda":2,' in want and '"lambda":2.0,' in want
    assert PolicyStore(path).records() == records


def test_an_append_after_the_file_is_removed_recreates_it(tmp_path):
    path = tmp_path / "db.jsonl"
    store = PolicyStore(path)
    store.append(_rec(k=0.1))
    path.unlink()
    store.append(_rec(k=0.2))
    assert path.read_text() == _full_line(_rec(k=0.2)) + "\n"


def test_an_append_after_the_file_is_replaced_lands_in_the_new_file(tmp_path):
    path, other = tmp_path / "db.jsonl", tmp_path / "other.jsonl"
    store = PolicyStore(path)
    store.append(_rec(k=0.1))
    first = path.read_bytes()
    PolicyStore(other).append(_rec(k=0.5))
    os.replace(other, path)
    store.append(_rec(k=0.2))
    assert path.read_text() == "".join(_full_line(_rec(k=k)) + "\n" for k in (0.5, 0.2))
    assert first == (_full_line(_rec(k=0.1)) + "\n").encode()


def test_no_descriptor_outlives_an_append(tmp_path):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd to list this process's descriptors")
    path = tmp_path / "db.jsonl"
    before = sorted(os.listdir("/proc/self/fd"))
    store = PolicyStore(path)
    store.append(_rec(k=0.1))
    store.append(_rec(k=0.1))  # idempotent: writes nothing
    path.write_bytes(path.read_bytes()[:-1])
    repaired = PolicyStore(path)  # appends the lost newline
    repaired.append(_rec(k=0.2))
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert len(PolicyStore(path)) == 2


WRONG_IDENTITY = "^an identity or outcome field has the wrong type$"
WRONG_INFO = "^wall_time_sec must be finite or None, and timestamp and artifact_version"


@pytest.mark.parametrize("change, match", [
    ({"lam": float("nan")}, WRONG_IDENTITY), ({"seed": True}, WRONG_IDENTITY),
    ({"policy": [{"family": "FIX"}]}, WRONG_IDENTITY),
    # JSON holds no NaN or infinity, in the policy dict as anywhere
    ({"policy": {"family": "FIX", "params": {"k": float("nan")}}},
     "^policy must hold no NaN or infinity$"),
    ({"policy": {"family": "FIX", "params": {"k": float("-inf")}}},
     "^policy must hold no NaN or infinity$"),
    # the informational fields: NaN is not JSON, and a load rejects any other type
    ({"wall_time_sec": float("nan")}, WRONG_INFO), ({"timestamp": 5}, WRONG_INFO),
    ({"artifact_version": 1}, WRONG_INFO)])
def test_a_record_a_load_would_reject_is_never_appended(tmp_path, change, match):
    path = tmp_path / "db.jsonl"
    store = PolicyStore(path)
    store.append(_rec(k=0.1))
    before = path.read_bytes()
    with pytest.raises(TypeError, match=match):
        store.append(replace(_rec(k=0.2), **change))
    assert path.read_bytes() == before
    assert PolicyStore(path).records() == [_rec(k=0.1)]


@settings(derandomize=True, deadline=None)
@given(data=st.binary())
@example(data=b"[" * 100000 + b"]" * 100000)  # nested past the recursion limit
@example(data=b'\xef\xbb\xbf{"family": "FIX", "params": {"k": 0.1}}\n')  # a BOM
@example(data=b'"\xed\xa0\x80"')  # a lone surrogate, which UTF-8 does not encode
@example(data=b"7" * 5000)  # an int past Python's digit limit
def test_hostile_bytes_are_read_or_rejected_with_value_error(tmp_path_factory, data):
    # both readers go through schedule.read_json: whatever the bytes, each
    # returns or raises ValueError, never another exception
    try:
        policy_from_json(data)
    except ValueError:
        pass
    path = tmp_path_factory.mktemp("dbs") / "db.jsonl"
    path.write_bytes(data)
    try:
        PolicyStore(path)
    except ValueError:
        pass
    # the file changes only by the tail repair: an unterminated last line that
    # does not decode is cut off, and one that holds a record gets its newline
    last = data.rpartition(b"\n")[2]
    assert path.read_bytes() in (data, data[:len(data) - len(last)], data + b"\n")
    os.remove(path)


_WRITER = """
import sys
from lrforge.store import PolicyStore, TrialRecord
store = PolicyStore(sys.argv[1])
print("open", flush=True)
sys.stdin.read()  # appends start when stdin is closed
task = sys.argv[2] * 4500  # a line longer than a 4 KB page
for i in range(200):
    store.append(TrialRecord(task, {"family": "FIX", "params": {"k": 0.1}}, float(i), 0,
                             0.5, 0.5, 10, None, False))
"""


def test_two_processes_appending_to_one_file_keep_every_line_whole(tmp_path):
    # each line is one O_APPEND write(2), so lines of concurrent writers never interleave
    path = tmp_path / "db.jsonl"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
        os.environ.get("PYTHONPATH")]))}

    def writer(name):
        return subprocess.Popen([sys.executable, "-c", _WRITER, str(path), name], env=env,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    with writer("a") as a, writer("b") as b:
        for w in (a, b):  # both stores are open before either appends
            assert w.stdout.readline() == "open\n"
        for w in (a, b):
            w.stdin.close()
        assert [w.wait(timeout=30) for w in (a, b)] == [0, 0]
    lines = path.read_bytes().split(b"\n")
    assert lines.pop() == b"" and len(lines) == 400
    assert sorted((r["task"][0], r["lambda"]) for r in map(json.loads, lines)) == sorted(
        (name, float(i)) for name in "ab" for i in range(200))
    assert len(PolicyStore(path)) == 400


def test_top_k_ranking_and_validation(tmp_path):
    store = PolicyStore(tmp_path / "db.jsonl")
    store.append(_rec(k=0.1, acc=0.7, iters=100))
    store.append(_rec(k=0.2, acc=0.9, iters=100))
    store.append(_rec(k=0.3, acc=0.0, iters=10, diverged=True))
    store.append(_rec(k=0.4, acc=0.9, iters=50))
    top = store.query_top_k("blobs", k=4)
    # accuracy first; the 0.9 tie breaks on fewer iterations; diverged last
    assert [r.policy["params"]["k"] for r in top] == [0.4, 0.2, 0.1, 0.3]
    assert store.query_top_k("blobs", k=0) == []
    assert store.query_top_k("nope", k=5) == []
    with pytest.raises(ValueError, match="k must be"):
        store.query_top_k("blobs", k=-1)
    with pytest.raises(ValueError, match="objective"):
        store.query_top_k("blobs", k=1, objective="best")


def test_top_k_min_cost_puts_unreached_last(tmp_path):
    store = PolicyStore(tmp_path / "db.jsonl")
    store.append(_rec(k=0.1, to_target=300, iters=300))
    store.append(_rec(k=0.2, to_target=80, iters=80))
    store.append(_rec(k=0.3, to_target=None, iters=1000))
    store.append(_rec(k=0.4, to_target=50, iters=50, diverged=True))
    top = store.query_top_k("blobs", k=4, objective="min_cost")
    assert [r.policy["params"]["k"] for r in top[:2]] == [0.2, 0.1]
    assert {r.policy["params"]["k"] for r in top[2:]} == {0.3, 0.4}


@settings(max_examples=60, deadline=None)
@given(accs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                     max_size=12),
       objective=st.sampled_from(["max_accuracy", "min_cost"]),
       data=st.data())
def test_top_k_prefix_stability(tmp_path_factory, accs, objective, data):
    # top-(k-1) must always be the first k-1 rows of top-k
    path = tmp_path_factory.mktemp("dbs") / "db.jsonl"
    store = PolicyStore(path)
    for i, acc in enumerate(accs):
        to_target = data.draw(st.one_of(st.none(), st.integers(1, 500)))
        store.append(_rec(k=0.1 * (i + 1), acc=acc, iters=500,
                          to_target=to_target))
    ranked = store.query_top_k("blobs", k=len(accs), objective=objective)
    for k in range(len(accs) + 1):
        assert store.query_top_k("blobs", k=k, objective=objective) == ranked[:k]
    os.remove(path)


def _brute_top_k(records, k, objective):
    """The ranking as a full sort with the policy serialized per record."""
    def key(r):
        policy_key = json.dumps(r.policy, sort_keys=True, separators=(",", ":"))
        tie = (r.cost(), policy_key, r.lam, r.seed)
        if objective == "max_accuracy":
            return (1 if r.diverged else 0, -r.final_accuracy) + tie
        unreached = r.diverged or r.iterations_to_target is None
        value = r.iterations_to_target if not unreached else 0
        return (1 if unreached else 0, value) + tie

    return sorted(records, key=key)[:k]


_record_fields = st.fixed_dictionaries({
    "task": st.sampled_from(["t0", "t1", "t2", "t3"]),
    # few distinct values, so accuracy, cost and policy all tie often
    "k": st.sampled_from([0.1, 0.2]),
    "lam": st.sampled_from([0.5, 1.0]),
    "seed": st.integers(0, 2),
    "acc": st.sampled_from([0.0, 0.5, 0.9]),
    "iters": st.sampled_from([10, 100]),
    "to_target": st.one_of(st.none(), st.sampled_from([5, 10])),
    "diverged": st.booleans(),
})


@settings(max_examples=60, deadline=None)
@given(fields=st.lists(_record_fields, max_size=30,
                       unique_by=lambda f: (f["task"], f["k"], f["lam"], f["seed"])),
       data=st.data())
def test_top_k_equals_a_full_sort_across_load_and_append(tmp_path_factory, fields, data):
    records = [_rec(**f) for f in fields]
    split = data.draw(st.integers(0, len(records)))
    tmp = tmp_path_factory.mktemp("dbs")
    # every record through the append path; then the same records split
    # between the load path and later appends; then all of them loaded
    appended = PolicyStore(tmp / "appended.jsonl")
    for r in records:
        appended.append(r)
    first = PolicyStore(tmp / "db.jsonl")
    for r in records[:split]:
        first.append(r)
    store = PolicyStore(tmp / "db.jsonl")
    for r in records[split:]:
        store.append(r)
    reopened = PolicyStore(tmp / "db.jsonl")
    for task in ("t0", "t1", "t2", "t3", "nope"):
        mine = store.records(task)
        assert mine == [r for r in records if r.task == task]
        for objective in ("max_accuracy", "min_cost"):
            for k in range(len(mine) + 2):
                want = _brute_top_k(mine, k, objective)
                assert store.query_top_k(task, k, objective) == want
                # the load path and the append path build the same index
                assert reopened.query_top_k(task, k, objective) == want
                assert appended.query_top_k(task, k, objective) == want
