"""Append-only JSONL store of trial records.

One line per record. A record's identity is (task, policy, lambda, seed);
appending the same identity with the same outcome is a no-op that returns
the existing id, while the same identity with a different outcome is
rejected. The outcome compared is the record's `OUTCOME_FIELDS`, the one
list of them that the record, its line's "outcome" object and the
trainer's `outcome.json` all read; wall time and timestamp are
informational and excluded, so deterministic reruns leave the file
untouched.

Each record's canonical policy string (`schedule.canonical_json` of its
wire dict) is computed once, when the record is loaded or appended, and is
shared by every record with an equal policy. The store keeps it in the
identity index and in a per-task index of (record, policy string) pairs in
line order; `records(task)` and `query_top_k` read only that task's list
and rank by the cached string, so a query never re-serializes a policy,
and an append splices it into the new line instead of encoding the policy
again.

Each new line, newline included, goes out in one `write(2)` on a
descriptor opened `O_APPEND` for it and closed after it, so it lands in
the file at the path now, even if that file was removed or replaced since
the store was opened; missing parent directories are made when the open
finds none.

An open reads the file line by line, so it holds the records plus one
line, never the whole file. Equal task, timestamp, `artifact_version` and
canonical policy strings are held once: one table, which lives as long as
the store, maps each to the first equal one read (an append adds its
policy string). Each record keeps its own policy dict: with fewer objects
for the cyclic garbage collector to track, its full collection would move
out of the open and into a later run of appends.

Each line is decoded by `schedule.read_json`, lrforge's one JSON reader:
UTF-8 without a BOM. A partially written trailing line (interrupted
writer), one that does not decode (not UTF-8, a BOM, not JSON, an int past
Python's digit limit, or nested past the recursion limit), is skipped with
a warning on load. Any other line that is not a record, whether it fails to
decode or parses to something else (a list, an object missing a field, a
field of the wrong type), raises ValueError("corrupt record at PATH:N").
The field types are the record's own rule, which `TrialRecord` checks when
built, so an append never writes a line that a later load rejects: the task
a str, the policy an object, the accuracies and lambda `schedule.finite`,
the iteration counts `schedule.count`s (iterations to target may be null),
the seed an int and `diverged` a bool; and, with a message of their own,
the informational fields: `wall_time_sec` finite or None, `timestamp` and
`artifact_version` a str or None. A policy holding a NaN or an infinity,
which JSON does not hold, raises TypeError too, when `key` encodes it.

A loaded line and an appended record pass one admission rule,
`PolicyStore._known`: a repeated identity (on load, two stores appending to
one file) is skipped when its outcome is the same and raises StoreConflict
when it differs, naming a loaded line `record at PATH:N`.
"""

from __future__ import annotations

import heapq
import logging
import os
import threading
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Optional

from .schedule import canonical_json, count, finite, need, need_count, policy_to_dict, read_json

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1
ENV_DB = "LRFORGE_DB"
DEFAULT_DB = "lr_trials.jsonl"

#: The outcome fields of a record, in its constructor's order: what a
#: repeated identity must match, and the keys of its line's "outcome" object.
OUTCOME_FIELDS = ("final_accuracy", "best_accuracy", "iterations_run",
                  "iterations_to_target", "diverged")
_outcome_of = attrgetter(*OUTCOME_FIELDS)
_outcome_from_obj = itemgetter(*OUTCOME_FIELDS)


def outcome_dict(outcome) -> dict:
    """The OUTCOME_FIELDS of a TrialOutcome or TrialRecord, by name."""
    return dict(zip(OUTCOME_FIELDS, _outcome_of(outcome)))


def resolve_db_path(explicit: Optional[str] = None) -> str:
    """Precedence: explicit flag/manifest value, then $LRFORGE_DB, then default."""
    if explicit:
        return explicit
    return os.environ.get(ENV_DB) or DEFAULT_DB


@dataclass(frozen=True)
class TrialRecord:
    task: str
    # wire dict of the policy that lam scales: a tune's template as given, its
    # own "lambda" included; `lr train`'s policy with its lambda moved to lam
    policy: dict
    lam: float
    seed: int
    final_accuracy: float
    best_accuracy: float
    iterations_run: int
    iterations_to_target: Optional[int]
    diverged: bool
    wall_time_sec: Optional[float] = None
    timestamp: Optional[str] = None
    artifact_version: Optional[str] = None

    def __post_init__(self):
        if not (type(self.task) is str and type(self.policy) is dict and type(self.seed) is int
                and type(self.diverged) is bool and finite(self.lam) and count(self.iterations_run)
                and finite(self.final_accuracy) and finite(self.best_accuracy)
                and (self.iterations_to_target is None or count(self.iterations_to_target))):
            need(False, "an identity or outcome field has the wrong type", error=TypeError)
        need((self.wall_time_sec is None or finite(self.wall_time_sec))
             and type(self.timestamp) in (str, type(None))
             and type(self.artifact_version) in (str, type(None)),
             "wall_time_sec must be finite or None, and timestamp and artifact_version "
             "a str or None", error=TypeError)

    def key(self) -> tuple:
        try:
            policy_text = canonical_json(self.policy)
        except ValueError:  # a NaN or an infinity in the policy, which JSON does not hold
            need(False, "policy must hold no NaN or infinity", error=TypeError)
        return (self.task, policy_text, self.lam, self.seed)

    def stable_outcome(self) -> tuple:
        return _outcome_of(self)

    def cost(self) -> int:
        return (self.iterations_to_target
                if self.iterations_to_target is not None else self.iterations_run)


def make_record(task: str, template, lam: float, seed: int, outcome,
                timestamp: Optional[str] = None) -> TrialRecord:
    from . import __version__

    return TrialRecord(task, policy_to_dict(template), float(lam), int(seed),
                       *_outcome_of(outcome), wall_time_sec=outcome.wall_time_sec,
                       timestamp=timestamp, artifact_version=__version__)


def _record_to_line(record: TrialRecord, policy_text: str) -> str:
    """`canonical_json` of the record's line, given its policy's canonical text.

    The line is encoded with a 0 in the policy's place, and the text is
    spliced over it. `"policy":0,` can only be the top-level key: inside an
    encoded string every quote is escaped, and no key sorted before it is
    named "policy".
    """
    obj = {
        "v": SCHEMA_VERSION,
        "task": record.task,
        "policy": 0,
        "lambda": record.lam,
        "seed": record.seed,
        "outcome": outcome_dict(record),
        "wall_time_sec": record.wall_time_sec,
        "timestamp": record.timestamp,
        "artifact_version": record.artifact_version,
    }
    return canonical_json(obj).replace('"policy":0,', f'"policy":{policy_text},', 1)


def _record_from_obj(obj: dict, held: Optional[dict] = None) -> TrialRecord:
    """The record a decoded line holds; a line that is no record raises
    AttributeError, KeyError or TypeError. Its task, timestamp and version are
    the equal objects `held` maps them to, and are added there when new."""
    v = obj.get("v")
    if v != SCHEMA_VERSION:
        need(False, "unsupported record schema version %r", v)
    hold = {}.setdefault if held is None else held.setdefault
    task, timestamp, version = obj["task"], obj.get("timestamp"), obj.get("artifact_version")
    return TrialRecord(hold(task, task), obj["policy"], obj["lambda"], obj["seed"],
                       *_outcome_from_obj(obj["outcome"]), obj.get("wall_time_sec"),
                       hold(timestamp, timestamp), hold(version, version))


class StoreConflict(ValueError):
    """Same (task, policy, lambda, seed) appended with a different outcome."""


def _rank_max_accuracy(entry: tuple) -> tuple:
    r, policy_key = entry
    return (1 if r.diverged else 0, -r.final_accuracy,
            r.cost(), policy_key, r.lam, r.seed)


def _rank_min_cost(entry: tuple) -> tuple:
    r, policy_key = entry
    unreached = r.diverged or r.iterations_to_target is None
    return (1 if unreached else 0, 0 if unreached else r.iterations_to_target,
            r.cost(), policy_key, r.lam, r.seed)


#: Sort keys over (record, policy string) index entries, best first. Past
#: the objective, ties break on cost, then on the identity, which is unique.
_RANK = {"max_accuracy": _rank_max_accuracy, "min_cost": _rank_min_cost}


class PolicyStore:
    """JSONL-backed record store with idempotent appends.

    Ids are 0-based indices of the distinct records, in the order of the
    lines that first hold them. The lock makes each append's lookup,
    write and index update one step, so threads sharing a store object
    never write one identity twice or interleave partial lines. It does
    not guard against another process appending to the same file; that
    each line is one `O_APPEND` write only keeps two writers' lines whole.

    Each new line is one `os.open`, `os.write` and `os.close` of the path,
    so no descriptor outlives an append. A record is checked when built,
    so `append` never writes a line that a later open would reject.
    """

    def __init__(self, path):
        self.path = str(path)
        self._lock = threading.Lock()
        self._records: list[TrialRecord] = []
        self._by_key: dict[tuple, int] = {}
        self._by_task: dict[str, list[tuple[TrialRecord, str]]] = {}
        self._held: dict = {}  # one object for each distinct string the records hold
        self._load()

    def _known(self, record: TrialRecord, line: int = 0) -> tuple[tuple, Optional[int]]:
        """The record's identity and the id stored under it, or None if new.

        The identity is `record.key()`, its policy string shared with equal
        earlier ones. An identity stored with a different outcome raises
        StoreConflict; `line`, when not 0, is the record's line in the file
        being loaded.
        """
        task, policy_key, lam, seed = record.key()
        key = task, self._held.setdefault(policy_key, policy_key), lam, seed
        existing_id = self._by_key.get(key)
        if (existing_id is not None
                and self._records[existing_id].stable_outcome() != record.stable_outcome()):
            need(False, "record%s for %s already exists with a different outcome",
                 f" at {self.path}:{line}" if line else "", key, error=StoreConflict)
        return key, existing_id

    def _index(self, record: TrialRecord, key: tuple) -> int:
        new_id = len(self._records)
        self._records.append(record)
        self._by_key[key] = new_id
        self._by_task.setdefault(record.task, []).append((record, key[1]))
        return new_id

    def _load(self):
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as f:
            for i, line in enumerate(f, 1):
                unterminated = not line.endswith(b"\n")
                try:
                    obj = read_json(line)
                except ValueError:  # any text that read_json does not decode
                    if unterminated:
                        # interrupted writer; drop the unfinished bytes so the
                        # next append starts on a fresh line
                        log.warning("dropping partial trailing line in %s", self.path)
                        os.truncate(self.path, f.tell() - len(line))
                        break
                    obj = None  # no record, reported as one below
                try:
                    record = _record_from_obj(obj, self._held)
                    key, existing_id = self._known(record, i)
                except (AttributeError, KeyError, TypeError):
                    raise ValueError(f"corrupt record at {self.path}:{i}") from None
                if existing_id is None:
                    self._index(record, key)
                if unterminated:
                    self._write(b"\n")
                    break  # the file is read to its end, and now ends in the newline

    def __len__(self) -> int:
        return len(self._records)

    def append(self, record: TrialRecord) -> int:
        """Persist one record; duplicate identities are idempotent."""
        with self._lock:
            key, existing_id = self._known(record)
            if existing_id is not None:
                return existing_id
            self._write((_record_to_line(record, key[1]) + "\n").encode())
            return self._index(record, key)

    def _write(self, data: bytes):
        """Append `data` to the file now at the path, in one write if the OS allows."""
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        try:
            fd = os.open(self.path, flags, 0o666)
        except FileNotFoundError:  # a parent directory is missing
            os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
            fd = os.open(self.path, flags, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)

    def records(self, task: Optional[str] = None) -> list[TrialRecord]:
        if task is None:
            return list(self._records)
        return [r for r, _ in self._by_task.get(task, ())]

    def query_top_k(self, task: str, k: int, objective: str = "max_accuracy"
                    ) -> list[TrialRecord]:
        """Best k records for a task; top-(k-1) is always a prefix of top-k."""
        need_count("k", k)
        rank = _RANK.get(objective)
        if rank is None:
            need(False, "objective must be max_accuracy or min_cost, got %r", objective)
        # the same answer as sorted(...)[:k], without sorting every candidate
        entries = heapq.nsmallest(k, self._by_task.get(task, ()), key=rank)
        return [r for r, _ in entries]
