"""Append-only JSONL store of trial records.

One line per record. A record's identity is (task, policy, lambda, seed);
appending the same identity with the same outcome is a no-op that returns
the existing id, while the same identity with a different outcome is
rejected. Wall time and timestamp are informational and excluded from
that comparison, so deterministic reruns leave the file untouched.

A partially written trailing line (interrupted writer) is skipped with a
warning on load; corruption anywhere else is an error.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass
from typing import Optional

from .schedule import canonical_policy_key, policy_to_dict

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1
ENV_DB = "LRFORGE_DB"
DEFAULT_DB = "lr_trials.jsonl"


def resolve_db_path(explicit: Optional[str] = None) -> str:
    """Precedence: explicit flag/manifest value, then $LRFORGE_DB, then default."""
    if explicit:
        return explicit
    return os.environ.get(ENV_DB) or DEFAULT_DB


@dataclass(frozen=True)
class TrialRecord:
    task: str
    policy: dict          # serialized template, without lambda
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

    def key(self) -> tuple:
        return (self.task,
                json.dumps(self.policy, sort_keys=True, separators=(",", ":")),
                self.lam, self.seed)

    def stable_outcome(self) -> tuple:
        return (self.final_accuracy, self.best_accuracy, self.iterations_run,
                self.iterations_to_target, self.diverged)

    def cost(self) -> int:
        return (self.iterations_to_target
                if self.iterations_to_target is not None else self.iterations_run)


def make_record(task: str, template, lam: float, seed: int, outcome,
                timestamp: Optional[str] = None) -> TrialRecord:
    from . import __version__

    return TrialRecord(
        task=task, policy=policy_to_dict(template), lam=float(lam), seed=int(seed),
        final_accuracy=outcome.final_accuracy, best_accuracy=outcome.best_accuracy,
        iterations_run=outcome.iterations_run,
        iterations_to_target=outcome.iterations_to_target,
        diverged=outcome.diverged, wall_time_sec=outcome.wall_time_sec,
        timestamp=timestamp, artifact_version=__version__)


def _record_to_line(record: TrialRecord) -> str:
    obj = {
        "v": SCHEMA_VERSION,
        "task": record.task,
        "policy": record.policy,
        "lambda": record.lam,
        "seed": record.seed,
        "outcome": {
            "final_accuracy": record.final_accuracy,
            "best_accuracy": record.best_accuracy,
            "iterations_run": record.iterations_run,
            "iterations_to_target": record.iterations_to_target,
            "diverged": record.diverged,
        },
        "wall_time_sec": record.wall_time_sec,
        "timestamp": record.timestamp,
        "artifact_version": record.artifact_version,
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _record_from_obj(obj: dict) -> TrialRecord:
    v = obj.get("v")
    if v != SCHEMA_VERSION:
        raise ValueError(f"unsupported record schema version {v!r}")
    outcome = obj["outcome"]
    return TrialRecord(
        task=obj["task"], policy=obj["policy"], lam=obj["lambda"], seed=obj["seed"],
        final_accuracy=outcome["final_accuracy"],
        best_accuracy=outcome["best_accuracy"],
        iterations_run=outcome["iterations_run"],
        iterations_to_target=outcome["iterations_to_target"],
        diverged=outcome["diverged"],
        wall_time_sec=obj.get("wall_time_sec"),
        timestamp=obj.get("timestamp"),
        artifact_version=obj.get("artifact_version"))


class StoreConflict(ValueError):
    """Same (task, policy, lambda, seed) appended with a different outcome."""


class PolicyStore:
    """JSONL-backed record store with idempotent appends.

    Ids are 0-based line indices. Appends from concurrent tuner trials
    funnel through one lock, so the file only ever grows by whole lines.
    """

    def __init__(self, path):
        self.path = str(path)
        self._lock = threading.Lock()
        self._records: list[TrialRecord] = []
        self._by_key: dict[tuple, int] = {}
        self._load()

    def _load(self):
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as f:
            raw = f.read()
        lines = raw.split(b"\n")
        ends_with_newline = bool(lines) and lines[-1] == b""
        if ends_with_newline:
            lines.pop()
        for i, line in enumerate(lines):
            last = i == len(lines) - 1
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                if last and not ends_with_newline:
                    # interrupted writer; drop the unfinished bytes so the
                    # next append starts on a fresh line
                    log.warning("dropping partial trailing line in %s", self.path)
                    with open(self.path, "r+b") as f:
                        f.truncate(len(raw) - len(line))
                    break
                raise ValueError(f"corrupt record at {self.path}:{i + 1}")
            if last and not ends_with_newline:
                with open(self.path, "ab") as f:
                    f.write(b"\n")
            record = _record_from_obj(obj)
            self._by_key[record.key()] = len(self._records)
            self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def append(self, record: TrialRecord) -> int:
        """Persist one record; duplicate identities are idempotent."""
        with self._lock:
            key = record.key()
            existing_id = self._by_key.get(key)
            if existing_id is not None:
                existing = self._records[existing_id]
                if existing.stable_outcome() != record.stable_outcome():
                    raise StoreConflict(
                        f"record for {key} already exists with a different outcome")
                return existing_id
            with open(self.path, "a", encoding="utf-8") as f:
                f.write(_record_to_line(record) + "\n")
                f.flush()
            new_id = len(self._records)
            self._records.append(record)
            self._by_key[key] = new_id
            return new_id

    def records(self, task: Optional[str] = None) -> list[TrialRecord]:
        if task is None:
            return list(self._records)
        return [r for r in self._records if r.task == task]

    def query_top_k(self, task: str, k: int, objective: str = "max_accuracy"
                    ) -> list[TrialRecord]:
        """Best k records for a task; top-(k-1) is always a prefix of top-k."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if objective not in ("max_accuracy", "min_cost"):
            raise ValueError(f"objective must be max_accuracy or min_cost, "
                             f"got {objective!r}")
        candidates = self.records(task)

        def key(r: TrialRecord):
            policy_key = json.dumps(r.policy, sort_keys=True, separators=(",", ":"))
            tie = (r.cost(), policy_key, r.lam, r.seed)
            if objective == "max_accuracy":
                return (1 if r.diverged else 0, -r.final_accuracy) + tie
            unreached = r.diverged or r.iterations_to_target is None
            value = r.iterations_to_target if not unreached else 0
            return (1 if unreached else 0, value) + tie

        return sorted(candidates, key=key)[:k]
