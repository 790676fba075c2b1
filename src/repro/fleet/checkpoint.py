"""Durable shard checkpoints: canonical JSONL, content-digest keyed.

Layout under a checkpoint root::

    <root>/<plan-digest>/plan.json        the plan, canonical JSON
    <root>/<plan-digest>/shard-0007.jsonl one completed shard
    <root>/<plan-digest>/markers/...      one-shot injection tombstones

A shard file is one header line (format tag, plan digest, shard id,
node ids), one canonical line per node record in ascending node order,
and one trailer line carrying the sha256 of everything above it. The
trailer is what makes resume crash-safe: a worker death or SIGKILL
mid-write leaves a file whose trailer is missing or wrong, and
:meth:`CheckpointStore.load_shard` treats it as absent — the supervisor
simply re-runs that shard. Writes are atomic (temp file + rename) for
the same reason.

Records are pure simulation output — no attempt counts, durations or
host state — so the shard file a retried worker writes is byte-identical
to the one an undisturbed worker would have written. That is the
property the aggregate-equality acceptance test leans on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.conformance.recorder import seal_jsonl, unseal_jsonl
from repro.errors import CheckpointError, ConformanceError
from repro.fleet.plan import FleetPlan

SHARD_FORMAT = "repro-fleet-shard"


def claim_tombstone(path: Path | str) -> bool:
    """Atomically create a one-shot marker file; True only the first
    time, so an injected crash fires once and its retry runs clean."""
    try:
        with open(path, "x", encoding="utf-8") as fh:
            fh.write("fired\n")
        return True
    except FileExistsError:
        return False


@dataclass(frozen=True)
class ShardCheckpoint:
    """One shard's completed per-node records."""

    plan_digest: str
    shard_id: int
    node_ids: tuple[int, ...]
    records: tuple[dict, ...]

    def __post_init__(self) -> None:
        got = tuple(r.get("node_id") for r in self.records)
        if got != self.node_ids:
            raise CheckpointError(
                f"shard {self.shard_id} records cover nodes {got}, "
                f"expected {self.node_ids}")

    def to_jsonl(self) -> str:
        return seal_jsonl(
            {"format": SHARD_FORMAT, "plan_digest": self.plan_digest,
             "shard_id": self.shard_id, "node_ids": list(self.node_ids)},
            self.records)

    @classmethod
    def from_jsonl(cls, text: str) -> "ShardCheckpoint":
        try:
            header, records = unseal_jsonl(text, SHARD_FORMAT)
        except ConformanceError as exc:
            raise CheckpointError(f"shard checkpoint: {exc}") from exc
        return cls(plan_digest=header["plan_digest"],
                   shard_id=int(header["shard_id"]),
                   node_ids=tuple(int(n) for n in header["node_ids"]),
                   records=tuple(records))


class CheckpointStore:
    """One plan's checkpoint namespace on disk."""

    def __init__(self, root: Path | str, plan: FleetPlan) -> None:
        self.plan = plan
        self.plan_digest = plan.digest()
        self.dir = Path(root) / self.plan_digest
        self.marker_dir = self.dir / "markers"

    # ---- lifecycle -------------------------------------------------------

    def ensure(self) -> "CheckpointStore":
        self.marker_dir.mkdir(parents=True, exist_ok=True)
        self.save_plan()
        return self

    def save_plan(self) -> Path:
        path = self.dir / "plan.json"
        self._atomic_write(path, self.plan.to_json())
        return path

    def clear(self) -> None:
        """Drop every shard file and injection tombstone (fresh run)."""
        if self.dir.is_dir():
            for path in self.dir.glob("shard-*.jsonl"):
                path.unlink()
        if self.marker_dir.is_dir():
            for path in self.marker_dir.iterdir():
                path.unlink()

    # ---- shards ----------------------------------------------------------

    def shard_path(self, shard_id: int) -> Path:
        return self.dir / f"shard-{shard_id:04d}.jsonl"

    def write_shard(self, checkpoint: ShardCheckpoint) -> Path:
        if checkpoint.plan_digest != self.plan_digest:
            raise CheckpointError(
                f"checkpoint for plan {checkpoint.plan_digest} cannot "
                f"enter the {self.plan_digest} namespace")
        path = self.shard_path(checkpoint.shard_id)
        self._atomic_write(path, checkpoint.to_jsonl())
        return path

    def load_shard(self, shard_id: int) -> ShardCheckpoint | None:
        """The shard's checkpoint, or None when missing/corrupt/foreign
        (a corrupt file is simply work left to do, not an error)."""
        path = self.shard_path(shard_id)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            ck = ShardCheckpoint.from_jsonl(text)
        except CheckpointError:
            return None
        if ck.plan_digest != self.plan_digest or ck.shard_id != shard_id:
            return None
        return ck

    def completed(self) -> dict[int, ShardCheckpoint]:
        """Every shard that checkpointed cleanly, by shard id."""
        out: dict[int, ShardCheckpoint] = {}
        for shard in self.plan.shards():
            ck = self.load_shard(shard.shard_id)
            if ck is not None and ck.node_ids == shard.node_ids:
                out[shard.shard_id] = ck
        return out

    # ---- one-shot injection tombstones -----------------------------------

    def claim_marker(self, name: str) -> bool:
        """Atomically claim a one-shot marker; True only the first time.

        Injected crashes/stalls fire exactly once per checkpoint
        namespace: the retried (or resumed) shard finds the tombstone
        and runs clean.
        """
        self.marker_dir.mkdir(parents=True, exist_ok=True)
        return claim_tombstone(self.marker_dir / name)

    # ---- internals -------------------------------------------------------

    @staticmethod
    def _atomic_write(path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
