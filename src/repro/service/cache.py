"""The digest-verified result cache behind the experiment service.

Entries are keyed by :meth:`ScenarioManifest.cache_key` — the content
digest of (manifest digest, trace schema version + digest, host dataset
digest) — and stored as canonical JSONL, four lines: a header binding
every component of the key, the canonical result record, the complete
conformance trace the result was extracted from, and a sha256 trailer.

A hit is never taken on faith. :meth:`ResultCache.get` re-derives the
whole chain before serving: the trailer must match the file bytes, the
header's key components must re-digest to the key being looked up, and
the stored trace must hash to the header's ``trace_digest``. Anything
less — a truncated write, a flipped byte, a hand-edited record, a file
renamed under a different key — silently degrades to a miss and the
scenario re-runs, because the conformance guarantee makes re-execution
a safe (if slower) substitute for any cache read.

That verification chain is what lets an identical resubmission be
served 100% from cache *and* still come with proof: the records inside
a verified entry are the byte-identical records a fresh run would
produce, so the job report assembled from hits equals the report
assembled from runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.conformance import schema as _schema
from repro.conformance.recorder import (content_digest, seal_jsonl,
                                        sha256_hex, unseal_jsonl,
                                        write_atomic)
from repro.errors import ConformanceError, ServiceError

RESULT_FORMAT = "repro-service-result"
RESULT_VERSION = 1


@dataclass(frozen=True)
class CacheEntry:
    """One cached task result: record + the trace that proves it."""

    cache_key: str
    manifest_digest: str
    dataset_digest: str
    schema_version: int
    schema_digest: str
    trace_digest: str
    result: dict
    trace_jsonl: str

    def header(self) -> dict:
        return {"format": RESULT_FORMAT, "version": RESULT_VERSION,
                "cache_key": self.cache_key,
                "manifest_digest": self.manifest_digest,
                "dataset_digest": self.dataset_digest,
                "schema_version": self.schema_version,
                "schema_digest": self.schema_digest,
                "trace_digest": self.trace_digest}

    def to_jsonl(self) -> str:
        return seal_jsonl(self.header(), [{"result": self.result},
                                          {"trace": self.trace_jsonl}])

    @classmethod
    def from_jsonl(cls, text: str) -> "CacheEntry":
        try:
            header, rows = unseal_jsonl(text, RESULT_FORMAT)
        except ConformanceError as exc:
            raise ServiceError(f"cache entry: {exc}") from exc
        if len(rows) != 2:
            raise ServiceError(
                f"cache entry has {len(rows)} rows, expected 2")
        if header.get("version") != RESULT_VERSION:
            raise ServiceError(
                f"cache entry version {header.get('version')!r} is not "
                f"the supported version {RESULT_VERSION}")
        return cls(cache_key=str(header["cache_key"]),
                   manifest_digest=str(header["manifest_digest"]),
                   dataset_digest=str(header["dataset_digest"]),
                   schema_version=int(header["schema_version"]),
                   schema_digest=str(header["schema_digest"]),
                   trace_digest=str(header["trace_digest"]),
                   result=dict(rows[0]["result"]),
                   trace_jsonl=str(rows[1]["trace"]))

    # ---- verification -----------------------------------------------------

    def recomputed_key(self) -> str:
        """The cache key the header's components actually digest to."""
        return content_digest({
            "manifest_digest": self.manifest_digest,
            "schema_version": self.schema_version,
            "schema_digest": self.schema_digest,
            "dataset_digest": self.dataset_digest,
        }, length=32)

    def verify(self, cache_key: str) -> None:
        """Full hit verification; raises :class:`ServiceError` on any break.

        The trailer was already checked at parse time; this closes the
        chain: key components must re-digest to the key being served,
        and the stored conformance trace must hash to the digest the
        header claims the result was extracted from.
        """
        if self.cache_key != cache_key:
            raise ServiceError(
                f"cache entry claims key {self.cache_key}, "
                f"looked up as {cache_key}")
        if self.recomputed_key() != cache_key:
            raise ServiceError(
                "cache entry key components do not digest to its key")
        if sha256_hex(self.trace_jsonl) != self.trace_digest:
            raise ServiceError(
                "stored trace does not match the entry's trace digest")


class ResultCache:
    """A directory of verified result entries, one file per cache key."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)

    def path(self, cache_key: str) -> Path:
        return self.root / f"{cache_key}.result.jsonl"

    def put(self, entry: CacheEntry) -> Path:
        return write_atomic(self.path(entry.cache_key), entry.to_jsonl())

    def get(self, cache_key: str) -> CacheEntry | None:
        """The verified entry for a key, or None (miss).

        Unreadable, tampered, truncated or mis-keyed entries are
        misses, not errors — re-running the scenario is always safe.
        """
        try:
            text = self.path(cache_key).read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            entry = CacheEntry.from_jsonl(text)
            entry.verify(cache_key)
        except ServiceError:
            return None
        return entry

    def has(self, cache_key: str) -> bool:
        return self.get(cache_key) is not None


def make_entry(cache_key: str, manifest_digest: str, dataset_digest: str,
               result: dict, trace_jsonl: str) -> CacheEntry:
    """Build an entry under the *current* trace schema."""
    return CacheEntry(cache_key=cache_key,
                      manifest_digest=manifest_digest,
                      dataset_digest=dataset_digest,
                      schema_version=_schema.SCHEMA_VERSION,
                      schema_digest=_schema.current_digest(),
                      trace_digest=sha256_hex(trace_jsonl),
                      result=result, trace_jsonl=trace_jsonl)
