"""Schema-validated trace recording and the canonical trace format.

:class:`ConformanceRecorder` is a drop-in
:class:`~repro.engine.trace.TraceRecorder` that (a) subscribes to every
kind declared in :mod:`repro.conformance.schema`, (b) canonicalizes
payload values (NumPy scalars become native Python, ints promote to
float where the schema says float), and (c) validates each event at
emission time, so a malformed event fails the emitting run instead of
poisoning a recorded trace.

A :class:`Trace` bundles the recorded events with the manifest that can
reproduce them and the schema version/digest they were recorded under.
Serialization is canonical JSONL — one header line, then one line per
event with sorted keys and compact separators — so byte equality of two
trace files is exactly event-for-event equality of two runs, and
:func:`diff_traces` can report the first divergent event by comparing
canonical lines.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.conformance import schema as _schema
from repro.engine.trace import TraceRecord, TraceRecorder
from repro.errors import ConformanceError

#: Format tag stamped into every trace header line.
TRACE_FORMAT = "repro-conformance-trace"


def _canonical_value(value: Any) -> Any:
    """Collapse NumPy scalars (and nested containers) to native Python."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {k: _canonical_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    return value


def canonicalize_payload(kind: str, payload: dict[str, Any]) -> dict[str, Any]:
    """Return a schema-canonical copy of ``payload`` for ``kind``.

    NumPy scalars become native Python values, and integers promote to
    float where the schema declares a float field (frequencies are
    naturally written as ``1_800_000_000`` in places).
    """
    out = {k: _canonical_value(v) for k, v in payload.items()}
    declared = _schema.EVENT_SCHEMAS.get(kind)
    if declared is not None:
        for f in declared.fields:
            v = out.get(f.name)
            if (f.type == "float" and isinstance(v, int)
                    and not isinstance(v, bool)):
                out[f.name] = float(v)
    return out


def canonical_json(obj: Any) -> str:
    """The canonical JSON form shared by every durable artifact.

    Sorted keys, compact separators, NumPy scalars collapsed to native
    Python — byte equality of two canonical strings is exactly value
    equality of the underlying objects. Trace files, fleet shard
    checkpoints and fleet aggregate reports all serialize through here,
    so "byte-identical" means the same thing across subsystems.
    """
    return json.dumps(_canonical_value(obj), sort_keys=True,
                      separators=(",", ":"))


def sha256_hex(text: str) -> str:
    """The sha256 hex digest of a utf-8 text — the one hashing
    convention every durable artifact (traces, checkpoints, datasets,
    service cache entries) shares."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def content_digest(obj: Any, length: int = 16) -> str:
    """Content-address any canonical-JSON-able object.

    ``sha256(canonical_json(obj) + "\\n")`` truncated to ``length`` hex
    chars. Fleet plans key their checkpoint namespace through here, and
    the experiment service keys its result cache through here — one
    digest convention, so "same content" means the same thing in both
    subsystems.
    """
    return sha256_hex(canonical_json(obj) + "\n")[:length]


def seal_jsonl(header: dict[str, Any], rows: Iterable[Any]) -> str:
    """The sealed canonical-JSONL layout of every durable artifact that
    must survive a torn write: a header line, one canonical line per
    row, and a trailer line carrying the sha256 of everything above it.
    """
    body = "\n".join([canonical_json(header),
                      *(canonical_json(row) for row in rows)]) + "\n"
    return body + canonical_json({"sha256": sha256_hex(body)}) + "\n"


def unseal_jsonl(text: str, fmt: str) -> tuple[dict[str, Any], list[Any]]:
    """``(header, rows)`` of a :func:`seal_jsonl` file tagged ``fmt``.

    Raises :class:`ConformanceError` when the file is truncated, fails
    its integrity check or carries another format tag; each caller
    decides what a broken file means (a cache miss, a shard to re-run,
    or an error).
    """
    lines = text.splitlines()
    if len(lines) < 2:
        raise ConformanceError("truncated file")
    try:
        trailer = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ConformanceError(f"unreadable trailer: {exc}") from exc
    if not isinstance(trailer, dict) or "sha256" not in trailer:
        raise ConformanceError("missing its integrity trailer")
    if sha256_hex("\n".join(lines[:-1]) + "\n") != trailer["sha256"]:
        raise ConformanceError(
            "failed its integrity check (tampered or truncated)")
    try:
        header = json.loads(lines[0])
        rows = [json.loads(line) for line in lines[1:-1]]
    except json.JSONDecodeError as exc:
        raise ConformanceError(f"unreadable line: {exc}") from exc
    tag = header.get("format") if isinstance(header, dict) else None
    if tag != fmt:
        raise ConformanceError(f"format tag {tag!r} is not {fmt!r}")
    return header, rows


class ConformanceRecorder(TraceRecorder):
    """Records every declared event kind, canonicalized and validated."""

    def __init__(self) -> None:
        super().__init__(kinds=set(_schema.EVENT_SCHEMAS))

    def emit(self, time_ns: int, source: str, kind: str,
             **payload: Any) -> None:
        if not self.wants(kind):
            return
        canon = canonicalize_payload(kind, payload)
        _schema.validate_event(kind, canon)
        self.records.append(TraceRecord(time_ns, source, kind, canon))


def event_line(record: TraceRecord) -> str:
    """The canonical single-line JSON form of one event."""
    return json.dumps(
        {"t": record.time_ns, "src": record.source, "kind": record.kind,
         "data": record.payload},
        sort_keys=True, separators=(",", ":"))


@dataclass
class Trace:
    """A recorded event stream plus everything needed to reproduce it."""

    manifest: dict[str, Any]
    events: list[TraceRecord] = field(default_factory=list)
    schema_version: int = _schema.SCHEMA_VERSION
    schema_digest: str = ""

    def __post_init__(self) -> None:
        if not self.schema_digest:
            self.schema_digest = _schema.current_digest()

    # ---- serialization ---------------------------------------------------

    def header_line(self) -> str:
        return json.dumps(
            {"format": TRACE_FORMAT,
             "schema_version": self.schema_version,
             "schema_digest": self.schema_digest,
             "manifest": self.manifest},
            sort_keys=True, separators=(",", ":"))

    def event_lines(self) -> list[str]:
        return [event_line(r) for r in self.events]

    def to_jsonl(self) -> str:
        return "\n".join([self.header_line(), *self.event_lines()]) + "\n"

    def digest(self) -> str:
        """sha256 over the canonical JSONL bytes.

        Because serialization is canonical, two traces digest equal iff
        they are event-for-event (and manifest-for-manifest) identical —
        this is the identity the service result cache stores and
        re-verifies on every hit.
        """
        return sha256_hex(self.to_jsonl())

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ConformanceError("empty trace file")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise ConformanceError(f"unreadable trace header: {exc}") from exc
        if header.get("format") != TRACE_FORMAT:
            raise ConformanceError(
                f"not a conformance trace (format tag "
                f"{header.get('format')!r}, expected {TRACE_FORMAT!r})")
        events = []
        for i, line in enumerate(lines[1:], start=2):
            try:
                obj = json.loads(line)
                events.append(TraceRecord(
                    obj["t"], obj["src"], obj["kind"], obj["data"]))
            except (json.JSONDecodeError, KeyError) as exc:
                raise ConformanceError(
                    f"bad event on trace line {i}: {exc}") from exc
        return cls(manifest=header["manifest"], events=events,
                   schema_version=header["schema_version"],
                   schema_digest=header["schema_digest"])

    # ---- queries ---------------------------------------------------------

    def of_kind(self, kind: str) -> list[TraceRecord]:
        return [r for r in self.events if r.kind == kind]

    def kind_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.events:
            counts[r.kind] = counts.get(r.kind, 0) + 1
        return counts


@dataclass(frozen=True)
class Divergence:
    """The first point where two event streams disagree."""

    index: int               # position in the (filtered) event stream
    expected: str            # canonical line, or "<end of trace>"
    actual: str
    context: tuple[str, ...]  # up to the 3 common events just before

    def render(self) -> str:
        lines = [f"first divergence at event #{self.index}:"]
        for ctx in self.context:
            lines.append(f"      ... {ctx}")
        lines.append(f"  expected {self.expected}")
        lines.append(f"  actual   {self.actual}")
        return "\n".join(lines)


def diff_traces(expected: Trace, actual: Trace,
                ignore_kinds: frozenset[str] = frozenset()) -> Divergence | None:
    """First divergent event between two traces, or None when identical.

    ``ignore_kinds`` drops event kinds that are legitimately asymmetric
    before comparing — e.g. ``hostif-write`` events only exist on the
    host-interface variant of an otherwise identical run.
    """
    a = [event_line(r) for r in expected.events
         if r.kind not in ignore_kinds]
    b = [event_line(r) for r in actual.events
         if r.kind not in ignore_kinds]
    limit = min(len(a), len(b))
    for i in range(limit):
        if a[i] != b[i]:
            return Divergence(i, a[i], b[i], tuple(a[max(0, i - 3):i]))
    if len(a) != len(b):
        i = limit
        return Divergence(
            i,
            a[i] if i < len(a) else "<end of trace>",
            b[i] if i < len(b) else "<end of trace>",
            tuple(a[max(0, i - 3):i]))
    return None
