"""Cross-cutting utilities: the retry policy (``Backoff``, the
retryable error set) and the supervised process pool with the outcome
policy every harness shares (``repro.util.pool``)."""

from repro.util.retry import Backoff

__all__ = ["Backoff"]
