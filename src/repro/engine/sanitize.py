"""Runtime determinism sanitizer: RNG draw ledger + epoch consistency.

``repro-lint`` proves invariants statically; this module is the dynamic
half, catching what static analysis cannot see:

* **RNG draw-order ledger** — with sanitize mode on, the simulator's
  root generator and every :func:`repro.engine.rng.spawn_rng` child are
  wrapped so each draw records its call site (``file:line``) and method.
  Two runs that claim bit-parity (fastpath on vs. off, hostif vs.
  direct) must produce *identical ledgers*: same sites, same methods,
  same order, same counts. A fast path that skipped or reordered a
  single TDP-dither draw shows up as a ledger diff long before the
  divergence is visible in aggregate counters.

* **Epoch-consistency checker** — the steady-state fast path trusts
  that every rate-relevant mutation bumped the socket
  :class:`~repro.engine.epoch.EpochCell`. With sanitize mode on,
  :meth:`repro.system.socket.Socket.integrate` recomputes the cached
  rate matrix from scratch on a sampled subset of cache-hit segments
  (every :data:`EPOCH_CHECK_STRIDE`-th) and raises
  :class:`~repro.errors.EpochConsistencyError` if the cache, or the
  socket's slice of the node rate block the node integrates, is stale.

Enable process-wide with ``REPRO_SANITIZE=1`` or :func:`set_enabled`,
before the node is built: both halves read the switch once, at
``Simulator``/``Socket`` construction. Overhead is a few
percent at the default stride; sanitize mode never changes simulation
results, only observes them.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np

#: Every Nth cache-hit segment gets an epoch-consistency recompute.
EPOCH_CHECK_STRIDE = 64

_override: bool | None = None


def set_enabled(flag: bool | None) -> None:
    """Force the process-wide default (``None`` = defer to environment)."""
    global _override
    _override = flag


def enabled() -> bool:
    """Sanitize default for newly built simulators and sockets."""
    if _override is not None:
        return _override
    return os.environ.get("REPRO_SANITIZE", "0") == "1"


# ---- the draw ledger --------------------------------------------------------

_SRC_ROOT = Path(__file__).resolve().parents[2]

#: ``co_filename`` -> the repo-relative path :func:`_site_of` prints.
#: Resolving a path costs several ``lstat`` calls; a ledgered run draws
#: from a handful of files millions of times.
_SITE_PATHS: dict[str, str] = {}


def _site_of(frame) -> str:
    """``path:line`` of a draw site, repo-relative for stable ledgers."""
    filename = frame.f_code.co_filename
    rel = _SITE_PATHS.get(filename)
    if rel is None:
        path = Path(filename)
        try:
            rel = path.resolve().relative_to(_SRC_ROOT).as_posix()
        except ValueError:
            rel = path.name
        _SITE_PATHS[filename] = rel
    return f"{rel}:{frame.f_lineno}"


class DrawLedger:
    """Ordered record of RNG draws: (site, method, run-length count).

    Consecutive draws from the same site+method collapse into one entry
    with a count, so steady-state loops stay compact while any skipped,
    extra, or reordered draw still changes the ledger.
    """

    def __init__(self) -> None:
        self.entries: list[list] = []   # [site, method, count]

    def record(self, site: str, method: str, count: int = 1) -> None:
        """``count`` draws from ``site`` (as many single records)."""
        if self.entries and self.entries[-1][0] == site \
                and self.entries[-1][1] == method:
            self.entries[-1][2] += count
        else:
            self.entries.append([site, method, count])

    @property
    def total_draws(self) -> int:
        return sum(count for _, _, count in self.entries)

    def render(self) -> str:
        lines = [f"{site} {method} x{count}"
                 for site, method, count in self.entries]
        return "\n".join(lines)

    def diff(self, other: "DrawLedger") -> str | None:
        """First divergence between two ledgers, or None if identical."""
        for index, (mine, theirs) in enumerate(zip(self.entries,
                                                   other.entries)):
            if mine != theirs:
                return (f"entry {index}: {mine[0]} {mine[1]} x{mine[2]} "
                        f"!= {theirs[0]} {theirs[1]} x{theirs[2]}")
        if len(self.entries) != len(other.entries):
            longer, at = (self, len(other.entries)) \
                if len(self.entries) > len(other.entries) \
                else (other, len(self.entries))
            site, method, count = longer.entries[at]
            return (f"entry {at}: only one ledger has "
                    f"{site} {method} x{count}")
        return None


class LedgeredGenerator:
    """A recording proxy around ``numpy.random.Generator``.

    Draw methods are wrapped to record ``(caller site, method)`` in the
    ledger before delegating; everything else (``bit_generator`` for
    spawning, ``__repr__`` …) passes straight through, so the wrapped
    stream is bit-identical to the bare one.
    """

    _PASSTHROUGH = frozenset({"bit_generator", "spawn"})

    def __init__(self, rng: np.random.Generator, ledger: DrawLedger) -> None:
        self._rng = rng
        self._ledger = ledger

    def __getattr__(self, name: str):
        attr = getattr(self._rng, name)
        if name.startswith("_") or name in self._PASSTHROUGH \
                or not callable(attr):
            return attr
        ledger = self._ledger

        def draw(*args, **kwargs):
            frame = sys._getframe(1)
            ledger.record(_site_of(frame), name)
            return attr(*args, **kwargs)

        draw.__name__ = name
        return draw

    def __repr__(self) -> str:
        return f"LedgeredGenerator({self._rng!r})"


def wrap_rng(rng: np.random.Generator,
             ledger: DrawLedger) -> LedgeredGenerator:
    return LedgeredGenerator(rng, ledger)


def unwrap_rng(rng) -> np.random.Generator:
    """The bare generator behind a possibly-ledgered stream."""
    return rng._rng if isinstance(rng, LedgeredGenerator) else rng


def ledger_of(rng) -> DrawLedger | None:
    return rng._ledger if isinstance(rng, LedgeredGenerator) else None
