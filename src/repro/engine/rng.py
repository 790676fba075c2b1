"""Deterministic random-number policy.

All stochastic elements of the simulation (meter noise, measurement
jitter, random FTaLaT delays) derive from a single seed via
``numpy.random.Generator`` spawning, so every experiment is exactly
reproducible and independent sub-streams never alias.

Hot draw sites go through :class:`DrawBatch`, which refills a seeded
buffer with one vectorized generator call and hands values out one per
:meth:`~DrawBatch.take`. numpy's ``Generator`` produces the identical
value stream (and identical post-call generator state) for
``integers(lo, hi, size=N)`` as for ``N`` sequential single draws, so a
batch whose draw site is the only consumer of its parent stream yields
byte-identical simulations — only cheaper. Sanitize-mode draw-order
accounting happens per ``take``, exactly like a direct generator call;
the refill itself draws from the unwrapped stream and is invisible to
the ledger by design (the ``rng-batch-bypass`` lint rule keeps everyone
else out of the buffer). :meth:`DrawBatch.block` is the one sanctioned
read-ahead: it shows the values the next takes will return, but consumes
nothing and never refills, so the draws still happen, in order, through
``take`` or :meth:`DrawBatch.take_n`, which commits ``k`` of them at
once.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.errors import SimulationError

DEFAULT_SEED = 0x9A5735

#: Draws fetched per DrawBatch refill. Large enough to amortize the
#: generator call, small enough that a retune (draw args changed, e.g. a
#: PCU_JITTER fault widening the tick spread) discards little work.
DRAW_BATCH_BLOCK = 256


def make_rng(seed: int | None = None) -> np.random.Generator:
    """A fresh root generator (``DEFAULT_SEED`` if none given).

    This module is the sanctioned birthplace of every generator: the
    ``det-seed-flow`` rule exempts it (``rng-factories`` in
    pyproject.toml) and polices everyone else.
    """
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def spawn_rng(parent: np.random.Generator) -> np.random.Generator:
    """An independent child stream of ``parent``.

    Spawning from a sanitize-mode ledgered stream yields a child that
    records into the same ledger (see :mod:`repro.engine.sanitize`);
    the drawn values are identical either way.
    """
    from repro.engine import sanitize

    ledger = sanitize.ledger_of(parent)
    child = np.random.default_rng(
        sanitize.unwrap_rng(parent).bit_generator.seed_seq.spawn(1)[0])
    if ledger is not None:
        return sanitize.wrap_rng(child, ledger)
    return child


class DrawBatch:
    """A pre-filled buffer of draws from one (generator, method) pair.

    ``take(*args)`` and its batched form ``take_n(k, *args)`` are the
    **only** sanctioned ways to consume the buffer. A take records the
    caller's site in the parent's sanitize ledger exactly like a direct
    ``rng.method(*args)`` call would, refills with one
    vectorized draw when the buffer runs dry, and retunes (discarding
    the remainder deterministically) whenever the draw arguments change.
    The buffer is held as a Python list (``ndarray.tolist()`` converts
    each value exactly), so a take is a list index, and as the array it
    was converted from, which :meth:`block` shows and :meth:`take_n`
    slices. Direct indexing into ``_prefill``/``_prefill_array``/
    ``_prefill_cursor`` from outside this module bypasses draw-order
    accounting and is rejected by the ``rng-batch-bypass`` lint rule.
    """

    __slots__ = ("_parent", "_method", "_block", "_ledger", "_prefill",
                 "_prefill_array", "_prefill_args", "_prefill_cursor")

    def __init__(self, parent, method: str,
                 block: int = DRAW_BATCH_BLOCK) -> None:
        if block < 1:
            raise ValueError("DrawBatch block must be >= 1")
        self._parent = parent
        self._method = method
        self._block = int(block)
        # A sanitize-mode stream carries its ledger from birth
        # (Simulator construction / spawn_rng), so one lookup suffices.
        self._ledger = getattr(parent, "_ledger", None)
        self._prefill: list = []
        self._prefill_array = np.empty(0)
        self._prefill_args: tuple | None = None     # None = never filled
        self._prefill_cursor = 0

    def take(self, *args):
        """One draw of ``method(*args)`` from the buffer (a Python
        ``int`` or ``float``)."""
        cursor = self._prefill_cursor
        if cursor >= self._block or args != self._prefill_args:
            from repro.engine import sanitize
            bare = sanitize.unwrap_rng(self._parent)
            values = getattr(bare, self._method)(*args, size=self._block)
            self._prefill_array = values
            self._prefill = values.tolist()
            self._prefill_args = args
            cursor = 0
        self._prefill_cursor = cursor + 1
        if self._ledger is not None:
            from repro.engine import sanitize
            self._ledger.record(sanitize._site_of(sys._getframe(1)),
                                self._method)
        return self._prefill[cursor]

    def take_n(self, k: int, *args) -> np.ndarray:
        """The next ``k`` draws of ``method(*args)`` at once, as an array.

        The values, the cursor and the ledger entries are those of ``k``
        :meth:`take` calls from the caller's site. It never refills:
        asking for more than :meth:`block` shows ahead is an error.
        """
        cursor = self._prefill_cursor
        end = cursor + k
        if k and (args != self._prefill_args or end > self._block):
            raise SimulationError(
                f"take_n({k}) runs past the {self._method} draws this "
                "batch holds")
        self._prefill_cursor = end
        if self._ledger is not None and k:
            from repro.engine import sanitize
            self._ledger.record(sanitize._site_of(sys._getframe(1)),
                                self._method, k)
        return self._prefill_array[cursor:end]

    def block(self, *args) -> tuple[np.ndarray, int]:
        """The block of ``method(*args)`` draws this batch holds and the
        cursor into it: ``block[cursor:]`` are the values the next takes
        will return without a refill, in order (none if the buffer is
        dry or tuned to other arguments); the values before the cursor
        are spent.

        A read-ahead, not a draw: nothing is consumed or ledgered, and
        the buffer is never refilled early — an early refill would move
        this batch's generator call ahead of another batch's on the
        shared stream. Commit the values used with :meth:`take` or
        :meth:`take_n` from the site they stand for. A refill replaces
        the block with a new array, so a reader may cache what it
        derives from a block by the array's identity; the array must
        not be written.
        """
        if args != self._prefill_args:
            return self._prefill_array[:0], 0
        return self._prefill_array, self._prefill_cursor
