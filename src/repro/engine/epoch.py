"""Epoch cells: O(1) dirty-flag invalidation for cached derived state.

A cell is a monotonically increasing integer. Every mutation that can
change a socket's segment rates (core frequency grant, workload phase
swap, c-state transition, AVX-license change, uncore frequency/halt)
bumps the owning socket's cell; caches key their derived values on the
cell value and recompute only when it moved. Cells chain upward — a
socket cell bumps its parent node cell — so node-wide views (``any
core active?``, PCU decision inputs) invalidate on any socket's change
without scanning cores.

The node cell covers decision inputs only. A frequency grant the PCU
itself applied is a rate input but not an input of any node-wide view
or of the PCU's own derivation, so it bumps the socket cell alone
(:meth:`EpochCell.bump_local`). Under ``tied`` uncore coupling the
uncore target follows the core clocks, so there a landed grant is a
decision input and bumps the chain like every other mutation; so does
any frequency write made outside the PCU.
"""

from __future__ import annotations


class EpochCell:
    """A bump counter with an optional parent chain."""

    __slots__ = ("value", "parent")

    def __init__(self, parent: "EpochCell | None" = None) -> None:
        self.value = 0
        self.parent = parent

    def bump(self) -> None:
        self.value += 1
        # The chain is at most socket -> node in practice; unroll the
        # first link so the common two-level bump never enters the loop.
        cell = self.parent
        if cell is None:
            return
        cell.value += 1
        cell = cell.parent
        while cell is not None:
            cell.value += 1
            cell = cell.parent

    def bump_local(self) -> None:
        """Bump this cell only: the mutation changes what is cached
        against this cell but nothing cached against its parents."""
        self.value += 1

    def __repr__(self) -> str:
        return f"EpochCell(value={self.value})"
