"""Post-build hooks: upper layers instrument node construction.

``build_node`` used to call :func:`repro.faults.chaos.maybe_arm`
directly — a system-layer module importing the harness layer, exactly
the upward arrow the ``arch-layering`` rule forbids.  The dependency is
inverted here: ``build_node`` runs whatever hooks are registered, and
the chaos module registers its armer when *it* is imported.  Chaos mode
can only be activated through :mod:`repro.faults.chaos`, so the hook is
always in place by the time it matters; with no upper layer imported,
building a node runs zero hooks.

Hooks run in registration order and must be deterministic: they are
part of node construction, which is part of the replayed simulation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.engine.simulator import Simulator
    from repro.system.node import Node

PostBuildHook = Callable[["Simulator", "Node"], None]

_hooks: list[PostBuildHook] = []


def register(hook: PostBuildHook) -> PostBuildHook:
    """Add a hook run after every ``build_node`` (idempotent)."""
    if hook not in _hooks:
        _hooks.append(hook)
    return hook


def run(sim: "Simulator", node: "Node") -> None:
    """Run every registered hook on a freshly built node."""
    for hook in list(_hooks):
        hook(sim, node)
