"""The simulated machine: cores, uncore, sockets, node."""

from repro.system.counters import CoreCounters, UncoreCounters
from repro.system.core import Core
from repro.system.uncore import Uncore
from repro.system.socket import Socket
from repro.system.node import Node, build_node, build_haswell_node

__all__ = [
    "CoreCounters",
    "UncoreCounters",
    "Core",
    "Uncore",
    "Socket",
    "Node",
    "build_node",
    "build_haswell_node",
]
