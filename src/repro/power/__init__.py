"""Power delivery, power modeling, and RAPL energy accounting."""

from repro.power.fivr import Fivr
from repro.power.mbvr import Mbvr, MbvrPowerState, SvidCommand
from repro.power.model import PowerModel, SocketPowerBreakdown
from repro.power.rapl import (
    RaplDomain,
    RaplBank,
    DramRaplMode,
)
from repro.power.psu import PsuModel

__all__ = [
    "Fivr",
    "Mbvr",
    "MbvrPowerState",
    "SvidCommand",
    "PowerModel",
    "SocketPowerBreakdown",
    "RaplDomain",
    "RaplBank",
    "DramRaplMode",
    "PsuModel",
]
