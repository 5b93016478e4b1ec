"""Hardware models for the simulated Intel Paragon.

Subpackages model the machine bottom-up:

- :mod:`repro.hardware.params` -- calibrated hardware constants.
- :mod:`repro.hardware.node` -- compute / I/O / service node model.
- :mod:`repro.hardware.mesh` -- 2D wormhole-routed mesh interconnect.
- :mod:`repro.hardware.raid` -- RAID-3 array of disks.
- :mod:`repro.hardware.scsi` -- SCSI bus shared by array and controller.
- :mod:`repro.hardware.memory` -- per-node memory accounting.
"""

from repro.hardware.memory import MemoryRegion, OutOfMemoryError
from repro.hardware.mesh import Mesh, MeshMessage
from repro.hardware.node import Node, NodeKind
from repro.hardware.params import (
    DiskParams,
    MeshParams,
    NodeParams,
    RAIDParams,
    SCSIParams,
)
from repro.hardware.raid import RAID3Array
from repro.hardware.scsi import SCSIBus

__all__ = [
    "DiskParams",
    "MemoryRegion",
    "Mesh",
    "MeshMessage",
    "MeshParams",
    "Node",
    "NodeKind",
    "NodeParams",
    "OutOfMemoryError",
    "RAID3Array",
    "RAIDParams",
    "SCSIBus",
    "SCSIParams",
]
