"""MPI global constants under MANA (paper Section 4.3).

The problem: ``MPI_COMM_WORLD`` and friends are whatever the target
``mpi.h`` says they are —

* MPICH family: unique compile-time integers, identical in upper and
  lower halves, stable across sessions;
* Open MPI: macros expanding to *function calls* returning pointers,
  valid only after library startup, different between a dynamically
  linked upper half and a statically linked lower half, and different
  before checkpoint vs after restart;
* ExaMPI: smart shared pointers with reinterpret casts, resolved
  *lazily* on first use, with aliases (MPI_INT8_T and MPI_CHAR share a
  pointer).

MANA's solution, reproduced here: constants are re-defined as lookups
into MANA's own table.  The first time the application touches a
constant, the wrapper resolves it in the *current* lower half (which for
ExaMPI triggers the lazy creation) and binds it to a virtual id whose
index is derived from the constant's *name* — stable across sessions,
restarts, and MPI implementations.  After a restart, replay simply
re-asks the new lower half for each name.

This module hosts the name → object-kind classification the wrapper and
replay layers share.
"""

from __future__ import annotations

from typing import Optional

from repro.mpi import constants as C
from repro.mpi.api import HandleKind

#: Names whose records must be CommRecords (they carry drain counters
#: and collective sequence numbers like any other communicator).
COMM_CONSTANTS = frozenset(C.PREDEFINED_COMMS)


def constant_kind(name: str) -> Optional[str]:
    """The HandleKind of a predefined-constant name, or None."""
    if name in C.PREDEFINED_COMMS:
        return HandleKind.COMM
    if name in C.PREDEFINED_GROUPS:
        return HandleKind.GROUP
    if name in C.PREDEFINED_DATATYPES:
        return HandleKind.DATATYPE
    if name in C.PREDEFINED_OPS:
        return HandleKind.OP
    return None


def all_constant_names() -> tuple:
    return C.ALL_CONSTANT_NAMES
