"""Operand kinds for the generic load/store IR.

The IR models the instruction set of the paper's baseline architecture: a
generic load/store ISA with integer and floating-point virtual registers,
plus the 1-bit predicate register file added by the full-predication ISA
extension (Section 2.1 of the paper).

All operand objects are immutable and hashable so they can be used as
dictionary keys in dataflow analyses.

Registers also have a dense, stateless bit id (``bit``): ``VReg(i)`` is
bit ``2*i`` and ``PReg(i)`` is bit ``2*i+1``.  INT and FLOAT virtual
registers share one index counter (:meth:`Function.new_vreg`), so the id
is unique within a function without any numbering pass; liveness and
the scheduler represent register sets as Python-int bit masks over it.
The id doubles as the hash, which keeps register hashing out of
``Enum.__hash__``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RegClass(enum.Enum):
    """Architectural register classes."""

    INT = "r"
    FLOAT = "f"
    PRED = "p"


@dataclass(frozen=True, slots=True)
class VReg:
    """A virtual register.

    The paper's baseline processor assumes an infinite register file, so the
    compiler never runs out of virtual registers and no spilling is modelled.
    """

    index: int
    rclass: RegClass = RegClass.INT

    def __hash__(self) -> int:
        return self.index << 1

    @property
    def bit(self) -> int:
        """Dense bit id: ``2 * index``."""
        return self.index << 1

    def __repr__(self) -> str:
        return f"{self.rclass.value}{self.index}"

    @property
    def is_float(self) -> bool:
        return self.rclass is RegClass.FLOAT

    @property
    def is_pred(self) -> bool:
        return self.rclass is RegClass.PRED


@dataclass(frozen=True, slots=True)
class PReg:
    """A 1-bit predicate register from the predicate register file."""

    index: int

    def __hash__(self) -> int:
        return self.index << 1 | 1

    @property
    def bit(self) -> int:
        """Dense bit id: ``2 * index + 1``."""
        return self.index << 1 | 1

    def __repr__(self) -> str:
        return f"p{self.index}"

    @property
    def is_pred(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class Imm:
    """An immediate (literal) operand; int or float."""

    value: int | float

    def __repr__(self) -> str:
        return f"#{self.value}"


@dataclass(frozen=True, slots=True)
class GlobalAddr:
    """Symbolic address of a global object, resolved at load time.

    ``offset`` is a byte offset into the object, used e.g. for the
    ``$safe_addr`` scratch slot of the partial-predication store conversion.
    """

    name: str
    offset: int = 0

    def __repr__(self) -> str:
        if self.offset:
            return f"@{self.name}+{self.offset}"
        return f"@{self.name}"


Operand = VReg | PReg | Imm | GlobalAddr
"""Anything that may appear in an instruction source position."""


def is_register(op: object) -> bool:
    """True for register operands (integer, float, or predicate)."""
    return isinstance(op, (VReg, PReg))
