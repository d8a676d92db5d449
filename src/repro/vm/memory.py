"""Byte-addressable memory for the interpreter.

A single flat address space per process image: globals, heap and stack
allocations are all carved out of one growable bytearray by a bump
allocator that never reuses addresses.  Scalar values are marshalled
with ``struct``; vectors element-wise.  An access that reaches outside
``[0x1000, brk)`` — below the first allocation (null and small wild
pointers) or past the highest address ever allocated — raises
:class:`MemoryTrap`, the behaviour a miscompiled executable shows as a
crash.  Accesses inside that range always succeed, even into memory
that was freed or never belonged to the accessed object.
"""

from __future__ import annotations

import struct
from typing import Dict

from ..ir.types import FloatType, IntType, PointerType, Type, VectorType
from .errors import MemoryTrap

NULL = 0
_BASE = 0x1000


class Memory:
    """Flat memory with a bump allocator."""

    def __init__(self, capacity: int = 1 << 22):
        self.data = bytearray(capacity)
        self.brk = _BASE
        #: start -> size of each live allocation (``free``/``release``
        #: drop entries); bookkeeping only, bounds checks do not use it
        self.allocations: Dict[int, int] = {}

    # -- allocation ------------------------------------------------------
    def allocate(self, size: int, align: int = 8) -> int:
        size = max(1, size)
        addr = (self.brk + align - 1) & ~(align - 1)
        end = addr + size
        while end > len(self.data):
            self.data.extend(bytearray(len(self.data)))
        self.brk = end
        self.allocations[addr] = size
        return addr

    def free(self, addr: int) -> None:
        self.allocations.pop(addr, None)

    def release(self, addr: int) -> None:
        """Forget a stack allocation on function return; its bytes stay
        addressable."""
        self.allocations.pop(addr, None)

    def check(self, addr: int, size: int) -> None:
        """Trap unless ``[addr, addr + size)`` lies in ``[0x1000, brk)``."""
        if addr < _BASE or addr + size > self.brk:
            raise MemoryTrap(f"access [{addr:#x},+{size}) outside memory")

    # -- raw bytes ----------------------------------------------------------
    def read_bytes(self, addr: int, size: int) -> bytes:
        self.check(addr, size)
        return bytes(self.data[addr:addr + size])

    def write_bytes(self, addr: int, payload: bytes) -> None:
        self.check(addr, len(payload))
        self.data[addr:addr + len(payload)] = payload

    def copy(self, dst: int, src: int, size: int) -> None:
        self.write_bytes(dst, self.read_bytes(src, size))

    def fill(self, dst: int, byte: int, size: int) -> None:
        self.check(dst, size)
        self.data[dst:dst + size] = bytes([byte & 0xFF]) * size

    # -- typed access ----------------------------------------------------
    _INT_FMT = {1: "<b", 2: "<h", 4: "<i", 8: "<q"}

    def load(self, addr: int, ty: Type):
        if isinstance(ty, IntType):
            size = ty.size()
            raw = self.read_bytes(addr, size)
            v = int.from_bytes(raw, "little", signed=True)
            if ty.bits == 1:
                return v & 1
            return v
        if isinstance(ty, FloatType):
            raw = self.read_bytes(addr, ty.size())
            return struct.unpack("<f" if ty.bits == 32 else "<d", raw)[0]
        if isinstance(ty, PointerType):
            raw = self.read_bytes(addr, 8)
            return int.from_bytes(raw, "little", signed=False)
        if isinstance(ty, VectorType):
            step = ty.element.size()
            return tuple(self.load(addr + i * step, ty.element)
                         for i in range(ty.count))
        raise MemoryTrap(f"cannot load type {ty}")

    def store(self, addr: int, ty: Type, value) -> None:
        if isinstance(ty, IntType):
            size = ty.size()
            bits = size * 8
            v = int(value) & ((1 << bits) - 1)
            self.write_bytes(addr, v.to_bytes(size, "little", signed=False))
            return
        if isinstance(ty, FloatType):
            fmt = "<f" if ty.bits == 32 else "<d"
            self.write_bytes(addr, struct.pack(fmt, float(value)))
            return
        if isinstance(ty, PointerType):
            v = int(value) & ((1 << 64) - 1)
            self.write_bytes(addr, v.to_bytes(8, "little", signed=False))
            return
        if isinstance(ty, VectorType):
            step = ty.element.size()
            for i, lane in enumerate(value):
                self.store(addr + i * step, ty.element, lane)
            return
        raise MemoryTrap(f"cannot store type {ty}")

    def read_cstring(self, addr: int, limit: int = 4096) -> str:
        out = bytearray()
        for i in range(limit):
            b = self.read_bytes(addr + i, 1)[0]
            if b == 0:
                break
            out.append(b)
        return out.decode("utf-8", errors="replace")

    def write_cstring(self, addr: int, s: str) -> None:
        payload = s.encode() + b"\x00"
        self.write_bytes(addr, payload)
