"""Scalar value semantics shared by both execution engines and by
constant folding.

Integers are Python ints kept sign-canonical for their width (``i1`` is
``0``/``1``); floats are Python floats (``f32`` values are rounded only
where the IR says so: ``fptrunc`` and memory stores).  The decoded
engine (:mod:`repro.vm.decode`) inlines fast paths for the common
scalar operations and falls back to these functions for everything
else, the reference engine (:mod:`repro.vm.reference`) calls them
directly, and ``passes/simplify.py`` folds constants with them.  The
reference engine and constant folding agree by construction; the
decoded engine's inlined paths are checked against them by the run
golden (``tests/goldens/vm_runs.txt``) and the fuzz oracle's engine
referee.
"""

from __future__ import annotations

import math
import struct

from ..ir.types import IntType, Type
from .errors import UndefinedBehavior, VMError


def wrap_int(v: int, bits: int) -> int:
    mask = (1 << bits) - 1
    v &= mask
    if bits > 1 and v >= (1 << (bits - 1)):
        v -= 1 << bits
    return v


def unsigned(v: int, bits: int) -> int:
    return v & ((1 << bits) - 1)


def scalar_binop(op: str, a, b, ty: Type):
    if op == "fadd":
        return a + b
    if op == "fsub":
        return a - b
    if op == "fmul":
        return a * b
    if op == "fdiv":
        if b == 0.0:
            return math.inf if a > 0 else (-math.inf if a < 0 else math.nan)
        return a / b
    if op == "frem":
        return math.fmod(a, b) if b != 0.0 else math.nan
    bits = ty.bits if isinstance(ty, IntType) else 64
    if op == "add":
        return wrap_int(a + b, bits)
    if op == "sub":
        return wrap_int(a - b, bits)
    if op == "mul":
        return wrap_int(a * b, bits)
    if op == "sdiv":
        if b == 0:
            raise UndefinedBehavior("sdiv by zero")
        q = abs(a) // abs(b)
        return wrap_int(-q if (a < 0) != (b < 0) else q, bits)
    if op == "srem":
        if b == 0:
            raise UndefinedBehavior("srem by zero")
        q = abs(a) // abs(b)
        q = -q if (a < 0) != (b < 0) else q
        return wrap_int(a - q * b, bits)
    if op == "udiv":
        if b == 0:
            raise UndefinedBehavior("udiv by zero")
        return wrap_int(unsigned(a, bits) // unsigned(b, bits), bits)
    if op == "urem":
        if b == 0:
            raise UndefinedBehavior("urem by zero")
        return wrap_int(unsigned(a, bits) % unsigned(b, bits), bits)
    if op == "and":
        return wrap_int(a & b, bits)
    if op == "or":
        return wrap_int(a | b, bits)
    if op == "xor":
        return wrap_int(a ^ b, bits)
    if op == "shl":
        return wrap_int(a << (b % bits), bits)
    if op == "ashr":
        return wrap_int(a >> (b % bits), bits)
    if op == "lshr":
        return wrap_int(unsigned(a, bits) >> (b % bits), bits)
    raise VMError(f"bad binop {op}")


def icmp(pred: str, a: int, b: int, bits: int) -> int:
    if pred in ("ult", "ule", "ugt", "uge"):
        a, b = unsigned(a, bits), unsigned(b, bits)
    if pred == "eq":
        return int(a == b)
    if pred == "ne":
        return int(a != b)
    if pred in ("slt", "ult"):
        return int(a < b)
    if pred in ("sle", "ule"):
        return int(a <= b)
    if pred in ("sgt", "ugt"):
        return int(a > b)
    if pred in ("sge", "uge"):
        return int(a >= b)
    raise VMError(f"bad icmp pred {pred}")


def fcmp(pred: str, a: float, b: float) -> int:
    if math.isnan(a) or math.isnan(b):
        return 0  # ordered comparisons are false on NaN
    return {
        "oeq": a == b, "one": a != b, "olt": a < b,
        "ole": a <= b, "ogt": a > b, "oge": a >= b,
    }[pred] and 1 or 0


def cast_scalar(op: str, v, to: Type, from_ty: Type):
    if op in ("bitcast", "inttoptr", "ptrtoint"):
        return v
    if op == "trunc":
        return wrap_int(v, to.bits)
    if op == "zext":
        return unsigned(v, from_ty.bits)
    if op == "sext":
        return v  # already sign-canonical
    if op == "fptosi":
        if math.isnan(v) or math.isinf(v):
            raise UndefinedBehavior("fptosi of NaN/Inf")
        return wrap_int(int(v), to.bits)
    if op == "sitofp":
        return float(v)
    if op == "fpext":
        return float(v)
    if op == "fptrunc":
        return struct.unpack("<f", struct.pack("<f", v))[0]
    raise VMError(f"bad cast {op}")
