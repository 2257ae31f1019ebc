"""Integer intervals, written once for the range lint and tier-2.

The lint's range walk (:mod:`repro.analysis.passes`) has bounds that
may be ``±inf`` (its joins :func:`widen`) and widens a ``None`` to the
whole type.  Tier-2's counted loops (:class:`repro.tiers.BlockEmitter`)
have exact bounds, the names a range is *assumed* from and the value's
:class:`Affine` form, and keep the wrap on a ``None``.  Nothing here
asks who is calling.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.bytecode.opcodes import TYPE_TAGS
from repro.lang import types as ty

INF = float("inf")


class Affine(NamedTuple):
    """A counted loop's value as a function of its trip: ``scale * iv
    + offset + sum(k * name for name, k in terms)`` in exact integer
    arithmetic, over loop-invariant ints ``terms`` (sorted)."""

    scale: int
    offset: int
    terms: Tuple[Tuple[str, int], ...] = ()

    def plus(self, other: "Affine", sign: int = 1) -> "Affine":
        terms = dict(self.terms)
        for name, k in other.terms:
            terms[name] = terms.get(name, 0) + sign * k
        return Affine(self.scale + sign * other.scale,
                      self.offset + sign * other.offset,
                      tuple(sorted((n, k) for n, k in terms.items() if k)))

    def times(self, k: int) -> "Affine":
        return Affine(self.scale * k, self.offset * k,
                      tuple((n, c * k) for n, c in self.terms if c * k))

    def at(self, iv: str) -> str:
        """Python text of the value on the trip whose induction
        variable is the expression ``iv``."""
        parts = [] if not self.scale else \
            [iv if self.scale == 1 else f"{self.scale} * {iv}"]
        parts += [n if k == 1 else f"{k} * {n}" for n, k in self.terms]
        text = " + ".join(parts) or "0"
        if self.offset:
            text += f" + {self.offset}" if self.offset > 0 \
                else f" - {-self.offset}"
        return text


class Interval(NamedTuple):
    """What an integer value is known to hold: ``lo <= value <= hi``.
    ``deps`` names the loop-invariant values whose *assumed* range it
    rests on (tier-2 leans on them when it drops a wrap,
    :meth:`repro.tiers.BlockEmitter.fits`), and ``aff`` is the value's
    exact :class:`Affine` form in a counted loop, when it has one."""

    lo: int
    hi: int
    deps: frozenset = frozenset()
    aff: Optional[Affine] = None


#: nothing known
TOP = Interval(-INF, INF)


def int_interval(int_ty) -> Interval:
    """Every value of ``int_ty``."""
    return Interval(ty.int_min(int_ty), ty.int_max(int_ty))


#: integer type tag -> every value of the type
TAG_INTERVALS = {tag: int_interval(t) for tag, t in TYPE_TAGS.items()
                 if ty.is_integer(t)}


def within(rng: Interval, int_ty) -> bool:
    """Is every value of ``rng`` a value of ``int_ty``?  (A NaN bound
    is not.)"""
    return ty.int_min(int_ty) <= rng.lo and rng.hi <= ty.int_max(int_ty)


def affine_of(rng: Interval) -> Optional[Affine]:
    """The exact affine form of a value known to lie in ``rng``: its
    own, or a constant's."""
    if rng.aff is None and rng.lo == rng.hi and not rng.deps:
        return Affine(0, rng.lo)
    return rng.aff


def hull(a: Interval, b: Interval) -> Interval:
    return Interval(min(a.lo, b.lo), max(a.hi, b.hi))


def widen(old: Interval, new: Interval) -> Interval:
    """``old``, but a side ``new`` moves past jumps to infinity: a
    chain of joins settles after one widening per bound."""
    if new.lo >= old.lo and new.hi <= old.hi:
        return old
    return Interval(old.lo if new.lo >= old.lo else -INF,
                    old.hi if new.hi <= old.hi else INF)


# One transfer function per op: ``(lo, hi, affine form or None)`` of
# the unwrapped result from the operands and their affine forms ``x``,
# ``y``, or ``None`` where it does not follow them.  Bounds may be
# ``±inf``: ``inf - inf`` and ``0 * inf`` are NaN, which no type holds.

def _add(a, b, x, y, bits):
    return a.lo + b.lo, a.hi + b.hi, x.plus(y) if x and y else None


def _sub(a, b, x, y, bits):
    return a.lo - b.hi, a.hi - b.lo, x.plus(y, -1) if x and y else None


def _mul(a, b, x, y, bits):
    ends = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    aff = None
    if x and y and not (x.scale or x.terms):
        aff = y.times(x.offset)
    elif x and y and not (y.scale or y.terms):
        aff = x.times(y.offset)
    return min(ends), max(ends), aff


def _shl(a, b, x, y, bits):
    if b.lo != b.hi or type(b.lo) is not int:
        return None                 # a constant count only
    k = 1 << (b.lo & (bits - 1))    # masked as the kernel masks it
    return a.lo * k, a.hi * k, x.times(k) if x else None


def _min(a, b, x, y, bits):
    return min(a.lo, b.lo), min(a.hi, b.hi), None


def _max(a, b, x, y, bits):
    return max(a.lo, b.lo), max(a.hi, b.hi), None


TRANSFERS = {"add": _add, "sub": _sub, "mul": _mul, "shl": _shl,
             "min": _min, "max": _max}


def binop(op: str, int_ty, a: Interval, b: Interval) -> Optional[Interval]:
    """The exact interval of the unwrapped ``a op b`` over ``int_ty``
    operands, or ``None`` when :data:`TRANSFERS` does not follow it."""
    transfer = TRANSFERS.get(op)
    got = None if transfer is None or not isinstance(int_ty, ty.IntType) \
        else transfer(a, b, affine_of(a), affine_of(b), int_ty.bits)
    return None if got is None else Interval(*got[:2], a.deps | b.deps,
                                             got[2])


def exact_binop(op: str, int_ty, a: Interval,
                b: Interval) -> Optional[Interval]:
    """:func:`binop` when every value of it is a value of ``int_ty``
    (the wrap is the identity), else ``None``."""
    rng = binop(op, int_ty, a, b)
    return rng if rng is not None and within(rng, int_ty) else None
