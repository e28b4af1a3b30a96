"""Timing values as lines in the memory stall (paper §1.2).

The paper asks for WCET "parameterized in terms of worst-case memory
latency".  The stall enters the in-order recurrence only as an added
term at each charged I-cache miss; every other step is ``max`` or
``+``.  So over a closed stall range ``[lo, hi]`` a timing quantity is
the line ``base + misses * stall`` wherever each ``max`` on its way has
one operand at or above the other at every stall of the range:

* ``+`` of two lines is a line, and so is a non-negative multiple, and
* ``max`` of two lines is the upper one when one is above the other on
  the whole range.

Each is exact at every stall of the range, because evaluating at one
stall commutes with all of them.  :class:`StallRange` carries the
operations a range pass of :mod:`repro.wcet.analyzer` needs on lines;
it raises :class:`RangeFallback` where two lines cross inside the range
or a loop decision differs between stalls, and the analyzer then
answers each stall with its own pass.

A line is a plain ``int``: ``base + misses * UNIT``.  Sums and
non-negative multiples of packed lines are the packed sums and
multiples, and a stall-independent constant ``c`` is the line ``c``
itself, so the walk's ``+``, ``-``, ``*`` and ``+ 1`` run unchanged.
"""

from __future__ import annotations

#: Bits below the miss count of a packed line; ``|base|`` stays below
#: ``2**(_SHIFT - 1)`` cycles (about 1.4e14).
_SHIFT = 48
UNIT = 1 << _SHIFT
_HALF = UNIT >> 1
_MASK = UNIT - 1

#: The stall itself: the line ``0 + 1 * stall``.
STALL = UNIT

#: One line as stored and reported: ``(base, misses)``.
Line = tuple[int, int]


class RangeFallback(Exception):
    """A range pass cannot stay exact; answer each stall with its own pass."""


def unpack(packed: int) -> Line:
    """``(base, misses)`` of a packed line."""
    base = ((packed + _HALF) & _MASK) - _HALF
    return base, (packed - base) >> _SHIFT


def pack(base: int, misses: int) -> int:
    """The packed line ``base + misses * stall``."""
    return base + misses * UNIT


class StallRange:
    """The closed integer stall range ``[lo, hi]`` of one range pass.

    Supplies the operations the shared walk needs beyond ``+`` and
    ``*``: the join (:meth:`vmax`), the loop's convergence test
    (:meth:`same`) and the read-out (:meth:`at`).
    """

    def __init__(self, lo: int, hi: int) -> None:
        if not 0 <= lo <= hi:
            raise ValueError(f"bad stall range [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return f"StallRange({self.lo}, {self.hi})"

    def vmax(self, a: int, b: int) -> int:
        """The line at or above the other at every stall of the range.

        Raises:
            RangeFallback: the lines cross inside the range, so their
                maximum is no line.
        """
        diff = a - b
        if -_HALF < diff < _HALF:  # same miss count: compare bases
            return a if diff > 0 else b
        base, misses = unpack(diff)
        at_lo = base + misses * self.lo
        at_hi = base + misses * self.hi
        if at_lo >= 0 and at_hi >= 0:
            return a
        if at_lo <= 0 and at_hi <= 0:
            return b
        raise RangeFallback("two timing lines cross inside the stall range")

    def same(self, a: int, b: int) -> bool:
        """Are ``a`` and ``b`` equal, at every stall of the range alike?

        Raises:
            RangeFallback: equal at some stalls and not at others, so a
                scalar pass would decide differently across the range.
        """
        if a == b:
            return True
        base, misses = unpack(a - b)
        if misses and not base % misses and self.lo <= -base // misses <= self.hi:
            raise RangeFallback("a loop converges at some stalls only")
        return False

    @staticmethod
    def at(value: int, stall: int) -> int:
        """``value`` evaluated at one stall."""
        base, misses = unpack(value)
        return base + misses * stall
