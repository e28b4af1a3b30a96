"""Exact per-path instruction-cache model for the MC engine.

Where the static analyzer classifies blocks by *persistence* (first-miss
charges at scope entry, :mod:`repro.wcet.icache_static`), the
model-checking engine simply carries the true cache contents along every
explored path: a set-associative, true-LRU tag store identical in
behaviour to the dynamic :class:`repro.memory.cache.Cache` (per-set MRU
recency order; the dynamic model's global stamp counter induces exactly
the per-set order kept here).

Order-free sets: for any cache set whose *program footprint* (distinct
text blocks mapping to it) fits within the associativity, no program
fetch can ever evict a line, so the LRU order within the set is
behaviourally irrelevant.  The cache therefore keeps the resident lines
of all order-free sets as one ``frozenset``, grown only on a miss, and
exact MRU-first tuples only for the sets that can overflow.  With Table 1
geometry (256 sets, 4-way) and the C-lab code footprints, essentially
every set is order-free, so the common state is one shared ``frozenset``
and an empty dict.

The digest is that pair: the frozenset and the sorted MRU tuples of the
overflowing sets.  Two caches have equal digests exactly when every set
holds the same lines (in the same order where the set can overflow):
a line's number fixes its set, so equal unions mean equal contents in
every order-free set.  That is the relation the per-set canonical form
``(index, frozenset or MRU tuple)`` defined, so states that fetched the
same blocks in different orders still merge, and no others do.  This is
an exactness-preserving canonicalization, not an approximation.

``join`` (used only when the engine widens an over-full state set) keeps
the per-set *intersection* of contents with worst-case recency, which can
only add future misses — sound for an upper timing bound.
"""

from __future__ import annotations

from typing import Iterable

from repro.memory.cache import CacheConfig

#: Digest of one cache: the resident lines of the order-free sets, then
#: (index, MRU-first lines) of each overflowing set, by index.
ICacheDigest = tuple[frozenset[int], tuple[tuple[int, tuple[int, ...]], ...]]


def orderfree_sets(
    text_addrs: Iterable[int], config: CacheConfig
) -> frozenset[int]:
    """Cache-set indices where the program's footprint cannot overflow.

    A set with at most ``assoc`` distinct program blocks never evicts
    (instruction fetch is the only traffic into the I-cache), so LRU
    order within it is irrelevant to all future hit/miss outcomes.
    """
    shift = config.block_shift
    num_sets = config.num_sets
    per_set: dict[int, set[int]] = {}
    for addr in text_addrs:
        block = addr >> shift
        per_set.setdefault(block % num_sets, set()).add(block)
    return frozenset(
        index
        for index, blocks in per_set.items()
        if len(blocks) <= config.assoc
    )


class ExactICache:
    """Exact LRU tag store for one explored path.

    Args:
        config: Cache geometry.
        orderfree: Set indices that can never evict
            (:func:`orderfree_sets` of every block the path can fetch).

    Attributes:
        lines: Resident lines of the order-free sets.
        sets: MRU-first lines of each touched overflowing set.  Tuples
            and the frozen ``lines`` make :meth:`clone` a shallow copy.
    """

    __slots__ = ("lines", "sets", "orderfree", "num_sets", "assoc")

    def __init__(self, config: CacheConfig, orderfree: frozenset[int]) -> None:
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self.orderfree = orderfree
        self.lines: frozenset[int] = frozenset()
        self.sets: dict[int, tuple[int, ...]] = {}

    def clone(self) -> "ExactICache":
        other = ExactICache.__new__(ExactICache)
        other.num_sets = self.num_sets
        other.assoc = self.assoc
        other.orderfree = self.orderfree
        other.lines = self.lines
        other.sets = dict(self.sets)
        return other

    def access(self, block: int) -> bool:
        """Reference ``block``; fill/promote like the dynamic cache.

        Returns:
            True on a hit, False on a miss.
        """
        index = block % self.num_sets
        if index in self.orderfree:
            if block in self.lines:
                return True
            self.lines = self.lines | {block}
            return False
        way = self.sets.get(index, ())
        if way and way[0] == block:
            return True  # already MRU (the common straight-line case)
        if block in way:
            self.sets[index] = (block,) + tuple(b for b in way if b != block)
            return True
        self.sets[index] = ((block,) + way)[: self.assoc]
        return False

    def digest(self) -> ICacheDigest:
        """Canonical fingerprint (see module docstring)."""
        return (self.lines, tuple(sorted(self.sets.items())))

    def join(self, other: "ExactICache") -> None:
        """Widen with ``other``: per-set intersection, worst recency.

        Surviving blocks take the *older* (closer-to-eviction) of their
        two positions, so the joined cache never promises more future
        hits than either input — any extra misses only increase the
        bound.  Order-free sets keep the common lines.
        """
        self.lines = self.lines & other.lines
        for index in list(self.sets):
            mine = self.sets[index]
            theirs = other.sets.get(index, ())
            common = [b for b in mine if b in theirs]
            if not common:
                del self.sets[index]
                continue
            common.sort(key=lambda b: max(mine.index(b), theirs.index(b)))
            self.sets[index] = tuple(common)
