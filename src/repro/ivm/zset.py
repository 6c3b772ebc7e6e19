"""Z-set primitives for incremental view maintenance.

A Z-set (DBSP's core abstraction; Budiu et al., PVLDB 2023) is a
collection with integer multiplicities: a plain ``dict`` mapping each
element to a non-zero weight.  Positive weights are (bag) multiplicity,
negative weights are retractions in a delta.  The helpers here keep one
invariant everywhere: a Z-set never stores a zero weight, so emptiness
checks and equality stay structural.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, TypeVar

Element = TypeVar("Element", bound=Hashable)

#: A Z-set over ``Element``: element -> non-zero integer weight.
ZSet = Dict[Element, int]


def zset_add(zset: ZSet, element: Element, weight: int) -> None:
    """Accumulate ``weight`` onto ``element``, dropping zeroed entries."""
    if not weight:
        return
    updated = zset.get(element, 0) + weight
    if updated:
        zset[element] = updated
    else:
        del zset[element]


def zset_merge(target: ZSet, delta: ZSet) -> None:
    """Add every weighted element of ``delta`` into ``target`` in place."""
    for element, weight in delta.items():
        zset_add(target, element, weight)


def zset_from_rows(rows: Iterable[Element]) -> ZSet:
    """Build a Z-set counting the multiplicity of each row in ``rows``."""
    zset: ZSet = {}
    for row in rows:
        zset[row] = zset.get(row, 0) + 1
    return zset


def zset_diff(new: ZSet, old: ZSet) -> ZSet:
    """Return ``new - old`` as a delta Z-set (empty when they agree)."""
    delta: ZSet = {}
    for element, weight in new.items():
        change = weight - old.get(element, 0)
        if change:
            delta[element] = change
    for element, weight in old.items():
        if element not in new:
            delta[element] = -weight
    return delta
