"""Dominance relations, the (1+ε)-position grid, and the exact skyline.

All vectors here are *normalized, minimized* measure tuples (paper §2):
``u`` dominates ``v`` iff u ≤ v componentwise with at least one strict
inequality (§4); ``u`` ε-dominates ``v`` iff u ≤ (1+ε)·v componentwise
and u ≤ v on at least one decisive measure (§5.1). ``position``
implements Eq. (1): the floor-log_(1+ε) grid cell over the first |P|−1
measures, with the last measure decisive by default. ``kung_skyline``
is the exact skyline (named for the maxima problem of Kung et al.
[24]) used by UPareto's final cleanup, by the exact fixed-parameter
baseline of Theorem 1 and by tests to check UPareto's output.
"""
from __future__ import annotations

import math
from typing import Sequence

Vec = tuple[float, ...]


def dominates(u: Vec, v: Vec) -> bool:
    """True iff u dominates v (minimize; §4)."""
    return all(a <= b for a, b in zip(u, v)) and any(a < b for a, b in zip(u, v))


def eps_dominates(u: Vec, v: Vec, eps: float) -> bool:
    """True iff u ε-dominates v (§5.1): u ≤ (1+ε)v all, u ≤ v somewhere."""
    return all(a <= (1 + eps) * b for a, b in zip(u, v)) and any(
        a <= b for a, b in zip(u, v)
    )


def position(vec: Vec, lowers: Sequence[float], eps: float) -> tuple[int, ...]:
    """Eq. (1): discretized cell over the first |P|−1 measures."""
    out = []
    for p, pl in zip(vec[:-1], lowers[:-1]):
        ratio = max(p, pl) / pl
        out.append(int(math.floor(math.log(ratio, 1 + eps) + 1e-12)))
    return tuple(out)


def kung_skyline(vectors: list[Vec]) -> list[int]:
    """Ascending indices of the exact skyline (non-dominated set) of
    ``vectors``; of identical vectors only the lowest index is kept.

    A plain O(n²·d) non-dominated filter: the skylines and candidate
    sets here hold tens of entries, so Kung/Luccio/Preparata's
    divide-and-conquer [24] buys nothing.
    """
    out: list[int] = []
    kept: set[Vec] = set()
    for i, v in enumerate(vectors):
        if v not in kept and not any(dominates(u, v) for u in vectors):
            out.append(i)
            kept.add(v)
    return out
