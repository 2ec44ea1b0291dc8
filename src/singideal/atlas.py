"""Enumeration of abelian groups by isomorphism class and the AI atlas
sweep that cross-validates the span verdict against the subgroup-count
criterion on every class.
"""

from __future__ import annotations

import functools
from typing import Iterator, List, Tuple

from .groups import FiniteGroup, SizeCapError, cyclic, direct_product
from .ideals import abelian_AI_criterion, property_AI

ATLAS_ORDER_CAP = 64


def integer_partitions(n: int) -> Iterator[Tuple[int, ...]]:
    """Non-increasing partitions of n, in descending lexicographic order."""
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def _factorize(n: int) -> List[Tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def abelian_groups_of_order(n: int, factor=cyclic) -> List[Tuple[Tuple[int, ...], FiniteGroup]]:
    """One group per isomorphism class: all choices of prime-power cyclic
    factors, primes ascending and exponents non-increasing within a prime.

    Returns (prime-power factor tuple, group) pairs.  ``factor(q)`` builds
    the factor C_q; ``ai_atlas`` passes a memoised ``cyclic``.
    """
    combos = [()]
    for p, e in _factorize(n):
        combos = [c + tuple(p ** k for k in part)
                  for c in combos for part in integer_partitions(e)]
    # the empty product (n = 1) is cyclic(1)
    return [(factors, direct_product([factor(q) for q in factors]))
            for factors in sorted(combos)]


def ai_atlas(max_order: int) -> dict:
    """Sweep all abelian isomorphism classes of order <= max_order.

    Each row carries the span-test verdict and the at-most-one-subgroup-
    of-each-prime-order criterion; a disagreement row is a failure.
    """
    if max_order > ATLAS_ORDER_CAP:
        raise SizeCapError(f"the atlas is capped at order {ATLAS_ORDER_CAP}")
    rows = []
    disagreements = 0
    factor = functools.cache(cyclic)     # one group per factor order, this call
    for n in range(1, max_order + 1):
        for factors, group in abelian_groups_of_order(n, factor):
            report = property_AI(group)
            criterion = abelian_AI_criterion(group)
            agree = report.ai_verdict == criterion
            if not agree:
                disagreements += 1
            rows.append({
                "order": n,
                "factors": [str(q) for q in factors],
                "name": group.name,
                "ai_span_oracle": report.ai_verdict,
                "ai_subgroup_criterion": criterion,
                "agree": agree,
            })
    return {"max_order": max_order, "rows": rows, "disagreements": disagreements}
