"""Orbit columns: the order-n independence problem on the types of
`witness_space(n)` (`setfn.TypeSpace`).

The problem is invariant under permutations of x1..xn: target,
constraints and generator list.  So it is infeasible exactly when its
projection onto the types is, and any separating point averages to one
constant on types (Gatermann & Parrilo, J. Pure Appl. Algebra 192, 2004).
`independence_orbits(n)` builds that projection directly, one column per
orbit, on (n + 1) 2^k - 1 rows; `TypeSpace.lift` turns its separating
point back into a set function on the full ground.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterator

from .setfn import TypeSpace
from .inequalities import Instance, LinearFunctional, builtin
from .witness import standard_instance, witness_space
from .certify import family_orders


def _form(space: TypeSpace, terms) -> LinearFunctional:
    """sum c * S(t) over (t, c) pairs, type 0 (the empty set) dropped."""
    nums: dict[int, int] = {}
    for t, c in terms:
        if t:
            nums[t] = nums.get(t, 0) + c
    return LinearFunctional._from_ints(space, nums)


def elemental_orbits(space: TypeSpace) -> Iterator[LinearFunctional]:
    """The projections of `elemental_forms(space.ground)`, one per orbit:
    I(i:j|K) for each orbit of (i, j, K), then S(iK) + S(iL) - S(K) - S(L)
    for each orbit of (i, {K, L}).  A party is its type, any x being 2^k.
    On three fixed parties there are 36n + 4 orbits."""
    k = len(space.fixed)
    x, full = 1 << k, space.full_mask
    parties = [1 << i for i in range(k)] + [x] * (space.n >= 1)
    pairs = list(combinations(parties, 2)) + [(x, x)] * (space.n >= 2)
    for i, j in pairs:
        for g in space.below(full - i - j):
            yield _form(space, ((i + g, 1), (j + g, 1), (g, -1), (i + j + g, -1)))
    for i in parties:
        for a in space.below(full - i):
            b = full - i - a
            if a <= b:  # the split {a, b} once
                yield _form(space, ((i + a, 1), (i + b, 1), (a, -1), (b, -1)))


def _profiles(slots: int, total: int, largest: int) -> Iterator[tuple]:
    """The multisets of `slots` sizes in 0..largest summing to at most
    `total`, each as its (size, count) runs, sizes decreasing."""
    if not slots:
        yield ()
        return
    for m in range(min(total, largest), -1, -1):
        for r in range(1, slots + 1):
            if m * r > total:
                break
            for rest in _profiles(slots - r, total - m * r, m - 1):
                yield ((m, r), *rest)


def family_orbits(space: TypeSpace, p: int) -> Iterator[LinearFunctional]:
    """The projections of the c_p instances `independence_problem` lists
    (A, B, C bound to the first three fixed parties, X1..Xp disjoint and
    possibly empty sets of x's), one per orbit.  X1..Xp are interchangeable,
    so a projection depends only on the multiset of their sizes: one column
    per profile."""
    k = len(space.fixed)
    # the terms by the X slots they name: none, X1 alone (each X slot has
    # X1's terms, shifted) or every one (X1 alone when p = 1); A, B and C
    # have the bits of the first three fixed parties
    x_all = ((1 << p) - 1) << 3
    none, one, every = {}, [], []
    for t, c in builtin("c_n", p).functional.nums.items():
        named = t & x_all
        if not named:
            none[t] = c
        elif named == 8:
            one.append((t & 7, c))
        elif named == x_all:
            every.append((t & 7, c))
    for runs in _profiles(p, space.n, space.n):
        nums, total = dict(none), 0
        for m, r in runs:
            total += m * r
            for base, c in one:
                t = base + (m << k)
                nums[t] = nums.get(t, 0) + r * c
        for base, c in every:
            t = base + (total << k)
            nums[t] = nums.get(t, 0) + c
        nums.pop(0, None)  # the empty set
        yield LinearFunctional._from_ints(space, nums)


def independence_orbits(n: int, target: Instance | None = None):
    """`independence_problem(n)` on the types of (a, b, c, x1..xn): the
    projected target and constraints, and one column per orbit of its
    cone, zero and repeated columns dropped: the c_p profiles for the
    orders of `family_orders(n)`, then the elemental orbits (in that order
    Bland's rule took 101 to 1,614 pivots at n = 2..8, against 107 to 3,787
    the other way round).  `target` is `standard_instance(n, n)`, built
    here unless the caller has it.  Returns (target, generators,
    constraints, space, "infeasible")."""
    space = witness_space(n)
    if target is None:
        target = standard_instance(n, n)
    columns = chain(*(family_orbits(space, p) for p in family_orders(n)),
                    elemental_orbits(space))
    return (space.project(target.functional), list(_distinct(columns)),
            [space.project(c) for c in target.constraints], space, "infeasible")


def _distinct(columns: Iterator[LinearFunctional]) -> Iterator[LinearFunctional]:
    seen = set()
    for column in columns:
        if not column.is_zero() and column not in seen:
            seen.add(column)
            yield column
