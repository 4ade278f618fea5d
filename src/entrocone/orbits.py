"""Type coordinates: set functions invariant under permutations of x1..xn.

On a ground of k fixed parties followed by x1..xn (`witness_ground` lists
a, b, c, x1..xn), a subset S has the type (K, j): K is S's part among the
fixed parties, a k-bit mask, and j = |S ∩ {x1..xn}|.  Its type index is
K + j * 2^k, so the empty set is type 0 and the index of a disjoint union
is the sum of the indices.

A point constant on types takes, on any functional, the value its
type-space point takes on the functional's projection (the sum of its
coefficients per type).  The order-n independence problem is invariant
under permutations of x1..xn: target, constraints and generator list.  So
it is infeasible exactly when its projection is, and any separating point
averages to one constant on types (Gatermann & Parrilo, J. Pure Appl.
Algebra 192, 2004).  `independence_orbits(n)` builds that projection
directly, one column per orbit, on (n + 1) 2^k - 1 rows; `TypeSpace.lift`
turns its separating point back into a set function on the full ground.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterator

from .setfn import GroundSet, SetFunction, submasks
from .inequalities import LinearFunctional, builtin
from .witness import standard_instance
from .certify import family_orders


@dataclass(frozen=True)
class TypeSpace:
    """The types of the subsets of (fixed parties, x1..xn), indexed as the
    module docstring says.  It stands where `LinearFunctional`,
    `SetFunction` and `cone_membership` take a ground: `n_subsets`
    coordinates, coordinate 0 the empty set."""

    fixed: tuple[str, ...]
    n: int

    @property
    def ground(self) -> GroundSet:
        """The full ground: the fixed parties, then x1..xn."""
        return GroundSet(self.fixed + tuple(f"x{i}" for i in range(1, self.n + 1)))

    @property
    def n_subsets(self) -> int:
        return (self.n + 1) << len(self.fixed)

    def type_of(self, mask: int) -> int:
        """The type index of a subset of the full ground."""
        k = len(self.fixed)
        return (mask & ((1 << k) - 1)) + ((mask >> k).bit_count() << k)

    def subset_str(self, t: int) -> str:
        """A type as `LinearFunctional.describe` writes it, e.g. {a,c,2x}."""
        k = len(self.fixed)
        fixed = [lab for i, lab in enumerate(self.fixed) if t >> i & 1]
        return "{" + ",".join(fixed + ([f"{t >> k}x"] if t >> k else [])) + "}"

    def project(self, functional: LinearFunctional) -> LinearFunctional:
        """A functional on the full ground as a functional on the types:
        the sum of its coefficients per type."""
        if functional.ground != self.ground:
            raise ValueError("the functional is not on the type space's ground")
        nums: dict[int, int] = {}
        for mask, c in functional.nums.items():
            t = self.type_of(mask)
            nums[t] = nums.get(t, 0) + c
        return LinearFunctional._from_ints(self, nums, functional.den)

    def lift(self, point: SetFunction) -> SetFunction:
        """A point on the types as the set function y(S) = point(type of S)
        on the full ground."""
        if point.ground != self:
            raise ValueError("the point is not on this type space")
        ground = self.ground
        return SetFunction(ground, [point.values[self.type_of(m)]
                                    for m in range(ground.n_subsets)])

    def subtypes(self, used: int) -> list[int]:
        """The types of the subsets of the parties outside a set of type
        `used`."""
        k = len(self.fixed)
        free = ((1 << k) - 1) & ~used
        return [f + (m << k) for m in range(self.n - (used >> k) + 1) for f in submasks(free)]


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
    x = 1 << k
    parties = [1 << i for i in range(k)] + [x] * (space.n >= 1)
    pairs = list(combinations(parties, 2)) + [(x, x)] * (space.n >= 2)
    for i, j in pairs:
        for g in space.subtypes(i + j):
            yield _form(space, ((i + g, 1), (j + g, 1), (g, -1), (i + j + g, -1)))
    full = (1 << k) - 1 + (space.n << k)
    for i in parties:
        for a in space.subtypes(i):
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


def independence_orbits(n: int):
    """`independence_problem(n)` on the types of (a, b, c, x1..xn): the
    projected target and constraints, and one column per orbit of its
    cone, zero and repeated columns dropped: the c_p profiles for the
    orders of `family_orders(n)`, then the elemental orbits (in that order
    Bland's rule took 101 to 1,614 pivots at n = 2..8, against 107 to 3,787
    the other way round).  Returns (target, generators, constraints, space,
    "infeasible")."""
    target = standard_instance(n, n)
    space = TypeSpace(("a", "b", "c"), n)
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
