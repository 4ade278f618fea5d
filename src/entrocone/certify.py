"""Exact certificates for membership of a target functional in the cone
generated by known inequality instances, modulo constraint functionals.

Membership asks for target = sum lambda_i * gen_i + sum mu_j * con_j with
lambda_i >= 0 and mu_j free.  Every answer is exact and re-checked in
rational arithmetic: a feasible answer returns the multipliers, an
infeasible one returns an exact separating point (a set function nonnegative
on every generator, zero on every constraint, strictly negative on the
target).  One exact phase-1 simplex decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from math import gcd, lcm
from typing import Iterator, Sequence

import numpy as np

from .setfn import GroundSet, SetFunction, TypeSpace, FLOAT64, list_field, size_str
from .inequalities import (
    BATCH_ROWS,
    Forms,
    Instance,
    LinearFunctional,
    _cmi_terms,
    builtin,
    cleared_values,
    instantiate,
    slot_blocks,
    terms_from_obj,
    terms_to_obj,
)
from .witness import standard_c_binding, standard_instance, witness_space

# the most rows cone_membership takes: a row per nonempty subset of a
# 12-party ground.  The LP holds its m x m basis inverse (134 MB at 4,095
# rows) and its columns' nonzeros, never a dense rows x columns matrix
MAX_LP_ROWS = 4095
# the most generators it takes: an LP column each
MAX_GENERATORS = 20000
# the most pivots one run takes before it gives up as too large to decide
MAX_PIVOTS = 2_000_000


@dataclass(frozen=True)
class Certificate:
    """A claimed separating point; the generators and constraints may each be a `Forms`."""

    point: SetFunction
    generators: Sequence[LinearFunctional]
    constraints: Sequence[LinearFunctional]
    target: LinearFunctional


@dataclass
class CertificateReport:
    valid: bool
    failures: list  # {"kind": "generator"|"constraint"|"target", "index", "value"}
    target_value: Fraction

    def __bool__(self):
        return self.valid


def _magnitude(forms: Forms) -> tuple[int, int]:
    """The largest |numerator| of the batch's forms, and the most terms of one."""
    nums = forms.nums
    return (max(int(nums.max(initial=0)), -int(nums.min(initial=0))),
            int(np.diff(forms.starts).max(initial=0)))


def verify_certificate(cert: Certificate) -> CertificateReport:
    """Exactly re-evaluate a separating point against every item.

    Valid means: >= 0 on each generator, == 0 on each constraint, < 0 on the
    target.  The point must be exact; float points are rejected.  The
    generators and the constraints are each one batch (`Forms.of`), and
    each batch is evaluated BATCH_ROWS items at a time (a bounded buffer),
    in one gather over their flat nonzeros: the point's values at the
    masks, multiplied in place by the numerators and summed per item, with
    the point cleared to integers (the values times a positive integer, so
    the same signs).  That runs in int64 when
    max |table| * max |c| * (the most terms of an item), each factor at
    least 1, is below 2^63: it bounds the table, the numerators and
    max |table| * (the largest sum |c| of an item).  Else it runs in
    Python integers.
    """
    f = cert.point
    if f.domain == FLOAT64:
        raise ValueError("certificate point must be exact (integer or rational)")
    kinds = (("generator", cert.generators, np.less),
             ("constraint", cert.constraints, np.not_equal))
    batches = [Forms.of(f.ground, items) for _, items, _ in kinds]  # refuses a foreign ground
    table, _ = cleared_values(f)
    top, width = map(max, zip(*map(_magnitude, batches)))
    bound = max(1, *map(abs, table)) * max(top, 1) * max(width, 1)
    values = np.array(table, dtype=np.int64 if bound < 2**63 else object)
    failures = []
    for (kind, items, fails), forms in zip(kinds, batches):
        dots = np.zeros(len(forms), dtype=values.dtype)
        full = np.flatnonzero(np.diff(forms.starts))  # reduceat would give an empty item the next value
        for at in range(0, len(full), BATCH_ROWS):
            rows = full[at:at + BATCH_ROWS]
            lo, hi = forms.starts[rows[0]], forms.starts[rows[-1] + 1]
            terms = values.take(forms.masks[lo:hi])
            terms *= forms.nums[lo:hi].astype(values.dtype, copy=False)
            dots[rows] = np.add.reduceat(terms, forms.starts[rows] - lo)
        failures += [{"kind": kind, "index": i, "value": Fraction(items[i].evaluate(f))}
                     for i in np.flatnonzero(fails(dots, 0)).tolist()]
    tval = Fraction(cert.target.evaluate(f))
    if tval >= 0:
        failures.append({"kind": "target", "index": 0, "value": tval})
    return CertificateReport(valid=not failures, failures=failures, target_value=tval)


@dataclass
class Feasible:
    """target = sum coefficients[i] * generators[i] + sum constraint_coefficients[j] * constraints[j]."""

    coefficients: tuple[Fraction, ...]
    constraint_coefficients: tuple[Fraction, ...]
    pivots: int = 0
    method: str = "simplex"
    # the entries of the LP's packed columns, for the report's stats
    nonzeros: int = field(default=0, metadata={"json": False})

    @property
    def feasible(self) -> bool:
        return True


@dataclass
class Infeasible:
    """Exact separating point: the membership system has no solution."""

    farkas_point: SetFunction
    pivots: int = 0
    method: str = "simplex"
    nonzeros: int = field(default=0, metadata={"json": False})  # as Feasible's

    @property
    def feasible(self) -> bool:
        return False


class _Simplex:
    """Phase-1 revised simplex with Bland's rule, exact and fraction-free.

    The LP is held sparse: its columns are the forms of `columns` (a
    column's mask m in row m - 1 of `nrows`, its denominator not read),
    the right-hand side the dict `rhs`.  It
    keeps the m x m basis inverse and the basic values, not the tableau,
    and forms from the columns' nonzeros only the columns a pivot needs:
    `M = D * B^-1` and `b = D * x_B` over one denominator D > 0, the views
    of one (m, m + 1) array `T = [M | b]`, updated as Bareiss updates a
    tableau; in exact arithmetic Bland's rule never cycles.  `objective`,
    `solution` and `dual_prices` read them as Python ints and Fractions of
    them.  `T` and the nonzeros are int64 while each value a step forms
    (the duals and prices, the column M a_c, the Bareiss products) is
    checked to stay below 2**63; the first check that fails moves them to
    Python ints for the rest of the run, as does an entry of 2**63 or
    more.  Rows are scaled to b >= 0 and start on the
    artificial basis; the phase-1 objective is the sum of the artificials.
    """

    def __init__(self, columns: Forms, rhs: dict, nrows: int):
        m, n = nrows, len(columns)
        self.nrows, self.ncols, self.D = m, n, 1
        top, width = _magnitude(columns)
        self.wide = max(top, *map(abs, rhs.values()), 0) >= 2**63
        dtype = object if self.wide else np.int64
        b = np.zeros(m, dtype=dtype)
        for mask, c in rhs.items():
            b[mask - 1] = c
        self.row_sign = np.where(b < 0, -1, 1)
        self.T = np.eye(m, m + 1, dtype=dtype)
        self.T[:, m] = b * self.row_sign
        self.basis = list(range(n, n + m))
        self.artificial = np.ones(m, dtype=bool)  # rows whose basic variable is artificial
        self.pivots = 0
        # the nonzeros column by column: column c is vals[starts[c]:starts[c + 1]]
        # in the rows rows[starts[c]:starts[c + 1]]
        self.starts = columns.starts
        self.rows = columns.masks.astype(np.intp) - 1
        self.vals = columns.nums.astype(dtype) * self.row_sign[self.rows]
        self.nonzero_cols = np.flatnonzero(np.diff(self.starts))
        self.nonzero_starts = self.starts[self.nonzero_cols]
        # the largest sum |c| of a column, in Python ints where int64 could overflow
        mags = np.abs(columns.nums.astype(np.int64 if top * width < 2**63 else object,
                                          copy=False))
        self.abs_sum = (int(np.add.reduceat(mags, self.nonzero_starts).max())
                        if len(self.nonzero_cols) else 0)
        self.peak = max([1, *np.abs(self.b).tolist()])  # bounds |T|

    @property
    def M(self) -> np.ndarray:
        return self.T[:, :-1]

    @property
    def b(self) -> np.ndarray:
        return self.T[:, -1]

    def _int64(self, bound: int) -> bool:
        """Whether a step whose values are at most `bound` in absolute value
        runs in int64.  A bound of 2**63 or more moves the run to Python ints
        for good."""
        if not self.wide and bound >= 2**63:
            self.wide = True
            self.T, self.vals = self.T.astype(object), self.vals.astype(object)
        return not self.wide

    @property
    def objective(self):
        return Fraction(sum(int(v) for v, j in zip(self.b, self.basis) if j >= self.ncols),
                        self.D)

    def _duals(self) -> np.ndarray:
        """y = c_B M, the phase-1 duals of the scaled rows times D."""
        self._int64(self.nrows * self.peak)
        return self.M[self.artificial].sum(axis=0)  # no products by 0 or 1

    def _entering(self):
        """Bland's entering column: the first with a negative reduced cost,
        or None.  The reduced costs times D are -y A, from A's nonzeros, and
        D - y."""
        y = self._duals()
        if not self._int64(int(np.abs(y).max(initial=0)) * self.abs_sum):
            y = y.astype(object)
        prices = np.zeros(self.ncols, dtype=y.dtype)
        if len(self.nonzero_cols):
            prices[self.nonzero_cols] = np.add.reduceat(
                y[self.rows] * self.vals, self.nonzero_starts)
        hits = (prices > 0).nonzero()[0]
        if len(hits):
            return int(hits[0])
        hits = (self.D - y < 0).nonzero()[0]
        return self.ncols + int(hits[0]) if len(hits) else None

    def _column(self, c: int) -> np.ndarray:
        """Column c of the tableau, M a_c, from the nonzeros of a_c."""
        if c >= self.ncols:
            return self.M[:, c - self.ncols].copy()
        self._int64(self.peak * self.abs_sum)
        nz = slice(self.starts[c], self.starts[c + 1])
        return self.M[:, self.rows[nz]] @ self.vals[nz]

    def _leaving(self, col: np.ndarray, rows: np.ndarray) -> int:
        """The ratio test: the row of least b_i / col_i over `rows`, ties
        to the lowest basic index.  Ratios are compared by
        cross-multiplication in Python ints."""
        b, basis = self.b, self.basis
        leave, bl, cl = None, 0, 1
        for i, bi, ci in zip(rows.tolist(), b[rows].tolist(), col[rows].tolist()):
            cross = bi * cl - bl * ci
            if leave is None or cross < 0 or (cross == 0 and basis[i] < basis[leave]):
                leave, bl, cl = i, bi, ci
        return leave

    def solve(self):
        """Pivot to an optimal basis; a ValueError past MAX_PIVOTS, as a
        problem too large to decide."""
        while (c := self._entering()) is not None:
            col = self._column(c)
            rows = (col > 0).nonzero()[0]
            if not len(rows):
                raise RuntimeError("phase-1 objective unbounded; should not happen")
            self._pivot(self._leaving(col, rows), c, col)
            if self.pivots > MAX_PIVOTS:
                raise ValueError(f"the simplex did not decide within {MAX_PIVOTS} pivots")

    def _pivot(self, r: int, c: int, col: np.ndarray):
        # fraction-free (Bareiss): row r stays and every other T_ij becomes
        # (T_ij * piv - col_i * T_rj) / D, exact since each entry is an
        # integer minor; D becomes |piv|, every sign flipped if piv < 0.
        # Each product is at most peak * max|col|.
        if not self._int64(2 * self.peak * int(np.abs(col).max())):
            col = col.astype(object)
        T, piv = self.T, col[r]
        sign = 1 if piv > 0 else -1
        d, row = sign * self.D, T[r].copy()
        T *= piv
        T -= np.multiply.outer(col, row)
        T //= d
        T[r] = sign * row
        self.D = int(abs(piv))
        if not self.wide:
            self.peak = max(int(np.abs(T).max()), 1)
        self.basis[r] = c
        self.artificial[r] = c >= self.ncols
        self.pivots += 1

    def solution(self) -> list:
        x = [0] * self.ncols
        for i, var in enumerate(self.basis):
            if var < self.ncols:
                x[var] = Fraction(int(self.b[i]), self.D)
        return x

    def dual_prices(self) -> list:
        # the duals of the rows as given, undoing their scaling to b >= 0
        return [Fraction(v, self.D) for v in (self._duals() * self.row_sign).tolist()]


def cone_membership(
    target: LinearFunctional,
    generators: Sequence[LinearFunctional],
    constraints: Sequence[LinearFunctional] = (),
):
    """Decide exactly whether target lies in cone(generators) + span(constraints).

    Returns Feasible (with multipliers) or Infeasible (with a separating set
    function scaled to integers), from one exact Bland simplex run over the
    phase-1 LP; `pivots` counts its pivots and `nonzeros` its columns'
    entries.  The LP has a row per nonempty subset of the ground (or per
    nonempty type of a `setfn.TypeSpace`), and its columns are the
    generators' batch (`Forms.of`; either argument may be a `Forms`), then
    each constraint beside its negation, packed from their dicts; more than
    MAX_LP_ROWS rows or MAX_GENERATORS generators are refused before
    anything is allocated, an item on another ground when they are packed,
    and the run raises a ValueError when it does not decide within
    MAX_PIVOTS pivots.  Every answer is re-checked exactly before it is
    returned, multipliers by `_check_combination` and a separating point by
    `verify_certificate` on the generators' and constraints' batches.
    """
    ground = target.ground
    dim = ground.n_subsets - 1
    if dim > MAX_LP_ROWS:
        raise ValueError(f"an LP of {size_str(dim)} rows exceeds the cap of {MAX_LP_ROWS} rows")
    if len(generators) > MAX_GENERATORS:
        raise ValueError(f"{len(generators)} generators exceeds cap {MAX_GENERATORS}")

    # LP columns: one per generator, a +/- pair per constraint (a free
    # multiplier), each the item's numerators, so column j is scales[j] times
    # its item; the right-hand side is the target's numerators, target.den
    # times it.  Under Bland's rule a zero column never enters, nor does a
    # repeated ray: its first copy has a lower index and a reduced cost of
    # the same sign.
    try:
        gens, cons = Forms.of(ground, generators), Forms.of(ground, constraints)
    except ValueError:
        raise ValueError("all functionals must share one ground set") from None
    columns = Forms.concat([gens, Forms.of(ground, [
        *chain.from_iterable((con, con.scale(-1)) for con in constraints)])])
    sx = _Simplex(columns, target.nums, dim)
    sx.solve()
    if sx.objective == 0:
        x = [Fraction(v * scale, target.den)
             for v, scale in zip(sx.solution(), columns.dens.tolist())]
        k = len(gens)
        lams, mus = x[:k], [x[pos] - x[pos + 1] for pos in range(k, len(x), 2)]
        if _check_combination(target, generators, lams, constraints, mus):
            return Feasible(tuple(lams), tuple(mus), pivots=sx.pivots,
                            nonzeros=len(columns.masks))
    else:
        # the separating point: minus the duals, on the nonempty subsets,
        # cleared to coprime integers
        values = [-y for y in sx.dual_prices()]
        denom_lcm = lcm(*(v.denominator for v in values))
        ints = [int(v * denom_lcm) for v in values]
        content = gcd(*ints) or 1  # 0 only when every value is 0
        point = SetFunction(ground, [0] + [v // content for v in ints])
        if verify_certificate(Certificate(point, gens, cons, target)):
            return Infeasible(farkas_point=point, pivots=sx.pivots,
                              nonzeros=len(columns.masks))
    raise RuntimeError("internal error: the simplex's exact answer fails re-check")


def _check_combination(target, generators, lams, constraints, mus) -> bool:
    """True when the generator multipliers are >= 0 and the combination
    equals the target exactly."""
    if any(lam < 0 for lam in lams):
        return False
    # weight of each item's numerators, and one integer scale clearing them all
    terms = [(Fraction(w) / item.den, item)
             for w, item in zip([*lams, *mus], [*generators, *constraints]) if w]
    scale = lcm(target.den, *(w.denominator for w, _ in terms))
    acc: dict[int, int] = {}
    for w, item in terms:
        k = int(w * scale)
        for m, c in item.nums.items():
            acc[m] = acc.get(m, 0) + k * c
    want = scale // target.den
    return {m: c for m, c in acc.items() if c} == {m: c * want for m, c in target.nums.items()}


# --- problem builders ---


def elemental_forms(ground: GroundSet | TypeSpace) -> Forms:
    """Pippenger's quantum elemental forms on a ground set, as one batch:
    every I(i:j|K) >= 0 for parties i < j (ssa rows (i, j, K)), then every
    S(iK) + S(iL) >= S(K) + S(L) over the unordered splits K, L of the
    parties other than i (wmo rows (i, K, L)), both realized by the
    template's `realize`.  They generate the cone of every ssa and
    wmo instance (Pippenger, IEEE Trans. IT 49, 2003); each is one of those
    instances.  On N parties there are C(N,2) 2^(N-2) + N 2^(N-2) of them.
    On a `TypeSpace` the parties are types (`TypeSpace.parties`), so this
    lists the projections of the forms on its full ground, one per orbit:
    36n + 4 on three fixed parties."""
    full, parties = ground.full_mask, ground.parties
    ssa = [(i, j, rest) for i, j in sorted(set(combinations(parties, 2)))
           for rest in ground.below(full - i - j)]
    # the split {K, L} once; its halves may share a type.  i alone has no split
    wmo = [(i, k, full - i - k) for i in sorted(set(parties)) if full - i
           for k in ground.below(full - i) if 2 * k <= full - i]
    return Forms.concat([
        builtin(name).realize(np.array(rows, dtype=np.int64).reshape(-1, 3), ground)
        for name, rows in (("ssa", ssa), ("wmo", wmo))])


def family_orders(n: int) -> list[int]:
    """The orders p of the c_p generators in the order-n independence
    problem: every p != n up to n + 2."""
    return [p for p in range(1, n + 3) if p != n]


def independence_templates(n: int) -> list[tuple]:
    """The generators of the order-n independence problem, as (template,
    fixed binding) pairs: every ssa and wmo instance, then the c_p instances
    under `standard_c_binding()` for each p of `family_orders(n)`."""
    return [(builtin("ssa"), None), (builtin("wmo"), None),
            *((builtin("c_n", p), standard_c_binding()) for p in family_orders(n))]


def independence_problem(n: int):
    """Membership problem asking whether the order-n constrained inequality
    (the standard instance, X_i = {x_i}) follows from the instances of
    `independence_templates(n)`, zero forms dropped, under its two
    constraints.

    Returns (target, generators, constraints, ground, expect), the shape
    `problem_from_obj` reads, with one `Forms` batch each of generators and
    constraints; expect is "infeasible", since infeasibility of this
    problem is the independence statement at order n.
    """
    target = standard_instance(n, n)
    ground = target.ground
    forms = Forms.concat([template.realize(rows, ground)
                          for template, fixed in independence_templates(n)
                          for rows in slot_blocks(template, ground, fixed)])
    full = np.diff(forms.starts) > 0  # a zero form holds no entry: drop its start
    generators = Forms(ground, forms.masks, forms.nums,
                       np.append(forms.starts[:-1][full], forms.starts[-1]), forms.dens[full])
    return (target.functional, generators, Forms.of(ground, target.constraints), ground,
            "infeasible")


def _profiles(slots: int, total: int, largest: int) -> Iterator[tuple[int, ...]]:
    """The non-increasing tuples of `slots` sizes in 0..largest summing to
    at most `total`: by the largest size, descending, then by how many
    times it repeats, ascending."""
    if not slots:
        yield ()
        return
    for m in range(min(total, largest), -1, -1):
        for r in range(1, slots + 1):
            if m * r > total:
                break
            for rest in _profiles(slots - r, total - m * r, m - 1):
                yield (m,) * r + rest


def family_orbits(space: TypeSpace, p: int) -> Forms:
    """The projections of the c_p instances `independence_problem` lists,
    one per orbit.  X1..Xp are interchangeable, so a projection depends
    only on the multiset of their sizes: one row of slot types per profile,
    A, B and C the types of a, b and c and X_i a set of m_i x's.  A union's
    type is the sum of its parts' types, so `realize` reads those rows as
    it reads slot masks."""
    x = 1 << len(space.fixed)
    rows = [(1, 2, 4, *(m * x for m in sizes)) for sizes in _profiles(p, space.n, space.n)]
    return builtin("c_n", p).realize(np.array(rows, dtype=np.int64), space)


def independence_orbits(n: int, target: Instance | None = None):
    """`independence_problem(n)` on the types of (a, b, c, x1..xn)
    (`witness_space(n)`).  The problem is invariant under permutations of
    x1..xn, so it is infeasible exactly when its projection onto the types
    is, and any separating point averages to one constant on types
    (Gatermann & Parrilo, J. Pure Appl. Algebra 192, 2004); `TypeSpace.lift`
    turns that point back into a set function on the full ground.  This is
    the projected target and constraints, and one column per orbit of the
    cone, zero and repeated columns dropped (`Forms.distinct`): the c_p
    profiles for the orders of `family_orders(n)`, then the elemental
    orbits (in that order Bland's rule took 101 to 1,614 pivots at
    n = 2..8, against 107 to 3,787 the other way round).  `target` is
    `standard_instance(n, n)`, built here unless the caller has it.
    Returns (target, generators, constraints, space, "infeasible"), the
    generators and the constraints each one `Forms` batch."""
    space = witness_space(n)
    if target is None:
        target = standard_instance(n, n)
    columns = Forms.concat([*(family_orbits(space, p) for p in family_orders(n)),
                            elemental_forms(space)])
    return (space.project(target.functional), columns.distinct(),
            Forms.of(space, [space.project(c) for c in target.constraints]), space,
            "infeasible")


def purified_basic_problem():
    """Membership of weak monotonicity on three parties in the cone of
    purified submodularity instances from a four-party extension.

    Returns (target, generators, constraints, ground, expect), the
    generators (`eliminate_party_pure` of each ssa instance, zero and
    repeated forms dropped) and the constraints (none) as `Forms`; expect
    is "feasible": weak monotonicity is exactly a purified submodularity
    instance.
    """
    big = GroundSet(("A", "B", "C", "D"))
    small = GroundSet(("A", "B", "C"))
    ssa = builtin("ssa")
    terms = np.concatenate([ssa.terms(rows) for rows in slot_blocks(ssa, big)])
    # S(Y) = S(ABCD - Y) on a pure state: a term on D (bit 8) moves to its complement
    terms = np.where(terms & 8, big.full_mask - terms, terms)
    generators = Forms.from_terms(small, terms, ssa.ints[:, 0], ssa.functional.den).distinct()
    target = instantiate(
        builtin("wmo"), small, {"A": "A", "B": "B", "C": "C"}
    ).functional
    return target, generators, Forms.of(small, []), small, "feasible"


def proof_certificate(n: int):
    """The exact proof of c_n from a register R that A and B can both read:
    (target, terms, weights, hypotheses, hypothesis_weights) on the parties
    (A, B, C, X1..Xn, R), in the order `_check_combination` takes them.

    The terms, each an SSA instance or S(R|Y) >= 0 for the classical R, are
    I(A:B|R X_i), S(R|A B X_i), I(R:X_i|A) and I(R:X_i|B) per X_i, then
    I(X_1..X_{k-1} : X_k | R) for k = 2..n and S(R|X_1..X_n), at weight 1,
    then I(R:C|AB) and S(R|C) at weight n - 1.  The hypotheses S(R|A),
    S(R|B) and I(AB:C|R) vanish and weigh -n, -n and -(n - 1).  Every item
    is listed at every n, so that a state is checked on all of them.
    """
    template = builtin("c_n", n)
    ground = GroundSet(template.slots + ("R",))
    target = instantiate(template, ground, {s: s for s in template.slots}).functional
    a, b, c, r = 1, 2, 4, 8 << n
    xs = [8 << i for i in range(n)]

    def cond(x: int, g: int) -> dict[int, int]:  # S(x|g)
        return {x | g: 1, g: -1}

    terms = []
    for x in xs:
        terms += [_cmi_terms(a, b, r | x), cond(r, a | b | x),
                  _cmi_terms(r, x, a), _cmi_terms(r, x, b)]
    terms += [_cmi_terms(sum(xs[:k]), xs[k], r) for k in range(1, n)]
    terms.append(cond(r, sum(xs)))
    weights = [1] * len(terms) + [n - 1, n - 1]
    terms += [_cmi_terms(r, c, a | b), cond(r, c)]
    hypotheses = [cond(r, a), cond(r, b), _cmi_terms(a | b, c, r)]
    terms, hypotheses = ([LinearFunctional._from_ints(ground, t) for t in ts]
                         for ts in (terms, hypotheses))
    return target, terms, weights, hypotheses, [-n, -n, -(n - 1)]


# --- problem / result serialization ---


def problem_to_obj(target, generators, constraints, ground, expect=None) -> dict:
    obj = {
        "ground": list(ground.labels),
        "target": terms_to_obj(target.coefs, ground),
        "generators": [terms_to_obj(g.coefs, ground) for g in generators],
        "constraints": [terms_to_obj(c.coefs, ground) for c in constraints],
    }
    if expect:
        obj["expect"] = expect
    return obj


def problem_from_obj(obj):
    if not isinstance(obj, dict):
        raise ValueError("problem must be a JSON object")
    obj = {"constraints": [], "expect": None, **obj}
    if obj["expect"] not in (None, "feasible", "infeasible"):
        raise ValueError("'expect' must be \"feasible\" or \"infeasible\"")
    ground = GroundSet(list_field(obj, "ground"))
    target = terms_from_obj(list_field(obj, "target"), ground)
    if target.is_zero():
        # 0 is in every cone, so the answer would be "feasible" whatever the generators
        raise ValueError("the target is zero (no terms, or terms that cancel): "
                         "it lies in every cone")
    generators = [terms_from_obj(g, ground) for g in list_field(obj, "generators")]
    constraints = [terms_from_obj(c, ground) for c in list_field(obj, "constraints")]
    return target, generators, constraints, ground, obj["expect"]

