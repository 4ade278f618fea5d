"""Exact certificates for membership of a target functional in the cone
generated by known inequality instances, modulo constraint functionals.

Membership asks for target = sum lambda_i * gen_i + sum mu_j * con_j with
lambda_i >= 0 and mu_j free.  Every answer is exact and re-checked in
rational arithmetic: a feasible answer returns the multipliers, an
infeasible one returns an exact separating point (a set function nonnegative
on every generator, zero on every constraint, strictly negative on the
target).  A float64 run of the LP may propose where to look; it never
decides.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import numpy as np

from .setfn import GroundSet, SetFunction, FLOAT64, list_field
from .inequalities import (
    LinearFunctional,
    builtin,
    cleared_values,
    eliminate_party_pure,
    enumerate_instances,
    instantiate,
    terms_from_obj,
    terms_to_obj,
)


@dataclass(frozen=True)
class Certificate:
    """A claimed separating point for a membership problem."""

    point: SetFunction
    generators: tuple[LinearFunctional, ...]
    constraints: tuple[LinearFunctional, ...]
    target: LinearFunctional


@dataclass
class CertificateReport:
    valid: bool
    failures: list  # {"kind": "generator"|"constraint"|"target", "index", "value"}
    target_value: object

    def __bool__(self):
        return self.valid

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "target_value": str(self.target_value),
            "failures": [
                {**f, "value": str(f["value"])} for f in self.failures
            ],
        }


def verify_certificate(cert: Certificate) -> CertificateReport:
    """Exactly re-evaluate a separating point against every item.

    Valid means: >= 0 on each generator, == 0 on each constraint, < 0 on the
    target.  The point must be exact; float points are rejected.
    """
    f = cert.point
    if f.domain == FLOAT64:
        raise ValueError("certificate point must be exact (integer or rational)")
    if any(item.ground != f.ground for item in (*cert.generators, *cert.constraints)):
        raise ValueError("ground sets do not match")
    # dot products with f cleared to integers: the values times a positive
    # integer, so the same signs, in integer arithmetic
    table, _ = cleared_values(f)
    failures = []
    for idx, gen in enumerate(cert.generators):
        if gen.dot(table) < 0:
            failures.append({"kind": "generator", "index": idx, "value": gen.evaluate(f)})
    for idx, con in enumerate(cert.constraints):
        if con.dot(table) != 0:
            failures.append({"kind": "constraint", "index": idx, "value": con.evaluate(f)})
    tval = cert.target.evaluate(f)
    if tval >= 0:
        failures.append({"kind": "target", "index": 0, "value": tval})
    return CertificateReport(valid=not failures, failures=failures, target_value=tval)


@dataclass
class Feasible:
    """target = sum coefficients[i] * generators[i] + sum constraint_coefficients[j] * constraints[j]."""

    coefficients: tuple[Fraction, ...]
    constraint_coefficients: tuple[Fraction, ...]
    pivots: int = 0
    method: str = "simplex"  # "shortcut", "float-guided" or "simplex"

    @property
    def feasible(self) -> bool:
        return True

    def to_dict(self) -> dict:
        return {
            "feasible": True,
            "coefficients": [str(c) for c in self.coefficients],
            "constraint_coefficients": [str(c) for c in self.constraint_coefficients],
            "pivots": self.pivots,
            "method": self.method,
        }


@dataclass
class Infeasible:
    """Exact separating point: the membership system has no solution."""

    farkas_point: SetFunction
    pivots: int = 0
    method: str = "simplex"  # "shortcut", "float-guided" or "simplex"

    @property
    def feasible(self) -> bool:
        return False

    def to_dict(self) -> dict:
        from .setfn import setfn_to_obj

        return {
            "feasible": False,
            "farkas_point": setfn_to_obj(self.farkas_point),
            "pivots": self.pivots,
            "method": self.method,
        }


_to_fractions = np.frompyfunc(Fraction, 1, 1)


class _Simplex:
    """Phase-1 simplex with Bland's rule on one dense tableau.

    The dtype of `A` picks the arithmetic.  Integers (int64 or Python ints)
    are lifted to Fractions, so with tol 0 the run is exact and never cycles;
    Python ints would divide to floats.  A float64 array runs the same rule
    with entries within `tol` of zero taken as zero; its answer is only a
    proposal.  Rows are scaled to b >= 0 and start on the artificial basis;
    the phase-1 objective is the sum of the artificials.
    """

    def __init__(self, A: np.ndarray, rhs: np.ndarray, tol: float = 0):
        m, n = A.shape
        if A.dtype != np.float64:
            A, rhs = _to_fractions(A), _to_fractions(rhs)
        zero, one = (0.0, 1.0) if A.dtype == np.float64 else (Fraction(0), Fraction(1))
        self.nrows, self.ncols, self.tol = m, n, tol
        self.row_sign = np.where(rhs < 0, -1, 1)
        self.T = np.full((m, n + m), zero, dtype=A.dtype)
        self.T[:, :n] = A * self.row_sign[:, None]
        self.T[np.arange(m), n + np.arange(m)] = one
        self.b = rhs * self.row_sign
        self.basis = list(range(n, n + m))
        self.red = np.full(n + m, zero, dtype=A.dtype)
        if m:
            self.red[:n] = -self.T[:, :n].sum(axis=0)
        self.pivots = 0

    @property
    def objective(self):
        return sum(v for v, j in zip(self.b, self.basis) if j >= self.ncols)

    def solve(self, max_pivots: int = 2_000_000):
        T, b, red, tol = self.T, self.b, self.red, self.tol
        while True:
            negative = np.flatnonzero(red < -tol)
            if not len(negative):
                return
            enter = negative[0]
            rows = np.flatnonzero(T[:, enter] > tol)
            if not len(rows):
                raise RuntimeError("phase-1 objective unbounded; should not happen")
            ratios = b[rows] / T[rows, enter]
            tied = rows[ratios <= ratios.min() + tol]
            leave = min(tied, key=self.basis.__getitem__)
            self._pivot(leave, enter)
            if self.pivots > max_pivots:
                raise RuntimeError("pivot limit exceeded")

    def enter(self, columns, artificial) -> bool:
        """Pivot `columns` into the basis in place of the artificials of the
        rows not in `artificial`; False when the resulting basis is singular."""
        kept = set(artificial)
        for c in columns:
            free = [i for i in np.flatnonzero(self.T[:, c])
                    if i not in kept and self.basis[i] == self.ncols + i]
            if not free:
                return False
            self._pivot(free[0], c)
        return True

    def _pivot(self, r: int, c: int):
        T, b, red = self.T, self.b, self.red
        piv = T[r, c]
        T[r] /= piv
        b[r] /= piv
        row = T[r]
        cols = np.flatnonzero(row)
        factors = T[:, c].copy()
        factors[r] = 0
        rows = np.flatnonzero(factors)
        if T.dtype == object:
            # every Fraction operation costs: touch only the nonzero block
            T[np.ix_(rows, cols)] -= np.outer(factors[rows], row[cols])
        else:
            T -= np.outer(factors, row)
        b[rows] -= factors[rows] * b[r]
        red[cols] -= red[c] * row[cols]
        self.basis[r] = c
        self.pivots += 1

    def solution(self) -> list:
        x = [0] * self.ncols
        for i, var in enumerate(self.basis):
            if var < self.ncols:
                x[var] = self.b[i]
        return x

    def dual_prices(self) -> list:
        # y_i = c_art_i - reduced cost of artificial column i, with c_art = 1
        return list((1 - self.red[self.ncols:]) * self.row_sign)


_FLOAT_TOL = 1e-9  # the float guide reads entries within this of zero as zero


def _float_basis(A: np.ndarray, rhs: np.ndarray):
    """Run the phase-1 LP in float64 and propose its final basis.

    Returns (basis, pivots), or None when the float run hits its pivot cap,
    finds no positive ratio or meets a value float64 cannot hold.  Nothing
    it returns is trusted: the caller re-solves the basis exactly and
    re-checks.
    """
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            sx = _Simplex(A.astype(float), rhs.astype(float), tol=_FLOAT_TOL)
            sx.solve(max_pivots=10 * (sx.nrows + sx.ncols))
    except (RuntimeError, FloatingPointError, OverflowError):
        return None
    return sx.basis, sx.pivots


def _feasible(target, generators, constraints, lams, mus, method, pivots):
    """Feasible, once the multipliers replay the target exactly; else None."""
    if not _check_combination(target, generators, lams, constraints, mus):
        return None
    return Feasible(tuple(lams), tuple(mus), pivots=pivots, method=method)


def _infeasible(target, generators, constraints, values, method, pivots):
    """Infeasible, once the separating point (values on the nonempty subsets,
    cleared to coprime integers) passes verify_certificate; else None."""
    denom_lcm = lcm(*(v.denominator for v in values))
    ints = [int(v * denom_lcm) for v in values]
    content = gcd(*ints) or 1  # 0 only when every value is 0
    point = SetFunction(target.ground, [0] + [v // content for v in ints])
    report = verify_certificate(
        Certificate(point, tuple(generators), tuple(constraints), target)
    )
    if not report.valid:
        return None
    return Infeasible(farkas_point=point, pivots=pivots, method=method)


def cone_membership(
    target: LinearFunctional,
    generators: Sequence[LinearFunctional],
    constraints: Sequence[LinearFunctional] = (),
    max_generators: int = 20000,
    use_fast_paths: bool = True,
):
    """Decide exactly whether target lies in cone(generators) + span(constraints).

    Returns Feasible (with multipliers) or Infeasible (with a separating set
    function scaled to integers); its `method` names what decided it.
    Duplicate generator rays collapse before the solve.  With fast paths on,
    a target equal to a generator short-circuits, and a float64 run of the
    phase-1 LP proposes a basis that one exact solve turns into a claim.  Every
    claim is re-checked exactly; a rejected one falls through to the exact
    Bland simplex.
    """
    ground = target.ground
    for item in list(generators) + list(constraints):
        if item.ground != ground:
            raise ValueError("all functionals must share one ground set")
    if max_generators < 1:
        raise ValueError(f"max_generators must be at least 1, got {max_generators}")
    if len(generators) > max_generators:
        raise ValueError(f"{len(generators)} generators exceeds cap {max_generators}")
    problem = (target, generators, constraints)

    # collapse duplicate rays, remembering a representative index
    rep_index: list[int] = []
    seen: dict[tuple, int] = {}
    reps: list[LinearFunctional] = []
    for idx, gen in enumerate(generators):
        if gen.is_zero():
            continue
        key = gen.primitive_key()
        if key not in seen:
            seen[key] = len(reps)
            rep_index.append(idx)
            reps.append(gen)

    nz_constraints = [c for c in constraints if not c.is_zero()]

    if use_fast_paths:
        key = target.primitive_key()
        if key in seen:
            rep = reps[seen[key]]
            # target = t, rep = r with t = s*r for the common primitive ray;
            # the scale is the ratio of any matching coefficients
            mask0, t0 = next(iter(target.nums.items()))
            lams = [0] * len(generators)
            lams[rep_index[seen[key]]] = Fraction(t0 * rep.den, target.den * rep.nums[mask0])
            result = _feasible(*problem, lams, [0] * len(constraints), "shortcut", 0)
            if result is not None:
                return result

    # LP columns: one per ray, a +/- pair per constraint (a free multiplier),
    # each the item's numerators, so column j is scales[j] times its item;
    # the right-hand side is the target's numerators, target.den times it
    dim = ground.n_subsets - 1
    columns = [g.nums for g in reps]
    scales = [g.den for g in reps]
    for con in nz_constraints:
        columns += [con.nums, {m: -c for m, c in con.nums.items()}]
        scales += [con.den, con.den]
    fits = all(abs(c) < 2**63 for nums in [target.nums, *columns] for c in nums.values())
    A = np.zeros((dim, len(columns)), dtype=np.int64 if fits else object)
    for j, nums in enumerate(columns):
        for mask, c in nums.items():
            A[mask - 1, j] = c
    rhs = np.zeros(dim, dtype=A.dtype)
    for mask, c in target.nums.items():
        rhs[mask - 1] = c

    # drop identically-zero rows; an inconsistent zero row separates trivially
    live = (A != 0).any(axis=1)
    inconsistent = np.flatnonzero(~live & (rhs != 0))
    if len(inconsistent):
        values = [0] * dim
        values[inconsistent[0]] = 1 if rhs[inconsistent[0]] < 0 else -1
        result = _infeasible(*problem, values, "shortcut", 0)
        if result is None:
            raise RuntimeError("internal error: zero-row separating point fails re-check")
        return result
    keep_rows = np.flatnonzero(live)
    A, b = A[keep_rows], rhs[keep_rows]

    def claim(sx: _Simplex, lp_columns, method: str, pivots: int):
        """The re-checked result an exact tableau over `lp_columns` supports,
        or None."""
        if sx.objective == 0 and all(v >= 0 for v in sx.b):
            x = [0] * len(columns)
            for j, v in zip(lp_columns, sx.solution()):
                x[j] = Fraction(v * scales[j], target.den)
            lams = [0] * len(generators)
            for ridx, val in zip(rep_index, x):
                lams[ridx] = val
            diffs = iter(x[pos] - x[pos + 1] for pos in range(len(reps), len(x), 2))
            mus = [0 if c.is_zero() else next(diffs) for c in constraints]
            return _feasible(*problem, lams, mus, method, pivots)
        values = [0] * dim
        for row, y in zip(keep_rows, sx.dual_prices()):
            values[row] = -y
        return _infeasible(*problem, values, method, pivots)

    if use_fast_paths:
        proposal = _float_basis(A, b)
        if proposal is not None:
            basis, float_pivots = proposal
            basic = [j for j in basis if j < len(columns)]
            artificial = [j - len(columns) for j in basis if j >= len(columns)]
            sx = _Simplex(A[:, basic], b)
            if sx.enter(range(len(basic)), artificial):
                result = claim(sx, basic, "float-guided", float_pivots)
                if result is not None:
                    return result

    sx = _Simplex(A, b)
    sx.solve()
    result = claim(sx, range(len(columns)), "simplex", sx.pivots)
    if result is None:
        raise RuntimeError("internal error: the simplex's exact answer fails re-check")
    return result


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


def basic_generator_instances(ground: GroundSet) -> list:
    """Every basic-inequality instance on a ground set: all submodularity
    instances plus all weak-monotonicity instances (empty side subsets
    included, so triangle and positivity forms appear)."""
    out = []
    for inst in enumerate_instances(builtin("ssa"), ground):
        out.append(inst)
    for inst in enumerate_instances(builtin("wmo"), ground):
        out.append(inst)
    return out


def independence_problem(n: int, p_max: int | None = None):
    """Membership problem asking whether the order-n constrained inequality
    follows from the basic inequalities plus the lower- and higher-order
    family members (orders p != n up to p_max), under its two constraints.

    Returns (target, generators, constraints, ground, meta).  Infeasibility
    of this problem is the independence statement at order n.
    """
    from .witness import standard_c_binding, witness_ground

    if n < 1:
        raise ValueError("family order n must be >= 1")
    p_max = n + 2 if p_max is None else p_max
    ground = witness_ground(n)
    binding = standard_c_binding()

    target_inst = instantiate(
        builtin("c_n", n),
        ground,
        {**binding, **{f"X{i}": f"x{i}" for i in range(1, n + 1)}},
    )
    target, constraints = target_inst.functional, target_inst.constraints
    generators = [inst.functional for inst in basic_generator_instances(ground)]
    for p in range(1, p_max + 1):
        if p == n:
            continue
        for inst in enumerate_instances(builtin("c_n", p), ground, fixed=binding):
            if not inst.functional.is_zero():
                generators.append(inst.functional)
    meta = {"n": n, "p_max": p_max, "n_generators": len(generators), "expect": "infeasible"}
    return target, generators, list(constraints), ground, meta


def purified_basic_problem():
    """Membership of weak monotonicity on three parties in the cone of
    purified submodularity instances from a four-party extension.

    Feasible with zero residual: weak monotonicity is exactly a purified
    submodularity instance.
    """
    big = GroundSet(("A", "B", "C", "D"))
    small = GroundSet(("A", "B", "C"))
    generators = []
    seen = set()
    for inst in enumerate_instances(builtin("ssa"), big):
        reduced = eliminate_party_pure(inst.functional, "D")
        if not reduced.is_zero() and reduced not in seen:
            seen.add(reduced)
            generators.append(reduced)
    target = instantiate(
        builtin("wmo"), small, {"A": "A", "B": "B", "C": "C"}
    ).functional
    meta = {"n_generators": len(generators), "expect": "feasible"}
    return target, generators, [], small, meta


# --- problem / result serialization ---


def functional_to_obj(functional: LinearFunctional) -> list:
    return terms_to_obj(functional.coefs, functional.ground)


def functional_from_obj(entries, ground: GroundSet) -> LinearFunctional:
    return terms_from_obj(entries, ground)


def problem_to_obj(target, generators, constraints, ground, expect=None) -> dict:
    obj = {
        "ground": list(ground.labels),
        "target": functional_to_obj(target),
        "generators": [functional_to_obj(g) for g in generators],
        "constraints": [functional_to_obj(c) for c in constraints],
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
    target = functional_from_obj(list_field(obj, "target"), ground)
    generators = [functional_from_obj(g, ground) for g in list_field(obj, "generators")]
    constraints = [functional_from_obj(c, ground) for c in list_field(obj, "constraints")]
    return target, generators, constraints, ground, obj["expect"]


def problem_to_json(target, generators, constraints, ground, expect=None, indent=None) -> str:
    return json.dumps(problem_to_obj(target, generators, constraints, ground, expect), indent=indent)


def problem_from_json(text: str):
    return problem_from_obj(json.loads(text))
