"""Linear entropic functionals and inequality templates with role slots.

A template states an inequality (and optional equality constraints) over
abstract slots; instantiating it assigns pairwise-disjoint subsets of a
concrete ground set to the slots and collects terms.  Coefficients are exact
rationals throughout, held as integer numerators over one denominator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .setfn import (
    DEFAULT_TOL,
    FLOAT64,
    GroundSet,
    SetFunction,
    Subset,
    _canon_exact,
    check_tol,
    list_field,
    submasks,
    subset_from_obj,
)


def _exact(c):
    """An exact coefficient: an int as it is, a Fraction or 'p/q' string as a
    Fraction; bools, floats, zero denominators and anything else are refused."""
    if isinstance(c, int) and not isinstance(c, bool):
        return c
    if not isinstance(c, (bool, float)):
        try:
            return Fraction(c)
        except (TypeError, ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"coefficient {c!r} is not exact (int, Fraction, or 'p/q' string)")


def _lowest(nums: Mapping[int, int], den: int) -> tuple[dict[int, int], int]:
    """Integer numerators over a positive denominator in lowest terms, with
    zeros dropped and masks sorted."""
    g = gcd(den, *nums.values()) if den != 1 else 1
    return {m: v // g for m, v in sorted(nums.items()) if v}, den // g


def _cleared(terms: Iterable[tuple[int, object]]) -> tuple[dict[int, int], int]:
    """Exact (mask, coefficient) terms, summed per mask, as integer numerators
    over one positive denominator in lowest terms."""
    acc: dict[int, object] = {}
    for mask, c in terms:
        acc[mask] = acc.get(mask, 0) + _exact(c)
    den = lcm(*(c.denominator for c in acc.values()))
    return _lowest({m: int(c * den) for m, c in acc.items()}, den)


def _fractions(nums: Mapping[int, int], den: int) -> dict[int, Fraction]:
    return {m: Fraction(v, den) for m, v in nums.items()}


def cleared_values(f: SetFunction) -> tuple[list[int], int]:
    """An exact set function's values as integers times one positive scale."""
    den = lcm(*(v.denominator for v in f.values))
    return [int(v * den) for v in f.values], den


class LinearFunctional:
    """Exact rational combination sum_a coef(a) * f(a) over nonempty subsets.

    Stored as integer numerators `nums` (mask -> int, masks ascending) over
    one positive denominator `den`, in lowest terms.  `coefs` gives the
    coefficients as Fractions.
    """

    __slots__ = ("ground", "nums", "den")

    def __init__(self, ground: GroundSet, coefs: Mapping[Subset, object]):
        masks = [ground.mask_of(key) for key in coefs]
        if 0 in masks:
            raise ValueError("the empty set carries no coefficient")
        self.ground = ground
        self.nums, self.den = _cleared(zip(masks, coefs.values()))

    @classmethod
    def _from_ints(cls, ground: GroundSet, nums: Mapping[int, int], den: int = 1):
        """sum_m nums[m] / den * f(m), for nonempty masks m and den > 0."""
        self = cls.__new__(cls)
        self.ground = ground
        self.nums, self.den = _lowest(nums, den)
        return self

    @property
    def coefs(self) -> dict[int, Fraction]:
        return _fractions(self.nums, self.den)

    def dot(self, table: Sequence) -> object:
        """sum_m nums[m] * table[m]: the value on `table` times `den`."""
        return sum(c * table[m] for m, c in self.nums.items())

    def evaluate(self, f: SetFunction):
        """Value on a set function; exact inputs give exact (int/Fraction) output."""
        if f.ground != self.ground:
            raise ValueError("ground sets do not match")
        if f.domain == FLOAT64:
            return float(sum(c / self.den * f.values[m] for m, c in self.nums.items()))
        s = self.dot(f.values)
        return _canon_exact(Fraction(s, self.den) if self.den != 1 else s)

    def party_sums(self) -> dict[str, Fraction]:
        return {lab: Fraction(sum(c for m, c in self.nums.items() if m >> i & 1), self.den)
                for i, lab in enumerate(self.ground.labels)}

    def is_balanced(self) -> bool:
        return all(s == 0 for s in self.party_sums().values())

    def is_zero(self) -> bool:
        return not self.nums

    def scale(self, k) -> "LinearFunctional":
        k = _exact(k)
        return LinearFunctional._from_ints(
            self.ground, {m: c * k.numerator for m, c in self.nums.items()},
            self.den * k.denominator,
        )

    def primitive_key(self) -> tuple:
        """The numerators divided by their content; identifies the ray."""
        g = gcd(*self.nums.values())
        return tuple((m, v // g) for m, v in self.nums.items())

    def __eq__(self, other):
        return (
            isinstance(other, LinearFunctional)
            and self.ground == other.ground
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.ground, self.den, tuple(self.nums.items())))

    def __repr__(self):
        return f"LinearFunctional({self.describe()})"

    def describe(self) -> str:
        if not self.nums:
            return "0"
        parts = []
        for mask, c in self.coefs.items():
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            coef = "" if mag == 1 else f"{mag}*"
            parts.append(f"{sign} {coef}S{self.ground.subset_str(mask)}")
        return " ".join(parts).lstrip("+ ")


# --- templates ---


def _add_terms(dst: dict, src: Mapping[int, int], scale: int = 1):
    for mask, c in src.items():
        new = dst.get(mask, 0) + c * scale
        if new:
            dst[mask] = new
        else:
            dst.pop(mask, None)
    return dst


def _cmi_terms(a: int, b: int, g: int = 0) -> dict[int, int]:
    out: dict[int, int] = {}
    for mask, s in ((a | g, 1), (b | g, 1), (g, -1), (a | b | g, -1)):
        if mask:
            _add_terms(out, {mask: s})
    return out


class InequalityTemplate:
    """Inequality form over named slots, with optional equality constraints.

    `terms` maps slot-subset masks (bits in slot order) to coefficients; the
    statement is sum >= 0 subject to each constraint form evaluating to 0.
    `forms` holds the functional, then each constraint, as integer numerators
    by slot mask over one positive denominator.
    `symmetries` lists groups of interchangeable slots (used to deduplicate
    enumeration) and `empty_ok` the slots allowed to be empty by default.
    """

    __slots__ = ("name", "slots", "forms", "symmetries", "empty_ok")

    def __init__(
        self,
        name: str,
        slots: Sequence[str],
        terms: Mapping[int, object],
        constraints: Iterable[Mapping[int, object]] = (),
        symmetries: Iterable[Sequence[str]] = (),
        empty_ok: Iterable[str] = (),
    ):
        self.name = name
        self.slots = tuple(slots)
        if len(set(self.slots)) != len(self.slots):
            raise ValueError("slot names must be distinct")
        forms = (terms, *constraints)
        for mask in (m for form in forms for m in form):
            if not 1 <= mask < 1 << len(self.slots):
                raise ValueError(f"slot mask {mask} out of range")
        self.forms = tuple(_cleared(form.items()) for form in forms)
        self.symmetries = tuple(tuple(g) for g in symmetries)
        for group in self.symmetries:
            for s in group:
                if s not in self.slots:
                    raise ValueError(f"symmetry group names unknown slot {s!r}")
        self.empty_ok = frozenset(empty_ok)
        for s in self.empty_ok:
            if s not in self.slots:
                raise ValueError(f"empty_ok names unknown slot {s!r}")

    @property
    def terms(self) -> dict[int, Fraction]:
        return _fractions(*self.forms[0])

    @property
    def constraints(self) -> tuple[dict[int, Fraction], ...]:
        return tuple(_fractions(*form) for form in self.forms[1:])

    def is_balanced(self) -> bool:
        """True when every slot's coefficients sum to zero.

        Any instance of a balanced template is balanced as a functional, since
        each assigned party sits in exactly one slot's subset.
        """
        nums = self.forms[0][0]
        return all(sum(c for m, c in nums.items() if m >> i & 1) == 0
                   for i in range(len(self.slots)))

    def __eq__(self, other):
        return (
            isinstance(other, InequalityTemplate)
            and self.name == other.name
            and self.slots == other.slots
            and self.forms == other.forms
            and self.symmetries == other.symmetries
            and self.empty_ok == other.empty_ok
        )

    def __hash__(self):
        return hash((self.name, self.slots, tuple(self.forms[0][0].items())))

    def __repr__(self):
        return f"InequalityTemplate({self.name!r}, slots={self.slots})"


@dataclass(frozen=True)
class Instance:
    """A template bound to concrete disjoint subsets of a ground set.

    Only the slot masks are stored; the functional and constraints are
    realized on first read and cached.
    """

    template: InequalityTemplate
    ground: GroundSet
    slot_masks: tuple[int, ...]  # party mask per slot, in slot order

    @property
    def assignment(self) -> tuple[tuple[str, int], ...]:
        return tuple(zip(self.template.slots, self.slot_masks))

    @cached_property
    def functional(self) -> LinearFunctional:
        return self._realize(self.template.forms[0])

    @cached_property
    def constraints(self) -> tuple[LinearFunctional, ...]:
        return tuple(self._realize(form) for form in self.template.forms[1:])

    def _realize(self, form: tuple[dict[int, int], int]) -> LinearFunctional:
        nums, den = form
        masks = self.slot_masks
        out: dict[int, int] = {}
        for smask, c in nums.items():
            pmask = 0
            while smask:  # one step per slot the term names
                low = smask & -smask
                pmask |= masks[low.bit_length() - 1]
                smask ^= low
            if pmask:
                out[pmask] = out.get(pmask, 0) + c
        return LinearFunctional._from_ints(self.ground, out, den)

    def describe(self) -> str:
        binds = " ".join(
            f"{slot}={self.ground.subset_str(m)}" for slot, m in self.assignment
        )
        return f"{self.template.name}[{binds}]"


def instantiate(
    template: InequalityTemplate, ground: GroundSet, assignment: Mapping[str, Subset]
) -> Instance:
    """Bind every slot to a subset (pairwise disjoint; empty allowed explicitly)."""
    masks: dict[str, int] = {}
    for slot in template.slots:
        if slot not in assignment:
            raise ValueError(f"assignment missing slot {slot!r}")
        masks[slot] = ground.mask_of(assignment[slot])
    extra = set(assignment) - set(template.slots)
    if extra:
        raise ValueError(f"assignment names unknown slots {sorted(extra)}")
    used = 0
    for slot, m in masks.items():
        if used & m:
            raise ValueError(f"slot {slot!r} overlaps a previously assigned subset")
        used |= m
    return Instance(template, ground, tuple(masks[s] for s in template.slots))


def enumerate_instances(
    template: InequalityTemplate,
    ground: GroundSet,
    fixed: Mapping[str, Subset] | None = None,
) -> Iterator[Instance]:
    """All assignments of pairwise-disjoint subsets to slots, lexicographic.

    `fixed` pins chosen slots; free slots range over subsets of the remaining
    parties, empty only where the template's `empty_ok` permits.  Assignments
    equal under the template's declared slot symmetries are emitted once, in
    canonical (sorted-mask) form.
    """
    fixed_masks: dict[str, int] = {}
    used0 = 0  # parties of the fixed slots, closed to every free slot
    if fixed:
        for slot, sub in fixed.items():
            if slot not in template.slots:
                raise ValueError(f"fixed binding names unknown slot {slot!r}")
            fixed_masks[slot] = ground.mask_of(sub)
        for m in fixed_masks.values():
            if used0 & m:
                raise ValueError("fixed bindings overlap")
            used0 |= m
    slots = template.slots
    n = len(slots)
    # per slot, the index of the free slot before it in its symmetry group
    prev_index = [-1] * n
    for group in template.symmetries:
        group = sorted(group, key=slots.index)
        for a, b in zip(group, group[1:]):
            if a not in fixed_masks:
                prev_index[slots.index(b)] = slots.index(a)
    full = ground.full_mask
    chosen: list[int] = []

    def rec(i: int, used: int) -> Iterator[Instance]:
        if i == n:
            yield Instance(template, ground, tuple(chosen))
            return
        slot = slots[i]
        if slot in fixed_masks:
            chosen.append(fixed_masks[slot])
            yield from rec(i + 1, used)
            chosen.pop()
            return
        floor_mask = chosen[prev_index[i]] if prev_index[i] >= 0 else -1
        empty_ok = slot in template.empty_ok
        for cand in submasks(full & ~used):
            if cand == 0 and not empty_ok:
                continue
            if floor_mask >= 0:
                # canonical order inside a symmetry group: strictly increasing
                # masks, except repeated empties
                if cand < floor_mask or (cand == floor_mask and cand != 0):
                    continue
            chosen.append(cand)
            yield from rec(i + 1, used | cand)
            chosen.pop()

    return rec(0, used0)


# --- compiled batches ---

BATCH_ROWS = 1024  # instances per chunk of a compiled batch evaluation


class CompiledTemplate:
    """A template's functional and constraints as one coefficient matrix.

    Rows are the distinct slot subsets the forms use, column 0 is the
    functional and column j the j-th constraint.  `ints` holds each column
    cleared by the lcm of its denominators (`denominators`), `floats` the
    coefficients as float64.  An instance's slot masks are disjoint, so the
    party mask of every term is the slot-mask row times `incidence`.
    """

    def __init__(self, template: InequalityTemplate):
        forms = template.forms
        terms = sorted(set().union(*(nums for nums, _ in forms)))
        self.incidence = np.array(
            [[t >> i & 1 for t in terms] for i in range(len(template.slots))],
            dtype=np.int64,
        ).reshape(len(template.slots), len(terms))
        self.denominators = [den for _, den in forms]
        self.ints = [[nums.get(t, 0) for nums, _ in forms] for t in terms]
        self.floats = np.array(
            [[nums.get(t, 0) / den for nums, den in forms] for t in terms], dtype=np.float64
        ).reshape(len(terms), len(forms))
        # the largest sum |c| of a cleared column: bounds |value| / max |f|
        self.abs_sum = max(sum(abs(row[j]) for row in self.ints) for j in range(len(forms)))

    def bind(self, f: SetFunction) -> "BoundTemplate":
        return BoundTemplate(self, f)


class BoundTemplate:
    """A compiled template paired with one set function.

    `evaluate` returns numerators: float values for a float64 f; for an exact
    f, integers whose value is numerator / `scales[column]`.  Exact f is
    cleared by the lcm of its denominators and runs in int64 when
    sum |c| * max |f| < 2^63, else in Python integers (object dtype).
    """

    def __init__(self, compiled: CompiledTemplate, f: SetFunction):
        self.incidence = compiled.incidence
        self.exact = f.domain != FLOAT64
        if not self.exact:
            self.table = np.array(f.values, dtype=np.float64)
            self.coefs = compiled.floats
            self.scales = None
            return
        table, den = cleared_values(f)
        fits = max(map(abs, table)) * max(compiled.abs_sum, 1) < 2**63
        dtype = np.int64 if fits else object
        self.table = np.array(table, dtype=dtype)
        self.coefs = np.array(compiled.ints, dtype=dtype).reshape(compiled.floats.shape)
        self.scales = [d * den for d in compiled.denominators]

    def evaluate(self, slot_masks: np.ndarray) -> np.ndarray:
        """(rows, 1 + constraints) numerators for a (rows, slots) mask matrix."""
        return self.table[slot_masks @ self.incidence] @ self.coefs

    def value(self, num, column: int = 0):
        """A numerator as a Python value: float, or exact int / Fraction."""
        if not self.exact:
            return float(num)
        return _canon_exact(Fraction(int(num), self.scales[column]))


def slot_mask_matrix(instances: Sequence[Instance], n_slots: int) -> np.ndarray:
    """The instances' slot masks as an int64 (rows, slots) matrix."""
    masks = np.array([inst.slot_masks for inst in instances], dtype=np.int64)
    return masks.reshape(len(instances), n_slots)


def instance_batches(
    template: InequalityTemplate, ground: GroundSet, **kwargs
) -> Iterator[tuple[list[Instance], np.ndarray]]:
    """`enumerate_instances` in chunks of BATCH_ROWS: each chunk's instances
    and their slot-mask matrix."""
    it = enumerate_instances(template, ground, **kwargs)
    while chunk := list(islice(it, BATCH_ROWS)):
        yield chunk, slot_mask_matrix(chunk, len(template.slots))


@dataclass
class SatisfiesReport:
    """Scan of every admissible instance of a template on one set function."""

    template_name: str
    n_enumerated: int
    n_admissible: int
    min_value: object
    argmin: Instance | None
    n_violations: int
    violations: list
    max_constraint_residual: object
    domain: str

    @property
    def holds(self) -> bool:
        return self.n_violations == 0

    def __bool__(self):
        return self.holds


def satisfies(
    f: SetFunction,
    template: InequalityTemplate,
    binding: Mapping[str, Subset] | None = None,
    auto_filter: bool = False,
    tol: float = DEFAULT_TOL,
    max_recorded: int = 10,
) -> SatisfiesReport:
    """Evaluate a template over its instances on f, a chunk at a time.

    Constrained templates need either an explicit `binding` of the constrained
    slots or `auto_filter=True`, which keeps only instances whose realized
    constraints vanish on f (within `tol` for float64 inputs).
    """
    check_tol(tol)
    if template.constraints and binding is None and not auto_filter:
        raise ValueError(
            "constrained template: pass an explicit binding or auto_filter=True"
        )
    bound = CompiledTemplate(template).bind(f)
    zero_tol = 0 if bound.exact else tol
    n_enum = 0
    n_adm = 0
    best = None  # numerator of the minimum
    argmin = None
    n_viol = 0
    viols: list = []
    resid_nums = [0] * len(template.constraints)  # per constraint, max |numerator|
    for chunk, masks in instance_batches(template, f.ground, fixed=binding):
        n_enum += len(chunk)
        try:
            with np.errstate(over="raise", invalid="raise"):
                nums = bound.evaluate(masks)
        except FloatingPointError:
            # a sum of finite values beyond float64 would read as inf or nan
            raise ValueError(f"{template.name} overflows float64 on these values") from None
        resid = abs(nums[:, 1:])
        if auto_filter:
            keep = np.flatnonzero(~(resid > zero_tol).any(axis=1))
        else:
            keep = np.arange(len(chunk))
        vals, resid = nums[keep, 0], resid[keep]
        n_adm += len(keep)
        if not len(keep):
            continue
        if resid.size:
            resid_nums = [max(r, m) for r, m in zip(resid_nums, resid.max(axis=0))]
        i = int(np.argmin(vals))
        if best is None or vals[i] < best:
            best, argmin = vals[i], chunk[keep[i]]
        bad = np.flatnonzero(vals < -zero_tol)
        n_viol += len(bad)
        for j in bad[: max_recorded - len(viols)]:
            viols.append((chunk[keep[j]], bound.value(vals[j])))
    if bound.exact:
        max_resid = max(
            (bound.value(m, j + 1) for j, m in enumerate(resid_nums)), default=0
        )
    else:
        max_resid = float(max(resid_nums, default=0.0))
    return SatisfiesReport(
        template_name=template.name,
        n_enumerated=n_enum,
        n_admissible=n_adm,
        min_value=None if best is None else bound.value(best),
        argmin=argmin,
        n_violations=n_viol,
        violations=viols,
        max_constraint_residual=max_resid,
        domain=f.domain,
    )


def eliminate_party_pure(
    functional: LinearFunctional, label: str
) -> LinearFunctional:
    """Rewrite a functional assuming global purity, removing one party.

    Terms containing the party are replaced via S(a) = S(complement of a),
    valid on entropy vectors of pure states; a term on the full set drops
    (zero entropy).  The result lives on the ground set without that party.
    """
    gr = functional.ground
    bit = 1 << gr.index(label)
    new_ground = GroundSet(tuple(lab for lab in gr.labels if lab != label))
    out: dict[int, int] = {}
    for mask, c in functional.nums.items():
        if mask & bit:
            mask = gr.complement(mask)
            if mask == 0:
                continue
        nm = new_ground.mask_of(gr.labels_of(mask))
        out[nm] = out.get(nm, 0) + c
    return LinearFunctional._from_ints(new_ground, out, functional.den)


# --- builtin templates ---


def _mi_terms(a: int, b: int) -> dict[int, int]:
    return _cmi_terms(a, b, 0)


def _c_family_parts(n: int):
    """Common pieces for the conditional-independence family of order n,
    with the terms every member has: sum over x of S(x) + I(A:B|x)."""
    slots = ("A", "B", "C") + tuple(f"X{i}" for i in range(1, n + 1))
    a, b, c = 1, 2, 4
    x_all = 0
    shared: dict[int, int] = {}
    for x in (8 << i for i in range(n)):
        x_all |= x
        _add_terms(shared, {x: 1})
        _add_terms(shared, _cmi_terms(a, b, x))
    constraints = (_cmi_terms(a, c, b), _cmi_terms(b, c, a))
    sym = (("A", "B"), tuple(f"X{i}" for i in range(1, n + 1)))
    empty = frozenset(f"X{i}" for i in range(1, n + 1))
    return slots, a, b, c, x_all, shared, constraints, sym, empty


def _template_c(n: int) -> InequalityTemplate:
    slots, a, b, c, x_all, t, cons, sym, empty = _c_family_parts(n)
    _add_terms(t, {x_all: -1})
    _add_terms(t, _mi_terms(a | b, c), -(n - 1))
    return InequalityTemplate(f"c_{n}", slots, t, cons, sym, empty)


def _template_thm1p(n: int) -> InequalityTemplate:
    slots, a, b, c, x_all, t, cons, sym, empty = _c_family_parts(n)
    _add_terms(t, _cmi_terms(a, b, c | x_all))
    _add_terms(t, {a | b | c | x_all: 1})
    _add_terms(t, {a | b | c: -1})
    _add_terms(t, _mi_terms(a | b, c), -n)
    return InequalityTemplate(f"thm1p_{n}", slots, t, cons, sym, empty)


def _template_thm2(n: int) -> InequalityTemplate:
    slots, a, b, c, x_all, t, cons, sym, empty = _c_family_parts(n)
    _add_terms(t, _cmi_terms(a, b, c))
    _add_terms(t, {c: 1, c | x_all: -1})
    _add_terms(t, _mi_terms(a | b, c), -n)
    return InequalityTemplate(f"thm2_{n}", slots, t, cons, sym, empty)


def _template_thm2p(n: int) -> InequalityTemplate:
    slots, a, b, c, x_all, t, cons, sym, empty = _c_family_parts(n)
    _add_terms(t, _cmi_terms(a, b, c | x_all))
    _add_terms(t, {a | b | c | x_all: 1})
    _add_terms(t, _cmi_terms(a, b, c))
    _add_terms(t, {c: 1})
    _add_terms(t, {a | b: -1})
    _add_terms(t, _mi_terms(a | b, c), -(n + 1))
    return InequalityTemplate(f"thm2p_{n}", slots, t, cons, sym, empty)


def _template_ssa(_=None) -> InequalityTemplate:
    return InequalityTemplate(
        "ssa", ("A", "B", "C"), _cmi_terms(1, 2, 4),
        symmetries=(("A", "B"),), empty_ok=("C",),
    )


def _template_wmo(_=None) -> InequalityTemplate:
    return InequalityTemplate(
        "wmo", ("A", "B", "C"), {3: 1, 5: 1, 2: -1, 4: -1},
        symmetries=(("B", "C"),), empty_ok=("B", "C"),
    )


def _template_mi(_=None) -> InequalityTemplate:
    return InequalityTemplate(
        "mutual-info", ("A", "B"), _mi_terms(1, 2), symmetries=(("A", "B"),)
    )


def _template_triangle(_=None) -> InequalityTemplate:
    return InequalityTemplate("triangle", ("A", "B"), {3: 1, 1: 1, 2: -1})


def _template_positivity(_=None) -> InequalityTemplate:
    return InequalityTemplate("positivity", ("A",), {1: 1})


def _template_antimono(_=None) -> InequalityTemplate:
    # deliberately false probe: S(A) >= S(AB) fails on entangled states
    return InequalityTemplate("anti-monotone", ("A", "B"), {1: 1, 3: -1})


def _template_lw05(_=None) -> InequalityTemplate:
    a, b, c, d = 1, 2, 4, 8
    t: dict[int, int] = {}
    _add_terms(t, _mi_terms(c, d))
    _add_terms(t, _mi_terms(a | b, c), -1)
    cons = (_cmi_terms(a, c, b), _cmi_terms(b, c, a), _cmi_terms(a, b, d))
    return InequalityTemplate(
        "lw05", ("A", "B", "C", "D"), t, cons, symmetries=(("A", "B"),)
    )


_PARAMETRIC = {
    "c_n": _template_c,
    "thm1": _template_c,
    "thm1p": _template_thm1p,
    "thm2": _template_thm2,
    "thm2p": _template_thm2p,
}

_FIXED = {
    "ssa": _template_ssa,
    "wmo": _template_wmo,
    "mutual-info": _template_mi,
    "triangle": _template_triangle,
    "positivity": _template_positivity,
    "anti-monotone": _template_antimono,
    "lw05": _template_lw05,
}


def _canon_name(name: str) -> str:
    s = name.strip().lower().replace("′", "p").replace("'", "p")
    s = s.replace("_", "-")
    aliases = {
        "mi": "mutual-info",
        "mutual-information": "mutual-info",
        "anti-mono": "anti-monotone",
        "antimono": "anti-monotone",
        "anti-monotonicity": "anti-monotone",
        "c-n": "c_n",
        "cn": "c_n",
    }
    return aliases.get(s, s)


def builtin(name: str, n: int | None = None) -> InequalityTemplate:
    """Look up a builtin template; the parametric families require n >= 1.

    Parametric names also accept an embedded order, e.g. 'c_3' or 'thm2p_1'.
    """
    key = _canon_name(name)
    if key in _FIXED:
        return _FIXED[key]()
    m = key.replace("-", "_")
    if m in _PARAMETRIC:
        if n is None:
            raise ValueError(f"template {name!r} needs the family order n")
        if n < 1:
            raise ValueError("family order n must be >= 1")
        return _PARAMETRIC[m](n)
    if "_" in m:
        base, _, tail = m.rpartition("_")
        if base == "c":
            base = "c_n"
        if base in _PARAMETRIC and tail.isdigit():
            order = int(tail)
            if n is not None and n != order:
                raise ValueError(f"conflicting orders {name!r} vs n={n}")
            if order < 1:
                raise ValueError("family order n must be >= 1")
            return _PARAMETRIC[base](order)
    raise ValueError(f"unknown builtin template {name!r}")


# --- term lists and template serialization ---


def terms_to_obj(coefs: Mapping[int, object], ground: GroundSet) -> list:
    """A JSON term list: one {"subset": labels, "coef": "p/q"} per mask."""
    return [{"subset": list(ground.labels_of(mask)), "coef": str(c)}
            for mask, c in coefs.items()]


def terms_from_obj(entries, ground: GroundSet) -> LinearFunctional:
    """Read a JSON term list over `ground`; a subset given twice sums."""
    if not isinstance(entries, list):
        raise ValueError("a term list must be a JSON list")
    terms = []
    for ent in entries:
        if not isinstance(ent, dict) or "subset" not in ent or "coef" not in ent:
            raise ValueError("each term needs 'subset' and 'coef'")
        mask = subset_from_obj(ground, ent["subset"])
        if mask == 0:
            raise ValueError("term subset may not be empty")
        terms.append((mask, ent["coef"]))
    return LinearFunctional._from_ints(ground, *_cleared(terms))


def template_to_obj(template: InequalityTemplate) -> dict:
    slots = GroundSet(template.slots)
    obj = {
        "name": template.name,
        "slots": list(template.slots),
        "terms": terms_to_obj(template.terms, slots),
        "constraints": [terms_to_obj(c, slots) for c in template.constraints],
    }
    if template.symmetries:
        obj["symmetries"] = [list(g) for g in template.symmetries]
    if template.empty_ok:
        obj["empty_ok"] = sorted(template.empty_ok)
    return obj


def template_from_obj(obj) -> InequalityTemplate:
    if not isinstance(obj, dict):
        raise ValueError("template object must be a JSON object")
    if "name" not in obj:
        raise ValueError("template object missing key 'name'")
    obj = {"constraints": [], "symmetries": [], "empty_ok": [], **obj}
    slots = GroundSet(list_field(obj, "slots"))

    def subset(entry) -> tuple[str, ...]:
        return slots.labels_of(subset_from_obj(slots, entry))

    return InequalityTemplate(
        str(obj["name"]),
        slots.labels,
        terms_from_obj(list_field(obj, "terms"), slots).coefs,
        [terms_from_obj(c, slots).coefs for c in list_field(obj, "constraints")],
        [subset(g) for g in list_field(obj, "symmetries")],
        subset(list_field(obj, "empty_ok")),
    )


def template_to_json(template: InequalityTemplate, indent: int | None = None) -> str:
    return json.dumps(template_to_obj(template), indent=indent)


def template_from_json(text: str) -> InequalityTemplate:
    return template_from_obj(json.loads(text))
