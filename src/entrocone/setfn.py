"""Set functions over a finite party set, with the basic entropic predicates.

Subsets of the ground set are bitmasks over the declared label order.  A
SetFunction carries a numeric-domain tag: exact integers, exact rationals
(fractions.Fraction), or float64.  Exact domains compare exactly; float64
comparisons use an absolute tolerance (default 1e-9).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

Subset = Union[int, str, Iterable[str]]
Value = Union[int, Fraction, float]

EXACT_INTEGER = "exact-integer"
EXACT_RATIONAL = "exact-rational"
FLOAT64 = "float64"

DEFAULT_TOL = 1e-9


def check_tol(tol: float) -> None:
    """Refuse a float tolerance that is negative or not finite: a NaN or
    infinite one would let every check pass whatever the values."""
    if not 0 <= tol <= sys.float_info.max:
        raise ValueError(f"tolerance must be finite and at least 0, got {tol}")


def submasks(mask: int) -> Iterator[int]:
    """All submasks of `mask` in ascending order, including 0 and mask."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


@dataclass(frozen=True)
class GroundSet:
    """Ordered set of distinct party labels; subsets are bitmasks over it."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.labels, tuple):
            object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) == 0:
            raise ValueError("ground set needs at least one party")
        for lab in self.labels:
            if not isinstance(lab, str) or not lab:
                raise ValueError("party labels must be nonempty strings")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("party labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def n_subsets(self) -> int:
        return 1 << len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown party label {label!r}") from None

    def mask_of(self, subset: Subset) -> int:
        """Resolve a subset given as a mask, a single label, or label iterable."""
        if isinstance(subset, int):
            if not 0 <= subset <= self.full_mask:
                raise ValueError(f"mask {subset} out of range for {self.size} parties")
            return subset
        if isinstance(subset, str):
            return 1 << self.index(subset)
        mask = 0
        for lab in subset:
            bit = 1 << self.index(lab)
            if mask & bit:
                raise ValueError(f"duplicate label {lab!r} in subset")
            mask |= bit
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(lab for i, lab in enumerate(self.labels) if mask >> i & 1)

    def complement(self, mask: int) -> int:
        return self.full_mask & ~mask

    def iter_masks(self) -> Iterator[int]:
        """The nonempty subsets' masks, ascending."""
        return iter(range(1, self.n_subsets))

    def subset_str(self, mask: int) -> str:
        return "{" + ",".join(self.labels_of(mask)) + "}"


def _classify(values) -> str:
    has_float = any(isinstance(v, float) for v in values)
    if has_float:
        return FLOAT64
    if any(isinstance(v, Fraction) and v.denominator != 1 for v in values):
        return EXACT_RATIONAL
    return EXACT_INTEGER


def _canon_exact(v):
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


class SetFunction:
    """Real-valued function on nonempty subsets of a ground set, f(empty) = 0."""

    __slots__ = ("ground", "values", "domain")

    def __init__(self, ground: GroundSet, values, domain: str | None = None):
        """`values` is either a mask-indexed sequence of length 2^m (entry 0
        ignored, forced to zero) or a mapping from subset to value covering
        every nonempty subset."""
        if isinstance(values, Mapping):
            table = [None] * ground.n_subsets
            table[0] = 0
            for key, v in values.items():
                mask = ground.mask_of(key)
                if mask == 0:
                    raise ValueError("the empty set takes no value (fixed at 0)")
                if table[mask] is not None:
                    raise ValueError(f"subset {ground.subset_str(mask)} given twice")
                table[mask] = v
            for mask in range(1, ground.n_subsets):
                if table[mask] is None:
                    raise ValueError(f"missing value for subset {ground.subset_str(mask)}")
        else:
            table = list(values)
            if len(table) != ground.n_subsets:
                raise ValueError(f"need {ground.n_subsets} values, got {len(table)}")
            table[0] = 0
        dom = domain or _classify(table)
        if dom == FLOAT64:
            table = [float(v) for v in table]
        else:
            table = [_canon_exact(v) for v in table]
        self.ground = ground
        self.values = tuple(table)
        self.domain = dom

    @property
    def is_exact(self) -> bool:
        return self.domain != FLOAT64

    def __call__(self, subset: Subset):
        return self.values[self.ground.mask_of(subset)]

    def value(self, mask: int):
        return self.values[mask]

    def __eq__(self, other):
        return (
            isinstance(other, SetFunction)
            and self.ground == other.ground
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.ground, self.values))

    def __repr__(self):
        return f"SetFunction({self.ground.labels}, domain={self.domain})"


@dataclass(frozen=True)
class PredicateReport:
    """Outcome of a structural check; `violation` names the first failure."""

    holds: bool
    violation: tuple | None = None
    value: Value | None = None

    def __bool__(self) -> bool:
        return self.holds


def cmi(f: SetFunction, a: Subset, b: Subset, g: Subset = 0) -> Value:
    """Conditional-mutual-information form f(ag)+f(bg)-f(g)-f(abg).

    The three subsets must be pairwise disjoint; `g` may be empty.
    """
    gr = f.ground
    am, bm, gm = gr.mask_of(a), gr.mask_of(b), gr.mask_of(g)
    if am & bm or am & gm or bm & gm:
        raise ValueError("cmi arguments must be pairwise disjoint")
    v = f.values
    return v[am | gm] + v[bm | gm] - v[gm] - v[am | bm | gm]


def is_submodular(f: SetFunction, tol: float = DEFAULT_TOL) -> PredicateReport:
    """Check all elemental triples f(i:j|a) >= 0, i != j, a disjoint from both.

    Equivalent to nonnegativity of every instantiated conditional mutual
    information; the first violating triple (i, j, a) is reported.
    """
    gr = f.ground
    v = f.values
    thresh = -tol if f.domain == FLOAT64 else 0
    m = gr.size
    for i in range(m):
        bi = 1 << i
        for j in range(i + 1, m):
            bj = 1 << j
            comp = gr.full_mask & ~(bi | bj)
            for a in submasks(comp):
                val = v[bi | a] + v[bj | a] - v[a] - v[bi | bj | a]
                if val < thresh:
                    return PredicateReport(
                        False,
                        (gr.labels_of(bi), gr.labels_of(bj), gr.labels_of(a)),
                        val,
                    )
    return PredicateReport(True)


def is_monotone(f: SetFunction, tol: float = DEFAULT_TOL) -> PredicateReport:
    """Check f(a) <= f(a + i) for every subset a and party i outside it."""
    gr = f.ground
    v = f.values
    thresh = -tol if f.domain == FLOAT64 else 0
    for a in range(gr.n_subsets):
        rest = gr.full_mask & ~a
        while rest:
            bit = rest & -rest
            rest ^= bit
            val = v[a | bit] - v[a]
            if val < thresh:
                return PredicateReport(
                    False, (gr.labels_of(a), gr.labels_of(a | bit)), val
                )
    return PredicateReport(True)


def is_weakly_monotone(f: SetFunction, tol: float = DEFAULT_TOL) -> PredicateReport:
    """Check f(ab)+f(ac)-f(b)-f(c) >= 0 for disjoint a, b, c (a nonempty).

    b and c may be empty, so this subsumes the triangle and positivity forms.
    """
    gr = f.ground
    v = f.values
    thresh = -tol if f.domain == FLOAT64 else 0
    for b in range(gr.n_subsets):
        compb = gr.full_mask & ~b
        for c in submasks(compb):
            if c < b:
                continue
            compbc = compb & ~c
            for a in submasks(compbc):
                if a == 0:
                    continue
                val = v[a | b] + v[a | c] - v[b] - v[c]
                if val < thresh:
                    return PredicateReport(
                        False,
                        (gr.labels_of(a), gr.labels_of(b), gr.labels_of(c)),
                        val,
                    )
    return PredicateReport(True)


def complement_transform(f: SetFunction) -> SetFunction:
    """The purification image: f'(a) = f(complement of a), f'(full) = 0.

    Models passing to the complementary marginal of a pure extension; it is
    an involution on functions vanishing on the full set.
    """
    gr = f.ground
    table = [0] * gr.n_subsets
    for mask in range(1, gr.n_subsets):
        comp = gr.complement(mask)
        table[mask] = f.values[comp] if comp else 0
    return SetFunction(gr, table, domain=f.domain)


def monotone_repair(f: SetFunction) -> SetFunction:
    """Add c per element, with the single smallest exact c making f monotone.

    g(a) = f(a) + |a| * c where c = max(0, max over a <= b of f(a) - f(b)).
    Adding a multiple of cardinality preserves submodularity and the value of
    every balanced functional.  Exact domains only.
    """
    if f.domain == FLOAT64:
        raise ValueError("monotone repair requires an exact numeric domain")
    gr = f.ground
    v = f.values
    c = 0
    for b in range(gr.n_subsets):
        fb = v[b]
        for a in submasks(b):
            d = v[a] - fb
            if d > c:
                c = d
    table = [v[mask] + bin(mask).count("1") * c for mask in range(gr.n_subsets)]
    return SetFunction(gr, table)


# --- serialization ---


def _format_exact(v) -> str:
    return str(v)


def list_field(obj: Mapping, key: str) -> list:
    """obj[key] of a JSON object read from a file, which must be a list."""
    if key not in obj:
        raise ValueError(f"missing key {key!r}")
    if not isinstance(obj[key], list):
        raise ValueError(f"{key!r} must be a JSON list")
    return obj[key]


def subset_from_obj(ground: GroundSet, subset) -> int:
    """The mask of a subset read from a file: a list of labels, or a string
    naming one label."""
    if not isinstance(subset, (list, str)):
        raise ValueError(f"subset {subset!r} is not a list of labels")
    return ground.mask_of(subset)


def _parse_value(v):
    """A value read from a file: a string is exact (integer or 'p/q'), a
    number is float64; either must be finite."""
    if isinstance(v, str):
        s = v.strip()
        try:
            if "/" in s:
                return _canon_exact(Fraction(s))
            return int(s)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad exact value {v!r}") from None
    # NaN and the infinities fail the comparison, as do ints beyond float64
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ValueError(f"bad value {v!r}: give a finite number or an exact string")
    return float(v)


def setfn_to_obj(f: SetFunction) -> dict:
    vals = []
    for mask in range(1, f.ground.n_subsets):
        v = f.values[mask]
        vals.append(
            {
                "subset": list(f.ground.labels_of(mask)),
                "value": _format_exact(v) if f.is_exact else v,
            }
        )
    return {"parties": list(f.ground.labels), "values": vals}


def setfn_from_obj(obj) -> SetFunction:
    if not isinstance(obj, dict):
        raise ValueError("set-function object must be a JSON object")
    gr = GroundSet(list_field(obj, "parties"))
    entries = list_field(obj, "values")
    if len(entries) != gr.n_subsets - 1:
        raise ValueError(f"need {gr.n_subsets - 1} values, one per nonempty subset, "
                         f"got {len(entries)}")
    # as many distinct nonempty subsets as there are: every one is covered
    table = [None] * gr.n_subsets
    table[0] = 0
    for ent in entries:
        if not isinstance(ent, dict) or "subset" not in ent or "value" not in ent:
            raise ValueError("each values entry needs 'subset' and 'value'")
        mask = subset_from_obj(gr, ent["subset"])
        if mask == 0:
            raise ValueError("the empty subset may not appear in 'values'")
        if table[mask] is not None:
            raise ValueError(f"subset {gr.subset_str(mask)} appears twice")
        table[mask] = _parse_value(ent["value"])
    return SetFunction(gr, table)


def setfn_to_json(f: SetFunction, indent: int | None = None) -> str:
    return json.dumps(setfn_to_obj(f), indent=indent)


def setfn_from_json(text: str) -> SetFunction:
    return setfn_from_obj(json.loads(text))
