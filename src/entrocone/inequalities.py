"""Linear entropic functionals and inequality templates with role slots.

A template states an inequality (and optional equality constraints) over
abstract slots; instantiating it assigns pairwise-disjoint subsets of a
concrete ground set to the slots and collects terms.  Coefficients are exact
rationals throughout, held as integer numerators over one denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import chain, islice
from math import factorial, gcd, lcm
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .setfn import (
    DEFAULT_TOL,
    FLOAT64,
    GroundSet,
    SetFunction,
    Subset,
    TypeSpace,
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


def cleared_values(f: SetFunction) -> tuple[list[int], int]:
    """An exact set function's values as integers times one positive scale."""
    den = lcm(*(v.denominator for v in f.values))
    return [int(v * den) for v in f.values], den


class LinearFunctional:
    """Exact rational combination sum_a coef(a) * f(a) over nonempty subsets.

    Stored as integer numerators `nums` (mask -> int, masks ascending) over
    one positive denominator `den`, in lowest terms.  `coefs` gives the
    coefficients as Fractions.  A functional is built from its `nums` dict
    and keeps it, or is a form that indexing or iterating a `Forms` batch
    gives (`_Row`), whose `nums` dict is made on its first read and kept.
    """

    __slots__ = ("ground", "nums", "den")
    _forms = None  # the batch of a `_Row` whose dict is not made yet

    def __init__(self, ground: GroundSet, coefs: Mapping[Subset, object]):
        masks = [ground.mask_of(key) for key in coefs]
        if 0 in masks:
            raise ValueError("the empty set carries no coefficient")
        self.ground = ground
        self.nums, self.den = _cleared(zip(masks, coefs.values()))

    @classmethod
    def _from_ints(cls, ground: GroundSet, nums: Mapping[int, int], den: int = 1):
        """sum_m nums[m] / den * f(m), for nonempty masks m and den > 0."""
        return cls._from_lowest(ground, *_lowest(nums, den))

    @classmethod
    def _from_lowest(cls, ground: GroundSet, nums: dict[int, int], den: int):
        """The functional of numerators already as `_lowest` leaves them."""
        self = cls.__new__(cls)
        self.ground, self.nums, self.den = ground, nums, den
        return self

    @property
    def coefs(self) -> dict[int, Fraction]:
        return {m: Fraction(v, self.den) for m, v in self.nums.items()}

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


_NUMS = LinearFunctional.nums  # the `nums` slot, which a `_Row` fills on first read


class _Row(LinearFunctional):
    """Form `_row` of the `Forms` batch `_forms`, as a LinearFunctional.
    Its `nums` dict is made on the first read and kept, and the row then
    lets go of its batch (`_forms` becomes None): from there on it is a
    functional built from its dict."""

    __slots__ = ("_forms", "_row")

    @property
    def nums(self) -> dict[int, int]:
        if self._forms is not None:
            _NUMS.__set__(self, self._forms.nums_of(self._row))
            self._forms = None
        return _NUMS.__get__(self)

    @classmethod
    def _from_lowest(cls, ground, nums: dict[int, int], den: int) -> LinearFunctional:
        # a functional made from a row's numerators is built from its dict
        return LinearFunctional._from_lowest(ground, nums, den)


def _ints(values: Callable[[], Iterable[int]], count: int) -> np.ndarray:
    """The `count` Python ints `values()` yields as an int64 array, or an
    object one past int64."""
    try:
        return np.fromiter(values(), np.int64, count)
    except OverflowError:
        return np.fromiter(values(), object, count)


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each of consecutive runs of `counts` entries starts, then the
    total: the `starts` of forms of `counts` terms."""
    starts = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=starts[1:])
    return starts


class Forms:
    """An immutable batch of linear forms on one ground, packed flat.

    Form i has the numerators nums[starts[i]:starts[i + 1]] at the masks
    masks[starts[i]:starts[i + 1]] (ascending, each nonzero) over the
    positive denominator dens[i], in lowest terms, as a LinearFunctional
    holds them.  The arrays are int64, or object past int64, and read-only.
    Indexing and iteration give the forms as LinearFunctional rows, each
    made when it is asked for and reading its `nums` dict from here on its
    first read; a batch keeps no row, and the Python lists of its arrays
    only once a row's dict is read.  `take`, `concat` and `distinct` work
    on the arrays.
    """

    __slots__ = ("ground", "masks", "nums", "starts", "dens", "_lists")

    def __init__(self, ground, masks: np.ndarray, nums: np.ndarray, starts: np.ndarray,
                 dens: np.ndarray):
        self.ground, self.masks, self.nums, self.starts, self.dens = (
            ground, masks, nums, starts, dens)
        for a in (masks, nums, starts, dens):
            a.setflags(write=False)
        self._lists = None  # masks, nums and starts as lists, once a dict is read

    def __len__(self) -> int:
        return len(self.dens)

    def __getitem__(self, i: int) -> LinearFunctional:
        i = range(len(self))[i]
        return next(self._rows([i], [int(self.dens[i])]))

    def __iter__(self) -> Iterator[LinearFunctional]:
        return self._rows(range(len(self)), self.dens.tolist())

    def _rows(self, index: Iterable[int], dens: Iterable[int]) -> Iterator[LinearFunctional]:
        make, ground, rows = _Row.__new__, self.ground, []
        for i, den in zip(index, dens):
            row = make(_Row)
            row.ground = ground
            row.den = den
            row._forms = self
            row._row = i
            rows.append(row)
        return iter(rows)

    def nums_of(self, i: int) -> dict[int, int]:
        """Form i's numerators as a LinearFunctional holds them.  The first
        call lists the batch's arrays, once for every row's dict."""
        if self._lists is None:
            self._lists = self.masks.tolist(), self.nums.tolist(), self.starts.tolist()
        masks, nums, starts = self._lists
        return dict(zip(masks[starts[i]:starts[i + 1]], nums[starts[i]:starts[i + 1]]))

    def take(self, index: Sequence[int]) -> "Forms":
        """The forms at `index`, in its order, as a new batch."""
        index = np.asarray(index, dtype=np.intp)
        counts = np.diff(self.starts)[index]
        starts = _starts(counts)
        at = np.repeat(self.starts[index] - starts[:-1], counts) + np.arange(starts[-1])
        return Forms(self.ground, self.masks[at], self.nums[at], starts, self.dens[index])

    def distinct(self) -> "Forms":
        """The forms with a term, each once, at its first place (the batch
        itself when that is every form)."""
        masks, nums, starts = self.masks.tolist(), self.nums.tolist(), self.starts.tolist()
        first: dict = {}
        for i, (a, b, den) in enumerate(zip(starts, starts[1:], self.dens.tolist())):
            if a < b:
                first.setdefault((den, *masks[a:b], *nums[a:b]), i)
        return self if len(first) == len(self) else self.take(list(first.values()))

    @classmethod
    def from_terms(cls, ground, masks: np.ndarray, coefs: np.ndarray, den: int) -> "Forms":
        """The forms sum_t coefs[t] / den * f(masks[r, t]), one per row r of a
        (rows, terms) mask matrix, as a batch on `ground`: per row the masks
        sorted, the empty set dropped, equal masks summed and zero sums
        dropped, over den divided by the row's gcd, all in numpy.  Integer
        arithmetic in int64 while sum |c| < 2^63, else in Python integers."""
        n_rows, width = masks.shape
        order = masks.argsort(axis=1)  # the order np.sort puts masks in, up to ties
        masks = np.sort(masks, axis=1)
        # a run of equal masks inside a row is one term, summed from its first place
        first = np.ones(masks.shape, dtype=bool)
        first[:, 1:] = masks[:, 1:] != masks[:, :-1]
        at = first.ravel().nonzero()[0]
        masks, sums = masks.ravel()[at], np.add.reduceat(coefs[order].ravel(), at)
        keep = (masks != 0) & (sums != 0)
        masks, sums, row_of = masks[keep], sums[keep], at[keep] // width
        bounds = np.searchsorted(row_of, np.arange(n_rows + 1))
        # per row, gcd(den, numerators), as `_lowest` takes it: den on a row
        # with no term (reduceat would read the next row's first numerator)
        g = np.full(n_rows, den, dtype=coefs.dtype)
        if den != 1:
            full = (bounds[1:] > bounds[:-1]).nonzero()[0]
            if len(full):
                g[full] = np.gcd(den, np.gcd.reduceat(sums, bounds[full]))
                sums //= g[row_of]
        return cls(ground, masks, sums, bounds, den // g)

    @staticmethod
    def concat(batches: Sequence["Forms"]) -> "Forms":
        """The forms of one or more batches on one ground, in order, as one
        batch."""
        masks, nums, counts, dens = (np.concatenate(part) for part in zip(*(
            (forms.masks, forms.nums, np.diff(forms.starts), forms.dens) for forms in batches)))
        return Forms(batches[0].ground, masks, nums, _starts(counts), dens)

    @classmethod
    def of(cls, ground, items: Sequence[LinearFunctional]) -> "Forms":
        """The items as one batch on `ground`, in order: a `Forms` as it is,
        the rows of one whole batch, in order, as that batch, and any other
        items packed from their dicts.  A ValueError when an item is on
        another ground, each distinct ground object compared once."""
        whole = items if isinstance(items, Forms) else _whole(items)
        grounds = ([whole.ground] if whole is not None
                   else {id(item.ground): item.ground for item in items}.values())
        if any(other is not ground and other != ground for other in grounds):
            raise ValueError("ground sets do not match")
        return whole if whole is not None else cls._packed(ground, items)

    @classmethod
    def _packed(cls, ground, items: Sequence[LinearFunctional]) -> "Forms":
        """Functionals packed from their `nums` dicts."""
        nums = [item.nums for item in items]
        starts = _starts(np.fromiter(map(len, nums), np.intp, len(nums)))
        return cls(ground, _ints(lambda: chain.from_iterable(nums), starts[-1]),
                   _ints(lambda: chain.from_iterable(map(dict.values, nums)), starts[-1]),
                   starts, _ints(lambda: (item.den for item in items), len(items)))


def _whole(items: Sequence[LinearFunctional]) -> Forms | None:
    """The batch whose rows, every one in order, the items are, or None."""
    n = len(items)
    whole = items[0]._forms if n else None
    if (whole is not None and len(whole) == n and [item._forms for item in items].count(whole) == n
            and (np.fromiter(map(attrgetter("_row"), items), np.intp, n) == np.arange(n)).all()):
        return whole
    return None


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
    """I(a:b|g): a, b and g are disjoint, so their masks (or types) add."""
    out: dict[int, int] = {}
    for mask, s in ((a + g, 1), (b + g, 1), (g, -1), (a + b + g, -1)):
        if mask:
            _add_terms(out, {mask: s})
    return out


class InequalityTemplate:
    """Inequality over named slots, with optional equality constraints.

    `ground` holds the slots as a GroundSet, and `functional` and each of
    `constraints` are LinearFunctionals over it (slot masks, bits in slot
    order); the statement is functional >= 0 subject to every constraint
    vanishing.  `symmetries` lists groups of interchangeable slots (used to
    deduplicate enumeration) and `empty_ok` the slots allowed to be empty by
    default.
    """

    __slots__ = ("name", "ground", "functional", "constraints", "symmetries", "empty_ok",
                 "__dict__")

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
        self.ground = GroundSet(slots)
        self.functional = LinearFunctional(self.ground, terms)
        self.constraints = tuple(LinearFunctional(self.ground, c) for c in constraints)
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
    def slots(self) -> tuple[str, ...]:
        return self.ground.labels

    @cached_property
    def compiled(self) -> "CompiledTemplate":
        """The template's `CompiledTemplate`, made on first read; instances
        realize their functionals through it."""
        return CompiledTemplate(self)

    def __eq__(self, other):
        return (
            isinstance(other, InequalityTemplate)
            and self.name == other.name
            and self.functional == other.functional
            and self.constraints == other.constraints
            and self.symmetries == other.symmetries
            and self.empty_ok == other.empty_ok
        )

    def __hash__(self):
        return hash((self.name, self.functional))

    def __repr__(self):
        return f"InequalityTemplate({self.name!r}, slots={self.slots})"


class Instance:
    """A template bound to concrete disjoint subsets of a ground set.

    Only the slot masks are stored; the functional and constraints are
    realized on first read, as a one-row block (`CompiledTemplate.realize`),
    and cached.  Two instances are equal when their template, ground and
    slot masks are.
    """

    __slots__ = ("template", "ground", "slot_masks", "__dict__")

    def __init__(self, template: InequalityTemplate, ground: GroundSet,
                 slot_masks: Iterable[int]):
        self.template = template
        self.ground = ground
        self.slot_masks = tuple(slot_masks)  # party mask per slot, in slot order

    def _key(self):
        return self.template, self.ground, self.slot_masks

    def __eq__(self, other):
        return isinstance(other, Instance) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Instance({self.template!r}, {self.ground!r}, {self.slot_masks!r})"

    @property
    def assignment(self) -> tuple[tuple[str, int], ...]:
        return tuple(zip(self.template.slots, self.slot_masks))

    @cached_property
    def functional(self) -> LinearFunctional:
        return self._realize(0)

    @cached_property
    def constraints(self) -> tuple[LinearFunctional, ...]:
        return tuple(self._realize(j) for j in range(1, 1 + len(self.template.constraints)))

    def _realize(self, column: int) -> LinearFunctional:
        # a ground past 63 parties has masks beyond int64
        row = np.array([self.slot_masks], dtype=np.int64 if self.ground.size < 64 else object)
        return self.template.compiled.realize(row, self.ground, column)[0]

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


MAX_ENUM_PARTIES = 52  # masks and candidate counts stay inside int64
BATCH_ROWS = 1024  # rows per enumeration block, and instances per evaluated chunk


def slot_blocks(
    template: InequalityTemplate,
    ground: GroundSet,
    fixed: Mapping[str, Subset] | None = None,
) -> Iterator[np.ndarray]:
    """All assignments of pairwise-disjoint subsets to slots, lexicographic,
    as int64 (rows, slots) blocks of party masks of at most BATCH_ROWS rows.

    `fixed` pins chosen slots; free slots range over subsets of the remaining
    parties, empty only where the template's `empty_ok` permits.  Assignments
    equal under the template's declared slot symmetries are emitted once, in
    canonical form: inside a group, the free slots' masks strictly increase
    in slot order, except repeated empties.  The bindings are checked here,
    on the call; the blocks are filled lazily, one free slot at a time
    (`_fill_slot`).
    """
    if ground.size > MAX_ENUM_PARTIES:
        raise ValueError(f"enumeration supports at most {MAX_ENUM_PARTIES} parties")
    root, used0, groups = _bindings(template, ground, fixed)
    floors = _floors(len(template.slots), groups)
    blocks = iter([(root, np.array([used0], dtype=np.int64))])
    free_parties = ground.full_mask & ~used0
    for i, slot in enumerate(template.slots):
        if fixed is None or slot not in fixed:
            blocks = _fill_slot(blocks, i, floors[i], slot in template.empty_ok, free_parties)
    return (rows for rows, _ in blocks)


def _bindings(template: InequalityTemplate, ground, fixed) -> tuple[np.ndarray, int, list]:
    """The checks of a fixed binding on `ground`: the (1, slots) row of the
    fixed slots' masks (0 on a free slot), their union, and each symmetry
    group's free columns, ascending."""
    slots, fixed = template.slots, fixed or {}
    root, used0 = np.zeros((1, len(slots)), np.int64), 0
    for slot, sub in fixed.items():
        if slot not in slots:
            raise ValueError(f"fixed binding names unknown slot {slot!r}")
        root[0, slots.index(slot)] = ground.mask_of(sub)
    for m in root[0].tolist():
        if used0 & m:
            raise ValueError("fixed bindings overlap")
        used0 |= m
    groups = [sorted(slots.index(s) for s in group if s not in fixed)
              for group in template.symmetries]
    return root, used0, groups


def _floors(n_slots: int, groups: list) -> list[int]:
    """Per slot, the column of the free slot before it in its symmetry group, or -1."""
    floors = [-1] * n_slots
    for cols in groups:
        for a, b in zip(cols, cols[1:]):
            floors[b] = a
    return floors


def type_blocks(
    template: InequalityTemplate,
    space: TypeSpace,
    fixed: Mapping[str, Subset] | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The instances of `slot_blocks` on `space.ground`, one row per type:
    (types, counts) blocks of at most BATCH_ROWS rows, `types` int64
    (rows, slots) of slot types K + j * 2^k (`TypeSpace`), `counts` the
    number of instances of each row's type.

    In a row the K parts are pairwise disjoint and the j sum to at most n;
    inside a symmetry group the free slots' types do not decrease, and a
    slot is empty (type 0) only where `empty_ok` permits.  A row stands for
    the n! / ((n - sum j)! prod j!) ways to give its slots disjoint sets of
    j x's, over r! for each run of r equal nonempty types in a group, which
    `slot_blocks` lists once.  Counts are int64 while n! < 2^63, else
    Python ints.  `fixed` binds slots to fixed parties only.  The type of a
    disjoint union is the sum of its parts' types, so `CompiledTemplate`'s
    `terms`, `bind` and `evaluate` read these rows, on a point on `space`,
    as they read slot masks on its full ground: the functional's value on a
    row is its value on each instance the row counts (a constraint's may be
    that of a permuted instance, as A <-> B swaps c_p's two).  The bindings
    are checked on the call.
    """
    k, n = len(space.fixed), space.n
    root, used0, groups = _bindings(template, space.ground, fixed)
    if used0 >> k:
        raise ValueError(f"a type space binds slots to its fixed parties {space.fixed} only")
    types = np.arange(space.n_subsets, dtype=np.int64)
    floors = _floors(len(template.slots), groups)
    blocks = iter([root])
    for i, slot in enumerate(template.slots):
        if fixed is None or slot not in fixed:
            blocks = _fill_type(blocks, i, floors[i], slot in template.empty_ok, types, k, n)
    return _counted(blocks, groups, k, n)


def _counted(blocks, groups: list, k: int, n: int):
    """Each block of type rows with its counts, as `type_blocks` gives them."""
    fact = [factorial(m) for m in range(n + 1)]
    fact = np.array(fact, dtype=np.int64 if fact[-1] < 2**63 else object)
    for rows in blocks:
        j = rows >> k
        counts = fact[n] // fact[n - j.sum(axis=1)] // fact[j].prod(axis=1)
        for cols in groups:  # the r! of each run of r equal nonempty types
            run = np.ones(len(rows), dtype=fact.dtype)
            for a, b in zip(cols, cols[1:]):
                same = rows[:, b] == rows[:, a]
                run = np.where(same, run + 1, 1)
                counts //= np.where(same & (rows[:, b] != 0), run, 1)
        yield rows, counts


def _fill_type(blocks, col: int, floor: int, empty_ok: bool, types: np.ndarray, k: int, n: int):
    """Blocks of slot-type rows with column `col`, a free slot, filled: each
    row extended by every type whose fixed part is disjoint from the row's,
    whose j fits in what the row leaves of n, at least the floor column's
    type, and nonempty unless `empty_ok`; in blocks of at most BATCH_ROWS."""
    low = (1 << k) - 1
    for rows in blocks:
        fits = (types & np.bitwise_or.reduce(rows & low, axis=1)[:, None]) == 0
        fits &= (types >> k) <= n - (rows >> k).sum(axis=1)[:, None]
        if floor >= 0:
            fits &= types >= rows[:, floor, None]
        fits[:, 0] &= empty_ok
        row, cand = fits.nonzero()
        for at in range(0, len(row), BATCH_ROWS):
            child = rows.take(row[at:at + BATCH_ROWS], axis=0)
            child[:, col] = cand[at:at + BATCH_ROWS]
            yield child


def enumerate_instances(
    template: InequalityTemplate,
    ground: GroundSet,
    fixed: Mapping[str, Subset] | None = None,
) -> Iterator[Instance]:
    """The assignments of `slot_blocks`, in its order, as lazy `Instance`s:
    one per `next()`, so a caller can stop anywhere."""
    make = partial(Instance, template, ground)
    return chain.from_iterable(map(make, rows.tolist())
                               for rows in slot_blocks(template, ground, fixed))


# the ascending submasks of every byte value, listed byte after byte
_BYTE_BITS = np.bitwise_count(np.arange(256)).astype(np.int64)
_BYTE_LOW = (1 << _BYTE_BITS) - 1
_BYTE_START = np.concatenate(([0], np.cumsum(_BYTE_LOW + 1)[:-1]))
_BYTE_SUBMASKS = np.array([s for m in range(256) for s in submasks(m)], dtype=np.int64)


def _deposit(index: np.ndarray, masks: np.ndarray, shifts: Sequence[int]) -> np.ndarray:
    """Per row, the index-th submask of masks in ascending order: the low
    bits of index deposited into the mask's bits, one byte at a time (the
    masks' nonzero bytes start at `shifts`)."""
    out = np.zeros_like(index)
    for shift in shifts:
        byte = masks >> shift & 255
        out |= _BYTE_SUBMASKS[_BYTE_START[byte] + (index & _BYTE_LOW[byte])] << shift
        index = index >> _BYTE_BITS[byte]
    return out


def _fill_slot(blocks, col: int, floor: int, empty_ok: bool, parties: int):
    """Blocks of slot-mask rows, with column `col`, a free slot, filled.

    `blocks` yields (rows, used) in lexicographic row order, `used` the
    parties each row has bound; every row is extended by each of its
    candidates, in order, and the result comes out in blocks of at most
    BATCH_ROWS rows, still in lexicographic order.  A row's candidates are
    the ascending submasks of its unused parties (among `parties`) from
    index `lo`: 1 when the slot may not be empty, and past every submask not
    above the mask f of the floor column.  f is disjoint from those parties,
    so the submasks below it are the 2^k of the k unused parties under f's
    top bit.
    """
    shifts = [b for b in range(0, parties.bit_length(), 8) if parties >> b & 255]
    one = np.int64(1)
    out: list[tuple[np.ndarray, np.ndarray]] = []
    n_out = 0
    for rows, used in blocks:
        free = parties & ~used
        lo = np.zeros_like(free)
        if floor >= 0:
            f = rows[:, floor]
            top = one << np.frexp(f)[1] >> 1  # f's top bit (f < 2^52 is exact)
            lo = np.where(f > 0, one << np.bitwise_count(free & (top - 1)), 0)
        if not empty_ok:
            lo = np.maximum(lo, 1)
        size = one << np.bitwise_count(free)
        ends = np.cumsum(size - lo)
        offset = size - ends  # a pair's candidate index, less the pair's position
        start, total = 0, int(ends[-1])
        while start < total:
            stop = min(total, start + BATCH_ROWS - n_out)
            pairs = np.arange(start, stop)
            row = np.searchsorted(ends, pairs, side="right")
            cand = _deposit(pairs + offset[row], free[row], shifts)
            child = rows.take(row, axis=0)
            child[:, col] = cand
            out.append((child, used[row] | cand))
            n_out += stop - start
            start = stop
            if n_out == BATCH_ROWS:
                yield _joined(out)
                out, n_out = [], 0
    if out:
        yield _joined(out)


def _joined(pieces):
    """One (rows, used) block from consecutive pieces; a lone piece is not copied."""
    if len(pieces) == 1:
        return pieces[0]
    return tuple(map(np.concatenate, zip(*pieces)))


# --- compiled batches ---


class CompiledTemplate:
    """A template's functional and constraints as one coefficient matrix.

    Rows are the distinct slot subsets the forms use, column 0 is the
    functional and column j the j-th constraint.  `ints` holds each column
    cleared by the lcm of its denominators (`denominators`), `floats` (built
    on first use) the coefficients as float64.  An instance's slot masks are
    disjoint, so the party mask of every term is the slot-mask row times
    `incidence` (`terms`).
    """

    def __init__(self, template: InequalityTemplate):
        forms = (template.functional, *template.constraints)
        terms = sorted(set().union(*(form.nums for form in forms)))
        self.incidence = np.array(
            [[t >> i & 1 for t in terms] for i in range(len(template.slots))],
            dtype=np.int64,
        ).reshape(len(template.slots), len(terms))
        self.denominators = [form.den for form in forms]
        self.ints = [[form.nums.get(t, 0) for form in forms] for t in terms]
        self.shape = (len(terms), len(forms))
        # the largest sum |c| of a cleared column: bounds |value| / max |f|
        self.abs_sum = max(sum(abs(row[j]) for row in self.ints) for j in range(len(forms)))
        # per form, for `realize`: the incidence of the terms it uses, their
        # numerators (int64 while they and den stay below 2^63), and den
        self._forms = []
        for j, form in enumerate(forms):
            used = [t for t, row in enumerate(self.ints) if row[j]]
            dtype = np.int64 if max(self.abs_sum, form.den) < 2**63 else object
            self._forms.append((self.incidence[:, used],
                                np.array([self.ints[t][j] for t in used], dtype=dtype), form.den))

    @cached_property
    def floats(self) -> np.ndarray:
        try:
            rows = [[c / den for c, den in zip(row, self.denominators)] for row in self.ints]
        except OverflowError:
            raise ValueError("a template coefficient is beyond float64") from None
        return np.array(rows, dtype=np.float64).reshape(self.shape)

    def terms(self, slot_masks: np.ndarray) -> np.ndarray:
        """(rows, terms) party masks of the terms for a (rows, slots) mask
        matrix: one product, which every set function bound here reads."""
        return slot_masks @ self.incidence

    def bind(self, f: SetFunction) -> "BoundTemplate":
        return BoundTemplate(self, f)

    def realize(self, slot_masks: np.ndarray, ground: GroundSet, column: int = 0) -> Forms:
        """The form of `column` (0 the functional, j the j-th constraint) for
        each row of a (rows, slots) mask matrix, as a `Forms` batch on
        `ground` (`Forms.from_terms` of the party masks of the form's terms,
        `terms`)."""
        incidence, coefs, den = self._forms[column]
        return Forms.from_terms(ground, slot_masks @ incidence, coefs, den)


def float_values(table: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """(..., forms) values of the term values `table` (..., terms) under the
    (terms, forms) float64 coefficients, adding the terms in order from
    +0.0 (a sequential `np.add.accumulate` after a zero row): a BLAS
    product rounds by memory placement, which would tie a row's value to
    the rows evaluated with it."""
    products = np.zeros(table.shape[:-1] + (table.shape[-1] + 1,) + coefs.shape[1:])
    np.multiply(table[..., None], coefs, out=products[..., 1:, :])
    return np.add.accumulate(products, axis=-2)[..., -1, :]


class BoundTemplate:
    """A compiled template paired with one set function.

    `evaluate` returns numerators: float values for a float64 f; for an exact
    f, integers whose value is numerator / `scales[column]`.  Exact f is
    cleared by the lcm of its denominators and runs in int64 when
    sum |c| * max |f| < 2^63, else in Python integers (object dtype).
    """

    def __init__(self, compiled: CompiledTemplate, f: SetFunction):
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
        self.coefs = np.array(compiled.ints, dtype=dtype).reshape(compiled.shape)
        self.scales = [d * den for d in compiled.denominators]

    def evaluate(self, terms: np.ndarray) -> np.ndarray:
        """(rows, 1 + constraints) numerators for (rows, terms) term masks
        (`CompiledTemplate.terms`); a float row's values do not depend on
        the other rows."""
        if not self.exact:
            return float_values(self.table[terms], self.coefs)
        return self.table[terms] @ self.coefs

    def value(self, num, column: int = 0):
        """A numerator as a Python value: float, or an exact Fraction."""
        if not self.exact:
            return float(num)
        return Fraction(int(num), self.scales[column])


def slot_mask_matrix(instances: Sequence[Instance], n_slots: int) -> np.ndarray:
    """The instances' slot masks as an int64 (rows, slots) matrix."""
    masks = chain.from_iterable(inst.slot_masks for inst in instances)
    return np.fromiter(masks, np.int64, len(instances) * n_slots).reshape(-1, n_slots)


def instance_batches(
    template: InequalityTemplate, ground: GroundSet, **kwargs
) -> Iterator[tuple[list[Instance], np.ndarray]]:
    """`enumerate_instances` in chunks of BATCH_ROWS: each chunk's instances
    and their slot-mask matrix."""
    it = enumerate_instances(template, ground, **kwargs)
    while chunk := list(islice(it, BATCH_ROWS)):
        yield chunk, slot_mask_matrix(chunk, len(template.slots))


MAX_RECORDED = 10  # violations a SatisfiesReport lists; it counts them all


@dataclass
class SatisfiesReport:
    """Scan of every admissible instance of a template on one set function."""

    template: str
    n_enumerated: int
    n_admissible: int
    min_value: object  # a Fraction on an exact f, a float on a float64 one
    argmin: Instance | None
    n_violations: int
    violations: list  # {"instance", "value"}, the first MAX_RECORDED
    max_constraint_residual: object

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
    compiled = template.compiled
    bound = compiled.bind(f)
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
                nums = bound.evaluate(compiled.terms(masks))
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
        for j in bad[: MAX_RECORDED - len(viols)]:
            viols.append({"instance": chunk[keep[j]], "value": bound.value(vals[j])})
    if bound.exact:
        max_resid = max(
            (bound.value(m, j + 1) for j, m in enumerate(resid_nums)), default=Fraction(0)
        )
    else:
        max_resid = float(max(resid_nums, default=0.0))
    return SatisfiesReport(
        template=template.name,
        n_enumerated=n_enum,
        n_admissible=n_adm,
        min_value=None if best is None else bound.value(best),
        argmin=argmin,
        n_violations=n_viol,
        violations=viols,
        max_constraint_residual=max_resid,
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
    _add_terms(t, _cmi_terms(a | b, c), -(n - 1))
    return InequalityTemplate(f"c_{n}", slots, t, cons, sym, empty)


def _template_thm1p(n: int) -> InequalityTemplate:
    slots, a, b, c, x_all, t, cons, sym, empty = _c_family_parts(n)
    _add_terms(t, _cmi_terms(a, b, c | x_all))
    _add_terms(t, {a | b | c | x_all: 1})
    _add_terms(t, {a | b | c: -1})
    _add_terms(t, _cmi_terms(a | b, c), -n)
    return InequalityTemplate(f"thm1p_{n}", slots, t, cons, sym, empty)


def _template_thm2(n: int) -> InequalityTemplate:
    slots, a, b, c, x_all, t, cons, sym, empty = _c_family_parts(n)
    _add_terms(t, _cmi_terms(a, b, c))
    _add_terms(t, {c: 1, c | x_all: -1})
    _add_terms(t, _cmi_terms(a | b, c), -n)
    return InequalityTemplate(f"thm2_{n}", slots, t, cons, sym, empty)


def _template_thm2p(n: int) -> InequalityTemplate:
    slots, a, b, c, x_all, t, cons, sym, empty = _c_family_parts(n)
    _add_terms(t, _cmi_terms(a, b, c | x_all))
    _add_terms(t, {a | b | c | x_all: 1})
    _add_terms(t, _cmi_terms(a, b, c))
    _add_terms(t, {c: 1})
    _add_terms(t, {a | b: -1})
    _add_terms(t, _cmi_terms(a | b, c), -(n + 1))
    return InequalityTemplate(f"thm2p_{n}", slots, t, cons, sym, empty)


def _template_ssa() -> InequalityTemplate:
    return InequalityTemplate(
        "ssa", ("A", "B", "C"), _cmi_terms(1, 2, 4),
        symmetries=(("A", "B"),), empty_ok=("C",),
    )


def _template_wmo() -> InequalityTemplate:
    return InequalityTemplate(
        "wmo", ("A", "B", "C"), {3: 1, 5: 1, 2: -1, 4: -1},
        symmetries=(("B", "C"),), empty_ok=("B", "C"),
    )


def _template_mi() -> InequalityTemplate:
    return InequalityTemplate(
        "mutual-info", ("A", "B"), _cmi_terms(1, 2), symmetries=(("A", "B"),)
    )


def _template_triangle() -> InequalityTemplate:
    return InequalityTemplate("triangle", ("A", "B"), {3: 1, 1: 1, 2: -1})


def _template_positivity() -> InequalityTemplate:
    return InequalityTemplate("positivity", ("A",), {1: 1})


def _template_antimono() -> InequalityTemplate:
    # deliberately false probe: S(A) >= S(AB) fails on entangled states
    return InequalityTemplate("anti-monotone", ("A", "B"), {1: 1, 3: -1})


def _template_lw05() -> InequalityTemplate:
    a, b, c, d = 1, 2, 4, 8
    t: dict[int, int] = {}
    _add_terms(t, _cmi_terms(c, d))
    _add_terms(t, _cmi_terms(a | b, c), -1)
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
    A template is made once per template function and order and shared
    (`builtin("c_3") is builtin("c_n", 3)`, for the 64 pairs used last),
    so no caller may mutate it.
    """
    key = _canon_name(name)
    if key in _FIXED:
        return _built(_FIXED[key])
    m = key.replace("-", "_")
    if m in _PARAMETRIC:
        if n is None:
            raise ValueError(f"template {name!r} needs the family order n")
        if n < 1:
            raise ValueError("family order n must be >= 1")
        return _built(_PARAMETRIC[m], n)
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
            return _built(_PARAMETRIC[base], order)
    raise ValueError(f"unknown builtin template {name!r}")


@lru_cache(maxsize=64)  # far more (function, order) pairs than a run uses
def _built(make, *order) -> InequalityTemplate:
    return make(*order)


def takes_order(name: str) -> bool:
    """Whether `builtin(name, n)` reads n: every builtin but the fixed ones."""
    return _canon_name(name) not in _FIXED


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
    ground = template.ground
    obj = {
        "name": template.name,
        "slots": list(ground.labels),
        "terms": terms_to_obj(template.functional.coefs, ground),
        "constraints": [terms_to_obj(c.coefs, ground) for c in template.constraints],
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

