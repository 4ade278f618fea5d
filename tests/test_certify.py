"""Exact cone membership: certificates, simplex, Farkas extraction."""

import hashlib
import json
import tracemalloc
from fractions import Fraction
from itertools import chain, islice
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrocone import certify
from entrocone.setfn import GroundSet, SetFunction
from entrocone.inequalities import (
    Forms,
    InequalityTemplate,
    LinearFunctional,
    builtin,
    cleared_values,
    enumerate_instances,
    instantiate,
    slot_blocks,
)
from entrocone.witness import counterexample_table, make_witness_g
from entrocone.certify import (
    Certificate,
    Feasible,
    Infeasible,
    cone_membership,
    elemental_forms,
    independence_orbits,
    independence_problem,
    problem_from_obj,
    problem_to_obj,
    proof_certificate,
    purified_basic_problem,
    verify_certificate,
)


def basic_instances(gr):
    """Every ssa instance on a ground, then every wmo instance (empty side
    slots included): the basic generators `independence_problem` lists."""
    return chain(enumerate_instances(builtin("ssa"), gr), enumerate_instances(builtin("wmo"), gr))


def fn(gr, coefs):
    return LinearFunctional(gr, {gr.mask_of(k): Fraction(v) for k, v in coefs.items()})


# ------------------------------------------------------------ certificates


def test_counterexample_is_a_valid_certificate():
    e = counterexample_table()
    gr = e.ground
    gens = [inst.functional for inst in enumerate_instances(builtin("ssa"), gr)]
    binding = {"A": "A", "B": "B", "C": "C", "X1": "D"}
    gens += [
        instantiate(builtin(name), gr, binding).functional
        for name in ("c_1", "thm1p_1", "thm2_1", "thm2p_1")
    ]
    lw = instantiate(builtin("lw05"), gr, {"A": "A", "B": "B", "C": "C", "D": "D"})
    cert = Certificate(
        point=e,
        generators=tuple(gens),
        constraints=tuple(lw.constraints),
        target=lw.functional,
    )
    rep = verify_certificate(cert)
    assert rep.valid
    assert rep.target_value == -2


def test_certificate_report_collects_failures():
    gr = GroundSet(("a", "b"))
    point = SetFunction(gr, [0, 1, 1, 1])
    cert = Certificate(
        point=point,
        generators=(fn(gr, {("a",): -1}),),  # evaluates to -1: fails
        constraints=(fn(gr, {("b",): 1}),),  # evaluates to 1: fails
        target=fn(gr, {("a", "b"): 1}),  # evaluates to 1: fails
    )
    rep = verify_certificate(cert)
    assert not rep.valid
    kinds = sorted(f["kind"] for f in rep.failures)
    assert kinds == ["constraint", "generator", "target"]


def test_certificate_rejects_float_points():
    gr = GroundSet(("a",))
    point = SetFunction(gr, [0.0, 1.0])
    cert = Certificate(point=point, generators=(), constraints=(),
                       target=fn(gr, {("a",): -1}))
    with pytest.raises(ValueError):
        verify_certificate(cert)


def reference_verify(cert):
    """(valid, failures, target value) item by item, as `verify_certificate`
    did before its one gather: each item's integer dot product with the
    cleared point."""
    f = cert.point
    table, _ = cleared_values(f)
    failures = [{"kind": "generator", "index": i, "value": Fraction(g.evaluate(f))}
                for i, g in enumerate(cert.generators) if g.dot(table) < 0]
    failures += [{"kind": "constraint", "index": i, "value": Fraction(c.evaluate(f))}
                 for i, c in enumerate(cert.constraints) if c.dot(table) != 0]
    tval = Fraction(cert.target.evaluate(f))
    if tval >= 0:
        failures.append({"kind": "target", "index": 0, "value": tval})
    return not failures, failures, tval


@st.composite
def certificates(draw):
    """Items on 1-3 parties, zero items among them, with coefficients and
    point values that may pass 2^63 or be fractions."""
    gr = GroundSet(tuple("abc"[:draw(st.integers(1, 3))]))
    size = st.sampled_from([1, 1, 1, 2**40, 2**62, 3**41])
    value = st.builds(lambda a, b, s: Fraction(a * s, b), st.integers(-3, 3),
                      st.sampled_from([1, 1, 2, 3]), size)
    masks = st.integers(1, gr.full_mask)
    item = st.dictionaries(masks, value.filter(bool), max_size=4).map(
        lambda coefs: LinearFunctional(gr, coefs))
    point = SetFunction(gr, [0] + draw(st.lists(value, min_size=gr.full_mask,
                                                max_size=gr.full_mask)))
    return Certificate(point, tuple(draw(st.lists(item, max_size=6))),
                       tuple(draw(st.lists(item, max_size=3))), draw(item))


_GR = GroundSet(("a", "b"))


@settings(max_examples=250, deadline=None)
@given(certificates())
# zero items around a failing one: reduceat gives an empty segment the
# next element, so a zero generator must not read its neighbour's value
@example(Certificate(SetFunction(_GR, [0, 1, 1, 1]),
                     (fn(_GR, {}), fn(_GR, {("a",): -1}), fn(_GR, {})),
                     (fn(_GR, {}), fn(_GR, {("b",): 1})), fn(_GR, {("a", "b"): -1})))
# a point past 2^63 on a generator whose value is negative only exactly
@example(Certificate(SetFunction(_GR, [0, 2**63, 2**63 + 1, 1]),
                     (fn(_GR, {("a",): 1, ("b",): -1}),), (), fn(_GR, {("a",): -1})))
# a point past 2^63 and no nonzero item: nothing is gathered
@example(Certificate(SetFunction(_GR, [0, 2**64, 1, 1]), (fn(_GR, {}),), (),
                     fn(_GR, {("a",): -1})))
def test_gathered_check_matches_the_per_item_reference(cert):
    rep = verify_certificate(cert)
    assert (rep.valid, rep.failures, rep.target_value) == reference_verify(cert)
    assert all(type(f["value"]) is Fraction for f in rep.failures)


# zero at A = B = {}: both terms are on the empty set, so the row has no term
_ZERO_AT_EMPTY = InequalityTemplate("zero-at-empty", ("A", "B"), {1: 1, 2: -1},
                                    empty_ok=("A", "B"))


def _wide(template):
    """The template with a coefficient of 3^41, beyond int64."""
    return InequalityTemplate("wide", template.slots, {**template.functional.coefs, 1: 3**41},
                              symmetries=template.symmetries, empty_ok=template.empty_ok)


def _batches(gr, templates):
    """The first realized block of each template on `gr`, as its rows."""
    return [list(t.compiled.realize(next(slot_blocks(t, gr)), gr)) for t in templates]


@st.composite
def interleaved_certificates(draw):
    """Items that interleave runs of rows of two realized batches (out of
    order, repeated, across the two) with functionals built from dicts,
    zero rows and zero dicts among them, on 2-3 parties; a batch's
    numerators pass 2^63 one time in four, and point values may too."""
    gr = GroundSet(tuple("abc"[:draw(st.integers(2, 3))]))
    templates = draw(st.permutations([builtin("ssa"), builtin("wmo"), _ZERO_AT_EMPTY]))[:2]
    if draw(st.integers(0, 3)) == 0:
        templates[0] = _wide(templates[0])
    pool = [row for rows in _batches(gr, templates) for row in rows]
    run = st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 6)).map(
        lambda t: pool[t[0]:t[0] + t[1]])
    size = st.sampled_from([1, 1, 1, 2**40, 2**62, 3**41])
    value = st.builds(lambda a, b, s: Fraction(a * s, b), st.integers(-3, 3),
                      st.sampled_from([1, 1, 2, 3]), size)
    loose = st.dictionaries(st.integers(1, gr.full_mask), value.filter(bool), max_size=4).map(
        lambda coefs: [LinearFunctional(gr, coefs)])
    items = st.lists(st.one_of(run, loose), max_size=8).map(lambda runs: sum(runs, []))
    point = SetFunction(gr, [0] + draw(st.lists(value, min_size=gr.full_mask,
                                                max_size=gr.full_mask)))
    return Certificate(point, tuple(draw(items)), tuple(draw(items))[:3],
                       draw(st.one_of(st.sampled_from(pool), loose.map(lambda l: l[0]))))


def _assert_packed_check_matches_the_reference(cert):
    # packed first: reading a row's dict lets its batch go
    rep = verify_certificate(cert)
    items = [*cert.generators, *cert.constraints]
    packed = Forms.of(cert.point.ground, items)
    assert (rep.valid, rep.failures, rep.target_value) == reference_verify(cert)
    assert [packed.nums_of(i) for i in range(len(items))] == [item.nums for item in items]
    assert packed.dens.tolist() == [item.den for item in items]


@settings(max_examples=250, deadline=None)
@given(interleaved_certificates())
def test_packed_check_of_interleaved_rows_matches_the_per_item_reference(cert):
    _assert_packed_check_matches_the_reference(cert)


def test_packed_check_past_int64_matches_the_per_item_reference():
    # numerators of 3^41 in one batch and point values past 2^63: the runs
    # pack to Python integers, and so does the gather
    gr = GroundSet(("a", "b", "c"))
    wide, plain = _batches(gr, [_wide(builtin("ssa")), builtin("wmo")])
    assert wide[0]._forms.nums.dtype == object and plain[0]._forms.nums.dtype == np.int64
    gens = (*plain[3:7], *wide[5:9], fn(gr, {("a",): 2**70}), *wide[:2], plain[0], fn(gr, {}))
    point = SetFunction(gr, [0, 2**63 + 1, 2**64, 3, 5, 7, 2**65, 11])
    cert = Certificate(point, gens, (wide[2], plain[9]), plain[1])
    assert Forms.of(gr, [*gens, *cert.constraints]).nums.dtype == object
    _assert_packed_check_matches_the_reference(cert)
    assert not verify_certificate(cert).valid


def test_one_foreign_ground_among_thousands_of_equal_ones_is_refused():
    # the items' grounds are compared object by object, once each: equal
    # grounds that are other objects pass, one foreign ground does not
    target, gens, cons, ground, _ = independence_problem(3)
    point = make_witness_g(3)
    assert point.ground == ground and point.ground is not ground and len(gens) == 3118
    copies = [LinearFunctional._from_ints(GroundSet(ground.labels), g.nums, g.den)
              for g in gens]
    assert verify_certificate(Certificate(point, tuple(copies), tuple(cons), target))
    foreign = GroundSet(ground.labels[:-1] + ("y",))
    odd = copies[:]
    odd[len(odd) // 2] = LinearFunctional._from_ints(foreign, gens[0].nums, gens[0].den)
    with pytest.raises(ValueError, match="^ground sets do not match$"):
        verify_certificate(Certificate(point, tuple(odd), tuple(cons), target))
    with pytest.raises(ValueError, match="^all functionals must share one ground set$"):
        cone_membership(target, odd, cons)


def test_a_batch_longer_than_one_gather_matches_the_per_item_reference():
    # 3,118 generators are gathered BATCH_ROWS at a time: minus the witness
    # fails on generators in every one of those gathers, as a batch and as
    # items packed from their dicts with a zero form among them
    target, gens, cons, ground, _ = independence_problem(3)
    point = SetFunction(ground, [-v for v in make_witness_g(3).values])
    items = [*list(gens)[:2000], fn(ground, {}), *list(gens)[2000:]]
    for generators in (gens, items):
        cert = Certificate(point, generators, cons, target)
        rep = verify_certificate(cert)
        assert (rep.valid, rep.failures, rep.target_value) == reference_verify(cert)
        assert {f["index"] // certify.BATCH_ROWS for f in rep.failures
                if f["kind"] == "generator"} == {0, 1, 2, 3}


def test_whole_batches_are_checked_as_they_are(monkeypatch):
    """The rows of a built problem's batches, whole and in order, are those
    batches: the re-check packs nothing from dicts and reads no row dict,
    and the orbit LP packs only its constraint pairs from dicts.  A whole
    batch on another ground is still refused."""
    target, gens, cons, ground, _ = independence_problem(3)
    assert target.nums  # the target is one functional, evaluated on its dict
    point = make_witness_g(3)
    problem = independence_orbits(2)
    packed, read = [], []
    pack, nums_of = Forms._packed.__func__, Forms.nums_of
    monkeypatch.setattr(Forms, "_packed", classmethod(
        lambda cls, ground, items: packed.append(len(items)) or pack(cls, ground, items)))
    monkeypatch.setattr(Forms, "nums_of", lambda self, i: read.append(i) or nums_of(self, i))
    assert verify_certificate(Certificate(point, tuple(gens), cons, target))
    assert packed == [] and read == []
    assert isinstance(cone_membership(*problem[:3]), Infeasible)
    assert packed == [2 * len(problem[2])]
    foreign = make_witness_g(2)
    for items in (gens, tuple(gens)):
        with pytest.raises(ValueError, match="^ground sets do not match$"):
            verify_certificate(Certificate(foreign, items, (), target))


# ------------------------------------------------------------ membership


def test_membership_fast_path_finds_listed_generator():
    gr = GroundSet(("a", "b", "c"))
    gens = [inst.functional for inst in enumerate_instances(builtin("ssa"), gr)]
    target = instantiate(builtin("mi"), gr, {"A": "a", "B": "b"}).functional
    out = cone_membership(target, gens, [])
    assert isinstance(out, Feasible)
    # exactly one generator used, with a positive weight
    used = [(i, c) for i, c in enumerate(out.coefficients) if c != 0]
    assert len(used) == 1 and used[0][1] > 0


def test_membership_lp_reproduces_target_exactly():
    gr = GroundSet(("a", "b", "c"))
    gens = [inst.functional for inst in enumerate_instances(builtin("ssa"), gr)]
    target = instantiate(builtin("mi"), gr, {"A": "a", "B": "b"}).functional
    out = cone_membership(target, gens, [])
    assert isinstance(out, Feasible)
    acc: dict = {}
    for c, g in zip(out.coefficients, gens):
        if c == 0:
            continue
        for mask, coef in g.coefs.items():
            acc[mask] = acc.get(mask, Fraction(0)) + c * coef
    assert {m: v for m, v in acc.items() if v != 0} == target.coefs


def test_membership_infeasible_yields_checked_farkas_point():
    gr = GroundSet(("a",))
    s_a = fn(gr, {("a",): 1})
    target = fn(gr, {("a",): -1})
    out = cone_membership(target, [s_a], [])
    assert isinstance(out, Infeasible)
    w = out.farkas_point
    assert s_a.evaluate(w) >= 0
    assert target.evaluate(w) < 0


def test_membership_uses_constraints_as_free_directions():
    gr = GroundSet(("a", "b"))
    target = fn(gr, {("a",): 1, ("b",): -1})
    constraint = fn(gr, {("a",): 1, ("b",): -1})
    out = cone_membership(target, [fn(gr, {("a", "b"): 1})], [constraint])
    assert isinstance(out, Feasible)
    assert all(c == 0 for c in out.coefficients)
    assert out.constraint_coefficients == (Fraction(1),)


def test_membership_empty_target_is_trivially_feasible():
    gr = GroundSet(("a",))
    target = LinearFunctional(gr, {})
    out = cone_membership(target, [fn(gr, {("a",): 1})], [])
    assert isinstance(out, Feasible)
    assert all(c == 0 for c in out.coefficients)


def test_membership_random_problems_are_internally_consistent():
    # whichever side the simplex lands on, the exact re-verification inside
    # cone_membership must not raise, and the reported object must replay
    rng = np.random.default_rng(2024)
    gr = GroundSet(("a", "b", "c"))
    n_feasible = 0
    n_infeasible = 0
    for trial in range(20):
        gens = [
            LinearFunctional(
                gr,
                {m: Fraction(int(rng.integers(-3, 4))) for m in gr.iter_masks()},
            )
            for _ in range(5)
        ]
        if trial % 2 == 0:
            # plant a point of the cone: a random nonnegative combination
            coefs: dict = {}
            for g in gens:
                w = Fraction(int(rng.integers(0, 4)))
                for mask, c in g.coefs.items():
                    coefs[mask] = coefs.get(mask, Fraction(0)) + w * c
            target = LinearFunctional(gr, {m: v for m, v in coefs.items() if v != 0})
        else:
            target = LinearFunctional(
                gr, {m: Fraction(int(rng.integers(-3, 4))) for m in gr.iter_masks()}
            )
        out = cone_membership(target, gens, [])
        if isinstance(out, Feasible):
            n_feasible += 1
            acc: dict = {}
            for c, g in zip(out.coefficients, gens):
                for mask, coef in g.coefs.items():
                    acc[mask] = acc.get(mask, Fraction(0)) + c * coef
            assert {m: v for m, v in acc.items() if v != 0} == target.coefs
        else:
            n_infeasible += 1
            w = out.farkas_point
            assert target.evaluate(w) < 0
            assert all(g.evaluate(w) >= 0 for g in gens)
    assert n_feasible and n_infeasible  # the sample hits both sides


def _assert_replays(out, target, gens, cons):
    """The returned object stands on its own: multipliers rebuild the target,
    a separating point evaluates with the right signs.  Every number is exact."""
    if isinstance(out, Feasible):
        multipliers = out.coefficients + out.constraint_coefficients
        assert all(isinstance(c, (int, Fraction)) for c in multipliers)
        assert len(out.coefficients) == len(gens)
        assert len(out.constraint_coefficients) == len(cons)
        assert all(c >= 0 for c in out.coefficients)
        acc: dict = {}
        pairs = list(zip(out.coefficients, gens)) + list(zip(out.constraint_coefficients, cons))
        for c, g in pairs:
            for mask, coef in g.coefs.items():
                acc[mask] = acc.get(mask, Fraction(0)) + c * coef
        assert {m: v for m, v in acc.items() if v != 0} == target.coefs
    else:
        w = out.farkas_point
        assert all(isinstance(v, int) for v in w.values)
        assert all(g.evaluate(w) >= 0 for g in gens)
        assert all(c.evaluate(w) == 0 for c in cons)
        assert target.evaluate(w) < 0


@st.composite
def membership_problems(draw):
    gr = GroundSet(("a", "b", "c")[: draw(st.integers(1, 3))])
    masks = list(gr.iter_masks())
    # a subset no generator or constraint touches: a zero row of the LP
    untouched = draw(st.none() | st.sampled_from(masks))

    def functional():
        # a denominator above 1 makes the LP column a multiple of the item
        den = draw(st.integers(1, 3))
        return LinearFunctional(gr, {m: Fraction(draw(st.integers(-3, 3)), den)
                                     for m in masks if m != untouched})

    def insert(items, item):
        items.insert(draw(st.integers(0, len(items))), item)

    gens = [functional() for _ in range(draw(st.integers(0, 6)))]
    cons = [functional() for _ in range(draw(st.integers(0, 2)))]
    if gens and draw(st.booleans()):
        # a repeated ray, before or after its first copy
        insert(gens, draw(st.sampled_from(gens)).scale(draw(st.integers(1, 3))))
    if draw(st.booleans()):
        insert(gens, LinearFunctional(gr, {}))
    if draw(st.booleans()):
        insert(cons, LinearFunctional(gr, {}))
    kind = draw(st.sampled_from(["member", "ray", "any"]))
    if kind == "member":
        # plant a member: a nonnegative combination plus any constraint multiple
        acc: dict = {}
        for g, w in [(g, draw(st.integers(0, 3))) for g in gens] + [
            (c, draw(st.integers(-2, 2))) for c in cons
        ]:
            for mask, coef in g.coefs.items():
                acc[mask] = acc.get(mask, Fraction(0)) + w * coef
        target = LinearFunctional(gr, acc)
    elif kind == "ray" and gens:
        target = draw(st.sampled_from(gens)).scale(draw(st.integers(1, 3)))
    else:
        target = functional()
    if untouched is not None and draw(st.booleans()):
        coef = draw(st.integers(-3, 3).filter(bool))
        target = LinearFunctional(gr, {**target.coefs, untouched: Fraction(coef)})
    return target, gens, cons


@settings(max_examples=200, deadline=None)
@given(membership_problems())
def test_fast_paths_agree_with_exact_simplex(problem):
    target, gens, cons = problem
    out = cone_membership(target, gens, cons)
    assert out.method == "simplex"
    _assert_replays(out, target, gens, cons)


def test_float_overflow_falls_back_to_simplex():
    # 10**400 is beyond int64: the run decides in Python ints
    gr = GroundSet(("a", "b"))
    gens = [fn(gr, {("a",): 10**400}), fn(gr, {("b",): 1})]
    out = cone_membership(fn(gr, {("a",): 1, ("b",): 1}), gens, [])
    assert isinstance(out, Feasible) and out.method == "simplex"
    _assert_replays(out, fn(gr, {("a",): 1, ("b",): 1}), gens, [])


def test_shortcuts_pass_the_exact_rechecks(monkeypatch):
    # a target with a coefficient on a subset no generator touches, and a
    # target that is a multiple of a listed generator: the LP decides both,
    # and each answer goes through the exact re-checks
    gr = GroundSet(("a", "b"))
    s_a = fn(gr, {("a",): 1})
    zero_row_target, listed_target = fn(gr, {("a",): 1, ("b",): 2}), fn(gr, {("a",): 3})
    checked = []
    for name in ("verify_certificate", "_check_combination"):
        real = getattr(certify, name)
        monkeypatch.setattr(certify, name,
                            lambda *a, real=real: checked.append(real) or real(*a))
    zero_row = cone_membership(zero_row_target, [s_a], [])
    assert isinstance(zero_row, Infeasible) and zero_row.method == "simplex"
    _assert_replays(zero_row, zero_row_target, [s_a], [])
    listed = cone_membership(listed_target, [s_a], [])
    assert isinstance(listed, Feasible) and listed.method == "simplex"
    assert listed.coefficients == (Fraction(3),)
    assert [f.__name__ for f in checked] == ["verify_certificate", "_check_combination"]
    three_a = fn(gr, {("a",): 3})
    assert certify._check_combination(three_a, [s_a], [Fraction(3)], [], [])
    assert not certify._check_combination(three_a, [s_a], [Fraction(2)], [], [])
    assert not certify._check_combination(fn(gr, {("a",): -3}), [s_a], [Fraction(-3)], [], [])


# ------------------------------------------------------------ exact tableau


class _FractionTableau:
    """The exact simplex as it ran before it went fraction-free and revised:
    one dense tableau, every entry a Fraction, each pivot dividing its row,
    the ratio test on Fraction ratios.  `_Simplex` must match it pivot for
    pivot, its inverse `M / D` equal to the tableau's artificial columns."""

    def __init__(self, A, rhs):
        m, n = A.shape
        lift = np.frompyfunc(lambda v: Fraction(int(v)), 1, 1)
        self.ncols, self.row_sign = n, np.where(rhs < 0, -1, 1)
        self.T = lift(np.concatenate([A * self.row_sign[:, None], np.eye(m, dtype=int)], axis=1))
        self.b = lift(rhs * self.row_sign)
        self.red = np.concatenate([-self.T[:, :n].sum(axis=0), lift(np.zeros(m, dtype=int))])
        self.basis = list(range(n, n + m))
        self.pivots = 0

    @property
    def objective(self):
        return sum(v for v, j in zip(self.b, self.basis) if j >= self.ncols)

    def solve(self):
        while len(negative := np.flatnonzero(self.red < 0)):
            enter = negative[0]
            rows = np.flatnonzero(self.T[:, enter] > 0)
            ratios = self.b[rows] / self.T[rows, enter]
            tied = rows[ratios == ratios.min()]
            self._pivot(min(tied, key=self.basis.__getitem__), enter)

    def _pivot(self, r, c):
        self.b[r] /= self.T[r, c]
        self.T[r] /= self.T[r, c]
        for i in range(len(self.T)):
            if i != r:
                self.b[i] -= self.T[i, c] * self.b[r]
                self.T[i] -= self.T[i, c] * self.T[r]
        self.red -= self.red[c] * self.T[r]
        self.basis[r] = c
        self.pivots += 1

    def solution(self):
        x = [0] * self.ncols
        for i, var in enumerate(self.basis):
            if var < self.ncols:
                x[var] = self.b[i]
        return x

    def dual_prices(self):
        return list((1 - self.red[self.ncols:]) * self.row_sign)


def _run_traced(tableau, state=None):
    """Run `solve` and return its result with `state()` after each pivot; by
    default the state is the basis, pivots, solution, duals, objective, the
    basis inverse and b, every number exact."""
    def exact_state():
        if isinstance(tableau, _FractionTableau):
            d, inverse = 1, tableau.T[:, tableau.ncols:]
        else:
            d, inverse = tableau.D, tableau.M
        entries = [Fraction(v, d) for v in (*inverse.ravel(), *tableau.b)]
        return (list(tableau.basis), tableau.pivots, tableau.solution(),
                tableau.dual_prices(), tableau.objective, entries)

    state = state or exact_state
    states, pivot = [state()], tableau._pivot

    def traced(*args):
        pivot(*args)
        states.append(state())

    tableau._pivot = traced
    return tableau.solve(), states


def _python_numbers(value) -> bool:
    """Whether `value` holds only Python ints and Fractions of Python ints:
    a numpy integer compares equal to its int, but serializes apart."""
    if isinstance(value, (list, tuple)):
        return all(map(_python_numbers, value))
    if isinstance(value, Fraction):
        return type(value.numerator) is int and type(value.denominator) is int
    return type(value) in (int, bool)


def _sparse(A, b):
    """A dense (A, b) as `_Simplex` takes it: the columns of A packed as
    forms of {row + 1: entry}, a dict of b's, and the row count."""
    def nonzeros(vector):
        return {i + 1: v for i, v in enumerate(vector.tolist()) if v}

    gr = GroundSet(("a", "b", "c"))  # masks 1..7 name rows 0..6
    columns = [LinearFunctional._from_lowest(gr, nonzeros(col), 1) for col in A.T]
    return Forms.of(gr, columns), nonzeros(b), len(b)


def _assert_matches_fraction_tableau(A, b):
    sx = certify._Simplex(*_sparse(A, b))
    got = _run_traced(sx)
    assert got == _run_traced(_FractionTableau(A, b))
    assert sx.D > 0 and type(sx.D) is int
    assert all(_python_numbers(state[:5]) for state in got[1])
    return sx


@st.composite
def integer_lps(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    entries = st.lists(st.integers(-3, 3), min_size=m * n, max_size=m * n)
    A = np.array(draw(entries), dtype=np.int64).reshape(m, n)
    b = np.array(draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)), dtype=np.int64)
    if n and draw(st.booleans()):  # a zero column: a generator that is 0
        A[:, draw(st.integers(0, n - 1))] = 0
    if draw(st.booleans()):  # a zero target
        b[:] = 0
    if n and draw(st.booleans()):  # Python ints, one entry beyond int64
        A, b = A.astype(object), b.astype(object)
        A[draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([2**63, -(2**63) - 5, 3**41]))
    return A, b


@st.composite
def wide_integer_lps(draw):
    """Integer LPs in int64 whose entries have up to 40 bits, so that the
    minors a run forms may pass 2**63 at any pivot, or never."""
    bits = draw(st.sampled_from([2, 16, 24, 31, 40]))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entries = st.integers(-(2**bits), 2**bits)
    A = np.array(draw(st.lists(entries, min_size=m * n, max_size=m * n)),
                 dtype=np.int64).reshape(m, n)
    b = np.array(draw(st.lists(entries, min_size=m, max_size=m)), dtype=np.int64)
    return A, b


@settings(max_examples=400, deadline=None)
@given(st.one_of(integer_lps(), wide_integer_lps()))
def test_integer_tableau_matches_fraction_tableau(lp):
    _assert_matches_fraction_tableau(*lp)


def test_a_failed_int64_bound_moves_the_run_to_python_ints():
    # entries near 2**30: the first pivot stays in int64, the second would
    # form products near 2**121
    s = 2**30
    A, b = np.array([[s, 3, 1], [2, s, 5], [1, 4, s]]), np.array([s + 7, s + 9, s + 11])
    sx = certify._Simplex(*_sparse(A, b))
    _, dtypes = _run_traced(sx, state=lambda: sx.M.dtype)
    assert dtypes == [np.int64, np.int64, object, object]
    _assert_matches_fraction_tableau(A, b)


def test_the_lp_holds_its_columns_sparse():
    """The LP keeps the columns' nonzeros and its m x m inverse, never a
    dense rows x generators matrix: on 255 rows and 3,000 ssa columns the
    dense int64 matrix alone would be 6.1 MB."""
    ground = GroundSet(tuple("abcdefgh"))
    target = next(enumerate_instances(builtin("wmo"), ground)).functional
    gens = [inst.functional for inst in islice(enumerate_instances(builtin("ssa"), ground), 3000)]
    tracemalloc.start()
    try:
        out = cone_membership(target, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(out, Infeasible) and out.pivots == 127
    assert peak < 4 * 2**20


def _assert_exact_fallback_decides_independence(n, pivots):
    target, gens, cons, _, _ = independence_problem(n)
    exact = cone_membership(target, gens, cons)
    assert isinstance(exact, Infeasible) and exact.method == "simplex"
    assert exact.pivots == pivots
    assert verify_certificate(Certificate(exact.farkas_point, tuple(gens), tuple(cons), target))


def test_exact_fallback_decides_independence_at_n2():
    _assert_exact_fallback_decides_independence(2, 290)


def test_exact_fallback_decides_independence_at_n3():
    _assert_exact_fallback_decides_independence(3, 1864)


# ------------------------------------------------------------ problems


@pytest.mark.parametrize("n", [2, 3])
def test_lp_point_and_closed_form_both_certify_independence(n):
    target, gens, cons, ground, _ = independence_problem(n)
    out = cone_membership(target, gens, cons)
    assert isinstance(out, Infeasible) and out.method == "simplex"
    assert out.pivots == {2: 290, 3: 1864}[n]
    for point in (out.farkas_point, make_witness_g(n)):
        rep = verify_certificate(
            Certificate(point=point, generators=tuple(gens), constraints=tuple(cons),
                        target=target)
        )
        assert rep.valid, rep.failures[:3]


def test_witness_validates_against_independence_problem():
    target, gens, cons, ground, expect = independence_problem(2)
    assert expect == "infeasible"
    g2 = make_witness_g(2)
    rep = verify_certificate(
        Certificate(point=g2, generators=tuple(gens), constraints=tuple(cons),
                    target=target)
    )
    assert rep.valid
    assert rep.target_value == -6


def test_purified_basic_problem_is_feasible():
    target, gens, cons, ground, expect = purified_basic_problem()
    assert expect == "feasible"
    out = cone_membership(target, gens, cons)
    assert isinstance(out, Feasible)


@pytest.mark.parametrize("n", [*range(1, 9), 30])
def test_proof_certificate_replays_c_n_exactly(n):
    cert = proof_certificate(n)
    target, terms, weights, hyps, hyp_weights = cert
    assert certify._check_combination(*cert)
    assert target.ground.labels == builtin("c_n", n).slots + ("R",)
    assert len(terms) == len(weights) == 5 * n + 2
    assert hyp_weights == [-n, -n, -(n - 1)]


def _without(items, i):
    return items[:i] + items[i + 1:]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_proof_certificate_needs_every_item(n):
    target, terms, weights, hyps, hyp_weights = proof_certificate(n)
    for i in range(len(terms)):
        assert not certify._check_combination(
            target, _without(terms, i), _without(weights, i), hyps, hyp_weights)
    for i in range(len(hyps)):
        assert not certify._check_combination(
            target, terms, weights, _without(hyps, i), _without(hyp_weights, i))


@pytest.mark.parametrize("parties, count", [(3, 12), (4, 40), (5, 120), (6, 336)])
def test_elemental_forms_are_distinct_basic_instances(parties, count):
    gr = GroundSet(tuple("abcdef"[:parties]))
    forms = list(elemental_forms(gr))
    basic = {inst.functional for inst in basic_instances(gr)}
    assert all(form in basic for form in forms)
    assert len(set(forms)) == len(forms)
    assert len(forms) == count == (comb(parties, 2) + parties) * 2 ** (parties - 2)


def test_cone_membership_refuses_generators_past_its_cap(monkeypatch):
    def built(*args):
        raise AssertionError("the LP was built")

    monkeypatch.setattr(certify, "_Simplex", built)
    gr = GroundSet(("a",))
    s_a = fn(gr, {("a",): 1})
    with pytest.raises(ValueError, match=f"^{certify.MAX_GENERATORS + 1} generators "
                                         f"exceeds cap {certify.MAX_GENERATORS}$"):
        cone_membership(s_a, [s_a] * (certify.MAX_GENERATORS + 1))


def test_basic_generators_cover_ssa_and_wmo():
    gr = GroundSet(("a", "b", "c"))
    gens = list(basic_instances(gr))
    names = {inst.template.name for inst in gens}
    assert names == {"ssa", "wmo"}
    # positivity appears as a WMO degeneration with empty side slots,
    # as the ray 2 S(a)
    pos = instantiate(builtin("positivity"), gr, {"A": "a"}).functional
    assert any(inst.functional == pos.scale(2) for inst in gens)


# sha256 of problem_to_obj(...) as json.dumps writes it: the generators'
# order is the LP's column order, which Bland's rule follows
@pytest.mark.parametrize("build, digest", [
    (lambda: independence_problem(2),
     "45569cbdcfba9721e4ec8f9e5264c80dae0286cc3b64774559242fb647cbdb01"),
    (lambda: independence_problem(3),
     "0c2103a1874621b2967b8613f57162f930fa3cfba6c7864db496f7986bff1ae3"),
    (purified_basic_problem,
     "9c7977b0195f9f5e2d0da76864019e9bc78bfd4a41d928ef20cf50d2b32a9a72"),
], ids=["independence-2", "independence-3", "purified-basic"])
def test_problem_columns_keep_their_order(build, digest):
    text = json.dumps(problem_to_obj(*build()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# the same for the orbit LP, whose ground `problem_to_obj` cannot write: the
# numerators and denominator of the target, each column and each constraint
@pytest.mark.parametrize("n, count, digest", [
    (2, 84, "6af0a69184d0392fb459f95dd6a3d444d1dda98913d0d6889068f6d3ec8c0671"),
    (5, 268, "8deba4a417ad7a7fdef8e6cef2f0f8144b536ca57a0cfbd79c9820e47fe985a4"),
    (8, 735, "622d4b51b7c7b469218181d89af0edd23d9de97c28490afe67c4964257689f1c"),
])
def test_orbit_columns_keep_their_order(n, count, digest):
    target, columns, constraints, _, _ = independence_orbits(n)
    assert len(columns) == count
    text = json.dumps([[list(c.nums.items()), c.den] for c in (target, *columns, *constraints)])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_problem_json_round_trip():
    problem = independence_problem(2)
    target, gens, cons, ground, _ = problem
    text = json.dumps(problem_to_obj(*problem))
    t2, g2, c2, gr2, expect = problem_from_obj(json.loads(text))
    assert expect == "infeasible"
    assert gr2.labels == ground.labels
    assert t2.coefs == target.coefs
    assert len(g2) == len(gens)
    assert [c.coefs for c in c2] == [c.coefs for c in cons]
