"""Set-function core: masks, domains, predicates, repair, serialization."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrocone.setfn import (
    EXACT_INTEGER,
    EXACT_RATIONAL,
    FLOAT64,
    GroundSet,
    PredicateReport,
    SetFunction,
    TypeSpace,
    cmi,
    complement_transform,
    is_monotone,
    is_submodular,
    is_weakly_monotone,
    monotone_repair,
    setfn_from_obj,
    setfn_to_obj,
    submasks,
)


def make_fn(labels, assign):
    """Build a SetFunction from {frozenset_of_labels: value}; rest are 0."""
    gr = GroundSet(tuple(labels))
    table = [0] * gr.n_subsets
    for subset, v in assign.items():
        table[gr.mask_of(subset)] = v
    return SetFunction(gr, table)


def rank_fn(labels, k):
    """min(|S|, k): the canonical monotone submodular example."""
    gr = GroundSet(tuple(labels))
    return SetFunction(gr, [min(bin(m).count("1"), k) for m in range(gr.n_subsets)])


# ------------------------------------------------------------ ground set


def test_ground_set_masks():
    gr = GroundSet(("A", "B", "C"))
    assert gr.mask_of("B") == 2
    assert gr.mask_of(("A", "C")) == 5
    assert gr.mask_of(5) == 5
    assert gr.labels_of(5) == ("A", "C")
    assert gr.complement(5) == 2
    assert gr.n_subsets == 8
    assert list(gr.iter_masks()) == list(range(1, 8))


def test_ground_set_rejects_bad_input():
    with pytest.raises(ValueError):
        GroundSet(("A", "A"))
    gr = GroundSet(("A", "B"))
    with pytest.raises(ValueError):
        gr.mask_of("Z")
    with pytest.raises(ValueError):
        gr.mask_of(4)


def test_submasks_ascending_and_complete():
    for mask in (0b1011, 0b0110, 0):
        seen = list(submasks(mask))
        assert seen == sorted(seen)
        assert len(seen) == 2 ** bin(mask).count("1")
        assert all(s & ~mask == 0 for s in seen)


# ------------------------------------------------------------ domains


def test_domain_inference():
    gr = GroundSet(("A", "B"))
    assert SetFunction(gr, [0, 1, 2, 3]).domain == EXACT_INTEGER
    assert SetFunction(gr, [0, Fraction(1, 2), 1, 1]).domain == EXACT_RATIONAL
    assert SetFunction(gr, [0, 0.5, 1.0, 1.5]).domain == FLOAT64


def test_empty_set_value_pinned_at_zero():
    gr = GroundSet(("A",))
    # sequence input: entry 0 is forced to zero
    assert SetFunction(gr, [1, 2]).value(0) == 0
    # mapping input: the empty set must not appear at all
    with pytest.raises(ValueError):
        SetFunction(gr, {(): 1, ("A",): 2})


def test_call_by_labels_and_mask():
    f = make_fn("AB", {frozenset("A"): 3, frozenset("AB"): 5})
    assert f("A") == 3
    assert f(("A", "B")) == 5
    assert f.value(3) == 5
    assert f(()) == 0


# ------------------------------------------------------------ cmi


def test_cmi_hand_value():
    # I(A:B|C) = f(AC)+f(BC)-f(C)-f(ABC)
    f = make_fn(
        "ABC",
        {
            frozenset("AC"): 7,
            frozenset("BC"): 4,
            frozenset("C"): 2,
            frozenset("ABC"): 6,
        },
    )
    assert cmi(f, "A", "B", "C") == 3
    assert cmi(f, "A", "B") == 0  # unconditioned: f(A)+f(B)-f(AB)


def test_cmi_requires_disjoint_arguments():
    f = rank_fn("ABC", 2)
    with pytest.raises(ValueError):
        cmi(f, "A", "A")
    with pytest.raises(ValueError):
        cmi(f, "A", "B", "A")


# ------------------------------------------------------------ predicates


def brute_force_submodular(f, tol=1e-9):
    """Every CMI over disjoint (alpha, beta, gamma), not just elemental ones."""
    gr = f.ground
    full = gr.n_subsets - 1
    thresh = -tol if f.domain == FLOAT64 else 0
    for g in range(full + 1):
        rest = full & ~g
        for a in submasks(rest):
            if not a:
                continue
            for b in submasks(rest & ~a):
                if not b:
                    continue
                val = f.value(a | g) + f.value(b | g) - f.value(g) - f.value(a | b | g)
                if val < thresh:
                    return False
    return True


def _random_four_party(rng, kind):
    gr = GroundSet(("A", "B", "C", "D"))
    if kind == 0:  # raw noise, usually violates
        table = [0] + list(rng.integers(-4, 5, size=15))
        return SetFunction(gr, [int(v) for v in table])
    if kind == 1:  # float noise around a modular function
        table = [0.0] + [
            2.0 * bin(m).count("1") + rng.uniform(-1.5, 1.5) for m in range(1, 16)
        ]
        return SetFunction(gr, table)
    k = int(rng.integers(1, 4))  # rank function, always submodular
    return SetFunction(gr, [min(bin(m).count("1"), k) for m in range(16)])


def test_elemental_matches_brute_force():
    rng = np.random.default_rng(20240817)
    agree = 0
    for t in range(60):
        f = _random_four_party(rng, t % 3)
        assert bool(is_submodular(f)) == brute_force_submodular(f)
        agree += 1
    assert agree == 60


def test_submodular_report_carries_violation():
    f = make_fn("AB", {frozenset("A"): 0, frozenset("B"): 0, frozenset("AB"): 5})
    rep = is_submodular(f)
    assert isinstance(rep, PredicateReport)
    assert not rep
    assert rep.violation is not None and rep.value < 0


def test_monotone_and_weak_monotone():
    r = rank_fn("ABCD", 2)
    assert is_monotone(r)
    assert is_submodular(r)
    # monotone and submodular together imply weak monotonicity
    assert is_weakly_monotone(r)
    f = make_fn("AB", {frozenset("A"): 2, frozenset("AB"): 1})
    assert not is_monotone(f)


# ------------------------------------------------------------ transforms


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=6, max_size=6)
)
@settings(max_examples=60, deadline=None)
def test_complement_transform_involution(vals):
    gr = GroundSet(("A", "B", "C"))
    table = [0] + vals + [0]  # force f(N) = 0
    f = SetFunction(gr, table)
    g = complement_transform(complement_transform(f))
    assert g.values == f.values


def test_monotone_repair_properties():
    rng = np.random.default_rng(7)
    from entrocone.inequalities import builtin, instantiate

    gr = GroundSet(("A", "B", "C"))
    ssa = instantiate(builtin("ssa"), gr, {"A": "A", "B": "B", "C": "C"})
    for _ in range(20):
        f = SetFunction(gr, [0] + [int(v) for v in rng.integers(-6, 7, size=7)])
        g = monotone_repair(f)
        assert is_monotone(g)
        # balanced functionals cannot see the repair
        assert ssa.functional.evaluate(f) == ssa.functional.evaluate(g)


def test_monotone_repair_idempotent_and_exact_only():
    r = rank_fn("ABC", 2)
    assert monotone_repair(r).values == r.values
    gr = GroundSet(("A",))
    with pytest.raises(ValueError):
        monotone_repair(SetFunction(gr, [0.0, 1.0]))


@st.composite
def type_tables(draw):
    """An integer table over the types of 1-4 fixed parties and n = 0..5
    x's, most of them not monotone."""
    space = TypeSpace(tuple("abcd"[:draw(st.integers(1, 4))]), draw(st.integers(0, 5)))
    size = space.n_subsets - 1
    return space, [0] + draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size))


@settings(max_examples=60, deadline=None)
@given(type_tables())
@example((TypeSpace(("a",), 1), [0, 5, 3, 1]))  # a drop of 4 from {a} to {a,x1}
def test_type_space_repair_lifts_to_the_ground_repair(case):
    space, values = case
    point = SetFunction(space, values)
    ground = space.ground
    assert ground.n_subsets == 1 << (len(space.fixed) + space.n)
    assert repr(point).startswith("SetFunction(TypeSpace(")
    assert space.lift(monotone_repair(point)) == monotone_repair(space.lift(point))
    # below and size_of are the types and sizes of the full ground's submasks
    for mask in range(ground.n_subsets):
        t = space.type_of(mask)
        below = space.below(t)
        assert len(below) == len(set(below))
        assert set(below) == {space.type_of(a) for a in ground.below(mask)}
        assert space.size_of(t) == ground.size_of(mask) == len(ground.labels_of(mask))
    # below the complement of a type: the types of the subsets of the
    # parties outside it, x-count first
    k, full = len(space.fixed), space.full_mask
    for used in range(space.n_subsets):
        free = ((1 << k) - 1) & ~used
        assert space.below(full - used) == [f + (m << k) for m in range(space.n - (used >> k) + 1)
                                            for f in submasks(free)]


def test_monotone_repair_adds_the_largest_drop_not_the_smallest_c():
    # the largest drop is f(empty) - f(ab) = 2, though c = 1 would make f
    # monotone; the witness g and its digests rest on this c
    f = SetFunction(GroundSet(("a", "b")), [0, -1, -1, -2])
    g = monotone_repair(f)
    assert g.values == (0, 1, 1, 2) and is_monotone(g)
    assert is_monotone(SetFunction(f.ground, [v + bin(m).count("1")
                                              for m, v in enumerate(f.values)]))


# ------------------------------------------------------------ serialization


def test_json_round_trip_exact():
    f = make_fn("AB", {frozenset("A"): 5, frozenset("B"): Fraction(1, 3)})
    g = setfn_from_obj(json.loads(json.dumps(setfn_to_obj(f))))
    assert g.ground.labels == f.ground.labels
    assert g.values == f.values
    assert g.domain == EXACT_RATIONAL


def test_json_round_trip_float():
    gr = GroundSet(("A", "B"))
    f = SetFunction(gr, [0.0, 0.25, 1.5, 2.0])
    g = setfn_from_obj(json.loads(json.dumps(setfn_to_obj(f))))
    assert g.domain == FLOAT64
    assert g.values == f.values


def test_json_exact_values_are_strings():
    f = make_fn("AB", {frozenset("A"): 5})
    obj = json.loads(json.dumps(setfn_to_obj(f)))
    vals = {tuple(e["subset"]): e["value"] for e in obj["values"]}
    assert vals[("A",)] == "5"
    assert obj["parties"] == ["A", "B"]


def test_json_missing_subset_errors():
    obj = {"parties": ["A", "B"], "values": [{"subset": ["A"], "value": "1"}]}
    with pytest.raises(ValueError):
        setfn_from_obj(obj)


def test_json_rejects_empty_and_duplicate_subsets():
    base = {
        "parties": ["A"],
        "values": [{"subset": ["A"], "value": "1"}],
    }
    bad = dict(base, values=base["values"] + [{"subset": [], "value": "0"}])
    with pytest.raises(ValueError):
        setfn_from_obj(bad)
    dup = dict(base, values=base["values"] * 2)
    with pytest.raises(ValueError):
        setfn_from_obj(dup)
    # the same faults with one entry per nonempty subset, past the count check
    two = {"parties": ["A", "B"],
           "values": [{"subset": s, "value": "1"} for s in (["A"], ["B"], ["A", "B"])]}
    for last, msg in (([], "empty"), (["B"], "twice")):
        bad = dict(two, values=two["values"][:2] + [{"subset": last, "value": "1"}])
        with pytest.raises(ValueError, match=msg):
            setfn_from_obj(bad)


def test_json_label_order_is_cosmetic():
    f = make_fn("ABC", {frozenset("A"): 1, frozenset("BC"): 4, frozenset("ABC"): 2})
    obj = json.loads(json.dumps(setfn_to_obj(f)))
    perm = {"parties": ["C", "A", "B"], "values": obj["values"]}
    g = setfn_from_obj(perm)
    for mask in f.ground.iter_masks():
        labels = f.ground.labels_of(mask)
        assert g(labels) == f(labels)
