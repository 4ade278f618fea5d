"""Instance enumeration against a reference recursion, and `Instance` as a
value."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrocone.inequalities import (
    MAX_ENUM_PARTIES,
    InequalityTemplate,
    Instance,
    builtin,
    enumerate_instances,
    instance_functionals,
    instantiate,
    slot_blocks,
)
from entrocone.setfn import GroundSet, submasks


def reference_instances(template, ground, fixed=None):
    """The enumeration as a plain recursion over slots, for comparison:
    each free slot takes the ascending submasks of the parties left, empty
    only where allowed, and strictly above the last free slot before it in
    its symmetry group, except repeated empties."""
    fixed_masks = {s: ground.mask_of(sub) for s, sub in (fixed or {}).items()}
    slots = template.slots
    prev = [-1] * len(slots)
    for group in template.symmetries:
        free = sorted(slots.index(s) for s in group if s not in fixed_masks)
        for a, b in zip(free, free[1:]):
            prev[b] = a
    chosen: list[int] = []

    def rec(i, used):
        if i == len(slots):
            yield Instance(template, ground, tuple(chosen))
            return
        if slots[i] in fixed_masks:
            chosen.append(fixed_masks[slots[i]])
            yield from rec(i + 1, used)
            chosen.pop()
            return
        floor = chosen[prev[i]] if prev[i] >= 0 else -1
        for cand in submasks(ground.full_mask & ~used):
            if cand == 0 and slots[i] not in template.empty_ok:
                continue
            if floor >= 0 and (cand < floor or (cand == floor and cand != 0)):
                continue
            chosen.append(cand)
            yield from rec(i + 1, used | cand)
            chosen.pop()

    return rec(0, sum(fixed_masks.values()))


@st.composite
def enumeration_cases(draw):
    """A template of 1-6 slots with random symmetry groups, empty_ok slots
    and fixed bindings, on a ground of 1-7 parties."""
    k = draw(st.integers(1, 6))
    slots = tuple(f"S{i}" for i in range(k))
    group_of = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    groups = [[s for s, g in zip(slots, group_of) if g == j] for j in (1, 2)]
    order = draw(st.permutations(slots))  # a group need not list slots in order
    groups = [sorted(g, key=order.index) for g in groups if len(g) > 1]
    empty_ok = [s for s in slots if draw(st.booleans())]
    template = InequalityTemplate("t", slots, {1: 1}, symmetries=groups, empty_ok=empty_ok)
    ground = GroundSet(tuple(f"p{i}" for i in range(draw(st.integers(1, 7)))))
    owner = draw(st.lists(st.integers(-1, k - 1), min_size=ground.size,
                          max_size=ground.size))
    pinned = [s for s in slots if draw(st.integers(0, 3)) == 0]
    fixed = {s: tuple(lab for lab, o in zip(ground.labels, owner) if o == slots.index(s))
             for s in pinned}
    return template, ground, fixed


_C3 = builtin("c_3")
_C3_GROUND = GroundSet(("a", "b", "c", "x1", "x2", "x3"))


@settings(max_examples=300, deadline=None)
@given(enumeration_cases())
@example((_C3, _C3_GROUND, {"A": "a", "B": "b", "C": "c", "X2": "x2"}))
@example((_C3, _C3_GROUND, {"X2": ()}))
def test_enumeration_matches_reference_recursion(case):
    template, ground, fixed = case
    got = list(enumerate_instances(template, ground, fixed=fixed))
    assert got == list(reference_instances(template, ground, fixed))


# each but lw05 runs past one block of BATCH_ROWS rows (6,069, 1,715,
# 18,002 and 3,360 instances)
@pytest.mark.parametrize("name,labels,fixed", [
    ("ssa", "pqrstuv", None),
    ("wmo", "pqrstu", None),
    ("c_4", ("a", "b", "c", *(f"x{i}" for i in range(1, 9))), {"A": "a", "B": "b", "C": "c"}),
    ("c_2", ("a", "b", "c", "x1", "x2", "x3"), None),
    ("lw05", "pqrst", None),
])
def test_builtin_enumeration_matches_reference_recursion(name, labels, fixed):
    template, ground = builtin(name), GroundSet(tuple(labels))
    got = list(enumerate_instances(template, ground, fixed=fixed))
    assert got == list(reference_instances(template, ground, fixed))


def test_fixed_slot_inside_a_symmetry_group_still_dedups_its_neighbours():
    # X1 and X3 stay interchangeable around the bound X2: each unordered pair
    # {X1, X3} over {x1, x3} is listed once
    fixed = {"A": "a", "B": "b", "C": "c", "X2": "x2"}
    got = [tuple(_C3_GROUND.subset_str(m) for m in inst.slot_masks[3::2])
           for inst in enumerate_instances(_C3, _C3_GROUND, fixed=fixed)]
    assert got == [("{}", "{}"), ("{}", "{x1}"), ("{}", "{x3}"), ("{}", "{x1,x3}"),
                   ("{x1}", "{x3}")]


def test_every_slot_fixed_gives_one_instance():
    ground = GroundSet(("a", "b", "c"))
    fixed = {"A": "a", "B": "b", "C": ()}
    assert list(enumerate_instances(builtin("ssa"), ground, fixed=fixed)) == [
        instantiate(builtin("ssa"), ground, fixed)]


def test_a_free_slot_with_no_party_left():
    ground = GroundSet(("a", "b"))
    fixed = {"A": "a", "B": "b"}
    # C may be empty: only the empty candidate is left
    got = list(enumerate_instances(builtin("ssa"), ground, fixed=fixed))
    assert [inst.slot_masks for inst in got] == [(1, 2, 0)]
    # A may not be empty: nothing is left
    mi = builtin("mutual-info")
    assert list(enumerate_instances(mi, ground, fixed={"B": ("a", "b")})) == []


@pytest.mark.parametrize("fixed,message", [
    ({"Z": "a"}, "unknown slot"),
    ({"A": "a", "B": ("a", "b")}, "overlap"),
    ({"A": "z"}, "unknown party"),
])
def test_bad_fixed_binding_raises_at_the_call(fixed, message):
    with pytest.raises(ValueError, match=message):
        enumerate_instances(builtin("ssa"), GroundSet(("a", "b", "c")), fixed=fixed)


@pytest.mark.parametrize("enumerate_", [slot_blocks, instance_functionals])
def test_block_enumerators_check_bindings_at_the_call(enumerate_):
    with pytest.raises(ValueError, match="overlap"):
        enumerate_(builtin("ssa"), GroundSet(("a", "b", "c")), fixed={"A": "a", "B": ("a", "b")})


def test_a_ground_beyond_the_party_cap_is_refused():
    ground = GroundSet(tuple(f"p{i}" for i in range(MAX_ENUM_PARTIES + 1)))
    with pytest.raises(ValueError, match="at most"):
        enumerate_instances(builtin("positivity"), ground)


def test_instance_is_a_value():
    ground = GroundSet(("a", "b", "c"))
    binding = {"A": "a", "B": "b", "C": "c"}
    one = instantiate(builtin("ssa"), ground, binding)
    two = Instance(builtin("ssa"), ground, [1, 2, 4])
    assert one == two and hash(one) == hash(two) and one is not two
    assert {one: "first", two: "second"} == {one: "second"}
    assert one != Instance(builtin("ssa"), ground, (2, 1, 4))
    assert one != Instance(builtin("wmo"), ground, (1, 2, 4))
    assert repr(one) == repr(two)
    assert "functional" not in vars(one)  # nothing realized before the first read
    assert one.functional is one.functional  # realized once, then cached
    assert one.constraints is one.constraints
    assert one.describe() == "ssa[A={a} B={b} C={c}]"
