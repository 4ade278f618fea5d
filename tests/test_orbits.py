"""Type coordinates: orbit columns, projection and lift against the full ground."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrocone.certify import (
    Certificate,
    Infeasible,
    cone_membership,
    elemental_forms,
    family_orbits,
    independence_orbits,
    verify_certificate,
)
from entrocone.inequalities import (
    LinearFunctional,
    _add_terms,
    _cmi_terms,
    builtin,
    enumerate_instances,
)
from entrocone.setfn import GroundSet, SetFunction, TypeSpace
from entrocone.witness import standard_c_binding, witness_space


@pytest.mark.parametrize("n", range(1, 7))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_orbit_columns_are_the_projected_full_list(n, data):
    # the reference: every elemental form and every c_p family column of
    # independence_problem(n), each projected, with the x's relabelled by a
    # drawn permutation first (the projection must not see it)
    space = witness_space(n)
    perm = data.draw(st.permutations(range(n)))

    def relabelled(form):
        def move(mask):
            xs = sum(1 << (3 + perm[i]) for i in range(n) if mask >> (3 + i) & 1)
            return (mask & 7) | xs
        return LinearFunctional._from_ints(form.ground, {move(m): c for m, c in form.nums.items()},
                                           form.den)

    family = (inst.functional for p in range(1, n + 3) if p != n
              for inst in enumerate_instances(builtin("c_n", p), space.ground,
                                              fixed=standard_c_binding()))
    reference = {space.project(relabelled(form))
                 for form in (*elemental_forms(space.ground), *family)}
    reference.discard(LinearFunctional._from_ints(space, {}))
    target, columns, constraints, got_space, expect = independence_orbits(n)
    assert (got_space, expect) == (space, "infeasible")
    assert set(columns) == reference and len(columns) == len(reference)
    assert len(list(elemental_forms(space))) == 36 * n + 4
    assert space.n_subsets - 1 == 8 * (n + 1) - 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_projection_and_lift_are_adjoint(data):
    # a functional's value on a lifted point is its projection's value on
    # the type point, exactly
    n = data.draw(st.integers(1, 4))
    space = witness_space(n)
    masks = st.integers(1, space.ground.full_mask)
    form = LinearFunctional._from_ints(
        space.ground, data.draw(st.dictionaries(masks, st.integers(-5, 5), max_size=12)),
        data.draw(st.integers(1, 4)))
    point = SetFunction(space, [0] + data.draw(st.lists(
        st.integers(-9, 9), min_size=space.n_subsets - 1, max_size=space.n_subsets - 1)))
    assert form.evaluate(space.lift(point)) == space.project(form).evaluate(point)


def test_family_orbits_count_the_profiles():
    # c_1 at n = 3: one X slot of size 0..3; c_2: pairs of sizes summing to
    # at most 3
    space = witness_space(3)
    assert len(list(family_orbits(space, 1))) == 4
    assert len(list(family_orbits(space, 2))) == 6
    assert len(list(family_orbits(space, 5))) == sum(
        1 for a in range(4) for b in range(a + 1) for c in range(b + 1) if a + b + c <= 3)


@pytest.mark.parametrize("n", [2, 3])
def test_type_space_check_is_not_vacuous(n):
    target, columns, constraints, space, _ = independence_orbits(n)
    out = cone_membership(target, columns, constraints)
    assert isinstance(out, Infeasible)

    def check(values):
        point = SetFunction(space, [0] + values)
        return verify_certificate(Certificate(point, tuple(columns), tuple(constraints), target))

    rows = space.n_subsets - 1
    assert check(list(out.farkas_point.values[1:]))
    zero, constant = check([0] * rows), check([1] * rows)
    assert not zero and not constant
    # each reaches the target, which neither makes negative
    assert {f["kind"] for f in zero.failures} == {"target"} and zero.target_value == 0
    assert {f["kind"] for f in constant.failures} == {"target"} and constant.target_value == 0
    negated = check([-v for v in out.farkas_point.values[1:]])
    assert not negated and "generator" in {f["kind"] for f in negated.failures}


def test_cap_counts_orbit_columns():
    with pytest.raises(ValueError, match="order n must be >= 1"):
        independence_orbits(0)



@pytest.mark.parametrize("fixed", [("a",), ("a", "b"), ("a", "b", "c", "r")])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_elemental_orbits_are_the_projected_forms_on_any_fixed_parties(fixed, n):
    # with one fixed party, a split {K, L} of the others can put as many
    # x's on each side: its two halves share a type
    space = TypeSpace(fixed, n)
    reference = {space.project(form) for form in elemental_forms(space.ground)}
    assert set(elemental_forms(space)) == reference


def test_a_split_whose_halves_share_a_type_keeps_its_summed_form():
    # a lone party has no split, on either ground; on one fixed party the
    # split {x1}, {x2} of the other parties has two halves of type x (2):
    # S(ax) + S(ax) - S(x) - S(x), with a = 1 and ax = 3
    assert list(elemental_forms(GroundSet(("a",)))) == []
    assert list(elemental_forms(TypeSpace(("a",), 0))) == []
    space = TypeSpace(("a",), 2)
    assert LinearFunctional._from_ints(space, {3: 2, 2: -2}) in list(elemental_forms(space))


def reference_elemental_forms(ground):
    """The elemental forms built one dict at a time, as `elemental_forms`
    did before it realized ssa and wmo rows: every I(i:j|K), then every
    S(iK) + S(iL) - S(K) - S(L) over the unordered splits K, L of the
    parties other than i, equal pairs and parties (two x types) once."""
    full, parties = ground.full_mask, ground.parties
    for i, j in dict.fromkeys(combinations(parties, 2)):
        for rest in ground.below(full - i - j):
            yield LinearFunctional._from_ints(ground, _cmi_terms(i, j, rest))
    for i in dict.fromkeys(parties):
        others = full - i
        for k in ground.below(others) if others else ():
            split = others - k
            if k <= split:
                nums = _add_terms({i + k: 1, k: -1}, {i + split: 1, split: -1})
                nums.pop(0, None)
                yield LinearFunctional._from_ints(ground, nums)


@pytest.mark.parametrize("ground", [
    *(GroundSet(tuple("abcdef"[:size])) for size in range(1, 7)),
    *(TypeSpace(("a", "b", "c"), n) for n in range(13)),
    *(TypeSpace(fixed, n) for fixed in (("a",), ("a", "b")) for n in range(5)),
], ids=repr)
def test_elemental_forms_match_the_dict_built_reference_in_order(ground):
    forms = elemental_forms(ground)
    want = list(reference_elemental_forms(ground))
    assert len(forms) == len(want)
    assert [(form.ground, list(form.nums.items()), form.den) for form in forms] == [
        (form.ground, list(form.nums.items()), form.den) for form in want]
