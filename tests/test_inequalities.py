"""Templates, instantiation, enumeration, balance, purification rewrites."""

import json
from fractions import Fraction

import numpy as np
import pytest

from entrocone.setfn import GroundSet, SetFunction, submasks
from entrocone.inequalities import (
    InequalityTemplate,
    LinearFunctional,
    builtin,
    eliminate_party_pure,
    enumerate_instances,
    instantiate,
    satisfies,
    template_from_obj,
    template_to_obj,
)


def random_int_fn(gr, rng, lo=-8, hi=9):
    return SetFunction(gr, [0] + [int(v) for v in rng.integers(lo, hi, gr.n_subsets - 1)])


def pure_like_fn(gr, rng):
    """Complement-symmetric with f(N) = 0, like a pure-state entropy vector."""
    full = gr.n_subsets - 1
    table = [0] * gr.n_subsets
    for m in range(1, full):
        c = full & ~m
        if table[m] == 0 and table[c] == 0 and m <= c:
            v = int(rng.integers(1, 9))
            table[m] = v
            table[c] = v
    table[full] = 0
    return SetFunction(gr, table)


def brute_instance_value(template, assignment, f):
    """Independent expansion: sum coef * f(union of assigned slot masks)."""
    slot_of = {s: m for s, m in assignment}
    total = Fraction(0)
    acc = 0.0
    is_float = f.domain == "float64"
    for slotmask, coef in template.functional.coefs.items():
        union = 0
        for i, s in enumerate(template.slots):
            if slotmask >> i & 1:
                union |= slot_of[s]
        if is_float:
            acc += float(coef) * f.value(union)
        else:
            total += coef * Fraction(f.value(union))
    return acc if is_float else total


# ------------------------------------------------------------ instantiation


def test_instantiate_matches_brute_expansion():
    rng = np.random.default_rng(11)
    gr = GroundSet(("p", "q", "r", "s"))
    for name, n in (("ssa", None), ("wmo", None), ("c_n", 2), ("thm1p", 1)):
        t = builtin(name, n)
        for inst in enumerate_instances(t, gr):
            f = random_int_fn(gr, rng)
            direct = brute_instance_value(t, inst.assignment, f)
            assert inst.functional.evaluate(f) == direct


def test_c_template_symmetric_in_a_and_b():
    gr = GroundSet(("a", "b", "c", "x1", "x2"))
    t = builtin("c_n", 2)
    base = {"C": "c", "X1": "x1", "X2": "x2"}
    one = instantiate(t, gr, dict(base, A="a", B="b"))
    two = instantiate(t, gr, dict(base, A="b", B="a"))
    assert one.functional.coefs == two.functional.coefs
    # the two constraints swap roles under the exchange; same set either way
    to_set = lambda inst: {tuple(sorted(c.coefs.items())) for c in inst.constraints}
    assert to_set(one) == to_set(two)


def test_instantiate_rejects_bad_bindings():
    gr = GroundSet(("a", "b", "c"))
    t = builtin("ssa")
    with pytest.raises(ValueError):
        instantiate(t, gr, {"A": "a", "B": "a", "C": "c"})  # overlap
    with pytest.raises(ValueError):
        instantiate(t, gr, {"A": "a", "B": "b"})  # missing slot
    with pytest.raises(ValueError):
        instantiate(t, gr, {"A": "a", "B": "b", "C": "c", "D": "c"})  # unknown
    # explicit empty bindings are deliberate and allowed anywhere
    inst = instantiate(t, gr, {"A": (), "B": "b", "C": "c"})
    assert inst.functional.coefs == {}


def test_empty_allowed_only_where_declared():
    gr = GroundSet(("a", "b", "c"))
    inst = instantiate(builtin("ssa"), gr, {"A": "a", "B": "b", "C": ()})
    # with C empty, SSA degenerates to plain mutual information
    mi = instantiate(builtin("mi"), gr, {"A": "a", "B": "b"})
    assert inst.functional.coefs == mi.functional.coefs


# ------------------------------------------------------------ enumeration


def brute_count_ssa(m):
    full = (1 << m) - 1
    count = 0
    for g in range(full + 1):
        rest = full & ~g
        for a in submasks(rest):
            if not a:
                continue
            for b in submasks(rest & ~a):
                if b and a < b:  # unordered (A,B) symmetry
                    count += 1
    return count


def test_ssa_enumeration_count_matches_brute_force():
    for m in (3, 4):
        gr = GroundSet(tuple("pqrstu"[:m]))
        got = sum(1 for _ in enumerate_instances(builtin("ssa"), gr))
        assert got == brute_count_ssa(m)


def test_enumeration_dedups_symmetric_register_slots():
    gr = GroundSet(("a", "b", "c", "x1", "x2"))
    insts = list(enumerate_instances(builtin("c_n", 2), gr))
    keys = set()
    for inst in insts:
        x_masks = tuple(sorted(m for s, m in inst.assignment if s.startswith("X")))
        rest = tuple(m for s, m in inst.assignment if not s.startswith("X"))
        key = (rest, x_masks)
        assert key not in keys
        keys.add(key)


def test_enumeration_with_fixed_binding():
    gr = GroundSet(("a", "b", "c", "x1", "x2"))
    fixed = {"A": "a", "B": "b", "C": "c"}
    insts = list(enumerate_instances(builtin("c_n", 2), gr, fixed=fixed))
    for inst in insts:
        d = dict(inst.assignment)
        assert d["A"] == gr.mask_of("a") and d["B"] == gr.mask_of("b")
    # X slots range over disjoint subsets of {x1,x2} with empties allowed:
    # {}{}, {}{x1}, {}{x2}, {}{x1x2}, {x1}{x2} -> 5
    assert len(insts) == 5


def test_fixed_later_slot_is_closed_to_earlier_slots():
    gr = GroundSet(("a", "b", "c"))
    insts = list(enumerate_instances(builtin("ssa"), gr, fixed={"C": "a"}))
    assert [i.describe() for i in insts] == ["ssa[A={b} B={c} C={a}]"]


def test_symmetry_group_order_does_not_matter():
    gr = GroundSet(("a", "b", "c"))
    terms = {1: 1, 2: 1, 3: -1}
    fwd = InequalityTemplate("t", ("A", "B"), terms, symmetries=(("A", "B"),))
    rev = InequalityTemplate("t", ("A", "B"), terms, symmetries=(("B", "A"),))
    def listed(t):
        return [i.describe() for i in enumerate_instances(t, gr)]

    assert listed(fwd) == listed(rev)


@pytest.mark.parametrize("slots,terms,constraints", [
    (("A", "A"), {1: 1}, ()),  # a slot named twice
    (("A", "B"), {4: 1}, ()),  # a mask beyond the slots
    (("A", "B"), {1: 1}, ({8: 1},)),  # ... in a constraint
    (("A", "B"), {0: 1, 1: 1}, ()),  # the empty mask
])
def test_template_rejects_bad_slots_and_masks(slots, terms, constraints):
    with pytest.raises(ValueError):
        InequalityTemplate("t", slots, terms, constraints)


# ------------------------------------------------------------ balance


def test_family_templates_are_balanced():
    for n in range(1, 9):
        t = builtin("c_n", n)
        gr = GroundSet(("a", "b", "c") + tuple(f"x{i}" for i in range(1, n + 1)))
        binding = {"A": "a", "B": "b", "C": "c"}
        binding.update({f"X{i}": f"x{i}" for i in range(1, n + 1)})
        inst = instantiate(t, gr, binding)
        assert inst.functional.is_balanced()
        assert t.functional.is_balanced()
    assert not builtin("wmo").functional.is_balanced()
    assert not builtin("positivity").functional.is_balanced()


def test_party_sums_and_scale():
    gr = GroundSet(("a", "b", "c"))
    inst = instantiate(builtin("ssa"), gr, {"A": "a", "B": "b", "C": "c"})
    fn = inst.functional
    assert all(v == 0 for v in fn.party_sums().values())
    scaled = fn.scale(Fraction(3, 2))
    assert scaled.coefs == {m: c * Fraction(3, 2) for m, c in fn.coefs.items()}
    assert scaled.scale(Fraction(2, 3)) == fn


# ------------------------------------------------------------ purification


def test_eliminate_party_pure_on_symmetric_functions():
    rng = np.random.default_rng(23)
    gr = GroundSet(("a", "b", "c", "e"))
    small = GroundSet(("a", "b", "c"))
    inst = instantiate(builtin("ssa"), gr, {"A": "a", "B": "b", "C": "e"})
    reduced = eliminate_party_pure(inst.functional, "e")
    assert reduced.ground.labels == small.labels
    for _ in range(25):
        f = pure_like_fn(gr, rng)
        g = SetFunction(small, [f.value(gr.mask_of(small.labels_of(m)))
                                for m in range(small.n_subsets)])
        assert inst.functional.evaluate(f) == reduced.evaluate(g)


def _identity_binding(gr, t):
    slots = t.slots
    b = {"A": "A", "B": "B", "C": "C"}
    b.update({s: s for s in slots if s.startswith("X")})
    return b


def test_purified_forms_are_eliminations_of_the_base_family():
    # the order-(n+1) family instance, with its last register playing the
    # purifier, reduces under S(J) = S(J^c) to the first purified form
    for n in (1, 2, 3):
        labels = ("A", "B", "C") + tuple(f"X{i}" for i in range(1, n + 1))
        big = GroundSet(labels + ("E",))
        t_big = builtin("c_n", n + 1)
        binding = {"A": "A", "B": "B", "C": "C", f"X{n + 1}": "E"}
        binding.update({f"X{i}": f"X{i}" for i in range(1, n + 1)})
        inst = instantiate(t_big, big, binding)
        reduced = eliminate_party_pure(inst.functional, "E")

        small = GroundSet(labels)
        t_p = builtin("thm1p", n)
        ref = instantiate(t_p, small, _identity_binding(small, t_p))
        assert reduced.coefs == ref.functional.coefs


def test_second_purified_form_matches_eliminated_extension():
    for n in (1, 2):
        labels = ("A", "B", "C") + tuple(f"X{i}" for i in range(1, n + 1))
        big = GroundSet(labels + ("E",))
        t_big = builtin("thm2", n + 1)
        binding = {"A": "A", "B": "B", "C": "C", f"X{n + 1}": "E"}
        binding.update({f"X{i}": f"X{i}" for i in range(1, n + 1)})
        inst = instantiate(t_big, big, binding)
        reduced = eliminate_party_pure(inst.functional, "E")

        small = GroundSet(labels)
        t_p = builtin("thm2p", n)
        ref = instantiate(t_p, small, _identity_binding(small, t_p))
        assert reduced.coefs == ref.functional.coefs


def test_eliminate_drops_full_set_terms():
    gr = GroundSet(("a", "b"))
    fn = LinearFunctional(gr, {3: Fraction(5), 1: Fraction(2)})
    red = eliminate_party_pure(fn, "b")
    assert red.ground.labels == ("a",)
    # S(ab) drops (pure global state), S(a) stays
    assert red.coefs == {1: Fraction(2)}


# ------------------------------------------------------------ satisfies


def test_satisfies_requires_binding_for_constrained_templates():
    gr = GroundSet(("a", "b", "c", "x1"))
    f = random_int_fn(gr, np.random.default_rng(0))
    with pytest.raises(ValueError):
        satisfies(f, builtin("c_n", 1))


def test_satisfies_reports_minimum():
    gr = GroundSet(("a", "b", "c"))
    rank = SetFunction(gr, [min(bin(m).count("1"), 2) for m in range(8)])
    rep = satisfies(rank, builtin("ssa"))
    assert rep.holds
    assert rep.min_value == 0
    assert rep.n_enumerated == rep.n_admissible


def test_triangle_is_one_unconstrained_form_and_satisfies_scans_it():
    from entrocone.witness import make_witness_g

    t = builtin("triangle")
    assert t.slots == ("A", "B") and t.constraints == ()
    assert t.functional == LinearFunctional(t.ground, {("A", "B"): 1, "A": 1, "B": -1})
    # g is monotone and vanishes on the empty set, so S(AB) >= S(B) and S(A) >= 0
    rep = satisfies(make_witness_g(2), t)
    assert rep.holds and rep.n_enumerated == rep.n_admissible > 0 and rep.min_value > 0
    # S(XY) + S(X) - S(Y) = 1 + 1 - 5 at A = X, B = Y; every other instance holds
    gr = GroundSet(("X", "Y"))
    rep = satisfies(SetFunction(gr, {"X": 1, "Y": 5, ("X", "Y"): 1}), t)
    assert (rep.n_enumerated, rep.n_violations, rep.min_value) == (2, 1, -3)
    assert rep.violations[0]["instance"] == instantiate(t, gr, {"A": "X", "B": "Y"})


# ------------------------------------------------------------ naming, json


def test_builtin_aliases():
    assert builtin("c_3").name == builtin("c_n", 3).name
    assert builtin("c_3").functional == builtin("c_n", 3).functional
    assert builtin("thm1", 2).functional == builtin("c_n", 2).functional
    assert builtin("thm2p_1").functional == builtin("thm2p", 1).functional
    with pytest.raises((KeyError, ValueError)):
        builtin("no-such-template")


def test_builtin_builds_each_template_once():
    assert builtin("c_3") is builtin("c_n", 3) is builtin("thm1", 3) is builtin("C-N", n=3)
    assert builtin("ssa") is builtin("SSA") and builtin("mi") is builtin("mutual-info")
    assert builtin("c_2") is not builtin("c_3")


def test_template_json_round_trip():
    for name, n in (("ssa", None), ("wmo", None), ("lw05", None),
                    ("c_n", 2), ("thm1p", 2), ("thm2", 2), ("thm2p", 2)):
        t = builtin(name, n)
        back = template_from_obj(json.loads(json.dumps(template_to_obj(t))))
        assert back == t


def test_template_json_rejects_garbage():
    with pytest.raises(ValueError):
        template_from_obj(json.loads('{"name": "x"}'))
    with pytest.raises(ValueError):
        template_from_obj(json.loads(
            '{"name": "x", "slots": ["A"], "terms": [{"subset": ["B"], "coef": "1"}]}'))
