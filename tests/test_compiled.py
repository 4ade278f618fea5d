"""Compiled batch evaluation against the per-instance reference paths.

Each reference below is the per-instance loop the compiled path replaced:
every instance's functional is realized as a Fraction LinearFunctional and
evaluated on its own.
"""

from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entrocone import search, witness
from entrocone.inequalities import (
    _FIXED,
    Forms,
    InequalityTemplate,
    Instance,
    LinearFunctional,
    builtin,
    enumerate_instances,
    float_values,
    instantiate,
    satisfies,
    slot_blocks,
    slot_mask_matrix,
)
from entrocone.quantum import HaarMixedFamily, _rng, entropy_vector, trial_seed
from entrocone.setfn import FLOAT64, GroundSet, SetFunction, monotone_repair, to_obj

FLOAT_TOL = 1e-12


# ------------------------------------------------------------ references


def reference_satisfies(f, template, binding=None, tol=1e-9, max_recorded=10):
    is_float = f.domain == FLOAT64
    zero_tol = tol if is_float else 0
    n_enum = n_adm = n_viol = 0
    min_value = argmin = None
    viols = []
    max_resid = 0.0 if is_float else 0
    for inst in enumerate_instances(template, f.ground, fixed=binding):
        n_enum += 1
        resid = None
        if inst.constraints:
            resid = max(abs(c.evaluate(f)) for c in inst.constraints)
        if resid is not None and resid > zero_tol:
            continue
        n_adm += 1
        if resid is not None and resid > max_resid:
            max_resid = resid
        val = inst.functional.evaluate(f)
        if min_value is None or val < min_value:
            min_value, argmin = val, inst
        if val < (-tol if is_float else 0):
            n_viol += 1
            if len(viols) < max_recorded:
                viols.append((inst, val))
    return dict(n_enumerated=n_enum, n_admissible=n_adm, min_value=min_value,
                argmin=argmin, n_violations=n_viol, violations=viols,
                max_constraint_residual=max_resid)


def reference_instance_rows(n, f, g, p_max):
    """(instance_histogram, match_f, match_g) of the witness scan, per instance."""
    hist = {}
    match_f = match_g = True
    for p in range(1, p_max + 1):
        for inst in enumerate_instances(builtin("c_n", p), f.ground,
                                        fixed=witness.standard_c_binding()):
            delta = sum(1 for slot, m in inst.assignment if slot.startswith("X") and m == 0)
            vf, vg = inst.functional.evaluate(f), inst.functional.evaluate(g)
            expected = witness.closed_form_value(n, p, delta)
            row = hist.setdefault((p, delta), {"p": p, "delta": delta, "count": 0,
                                               "value_f": vf, "value_g": vg,
                                               "expected": expected})
            row["count"] += 1
            match_f = match_f and vf == expected == row["value_f"]
            match_g = match_g and vg == expected == row["value_g"]
    return [hist[k] for k in sorted(hist)], match_f, match_g


def reference_trial(instances, h, tol):
    """(n_evaluations, n_admissible, min slack, argmin instance) on one state."""
    n_adm = 0
    best = best_inst = None
    for inst in instances:
        resid = max((abs(c.evaluate(h)) for c in inst.constraints), default=0.0)
        if resid > tol:
            continue
        n_adm += 1
        val = inst.functional.evaluate(h)
        if best is None or val < best:
            best, best_inst = val, inst
    return len(instances), n_adm, best, best_inst


# ------------------------------------------------------------ satisfies


def _coef():
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def templates(draw):
    k = draw(st.integers(1, 4))
    slots = tuple(f"S{i}" for i in range(k))
    form = st.dictionaries(st.integers(1, (1 << k) - 1), _coef(), max_size=5)
    symmetries = ((slots[0], slots[1]),) if k > 1 and draw(st.booleans()) else ()
    return InequalityTemplate(
        "t", slots, draw(form), draw(st.lists(form, max_size=2)), symmetries,
        draw(st.sets(st.sampled_from(slots))),
    )


def set_function(ground, domain, seed):
    rng = np.random.default_rng(seed)
    size = ground.n_subsets - 1
    if domain == "small":
        vals = [int(v) for v in rng.integers(-3, 4, size)]
    elif domain == "big":
        vals = [int(v) * 2**63 + int(w) for v, w in zip(rng.integers(1, 4, size),
                                                      rng.integers(0, 9, size))]
    elif domain == "rational":
        vals = [Fraction(int(a), int(b)) for a, b in zip(rng.integers(-9, 10, size),
                                                         rng.integers(2, 7, size))]
    else:
        vals = [float(v) for v in rng.uniform(-3, 3, size)]
    return SetFunction(ground, [0] + vals)


def _close(a, b):
    return abs(a - b) <= FLOAT_TOL


@settings(max_examples=150, deadline=None)
@given(template=templates(), parties=st.integers(1, 5),
       domain=st.sampled_from(["small", "big", "rational", "float"]),
       seed=st.integers(0, 2**32 - 1), bind=st.integers(-1, 3),
       auto_filter=st.booleans())
def test_compiled_satisfies_matches_reference(template, parties, domain, seed, bind,
                                              auto_filter):
    ground = GroundSet(tuple("abcde"[:parties]))
    f = set_function(ground, domain, seed)
    # optionally pin one slot (any position) to party a
    binding = {template.slots[bind % len(template.slots)]: ("a",)} if bind >= 0 else None
    if template.constraints and binding is None:
        auto_filter = True
    tol = 0.5 if domain == "float" else 1e-9  # lets some float instances through
    got = satisfies(f, template, binding=binding, auto_filter=auto_filter, tol=tol)
    want = reference_satisfies(f, template, binding=binding, tol=tol)
    if domain == "big":
        assert template.bind(f).table.dtype == object

    assert got.n_enumerated == want["n_enumerated"]
    assert got.n_admissible == want["n_admissible"]
    assert got.n_violations == want["n_violations"]
    assert [v["instance"].describe() for v in got.violations] == [
        i.describe() for i, _ in want["violations"]]
    if domain != "float":
        assert got.min_value == want["min_value"]
        assert got.argmin == want["argmin"]
        assert [v["value"] for v in got.violations] == [v for _, v in want["violations"]]
        assert got.max_constraint_residual == want["max_constraint_residual"]
        exact = [got.min_value, got.max_constraint_residual] + [v["value"] for v in got.violations]
        assert all(type(v) is Fraction for v in exact if v is not None)
        return
    assert (got.min_value is None) == (want["min_value"] is None)
    if got.min_value is not None:
        assert type(got.min_value) is float
        assert _close(got.min_value, want["min_value"])
        # the same argmin unless two values tie within the tolerance
        assert got.argmin == want["argmin"] or _close(
            got.argmin.functional.evaluate(f), want["min_value"])
    assert all(_close(a["value"], b) for a, (_, b) in zip(got.violations, want["violations"]))
    assert _close(got.max_constraint_residual, want["max_constraint_residual"])


@pytest.mark.parametrize("name", ["ssa", "wmo"])
def test_each_float_row_has_its_bits_alone(name):
    """A float row of a block evaluates to the bits it gets alone; a BLAS
    product would round it by the rows beside it."""
    family = HaarMixedFamily(tuple("ABCDEF"), (2,) * 6)
    h = entropy_vector(family.build(family.draw(_rng(3))))
    template = builtin(name)
    bound = template.bind(h)
    instances = list(enumerate_instances(template, h.ground))
    terms = template.terms(slot_mask_matrix(instances, len(template.slots)))
    block = bound.evaluate(terms)
    for t, row in enumerate(terms):
        assert np.array_equal(bound.evaluate(row[None]), block[t:t + 1])


def test_int64_path_is_taken_below_the_bound():
    t = builtin("ssa")
    gr = GroundSet(("a", "b", "c"))
    small = SetFunction(gr, [0] + [2**60] * 7)
    huge = SetFunction(gr, [0] + [2**61] * 7)  # 4 terms of |c| = 1: 2^63
    assert t.bind(small).table.dtype == np.int64
    assert t.bind(huge).table.dtype == object
    assert satisfies(huge, t).min_value == reference_satisfies(huge, t)["min_value"]


# ------------------------------------------------------------ witness scan


@pytest.mark.parametrize("n", [2, 3, 4])
def test_compiled_witness_scan_matches_reference(n):
    rep = witness.verify_witness(n)
    rows, match_f, match_g = reference_instance_rows(
        n, witness.make_witness_f(n), witness.make_witness_g(n), n + 2)
    assert rep.instance_histogram == rows
    assert (rep.instances_match_f, rep.instances_match_g) == (match_f, match_g) == (True, True)


def test_compiled_witness_scan_sees_a_mutated_subset(monkeypatch):
    n = 3
    space = witness.witness_space(n)
    true_types = witness._witness_types
    # the type {a,2x}: read only by instances that come after the first of
    # their class, so the histogram's values stay and the match must fail
    mutated = space.type_of(space.ground.mask_of(("a", "x1", "x3")))

    def off_by_one(k):
        f = true_types(k)
        vals = list(f.values)
        vals[mutated] += 1
        return SetFunction(f.ground, vals)

    monkeypatch.setattr(witness, "_witness_types", off_by_one)
    rep = witness.verify_witness(n)
    assert not rep.instances_match_f
    f = off_by_one(n)
    rows, match_f, match_g = reference_instance_rows(
        n, space.lift(f), space.lift(monotone_repair(f)), n + 2)
    assert all(row["value_f"] == row["expected"] for row in rows)
    assert rep.instance_histogram == rows
    assert (rep.instances_match_f, rep.instances_match_g) == (match_f, match_g)


# ------------------------------------------------------------ search (float path)


@pytest.mark.parametrize("cfg", [
    search.SearchConfig(template="ssa", labels=("A", "B", "C"), dims=(2, 2, 2),
                        trials=30, seed=11),
    search.SearchConfig(template="ssa", labels=tuple("ABCDE"), dims=(2,) * 5,
                        trials=6, seed=12),
    search.SearchConfig(template="c_2", family="constrained", n=2, trials=6, seed=13),
], ids=["ssa-222", "ssa-5-qubits", "c_2-constrained"])
def test_scan_records_match_reference_loop(cfg):
    rep = search.random_scan(cfg)
    template, family, ground, rows, *_ = search._setup(cfg)
    instances = [Instance(template, ground, r) for r in rows.tolist()]
    n_eval = n_adm = 0
    for rec in rep.trial_records:
        seed = trial_seed(cfg.seed, rec["trial"])
        h = entropy_vector(family.build(family.draw(_rng(seed))))
        evals, adm, best, best_inst = reference_trial(instances, h, cfg.tol)
        n_eval, n_adm = n_eval + evals, n_adm + adm
        assert _close(rec["min_slack"], best)
        if rec["argmin_instance"] != best_inst.describe():
            chosen = next(i for i in instances if i.describe() == rec["argmin_instance"])
            assert _close(chosen.functional.evaluate(h), best)
    assert (rep.n_evaluations, rep.n_admissible) == (n_eval, n_adm)


SCAN_PLANS = {
    "haar-dim-1-rank-1": dict(template="ssa", labels=("A", "B", "C"), dims=(2, 1, 3), rank=1),
    "diagonal": dict(template="wmo", family="diagonal", labels=("A", "B", "C"), dims=(2, 2, 2)),
    "constrained": dict(template="c_1", family="constrained", n=1),
    "constrained-diagonal": dict(template="c_2", family="constrained-diagonal", n=2),
    "lw05": dict(template="lw05", family="lw05"),  # block zeros: rows that vanish
}


@settings(max_examples=25, deadline=None)
@given(plan=st.sampled_from(sorted(SCAN_PLANS)), trials=st.integers(1, 9).map(lambda k: 2 * k + 1),
       seed=st.integers(0, 2**16))
def test_scan_does_not_depend_on_the_chunk(plan, trials, seed):
    """One trial a chunk, two, and the default chunk give the same report, to
    the bit; each trial's slack is the one-state entropy vector's."""
    cfg = search.SearchConfig(**SCAN_PLANS[plan], trials=trials, seed=seed)
    template, family, ground, rows, *_ = search._setup(cfg)
    instances = [Instance(template, ground, r) for r in rows.tolist()]
    size = search._state_bytes(family.build(family.draw(_rng(0))))
    assert trials % max(search.CHUNK_BYTES // size, 1) != 0
    reports = []
    for budget in (1, 2 * size, search.CHUNK_BYTES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "CHUNK_BYTES", budget)
            reports.append(search.random_scan(cfg))
    one = reports[0]
    for rep in reports[1:]:
        assert rep.trial_records == one.trial_records
        assert (rep.histogram, rep.argmin, rep.n_admissible) == (
            one.histogram, one.argmin, one.n_admissible)
        assert to_obj(rep) == to_obj(one)
    for rec in one.trial_records:
        h = entropy_vector(family.build(family.draw(_rng(trial_seed(seed, rec["trial"])))))
        best = reference_trial(instances, h, cfg.tol)[2]
        assert (rec["min_slack"] is None) == (best is None)
        assert best is None or _close(rec["min_slack"], best)


# ------------------------------------------------------------ block realization


def reference_realize(inst, form):
    """An instance's form realized term by term, as `Instance` did before
    block realization: each term's party mask is the union of the slot masks
    it names, the empty set drops, equal masks add."""
    out = {}
    for smask, c in form.nums.items():
        pmask = 0
        while smask:  # one step per slot the term names
            low = smask & -smask
            pmask |= inst.slot_masks[low.bit_length() - 1]
            smask ^= low
        if pmask:
            out[pmask] = out.get(pmask, 0) + c
    return LinearFunctional._from_ints(inst.ground, out, form.den)


def _as_listed(form):
    """A functional as its numerators in key order, and its denominator."""
    return list(form.nums.items()), form.den


@st.composite
def realization_cases(draw):
    """A builtin template (ssa, wmo, c_p, the theorem forms, lw05) or a
    random one, whose coefficients may be fractions or pass 2^63, on a
    ground of 1-6 parties, with some slots bound to random parties."""
    builtins = [builtin(name) for name in ("ssa", "wmo", "c_1", "c_2", "c_3", "thm1p_2",
                                           "thm2_1", "thm2p_2", "lw05", "mutual-info")]
    template = draw(st.one_of(st.sampled_from(builtins), templates()))
    if draw(st.integers(0, 4)) == 0:  # a coefficient beyond int64
        terms = {**template.functional.coefs, 1: 3**41 * draw(st.sampled_from([1, -1]))}
        template = InequalityTemplate("wide", template.slots, terms,
                                      [c.coefs for c in template.constraints],
                                      template.symmetries, template.empty_ok)
    ground = GroundSet(tuple(f"p{i}" for i in range(draw(st.integers(1, 6)))))
    owner = draw(st.lists(st.integers(-1, len(template.slots) - 1),
                          min_size=ground.size, max_size=ground.size))
    pinned = [s for s in template.slots if draw(st.integers(0, 3)) == 0]
    fixed = {s: tuple(lab for lab, o in zip(ground.labels, owner)
                      if o == template.slots.index(s)) for s in pinned}
    return template, ground, fixed


@settings(max_examples=150, deadline=None)
@given(realization_cases())
# wmo with B = C = {}: the two S(a) terms merge and the empty terms drop
@example((builtin("wmo"), GroundSet(("a", "b")), {"A": "a", "B": (), "C": ()}))
# a form with no terms next to one over denominator 2
@example((InequalityTemplate("t", ("A", "B"), {1: Fraction(1, 2), 3: -1}, [{}]),
          GroundSet(("a", "b", "c")), {}))
def test_block_realization_matches_the_per_instance_reference(case):
    template, ground, fixed = case
    instances = list(enumerate_instances(template, ground, fixed=fixed))
    forms = (template.functional, *template.constraints)
    want = [[_as_listed(reference_realize(inst, form)) for form in forms] for inst in instances]
    # block by block, every form: the same numerators, key order and denominator
    got = [[] for _ in instances]
    row = 0
    for rows in slot_blocks(template, ground, fixed):
        for j in range(len(forms)):
            for i, form in enumerate(template.realize(rows, ground, j)):
                assert form.ground is ground
                got[row + i].append(_as_listed(form))
        row += len(rows)
    assert got == want
    # an instance reads the same routine on its one row
    for inst, w in zip(instances, want):
        assert [_as_listed(f) for f in (inst.functional, *inst.constraints)] == w


def test_an_instance_past_63_parties_realizes_in_python_integers():
    # masks beyond int64: the one-row block is held as Python integers
    gr = GroundSet(tuple(f"p{i}" for i in range(70)))
    inst = instantiate(builtin("c_2"), gr, {"A": "p69", "B": "p0", "C": ("p64", "p3"),
                                            "X1": "p65", "X2": ()})
    template = builtin("c_2")
    for form, ref in zip((inst.functional, *inst.constraints),
                         (template.functional, *template.constraints)):
        assert _as_listed(form) == _as_listed(reference_realize(inst, ref))
    assert max(inst.functional.nums) >= 2**69


@st.composite
def packed_cases(draw):
    """ssa, wmo or c_1..c_3, with a coefficient beyond int64 one time in
    four, on a ground of 1-6 parties, with some slots bound to random
    parties and the others free."""
    template = draw(st.sampled_from([builtin(name) for name in ("ssa", "wmo", "c_1", "c_2", "c_3")]))
    if draw(st.integers(0, 3)) == 0:
        terms = {**template.functional.coefs, 1: 3**41 * draw(st.sampled_from([1, -1]))}
        template = InequalityTemplate("wide", template.slots, terms,
                                      [c.coefs for c in template.constraints],
                                      template.symmetries, template.empty_ok)
    ground = GroundSet(tuple(f"p{i}" for i in range(draw(st.integers(1, 6)))))
    owner = draw(st.lists(st.integers(-1, len(template.slots) - 1),
                          min_size=ground.size, max_size=ground.size))
    pinned = [s for s in template.slots if draw(st.integers(0, 2)) == 0]
    fixed = {s: tuple(lab for lab, o in zip(ground.labels, owner)
                      if o == template.slots.index(s)) for s in pinned}
    return template, ground, fixed


@settings(max_examples=120, deadline=None)
@given(packed_cases())
def test_packed_rows_match_the_functionals_from_ints(case):
    """Every row of `realize`'s batch holds, in its arrays and as a row,
    the numerators (in order) and the denominator `_from_ints` makes of the
    instance's terms; `Forms.of` packs the rows back to the same batch, or
    in reverse to the same forms."""
    template, ground, fixed = case
    forms = (template.functional, *template.constraints)
    for rows in slot_blocks(template, ground, fixed):
        instances = [Instance(template, ground, r) for r in rows.tolist()]
        for j, form in enumerate(forms):
            packed = template.realize(rows, ground, j)
            got = list(packed)
            assert len(packed) == len(got) == len(instances)
            assert not packed.masks.flags.writeable and not packed.nums.flags.writeable
            assert Forms.of(ground, got) is packed
            back = Forms.of(ground, got[::-1])
            assert [back.nums_of(i) for i in range(len(back))] == [
                packed.nums_of(i) for i in reversed(range(len(packed)))]
            for i, inst in enumerate(instances):
                want = reference_realize(inst, form)
                at = slice(packed.starts[i], packed.starts[i + 1])
                assert packed.masks[at].tolist() == list(want.nums)
                assert packed.nums[at].tolist() == list(want.nums.values())
                assert packed.dens[i] == want.den
                assert got[i].ground is ground and _as_listed(got[i]) == _as_listed(want)
                assert got[i]._forms is None  # the dict is made: the batch is let go


def reference_column_realize(template, rows, ground, column):
    """`realize` from a copy per form: the incidence of the terms the form
    uses and their numerators, int64 while the template's largest column
    sum |c| and the form's denominator are below 2^63."""
    forms = (template.functional, *template.constraints)
    subsets = sorted(set().union(*(form.nums for form in forms)))
    abs_sum = max(sum(abs(form.nums.get(t, 0)) for t in subsets) for form in forms)
    form = forms[column]
    used = [t for t in subsets if form.nums.get(t, 0)]
    incidence = np.array([[t >> i & 1 for t in used] for i in range(len(template.slots))],
                         dtype=np.int64).reshape(len(template.slots), len(used))
    coefs = np.array([form.nums[t] for t in used],
                     dtype=np.int64 if max(abs_sum, form.den) < 2**63 else object)
    return Forms.from_terms(ground, rows @ incidence, coefs, form.den)


def _realize_cases():
    """Every builtin template, then one whose numerators pass int64 and one
    whose constraint's denominator passes 2^63 beside a small functional."""
    names = [*_FIXED, *(f"{name}_{p}" for name in ("c", "thm1p", "thm2", "thm2p") for p in (1, 3))]
    ssa = builtin("ssa")
    return [builtin(name) for name in names] + [
        InequalityTemplate("wide", ssa.slots, {**ssa.functional.coefs, 1: -3**41},
                           symmetries=ssa.symmetries, empty_ok=ssa.empty_ok),
        InequalityTemplate("tiny", ssa.slots, ssa.functional.coefs,
                           [{1: Fraction(1, 2**64), 6: Fraction(-3, 2**64)}],
                           ssa.symmetries, ssa.empty_ok),
    ]


@pytest.mark.parametrize("template", _realize_cases(), ids=lambda t: t.name)
def test_realize_matches_the_per_form_reference(template):
    """Every column of `realize` on `slot_blocks` rows: the arrays, and
    their dtypes, of the per-form path the one coefficient matrix replaced."""
    ground = GroundSet(tuple(f"p{i}" for i in range(6 if len(template.slots) > 3 else 5)))
    dtypes = set()
    for rows in slot_blocks(template, ground):
        for j in range(1 + len(template.constraints)):
            got = template.realize(rows, ground, j)
            want = reference_column_realize(template, rows, ground, j)
            for name in ("masks", "nums", "starts", "dens"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tolist() == b.tolist(), (j, name)
            dtypes.add((j, got.nums.dtype))
    if template.name == "wide":
        assert dtypes == {(0, np.dtype(object))}
    if template.name == "tiny":  # the functional column stays int64
        assert dtypes == {(0, np.dtype(np.int64)), (1, np.dtype(object))}


@st.composite
def packed_batches(draw):
    """A batch packed from functionals on 1-3 parties, drawn with repeats
    from a small pool with zero forms in it and a form beside its half
    (often the same numerators over twice the denominator), numerators
    past 2^63 one time in four, and now and then no form at all; with its
    items."""
    gr = GroundSet(tuple("abc"[:draw(st.integers(1, 3))]))
    size = 3**41 if draw(st.integers(0, 3)) == 0 else 1
    coef = st.builds(lambda a, b: Fraction(a * size, b), st.integers(-3, 3).filter(bool),
                     st.sampled_from([1, 2, 3]))
    pool = draw(st.lists(st.dictionaries(st.integers(1, gr.full_mask), coef, max_size=3).map(
        lambda coefs: LinearFunctional(gr, coefs)), min_size=1, max_size=4))
    pool.append(pool[0].scale(Fraction(1, 2)))
    items = draw(st.lists(st.sampled_from(pool), max_size=8))
    return Forms.of(gr, items), items


def _listed(forms):
    """A batch's forms as `_as_listed` gives each."""
    return [_as_listed(form) for form in forms]


@settings(max_examples=150, deadline=None)
@given(packed_batches(), st.data())
def test_take_concat_and_distinct_match_lists_of_rows(case, data):
    """`take` is list indexing and slicing of the rows, `concat` list
    concatenation and `distinct` `dict.fromkeys` over the rows with a term,
    on int64, object and empty batches, with no row dict read on the way."""
    forms, items = case
    rows = [_as_listed(item) for item in items]
    assert forms.nums.dtype == (object if any(abs(c) >= 2**63 for item in items
                                              for c in item.nums.values()) else np.int64)
    index = data.draw(st.lists(st.integers(0, len(items) - 1), max_size=10) if items
                      else st.just([]))
    a, b = sorted(data.draw(st.lists(st.integers(0, len(items)), min_size=2, max_size=2)))
    cut = data.draw(st.integers(0, len(items)))
    with patch.object(Forms, "nums_of", autospec=True, side_effect=Forms.nums_of) as nums_of:
        taken, sliced = forms.take(index), forms.take(range(a, b))
        joined = Forms.concat([Forms.of(forms.ground, items[:cut]),
                               Forms.of(forms.ground, items[cut:])])
        distinct = forms.distinct()
    assert nums_of.call_count == 0
    for batch in (taken, sliced, joined, distinct):
        assert batch.ground is forms.ground and batch.nums.dtype == forms.nums.dtype
        assert not batch.nums.flags.writeable
    assert _listed(taken) == [rows[i] for i in index]
    assert _listed(sliced) == rows[a:b]
    assert _listed(joined) == rows
    assert _listed(distinct) == [(list(k[1]), k[0]) for k in dict.fromkeys(
        (den, tuple(nums)) for nums, den in rows if nums)]
    assert (distinct is forms) == (len(distinct) == len(forms))
    if items:
        assert _as_listed(forms[-1]) == rows[-1] and _as_listed(forms[0]) == rows[0]
    with pytest.raises(IndexError):
        forms[len(items)]


def reference_float_values(table, coefs):
    """`float_values` as a loop over the terms, adding each term's products
    in order onto zeros."""
    v = np.zeros(table.shape[:-1] + coefs.shape[1:])
    for j, c in enumerate(coefs):
        v += table[..., j, None] * c
    return v


FLOATS = st.one_of(st.floats(width=64), st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))


@settings(max_examples=200, deadline=None)
@given(lead=st.lists(st.integers(0, 3), max_size=2), terms=st.integers(0, 6),
       forms=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_float_values_is_the_loop_over_terms_to_the_bit(lead, terms, forms, seed, data):
    # drawn floats with signed zeros, infinities and NaNs (-0.0 products
    # summed from +0.0 stay +0.0 on both sides; inf * 0 and inf - inf give
    # NaN on both), and Gaussian ones, whose sums round by the term order.
    # A NaN's sign bit is not compared: the loop's own `+=` leaves it set
    # on some entries and clear on others of one call (it differs by SIMD
    # lane when two NaNs meet), so every other entry is compared to the
    # bit and the NaNs by position.
    rng = np.random.default_rng(seed)
    cases = [(data.draw(arrays(np.float64, (*lead, terms), elements=FLOATS)),
              data.draw(arrays(np.float64, (terms, forms), elements=FLOATS))),
             (rng.standard_normal((*lead, terms)), rng.standard_normal((terms, forms)))]
    for table, coefs in cases:
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = float_values(table, coefs), reference_float_values(table, coefs)
        assert got.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()
