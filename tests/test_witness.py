"""Exact witness family and the four-party counterexample table."""

import time

import pytest

from entrocone.inequalities import builtin, satisfies
from entrocone.setfn import (
    SetFunction,
    cmi,
    is_monotone,
    is_submodular,
    is_weakly_monotone,
    monotone_repair,
)
from entrocone.witness import (
    MAX_WITNESS_ORDER,
    closed_form_value,
    counterexample_table,
    make_witness_f,
    make_witness_g,
    standard_instance,
    verify_counterexample,
    verify_witness,
    witness_ground,
    witness_params,
)


def table_cmi(table, i, j, alpha=frozenset()):
    """CMI arithmetic on a K-indexed integer table (zero off support)."""
    a = frozenset(alpha)
    get = lambda s: table.get(frozenset(s), 0)
    return -get(a) + get(a | {i}) + get(a | {j}) - get(a | {i} | {j})


def mu_hat(params, subset):
    """The correction as a set function on the full ground set: supported
    only where the register part is empty."""
    s = frozenset(subset)
    k = s & frozenset("abc")
    if s - k:
        return 0
    return params.mu.get(k, 0)


def mu_cmi(params, i, j, alpha=frozenset()):
    a = frozenset(alpha)
    get = lambda s: mu_hat(params, s)
    return -get(a) + get(a | {i}) + get(a | {j}) - get(a | {i} | {j})


# ------------------------------------------------------------ tables


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_base_and_slope_cmi_tables(n):
    p = witness_params(n)
    th = lambda i, j, al=frozenset(): table_cmi(p.theta, i, j, al)
    la = lambda i, j, al=frozenset(): table_cmi(p.lam, i, j, al)
    assert th("a", "b") == n * (n + 1) * (n - 2)
    assert la("a", "b") == 0
    assert th("a", "c") == n * (n + 1) * (3 * n - 1)
    assert la("a", "c") == -(n + 1) * (3 * n - 1)
    assert th("b", "c") == n * (n + 1) * (n - 1)
    assert la("b", "c") == -(n + 1) * (n - 1)
    assert th("a", "b", {"c"}) == n * (n + 1)
    assert la("a", "b", {"c"}) == (n + 1) * (n - 1)
    assert th("a", "c", {"b"}) == 2 * n * (n + 1) ** 2
    assert la("a", "c", {"b"}) == -2 * n * (n + 1)
    assert th("b", "c", {"a"}) == 2 * n * (n + 1)
    assert la("b", "c", {"a"}) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_correction_cmi_table(n):
    p = witness_params(n)
    m = lambda i, j, al=frozenset(): mu_cmi(p, i, j, al)
    assert m("b", "c", {"a"}) == 2 * n * (n + 1)
    assert m("b", "x1", {"a"}) == 2 * n * (n + 1)
    assert -m("a", "b") == 2 * n * (n + 1)
    assert m("a", "c") == 2 * n**2 * (n + 1)
    assert m("a", "x1") == 2 * n**2 * (n + 1)
    assert -m("c", "x1", {"a"}) == 2 * n**2 * (n + 1)
    assert -m("x1", "x2", {"a"}) == 2 * n**2 * (n + 1)
    assert m("a", "c", {"b"}) == 2 * n * (n + 1) ** 2
    assert m("a", "x1", {"b"}) == 2 * n * (n + 1) ** 2
    assert -m("x1", "x2", {"a", "b"}) == 2 * n * (n + 1) ** 2
    assert -m("c", "x1", {"a", "b"}) == 2 * n * (n + 1) ** 2


def test_correction_between_registers_never_positive():
    # register-register CMIs of the full witness reduce to minus a correction
    for n in (2, 3, 4):
        p = witness_params(n)
        f = make_witness_f(n)
        gr = f.ground
        full = gr.n_subsets - 1
        abc = gr.mask_of(("a", "b", "c"))
        import entrocone.setfn as sf

        for al in sf.submasks(full & ~gr.mask_of(("x1", "x2"))):
            labels = set(gr.labels_of(al))
            val = cmi(f, "x1", "x2", gr.labels_of(al))
            assert val == -mu_cmi(p, "x1", "x2", labels)
            assert val >= 0  # the register-register corrections are never positive


# ------------------------------------------------------------ frozen values


def test_witness_values_frozen_n2():
    f = make_witness_f(2)
    assert f("a") == 84
    assert f(("a", "b")) == 129
    assert f("x1") == -4
    assert f(()) == 0


def test_params_require_two_registers():
    with pytest.raises(ValueError):
        witness_params(1)
    with pytest.raises(ValueError):
        make_witness_f(0)


def per_mask_witness(n):
    """f built subset by subset on the full ground, from the (a,b,c)-part
    and the x count of each mask."""
    params = witness_params(n)
    gr = witness_ground(n)
    table = [0] * gr.n_subsets
    for mask in range(1, gr.n_subsets):
        k = frozenset(gr.labels_of(mask & 7))
        j = bin(mask >> 3).count("1")
        table[mask] = params.theta[k] + j * params.lam[k] - (params.mu.get(k, 0) if j == 0 else 0)
    return SetFunction(gr, table)


@pytest.mark.parametrize("n", range(2, 9))
def test_witness_lifted_from_types_is_the_per_mask_witness(n):
    f = per_mask_witness(n)
    assert make_witness_f(n) == f
    assert make_witness_g(n) == monotone_repair(f)


@pytest.mark.parametrize("n", [MAX_WITNESS_ORDER + 1, 1_000_000])
def test_witness_refuses_a_large_order_before_building_it(n):
    for make in (make_witness_f, make_witness_g):
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"witness order {n} exceeds the cap of 21"):
            make(n)
        assert time.perf_counter() - started < 1


@pytest.mark.parametrize("n, admissible", [(2, (15, 405)), (3, (60, 3420)), (4, (946, 27468))])
def test_g_violates_c_n_on_the_standard_binding_alone(n, admissible):
    # every binding the constraints admit on g, at every order the
    # independence problem uses: the one violation is X_i = {x_i} at p = n
    g = make_witness_g(n)
    for p in range(1, n + 3):
        rep = satisfies(g, builtin("c_n", p), auto_filter=True)
        if p != n:
            assert rep.n_violations == 0
        else:
            assert (rep.n_admissible, rep.n_enumerated) == admissible
            assert rep.n_violations == 1
            assert rep.violations[0]["instance"] == standard_instance(n, n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_special_cmi_values(n):
    f = make_witness_f(n)
    assert cmi(f, "b", "c", "a") == 0
    assert cmi(f, "a", "c", "b") == 0
    assert cmi(f, "a", "c") == n * (n + 1) * (n - 1)
    assert cmi(f, "a", "b") == n**2 * (n + 1)
    assert cmi(f, ("a", "b"), "c") == n * (n + 1) * (n - 1)
    assert cmi(f, "b", "x1", "a") == (n + 1) * (n - 1)
    assert cmi(f, "a", "x1", "b") == 0
    assert cmi(f, "a", "x1") == 2 * n * (n + 1)
    # conditioning on any nonempty register set
    assert cmi(f, "a", "b", "x1") == n * (n + 1) * (n - 2)
    assert cmi(f, "a", "b", tuple(f"x{i}" for i in range(1, n + 1))) == n * (n + 1) * (n - 2)


# ------------------------------------------------------------ closed form


def test_closed_form_values():
    assert closed_form_value(2, 2, 0) == -6
    assert closed_form_value(2, 1, 0) == 0
    assert closed_form_value(3, 3, 0) == -12
    assert closed_form_value(3, 3, 1) == 12
    assert closed_form_value(4, 6, 2) == 20
    assert closed_form_value(4, 4, 0) == -20
    # for p > n every feasible class has delta >= p - n, hence value >= 0
    assert closed_form_value(4, 5, 1) == 0
    with pytest.raises(ValueError):
        closed_form_value(2, 0, 0)
    with pytest.raises(ValueError):
        closed_form_value(2, 2, 3)
    with pytest.raises(ValueError):
        closed_form_value(2, 4, 1)  # 3 nonempty subsets cannot fit in 2 registers


@pytest.mark.parametrize("n", [2, 3])
def test_standard_instance_evaluates_to_closed_form(n):
    f = make_witness_f(n)
    g = make_witness_g(n)
    inst = standard_instance(n, n)
    assert inst.functional.evaluate(f) == closed_form_value(n, n, 0) == -n * (n + 1)
    assert inst.functional.evaluate(g) == closed_form_value(n, n, 0)
    for c in inst.constraints:
        assert c.evaluate(f) == 0


# ------------------------------------------------------------ full reports


def test_verify_witness_n2_report():
    rep = verify_witness(2)
    assert rep.passed
    assert rep.negative_classes == [
        {"p": 2, "delta": 0, "value": "-6"}
    ]
    hist = {(r["p"], r["delta"]): (r["count"], r["value_f"]) for r in rep.instance_histogram}
    expected = {
        (1, 0): (3, 0), (1, 1): (1, 12),
        (2, 0): (1, -6), (2, 1): (3, 6), (2, 2): (1, 18),
        (3, 1): (1, 0), (3, 2): (3, 12), (3, 3): (1, 24),
        (4, 2): (1, 6), (4, 3): (3, 18), (4, 4): (1, 30),
    }
    assert hist == expected
    # every class obeys the closed form and g agrees with f throughout
    for r in rep.instance_histogram:
        assert r["value_f"] == r["value_g"] == r["expected"]


def test_verify_witness_n3():
    rep = verify_witness(3)
    assert rep.passed
    assert rep.negative_classes == [{"p": 3, "delta": 0, "value": "-12"}]


def test_witness_structure_small():
    for n in (2, 3):
        f = make_witness_f(n)
        g = make_witness_g(n)
        assert is_submodular(f)
        assert is_submodular(g)
        assert is_monotone(g)
        assert is_weakly_monotone(g)
        assert not is_monotone(f)  # f(x1) < 0


# ------------------------------------------------------------ counterexample


def test_counterexample_table_values():
    e = counterexample_table()
    assert e.ground.labels == ("A", "B", "C", "D")
    singles = [e("A"), e("B"), e("C"), e("D")]
    assert singles == [5, 5, 2, 4]
    assert e(("A", "B")) == 6
    assert e(("C", "D")) == 6
    assert e(("A", "B", "C")) == 6
    assert e(("A", "B", "C", "D")) == 4


def test_counterexample_report():
    rep = verify_counterexample()
    assert rep.passed
    assert rep.prior_inequality_value == -2
    assert sorted(rep.new_inequality_values.values()) == [0, 0, 0, 2]
    assert rep.new_inequality_values["thm2p_1"] == 2
    assert all(v == 0 for v in rep.constraint_values.values())
    assert not rep.monotone  # the table is deliberately not monotone
    assert rep.submodular and rep.weakly_monotone


@pytest.mark.parametrize("bump, match", [("cardinality", True), ("one value", False)])
def test_elemental_match_tracks_g_minus_f(monkeypatch, bump, match):
    # a cardinality bump keeps g - f modular; one bumped value breaks it
    from entrocone import witness

    true_g = witness.make_witness_g

    def bumped(k):
        g = true_g(k)
        values = list(g.values)
        if bump == "cardinality":
            values = [v + bin(m).count("1") for m, v in enumerate(values)]
        else:
            values[-1] += 1
        return SetFunction(g.ground, values)

    monkeypatch.setattr(witness, "make_witness_g", bumped)
    rep = verify_witness(3)
    assert rep.elemental_match_fg is match


@pytest.mark.parametrize("subset, ok", [
    (("x1",), False), (("x2", "x3"), False), (("x1", "x2", "x3"), False), (("a", "x1"), True),
])
def test_zero_sum_check_sees_one_bumped_x_value(monkeypatch, subset, ok):
    # additivity over disjoint x-subsets reads the x-only values alone
    from entrocone import witness

    true_f = witness.make_witness_f

    def bumped(k):
        f = true_f(k)
        values = list(f.values)
        values[f.ground.mask_of(subset)] += 1
        return SetFunction(f.ground, values)

    monkeypatch.setattr(witness, "make_witness_f", bumped)
    assert verify_witness(3).zero_sum_ok is ok
