"""Acceptance suite: one test per promised guarantee, one PASS/FAIL line each.

Every criterion is checked at its stated tolerance; the exact-arithmetic ones
use no tolerance at all.  Lines are echoed through the terminal summary hook
in conftest.py so a plain pytest run shows the verdicts.
"""

import time

import numpy as np

from conftest import ACCEPTANCE_LINES

from entrocone.setfn import (
    EXACT_INTEGER,
    GroundSet,
    SetFunction,
    cmi,
    is_monotone,
    is_submodular,
    is_weakly_monotone,
    submasks,
    to_obj,
)
from entrocone.inequalities import (
    builtin,
    enumerate_instances,
    instantiate,
    slot_blocks,
)
from entrocone.witness import (
    closed_form_value,
    counterexample_table,
    make_witness_f,
    make_witness_g,
    standard_c_binding,
    witness_ground,
)
from entrocone.certify import (
    Certificate,
    Feasible,
    Infeasible,
    cone_membership,
    independence_problem,
    purified_basic_problem,
    verify_certificate,
)
from entrocone.quantum import (
    FamilyDims,
    MultipartyState,
    check_theorem,
    constrained_family_sample,
    entropy_vector,
    gram_density,
    purify,
    trial_seed,
    _rng,
)
from entrocone.search import SearchConfig, local_refine, random_scan


def _record(num: int, name: str, ok: bool, detail: str = "") -> bool:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} [{name}]: {verdict}"
    if detail:
        line += f" -- {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


# ---------------------------------------------------------------- 1


def test_criterion_1_witness_exactness():
    t0 = time.perf_counter()
    failures = []
    for n in range(2, 9):
        f = make_witness_f(n)
        if f.domain != EXACT_INTEGER:
            failures.append((n, "domain", f.domain))
        if not is_submodular(f):
            failures.append((n, "submodular"))
        checks = [
            ("(b:c|a)", cmi(f, "b", "c", "a"), 0),
            ("(a:c|b)", cmi(f, "a", "c", "b"), 0),
            ("(a:c)", cmi(f, "a", "c"), n * (n + 1) * (n - 1)),
            ("(b:x1|a)", cmi(f, "b", "x1", "a"), (n + 1) * (n - 1)),
            ("(a:x1|b)", cmi(f, "a", "x1", "b"), 0),
            ("(a:x1)", cmi(f, "a", "x1"), 2 * n * (n + 1)),
            ("(a:b)", cmi(f, "a", "b"), n * n * (n + 1)),
            ("(ab:c)", cmi(f, ("a", "b"), "c"), n * (n + 1) * (n - 1)),
        ]
        for label, got, want in checks:
            if got != want:
                failures.append((n, label, got, want))
        gr = f.ground
        regs = gr.mask_of(tuple(f"x{i}" for i in range(1, n + 1)))
        want_ab = n * (n + 1) * (n - 2)
        for alpha in submasks(regs):
            if alpha and cmi(f, "a", "b", gr.labels_of(alpha)) != want_ab:
                failures.append((n, "(a:b|alpha)", gr.subset_str(alpha)))
                break
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(("time", elapsed))
    ok = _record(1, "witness exactness, n=2..8, zero tolerance", not failures,
                 f"{elapsed:.2f}s")
    assert ok, failures[:5]


# ---------------------------------------------------------------- 2


def test_criterion_2_instance_closed_form():
    t0 = time.perf_counter()
    failures = []
    for n in (2, 3, 4):
        f = make_witness_f(n)
        g = make_witness_g(n)
        gr = f.ground
        negatives = []
        for p in range(1, n + 3):
            t = builtin("c_n", p)
            count = 0
            for inst in enumerate_instances(t, gr, fixed=standard_c_binding()):
                count += 1
                delta = sum(
                    1 for slot, mask in inst.assignment
                    if slot.startswith("X") and mask == 0
                )
                want = closed_form_value(n, p, delta)
                vf = inst.functional.evaluate(f)
                vg = inst.functional.evaluate(g)
                if vf != want or vg != want:
                    failures.append((n, p, delta, str(vf), str(vg), want))
                if vf < 0:
                    negatives.append((p, delta, vf))
            if count == 0:
                failures.append((n, p, "no instances"))
        if negatives != [(n, 0, -n * (n + 1))]:
            failures.append((n, "negative classes", negatives))
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(("time", elapsed))
    ok = _record(2, "closed-form instance values, n=2..4, p=1..n+2", not failures,
                 f"{elapsed:.2f}s")
    assert ok, failures[:5]


# ---------------------------------------------------------------- 3


def test_criterion_3_monotone_repair_preserves_instances():
    t0 = time.perf_counter()
    failures = []
    for n in range(2, 9):
        f = make_witness_f(n)
        g = make_witness_g(n)
        if not is_monotone(g):
            failures.append((n, "monotone"))
        if not is_submodular(g):
            failures.append((n, "submodular"))
        # difference function: every submodularity instance must not see it
        d = [gv - fv for gv, fv in zip(g.values, f.values)]
        full = len(d) - 1
        subs = [tuple(submasks(m)) for m in range(full + 1)]
        bad = False
        for gamma in range(full + 1):
            rest = full & ~gamma
            for a in subs[rest]:
                if not a:
                    continue
                dag = d[a | gamma]
                base = d[gamma]
                for b in subs[rest & ~a]:
                    if b and dag + d[b | gamma] - base - d[a | b | gamma] != 0:
                        failures.append((n, "ssa drift", gamma, a, b))
                        bad = True
                        break
                if bad:
                    break
            if bad:
                break
        # linearity: L(g) == L(f) for every instance iff L vanishes on g - f;
        # the instances' functionals realized a block at a time
        gr = f.ground
        diff = SetFunction(gr, d)
        for p in range(1, n + 3):
            t = builtin("c_n", p)
            forms = (form for rows in slot_blocks(t, gr, standard_c_binding())
                     for form in t.realize(rows, gr))
            for i, form in enumerate(forms):
                if form.evaluate(diff) != 0:
                    failures.append((n, p, "family drift", i))
                    break
    elapsed = time.perf_counter() - t0
    ok = _record(3, "repair keeps every instance value, n=2..8", not failures,
                 f"{elapsed:.2f}s")
    assert ok, failures[:5]


# ---------------------------------------------------------------- 4


def test_criterion_4_four_party_table():
    t0 = time.perf_counter()
    e = counterexample_table()
    failures = []
    v = e.values
    full = 15
    # every submodularity instance, exactly
    for gamma in range(16):
        rest = full & ~gamma
        for a in submasks(rest):
            if not a:
                continue
            for b in submasks(rest & ~a):
                if b and v[a | gamma] + v[b | gamma] - v[gamma] - v[a | b | gamma] < 0:
                    failures.append(("ssa", gamma, a, b))
    # every weak-monotonicity instance, exactly
    for a in range(1, 16):
        rest = full & ~a
        for b in submasks(rest):
            for c in submasks(rest & ~b):
                if v[a | b] + v[a | c] - v[b] - v[c] < 0:
                    failures.append(("wmo", a, b, c))
    # constraints of the earlier inequality vanish; its value is -2
    cons = (cmi(e, "A", "C", "B"), cmi(e, "B", "C", "A"), cmi(e, "A", "B", "D"))
    if any(x != 0 for x in cons):
        failures.append(("constraints", cons))
    prior = cmi(e, "C", "D") - cmi(e, ("A", "B"), "C")
    if prior != -2:
        failures.append(("prior value", prior))
    # the four order-1 forms by direct table arithmetic
    iabd = cmi(e, "A", "B", "D")
    iabcd = cmi(e, "A", "B", ("C", "D"))
    iabc = cmi(e, "A", "B", "C")
    iabC = cmi(e, ("A", "B"), "C")
    sd, sc, sab = e("D"), e("C"), e(("A", "B"))
    sabcd, sabc, scd = e(("A", "B", "C", "D")), e(("A", "B", "C")), e(("C", "D"))
    four = (
        iabd,
        iabd + sd + iabcd + sabcd - sabc - iabC,
        iabd + sd + iabc + sc - scd - iabC,
        iabd + sd + iabcd + sabcd + iabc + sc - sab - 2 * iabC,
    )
    if four != (0, 0, 0, 2):
        failures.append(("order-1 values", four))
    if any(x < 0 for x in four):
        failures.append(("order-1 negative", four))
    elapsed = time.perf_counter() - t0
    ok = _record(4, "four-party table: basics hold, old form fails, new forms hold",
                 not failures, f"{elapsed:.2f}s")
    assert ok, failures[:5]


# ---------------------------------------------------------------- 5


def test_criterion_5_certificates_and_lp():
    t0 = time.perf_counter()
    failures = []
    target, gens, cons, ground, _ = independence_problem(2)
    out = cone_membership(target, gens, cons)
    if not isinstance(out, Infeasible):
        failures.append(("independence", "expected infeasible"))
    if (out.method, out.pivots) != ("simplex", 290):
        failures.append(("independence", f"decided by {out.method} in {out.pivots} pivots"))
    g2 = make_witness_g(2)
    rep = verify_certificate(
        Certificate(point=g2, generators=tuple(gens), constraints=tuple(cons),
                    target=target)
    )
    if not rep.valid or rep.target_value != -6:
        failures.append(("witness certificate", to_obj(rep)))

    target2, gens2, cons2, ground2, _ = purified_basic_problem()
    out2 = cone_membership(target2, gens2, cons2)
    if not isinstance(out2, Feasible):
        failures.append(("purified problem", "expected feasible"))
    else:
        # replay the combination: residual must be exactly zero
        from fractions import Fraction

        acc: dict = {}
        for c, fn in zip(out2.coefficients, gens2):
            for mask, coef in fn.coefs.items():
                acc[mask] = acc.get(mask, Fraction(0)) + c * coef
        for c, fn in zip(out2.constraint_coefficients, cons2):
            for mask, coef in fn.coefs.items():
                acc[mask] = acc.get(mask, Fraction(0)) + c * coef
        residual = {m: x for m, x in acc.items() if x != 0}
        if residual != target2.coefs:
            failures.append(("purified residual", residual))
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(("time", elapsed))
    ok = _record(5, "exact LP: independence refuted, purified form recovered",
                 not failures, f"{elapsed:.2f}s, {out.pivots} pivots, {out.method}")
    assert ok, failures[:5]


# ---------------------------------------------------------------- 6


def _small_dims(n: int) -> FamilyDims:
    # every local dimension stays at 2: registers correlate with one side
    # each, alternating, since a two-sided register would need dimension 4
    halves = tuple((2, 1) if i % 2 == 0 else (1, 2) for i in range(n))
    return FamilyDims(a_blocks=(1, 1), b_blocks=(1, 1), dim_c=2, x_halves=halves)


def test_criterion_6_family_states_validate_numerically():
    t0 = time.perf_counter()
    failures = []
    worst_resid = 0.0
    worst_slack = float("inf")
    trials = 500
    factored = 0
    for n in (1, 2, 3):
        fd = _small_dims(n)
        for t in range(trials):
            state = constrained_family_sample(fd, seed=trial_seed(20260816 + n, t))
            rep = check_theorem(state, fd.a_blocks)
            worst_resid = max(worst_resid, *map(abs, rep.constraint_residuals.values()))
            worst_slack = min(worst_slack, *rep.slacks.values())
            factored += rep.sigma_route == "factored"
            if not rep.passed:
                failures.append((n, t, to_obj(rep)))
                break
    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        failures.append(("time", elapsed))
    # the proof trace ran on sigma from the factors for every state, never
    # the dense reference
    if factored != 3 * trials:
        failures.append(("factored sigma", factored))
    ok = _record(
        6,
        "1500 sampled family states pass all four inequalities and proof trace",
        not failures,
        f"{elapsed:.1f}s, {factored} of {3 * trials} sigma factored, "
        f"max residual {worst_resid:.2e}, min slack {worst_slack:.2e}",
    )
    assert ok, failures[:1]


# ---------------------------------------------------------------- 7


def _brute_ssa(f) -> bool:
    v = f.values
    full = len(v) - 1
    thresh = -1e-9 if f.domain == "float64" else 0
    for gamma in range(full + 1):
        rest = full & ~gamma
        for a in submasks(rest):
            if not a:
                continue
            for b in submasks(rest & ~a):
                if b and v[a | gamma] + v[b | gamma] - v[gamma] - v[a | b | gamma] < thresh:
                    return False
    return True


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(424242)
    gr4 = GroundSet(("A", "B", "C", "D"))
    labels, dims = ("A", "B", "C", "D"), (2, 2, 2, 2)
    mismatching = 0
    for trial in range(200):
        kind = trial % 3
        if kind == 0:
            f = SetFunction(gr4, [0] + [int(x) for x in rng.integers(-4, 5, 15)])
        elif kind == 1:
            f = SetFunction(
                gr4,
                [0.0] + [2.0 * bin(m).count("1") + rng.uniform(-1.2, 1.2)
                         for m in range(1, 16)],
            )
        else:
            rho = gram_density(rng.standard_normal(2 * 16 * 16), 16, 16)
            f = entropy_vector(MultipartyState(labels, dims, rho))
        if bool(is_submodular(f)) != _brute_ssa(f):
            mismatching += 1
    if mismatching:
        failures.append(("elemental mismatch", mismatching))

    worst_sym = 0.0
    for trial in range(100):
        pick = trial % 3
        pdims = ((2, 2), (2, 3), (2, 2, 2))[pick]
        plabels = ("A", "B", "C")[: len(pdims)]
        d = int(np.prod(pdims))
        rho = gram_density(rng.standard_normal(2 * d * d), d, d)
        ext = purify(MultipartyState(plabels, pdims, rho))
        h = entropy_vector(ext)
        hg = h.ground
        worst = max(abs(h.value(m) - h.value(hg.complement(m))) for m in hg.iter_masks())
        worst_sym = max(worst_sym, worst)
    if worst_sym > 1e-8:
        failures.append(("purification symmetry", worst_sym))

    h = entropy_vector(
        MultipartyState(("A", "B"), (2, 2), np.eye(4, dtype=complex) / 4)
    )
    flat = (h("A"), h("B"), h(("A", "B")))
    if any(abs(x - y) > 1e-12 for x, y in zip(flat, (1.0, 1.0, 2.0))):
        failures.append(("maximally mixed", flat))
    elapsed = time.perf_counter() - t0
    ok = _record(
        7,
        "property suites: elemental test, purification symmetry, flat state",
        not failures,
        f"{elapsed:.1f}s, worst symmetry gap {worst_sym:.2e}",
    )
    assert ok, failures[:5]


# ---------------------------------------------------------------- 8


def test_criterion_8_search_finds_nothing_on_true_forms():
    t0 = time.perf_counter()
    failures = []
    plans = [
        SearchConfig(template="ssa", family="haar-mixed", labels=("A", "B", "C"),
                     dims=(2, 2, 2), trials=2000, seed=101),
        SearchConfig(template="wmo", family="haar-mixed", labels=("A", "B", "C"),
                     dims=(2, 2, 2), trials=1500, seed=102),
        SearchConfig(template="c_2", family="constrained", n=2, trials=1500, seed=103),
        SearchConfig(template="thm1p", family="constrained", n=2, trials=1500, seed=104),
        SearchConfig(template="thm2", family="constrained", n=2, trials=1500, seed=105),
        SearchConfig(template="thm2p", family="constrained", n=2, trials=1500, seed=106),
        SearchConfig(template="lw05", family="lw05", trials=500, seed=107),
    ]
    total = 0
    worst = float("inf")
    for cfg in plans:
        scan = random_scan(cfg)
        total += scan.n_trials
        if scan.min_slack is not None:
            worst = min(worst, scan.min_slack)
        if scan.violation_found:
            failures.append((cfg.summary()["template"], "scan", scan.violations[:1]))
        refine_cfg = SearchConfig(**{**cfg.__dict__, "refine_steps": 40})
        start = tuple(scan.argmin["seed"]) if scan.argmin else None
        ref = local_refine(refine_cfg, start_seed=start)
        worst = min(worst, ref.final_slack)
        if ref.violation_found:
            failures.append((cfg.summary()["template"], "refine", ref.violation))
    if total != 10000:
        failures.append(("trial count", total))

    planted = SearchConfig(template="anti-monotone", family="haar-mixed",
                           labels=("A", "B"), dims=(2, 2), rank=4,
                           trials=100, seed=108)
    rep = random_scan(planted)
    if not rep.violation_found:
        failures.append(("planted defect not found",))
    elif rep.violations[0]["trial"] >= 100:
        failures.append(("planted defect too slow", rep.violations[0]["trial"]))
    elapsed = time.perf_counter() - t0
    ok = _record(
        8,
        "10k-trial search: true forms clean, planted defect caught",
        not failures,
        f"{elapsed:.1f}s, worst true slack {worst:.3e}, "
        f"planted hit at trial {rep.violations[0]['trial'] if rep.violations else '-'}",
    )
    assert ok, failures[:3]
