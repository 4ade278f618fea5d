"""Exact integer witness functions for independence of the constrained family,
and the four-party table separating the constrained inequalities.

The order-n witness lives on parties (a, b, c, x1..xn) and is built from
three integer tables indexed by the (a,b,c)-part of a subset: a base value,
a per-x-element slope, and a correction supported on {a} and {a,b} alone.
All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .setfn import (
    GroundSet,
    SetFunction,
    cmi,
    is_monotone,
    is_submodular,
    is_weakly_monotone,
    monotone_repair,
    submasks,
)
from .inequalities import CompiledTemplate, builtin, instance_batches, instantiate


def witness_ground(n: int) -> GroundSet:
    if n < 1:
        raise ValueError("witness order n must be >= 1")
    return GroundSet(("a", "b", "c") + tuple(f"x{i}" for i in range(1, n + 1)))


@dataclass(frozen=True)
class WitnessParams:
    """Integer tables (theta, lam, mu) defining the order-n witness."""

    n: int
    theta: dict[frozenset, int] = field(repr=False)
    lam: dict[frozenset, int] = field(repr=False)
    mu: dict[frozenset, int] = field(repr=False)


def witness_params(n: int) -> WitnessParams:
    if n < 2:
        raise ValueError("witness construction requires n >= 2")
    A, B, C = frozenset("a"), frozenset("b"), frozenset("c")
    AB, AC, BC = A | B, A | C, B | C
    ABC = AB | C
    E = frozenset()
    theta = {
        ABC: 2 * n**3 + 8 * n**2 + 4 * n - 1,
        AB: 2 * n**3 + 8 * n**2 + 4 * n - 1,
        AC: 2 * n**3 + 5 * n**2 + 2 * n,
        BC: 6 * n**2 + 4 * n - 1,
        A: 2 * n**3 + 5 * n**2,
        B: 4 * n**2 + 2 * n - 1,
        C: 3 * n**2 + n,
        E: 0,
    }
    theta = {k: (n + 1) * v for k, v in theta.items()}
    lam = {
        ABC: -(2 * n**3 + 8 * n**2 + 4 * n - 1),
        AB: -(2 * n**3 + 8 * n**2 + 4 * n - 1),
        AC: -(2 * n**3 + 5 * n**2 + 2 * n),
        BC: -(6 * n**2 + 4 * n - 1),
        A: -(2 * n**3 + 5 * n**2 + 2 * n),
        B: -(4 * n**2 + 2 * n - 1),
        C: -(4 * n**2 + 2 * n - 1),
        E: -(n**2),
    }
    mu = {A: 2 * n**2 * (n + 1), AB: 2 * n * (n + 1) ** 2}
    return WitnessParams(n=n, theta=theta, lam=lam, mu=mu)


def make_witness_f(n: int) -> SetFunction:
    """The order-n witness: exact integers, submodular, vanishing constraints,
    and a strictly negative value on the standard order-n instance."""
    params = witness_params(n)
    gr = witness_ground(n)
    abc_mask = gr.mask_of(("a", "b", "c"))
    table = [0] * gr.n_subsets
    for mask in range(1, gr.n_subsets):
        k = frozenset(gr.labels_of(mask & abc_mask))
        j_size = bin(mask & ~abc_mask).count("1")
        v = params.theta[k] + j_size * params.lam[k]
        if j_size == 0 and k in params.mu:
            v -= params.mu[k]
        table[mask] = v
    return SetFunction(gr, table)


def make_witness_g(n: int) -> SetFunction:
    """Monotone repair of the order-n witness; still submodular, still a
    witness (instance values are unchanged on balanced forms)."""
    return monotone_repair(make_witness_f(n))


def closed_form_value(n: int, p: int, delta: int) -> int:
    """Instance value n(n+1)(n-p-1+2*delta) for the order-p family on the
    order-n witness under the standard binding with delta empty slots."""
    if p < 1:
        raise ValueError("family order p must be >= 1")
    if not 0 <= delta <= p:
        raise ValueError("delta must lie in [0, p]")
    if p - delta > n:
        raise ValueError(f"cannot place {p - delta} disjoint nonempty subsets in {n} elements")
    return n * (n + 1) * (n - p - 1 + 2 * delta)


def standard_c_binding() -> dict[str, str]:
    return {"A": "a", "B": "b", "C": "c"}


def standard_instance(n: int, p: int):
    """The order-p instance with X_i = {x_i}; requires p <= n."""
    if p > n:
        raise ValueError("standard instance needs p <= n")
    gr = witness_ground(n)
    binding: dict[str, object] = dict(standard_c_binding())
    for i in range(1, p + 1):
        binding[f"X{i}"] = f"x{i}"
    return instantiate(builtin("c_n", p), gr, binding)


def _special_value_checks(f: SetFunction, n: int) -> list[dict]:
    gr = f.ground
    checks = [
        ("f(b:c|a)", cmi(f, "b", "c", "a"), 0),
        ("f(a:c|b)", cmi(f, "a", "c", "b"), 0),
        ("f(a:c)", cmi(f, "a", "c"), n * (n + 1) * (n - 1)),
        ("f(a:b)", cmi(f, "a", "b"), n**2 * (n + 1)),
        ("f(ab:c)", cmi(f, ("a", "b"), "c"), n * (n + 1) * (n - 1)),
    ]
    for i in range(1, n + 1):
        xi = f"x{i}"
        checks.append((f"f(b:{xi}|a)", cmi(f, "b", xi, "a"), (n + 1) * (n - 1)))
        checks.append((f"f(a:{xi}|b)", cmi(f, "a", xi, "b"), 0))
        checks.append((f"f(a:{xi})", cmi(f, "a", xi), 2 * n * (n + 1)))
    x_pool = gr.mask_of(tuple(f"x{i}" for i in range(1, n + 1)))
    ab_expected = n * (n + 1) * (n - 2)
    for alpha in submasks(x_pool):
        if alpha == 0:
            continue
        name = f"f(a:b|{gr.subset_str(alpha)})"
        checks.append((name, cmi(f, "a", "b", alpha), ab_expected))
    return [
        {"check": name, "actual": actual, "expected": expected, "ok": actual == expected}
        for name, actual, expected in checks
    ]


def _disjoint_nonempty_families(pool: int, max_parts: int) -> Iterator[tuple[int, ...]]:
    """Canonical (strictly increasing) families of disjoint nonempty submasks."""

    def rec(avail: int, floor: int, parts: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        yield parts
        if len(parts) == max_parts:
            return
        for cand in submasks(avail):
            if cand <= floor:
                continue
            yield from rec(avail & ~cand, cand, parts + (cand,))

    yield from rec(pool, 0, ())


@dataclass
class WitnessReport:
    """Full verification record for the order-n witness pair (f, g)."""

    n: int
    p_max: int
    submodular_f: bool
    submodular_g: bool
    monotone_g: bool
    special_values: list
    zero_sum_ok: bool
    zero_sum_families: int
    elemental_match_fg: bool
    instance_rows: list  # {"p", "delta", "count", "value_f", "value_g", "expected"}
    instances_match_f: bool
    instances_match_g: bool
    negative_classes: list
    unique_negative: bool
    first_violations: list

    @property
    def passed(self) -> bool:
        return (
            self.submodular_f
            and self.submodular_g
            and self.monotone_g
            and all(c["ok"] for c in self.special_values)
            and self.zero_sum_ok
            and self.elemental_match_fg
            and self.instances_match_f
            and self.instances_match_g
            and self.unique_negative
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p_max": self.p_max,
            "passed": self.passed,
            "submodular_f": self.submodular_f,
            "submodular_g": self.submodular_g,
            "monotone_g": self.monotone_g,
            "special_values": [
                {**c, "actual": str(c["actual"]), "expected": str(c["expected"])}
                for c in self.special_values
            ],
            "zero_sum_ok": self.zero_sum_ok,
            "zero_sum_families": self.zero_sum_families,
            "elemental_match_fg": self.elemental_match_fg,
            "instance_histogram": [
                {**row, "value_f": str(row["value_f"]), "value_g": str(row["value_g"]),
                 "expected": str(row["expected"])}
                for row in self.instance_rows
            ],
            "instances_match_f": self.instances_match_f,
            "instances_match_g": self.instances_match_g,
            "negative_classes": self.negative_classes,
            "unique_negative": self.unique_negative,
            "first_violations": self.first_violations,
        }


def verify_witness(n: int, p_max: int | None = None, scan_instances: bool = True) -> WitnessReport:
    """Check every defining property of the order-n witness exactly.

    Scans all elemental submodularity triples for f and g, the pinned special
    values, additivity over disjoint x-subsets, and (optionally) every
    instance of the order-p families for p up to p_max (default n+2) against
    the closed-form value, recording the (p, delta) histogram and confirming
    the single negative class (p=n, delta=0); a scan needs p_max >= n, and
    p_max >= 1 always.  Instances are evaluated in compiled chunks (see
    `instance_batches`).
    """
    if n < 2:
        raise ValueError("witness order n must be at least 2: the construction needs two registers")
    p_max = n + 2 if p_max is None else p_max
    if scan_instances and p_max < n:
        raise ValueError(f"p_max must be at least n = {n}: the negative class is p = n")
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    f = make_witness_f(n)
    g = make_witness_g(n)
    gr = f.ground

    sub_f = is_submodular(f)
    sub_g = is_submodular(g)
    mono_g = is_monotone(g)
    first_viol = []
    if not sub_f:
        first_viol.append({"function": "f", "triple": sub_f.violation, "value": str(sub_f.value)})
    if not sub_g:
        first_viol.append({"function": "g", "triple": sub_g.violation, "value": str(sub_g.value)})
    if not mono_g:
        first_viol.append({"function": "g", "pair": mono_g.violation, "value": str(mono_g.value)})

    specials = _special_value_checks(f, n)

    # additivity over disjoint nonempty x-subsets: sum f(a_i) = f(union a_i)
    x_pool = gr.mask_of(tuple(f"x{i}" for i in range(1, n + 1)))
    zero_sum_ok = True
    zero_sum_families = 0
    for parts in _disjoint_nonempty_families(x_pool, n):
        if len(parts) < 2:
            continue
        zero_sum_families += 1
        union = 0
        total = 0
        for m in parts:
            union |= m
            total += f.values[m]
        if total != f.values[union]:
            zero_sum_ok = False
            break

    # elemental forms agree on f and g, so every balanced instance will too.
    # Both vanish on the empty set, so that holds exactly when g - f is
    # modular: d(S) = d(S minus its lowest element) + d(that element).
    d = [vg - vf for vf, vg in zip(f.values, g.values)]
    elemental_match = all(d[m] == d[m & (m - 1)] + d[m & -m] for m in range(1, gr.n_subsets))

    rows: list[dict] = []
    match_f = True
    match_g = True
    negative_classes: list[dict] = []
    if scan_instances:
        binding = standard_c_binding()
        for p in range(1, p_max + 1):
            template = builtin("c_n", p)
            compiled = CompiledTemplate(template)
            on_f, on_g = compiled.bind(f), compiled.bind(g)
            is_x = np.array([slot.startswith("X") for slot in template.slots])
            classes: dict[int, dict] = {}
            for _, masks in instance_batches(template, gr, fixed=binding):
                deltas = (masks[:, is_x] == 0).sum(axis=1)
                vf, vg = on_f.evaluate(masks)[:, 0], on_g.evaluate(masks)[:, 0]
                for delta in np.flatnonzero(np.bincount(deltas)).tolist():
                    sel = np.flatnonzero(deltas == delta)
                    expected = closed_form_value(n, p, delta)
                    row = classes.get(delta)
                    if row is None:
                        row = {"p": p, "delta": delta, "count": 0,
                               "value_f": on_f.value(vf[sel[0]]),
                               "value_g": on_g.value(vg[sel[0]]), "expected": expected}
                        classes[delta] = row
                    row["count"] += len(sel)
                    match_f = match_f and bool((vf[sel] == expected * on_f.scales[0]).all())
                    match_g = match_g and bool((vg[sel] == expected * on_g.scales[0]).all())
            rows += [classes[d] for d in sorted(classes)]
        for row in rows:
            if row["expected"] < 0:
                negative_classes.append({"p": row["p"], "delta": row["delta"],
                                         "value": str(row["expected"])})
    unique_negative = negative_classes == [{"p": n, "delta": 0, "value": str(-n * (n + 1))}]
    if not scan_instances:
        unique_negative = True

    return WitnessReport(
        n=n,
        p_max=p_max,
        submodular_f=bool(sub_f),
        submodular_g=bool(sub_g),
        monotone_g=bool(mono_g),
        special_values=specials,
        zero_sum_ok=zero_sum_ok,
        zero_sum_families=zero_sum_families,
        elemental_match_fg=elemental_match,
        instance_rows=rows,
        instances_match_f=match_f,
        instances_match_g=match_g,
        negative_classes=negative_classes,
        unique_negative=unique_negative,
        first_violations=first_viol,
    )


# --- the four-party separating table ---

_E_VALUES = {
    ("A",): 5, ("B",): 5, ("C",): 2, ("D",): 4,
    ("A", "B"): 6, ("A", "C"): 5, ("A", "D"): 5,
    ("B", "C"): 5, ("B", "D"): 5, ("C", "D"): 6,
    ("A", "B", "C"): 6, ("A", "B", "D"): 6, ("A", "C", "D"): 5, ("B", "C", "D"): 5,
    ("A", "B", "C", "D"): 4,
}


def counterexample_table() -> SetFunction:
    """Four-party integer table: submodular and weakly monotone, satisfies the
    three conditional-independence constraints, yet violates the earlier
    constrained inequality I(C:D) >= I(AB:C) while satisfying all four order-1
    inequalities of the new family."""
    return SetFunction(GroundSet(("A", "B", "C", "D")), dict(_E_VALUES))


@dataclass
class CounterexampleReport:
    submodular: bool
    weakly_monotone: bool
    monotone: bool
    constraint_values: dict
    prior_value: object
    new_values: dict
    first_violations: list

    @property
    def passed(self) -> bool:
        return (
            self.submodular
            and self.weakly_monotone
            and all(v == 0 for v in self.constraint_values.values())
            and self.prior_value < 0
            and all(v >= 0 for v in self.new_values.values())
        )

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "submodular": self.submodular,
            "weakly_monotone": self.weakly_monotone,
            "monotone": self.monotone,
            "constraint_values": {k: str(v) for k, v in self.constraint_values.items()},
            "prior_inequality_value": str(self.prior_value),
            "new_inequality_values": {k: str(v) for k, v in self.new_values.items()},
            "first_violations": self.first_violations,
        }


def verify_counterexample(f: SetFunction | None = None) -> CounterexampleReport:
    """Check the separation story on a four-party table (default: builtin).

    Passing requires basic validity (submodular + weakly monotone), all three
    constraints exactly zero, a strictly negative value on the prior
    constrained inequality, and nonnegative values on the four order-1 forms.
    """
    if f is None:
        f = counterexample_table()
    if f.ground.size != 4:
        raise ValueError("counterexample verification needs a 4-party function")
    a, b, c, d = f.ground.labels
    sub = is_submodular(f)
    wmo = is_weakly_monotone(f)
    mono = is_monotone(f)
    first_viol = []
    if not sub:
        first_viol.append({"check": "submodular", "at": sub.violation, "value": str(sub.value)})
    if not wmo:
        first_viol.append({"check": "weakly_monotone", "at": wmo.violation, "value": str(wmo.value)})
    constraints = {
        f"({a}:{c}|{b})": cmi(f, a, c, b),
        f"({b}:{c}|{a})": cmi(f, b, c, a),
        f"({a}:{b}|{d})": cmi(f, a, b, d),
    }
    prior = instantiate(
        builtin("lw05"), f.ground, {"A": a, "B": b, "C": c, "D": d}
    ).functional.evaluate(f)
    binding = {"A": a, "B": b, "C": c, "X1": d}
    new_vals = {}
    for name in ("c_1", "thm1p_1", "thm2_1", "thm2p_1"):
        inst = instantiate(builtin(name), f.ground, binding)
        new_vals[name] = inst.functional.evaluate(f)
    return CounterexampleReport(
        submodular=bool(sub),
        weakly_monotone=bool(wmo),
        monotone=bool(mono),
        constraint_values=constraints,
        prior_value=prior,
        new_values=new_vals,
        first_violations=first_viol,
    )
