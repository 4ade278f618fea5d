"""Exact integer witness functions for independence of the constrained family,
and the four-party table separating the constrained inequalities.

The order-n witness lives on parties (a, b, c, x1..xn) and is symmetric in
x1..xn, so it is a table over the types of `witness_space(n)`: a subset
with (a,b,c)-part K and j x's takes a base value theta[K], plus j times a
per-x-element slope lam[K], minus a correction mu[K] supported on {a} and
{a,b} alone.  `verify_witness` checks f and its monotone repair g on that
table, the c_p instances' slot masks read as types; `make_witness_f` and
`make_witness_g` lift f and g to the full ground.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .setfn import (
    GroundSet,
    SetFunction,
    TypeSpace,
    cmi,
    extensions,
    is_monotone,
    is_submodular,
    is_weakly_monotone,
    monotone_repair,
)
from .inequalities import builtin, instance_batches, instantiate

# the largest order the witness is built at: it bounds the lifts of f and g
# (2^24 values) and the c_p scan on the full ground, which lists more still
MAX_WITNESS_ORDER = 21


def witness_space(n: int) -> TypeSpace:
    """The types of the subsets of (a, b, c, x1..xn)."""
    if n < 1:
        raise ValueError("witness order n must be >= 1")
    return TypeSpace(("a", "b", "c"), n)


def witness_ground(n: int) -> GroundSet:
    return witness_space(n).ground


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


def _witness_types(n: int) -> SetFunction:
    """The order-n witness as a point on `witness_space(n)`: the value of
    type (K, j) is theta[K] + j * lam[K], less mu[K] when j = 0."""
    if n > MAX_WITNESS_ORDER:
        raise ValueError(f"witness order {n} exceeds the cap of {MAX_WITNESS_ORDER}: its lifts "
                         f"hold 2^{n + 3} values and its c_p scan more instances still")
    params = witness_params(n)
    space = witness_space(n)
    keys = [frozenset(space.labels_of(K)) for K in range(8)]
    return SetFunction(space, [params.theta[key] + j * params.lam[key]
                               - (0 if j else params.mu.get(key, 0))
                               for j in range(n + 1) for key in keys])


def make_witness_f(n: int) -> SetFunction:
    """The order-n witness: exact integers, submodular, vanishing constraints,
    and a strictly negative value on the standard order-n instance."""
    types = _witness_types(n)
    return types.ground.lift(types)


def make_witness_g(n: int) -> SetFunction:
    """Monotone repair of the order-n witness; still submodular, still a
    witness (instance values are unchanged on balanced forms).  The repair
    is taken on the types and lifted."""
    types = _witness_types(n)
    return types.ground.lift(monotone_repair(types))


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
    """The pinned conditional mutual informations of the witness f, once per
    type, as f reads them: five on a, b and c, three on a, b and one x, and
    f(a:b|{jx}) on a set of j x's for j = 1..n, 8 + n entries."""
    space, v = f.ground, f.values
    a, b, c, x = space.parties[:4]

    def cmi_of(s, t, g=0):  # on the types, which add up over disjoint sets
        return v[s + g] + v[t + g] - v[g] - v[s + t + g]

    checks = [
        ("f(b:c|a)", cmi_of(b, c, a), 0),
        ("f(a:c|b)", cmi_of(a, c, b), 0),
        ("f(a:c)", cmi_of(a, c), n * (n + 1) * (n - 1)),
        ("f(a:b)", cmi_of(a, b), n**2 * (n + 1)),
        ("f(ab:c)", cmi_of(a + b, c), n * (n + 1) * (n - 1)),
        ("f(b:x|a)", cmi_of(b, x, a), (n + 1) * (n - 1)),
        ("f(a:x|b)", cmi_of(a, x, b), 0),
        ("f(a:x)", cmi_of(a, x), 2 * n * (n + 1)),
    ]
    checks += [(f"f(a:b|{space.subset_str(j * x)})", cmi_of(a, b, j * x), n * (n + 1) * (n - 2))
               for j in range(1, n + 1)]
    return [
        {"check": name, "actual": Fraction(actual), "expected": Fraction(expected),
         "ok": actual == expected}
        for name, actual, expected in checks
    ]


@dataclass
class WitnessReport:
    """Full verification record for the order-n witness pair (f, g)."""

    n: int
    p_max: int  # the largest order scanned, n + 2
    submodular_f: bool
    submodular_g: bool
    monotone_g: bool
    special_values: list
    zero_sum_ok: bool
    elemental_match_fg: bool
    instance_histogram: list  # {"p", "delta", "count", "value_f", "value_g", "expected"}
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


def verify_witness(n: int) -> WitnessReport:
    """Check every defining property of the order-n witness exactly.

    f and g are the witness's table over the types of `witness_space(n)`
    and its `monotone_repair`; every check reads them on the types, and
    none lifts them to the full ground.  Scans the elemental triples of f
    and g and the monotonicity pairs of g, one per orbit, the pinned special
    values, additivity over disjoint x-subsets, and every instance of the
    order-p families for p up to n+2, the orders `independence_problem`
    uses, against the closed-form value, recording the (p, delta) histogram
    and confirming the single negative class (p=n, delta=0).  The instances
    come in chunks (`instance_batches`), their slot masks mapped to slot
    types (`TypeSpace.types_of`) that the template's `bind` reads on f and g.
    """
    if n < 2:
        raise ValueError("witness order n must be at least 2: the construction needs two registers")
    f = _witness_types(n)
    g = monotone_repair(f)
    space = f.ground

    sub_f = is_submodular(f)
    sub_g = is_submodular(g)
    mono_g = is_monotone(g)
    first_viol = [{"function": name, at: rep.violation, "value": str(rep.value)}
                  for name, at, rep in (("f", "triple", sub_f), ("g", "triple", sub_g),
                                        ("g", "pair", mono_g)) if not rep]

    specials = _special_value_checks(f, n)

    # additivity over disjoint nonempty x-subsets, sum f(a_i) = f(union a_i).
    # With f(empty) = 0 that holds exactly when f is modular on the x-subsets:
    # a set of j x's takes j times the value of one.
    x = space.type_of(space.ground.mask_of("x1"))
    zero_sum_ok = all(f.values[j * x] == j * f.values[x] for j in range(n + 1))

    # elemental forms agree on f and g, so every balanced instance will too.
    # Both vanish on the empty set, so that holds exactly when g - f is
    # modular: adding a party i outside a set adds d(i).
    d = [vg - vf for vf, vg in zip(f.values, g.values)]
    elemental_match = all(d[a + i] == d[a] + d[i] for a, i in extensions(space))

    rows, match_f, match_g = [], True, True
    binding = standard_c_binding()
    for p in range(1, n + 3):
        template = builtin("c_n", p)
        on_f, on_g = template.bind(f), template.bind(g)
        is_x = np.array([slot.startswith("X") for slot in template.slots])
        classes: dict[int, dict] = {}
        for _, masks in instance_batches(template, space.ground, fixed=binding):
            deltas = (masks[:, is_x] == 0).sum(axis=1)
            terms = template.terms(space.types_of(masks))
            vf, vg = on_f.evaluate(terms)[:, 0], on_g.evaluate(terms)[:, 0]
            for delta in np.flatnonzero(np.bincount(deltas)).tolist():
                sel = np.flatnonzero(deltas == delta)
                expected = closed_form_value(n, p, delta)
                row = classes.setdefault(delta, {
                    "p": p, "delta": delta, "count": 0, "value_f": on_f.value(vf[sel[0]]),
                    "value_g": on_g.value(vg[sel[0]]), "expected": Fraction(expected)})
                row["count"] += len(sel)
                match_f = match_f and bool((vf[sel] == expected * on_f.scales[0]).all())
                match_g = match_g and bool((vg[sel] == expected * on_g.scales[0]).all())
        rows += [classes[d] for d in sorted(classes)]
    negative_classes = [{"p": row["p"], "delta": row["delta"], "value": str(row["expected"])}
                        for row in rows if row["expected"] < 0]
    unique_negative = negative_classes == [{"p": n, "delta": 0, "value": str(-n * (n + 1))}]

    return WitnessReport(
        n=n,
        p_max=n + 2,
        submodular_f=bool(sub_f),
        submodular_g=bool(sub_g),
        monotone_g=bool(mono_g),
        special_values=specials,
        zero_sum_ok=zero_sum_ok,
        elemental_match_fg=elemental_match,
        instance_histogram=rows,
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
    prior_inequality_value: object
    new_inequality_values: dict
    first_violations: list

    @property
    def passed(self) -> bool:
        return (
            self.submodular
            and self.weakly_monotone
            and all(v == 0 for v in self.constraint_values.values())
            and self.prior_inequality_value < 0
            and all(v >= 0 for v in self.new_inequality_values.values())
        )


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
    value = Fraction if f.is_exact else float
    constraints = {
        f"({a}:{c}|{b})": value(cmi(f, a, c, b)),
        f"({b}:{c}|{a})": value(cmi(f, b, c, a)),
        f"({a}:{b}|{d})": value(cmi(f, a, b, d)),
    }
    prior = instantiate(
        builtin("lw05"), f.ground, {"A": a, "B": b, "C": c, "D": d}
    ).functional.evaluate(f)
    binding = {"A": a, "B": b, "C": c, "X1": d}
    new_vals = {}
    for name in ("c_1", "thm1p_1", "thm2_1", "thm2p_1"):
        inst = instantiate(builtin(name), f.ground, binding)
        new_vals[name] = value(inst.functional.evaluate(f))
    return CounterexampleReport(
        submodular=bool(sub),
        weakly_monotone=bool(wmo),
        monotone=bool(mono),
        constraint_values=constraints,
        prior_inequality_value=value(prior),
        new_inequality_values=new_vals,
        first_violations=first_viol,
    )
