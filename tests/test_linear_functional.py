"""Integer-numerator LinearFunctional against a dict-of-Fraction reference.

The reference keeps one Fraction per mask, as the functional's coefficients
are defined; every operation of the integer representation must agree with
it exactly (float evaluation too: c / den is the correctly rounded float of
the coefficient, as float(Fraction) is).
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrocone.inequalities import (
    LinearFunctional,
    eliminate_party_pure,
    terms_from_obj,
    terms_to_obj,
)
from entrocone.setfn import GroundSet, SetFunction, _canon_exact

LABELS = ("a", "b", "c", "d")


# ------------------------------------------------------------ reference


def ref_coefs(gr, coefs) -> dict:
    out: dict = {}
    for key, c in coefs.items():
        mask = gr.mask_of(key)
        out[mask] = out.get(mask, Fraction(0)) + Fraction(c)
    return {m: c for m, c in sorted(out.items()) if c}


def ref_evaluate(coefs, f):
    if f.domain == "float64":
        return float(sum(float(c) * f.values[m] for m, c in coefs.items()))
    return _canon_exact(sum(c * f.values[m] for m, c in coefs.items()))


def ref_eliminate(gr, coefs, label):
    bit = 1 << gr.index(label)
    small = GroundSet(tuple(lab for lab in gr.labels if lab != label))
    out: dict = {}
    for mask, c in coefs.items():
        if mask & bit:
            mask = gr.complement(mask)
            if mask == 0:
                continue
        nm = small.mask_of(gr.labels_of(mask))
        out[nm] = out.get(nm, Fraction(0)) + c
    return small, {m: c for m, c in sorted(out.items()) if c}


# ------------------------------------------------------------ strategies

rationals = st.builds(Fraction, st.integers(-2**70, 2**70), st.integers(1, 12))


@st.composite
def exact_coefficient(draw):
    """An int, a Fraction or a 'p/q' string, small or beyond 2^63."""
    q = draw(rationals)
    kind = draw(st.sampled_from(["int", "fraction", "string"]))
    if kind == "int":
        return q.numerator
    if kind == "fraction":
        return q
    return str(q)


@st.composite
def functionals(draw):
    """(ground, coefficient mapping) with keys as masks or label tuples, so a
    mask may be given twice and its coefficients add."""
    gr = GroundSet(LABELS[: draw(st.integers(1, 4))])
    masks = st.integers(1, gr.full_mask)
    coefs = {}
    for _ in range(draw(st.integers(0, 6))):
        mask = draw(masks)
        key = mask if draw(st.booleans()) else gr.labels_of(mask)
        coefs[key] = draw(exact_coefficient())
    return gr, coefs


def set_functions(gr):
    n = gr.n_subsets - 1
    return st.one_of(
        st.lists(st.integers(-10**20, 10**20), min_size=n, max_size=n),
        st.lists(rationals, min_size=n, max_size=n),
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n),
    ).map(lambda vals: SetFunction(gr, [0] + vals))


# ------------------------------------------------------------ differential


def assert_represents(lf, ground, ref):
    """lf is the canonical integer form of the reference coefficients: one
    positive denominator in lowest terms, masks ascending, no zero entry,
    equal (and hashing equal) to the functional built from `ref` itself."""
    assert lf.den >= 1 and gcd(lf.den, *lf.nums.values()) == 1
    assert list(lf.nums) == sorted(lf.nums) and all(lf.nums.values())
    assert lf.coefs == ref and all(isinstance(c, Fraction) for c in lf.coefs.values())
    twin = LinearFunctional(ground, ref)
    assert twin == lf and hash(twin) == hash(lf)


@settings(max_examples=300, deadline=None)
@given(functionals(), st.data())
def test_integer_functional_matches_fraction_reference(problem, data):
    gr, coefs = problem
    lf = LinearFunctional(gr, coefs)
    ref = ref_coefs(gr, coefs)
    assert_represents(lf, gr, ref)
    assert lf.is_zero() == (not ref)

    f = data.draw(set_functions(gr))
    got, want = lf.evaluate(f), ref_evaluate(ref, f)
    assert got == want and type(got) is type(want)

    k = data.draw(exact_coefficient())
    scaled = lf.scale(k)
    assert_represents(scaled, gr, {m: c * Fraction(k) for m, c in ref.items() if Fraction(k)})

    assert (lf.scale(2) == lf) == lf.is_zero()

    label = data.draw(st.sampled_from(gr.labels)) if gr.size > 1 else None
    if label is not None:
        small, want_coefs = ref_eliminate(gr, ref, label)
        reduced = eliminate_party_pure(lf, label)
        assert reduced.ground == small
        assert_represents(reduced, small, want_coefs)

    obj = terms_to_obj(lf.coefs, gr)
    assert obj == [{"subset": list(gr.labels_of(m)), "coef": str(c)} for m, c in ref.items()]
    assert terms_from_obj(obj, gr) == lf


def test_float_coefficients_are_refused():
    gr = GroundSet(("a",))
    with pytest.raises(ValueError):
        LinearFunctional(gr, {1: 0.5})
    with pytest.raises(ValueError):
        LinearFunctional(gr, {1: 1}).scale(0.5)
