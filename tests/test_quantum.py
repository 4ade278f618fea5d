"""Density matrices, entropy vectors, the constrained family, measurement."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entrocone import quantum
from entrocone.certify import proof_certificate
from entrocone.setfn import is_submodular, is_weakly_monotone, to_obj
from entrocone.quantum import (
    ConstrainedFamily,
    DiagonalFamily,
    FamilyDims,
    HaarMixedFamily,
    LW05Family,
    MultipartyState,
    check_theorem,
    constrained_family_sample,
    entropy_vector,
    gram_density,
    lw05_family_sample,
    measure_and_register,
    partial_trace,
    purify,
    trial_seed,
    von_neumann_entropy,
    _rng,
    _trace_one,
)

LOG2 = np.log(2.0)
SEEDS = st.integers(0, 2**32 - 1)


def _gram(dim, rng):
    """A full-rank Gram density matrix on `dim` from the stream of `rng`."""
    return gram_density(rng.standard_normal(2 * dim * dim), dim, dim)


def qubits(n):
    return tuple("ABCDEFG"[:n]), (2,) * n


def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return MultipartyState(("A", "B"), (2, 2), np.outer(v, v.conj()))


def ghz_state():
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / np.sqrt(2)
    return MultipartyState(("A", "B", "C"), (2, 2, 2), np.outer(v, v.conj()))


# ------------------------------------------------------------ entropies


def test_entropy_of_pure_and_mixed():
    labels, dims = qubits(1)
    pure = MultipartyState(labels, dims, np.diag([1.0, 0.0]).astype(complex))
    mixed = MultipartyState(labels, dims, np.eye(2, dtype=complex) / 2)
    assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(mixed) == pytest.approx(1.0, abs=1e-12)


def test_bell_state_marginals():
    h = entropy_vector(bell_state())
    assert h("A") == pytest.approx(1.0, abs=1e-10)
    assert h("B") == pytest.approx(1.0, abs=1e-10)
    assert h(("A", "B")) == pytest.approx(0.0, abs=1e-10)


def test_ghz_entropy_vector():
    h = entropy_vector(ghz_state())
    for side in ("A", "B", "C", ("A", "B"), ("A", "C"), ("B", "C")):
        assert h(side) == pytest.approx(1.0, abs=1e-10)
    assert h(("A", "B", "C")) == pytest.approx(0.0, abs=1e-10)


def test_maximally_mixed_two_qubits():
    rho = np.eye(4, dtype=complex) / 4
    h = entropy_vector(MultipartyState(("A", "B"), (2, 2), rho))
    assert abs(h("A") - 1.0) <= 1e-12
    assert abs(h("B") - 1.0) <= 1e-12
    assert abs(h(("A", "B")) - 2.0) <= 1e-12


def test_product_state_additivity():
    rng = _rng(5)
    a = _gram(2, rng)
    b = _gram(3, rng)
    st = MultipartyState(("A", "B"), (2, 3), np.kron(a, b))
    h = entropy_vector(st)
    assert h(("A", "B")) == pytest.approx(h("A") + h("B"), abs=1e-10)


def test_entropy_vector_satisfies_basic_inequalities():
    labels, dims = qubits(3)
    for seed in range(6):
        rho = _gram(8, _rng(seed))
        h = entropy_vector(MultipartyState(labels, dims, rho))
        assert is_submodular(h, tol=1e-9)
        assert is_weakly_monotone(h, tol=1e-9)


# ------------------------------------------------------------ partial trace


def test_partial_trace_agrees_with_kron_structure():
    rng = _rng(11)
    a = _gram(2, rng)
    b = _gram(2, rng)
    st = MultipartyState(("A", "B"), (2, 2), np.kron(a, b))
    ra = partial_trace(st, ("A",))
    assert ra.labels == ("A",)
    assert np.allclose(ra.rho, a, atol=1e-12)
    assert np.trace(ra.rho) == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_keep_order_is_declared_order():
    rng = _rng(13)
    rho = _gram(8, rng)
    st = MultipartyState(("A", "B", "C"), (2, 2, 2), rho)
    # keep order must not matter: result is in state label order
    one = partial_trace(st, ("A", "C"))
    two = partial_trace(st, ("C", "A"))
    assert one.labels == two.labels == ("A", "C")
    assert np.allclose(one.rho, two.rho)


@settings(max_examples=40, deadline=None)
@given(dims=st.tuples(st.integers(1, 5), st.integers(1, 5)), size=st.integers(1, 3),
       seed=SEEDS)
def test_trace_one_matches_partial_trace_on_a_bipartite_split(dims, size, seed):
    """`_trace_one`, which takes the constrained family's (C, X1..Xn)
    marginal and the block factors' splits, gives each matrix of a stack
    the marginals of `partial_trace`'s einsum."""
    rng = _rng(seed)
    stack = np.stack([_gram(math.prod(dims), rng) for _ in range(size)])
    for pos, keep in ((1, "P"), (0, "Q")):
        got = _trace_one(stack, dims, pos)
        for t, rho in enumerate(stack):
            want = partial_trace(MultipartyState(("P", "Q"), dims, rho), keep).rho
            assert np.abs(got[t] - want).max() <= 1e-12


# ------------------------------------------------------------ purification


def test_purify_round_trip_and_symmetry():
    rng = _rng(17)
    for dims in ((2, 2), (2, 3)):
        labels = ("A", "B")
        rho = _gram(int(np.prod(dims)), rng)
        st = MultipartyState(labels, dims, rho)
        ext = purify(st)
        assert ext.labels == ("A", "B", "E")
        # the original marginal is recovered
        back = partial_trace(ext, labels)
        assert np.max(np.abs(back.rho - rho)) <= 1e-10
        # global purity
        h = entropy_vector(ext)
        assert h(ext.labels) <= 1e-8
        # S(J) = S(J complement) for every J
        gr = h.ground
        worst = max(
            abs(h.value(m) - h.value(gr.complement(m))) for m in gr.iter_masks()
        )
        assert worst <= 1e-8


# ------------------------------------------------------------ family


def test_family_dims_and_labels():
    fd = FamilyDims.default(2)
    assert fd == FamilyDims((1, 1), (1, 1), 2, ((2, 2), (2, 2)))
    family = ConstrainedFamily(fd)
    assert family.labels == ("A", "B", "C", "X1", "X2")
    assert family.dims == (2, 2, 2, 4, 4)
    family = ConstrainedFamily(FamilyDims((1, 2), (2, 1), 3, ((2, 1), (1, 2))))
    assert family.labels == ("A", "B", "C", "X1", "X2")
    assert family.dims == (3, 3, 3, 2, 2)
    with pytest.raises(ValueError):
        FamilyDims(a_blocks=(1, 1), b_blocks=(1,), dim_c=2, x_halves=((2, 2),))
    for n, blocks in ((0, 2), (1, 0)):
        with pytest.raises(ValueError):
            FamilyDims.default(n, blocks=blocks)


def test_constrained_family_constraints_vanish():
    for n in (1, 2):
        state = constrained_family_sample(FamilyDims.default(n), seed=trial_seed(42, n))
        h = entropy_vector(state)
        # I(A:C|B) and I(B:C|A) both vanish by construction
        from entrocone.setfn import cmi

        assert abs(cmi(h, "A", "C", "B")) <= 1e-9
        assert abs(cmi(h, "B", "C", "A")) <= 1e-9


def _zero_padded_haar(seed, dims, pads):
    """A Haar-mixed state on `dims`, embedded into local dimensions
    dims + pads by zero rows and columns."""
    family = HaarMixedFamily("ABC"[:len(dims)], dims)
    rho = family.build(family.draw(_rng(seed))).rho
    t = np.pad(rho.reshape(dims + dims), [(0, p) for p in pads + pads])
    big = tuple(d + p for d, p in zip(dims, pads))
    total = int(np.prod(big))
    return MultipartyState(family.labels, big, t.reshape(total, total))


def _zero_diagonal_with_live_row():
    """Hermitian, unit trace, not positive: diagonal entry 1 is zero while
    row 1 carries an entry 0.1, so that row must not be dropped."""
    rho = np.diag([0.5, 0.0, 0.25, 0.25]).astype(complex)
    rho[0, 1] = rho[1, 0] = 0.1
    return MultipartyState(("A", "B"), (2, 2), rho)


@st.composite
def family_states(draw):
    """A constrained-family state of a random shape (n <= 3, one to three
    uneven A/B blocks, halves of size 1, Gram or diagonal factors, and with
    two or more blocks possibly one weight driven to ~1e-14)."""
    seed = draw(SEEDS)
    sizes = st.integers(1, 2)
    k = draw(st.integers(1, 3))
    fdims = FamilyDims(
        a_blocks=tuple(draw(sizes) for _ in range(k)),
        b_blocks=tuple(draw(sizes) for _ in range(k)),
        dim_c=draw(sizes),
        x_halves=tuple((draw(sizes), draw(sizes)) for _ in range(draw(st.integers(1, 3)))),
    )
    family = ConstrainedFamily(fdims, diagonal=draw(st.booleans()))
    assume(math.prod(family.dims) <= 256)
    params = family.draw(_rng(seed))
    if k > 1 and draw(st.booleans()):
        params[draw(st.integers(0, k - 1))] = 1e-7  # weight ~1e-14 after squaring
    return family.build(params)


@st.composite
def structured_states(draw):
    """A zero-padded Haar state, a non-positive matrix with a live row of zero
    diagonal, or a constrained-family state."""
    kind = draw(st.sampled_from(("constrained", "padded-haar", "zero-diagonal")))
    if kind == "zero-diagonal":
        return _zero_diagonal_with_live_row()
    if kind == "constrained":
        return draw(family_states())
    sizes = st.integers(1, 2)
    dims = tuple(draw(st.lists(sizes, min_size=2, max_size=3)))
    pads = tuple(draw(st.lists(st.integers(0, 2), min_size=len(dims), max_size=len(dims))))
    return _zero_padded_haar(draw(SEEDS), dims, pads)


@settings(max_examples=80, deadline=None)
@given(structured_states())
def test_entropy_vector_matches_marginal_by_marginal_reference(state):
    """Dropping rows and columns that are zero, and taking a
    constrained-family state's marginals from its factors, change cost, not
    values: every subset agrees with a dense eigvalsh of its partial trace."""
    h = entropy_vector(state)
    gr = h.ground
    for mask in gr.iter_masks():
        ref = von_neumann_entropy(partial_trace(state, gr.labels_of(mask)))
        assert abs(h.value(mask) - ref) <= 1e-12, gr.subset_str(mask)


# ------------------------------------------------------------ factored route


def _sparse_gram(rng, dims):
    """A random density matrix on `dims` whose rows for a random set of basis
    states are zero, so matrices of one stack differ in support."""
    d = math.prod(dims)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    g[rng.random(d) < 0.3] = 0
    g[0, 0] = 1  # never all zero
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _marginal_entropies(stack, dims, masks=None):
    """The program's entropies and clipped masses of the marginals on
    `masks` of each matrix of one stack (T, d, d) on parties of `dims`."""
    program, (cols,) = quantum._entropy_program(((tuple(dims), masks, 1),))
    return quantum._run_program(program, [stack], len(stack))[:, :, cols[0]]


def reference_marginal_entropies(stack, dims, masks=None):
    """The per-stack reference: one stack on its own, level by level along
    `_trace_plan(dims)`, with one `eigvalsh` call per dimension of each
    level's marginals asked for, as the library took each factor stack
    before its stacks went through one program."""
    dims = tuple(dims)
    m = len(dims)
    full = sum(1 << i for i in range(m) if dims[i] > 1)
    want = quantum._mask_array(masks, m) & full
    asked = set(want.tolist())
    traced = set(asked)
    plan = quantum._trace_plan(dims)
    for entries in reversed(plan[1:]):
        traced.update(parent for mask, parent, *_ in entries if mask in traced)
    values = np.zeros((2, len(stack), 1 << m))
    level = {}
    for entries in plan:
        entries = tuple(e for e in entries if e[0] in traced)
        if not entries:
            break
        by_dim = {}
        for mask, *_ in entries:
            if mask in asked:
                dim = math.prod(dims[i] for i in range(m) if mask >> i & 1)
                by_dim.setdefault(dim, []).append(mask)
        level = {mask: stack if parent is None else _trace_one(level[parent], sub, pos)
                 for mask, parent, sub, pos in entries}
        for group in by_dim.values():
            w = np.linalg.eigvalsh(np.concatenate([level[mask] for mask in group]))
            s, c = quantum._spectrum_entropy(w.reshape(len(group), len(stack), -1))
            values[0][:, group], values[1][:, group] = s.T, c.T
    return values[0][:, want], values[1][:, want]


def reference_factor_spectra(fs, wanted=None):
    """`_factor_spectra` of the block factors `fs` on the per-stack
    reference: each chi shape group, the xi_k and the (C, X1..Xn) marginals
    in their own passes; nothing is kept."""
    T, K, first = len(fs), fs[0].weights.size, fs[0]
    chi_m, xi_m, cx_m = wanted or (None, None, None)
    chi_w = 1 << (len(first.xi_shape) + 1) if wanted is None else len(chi_m)
    xi_w = 1 << len(first.xi_shape) if wanted is None else len(xi_m)
    chi = np.zeros((2, T, K, chi_w))
    for g, (shape, ks, _) in enumerate(first.chis):
        got = reference_marginal_entropies(np.concatenate([f.chis[g][2] for f in fs]), shape, chi_m)
        chi[:, :, list(ks)] = np.reshape(got, (2, T, len(ks), chi_w))
    xi = np.reshape(reference_marginal_entropies(np.concatenate([f.xis for f in fs]),
                                                 first.xi_shape, xi_m), (2, T, K, xi_w))
    cx = reference_marginal_entropies(np.array([f.cx.rho for f in fs]), first.cx.dims, cx_m)
    return [*chi, *xi, *cx]


@settings(max_examples=40, deadline=None)
@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       size=st.integers(1, 4), data=st.data(), seed=SEEDS)
def test_marginal_entropies_do_not_depend_on_the_stack(dims, size, data, seed):
    rng = _rng(seed)
    stack = np.stack([_sparse_gram(rng, dims) for _ in range(size)])
    alone = _marginal_entropies(stack[:1], dims)
    at = data.draw(st.integers(0, size - 1))
    inside = _marginal_entropies(np.roll(stack, at, axis=0), dims)
    for got, want in zip(inside, alone):
        assert np.array_equal(got[at], want[0])  # each matrix is diagonalized alone


def _measured(seed, zero_block=None):
    """A dense measured state of one constrained shape (C of dimension 1):
    block diagonal in A and in R, so rows vanish in its matrix and in every
    marginal on A or R; with `zero_block`, that block has weight zero and
    its rows vanish as well."""
    dims = FamilyDims((1, 2), (2, 1), 1, ((2, 1),))
    family = ConstrainedFamily(dims)
    params = family.draw(_rng(seed))
    if zero_block is not None:
        params[zero_block] = 0.0
    dense = MultipartyState(family.labels, family.dims, family.build(params).rho)
    return measure_and_register(dense, "A", dims.a_blocks)


@settings(max_examples=20, deadline=None)
@given(seeds=st.lists(SEEDS, min_size=2, max_size=4), zero=st.integers(0, 1))
def test_grouped_kernel_matches_each_marginal(seeds, zero):
    """One stack whose marginals have zero rows, in different places when one
    state has a block of weight zero: every value and clipped mass is that
    of its marginal's own dense eigvalsh."""
    states = [_measured(s) for s in seeds[1:]] + [_measured(seeds[0], zero)]
    stack = np.stack([s.rho for s in states])
    values, clipped = _marginal_entropies(stack, states[0].dims)
    gr = states[0].ground
    for t, state in enumerate(states):
        for mask in gr.iter_masks():
            marginal = partial_trace(state, gr.labels_of(mask))
            w = np.linalg.eigvalsh(marginal.rho)
            assert abs(values[t, mask] - von_neumann_entropy(marginal)) <= 1e-12
            assert abs(clipped[t, mask] - np.abs(w[w <= 0]).sum()) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(dims=st.lists(st.integers(2, 3), min_size=1, max_size=3), data=st.data(), seed=SEEDS)
def test_dimension_one_party_leaves_every_value_unchanged(dims, data, seed):
    family = HaarMixedFamily(tuple("ABC"[:len(dims)]), dims)
    state = family.build(family.draw(_rng(seed)))
    at = data.draw(st.integers(0, len(dims)))
    labels = family.labels[:at] + ("T",) + family.labels[at:]
    wider = MultipartyState(labels, dims[:at] + [1] + dims[at:], state.rho)
    h, h_wide = entropy_vector(state), entropy_vector(wider)
    for mask in h.ground.iter_masks():
        # the mask's bits at and above `at` move up one place past T's bit
        low = mask & ((1 << at) - 1)
        wide = low | (mask - low) << 1
        assert h_wide.value(wide) == h_wide.value(wide | 1 << at) == h.value(mask)


@st.composite
def table_stacks(draw):
    """1-4 states of one layout, and the dims of their parties: Haar-mixed
    states with parties of dimension 1, ConstrainedFamily builds, or their
    states measured into R on their own A blocks (ground n + 4)."""
    kind = draw(st.sampled_from(("haar", "constrained", "measured")))
    seeds = draw(st.lists(SEEDS, min_size=1, max_size=4))
    if kind == "haar":
        dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)
                    .filter(lambda ds: math.prod(ds) <= 36))
        family = HaarMixedFamily(tuple("ABCD"[:len(dims)]), dims)
        return [family.build(family.draw(_rng(s))) for s in seeds], tuple(dims)
    sizes = st.integers(1, 2)
    k = draw(st.integers(1, 3))
    fdims = FamilyDims(tuple(draw(sizes) for _ in range(k)), tuple(draw(sizes) for _ in range(k)),
                       draw(sizes), tuple((draw(sizes), draw(sizes))
                                          for _ in range(draw(st.integers(1, 2)))))
    family = ConstrainedFamily(fdims, diagonal=draw(st.booleans()))
    states = [family.build(family.draw(_rng(s))) for s in seeds]
    if kind == "measured":
        states = [measure_and_register(s, "A", fdims.a_blocks) for s in states]
    return states, states[0].dims


def _mask_list(dims, data):
    """A list of distinct masks of parties `dims`, and possibly mask 0 and
    the mask of the parties of dimension 1 alone."""
    m = len(dims)
    masks = data.draw(st.lists(st.integers(0, (1 << m) - 1), unique=True, max_size=1 << m))
    if data.draw(st.booleans()):
        masks += [0, sum(1 << i for i, d in enumerate(dims) if d == 1)]
    return masks


@st.composite
def two_chi_groups(draw):
    """1-4 builds of one layout whose chi_k fall in two shape groups."""
    family = ConstrainedFamily(FamilyDims((1, 2, 1), (2, 1, 2), 2, ((2, 1), (1, 2))),
                               diagonal=draw(st.booleans()))
    assert len(family.chi_groups) == 2
    seeds = draw(st.lists(SEEDS, min_size=1, max_size=4))
    states = [family.build(family.draw(_rng(s))) for s in seeds]
    return states, states[0].dims


@settings(max_examples=80, deadline=None)
@given(stack=st.one_of(table_stacks(), two_chi_groups()), data=st.data())
def test_one_program_matches_the_per_stack_reference(stack, data):
    """The program over every stack of a layout gives, to the bit, the
    values and clipped masses of each stack taken on its own, on a list of
    masks and on the full table, at T = 1..4: a dense stack's marginals,
    or the factor marginals a factored state's masks read."""
    states, dims = stack
    masks = None if data.draw(st.booleans()) else tuple(_mask_list(dims, data))
    if states[0].factors is None:
        stacked = np.array([s.rho for s in states])
        got = _marginal_entropies(stacked, dims, masks)
        want = reference_marginal_entropies(stacked, dims, masks)
    else:
        fs = [s.factors for s in states]
        wanted = quantum._factored_plan(len(fs[0].xi_shape) - 1, len(dims), masks)[3]
        want = reference_factor_spectra(fs, wanted)
        got = quantum._factor_spectra(fs, wanted)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(stack=table_stacks(), data=st.data())
def test_a_mask_list_takes_the_full_tables_columns(stack, data):
    """`entropy_table(states, masks)` is the full table's columns on `masks`,
    to the bit, on both outputs; it keeps no spectra on the factors."""
    states, dims = stack
    masks = _mask_list(dims, data)
    got = quantum.entropy_table(states, masks)
    assert all(s.factors is None or s.factors.spectra is None for s in states)
    full = quantum.entropy_table(states)
    for part, whole in zip(got, full):
        assert part.shape == (len(states), len(masks))
        assert np.array_equal(part, whole[:, masks])


@pytest.mark.parametrize("factored", [False, True], ids=["dense", "factored"])
def test_a_mask_outside_the_ground_is_refused(factored):
    # four parties, masks 0..15: neither -1 nor 16 may alias another column
    if factored:
        state = constrained_family_sample(FamilyDims.default(1))
    else:
        state = MultipartyState(*qubits(4), np.eye(16) / 16)
    for mask in (-1, 16):
        with pytest.raises(ValueError, match="lies in 0..15"):
            quantum.entropy_table([state], [1, mask])


def test_a_tiny_block_weight_is_kept_by_both_routes():
    family = ConstrainedFamily(FamilyDims.default(2))
    params = family.draw(_rng(7))
    params[0] = 1e-7
    state = family.build(params)
    assert 0 < state.factors.weights[0] < 1e-14
    diag, dense_diag = {}, {}
    h = entropy_vector(state, diagnostics=diag)
    dense = MultipartyState(state.labels, state.dims, state.rho)
    h_dense = entropy_vector(dense, diagnostics=dense_diag)
    assert np.max(np.abs(np.array(h.values) - np.array(h_dense.values))) <= 1e-12
    # only eigenvalues that rounding leaves at or below zero are dropped
    assert diag["clipped_mass"] <= 1e-15 and dense_diag["clipped_mass"] <= 1e-15


def test_factored_route_is_the_dense_entropy_at_a_small_block_weight():
    # block weight ~1.8e-11: a rule that cut the weight and the product
    # spectrum at different places would part the routes by ~2e-10 here
    family = ConstrainedFamily(
        FamilyDims((1, 1), (1, 1), 1, ((2, 1), (2, 1), (2, 2))), diagonal=True)
    params = family.draw(_rng(9))
    params[0] = 3e-6
    state = family.build(params)
    assert 1e-11 < state.factors.weights[0] < 1e-10
    h = entropy_vector(state)
    gr = h.ground
    for mask in gr.iter_masks():
        ref = von_neumann_entropy(partial_trace(state, gr.labels_of(mask)))
        assert abs(h.value(mask) - ref) <= 1e-12, gr.subset_str(mask)


def test_check_theorem_takes_two_entropy_vectors_both_factored(monkeypatch):
    calls, factored = [], []
    real_vector, real_factored = quantum.entropy_vector, quantum._factored_entropies
    monkeypatch.setattr(quantum, "entropy_vector",
                        lambda st, **kw: calls.append(st.labels) or real_vector(st, **kw))
    monkeypatch.setattr(quantum, "_factored_entropies",
                        lambda sts, *args: factored.extend(s.labels for s in sts)
                        or real_factored(sts, *args))
    monkeypatch.setattr(quantum, "_measured_matrix",
                        lambda *a: pytest.fail("dense sigma was built"))
    dims = FamilyDims.default(2)
    state = constrained_family_sample(dims, seed=trial_seed(3, 2))
    rep = check_theorem(state, dims.a_blocks)
    assert rep.passed and rep.sigma_route == "factored"
    # rho, then sigma with its register R, both by the factors
    assert calls == factored == [state.labels, state.labels + ("R",)]


def test_measured_state_makes_no_eigvalsh_call_of_its_own(monkeypatch):
    dims = FamilyDims.default(3, blocks=3)
    state = constrained_family_sample(dims, seed=trial_seed(4, 3))
    sigma = measure_and_register(state, "A", dims.a_blocks)
    assert sigma.factors is state.factors
    entropy_vector(state)
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or real(a))
    h = entropy_vector(sigma)
    assert calls == [] and h.ground.labels == state.labels + ("R",)


@settings(max_examples=60, deadline=None)
@given(family_states())
def test_factored_sigma_matches_the_dense_measurement(state):
    """sigma's index map equals the entropy vector of the dense measured
    state, and check_theorem's report equals the dense route's."""
    a_blocks = state.factors.a_blocks
    dense = MultipartyState(state.labels, state.dims, state.rho)
    cx = partial_trace(dense, state.labels[2:]).rho
    assert np.max(np.abs(state.factors.cx.rho - cx)) <= 1e-15
    h = entropy_vector(measure_and_register(state, "A", a_blocks))
    ref = entropy_vector(measure_and_register(dense, "A", a_blocks))
    assert h.ground == ref.ground
    for mask in h.ground.iter_masks():
        assert abs(h.value(mask) - ref.value(mask)) <= 1e-12, h.ground.subset_str(mask)
    got, want = to_obj(check_theorem(state, a_blocks)), to_obj(check_theorem(dense, a_blocks))
    assert (got.pop("sigma_route"), want.pop("sigma_route")) == ("factored", "dense")
    assert got.pop("passed") == want.pop("passed")
    for key in ("n", "tol"):
        assert got.pop(key) == want.pop(key)
    for key in ("constraint_residuals", "slacks", "hypotheses"):
        a, b = got.pop(key), want.pop(key)
        assert list(a) == list(b) and all(abs(a[k] - b[k]) <= 1e-12 for k in a), key
    assert got.keys() == want.keys()
    assert all(abs(got[k] - want[k]) <= 1e-12 for k in got), got


@settings(max_examples=60, deadline=None)
@given(family_states(), st.data())
def test_block_partial_trace_matches_the_dense_one(state, data):
    """The block route of partial_trace, on rho and on the factored sigma,
    equals the dense route on the placed matrix, and sigma's blocks place
    exactly the dense measurement's matrix."""
    a_blocks = state.factors.a_blocks
    sigma = measure_and_register(state, "A", a_blocks)
    assert np.array_equal(quantum._place_blocks(sigma.dims, sigma.blocks),
                          quantum._measured_matrix(state, 0, a_blocks))
    for s in (state, sigma):
        keep = data.draw(st.lists(st.sampled_from(s.labels), min_size=1, unique=True))
        got = partial_trace(s, keep)
        want = partial_trace(MultipartyState(s.labels, s.dims, s.rho), keep)
        assert (got.labels, got.dims) == (want.labels, want.dims)
        assert np.max(np.abs(got.rho - want.rho)) <= 1e-15, keep


@pytest.mark.parametrize("corrupt, message", [
    (lambda block: block + np.triu(np.full(block.shape, 0.1), 1), "not hermitian"),
    (lambda block: 1.5 * block, "trace deviates"),
], ids=["hermiticity", "trace"])
def test_a_bad_block_fails_the_block_route(monkeypatch, corrupt, message):
    placed = []
    real = quantum._place_blocks
    monkeypatch.setattr(quantum, "_place_blocks",
                        lambda dims, parts: placed.append(dims) or real(dims, parts))
    dims = FamilyDims.default(2)
    good = constrained_family_sample(dims, seed=trial_seed(3, 2))
    for run in (lambda s: check_theorem(s, dims.a_blocks),
                lambda s: partial_trace(s, ("A", "B", "C"))):
        bad = MultipartyState(good.labels, good.dims, factors=good.factors, blocks=[
            (corrupt(block) if k == 0 else block, ranges)
            for k, (block, ranges) in enumerate(good.blocks)])
        with pytest.raises(ValueError, match=message):
            run(bad)
    assert placed == []


def test_factors_that_disagree_with_the_matrix_fail_the_drift_check():
    dims = FamilyDims.default(2)
    state = constrained_family_sample(dims, seed=trial_seed(3, 2))
    assert check_theorem(state, dims.a_blocks).marginal_drift <= 1e-15
    state = constrained_family_sample(dims, seed=trial_seed(3, 2))
    state.factors.xis[[0, 1]] = state.factors.xis[[1, 0]]  # swap xi_0 and xi_1
    rep = check_theorem(state, dims.a_blocks)
    assert rep.sigma_route == "factored"
    assert rep.marginal_drift > 1e-3 and not rep.passed
    # every other check holds on the swapped factors: the drift alone fails
    assert dataclasses.replace(rep, marginal_drift=0.0).passed


def test_measured_state_builds_its_matrix_only_when_read(monkeypatch):
    # rho at n=3 is 512 x 512 and sigma 1024 x 1024
    dims = FamilyDims.default(3)
    state = constrained_family_sample(dims, seed=trial_seed(5, 3))
    want = measure_and_register(MultipartyState(state.labels, state.dims, state.rho),
                                "A", dims.a_blocks).rho
    assert np.array_equal(measure_and_register(state, "A", dims.a_blocks).rho, want)
    monkeypatch.setenv("ENTROPIC_MAX_DIM", "512")
    sigma = measure_and_register(state, "A", dims.a_blocks)
    assert sigma.total_dim == 1024
    assert check_theorem(state, dims.a_blocks).passed
    with pytest.raises(ValueError, match="total dimension 1024 exceeds cap 512"):
        sigma.rho


def test_check_theorem_passes_on_samples():
    for n, diag in ((1, False), (2, False), (1, True)):
        dims = FamilyDims.default(n)
        state = constrained_family_sample(dims, seed=trial_seed(3, n), diagonal=diag)
        rep = check_theorem(state, dims.a_blocks)
        assert rep.passed, to_obj(rep)
        assert set(rep.slacks) == {"thm1", "thm1p", "thm2", "thm2p"}
        assert list(rep.hypotheses) == [h.describe() for h in proof_certificate(n)[3]]


@pytest.mark.parametrize("n", [1, 2])
def test_check_theorem_fails_a_register_that_reads_nothing(n):
    # one block: R is constant, so S(R|A) = S(R|B) = 0 while I(AB:C|R) is
    # I(AB:C), which the family keeps positive; only that hypothesis fails
    dims = FamilyDims.default(n)
    state = constrained_family_sample(dims, seed=trial_seed(3, n))
    rep = check_theorem(state, (2,))
    assert not rep.passed and rep.sigma_route == "dense"
    _, _, _, (_, _, i_ab_c_given_r), _ = proof_certificate(n)
    assert rep.hypotheses[i_ab_c_given_r.describe()] > rep.tol


@pytest.mark.parametrize("field, value", [
    ("slacks", {"thm1": -5e-9}),
    ("constraint_residuals", {"I(A:C|B)": 5e-9, "I(B:C|A)": -5e-9}),
    ("hypotheses", {"- S{A} + S{A,R}": 5e-9, "- S{B} + S{B,R}": -5e-9}),
    ("min_term", -5e-9),
])
def test_check_theorem_uses_its_stated_tol(field, value):
    # 5e-9 sits between the default 1e-8 and the CLI's 1e-9: the verdict
    # follows the report's tol, for residuals and slacks as for the rest
    state = constrained_family_sample(FamilyDims.default(1), seed=trial_seed(3, 1))
    rep = check_theorem(state, (1, 1))
    assert rep.passed
    loose = dataclasses.replace(rep, **{field: value})
    assert loose.tol == 1e-8 and loose.passed
    assert not dataclasses.replace(loose, tol=1e-9).passed


def test_lw05_family_has_positive_slack_and_zero_residuals():
    from entrocone.setfn import cmi

    for seed in (0, 1):
        st = lw05_family_sample(seed=seed)
        h = entropy_vector(st)
        assert abs(cmi(h, "A", "C", "B")) <= 1e-9
        assert abs(cmi(h, "B", "C", "A")) <= 1e-9
        assert abs(cmi(h, "A", "B", "D")) <= 1e-9
        slack = cmi(h, "C", "D") - cmi(h, ("A", "B"), "C")
        assert slack > 1e-6


@pytest.mark.parametrize("blocks", [0, -1])
def test_lw05_blocks_below_one_are_refused_by_name(blocks):
    # the family and the sampler share one rule
    for make in (LW05Family, lw05_family_sample):
        with pytest.raises(ValueError, match="need at least one block"):
            make(blocks)


def reference_lw05(blocks, seed):
    """`lw05_family_sample`'s matrix block by block: three Ginibre draws and
    one `np.kron` per block, each block placed on its own ranges."""
    da, db, dd, dim_c = quantum.LW05_DIMS
    rng = _rng(seed)
    w = rng.standard_exponential(blocks)
    weights = w / w.sum()

    def gram(d):
        return gram_density(rng.standard_normal(2 * d * d), d, d)

    def part(k):
        fa, fb, fcd = gram(da), gram(db), gram(dim_c * dd)
        ranges = ((k * da, (k + 1) * da), (k * db, (k + 1) * db), (0, dim_c),
                  (k * dd, (k + 1) * dd))
        return weights[k] * np.kron(np.kron(fa, fb), fcd), ranges

    return quantum._place_blocks((da * blocks, db * blocks, dim_c, dd * blocks),
                                 map(part, range(blocks)))


@settings(max_examples=40, deadline=None)
@given(blocks=st.integers(1, 3), seed=SEEDS)
def test_lw05_stacked_build_matches_the_per_block_reference(blocks, seed):
    state = lw05_family_sample(blocks, seed=seed)
    assert _same_bits(state.rho, reference_lw05(blocks, seed))


# ------------------------------------------------------------ family layer

# every family whose parameters are continuous (lw05's are two seed integers)
CONTINUOUS_FAMILIES = {
    "haar": lambda: HaarMixedFamily(("A", "B"), (2, 2)),
    "haar-rank-1": lambda: HaarMixedFamily(("A", "B"), (2, 2), rank=1),
    "diagonal": lambda: DiagonalFamily(("A", "B"), (2, 3)),
    "constrained": lambda: ConstrainedFamily(FamilyDims.default(1)),
    "constrained-diagonal": lambda: ConstrainedFamily(FamilyDims.default(2, blocks=3),
                                                      diagonal=True),
}
FAMILIES = {**CONTINUOUS_FAMILIES, "lw05": LW05Family}


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 2), blocks=st.integers(1, 3), diagonal=st.booleans(), seed=SEEDS)
def test_constrained_sample_is_family_draw_then_build(n, blocks, diagonal, seed):
    dims = FamilyDims.default(n, blocks)
    state = constrained_family_sample(dims, seed=seed, diagonal=diagonal)
    family = ConstrainedFamily(dims, diagonal=diagonal)
    built = family.build(family.draw(_rng(seed)))
    assert (state.labels, state.dims) == (built.labels, built.dims)
    assert np.array_equal(state.rho, built.rho)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(FAMILIES)), seed=SEEDS)
def test_build_leaves_family_unchanged(name, seed):
    family = FAMILIES[name]()
    before = copy.deepcopy(vars(family))
    family.build(family.draw(_rng(seed)))
    # exact equality, recursing into the index arrays a family may hold
    np.testing.assert_equal(vars(family), before)


def test_haar_rank_above_the_cap_is_refused(monkeypatch):
    monkeypatch.setenv("ENTROPIC_MAX_DIM", "16")
    assert HaarMixedFamily(("A", "B"), (2, 2), rank=16).n_params() == 128
    with pytest.raises(ValueError, match="rank 17 exceeds cap 16"):
        HaarMixedFamily(("A", "B"), (2, 2), rank=17)


@pytest.mark.parametrize("name", sorted(CONTINUOUS_FAMILIES))
def test_zero_parameter_point_is_rejected(name):
    family = CONTINUOUS_FAMILIES[name]()
    # a zero trace, and one that overflows float64 (refused before numpy
    # warns, which the suite's warning filter would turn into a failure)
    for value in (0.0, 1e300):
        with pytest.raises(ValueError, match="degenerate"):
            family.build(np.full(family.n_params(), value))


def reference_build(family, params):
    """The per-block build `ConstrainedFamily.build` replaced: each factor
    made alone, each block p_k chi_k (x) xi_k by its own `tensordot`, and
    the (C, X1..Xn) marginal summed over the blocks' own traces, in block
    order.  Returns (weights, factors in parameter order, blocks, cx)."""
    def gram(raw, d):
        g = (raw[:d * d] + 1j * raw[d * d:]).reshape(d, d)
        rho = g @ g.conj().T
        return rho / np.trace(rho).real

    def weights_of(raw):
        w = raw * raw
        return w / w.sum()

    pieces = np.split(params, np.cumsum(family.sizes)[:-1])
    if family.diagonal:
        factors = [np.diag(weights_of(raw)).astype(np.complex128) for raw in pieces[1:]]
    else:
        factors = [gram(raw, d) for raw, d in zip(pieces[1:], family.factor_dims)]
    K, weights = family.sizes[0], weights_of(pieces[0])
    axes = [a - 1 for a in family.axes[1:]]  # one block's axes, without the stack's

    def part(k):
        chi = factors[k].reshape(family.chi_shapes[k] * 2)
        xi = factors[K + k].reshape(family.xi_shape * 2)
        block = np.tensordot(chi, xi, axes=0).transpose(axes)
        d = family.factor_dims[k] * family.factor_dims[K + k]
        return weights[k] * block.reshape(d, d)

    blocks = [part(k) for k in range(K)]
    cx = sum(_trace_one(block[None], (a * b, len(block) // (a * b)), 0)[0]
             for block, (a, b, *_) in zip(blocks, family.chi_shapes))
    return weights, factors, blocks, cx


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 3), n=st.integers(1, 3), diagonal=st.booleans(), data=st.data(),
       seed=SEEDS)
def test_stacked_build_matches_the_per_block_reference(k, n, diagonal, data, seed):
    """The stacked build gives the per-block reference's weights, factors,
    blocks and (C, X1..Xn) marginal to the bit.  Unequal A/B block sizes
    give more than one chi shape group.  One exception is measured, not
    hidden: at an odd xi size the reference's `tensordot` (a BLAS product)
    rounds the last column of its outer product with fused multiply-adds,
    so Gram blocks and cx agree there to rounding only."""
    sizes = st.integers(1, 3)
    fdims = FamilyDims(tuple(data.draw(sizes) for _ in range(k)),
                       tuple(data.draw(sizes) for _ in range(k)), data.draw(sizes),
                       tuple((data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2)))
                             for _ in range(n)))
    family = ConstrainedFamily(fdims, diagonal=diagonal)
    assume(max(family.factor_dims) <= 24)
    params = family.draw(_rng(seed))
    state = family.build(params)
    weights, factors, blocks, cx = reference_build(family, params)
    fs = state.factors
    assert _same_bits(fs.weights, weights)
    for shape, ks, stack in fs.chis:
        assert all(_same_bits(stack[i], factors[k]) for i, k in enumerate(ks))
    assert all(_same_bits(fs.xis[i], factors[k + i]) for i in range(k))
    built = [block for block, _ in state.blocks] + [fs.cx.rho]
    if diagonal or family.factor_dims[-1] % 2 == 0:
        assert all(map(_same_bits, built, blocks + [cx]))
    else:
        assert all(np.allclose(a, b, rtol=0, atol=1e-15) for a, b in zip(built, blocks + [cx]))


@pytest.mark.parametrize("diagonal", [False, True], ids=["gram", "diagonal"])
def test_one_zero_factor_is_a_degenerate_point(diagonal):
    # a stacked build still checks every factor's trace, so `local_refine`
    # halves its step when a single factor (or the weights) goes to zero
    family = ConstrainedFamily(FamilyDims((1, 2, 1), (2, 1, 1), 2, ((2, 1),)), diagonal)
    params = family.draw(_rng(5))
    starts = np.cumsum((0,) + family.sizes)
    for start, stop in zip(starts, starts[1:]):
        bad = params.copy()
        bad[start:stop] = 0.0
        with pytest.raises(ValueError, match="degenerate parameter point"):
            family.build(bad)


def _plan_arrays(plan):
    """Every array a cached plan holds, however nested."""
    if isinstance(plan, np.ndarray):
        return [plan]
    if isinstance(plan, tuple):
        return [a for item in plan for a in _plan_arrays(item)]
    return []


def test_cached_plans_serve_interleaved_mask_lists():
    """Mask lists interleaved on one constrained and one haar-mixed layout:
    every call is the full table's columns to the bit, the second round
    resolves no new plan, and a plan's arrays cannot be written."""
    fdims = FamilyDims((1, 2), (2, 1), 2, ((2, 1), (1, 2)))
    constrained = [constrained_family_sample(fdims, seed=s) for s in (1, 2)]
    haar = HaarMixedFamily(("A", "B", "C"), (2, 3, 2))
    layouts = [
        (constrained, [[1, 3, 5, 30], [28, 4, 0], [31, 16, 8, 2, 1], [6]]),
        ([haar.build(haar.draw(_rng(s))) for s in (3, 4)], [[1, 3, 5], [7, 0, 2], [6]]),
    ]
    full = [quantum.entropy_table(states) for states, _ in layouts]
    plans = (quantum._entropy_program, quantum._factor_program, quantum._factored_plan)
    for round_ in range(2):
        misses = [plan.cache_info().misses for plan in plans]
        for i in range(4):  # one list of each layout in turn
            for (states, lists), whole in zip(layouts, full):
                masks = lists[i % len(lists)]
                for part, table in zip(quantum.entropy_table(states, masks), whole):
                    assert np.array_equal(part, table[:, masks])
        if round_:
            assert [plan.cache_info().misses for plan in plans] == misses
    arrays = _plan_arrays(quantum._factored_plan(2, 5, (1, 3, 5, 30)))
    arrays += _plan_arrays(quantum._entropy_program((((2, 3, 2), (1, 3, 5), 1),)))
    assert arrays and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        arrays[0][...] = 0


# ------------------------------------------------------------ measurement


def test_measurement_register_properties():
    dims = FamilyDims.default(2)
    state = constrained_family_sample(dims, seed=21)
    sigma = measure_and_register(state, "A", dims.a_blocks)
    assert sigma.labels == state.labels + ("R",)
    h_rho = entropy_vector(state)
    h_sig = entropy_vector(sigma)
    # J containing the measured party: attaching the register costs nothing
    for J in (("A",), ("A", "B"), ("A", "C"), ("A", "B", "C", "X1")):
        assert abs(h_sig(J + ("R",)) - h_sig(J)) <= 1e-8
    # marginals on the original parties are untouched
    for J in (("X1", "X2"), ("A", "B", "C"), state.labels):
        before = partial_trace(state, J)
        after = partial_trace(sigma, J)
        assert np.max(np.abs(before.rho - after.rho)) <= 1e-10
    # the register spectrum is the block weight vector
    r = partial_trace(sigma, ("R",))
    w = np.sort(np.real(np.diag(r.rho)))
    assert abs(w.sum() - 1) <= 1e-10


def test_an_array_state_with_factors_is_measured_densely():
    dims = FamilyDims.default(2)
    state = constrained_family_sample(dims, seed=trial_seed(5, 2))
    dense = MultipartyState(state.labels, state.dims, state.rho, factors=state.factors)
    sigma = measure_and_register(dense, "A", dims.a_blocks)
    assert sigma.blocks is None
    assert np.array_equal(sigma.rho, measure_and_register(state, "A", dims.a_blocks).rho)


def test_block_count_is_capped_on_the_blocks_direct_sum(monkeypatch):
    # at n=1 each block is 8 x 8: two fit under a cap of 16, three do not
    monkeypatch.setenv("ENTROPIC_MAX_DIM", "16")
    ConstrainedFamily(FamilyDims.default(1, blocks=2))
    with pytest.raises(ValueError, match="block dimension 24 exceeds cap 16"):
        ConstrainedFamily(FamilyDims.default(1, blocks=3))


def test_measurement_rejects_non_block_states():
    rng = _rng(31)
    rho = _gram(4, rng)
    st = MultipartyState(("A", "B"), (2, 2), rho)
    with pytest.raises(ValueError, match="not block diagonal"):
        measure_and_register(st, "A", (1, 1))


def test_measurement_rejects_bad_block_sizes():
    state = constrained_family_sample(FamilyDims.default(1), seed=5)
    assert measure_and_register(state, "A", (1, 1)).dims == state.dims + (2,)
    # none, too few, an empty block, too many: A has dimension 2
    for sizes in ((), (1,), (2, 0), (1, 2)):
        with pytest.raises(ValueError, match="block sizes"):
            measure_and_register(state, "A", sizes)


# ------------------------------------------------------------ sampling, io


def test_seeded_sampling_is_reproducible():
    dims = FamilyDims.default(1)
    s1 = constrained_family_sample(dims, seed=trial_seed(7, 3))
    s2 = constrained_family_sample(dims, seed=trial_seed(7, 3))
    assert np.array_equal(s1.rho, s2.rho)
    s3 = constrained_family_sample(dims, seed=trial_seed(7, 4))
    assert not np.array_equal(s1.rho, s3.rho)


def test_dimension_cap_honored(monkeypatch):
    monkeypatch.setenv("ENTROPIC_MAX_DIM", "8")
    with pytest.raises(ValueError):
        constrained_family_sample(FamilyDims.default(3), seed=0)


def test_state_validation_catches_bad_input():
    with pytest.raises(ValueError):
        MultipartyState(("A",), (2,), np.eye(3, dtype=complex) / 3)
    rho = np.array([[0.9, 0.3], [0.1, 0.1]], dtype=complex)  # not hermitian
    with pytest.raises(ValueError):
        MultipartyState(("A",), (2,), rho)


def test_blocks_are_checked_on_first_read(monkeypatch):
    placed = []
    real = quantum._place_blocks
    monkeypatch.setattr(quantum, "_place_blocks",
                        lambda dims, parts: placed.append(dims) or real(dims, parts))

    def state(block, ranges=((0, 2),), **kw):
        return MultipartyState(("A",), (2,), blocks=[(block, ranges)], **kw)

    for block, ranges, message in (
            (np.eye(3) / 3, ((0, 2),), "block shape"),
            (np.eye(2) / 2, ((1, 3),), "block shape"),
            (np.array([[0.9, 0.3], [0.1, 0.1]]), ((0, 2),), "not hermitian"),
            (np.full((2, 2), np.nan), ((0, 2),), "not hermitian"),
            (np.eye(2), ((0, 2),), "trace deviates")):
        for read in ("blocks", "rho"):
            lazy = state(block, ranges)
            with pytest.raises(ValueError, match=message):
                getattr(lazy, read)
    assert placed == []
    # validate=False skips hermiticity and trace, never the shape
    assert np.array_equal(state(np.eye(2), validate=False).rho, np.eye(2))
    with pytest.raises(ValueError, match="block shape"):
        state(np.eye(3), validate=False).blocks
    # two blocks on disjoint ranges: one trace between them
    halves = [(np.eye(1) / 2, ((0, 1),)), (np.eye(1) / 2, ((1, 2),))]
    assert np.array_equal(MultipartyState(("A",), (2,), blocks=halves).rho, np.eye(2) / 2)


def test_state_rejects_nan_matrix():
    nan = np.full((2, 2), np.nan, dtype=complex)
    # a NaN deviation fails every comparison; the first check still rejects it
    with pytest.raises(ValueError, match="not hermitian"):
        MultipartyState(("A",), (2,), nan)
