"""Finite-dimensional multiparty density matrices and their entropy vectors.

Entropies are von Neumann entropies in bits (base-2 logs), -sum w log2 w
over a marginal's eigenvalues w > 0, on every route.  Comparisons on float
results use absolute tolerances; the eigenvalues <= 0 that rounding leaves
are dropped from the log and their mass is reported, never silently ignored.
`entropy_table` takes a batch of states of one layout in one pass (one
`eigvalsh` call per dimension per level of marginals, across every stack of
factors a state holds), and gives each state the values it gets alone;
`entropy_vector` is its one-state case.

The constrained family sampled here carries a block decomposition on two
parties: conditioned on the block index k, the state factorizes between the
(A, B, x-first-half) side and the (C, x-second-half) side, which makes both
conditional-independence constraints hold identically.  A state the family
builds is given as its blocks p_k chi_k (x) xi_k, with those factors and
rho's (C, X1..Xn) marginal: `entropy_table` reads only the factors, and
`partial_trace` traces the blocks one by one.  The state measured into the
block register R (`measure_and_register` on A in those blocks, as
`check_theorem` does) shares the factors and the blocks, and its entropy
vector is an index map over the spectra the factors already hold.  So
`check_theorem`, whose `marginal_drift` compares the blocks' marginals with
the same marginals rebuilt from the factors, never places the dense rho or
sigma: only a reader of `.rho` (the search replay, `purify`, a measurement
in other blocks) places it, under the cap, and checks it.  Every other
state, and `von_neumann_entropy`, is dense.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .setfn import GroundSet, SetFunction, check_tol, size_str
from .inequalities import builtin, instantiate
from .certify import proof_certificate

CLIP = 1e-12  # purify's rank cut
STATE_ATOL = 1e-10
DEFAULT_DIM_CAP = 4096


def dim_cap() -> int:
    raw = os.environ.get("ENTROPIC_MAX_DIM", "")
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"ENTROPIC_MAX_DIM must be an integer, got {raw!r}") from None
    return DEFAULT_DIM_CAP


def _check_cap(total: int, what: str = "total dimension"):
    cap = dim_cap()
    if total > cap:
        raise ValueError(f"{what} {size_str(total)} exceeds cap {cap} "
                         "(set ENTROPIC_MAX_DIM to raise it)")


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(np.random.SeedSequence(entropy=seed))


def _total_dim(labels, dims) -> int:
    """The exact product of `dims`, one per label, each at least 1."""
    if len(labels) != len(dims):
        raise ValueError("labels and dims must have equal length")
    if any(d < 1 for d in dims):
        raise ValueError("party dimensions must be >= 1")
    return math.prod(dims)


def trial_seed(base_seed: int, trial: int) -> tuple[int, int]:
    """Per-trial seed material: stable, independent streams per trial index."""
    return (base_seed, trial)


class MultipartyState:
    """Density matrix over an ordered tuple of labeled parties.

    The matrix is indexed row-major by the party order, and given either as
    an array or, with `blocks`, as (block, ranges) pairs: square blocks,
    each summed onto the row-major product of its per-party (start, stop)
    index ranges (see `_place_blocks`).  An array is checked for shape,
    hermiticity and unit trace when the state is made (a NaN or infinite
    entry fails them).  Blocks are checked the same way, block by block, on
    the first read of `.blocks`; `.rho` places them, under the cap, on its
    first read, so a constrained state's matrix is built only if something
    reads `.rho`.  It checks the placed matrix again only when the blocks
    overlap: on disjoint index sets the block checks are the array checks
    (`_check_block_parts`).  `validate=False`
    skips hermiticity and trace (internal use on matrices that are valid by
    construction), never the shape.  `factors` is None except on the
    states ConstrainedFamily.build makes, which carry their own
    BlockFactors, and on the measured states `measure_and_register` makes
    of them, which share those factors and add the register R as their
    last party.
    """

    __slots__ = ("ground", "dims", "factors", "_rho", "_blocks", "_validate", "_unchecked")

    def __init__(self, labels, dims, rho=None, validate: bool = True,
                 factors: BlockFactors | None = None, blocks=None):
        self.ground = GroundSet(labels)
        self.factors = factors
        self.dims = tuple(int(d) for d in dims)
        _total_dim(self.labels, self.dims)
        self._validate = validate
        if blocks is None:
            self._rho, self._blocks, self._unchecked = self._checked(rho), None, False
        else:
            self._rho, self._blocks, self._unchecked = None, tuple(blocks), True

    @property
    def rho(self) -> np.ndarray:
        if self._rho is None:
            # blocks on disjoint index sets passed the array checks as parts
            self._rho = self._checked(_place_blocks(self.dims, self.blocks),
                                      dense=not _disjoint(self._blocks))
        return self._rho

    @property
    def blocks(self) -> tuple | None:
        """The (block, ranges) pairs the matrix is placed from, or None for
        a state given as an array."""
        if self._unchecked:
            self._check_block_parts()
            self._unchecked = False
        return self._blocks

    def _checked(self, rho, dense: bool = True) -> np.ndarray:
        """`rho` as a complex matrix of the state's shape; hermitian and of
        unit trace too, where it validates and `dense` asks for the checks."""
        total = self.total_dim
        rho = np.asarray(rho, dtype=np.complex128)
        if rho.shape != (total, total):
            raise ValueError(f"matrix shape {rho.shape} does not match total dim {total}")
        if self._validate and dense:
            herm = np.max(np.abs(rho - rho.conj().T)) if total else 0.0
            _check_state(herm, np.trace(rho))
        return rho

    def _check_block_parts(self):
        """The array checks, taken on the blocks.  A block sits on one index
        set on its rows and its columns, so hermitian blocks place a
        hermitian matrix, whose trace is their traces' sum; on disjoint
        index sets, as a family's blocks are, the placed matrix's deviation
        from hermiticity is the largest block's, and the checks are the
        array checks exactly."""
        herm, tr = 0.0, 0.0
        for block, ranges in self._blocks:
            fits = len(ranges) == len(self.dims) and all(
                0 <= start < stop <= d for (start, stop), d in zip(ranges, self.dims))
            d = math.prod(stop - start for start, stop in ranges)
            if not fits or block.shape != (d, d):
                raise ValueError(f"block shape {block.shape} does not match ranges {ranges} "
                                 f"of dims {self.dims}")
            if self._validate:
                herm = np.maximum(herm, np.max(np.abs(block - block.conj().T)))  # keeps a NaN
                tr = tr + np.trace(block)
        if self._validate:
            _check_state(herm, tr)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.ground.labels

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def __repr__(self):
        pairs = ", ".join(f"{l}:{d}" for l, d in zip(self.labels, self.dims))
        return f"MultipartyState({pairs})"


def _disjoint(parts) -> bool:
    """Whether the (block, ranges) pairs sit on pairwise disjoint index
    sets: every two of them have a party whose ranges do not meet."""
    return all(any(a_stop <= b_start or b_stop <= a_start
                   for (a_start, a_stop), (b_start, b_stop) in zip(a, b))
               for (_, a), (_, b) in itertools.combinations(parts, 2))


def _check_state(herm, trace) -> None:
    """Refuse a matrix whose largest |rho - rho^dag| entry is `herm`, or
    whose `trace` is not one, to STATE_ATOL (a NaN fails both)."""
    if not herm <= STATE_ATOL:
        raise ValueError(f"matrix not hermitian (deviation {herm:.3e})")
    tr = abs(trace - 1.0)
    if not tr <= STATE_ATOL:
        raise ValueError(f"trace deviates from one by {tr:.3e}")


def partial_trace(state: MultipartyState, keep) -> MultipartyState:
    """Marginal on `keep` (labels, original order preserved).

    A state given as blocks is traced block by block, and the traced blocks
    are placed on the kept parties' ranges.  A block covers the same range
    of each party on its rows and on its columns, so tracing a party out of
    a placed block is placing its trace: the marginal is the dense one, to
    rounding, and the state's own matrix is never placed.
    """
    if isinstance(keep, str):
        keep = (keep,)
    keep_idx = sorted({state.ground.index(l) for l in keep})
    if not keep_idx:
        raise ValueError("must keep at least one party")
    m = state.ground.size
    if len(keep_idx) == m:
        return state
    # party i's row axis is labeled i and its column axis m + i, or i again
    # when the party is traced out
    cols = [m + i if i in keep_idx else i for i in range(m)]
    out = keep_idx + [m + i for i in keep_idx]

    def trace(matrix, dims):
        d = math.prod(dims[i] for i in keep_idx)
        return np.einsum(matrix.reshape(dims + dims), [*range(m), *cols], out).reshape(d, d)

    new_dims = tuple(state.dims[i] for i in keep_idx)
    if state.blocks is None:
        reduced = trace(state.rho, state.dims)
    else:
        reduced = _place_blocks(new_dims, [
            (trace(block, tuple(stop - start for start, stop in ranges)),
             [ranges[i] for i in keep_idx])
            for block, ranges in state.blocks])
    return MultipartyState(
        tuple(state.labels[i] for i in keep_idx), new_dims, reduced, validate=False)


def _spectrum_entropy(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropy -sum w log2 w over the entries w > 0 of each row of `w`
    (..., d), and the mass of the others (eigenvalues rounding left <= 0)."""
    pos = w > 0.0
    return (-(w * np.log2(np.where(pos, w, 1.0))).sum(-1),
            np.abs(np.where(pos, 0.0, w)).sum(-1))


def von_neumann_entropy(state) -> float:
    """Entropy in bits of a MultipartyState or a raw density matrix."""
    rho = state.rho if isinstance(state, MultipartyState) else np.asarray(state)
    return float(_spectrum_entropy(np.linalg.eigvalsh(rho))[0])


def _trace_one(stack: np.ndarray, dims: Sequence[int], pos: int) -> np.ndarray:
    """Trace party `pos` of parties `dims` out of every matrix of `stack` (T, d, d),
    adding diagonal blocks in index order: no marginal depends on the stack."""
    pre, dk, post = math.prod(dims[:pos]), dims[pos], math.prod(dims[pos + 1:])
    t = stack.reshape(-1, pre, dk, post, pre, dk, post)
    out = t[:, :, 0, :, :, 0]
    for i in range(1, dk):
        out = out + t[:, :, i, :, :, i]
    return out.reshape(-1, pre * post, pre * post)


@functools.cache
def _trace_plan(dims: tuple[int, ...]) -> tuple:
    """The marginals of parties `dims`, level by level from the mask of
    every party of dimension above 1 down to single parties, in the order
    `_entropy_program` steps through them: each as (mask, parent, parent's
    dims, pos), traced from `parent` (None at the top) by its `pos`-th
    party of dimension above 1, the first parent to reach it.  A party of
    dimension 1 is never traced."""
    live = [i for i in range(len(dims)) if dims[i] > 1]
    levels = [((sum(1 << i for i in live), None, (), 0),)] if live else []
    for _ in live[1:]:
        children: dict[int, tuple] = {}
        for mask, *_ in levels[-1]:
            idxs = [i for i in live if mask >> i & 1]
            sub = tuple(dims[i] for i in idxs)
            for pos, i in enumerate(idxs):
                children.setdefault(mask & ~(1 << i), (mask, sub, pos))
        levels.append(tuple((child, *how) for child, how in children.items()))
    return tuple(levels)


def _frozen(a: np.ndarray) -> np.ndarray:
    """`a`, read-only: a cached plan's arrays are shared by every caller."""
    a.flags.writeable = False
    return a


def _mask_array(masks: tuple[int, ...] | None, m: int) -> np.ndarray:
    """`masks` as an int64 array, every party mask of `m` parties for None;
    a mask outside 0..2^m - 1 raises ValueError."""
    if masks is None:
        return np.arange(1 << m)
    a = np.array(masks, dtype=np.int64)
    if a.size and not 0 <= a.min() <= a.max() < 1 << m:
        raise ValueError(f"a mask of {m} parties lies in 0..{(1 << m) - 1}")
    return a


@functools.cache
def _entropy_program(stacks: tuple) -> tuple:
    """How `_run_program` takes the marginals on `masks` (every mask for
    None; a party of dimension 1 is dropped from a mask) of input stacks
    of `stacks`, (dims, masks, copies) triples, each holding `copies`
    matrices a state: resolved once.  Each is traced along
    `_trace_plan(dims)` with the marginals it is traced from, and the
    stacks go down in lockstep by party count.  A level is its steps,
    (slot of the level above, sub, pos), or (stack, None, 0) for a stack's
    own matrices, and its groups, (slots, columns, dimension), one per
    dimension across stacks.  Returns (levels, width, calls by dimension)
    and each stack's (copies, masks) columns; column 0 is mask 0's."""
    todo, wants = [], []
    for dims, masks, _ in stacks:
        want = _mask_array(masks, len(dims)) & sum(1 << i for i, d in enumerate(dims) if d > 1)
        traced, plan = set(want.tolist()), _trace_plan(dims)
        for entries in reversed(plan[1:]):
            traced.update(parent for mask, parent, *_ in entries if mask in traced)
        todo.append({len(plan) - i: [e for e in entries if e[0] in traced]
                     for i, entries in enumerate(plan)})
        wants.append(want)
    levels, width, cols, above = [], 1, {}, {}
    for count in range(max(map(len, todo), default=0), 0, -1):
        steps, slot, by_dim = [], {}, {}
        for s, ((dims, _, _), want) in enumerate(zip(stacks, wants)):
            for mask, parent, sub, pos in todo[s].get(count, ()):
                slot[s, mask] = len(steps)
                steps.append((s, None, 0) if parent is None else (above[s, parent], sub, pos))
                if mask in want:
                    dim = math.prod(d for i, d in enumerate(dims) if mask >> i & 1)
                    by_dim.setdefault(dim, []).append((s, mask))
        groups = []
        for dim, members in by_dim.items():
            start = width
            for s, mask in members:
                cols[s, mask], width = width, width + stacks[s][2]
            groups.append((tuple(slot[key] for key in members), slice(start, width), dim))
        if steps:
            levels.append((tuple(steps), tuple(groups)))
        above = slot
    gathers = tuple(_frozen(np.array([[cols[s, mask] + i if mask else 0 for mask in want.tolist()]
                                      for i in range(copies)], dtype=np.int64))
                    for s, ((_, _, copies), want) in enumerate(zip(stacks, wants)))
    calls = Counter(dim for _, groups in levels for *_, dim in groups)
    return (tuple(levels), width, calls), gathers


def _run_program(program: tuple, stacks: Sequence[np.ndarray], T: int,
                 diagnostics: dict | None = None) -> np.ndarray:
    """Entropies and clipped masses (2, T, width) of `program`'s marginals
    of input `stacks` of T states: one `eigvalsh` call and one
    `_spectrum_entropy` per group, and each level is dropped once the next
    is traced.  Each matrix's values are its own, whatever the stacks hold.
    A `diagnostics` dict's "eigvalsh" Counter gains the calls by dimension."""
    levels, width, calls = program
    out = np.zeros((2, T, width))
    level: list = []
    for steps, groups in levels:
        level = [stacks[src] if sub is None else _trace_one(level[src], sub, pos)
                 for src, sub, pos in steps]
        for slots, columns, dim in groups:
            w = np.linalg.eigvalsh(np.concatenate(
                [level[i].reshape(T, -1, dim, dim) for i in slots], axis=1))
            out[:, :, columns] = _spectrum_entropy(w)
    if diagnostics is not None:
        diagnostics.setdefault("eigvalsh", Counter()).update(calls)
    return out


@functools.cache
def _factored_plan(n: int, m: int, masks: tuple[int, ...] | None) -> tuple:
    """How the factored route reads `masks` (every mask for None) of
    (A, B, C, X1..Xn), with R when `m` = n + 4, resolved once: the mask
    count, the positions of the masks that keep the blocks apart (those
    meeting A or B, or holding R) and of the others, and the factor
    columns each reads, on chi's parties (A, B, X first halves) and xi's
    (C, X second halves) for the first, on (C, X1..Xn) for the others.
    For a list of masks `wanted` holds each factor's sorted distinct masks
    and the columns index into them; for None, `wanted` is None and the
    columns are factor masks."""
    every, masks = masks is None, _mask_array(masks, m)
    low = masks & ((1 << (n + 3)) - 1)
    # with R, every marginal keeps the blocks apart
    split = (low & 3 != 0) | (masks >= 1 << (n + 3))
    chi_of, xi_of = (low & 3) | (low >> 3 << 2), low >> 2
    cols = [chi_of[split], xi_of[split], xi_of[~split]]
    wanted = None
    if not every:
        # sorted distinct masks; np.unique's first call imports numpy.ma (1.7 MB)
        wanted = tuple(tuple(sorted(set(c.tolist()))) for c in cols)
        cols = [np.searchsorted(w, c) for w, c in zip(wanted, cols)]
    return (len(masks), _frozen(np.flatnonzero(split)), _frozen(np.flatnonzero(~split)),
            wanted, tuple(map(_frozen, cols)))


def _factored_entropies(states: Sequence[MultipartyState], masks: tuple[int, ...] | None = None,
                        diagnostics: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Entropy and clipped mass of the marginals on `masks` (every mask by
    default) of each of `states`, which carry block factors of one layout,
    as (T, len(masks)) arrays, from the spectra of those factors.

    For rho = sum_k p_k chi_k (x) xi_k, a marginal J that meets A or B keeps
    the blocks apart, so its spectrum is the union over k of
    p_k spec(chi_k|J) spec(xi_k|J), and
    S(J) = H(p) + sum_k p_k [S(chi_k|J) + S(xi_k|J)], the dense route's
    value to rounding.  A block's clipped mass counts at weight p_k.
    Marginals inside C and the X's mix the blocks; they come from the dense
    marginal on (C, X1..Xn).

    The measured state sigma = sum_k p_k chi_k (x) xi_k (x) |k><k| adds R as
    its last party.  A marginal without R is rho's.  With R, every marginal
    keeps the blocks apart and takes the same sum: for J meeting A or B it
    is rho's S(J), since A and B each identify the block and R adds nothing;
    for J inside C and the X's it is a new value (H(p) for R alone).

    The full table reads the spectra the factors keep (`_factor_spectra`);
    a list of masks takes only the factor marginals it maps to.  Which
    those are is `_factored_plan`'s, resolved once per (layout, masks).
    """
    n = len(states[0].factors.xi_shape) - 1
    size, split, rest, wanted, (chi, xi, cx) = _factored_plan(n, states[0].ground.size, masks)
    fs = [s.factors for s in states]
    chi_s, chi_c, xi_s, xi_c, cx_s, cx_c = _factor_spectra(fs, wanted, diagnostics)
    p = np.array([s.factors.weights for s in states])
    h_p, clip_p = _spectrum_entropy(p)
    p = p[:, :, None]  # each trial's weights on its own blocks, summed in block order
    values, clipped = np.empty((2, len(states), size))
    values[:, split] = h_p[:, None] + (p * (chi_s[:, :, chi] + xi_s[:, :, xi])).sum(1)
    clipped[:, split] = clip_p[:, None] + (p * (chi_c[:, :, chi] + xi_c[:, :, xi])).sum(1)
    values[:, rest], clipped[:, rest] = cx_s[:, cx], cx_c[:, cx]
    return values, clipped


def entropy_table(states: Sequence[MultipartyState], masks=None,
                  diagnostics: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Entropies and clipped masses of the marginals on `masks` of each of
    `states`, as (T, len(masks)) float arrays in the order of `masks`; by
    default every marginal, (T, 2^m) indexed by party mask.  Mask 0 holds
    zeros.

    The states must share parties, dims and layout, as one family's builds
    do.  Their matrices are stacked and go through one `_run_program` pass;
    states that carry block factors (ConstrainedFamily builds, or their
    measured states) stack their factors instead, all in one pass.  The
    full table reads their spectra, which the first full call computes and
    every later one, for rho or its measured state, reads; a list of masks
    computes the factor marginals it needs and keeps nothing.  Each state's
    values are those it gets alone, and a list of masks gives the full
    table's columns to the bit.  A mask outside 0..2^m - 1 raises
    ValueError.  What a list of masks reads is resolved once per layout and
    list.  A `diagnostics` dict's "clipped_mass" is raised to the largest
    mass of eigenvalues <= 0 (rounding) dropped from one marginal, and its
    "eigvalsh" Counter gains the calls made, by matrix dimension.
    """
    if masks is not None:
        masks = tuple(np.asarray(masks, dtype=np.int64).tolist())
    if states[0].factors is None:
        program, (cols,) = _entropy_program(((states[0].dims, masks, 1),))
        out = _run_program(program, [np.array([s.rho for s in states])], len(states), diagnostics)
        values, clipped = out[:, :, cols[0]]
    else:
        values, clipped = _factored_entropies(states, masks, diagnostics)
    if diagnostics is not None and clipped.size:
        diagnostics["clipped_mass"] = max(diagnostics.get("clipped_mass", 0.0),
                                          float(clipped.max()))
    return values, clipped


def entropy_vector(state: MultipartyState, diagnostics: dict | None = None) -> SetFunction:
    """Entropies of every nonempty marginal, as a float64 set function: the
    one-state `entropy_table`, which updates `diagnostics`."""
    values, _ = entropy_table([state], diagnostics=diagnostics)
    return SetFunction(state.ground, values[0].tolist(), domain="float64")


def purify(state: MultipartyState) -> MultipartyState:
    """Attach a purifying party E (dimension = rank of the state) at the end."""
    if "E" in state.labels:
        raise ValueError("label 'E' already in use")
    w, v = np.linalg.eigh(state.rho)
    keep = w > CLIP
    w = w[keep]
    v = v[:, keep]
    if w.size == 0:
        raise ValueError("state has no eigenvalue above the clip threshold")
    r = w.size
    d = state.total_dim
    _check_cap(d * r)
    # |psi> = sum_i sqrt(w_i) |v_i> |i>, laid out with the new party last
    vec = np.zeros(d * r, dtype=np.complex128)
    for i in range(w.size):
        vec[i::r] = np.sqrt(w[i]) * v[:, i]
    rho = np.outer(vec, vec.conj())
    return MultipartyState(state.labels + ("E",), state.dims + (r,), rho, validate=False)


def _place_blocks(dims: Sequence[int], parts) -> np.ndarray:
    """The matrix over parties of `dims` that sums `parts`, (block, ranges)
    pairs: each block, reshaped to a square matrix, sits on the row-major
    product of its per-party (start, stop) index ranges.  The cap binds
    the placed matrix."""
    total = math.prod(dims)
    _check_cap(total)
    rho = np.zeros((total, total), dtype=np.complex128)
    for block, ranges in parts:
        idx = np.zeros(1, dtype=np.int64)
        for d, (start, stop) in zip(dims, ranges):
            idx = (idx[:, None] * d + np.arange(start, stop, dtype=np.int64)).reshape(-1)
        rho[np.ix_(idx, idx)] += block.reshape(idx.size, idx.size)
    return rho


def _check_blocks(blocks: int) -> int:
    """The block count of a block family, once it is at least one."""
    if blocks < 1:
        raise ValueError("need at least one block")
    return blocks


@dataclass(frozen=True)
class FamilyDims:
    """The shape of the constrained family, its one description;
    ConstrainedFamily derives the whole layout from it.

    Party A splits into K blocks (a_blocks), party B into matching blocks
    (b_blocks); each X_i is a pair of halves, the first correlated with the
    (A,B) side and the second with the C side.  Halves of dimension 1 are
    allowed.
    """

    a_blocks: tuple[int, ...]
    b_blocks: tuple[int, ...]
    dim_c: int
    x_halves: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.a_blocks) != len(self.b_blocks):
            raise ValueError("a_blocks and b_blocks must list the same number of blocks")
        _check_blocks(len(self.a_blocks))
        if min(self.a_blocks) < 1 or min(self.b_blocks) < 1 or self.dim_c < 1:
            raise ValueError("dimensions must be >= 1")
        for h in self.x_halves:
            if len(h) != 2 or h[0] < 1 or h[1] < 1:
                raise ValueError("each x entry is a pair of halves >= 1")

    @classmethod
    def default(cls, n: int, blocks: int = 2) -> FamilyDims:
        """n x-parties of two qubit halves each, a qubit C, and `blocks`
        one-dimensional blocks on A and on B."""
        if n < 1:
            raise ValueError("constrained family needs the order n >= 1")
        return cls((1,) * blocks, (1,) * blocks, 2, ((2, 2),) * n)


@dataclass(frozen=True, eq=False)
class BlockFactors:
    """A constrained-family state's own blocks, rho = sum_k weights[k]
    chi_k (x) xi_k: the chi_k as (tensor shape, block indices, stack)
    triples, one per shape, and every xi_k in one stack of tensor shape
    `xi_shape`; and `cx`, rho's marginal on (C, X1..Xn), where the blocks
    mix."""

    weights: np.ndarray
    chis: tuple
    xi_shape: tuple
    xis: np.ndarray
    cx: MultipartyState
    spectra: tuple | None = field(default=None, init=False, repr=False)  # see _factor_spectra

    @property
    def a_blocks(self) -> tuple[int, ...]:
        """The dimension of each block of A, in block order."""
        sizes = [0] * self.weights.size
        for shape, ks, _ in self.chis:
            for k in ks:
                sizes[k] = shape[0]
        return tuple(sizes)

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        """rho's marginals on (A, B, C) and on (X1..Xn), rebuilt from the
        blocks alone: sum_k p_k tr_X(chi_k) (x) tr_X(xi_k), placed on block
        k of A and of B, and sum_k p_k tr_AB(chi_k) (x) tr_C(xi_k), with each
        X's two halves brought together."""
        K, n = self.weights.size, len(self.xi_shape) - 1
        dim_c, x_second = self.xi_shape[0], self.xi_shape[1:]
        split = (dim_c, math.prod(x_second))
        xi_c, xi_x = _trace_one(self.xis, split, 1), _trace_one(self.xis, split, 0)
        chi_ab, chi_x, shapes = [None] * K, [None] * K, [None] * K
        for shape, ks, stack in self.chis:
            split = (shape[0] * shape[1], math.prod(shape[2:]))
            for k, ab, x in zip(ks, _trace_one(stack, split, 1), _trace_one(stack, split, 0)):
                chi_ab[k], chi_x[k], shapes[k] = ab, x, shape
        x_first = shapes[0][2:]
        p = self.weights
        a_starts = itertools.accumulate((s[0] for s in shapes), initial=0)
        b_starts = itertools.accumulate((s[1] for s in shapes), initial=0)
        abc = _place_blocks(
            (sum(s[0] for s in shapes), sum(s[1] for s in shapes), dim_c),
            [(p[k] * np.kron(chi_ab[k], xi_c[k]),
              ((sa, sa + s[0]), (sb, sb + s[1]), (0, dim_c)))
             for k, (s, sa, sb) in enumerate(zip(shapes, a_starts, b_starts))])
        x = sum(p[k] * np.kron(chi_x[k], xi_x[k]) for k in range(K))
        # axes (X first halves, X second halves) x 2 -> each X's halves together
        rows = [a for i in range(n) for a in (i, n + i)]
        d = x.shape[0]
        x = x.reshape((x_first + x_second) * 2).transpose(rows + [a + 2 * n for a in rows])
        return abc, x.reshape(d, d)


@functools.cache
def _factor_program(chis: tuple, xi_shape: tuple, cx_dims: tuple, wanted) -> tuple:
    """The `_entropy_program` of the stacks of each chi shape group (`chis`,
    (shape, blocks) pairs), the xi_k and cx, on `wanted` (`_factor_spectra`),
    and its columns: chi (K, masks) in block order, xi (K, masks), cx."""
    chi_m, xi_m, cx_m = wanted or (None, None, None)
    K = sum(len(ks) for _, ks in chis)
    program, gathers = _entropy_program(tuple((shape, chi_m, len(ks)) for shape, ks in chis)
                                        + ((xi_shape, xi_m, K), (cx_dims, cx_m, 1)))
    chi = np.concatenate(gathers[:-2])[np.argsort([k for _, ks in chis for k in ks])]
    return program, (_frozen(chi), gathers[-2], gathers[-1][0])


def _factor_spectra(fs: Sequence[BlockFactors], wanted=None,
                    diagnostics: dict | None = None) -> list[np.ndarray]:
    """(chi, chi clipped, xi, xi clipped, cx, cx clipped) of the block factors
    `fs`: entropies and clipped masses, (T, K, masks) for the chi_k and
    xi_k, (T, masks) for cx.  By default every mask: those not yet known
    are computed in one pass over the factor stacks and kept on their
    factors, for rho and sigma.  With `wanted`, (chi masks, xi masks, cx
    masks) tuples, only those columns, in that order, computed for every
    factor and not kept."""
    new = fs if wanted is not None else [f for f in fs if f.spectra is None]
    if new:
        first = new[0]
        program, cols = _factor_program(tuple((shape, ks) for shape, ks, _ in first.chis),
                                        first.xi_shape, first.cx.dims, wanted)
        stacks = [np.concatenate([f.chis[g][2] for f in new]) for g in range(len(first.chis))]
        stacks += [np.concatenate([f.xis for f in new]), np.array([f.cx.rho for f in new])]
        out = _run_program(program, stacks, len(new), diagnostics)
        parts = [a for c in cols for a in out[:, :, c]]
        if wanted is not None:
            return parts
        for f, row in zip(new, zip(*parts)):
            object.__setattr__(f, "spectra", row)
    return [np.array(a) for a in zip(*(f.spectra for f in fs))]


# --- parameters to states ---


def _check_trace(tr) -> None:
    """Refuse a parameter point any of whose traces `tr` is zero, or
    overflowed to inf or NaN (the builders compute them with float warnings
    off, so this error comes first)."""
    if not np.all((0 < tr) & (tr < np.inf)):
        raise ValueError("degenerate parameter point (trace zero or not finite)")


def simplex_weights(params: np.ndarray) -> np.ndarray:
    """Probability vector x_i^2 / sum_j x_j^2 of each row of `params` (..., d)."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = params * params
        s = p.sum(-1, keepdims=True)
    _check_trace(s)
    return p / s


def diagonal_density(params: np.ndarray) -> np.ndarray:
    """A classical distribution embedded diagonally: diag(simplex_weights(row))
    for each row of `params` (..., d), as (..., d, d)."""
    w = simplex_weights(params)
    d = w.shape[-1]
    rho = np.zeros(w.shape + (d,), dtype=np.complex128)
    rho.reshape(w.shape[:-1] + (d * d,))[..., ::d + 1] = w
    return rho


def gram_density(params: np.ndarray, dim: int, rank: int) -> np.ndarray:
    """G G^dag / trace for each row of `params` (..., 2*dim*rank), as
    (..., dim, dim), with the dim x rank Ginibre matrix G read from the
    row's reals: all real parts first, then all imaginary parts.  Every
    trace is checked."""
    half = dim * rank
    with np.errstate(over="ignore", invalid="ignore"):
        g = (params[..., :half] + 1j * params[..., half:]).reshape(params.shape[:-1] + (dim, rank))
        rho = g @ g.conj().swapaxes(-1, -2)
        tr = np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    _check_trace(tr)
    return rho / tr


class StateFamily:
    """A smoothly parameterized ensemble of states: draw params, build a state."""

    labels: tuple[str, ...]

    def n_params(self) -> int:
        raise NotImplementedError

    def draw(self, rng) -> np.ndarray:
        raise NotImplementedError

    def build(self, params: np.ndarray) -> MultipartyState:
        raise NotImplementedError


class HaarMixedFamily(StateFamily):
    """Hilbert-Schmidt-style states: G G^dag / trace with Gaussian G."""

    def __init__(self, labels: Sequence[str], dims: Sequence[int], rank: int | None = None):
        self.labels = tuple(labels)
        self.dims = tuple(int(d) for d in dims)
        self.total = _total_dim(self.labels, self.dims)
        _check_cap(self.total)
        self.rank = self.total if rank is None else int(rank)
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        # the draw is a total x rank matrix: no larger than the largest
        # density matrix the cap admits
        _check_cap(self.rank, "rank")

    def n_params(self) -> int:
        return 2 * self.total * self.rank

    def draw(self, rng) -> np.ndarray:
        return rng.standard_normal(self.n_params())

    def build(self, params: np.ndarray) -> MultipartyState:
        rho = gram_density(params, self.total, self.rank)
        return MultipartyState(self.labels, self.dims, rho, validate=False)


class DiagonalFamily(StateFamily):
    """Classical distributions embedded diagonally."""

    def __init__(self, labels: Sequence[str], dims: Sequence[int]):
        self.labels = tuple(labels)
        self.dims = tuple(int(d) for d in dims)
        self.total = _total_dim(self.labels, self.dims)
        _check_cap(self.total)

    def n_params(self) -> int:
        return self.total

    def draw(self, rng) -> np.ndarray:
        return np.sqrt(rng.standard_exponential(self.total))

    def build(self, params: np.ndarray) -> MultipartyState:
        return MultipartyState(self.labels, self.dims, diagonal_density(params), validate=False)


class ConstrainedFamily(StateFamily):
    """The block-decomposed family on (A, B, C, X1..Xn) of shape `dims`; both
    conditional independence constraints hold identically for every
    parameter point.

    Parameters: K block weights, then one factor per chi_k and per xi_k
    (Ginibre reals, or diagonal amplitudes with `diagonal=True`).  The whole
    layout is derived here, once, from `dims`: the party labels and
    dimensions, each chi_k's tensor shape on (A block k, B block k, x first
    halves), xi_k's on (C, x second halves), the index ranges where
    chi_k (x) xi_k sits, and the blocks grouped by chi_k's shape.  `build`
    returns a state given as the blocks it made, with its BlockFactors: the
    dense matrix is placed, and checked, only on a read of `.rho`.  So the
    cap binds the dense matrices a build and `check_theorem` make: the
    blocks' direct sum, and the (A, B, C) and (C, X1..Xn) marginals; a
    read of `.rho` meets it again on the total.
    """

    def __init__(self, dims: FamilyDims, diagonal: bool = False):
        a_blocks, b_blocks, dim_c, halves = dims.a_blocks, dims.b_blocks, dims.dim_c, dims.x_halves
        n, K = len(halves), len(a_blocks)
        x_dims = tuple(p * q for p, q in halves)
        self.labels = ("A", "B", "C") + tuple(f"X{i}" for i in range(1, n + 1))
        self.dims = (sum(a_blocks), sum(b_blocks), dim_c) + x_dims
        self.diagonal = diagonal
        a_starts = itertools.accumulate(a_blocks, initial=0)
        b_starts = itertools.accumulate(b_blocks, initial=0)
        self.chi_shapes = tuple((a, b) + tuple(p for p, _ in halves)
                                for a, b in zip(a_blocks, b_blocks))
        self.xi_shape = (dim_c,) + tuple(q for _, q in halves)
        self.ranges = tuple(
            ((sa, sa + a), (sb, sb + b), (0, dim_c)) + tuple((0, d) for d in x_dims)
            for sa, a, sb, b in zip(a_starts, a_blocks, b_starts, b_blocks)
        )
        # a stack of blocks chi_k (x) xi_k has axes (block, then chi rows, chi
        # cols, xi rows, xi cols, counted from 0 here); in state order the
        # rows run A, B, C, then each X's first half and its second, and each
        # column axis sits m (chi) or n + 1 (xi) past its row
        m = 2 + n
        rows = [0, 1, 2 * m] + [a for i in range(n) for a in (2 + i, 2 * m + 1 + i)]
        cols = [a + m if a < m else a + n + 1 for a in rows]
        self.axes = (0,) + tuple(a + 1 for a in rows + cols)
        self.factor_dims = tuple(map(math.prod, self.chi_shapes + (self.xi_shape,) * K))
        # the blocks, together, are as large as their direct sum (which also
        # bounds their entries, sum d_k^2 <= cap^2); the drift check places
        # the (A, B, C) marginal, and build makes the (C, X1..Xn) one
        _check_cap(sum(self.factor_dims[k] * self.factor_dims[K + k] for k in range(K)),
                   "block dimension")
        _check_cap(math.prod(self.dims[:3]), "(A, B, C) marginal dimension")
        _check_cap(math.prod(self.dims[2:]), "(C, X1..Xn) marginal dimension")
        groups: dict[tuple, list[int]] = {}
        for k, shape in enumerate(self.chi_shapes):
            groups.setdefault(shape, []).append(k)
        self.chi_groups = tuple((shape, tuple(ks)) for shape, ks in groups.items())
        self.sizes = (K,) + tuple(d if diagonal else 2 * d * d for d in self.factor_dims)
        # each chi group's parameter indices, one row per block of the group
        starts = tuple(itertools.accumulate(self.sizes))
        self.chi_rows = tuple(
            np.add.outer([starts[k] for k in ks], np.arange(self.sizes[1 + ks[0]]))
            for _, ks in self.chi_groups)

    def n_params(self) -> int:
        return sum(self.sizes)

    def draw(self, rng) -> np.ndarray:
        parts = [np.sqrt(rng.standard_exponential(self.sizes[0]))]
        for size in self.sizes[1:]:
            if self.diagonal:
                parts.append(np.sqrt(rng.standard_exponential(size)))
            else:
                parts.append(rng.standard_normal(size))
        return np.concatenate(parts)

    def _densities(self, raw: np.ndarray, dim: int) -> np.ndarray:
        """The factors of parameter rows `raw` (G, size), (G, dim, dim)."""
        return diagonal_density(raw) if self.diagonal else gram_density(raw, dim, dim)

    def build(self, params: np.ndarray) -> MultipartyState:
        """sum_k p_k chi_k (x) xi_k; I(A:C|B) and I(B:C|A) vanish identically.

        Each factor kind is made in one stacked call: every xi_k, then the
        chi_k of each shape group, whose blocks come from one stacked outer
        product and whose traces over A and B from one `_trace_one`.

        The weights and factors equal a per-block construction (one
        `tensordot` outer product per block) to the bit, and so do the blocks
        and the (C, X1..Xn) marginal at an even xi size and with diagonal
        factors.  With Gram factors at an odd xi size they agree only to
        rounding (about 1e-16): the `tensordot` rounds the last column of its
        outer product with fused multiply-adds, the matmul here does not."""
        if params.size != self.n_params():
            raise ValueError("parameter vector has the wrong length")
        K = self.sizes[0]
        weights = simplex_weights(params[:K])
        xis = self._densities(params[-K * self.sizes[-1]:].reshape(K, -1), self.factor_dims[-1])
        blocks, traced, chis = [None] * K, [None] * K, []
        for (shape, ks), rows in zip(self.chi_groups, self.chi_rows):
            chi = self._densities(params[rows], math.prod(shape))
            G, at, ab = len(ks), list(ks), shape[0] * shape[1]
            # the outer product as a stacked matmul: a plain complex product
            # per entry (a broadcast multiply rounds differently)
            d = self.factor_dims[ks[0]] * self.factor_dims[-1]
            stack = (chi.reshape(G, -1, 1) @ xis[at].reshape(G, 1, -1)).reshape(
                (G,) + shape * 2 + self.xi_shape * 2).transpose(self.axes).reshape(G, d, d)
            stack *= weights[at, None, None]
            # the blocks sit on disjoint A and B ranges, so rho's (C, X)
            # marginal is the sum of each block's own trace over its A and B
            for k, block, cx in zip(ks, stack, _trace_one(stack, (ab, d // ab), 0)):
                blocks[k], traced[k] = block, cx
            chis.append((shape, ks, chi))
        block_factors = BlockFactors(
            weights, tuple(chis), self.xi_shape, xis,
            MultipartyState(self.labels[2:], self.dims[2:], sum(traced), validate=False))
        return MultipartyState(self.labels, self.dims, blocks=zip(blocks, self.ranges),
                               factors=block_factors)


# lw05's fixed layout: the A, B and D dimensions of one block, then C's
LW05_DIMS = (1, 1, 2, 2)


class LW05Family(StateFamily):
    """Four-party family carrying all three constraints of the earlier
    constrained inequality; see lw05_family_sample."""

    def __init__(self, blocks: int = 2):
        self.labels = ("A", "B", "C", "D")
        self.blocks = _check_blocks(blocks)

    def draw(self, rng) -> np.ndarray:
        # parameterization mirrors the sampler; draw here just forwards a seed
        return rng.integers(0, 2**63 - 1, size=2)

    def build(self, params: np.ndarray) -> MultipartyState:
        return lw05_family_sample(self.blocks, seed=tuple(int(v) for v in params))


def constrained_family_sample(dims: FamilyDims, seed=0, diagonal: bool = False) -> MultipartyState:
    """Draw one member of the constrained family of shape `dims`:
    ConstrainedFamily's draw, then its build, on the stream of `seed`.

    Weights come from a flat simplex draw; block factors are Hilbert-Schmidt
    random densities (or random diagonal ones with `diagonal=True`, giving an
    embedded classical distribution).  Deterministic in `seed`.
    """
    family = ConstrainedFamily(dims, diagonal)
    return family.build(family.draw(_rng(seed)))


def lw05_family_sample(blocks: int = 2, seed=0) -> MultipartyState:
    """Four-party family satisfying all three constraints of the earlier
    constrained inequality: per block k the state is a product
    chi_A^k (x) chi_B^k (x) omega_CD^k with A, B, and D all blocked, the
    last factor joint on C and the k-th D block.  The block and C
    dimensions are fixed (LW05_DIMS).

    I(A:C|B), I(B:C|A), and I(A:B|D) all vanish identically, while the
    C-D correlation inside omega keeps the inequality slack generically
    strictly positive.

    One draw and one stacked `gram_density` per factor kind give the
    per-block construction's state (one `np.kron` per block) to the bit.
    """
    da, db, dd, dim_c = LW05_DIMS
    K = _check_blocks(blocks)
    dims = (da * K, db * K, dim_c, dd * K)
    rng = _rng(seed)
    w = rng.standard_exponential(K)
    weights = w / w.sum()
    kinds = (da, db, dim_c * dd)
    sizes = [2 * d * d for d in kinds]
    # every block's A, B and CD Ginibre reals from one draw, block by block
    raw = np.split(rng.standard_normal((K, sum(sizes))), np.cumsum(sizes)[:-1], axis=1)
    fa, fb, fcd = map(gram_density, raw, kinds, kinds)
    # each block's np.kron, the broadcast product it computes
    ab = (fa[:, :, None, :, None] * fb[:, None, :, None, :]).reshape(K, da * db, -1)
    abcd = (ab[:, :, None, :, None] * fcd[:, None, :, None, :]).reshape(K, da * db * dim_c * dd, -1)
    stack = weights[:, None, None] * abcd
    rho = _place_blocks(dims, [
        (block, ((k * da, (k + 1) * da), (k * db, (k + 1) * db), (0, dim_c),
                 (k * dd, (k + 1) * dd)))
        for k, block in enumerate(stack)])
    return MultipartyState(("A", "B", "C", "D"), dims, rho)


def measure_and_register(
    state: MultipartyState, party: str, sizes: Sequence[int]
) -> MultipartyState:
    """Measure which block of `party` the state is in, its dimension cut into
    consecutive blocks of `sizes`, and record the outcome in a new register R.

    The input must already be block diagonal in that party (off-block mass
    below 1e-10); the output appends a dimension-K register carrying the
    outcome, leaving every marginal on the original parties unchanged.

    A state with block factors, measured on A in its own blocks, is block
    diagonal there by construction: its measured state shares those
    factors, and its blocks are the state's, each with R's range (k, k+1)
    appended to block k, so its matrix is placed only if something reads
    `.rho`.  Any other state, or other sizes, are measured densely here.
    """
    if "R" in state.labels:
        raise ValueError("label 'R' already in use")
    pos = state.ground.index(party)
    dims = state.dims
    if not sizes or min(sizes) < 1 or sum(sizes) != dims[pos]:
        raise ValueError(f"block sizes {tuple(sizes)} must be >= 1 and add up to "
                         f"the dimension {dims[pos]} of party {party!r}")
    labels, sizes = state.labels + ("R",), tuple(sizes)
    if (state.factors is not None and state.blocks is not None and party == "A"
            and sizes == state.factors.a_blocks):
        return MultipartyState(
            labels, dims + (len(sizes),), validate=False, factors=state.factors,
            blocks=[(block, ranges + ((k, k + 1),))
                    for k, (block, ranges) in enumerate(state.blocks)])
    return MultipartyState(labels, dims + (len(sizes),), _measured_matrix(state, pos, sizes),
                           validate=False)


def _measured_matrix(state: MultipartyState, pos: int, sizes: tuple[int, ...]) -> np.ndarray:
    """The dense matrix of `measure_and_register` on the party at `pos`."""
    dims = state.dims
    K = len(sizes)
    party = state.labels[pos]
    _check_cap(state.total_dim * K)
    t = state.rho.reshape((math.prod(dims[:pos]), dims[pos], math.prod(dims[pos + 1:])) * 2)
    ranges = [(0, d) for d in dims]
    blocks = []
    for start, size in zip(itertools.accumulate(sizes, initial=0), sizes):
        ranges[pos] = (start, start + size)
        sl = slice(start, start + size)
        blocks.append((t[:, sl, :, :, sl, :], tuple(ranges)))
    off_mass = float(np.max(np.abs(state.rho - _place_blocks(dims, blocks))))
    if off_mass > STATE_ATOL:
        raise ValueError(
            f"state is not block diagonal in {party!r} (off-block mass {off_mass:.3e})"
        )
    return _place_blocks(
        dims + (K,), [(blk, r + ((k, k + 1),)) for k, (blk, r) in enumerate(blocks)]
    )


THEOREMS = ("thm1", "thm1p", "thm2", "thm2p")


@dataclass
class TheoremReport:
    """Numerical check of the constrained inequalities and of c_n's proof
    certificate on the measured state."""

    n: int
    tol: float
    constraint_residuals: dict
    slacks: dict
    hypotheses: dict
    min_term: float
    marginal_drift: float
    sigma_route: str  # "factored" (from rho's block factors) or "dense"
    clipped_mass: float  # the most mass clipped from one marginal of rho or sigma
    # `eigvalsh` calls by matrix dimension, for rho and sigma; not in reports
    eigvalsh: Counter = field(default_factory=Counter, compare=False, metadata={"json": False})

    @property
    def passed(self) -> bool:
        ok = all(abs(r) <= self.tol for r in self.constraint_residuals.values())
        ok = ok and all(abs(h) <= self.tol for h in self.hypotheses.values())
        ok = ok and all(s >= -self.tol for s in self.slacks.values())
        ok = ok and self.min_term >= -self.tol
        ok = ok and self.marginal_drift <= STATE_ATOL
        return ok


@functools.cache
def _theorem_forms(gr: GroundSet):
    """The shared constraints and each theorem's functional on the parties
    (A, B, C, X1..Xn) bound to themselves, and the terms and hypotheses (by
    `describe()`) of c_n's proof certificate on (A, B, C, X1..Xn, R); built
    once per order."""
    n, binding = gr.size - 3, {s: s for s in gr.labels}
    insts = {name: instantiate(builtin(name, n), gr, binding) for name in THEOREMS}
    _, terms, _, hypotheses, _ = proof_certificate(n)
    forms = {name: i.functional for name, i in insts.items()}
    return insts["thm1"].constraints, forms, terms, {h.describe(): h for h in hypotheses}


def check_theorem(
    state: MultipartyState,
    a_blocks: Sequence[int],
    tol: float = 1e-8,
) -> TheoremReport:
    """Evaluate the four constrained inequalities on a family state, and c_n's
    proof certificate on the state measured into a register R.

    The state must live on parties (A, B, C, X1..Xn), block diagonal in A
    with blocks of sizes `a_blocks` (a FamilyDims's own).  Slacks come from
    the entropy vector of the state itself.  The certificate's hypotheses and
    terms are evaluated on the post-measurement state with its outcome
    register R: each hypothesis should vanish and each term be nonnegative,
    which is the proof of `certify.proof_certificate` holding on this state.

    A state with block factors whose A blocks are `a_blocks` is measured on
    the factored route (`sigma_route` "factored"): sigma's entropies are an
    index map over rho's, and `marginal_drift` compares rho's marginals on
    (A, B, C) and on (X1..Xn), traced from its blocks, with the same
    marginals rebuilt from the factors, so factors that disagree with the
    blocks fail the check.  The blocks are checked for hermiticity and unit
    trace as the dense rho would be, and neither rho nor sigma is placed.
    On the dense route `marginal_drift` compares those marginals of rho and
    of the dense sigma.
    """
    labels = state.labels
    n = len(labels) - 3
    if labels[:3] != ("A", "B", "C") or labels[3:] != tuple(f"X{i}" for i in range(1, n + 1)):
        raise ValueError("check_theorem expects parties (A, B, C, X1..Xn)")
    if n < 1:
        raise ValueError("need at least one X party")
    check_tol(tol)

    diag: dict = {}
    h_rho = entropy_vector(state, diagnostics=diag)

    constraints, forms, terms, hyps = _theorem_forms(state.ground)
    residuals = {
        "I(A:C|B)": float(constraints[0].evaluate(h_rho)),
        "I(B:C|A)": float(constraints[1].evaluate(h_rho)),
    }
    slacks = {name: float(forms[name].evaluate(h_rho)) for name in THEOREMS}

    sigma = measure_and_register(state, "A", a_blocks)
    h_sigma = entropy_vector(sigma, diagnostics=diag)
    hypotheses = {key: h.evaluate(h_sigma) for key, h in hyps.items()}
    min_term = min(t.evaluate(h_sigma) for t in terms)

    subs = (("A", "B", "C"), tuple(f"X{i}" for i in range(1, n + 1)))
    if sigma.factors is None:
        rebuilt = [partial_trace(sigma, sub).rho for sub in subs]
    else:
        rebuilt = state.factors.marginals()
    drift = max(float(np.max(np.abs(partial_trace(state, sub).rho - b)))
                for sub, b in zip(subs, rebuilt))

    return TheoremReport(
        n=n,
        tol=tol,
        constraint_residuals=residuals,
        slacks=slacks,
        hypotheses=hypotheses,
        min_term=min_term,
        marginal_drift=drift,
        sigma_route="dense" if sigma.factors is None else "factored",
        clipped_mass=float(diag.get("clipped_mass", 0.0)),
        eigvalsh=diag.get("eigvalsh", Counter()),
    )
