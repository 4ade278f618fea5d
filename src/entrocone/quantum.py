"""Finite-dimensional multiparty density matrices and their entropy vectors.

Entropies are von Neumann entropies in bits (base-2 logs).  Comparisons on
float results use absolute tolerances; eigenvalues below the clip threshold
are dropped from the log and their mass is reported, never silently ignored.

The constrained family sampled here carries a block decomposition on two
parties: conditioned on the block index k, the state factorizes between the
(A, B, x-first-half) side and the (C, x-second-half) side, which makes both
conditional-independence constraints hold identically.
"""

from __future__ import annotations

import base64
import functools
import json
import os
import string
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .setfn import GroundSet, SetFunction, check_tol, cmi
from .inequalities import builtin, instantiate

CLIP = 1e-12
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


def _check_cap(total: int):
    cap = dim_cap()
    if total > cap:
        raise ValueError(
            f"total dimension {total} exceeds cap {cap} (set ENTROPIC_MAX_DIM to raise it)"
        )


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (tuple, list)):
        return np.random.default_rng(np.random.SeedSequence(entropy=tuple(seed)))
    return np.random.default_rng(np.random.SeedSequence(entropy=seed))


def trial_seed(base_seed: int, trial: int) -> tuple[int, int]:
    """Per-trial seed material: stable, independent streams per trial index."""
    return (base_seed, trial)


class MultipartyState:
    """Density matrix over an ordered tuple of labeled parties.

    The matrix is indexed row-major by the party order.  Construction checks
    shape, hermiticity, and unit trace (a NaN or infinite entry fails them);
    `validate='full'` adds a positivity check, `validate='none'` skips
    everything (internal use on matrices that are valid by construction).
    """

    __slots__ = ("labels", "dims", "rho")

    def __init__(self, labels, dims, rho, validate: str = "basic"):
        self.labels = tuple(labels)
        self.dims = tuple(int(d) for d in dims)
        if len(self.labels) != len(self.dims):
            raise ValueError("labels and dims must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("party labels must be distinct")
        if any(d < 1 for d in self.dims):
            raise ValueError("party dimensions must be >= 1")
        rho = np.asarray(rho, dtype=np.complex128)
        total = 1
        for d in self.dims:
            total *= d
        if rho.shape != (total, total):
            raise ValueError(f"matrix shape {rho.shape} does not match total dim {total}")
        self.rho = rho
        if validate != "none":
            herm = np.max(np.abs(rho - rho.conj().T)) if total else 0.0
            if not herm <= STATE_ATOL:
                raise ValueError(f"matrix not hermitian (deviation {herm:.3e})")
            tr = abs(np.trace(rho) - 1.0)
            if not tr <= STATE_ATOL:
                raise ValueError(f"trace deviates from one by {tr:.3e}")
            if validate == "full":
                w = np.linalg.eigvalsh(rho)
                if not w.min() >= -STATE_ATOL:
                    raise ValueError(f"matrix not positive (min eigenvalue {w.min():.3e})")

    @property
    def total_dim(self) -> int:
        return self.rho.shape[0]

    @property
    def n_parties(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown party label {label!r}") from None

    def ground(self) -> GroundSet:
        return GroundSet(self.labels)

    def __repr__(self):
        pairs = ", ".join(f"{l}:{d}" for l, d in zip(self.labels, self.dims))
        return f"MultipartyState({pairs})"


def partial_trace(state: MultipartyState, keep) -> MultipartyState:
    """Marginal on `keep` (labels, original order preserved)."""
    if isinstance(keep, str):
        keep = (keep,)
    keep_idx = sorted({state.index(l) for l in keep})
    if not keep_idx:
        raise ValueError("must keep at least one party")
    m = state.n_parties
    if len(keep_idx) == m:
        return state
    letters = string.ascii_letters
    row = [""] * m
    col = [""] * m
    nxt = 0
    out_row = []
    out_col = []
    keep_set = set(keep_idx)
    for i in range(m):
        if i in keep_set:
            row[i] = letters[nxt]
            col[i] = letters[nxt + 1]
            out_row.append(letters[nxt])
            out_col.append(letters[nxt + 1])
            nxt += 2
        else:
            row[i] = col[i] = letters[nxt]
            nxt += 1
    sub = "".join(row) + "".join(col) + "->" + "".join(out_row) + "".join(out_col)
    tensor = state.rho.reshape(state.dims + state.dims)
    reduced = np.einsum(sub, tensor)
    new_dims = tuple(state.dims[i] for i in keep_idx)
    d = int(np.prod(new_dims))
    return MultipartyState(
        tuple(state.labels[i] for i in keep_idx),
        new_dims,
        reduced.reshape(d, d),
        validate="none",
    )


def _entropy_from_eigs(w: np.ndarray) -> tuple[float, float]:
    clipped = float(np.abs(w[w <= CLIP]).sum())
    w = w[w > CLIP]
    if w.size == 0:
        return 0.0, clipped
    return float(-(w * np.log2(w)).sum()), clipped


def von_neumann_entropy(state) -> float:
    """Entropy in bits of a MultipartyState or a raw density matrix."""
    rho = state.rho if isinstance(state, MultipartyState) else np.asarray(state)
    s, _ = _entropy_from_eigs(np.linalg.eigvalsh(rho))
    return s


def _trace_one(mat: np.ndarray, dims: Sequence[int], pos: int) -> np.ndarray:
    pre = int(np.prod(dims[:pos])) if pos else 1
    dk = dims[pos]
    post = int(np.prod(dims[pos + 1:])) if pos + 1 < len(dims) else 1
    t = mat.reshape(pre, dk, post, pre, dk, post)
    out = np.einsum("aibcid->abcd", t)
    return out.reshape(pre * post, pre * post)


def _support_entropy(mat: np.ndarray) -> tuple[float, float]:
    """Entropy and clipped mass of the Hermitian `mat`, diagonalized on its
    support.  A row (and, by hermiticity, its column) with no entry above
    CLIP adds only an eigenvalue the clip drops, so it is removed first and
    its diagonal counts as clipped mass.  Only rows whose diagonal is at
    most CLIP are scanned, so a dense matrix goes straight to `eigvalsh`."""
    diag = mat.diagonal().real
    if diag.min() > CLIP:
        return _entropy_from_eigs(np.linalg.eigvalsh(mat))
    keep = diag > CLIP
    low = ~keep
    keep[low] = (np.abs(mat[low]) > CLIP).any(axis=1)
    s, clipped = _entropy_from_eigs(np.linalg.eigvalsh(mat[np.ix_(keep, keep)]))
    return s, clipped + float(np.abs(diag[~keep]).sum())


def entropy_vector(state: MultipartyState, diagnostics: dict | None = None) -> SetFunction:
    """Entropies of every nonempty marginal, as a float64 set function.

    Each marginal is diagonalized on its support, so the empty index
    combinations of a block-structured state (the constrained family's
    mismatched A/B blocks, a measured register's other outcomes) cost nothing.
    When a `diagnostics` dict is supplied, the total eigenvalue mass dropped
    by clipping is accumulated under "clipped_mass".
    """
    gr = state.ground()
    m = gr.size
    values = [0.0] * gr.n_subsets
    clipped_total = 0.0

    level = {gr.full_mask: state.rho}
    for count in range(m, 0, -1):
        next_level: dict[int, np.ndarray] = {}
        for mask, mat in level.items():
            idxs = [i for i in range(m) if mask >> i & 1]
            dims = [state.dims[i] for i in idxs]
            values[mask], clipped = _support_entropy(mat)
            clipped_total += clipped
            if count > 1:
                for pos, i in enumerate(idxs):
                    child = mask & ~(1 << i)
                    if child and child not in next_level:
                        next_level[child] = _trace_one(mat, dims, pos)
        level = next_level
    if diagnostics is not None:
        diagnostics["clipped_mass"] = diagnostics.get("clipped_mass", 0.0) + clipped_total
    return SetFunction(gr, values, domain="float64")


def purify(state: MultipartyState, new_label: str = "E") -> MultipartyState:
    """Attach a purifying party (dimension = rank of the state) at the end."""
    if new_label in state.labels:
        raise ValueError(f"label {new_label!r} already in use")
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
    return MultipartyState(
        state.labels + (new_label,), state.dims + (r,), rho, validate="none"
    )


@dataclass(frozen=True)
class BlockStructure:
    """Orthogonal decomposition of one party's space into index ranges."""

    party: str
    blocks: tuple[tuple[int, int], ...]  # (start, size) pairs, contiguous

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("need at least one block")
        pos = 0
        for start, size in self.blocks:
            if start != pos or size < 1:
                raise ValueError("blocks must be contiguous (start, size) ranges from 0")
            pos = start + size

    @property
    def dim(self) -> int:
        return sum(size for _, size in self.blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def _embed_indices(dims: Sequence[int], ranges: Sequence[tuple[int, int]]) -> np.ndarray:
    """Row-major global indices of the product of per-party index ranges."""
    out = np.zeros(1, dtype=np.int64)
    for d, (start, stop) in zip(dims, ranges):
        arr = np.arange(start, stop, dtype=np.int64)
        out = (out[:, None] * d + arr[None, :]).reshape(-1)
    return out


@dataclass(frozen=True)
class FamilyDims:
    """Dimension layout for the constrained family.

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
        if not self.a_blocks:
            raise ValueError("need at least one block")
        if min(self.a_blocks) < 1 or min(self.b_blocks) < 1 or self.dim_c < 1:
            raise ValueError("dimensions must be >= 1")
        for h in self.x_halves:
            if len(h) != 2 or h[0] < 1 or h[1] < 1:
                raise ValueError("each x entry is a pair of halves >= 1")

    @property
    def n(self) -> int:
        return len(self.x_halves)

    @property
    def n_blocks(self) -> int:
        return len(self.a_blocks)

    @property
    def dim_a(self) -> int:
        return sum(self.a_blocks)

    @property
    def dim_b(self) -> int:
        return sum(self.b_blocks)

    def x_dims(self) -> tuple[int, ...]:
        return tuple(p * q for p, q in self.x_halves)

    def total_dim(self) -> int:
        t = self.dim_a * self.dim_b * self.dim_c
        for d in self.x_dims():
            t *= d
        return t


def default_family_dims(n: int, blocks: int = 2) -> FamilyDims:
    return FamilyDims(
        a_blocks=(1,) * blocks,
        b_blocks=(1,) * blocks,
        dim_c=2,
        x_halves=((2, 2),) * n,
    )


def family_labels(n: int) -> tuple[str, ...]:
    return ("A", "B", "C") + tuple(f"X{i}" for i in range(1, n + 1))


def assemble_constrained_state(
    fdims: FamilyDims,
    bs: BlockStructure,
    weights: Sequence[float],
    chis: Sequence[np.ndarray],
    xis: Sequence[np.ndarray],
) -> MultipartyState:
    """Build sum_k p_k chi_k (x) xi_k with chi_k on (A-block k, B-block k,
    x first halves) and xi_k on (C, x second halves); `bs` is the A-side
    block structure of `fdims`.

    Both constraints I(A:C|B) and I(B:C|A) vanish identically on the result.
    """
    n = fdims.n
    K = fdims.n_blocks
    if not (len(weights) == len(chis) == len(xis) == K):
        raise ValueError("need one weight, chi, and xi per block")
    total = fdims.total_dim()
    _check_cap(total)
    labels = family_labels(n)
    dims = (fdims.dim_a, fdims.dim_b, fdims.dim_c) + fdims.x_dims()
    rho = np.zeros((total, total), dtype=np.complex128)
    b_starts = np.cumsum((0,) + fdims.b_blocks[:-1])
    xp = [h[0] for h in fdims.x_halves]
    xq = [h[1] for h in fdims.x_halves]
    for k in range(K):
        a_start, ak = bs.blocks[k]
        bk = fdims.b_blocks[k]
        chi = np.asarray(chis[k], dtype=np.complex128)
        xi = np.asarray(xis[k], dtype=np.complex128)
        d_chi = ak * bk * int(np.prod(xp)) if n else ak * bk
        d_xi = fdims.dim_c * int(np.prod(xq)) if n else fdims.dim_c
        if chi.shape != (d_chi, d_chi):
            raise ValueError(f"chi[{k}] must be {d_chi}x{d_chi}")
        if xi.shape != (d_xi, d_xi):
            raise ValueError(f"xi[{k}] must be {d_xi}x{d_xi}")
        chi_t = chi.reshape([ak, bk] + xp + [ak, bk] + xp)
        xi_t = xi.reshape([fdims.dim_c] + xq + [fdims.dim_c] + xq)
        T = np.tensordot(chi_t, xi_t, axes=0)
        # axes: chi rows (2+n), chi cols (2+n), xi rows (1+n), xi cols (1+n)
        cr, cc, xr, xc = 0, 2 + n, 2 * (2 + n), 2 * (2 + n) + 1 + n
        row = [cr, cr + 1, xr]
        col = [cc, cc + 1, xc]
        for i in range(n):
            row += [cr + 2 + i, xr + 1 + i]
            col += [cc + 2 + i, xc + 1 + i]
        block = T.transpose(row + col)
        dk = ak * bk * fdims.dim_c * int(np.prod(fdims.x_dims())) if n else ak * bk * fdims.dim_c
        block = block.reshape(dk, dk)
        ranges = [
            (a_start, a_start + ak),
            (int(b_starts[k]), int(b_starts[k]) + bk),
            (0, fdims.dim_c),
        ] + [(0, d) for d in fdims.x_dims()]
        idx = _embed_indices(dims, ranges)
        rho[np.ix_(idx, idx)] += weights[k] * block
    return MultipartyState(labels, dims, rho, validate="basic")


# --- parameters to states ---


def simplex_weights(params: np.ndarray) -> np.ndarray:
    """Probability vector x_i^2 / sum_j x_j^2."""
    p = params * params
    s = p.sum()
    if not s > 0:
        raise ValueError("degenerate parameter point (zero trace)")
    return p / s


def diagonal_density(params: np.ndarray) -> np.ndarray:
    """A classical distribution embedded diagonally: diag(simplex_weights(params))."""
    return np.diag(simplex_weights(params)).astype(np.complex128)


def gram_density(params: np.ndarray, dim: int, rank: int) -> np.ndarray:
    """G G^dag / trace, with the dim x rank Ginibre matrix G read from
    2*dim*rank reals: all real parts first, then all imaginary parts."""
    half = dim * rank
    g = (params[:half] + 1j * params[half:]).reshape(dim, rank)
    rho = g @ g.conj().T
    tr = np.trace(rho).real
    if not tr > 0:
        raise ValueError("degenerate parameter point (zero trace)")
    return rho / tr


def random_density(dim: int, rng, rank: int | None = None) -> np.ndarray:
    """Hilbert-Schmidt-style random density matrix (Ginibre G G^dag / trace)."""
    rank = dim if rank is None else rank
    if not 1 <= rank:
        raise ValueError("rank must be >= 1")
    return gram_density(rng.standard_normal(2 * dim * rank), dim, rank)


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
        if len(self.labels) != len(self.dims):
            raise ValueError("labels and dims must align")
        self.total = int(np.prod(self.dims))
        _check_cap(self.total)
        self.rank = self.total if rank is None else int(rank)
        if self.rank < 1:
            raise ValueError("rank must be >= 1")

    def n_params(self) -> int:
        return 2 * self.total * self.rank

    def draw(self, rng) -> np.ndarray:
        return rng.standard_normal(self.n_params())

    def build(self, params: np.ndarray) -> MultipartyState:
        rho = gram_density(params, self.total, self.rank)
        return MultipartyState(self.labels, self.dims, rho, validate="none")


class DiagonalFamily(StateFamily):
    """Classical distributions embedded diagonally."""

    def __init__(self, labels: Sequence[str], dims: Sequence[int]):
        self.labels = tuple(labels)
        self.dims = tuple(int(d) for d in dims)
        self.total = int(np.prod(self.dims))
        _check_cap(self.total)

    def n_params(self) -> int:
        return self.total

    def draw(self, rng) -> np.ndarray:
        return np.sqrt(rng.standard_exponential(self.total))

    def build(self, params: np.ndarray) -> MultipartyState:
        return MultipartyState(self.labels, self.dims, diagonal_density(params), validate="none")


class ConstrainedFamily(StateFamily):
    """The block-decomposed family on (A, B, C, X1..Xn); both conditional
    independence constraints hold identically for every parameter point.

    Parameters: K block weights, then one factor per chi_k and per xi_k
    (Ginibre reals, or diagonal amplitudes with `diagonal=True`).  The A-side
    block structure is fixed by the dimensions and kept in `structure`.
    """

    def __init__(self, n: int, blocks: int = 2, dims: FamilyDims | None = None,
                 diagonal: bool = False):
        self.fdims = default_family_dims(n, blocks) if dims is None else dims
        _check_cap(self.fdims.total_dim())
        self.labels = family_labels(self.fdims.n)
        self.diagonal = diagonal
        starts = np.cumsum((0,) + self.fdims.a_blocks[:-1])
        self.structure = BlockStructure(
            "A", tuple((int(s), int(z)) for s, z in zip(starts, self.fdims.a_blocks))
        )
        xp = 1
        xq = 1
        for a, b in self.fdims.x_halves:
            xp *= a
            xq *= b
        K = self.fdims.n_blocks
        self.factor_dims = tuple(
            [self.fdims.a_blocks[k] * self.fdims.b_blocks[k] * xp for k in range(K)]
            + [self.fdims.dim_c * xq] * K
        )
        self.sizes = (K,) + tuple(d if diagonal else 2 * d * d for d in self.factor_dims)

    def n_params(self) -> int:
        return sum(self.sizes)

    def draw(self, rng) -> np.ndarray:
        parts = [np.sqrt(rng.standard_exponential(self.fdims.n_blocks))]
        for size in self.sizes[1:]:
            if self.diagonal:
                parts.append(np.sqrt(rng.standard_exponential(size)))
            else:
                parts.append(rng.standard_normal(size))
        return np.concatenate(parts)

    def build(self, params: np.ndarray) -> MultipartyState:
        if params.size != self.n_params():
            raise ValueError("parameter vector has the wrong length")
        pieces = np.split(params, np.cumsum(self.sizes)[:-1])
        if self.diagonal:
            factors = [diagonal_density(raw) for raw in pieces[1:]]
        else:
            factors = [gram_density(raw, d, d) for raw, d in zip(pieces[1:], self.factor_dims)]
        K = self.fdims.n_blocks
        return assemble_constrained_state(
            self.fdims, self.structure, simplex_weights(pieces[0]), factors[:K], factors[K:]
        )


class LW05Family(StateFamily):
    """Four-party family carrying all three constraints of the earlier
    constrained inequality; see lw05_family_sample."""

    def __init__(self, blocks: int = 2, block_dims: tuple = (1, 1, 2), dim_c: int = 2):
        self.labels = ("A", "B", "C", "D")
        self.blocks = blocks
        self.block_dims = tuple(block_dims)
        self.dim_c = dim_c
        da, db, dd = self.block_dims
        _check_cap(da * blocks * db * blocks * dim_c * dd * blocks)

    def n_params(self) -> int:
        da, db, dd = self.block_dims
        per = 2 * da * da + 2 * db * db + 2 * (self.dim_c * dd) ** 2
        return self.blocks + per * self.blocks

    def draw(self, rng) -> np.ndarray:
        # parameterization mirrors the sampler; draw here just forwards a seed
        return rng.integers(0, 2**63 - 1, size=2)

    def build(self, params: np.ndarray) -> MultipartyState:
        return lw05_family_sample(
            self.blocks, self.block_dims, self.dim_c, seed=tuple(int(v) for v in params)
        )


def constrained_family_sample(
    n: int,
    blocks: int = 2,
    dims: FamilyDims | None = None,
    seed=0,
    diagonal: bool = False,
) -> tuple[MultipartyState, BlockStructure]:
    """Draw one member of the constrained family: ConstrainedFamily's draw,
    then its build, on the stream of `seed`.

    Weights come from a flat simplex draw; block factors are Hilbert-Schmidt
    random densities (or random diagonal ones with `diagonal=True`, giving an
    embedded classical distribution).  Deterministic in `seed`.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if dims is not None and blocks not in (dims.n_blocks, 2):
        raise ValueError("blocks disagrees with dims")
    family = ConstrainedFamily(n, blocks, dims, diagonal)
    if family.fdims.n != n:
        raise ValueError(f"dims describe {family.fdims.n} x-parties, asked for {n}")
    return family.build(family.draw(_rng(seed))), family.structure


def lw05_family_sample(
    blocks: int = 2,
    block_dims: tuple[int, int, int] = (1, 1, 2),
    dim_c: int = 2,
    seed=0,
) -> MultipartyState:
    """Four-party family satisfying all three constraints of the earlier
    constrained inequality: per block k the state is a product
    chi_A^k (x) chi_B^k (x) omega_CD^k with A, B, and D all blocked, the
    last factor joint on C and the k-th D block.

    I(A:C|B), I(B:C|A), and I(A:B|D) all vanish identically, while the
    C-D correlation inside omega keeps the inequality slack generically
    strictly positive.
    """
    da, db, dd = block_dims
    K = blocks
    dims = (da * K, db * K, dim_c, dd * K)
    total = int(np.prod(dims))
    _check_cap(total)
    rng = _rng(seed)
    w = rng.standard_exponential(K)
    weights = w / w.sum()
    rho = np.zeros((total, total), dtype=np.complex128)
    for k in range(K):
        fa = random_density(da, rng)
        fb = random_density(db, rng)
        fcd = random_density(dim_c * dd, rng)
        blk = np.kron(np.kron(fa, fb), fcd)
        ranges = [
            (k * da, (k + 1) * da),
            (k * db, (k + 1) * db),
            (0, dim_c),
            (k * dd, (k + 1) * dd),
        ]
        idx = _embed_indices(dims, ranges)
        rho[np.ix_(idx, idx)] += weights[k] * blk
    return MultipartyState(("A", "B", "C", "D"), dims, rho, validate="basic")


def measure_and_register(
    state: MultipartyState, bs: BlockStructure, register_label: str = "R"
) -> MultipartyState:
    """Measure the block index of `bs.party` and record it in a new register.

    The input must already be block diagonal in that party (off-block mass
    below 1e-10); the output appends a dimension-K register carrying the
    outcome, leaving every marginal on the original parties unchanged.
    """
    if register_label in state.labels:
        raise ValueError(f"label {register_label!r} already in use")
    pos = state.index(bs.party)
    if bs.dim != state.dims[pos]:
        raise ValueError(
            f"blocks cover dimension {bs.dim}, party {bs.party!r} has {state.dims[pos]}"
        )
    K = bs.n_blocks
    d = state.total_dim
    _check_cap(d * K)
    pre = int(np.prod(state.dims[:pos])) if pos else 1
    dk = state.dims[pos]
    post = int(np.prod(state.dims[pos + 1:])) if pos + 1 < len(state.dims) else 1
    t = state.rho.reshape(pre, dk, post, pre, dk, post)
    off = t.copy()
    parts = []
    for start, size in bs.blocks:
        sl = slice(start, start + size)
        parts.append((sl, t[:, sl, :, :, sl, :]))
        off[:, sl, :, :, sl, :] = 0
    off_mass = float(np.max(np.abs(off)))
    if off_mass > STATE_ATOL:
        raise ValueError(
            f"state is not block diagonal in {bs.party!r} (off-block mass {off_mass:.3e})"
        )
    sigma = np.zeros((d * K, d * K), dtype=np.complex128)
    view = sigma.reshape(d, K, d, K)
    for k, (sl, _) in enumerate(parts):
        blocked = np.zeros_like(t)
        blocked[:, sl, :, :, sl, :] = t[:, sl, :, :, sl, :]
        view[:, k, :, k] = blocked.reshape(d, d)
    return MultipartyState(
        state.labels + (register_label,),
        state.dims + (K,),
        sigma,
        validate="none",
    )


THEOREMS = ("thm1", "thm1p", "thm2", "thm2p")


@dataclass
class TheoremReport:
    """Numerical check of the constrained inequalities and their proof trace."""

    n: int
    tol: float
    constraint_residuals: dict
    slacks: dict
    register_entropy: float
    cond_register_on_a: float
    cond_register_on_b: float
    min_register_monotonicity: float
    register_vs_correlation: float
    min_chain_slack: float
    aggregate_slack: float
    min_data_processing: float
    marginal_drift: float
    clipped_mass: float

    @property
    def passed(self) -> bool:
        ok = all(abs(r) <= self.tol for r in self.constraint_residuals.values())
        ok = ok and all(s >= -self.tol for s in self.slacks.values())
        ok = ok and self.cond_register_on_a <= self.tol
        ok = ok and self.cond_register_on_b <= self.tol
        ok = ok and self.min_register_monotonicity >= -self.tol
        ok = ok and self.register_vs_correlation >= -self.tol
        ok = ok and self.min_chain_slack >= -self.tol
        ok = ok and self.aggregate_slack >= -self.tol
        ok = ok and self.min_data_processing >= -self.tol
        ok = ok and self.marginal_drift <= STATE_ATOL
        return ok

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "tol": self.tol,
            "passed": self.passed,
            "constraint_residuals": dict(self.constraint_residuals),
            "slacks": dict(self.slacks),
            "register_entropy": self.register_entropy,
            "cond_register_on_a": self.cond_register_on_a,
            "cond_register_on_b": self.cond_register_on_b,
            "min_register_monotonicity": self.min_register_monotonicity,
            "register_vs_correlation": self.register_vs_correlation,
            "min_chain_slack": self.min_chain_slack,
            "aggregate_slack": self.aggregate_slack,
            "min_data_processing": self.min_data_processing,
            "marginal_drift": self.marginal_drift,
            "clipped_mass": self.clipped_mass,
        }


@functools.cache
def _theorem_forms(labels: tuple[str, ...]):
    """The shared constraints and each theorem's functional on the parties
    (A, B, C, X1..Xn) bound to themselves; built once per order."""
    gr, binding = GroundSet(labels), {s: s for s in labels}
    insts = {name: instantiate(builtin(name, len(labels) - 3), gr, binding) for name in THEOREMS}
    return insts["thm1"].constraints, {name: i.functional for name, i in insts.items()}


def check_theorem(
    state: MultipartyState,
    bs: BlockStructure,
    which: Sequence[str] = THEOREMS,
    tol: float = 1e-8,
) -> TheoremReport:
    """Evaluate the four constrained inequalities on a family state and walk
    the measurement argument behind them.

    The state must live on parties (A, B, C, X1..Xn).  Slacks come from the
    entropy vector of the state itself; the proof-trace quantities come from
    the post-measurement state with its outcome register.
    """
    labels = state.labels
    n = len(labels) - 3
    if labels[:3] != ("A", "B", "C") or labels[3:] != tuple(f"X{i}" for i in range(1, n + 1)):
        raise ValueError("check_theorem expects parties (A, B, C, X1..Xn)")
    if n < 1:
        raise ValueError("need at least one X party")
    for name in which:
        if name not in THEOREMS:
            raise ValueError(f"unknown theorem {name!r} (choose from {','.join(THEOREMS)})")
    check_tol(tol)

    diag: dict = {}
    h_rho = entropy_vector(state, diagnostics=diag)

    constraints, forms = _theorem_forms(labels)
    residuals = {
        "I(A:C|B)": float(constraints[0].evaluate(h_rho)),
        "I(B:C|A)": float(constraints[1].evaluate(h_rho)),
    }
    slacks = {name: float(forms[name].evaluate(h_rho)) for name in which}

    sigma = measure_and_register(state, bs, "R")
    h_sigma = entropy_vector(sigma, diagnostics=diag)
    sgr = h_sigma.ground

    s_r = h_sigma("R")
    cond_a = abs(h_sigma(("A", "R")) - h_sigma("A"))
    cond_b = abs(h_sigma(("B", "R")) - h_sigma("B"))

    r_bit = sgr.mask_of("R")
    min_mono = min(
        h_sigma.values[mask | r_bit] - h_sigma.values[mask]
        for mask in range(1, sgr.n_subsets)
        if not mask & r_bit
    )

    reg_vs_corr = s_r - cmi(h_sigma, ("A", "B"), "C")

    chain = []
    dp = []
    for i in range(1, n + 1):
        xi = f"X{i}"
        i_ab_xi_sigma = cmi(h_sigma, "A", "B", xi)
        chain.append(i_ab_xi_sigma - (h_sigma((xi, "R")) - h_sigma(xi)))
        dp.append(cmi(h_rho, "A", "B", xi) - i_ab_xi_sigma)
    aggregate = sum(chain)

    drift = 0.0
    for sub in (tuple(f"X{i}" for i in range(1, n + 1)), ("A", "B", "C")):
        a = partial_trace(state, sub).rho
        b = partial_trace(sigma, sub).rho
        drift = max(drift, float(np.max(np.abs(a - b))))

    return TheoremReport(
        n=n,
        tol=tol,
        constraint_residuals=residuals,
        slacks=slacks,
        register_entropy=float(s_r),
        cond_register_on_a=float(cond_a),
        cond_register_on_b=float(cond_b),
        min_register_monotonicity=float(min_mono),
        register_vs_correlation=float(reg_vs_corr),
        min_chain_slack=float(min(chain)),
        aggregate_slack=float(aggregate),
        min_data_processing=float(min(dp)),
        marginal_drift=drift,
        clipped_mass=float(diag.get("clipped_mass", 0.0)),
    )


# --- serialization ---

STATE_FORMAT = "density-matrix/complex128-le/v1"


def state_to_obj(state: MultipartyState, meta: dict | None = None) -> dict:
    data = np.ascontiguousarray(state.rho, dtype="<c16").tobytes()
    obj = {
        "format": STATE_FORMAT,
        "labels": list(state.labels),
        "dims": list(state.dims),
        "matrix_b64": base64.b64encode(data).decode("ascii"),
    }
    if meta:
        obj["meta"] = meta
    return obj


def state_from_obj(obj) -> MultipartyState:
    if not isinstance(obj, dict):
        raise ValueError("state object must be a JSON object")
    for key in ("labels", "dims", "matrix_b64"):
        if key not in obj:
            raise ValueError(f"state object missing key {key!r}")
    if obj.get("format", STATE_FORMAT) != STATE_FORMAT:
        raise ValueError(f"unsupported state format {obj.get('format')!r}")
    labels = tuple(obj["labels"])
    dims = tuple(int(d) for d in obj["dims"])
    total = 1
    for d in dims:
        total *= d
    raw = base64.b64decode(obj["matrix_b64"])
    if len(raw) != total * total * 16:
        raise ValueError("matrix payload has the wrong size")
    mat = np.frombuffer(raw, dtype="<c16").astype(np.complex128).reshape(total, total)
    return MultipartyState(labels, dims, mat, validate="full")


def state_to_json(state: MultipartyState, meta: dict | None = None) -> str:
    return json.dumps(state_to_obj(state, meta))


def state_from_json(text: str) -> MultipartyState:
    return state_from_obj(json.loads(text))
