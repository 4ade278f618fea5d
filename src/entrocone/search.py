"""Randomized search for counterexamples to entropic inequality templates.

A search draws states from a parameterized family (the families live in
`quantum`), evaluates every admissible instance of a template on each
state's entropies, taken for a chunk of trials in one `entropy_table`
pass on the marginals the instances read, and reports the worst slack
seen.  A violation is only reported when the instance's constraint
residuals also pass, and every violation is revalidated from its
recorded seed before being believed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np

from .inequalities import (
    InequalityTemplate,
    Instance,
    builtin,
    float_values,
    slot_blocks,
    takes_order,
    template_from_obj,
    template_to_obj,
)
from .quantum import (
    ConstrainedFamily,
    DiagonalFamily,
    FamilyDims,
    HaarMixedFamily,
    LW05Family,
    MultipartyState,
    StateFamily,
    _rng,
    entropy_table,
    partial_trace,
    trial_seed,
    von_neumann_entropy,
)
from .setfn import GroundSet, SetFunction, check_tol

FAMILIES = ("haar-mixed", "diagonal", "constrained", "constrained-diagonal", "lw05")
PENALTY = 1000.0  # local_refine's weight on the squared constraint residuals
STEP = 0.1  # local_refine's first step size
# random_scan's chunk: trials whose largest stacked matrices fit in these
# bytes (one trial at least), so memory stays flat in the trial count
CHUNK_BYTES = 1 << 17


@dataclass
class SearchConfig:
    """Everything a scan or refinement needs; deterministic given `seed`."""

    template: object = "ssa"  # builtin name, InequalityTemplate, or its template_to_obj dict
    n: int | None = None  # family order for parametric templates
    family: str = "haar-mixed"
    labels: tuple = ()
    dims: tuple = ()  # per-party dims for haar-mixed / diagonal
    rank: int | None = None
    blocks: int | None = None  # block count for constrained / lw05 (default 2)
    trials: int = 100
    seed: int = 0
    tol: float = 1e-9
    binding: dict | None = None
    auto_filter: bool = False
    refine_steps: int = 200

    def __post_init__(self):
        # no trials would report "no violation" without having looked, and
        # a negative step count is no walk at all
        for name, ok, want in (("trials", self.trials >= 1, "at least 1"),
                               ("refine_steps", self.refine_steps >= 0, "at least 0")):
            if not ok:
                raise ValueError(f"{name} must be {want}")
        check_tol(self.tol)

    def summary(self) -> dict:
        """Every field, JSON-ready: `SearchConfig(**summary)` redoes the run
        (a template object is recorded in full, as `template_to_obj` writes it)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if isinstance(self.template, InequalityTemplate):
            out["template"] = template_to_obj(self.template)
        out["labels"], out["dims"] = list(self.labels), list(self.dims)
        return out


def resolve_template(cfg: SearchConfig) -> InequalityTemplate:
    if isinstance(cfg.template, InequalityTemplate):
        return cfg.template
    if isinstance(cfg.template, dict):
        return template_from_obj(cfg.template)
    return builtin(str(cfg.template), cfg.n)


def family_for(cfg: SearchConfig, template: InequalityTemplate) -> StateFamily:
    """The state family `cfg` names.  A family that fixes its own parties
    refuses `labels`, `dims` and `rank`, one without blocks refuses
    `blocks`, `diagonal` refuses `rank`, and only the constrained families
    read `n` when the template does not: a field nothing would read is an
    error, not a silent default."""
    name = cfg.family
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r} (choose from {FAMILIES})")
    is_set = {"labels": len(cfg.labels) > 0, "dims": len(cfg.dims) > 0,
              "rank": cfg.rank is not None, "blocks": cfg.blocks is not None,
              "n": cfg.n is not None and not (isinstance(cfg.template, str)
                                              and takes_order(cfg.template))}
    unread = {"haar-mixed": ("blocks", "n"), "diagonal": ("rank", "blocks", "n"),
              "lw05": ("labels", "dims", "rank", "n")}.get(name, ("labels", "dims", "rank"))
    given = [f for f in unread if is_set[f]]
    if given:
        raise ValueError(f"family {name!r} does not take {', '.join(given)}")
    if name == "haar-mixed" or name == "diagonal":
        labels = tuple(cfg.labels) if cfg.labels else tuple(template.slots)
        dims = tuple(cfg.dims) if cfg.dims else (2,) * len(labels)
        if name == "haar-mixed":
            return HaarMixedFamily(labels, dims, cfg.rank)
        return DiagonalFamily(labels, dims)
    blocks = 2 if cfg.blocks is None else cfg.blocks
    if name == "lw05":
        return LW05Family(blocks)
    n = cfg.n
    if n is None:
        n = sum(1 for s in template.slots if s.startswith("X"))
    return ConstrainedFamily(FamilyDims.default(n, blocks),
                             diagonal=(name == "constrained-diagonal"))


def _setup(cfg: SearchConfig):
    """Template, family, ground, instance rows (its `slot_blocks` as one
    int64 (rows, slots) matrix; an `Instance` is made only for a row a
    report names), their evaluation `values` and the party masks it reads,
    of a scan or walk.  `values` gives each state's instance values
    (T, rows) and constraint values (T, rows, constraints) from one
    `entropy_table` on the distinct masks of the rows' terms (the
    template's `terms`), through `float_values` on the template's
    `floats`, so a trial's slack does not depend on its chunk, and updates
    a `diagnostics` dict as `entropy_table` does.
    """
    template = resolve_template(cfg)
    family = family_for(cfg, template)
    ground = GroundSet(family.labels)
    binding = cfg.binding
    if binding is None and template.constraints and not cfg.auto_filter:
        # natural binding: slots named after parties bind to themselves
        if not all(s in ground.labels for s in template.slots):
            raise ValueError("constrained template: give a binding (--bind) or set "
                             "auto_filter=True (--auto-filter)")
        binding = {s: s for s in template.slots}
    rows = np.concatenate([np.empty((0, len(template.slots)), np.int64),
                           *slot_blocks(template, ground, fixed=binding)])
    if not len(rows):
        raise ValueError("no instances to evaluate")
    terms = template.terms(rows)
    # sorted distinct masks; np.unique's first call imports numpy.ma (1.7 MB)
    masks = np.array(sorted(set(terms.ravel().tolist())), dtype=np.int64)
    cols = np.searchsorted(masks, terms)  # each term's column of the table

    def values(states, diagnostics: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
        table, _ = entropy_table(states, masks, diagnostics)
        v = float_values(table[:, cols], template.floats)
        return v[..., 0], v[..., 1:]

    return template, family, ground, rows, values, masks


def _state_bytes(state) -> int:
    """The bytes of the largest matrix `entropy_table` stacks for `state`: its
    own, or with block factors their (C, X1..Xn) marginal."""
    return 16 * (state if state.factors is None else state.factors.cx).total_dim ** 2


def _replay(family: StateFamily, params, inst: Instance, tol: float) -> dict | None:
    """Rebuild the state from `params` and re-evaluate `inst` on entropies
    taken apart from the scan's `entropy_table` (a dense eigvalsh of each
    subset's `partial_trace` of the dense, checked matrix); the violation
    record if it holds, else None.  A state given as blocks is checked, block
    by block, when `.rho` places them, so only an array state is checked
    here."""
    built = family.build(params)
    gr = built.ground
    state = MultipartyState(gr.labels, built.dims, built.rho, validate=built.blocks is None)
    h = SetFunction(gr, {m: von_neumann_entropy(partial_trace(state, gr.labels_of(m)))
                         for m in gr.iter_masks()})
    val = inst.functional.evaluate(h)
    resid = max((abs(c.evaluate(h)) for c in inst.constraints), default=0.0)
    if val < -tol and resid <= tol:
        return {"instance": inst.describe(), "value": float(val), "residual": float(resid)}
    return None


@dataclass
class ScanReport:
    config: dict
    template: str
    n_trials: int
    n_instances: int
    n_evaluations: int
    n_admissible: int
    min_slack: float | None
    argmin: dict | None
    histogram: dict  # millibit floor -> count, sorted
    violations: list  # the replays that confirmed
    n_replayed: int  # trials whose best slack crossed -tol, replayed from their seed
    trial_records: list = field(default_factory=list, metadata={"json": False})  # CSV rows
    # [nonzero masks taken per state, 2^m - 1]
    marginals: list = field(default_factory=list, metadata={"json": False})
    # the largest eigenvalue mass clipped from one marginal of any trial
    clipped_mass: float = field(default=0.0, metadata={"json": False})
    # `entropy_table`'s `eigvalsh` calls by matrix dimension
    eigvalsh: Counter = field(default_factory=Counter, metadata={"json": False})

    @property
    def violation_found(self) -> bool:
        return bool(self.violations)


def random_scan(cfg: SearchConfig) -> ScanReport:
    """Evaluate a template over `trials` random states; deterministic in seed.
    Trials are built one at a time and evaluated a chunk (`CHUNK_BYTES`) at
    a time, and the report does not depend on the chunk.

    Tracks the minimum slack over admissible instances (constraint residuals
    within tolerance); any violation is recomputed from its seed before being
    reported.
    """
    template, family, ground, rows, values, masks = _setup(cfg)
    min_slack = None
    argmin = None
    histogram: Counter = Counter()  # millibit floors of the admissible slacks
    violations: list[dict] = []
    records: list[dict] = []
    n_eval = 0
    n_adm = 0
    n_replayed = 0
    diag: dict = {}

    chunk: list = []  # (trial, seed, state)
    for t in range(cfg.trials):
        seed = trial_seed(cfg.seed, t)
        chunk.append((t, seed, family.build(family.draw(_rng(seed)))))
        if t + 1 < cfg.trials and (len(chunk) + 1) * _state_bytes(chunk[0][2]) <= CHUNK_BYTES:
            continue
        chunk_vals, chunk_cons = values([state for *_, state in chunk], diag)
        chunk_resid = np.abs(chunk_cons).max(axis=2, initial=0.0)
        for (t, seed, _), vals, resid in zip(chunk, chunk_vals, chunk_resid):
            adm = np.flatnonzero(~(resid > cfg.tol))
            n_eval += len(vals)
            n_adm += len(adm)
            best = best_inst = best_resid = None
            if len(adm):
                histogram.update(np.floor(vals[adm] / 1e-3).astype(np.int64).tolist())
                i = adm[np.argmin(vals[adm])]
                best, best_resid = float(vals[i]), float(resid[i])
                best_inst = Instance(template, ground, rows[i].tolist())
            records.append(
                {
                    "trial": t,
                    "seed": f"{seed[0]}:{seed[1]}",
                    "min_slack": best,
                    "argmin_instance": best_inst.describe() if best_inst else "",
                    "max_residual": best_resid,
                }
            )
            if best is None:
                continue
            if min_slack is None or best < min_slack:
                min_slack = best
                argmin = {
                    "trial": t,
                    "seed": list(seed),
                    "instance": best_inst.describe(),
                    "value": best,
                    "residual": best_resid,
                }
            if best < -cfg.tol:
                # rebuild independently from the recorded seed before reporting
                n_replayed += 1
                replayed = _replay(family, family.draw(_rng(seed)), best_inst, cfg.tol)
                if replayed is not None:
                    violations.append({"trial": t, "seed": list(seed), **replayed})
        chunk = []

    return ScanReport(
        config=cfg.summary(),
        template=template.name,
        n_trials=cfg.trials,
        n_instances=len(rows),
        n_evaluations=n_eval,
        n_admissible=n_adm,
        min_slack=min_slack,
        argmin=argmin,
        histogram=dict(sorted(histogram.items())),
        violations=violations,
        n_replayed=n_replayed,
        trial_records=records,
        marginals=[int(np.count_nonzero(masks)), (1 << len(family.labels)) - 1],
        clipped_mass=diag.get("clipped_mass", 0.0),
        eigvalsh=diag.get("eigvalsh", Counter()),
    )


@dataclass
class RefineReport:
    config: dict
    template: str
    start_seed: list
    steps: int
    accepted: int
    start_objective: float
    final_objective: float
    final_slack: float | None
    final_residual: float
    final_instance: str
    trajectory: list
    violation: dict | None
    # 1 if the final point was rebuilt and replayed, else 0
    n_replayed: int = field(default=0, metadata={"json": False})
    # the largest eigenvalue mass clipped from one marginal of any state the walk evaluated
    clipped_mass: float = field(default=0.0, metadata={"json": False})
    # `entropy_table`'s `eigvalsh` calls by matrix dimension
    eigvalsh: Counter = field(default_factory=Counter, metadata={"json": False})

    @property
    def violation_found(self) -> bool:
        return self.violation is not None


def local_refine(cfg: SearchConfig, start_seed=None) -> RefineReport:
    """Coordinate-descent polish of the worst instance from a seed point.

    Objective: min over instances of (slack + PENALTY * sum of squared
    constraint residuals).  One random coordinate moves per step; the step
    size starts at STEP, halves on failure, and the walk stops below 1e-8.
    """
    template, family, ground, rows, values, _ = _setup(cfg)
    if start_seed is None:
        start_seed = trial_seed(cfg.seed, 0)
    start_seed = tuple(start_seed) if isinstance(start_seed, (tuple, list)) else (start_seed,)

    diag: dict = {}

    def objective(params):
        vals, cons = values([family.build(params)], diag)
        vals, cons = vals[0], cons[0]
        objs = vals + PENALTY * (cons * cons).sum(axis=1)
        i = int(np.argmin(objs))
        resid = float(np.abs(cons[i]).max(initial=0.0))
        return float(objs[i]), (float(vals[i]), resid, i)

    rng = _rng(start_seed)
    params = family.draw(rng)
    walk_rng = _rng((cfg.seed, 0x5EED))
    obj, parts = objective(params)
    start_obj = obj
    trajectory = [obj]
    step = STEP
    accepted = 0
    steps = 0
    for _ in range(cfg.refine_steps):
        if step < 1e-8:
            break
        steps += 1
        j = int(walk_rng.integers(0, params.size))
        cand = params.copy()
        cand[j] = float(params[j]) + step * walk_rng.standard_normal()
        try:
            cand_obj, cand_parts = objective(cand)
        except (ValueError, np.linalg.LinAlgError):
            step *= 0.5
            continue
        if cand_obj < obj:
            params, obj, parts = cand, cand_obj, cand_parts
            accepted += 1
            if len(trajectory) < 200:
                trajectory.append(obj)
        else:
            step *= 0.5

    final_slack, final_resid, final_row = parts
    final_inst = Instance(template, ground, rows[final_row].tolist())
    violation = None
    replayed = final_slack < -cfg.tol and final_resid <= cfg.tol
    if replayed:
        # revalidate from scratch on the final parameter point
        violation = _replay(family, params, final_inst, cfg.tol)
    return RefineReport(
        config=cfg.summary(),
        template=template.name,
        start_seed=list(start_seed),
        steps=steps,
        accepted=accepted,
        start_objective=start_obj,
        final_objective=obj,
        final_slack=final_slack,
        final_residual=final_resid,
        final_instance=final_inst.describe(),
        trajectory=[float(v) for v in trajectory],
        violation=violation,
        n_replayed=int(replayed),
        clipped_mass=diag.get("clipped_mass", 0.0),
        eigvalsh=diag.get("eigvalsh", Counter()),
    )
