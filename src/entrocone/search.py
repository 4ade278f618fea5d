"""Randomized search for counterexamples to entropic inequality templates.

A search draws states from a parameterized family (the families live in
`quantum`), evaluates every admissible instance of a template on each
state's entropy vector, and reports the worst slack seen.  A violation is
only reported when the instance's constraint residuals also pass, and every
violation is revalidated from its recorded seed before being believed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .inequalities import (
    CompiledTemplate,
    InequalityTemplate,
    Instance,
    builtin,
    enumerate_instances,
    instantiate,
    slot_mask_matrix,
)
from .quantum import (
    ConstrainedFamily,
    DiagonalFamily,
    FamilyDims,
    HaarMixedFamily,
    LW05Family,
    StateFamily,
    _rng,
    entropy_vector,
    partial_trace,
    trial_seed,
    von_neumann_entropy,
)
from .setfn import GroundSet, SetFunction, check_tol

FAMILIES = ("haar-mixed", "diagonal", "constrained", "constrained-diagonal", "lw05")


@dataclass
class SearchConfig:
    """Everything a scan or refinement needs; deterministic given `seed`."""

    template: object = "ssa"  # name or InequalityTemplate
    n: int | None = None  # family order for parametric templates
    family: str = "haar-mixed"
    labels: tuple = ()
    dims: tuple = ()  # per-party dims for haar-mixed / diagonal
    rank: int | None = None
    blocks: int = 2
    family_dims: FamilyDims | None = None
    trials: int = 100
    seed: int = 0
    tol: float = 1e-9
    binding: dict | None = None
    auto_filter: bool = False
    penalty: float = 1000.0
    refine_steps: int = 200
    step_size: float = 0.1

    def __post_init__(self):
        # no trials, or a walk that cannot move (an infinite step, or a NaN
        # or infinite penalty, makes every candidate NaN), would report "no
        # violation" without having looked
        for name, ok, want in (("trials", self.trials >= 1, "at least 1"),
                               ("step_size", 0 < self.step_size < math.inf,
                                "positive and finite"),
                               ("refine_steps", self.refine_steps >= 0, "at least 0"),
                               ("penalty", 0 <= self.penalty < math.inf,
                                "finite and at least 0")):
            if not ok:
                raise ValueError(f"{name} must be {want}")
        check_tol(self.tol)

    def summary(self) -> dict:
        return {
            "template": self.template if isinstance(self.template, str) else self.template.name,
            "n": self.n,
            "family": self.family,
            "labels": list(self.labels),
            "dims": list(self.dims),
            "rank": self.rank,
            "blocks": self.blocks,
            "trials": self.trials,
            "seed": self.seed,
            "tol": self.tol,
            "penalty": self.penalty,
            "refine_steps": self.refine_steps,
            "step_size": self.step_size,
        }


def resolve_template(cfg: SearchConfig) -> InequalityTemplate:
    if isinstance(cfg.template, InequalityTemplate):
        return cfg.template
    return builtin(str(cfg.template), cfg.n)


def family_for(cfg: SearchConfig, template: InequalityTemplate) -> StateFamily:
    name = cfg.family
    if name == "haar-mixed" or name == "diagonal":
        labels = tuple(cfg.labels) if cfg.labels else tuple(template.slots)
        dims = tuple(cfg.dims) if cfg.dims else (2,) * len(labels)
        if len(dims) != len(labels):
            raise ValueError("dims and labels must align")
        if name == "haar-mixed":
            return HaarMixedFamily(labels, dims, cfg.rank)
        return DiagonalFamily(labels, dims)
    if name in ("constrained", "constrained-diagonal"):
        n = cfg.n
        if n is None:
            n = sum(1 for s in template.slots if s.startswith("X"))
        if n < 0 or (cfg.family_dims is None and n < 1):
            raise ValueError("constrained family needs the order n >= 1")
        return ConstrainedFamily(
            n, cfg.blocks, cfg.family_dims, diagonal=(name == "constrained-diagonal")
        )
    if name == "lw05":
        return LW05Family(cfg.blocks)
    raise ValueError(f"unknown family {cfg.family!r} (choose from {FAMILIES})")


def _instances_for(
    template: InequalityTemplate, ground, cfg: SearchConfig
) -> list[Instance]:
    if cfg.binding is not None:
        if set(cfg.binding) == set(template.slots):
            return [instantiate(template, ground, cfg.binding)]
        return list(enumerate_instances(template, ground, fixed=cfg.binding))
    if template.constraints and not cfg.auto_filter:
        # natural binding: slots named after parties bind to themselves
        if all(s in ground.labels for s in template.slots):
            return [instantiate(template, ground, {s: s for s in template.slots})]
        raise ValueError(
            "constrained template: give a binding or set auto_filter=True"
        )
    return list(enumerate_instances(template, ground))


def _setup(cfg: SearchConfig):
    """Template, family, instances and their compiled evaluation `values`
    of a scan or walk.

    `values(h)` gives every instance's value and constraint values on the
    entropy vector h, as one float64 matrix product.
    """
    template = resolve_template(cfg)
    family = family_for(cfg, template)
    instances = _instances_for(template, GroundSet(family.labels), cfg)
    if not instances:
        raise ValueError("no instances to evaluate")
    compiled = CompiledTemplate(template)
    masks = slot_mask_matrix(instances, len(template.slots))

    def values(h) -> tuple[np.ndarray, np.ndarray]:
        v = compiled.bind(h).evaluate(masks)
        return v[:, 0], v[:, 1:]

    return template, family, instances, values


def _replay(family: StateFamily, params, inst: Instance, tol: float) -> dict | None:
    """Rebuild the state from `params` and re-evaluate `inst` on entropies
    taken apart from the scan's `entropy_vector` (a dense eigvalsh of each
    subset's `partial_trace`); the violation record if it holds, else None."""
    state = family.build(params)
    gr = GroundSet(state.labels)
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
    template_name: str
    n_trials: int
    n_instances: int
    n_evaluations: int
    n_admissible: int
    min_slack: float | None
    argmin: dict | None
    histogram: dict
    violations: list  # the replays that confirmed
    n_replayed: int  # trials whose best slack crossed -tol, replayed from their seed
    trial_records: list = field(default_factory=list)

    @property
    def violation_found(self) -> bool:
        return bool(self.violations)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "template": self.template_name,
            "n_trials": self.n_trials,
            "n_instances": self.n_instances,
            "n_evaluations": self.n_evaluations,
            "n_admissible": self.n_admissible,
            "min_slack": self.min_slack,
            "argmin": self.argmin,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "violations": self.violations,
            "violation_found": self.violation_found,
            "n_replayed": self.n_replayed,
        }


def random_scan(cfg: SearchConfig) -> ScanReport:
    """Evaluate a template over `trials` random states; deterministic in seed.

    Tracks the minimum slack over admissible instances (constraint residuals
    within tolerance); any violation is recomputed from its seed before being
    reported.
    """
    template, family, instances, values = _setup(cfg)
    min_slack = None
    argmin = None
    histogram: Counter = Counter()  # millibit floors of the admissible slacks
    violations: list[dict] = []
    records: list[dict] = []
    n_eval = 0
    n_adm = 0
    n_replayed = 0

    for t in range(cfg.trials):
        seed = trial_seed(cfg.seed, t)
        state = family.build(family.draw(_rng(seed)))
        vals, cons = values(entropy_vector(state))
        resid = np.abs(cons).max(axis=1, initial=0.0)
        adm = np.flatnonzero(~(resid > cfg.tol))
        n_eval += len(vals)
        n_adm += len(adm)
        best = best_inst = best_resid = None
        if len(adm):
            histogram.update(np.floor(vals[adm] / 1e-3).astype(np.int64).tolist())
            i = adm[np.argmin(vals[adm])]
            best, best_inst, best_resid = float(vals[i]), instances[i], float(resid[i])
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

    return ScanReport(
        config=cfg.summary(),
        template_name=template.name,
        n_trials=cfg.trials,
        n_instances=len(instances),
        n_evaluations=n_eval,
        n_admissible=n_adm,
        min_slack=min_slack,
        argmin=argmin,
        histogram=histogram,
        violations=violations,
        n_replayed=n_replayed,
        trial_records=records,
    )


@dataclass
class RefineReport:
    config: dict
    template_name: str
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

    @property
    def violation_found(self) -> bool:
        return self.violation is not None

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "template": self.template_name,
            "start_seed": self.start_seed,
            "steps": self.steps,
            "accepted": self.accepted,
            "start_objective": self.start_objective,
            "final_objective": self.final_objective,
            "final_slack": self.final_slack,
            "final_residual": self.final_residual,
            "final_instance": self.final_instance,
            "trajectory": self.trajectory,
            "violation": self.violation,
            "violation_found": self.violation_found,
        }


def local_refine(cfg: SearchConfig, start_seed=None) -> RefineReport:
    """Coordinate-descent polish of the worst instance from a seed point.

    Objective: min over instances of (slack + penalty * sum of squared
    constraint residuals).  One random coordinate moves per step; the step
    size halves on failure and the walk stops below 1e-8.
    """
    template, family, instances, values = _setup(cfg)
    if start_seed is None:
        start_seed = trial_seed(cfg.seed, 0)
    start_seed = tuple(start_seed) if isinstance(start_seed, (tuple, list)) else (start_seed,)

    def objective(params):
        vals, cons = values(entropy_vector(family.build(params)))
        objs = vals + cfg.penalty * (cons * cons).sum(axis=1)
        i = int(np.argmin(objs))
        resid = float(np.abs(cons[i]).max(initial=0.0))
        return float(objs[i]), (float(vals[i]), resid, instances[i])

    rng = _rng(start_seed)
    params = family.draw(rng)
    walk_rng = _rng((cfg.seed, 0x5EED))
    obj, parts = objective(params)
    start_obj = obj
    trajectory = [obj]
    step = cfg.step_size
    accepted = 0
    steps = 0
    for _ in range(cfg.refine_steps):
        if step < 1e-8:
            break
        steps += 1
        j = int(walk_rng.integers(0, params.size))
        cand = params.copy()
        cand[j] += step * walk_rng.standard_normal()
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

    final_slack, final_resid, final_inst = parts
    violation = None
    if final_slack < -cfg.tol and final_resid <= cfg.tol:
        # revalidate from scratch on the final parameter point
        violation = _replay(family, params, final_inst, cfg.tol)
    return RefineReport(
        config=cfg.summary(),
        template_name=template.name,
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
    )
