"""Randomized violation search: reproducibility, planted defects, refinement."""

import json

import numpy as np
import pytest

from entrocone import quantum, search
from entrocone.inequalities import Instance, builtin, template_from_obj, template_to_obj
from entrocone.setfn import to_obj
from entrocone.search import (
    ConstrainedFamily,
    DiagonalFamily,
    FamilyDims,
    HaarMixedFamily,
    SearchConfig,
    family_for,
    local_refine,
    random_scan,
    resolve_template,
)


def test_scan_is_deterministic():
    cfg = SearchConfig(template="ssa", family="haar-mixed", labels=("A", "B", "C"),
                       dims=(2, 2, 2), trials=12, seed=5)
    a = random_scan(cfg)
    b = random_scan(cfg)
    assert to_obj(a) == to_obj(b)
    assert a.trial_records == b.trial_records


def test_scan_ssa_never_violates():
    cfg = SearchConfig(template="ssa", family="haar-mixed", labels=("A", "B", "C"),
                       dims=(2, 2, 2), trials=50, seed=1)
    rep = random_scan(cfg)
    assert not rep.violation_found
    assert rep.min_slack is not None and rep.min_slack >= -1e-9
    assert rep.n_admissible == rep.n_evaluations == 50 * rep.n_instances


def test_scan_finds_planted_violation_quickly():
    cfg = SearchConfig(template="anti-monotone", family="haar-mixed",
                       labels=("A", "B"), dims=(2, 2), trials=100, seed=0)
    rep = random_scan(cfg)
    assert rep.violation_found
    assert rep.n_replayed == len(rep.violations) >= 1
    first = rep.violations[0]
    assert first["value"] < -1e-9
    assert first["trial"] < 100


def test_replay_does_not_trust_the_scan_entropies(monkeypatch):
    """A scan whose entropies are wrong (negated, so every ssa slack
    looks negative) must not get a violation past the replay."""
    scan_entropies = search.entropy_table

    def negated(states, masks=None):
        values, clipped = scan_entropies(states, masks)
        return -values, clipped

    monkeypatch.setattr(search, "entropy_table", negated)
    cfg = SearchConfig(template="ssa", family="haar-mixed", labels=("A", "B", "C"),
                       dims=(2, 2, 2), trials=5, seed=4)
    rep = random_scan(cfg)
    assert rep.n_replayed > 0
    assert rep.violations == []


@pytest.mark.parametrize("cfg,cls", [
    (SearchConfig(template="c_1", family="constrained", n=1, trials=4, seed=2,
                  refine_steps=6), ConstrainedFamily),
    (SearchConfig(template="anti-monotone", family="haar-mixed", labels=("A", "B"),
                  dims=(2, 2), rank=4, trials=6, seed=0, refine_steps=6), HaarMixedFamily),
])
def test_one_family_build_per_trial_step_and_replay(monkeypatch, cfg, cls):
    """The benchmark's span check counts builds with this same formula."""
    builds = []
    real_build = cls.build
    monkeypatch.setattr(cls, "build", lambda fam, params: builds.append(1) or
                        real_build(fam, params))
    scan = random_scan(cfg)
    assert len(builds) == scan.n_trials + len(scan.violations)
    builds.clear()
    refine = local_refine(cfg)
    assert len(builds) == 1 + refine.steps + (refine.violation is not None)
    assert refine.n_replayed == (refine.violation is not None)


def test_replay_never_takes_the_factored_route(monkeypatch):
    factored = []
    real = quantum._factored_entropies
    monkeypatch.setattr(quantum, "_factored_entropies",
                        lambda state: factored.append(1) or real(state))
    cfg = SearchConfig(template="c_1", family="constrained", n=1, trials=1)
    template, family, ground, rows, *_ = search._setup(cfg)
    instances = [Instance(template, ground, r) for r in rows.tolist()]
    params = family.draw(search._rng(0))
    assert family.build(params).factors is not None
    assert search._replay(family, params, instances[0], cfg.tol) is None
    assert factored == []


def test_scan_diagonalizes_only_the_marginals_c_2_reads(monkeypatch):
    """One c_2 state at n = 2 through the scan's `values`: 4 `eigvalsh`
    calls on its 14 masks, against 10 for the full table of 31."""
    cfg = SearchConfig(template="c_2", family="constrained", n=2, trials=1)
    _, family, _, _, values, masks = search._setup(cfg)
    assert np.count_nonzero(masks) == 14
    params = family.draw(search._rng(0))
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or real(a))
    values([family.build(params)])
    taken = len(calls)
    calls.clear()
    quantum.entropy_table([family.build(params)])
    assert (taken, len(calls)) == (4, 10)


def test_scan_and_refine_never_place_rho(monkeypatch):
    placed = []
    real = quantum._place_blocks
    monkeypatch.setattr(quantum, "_place_blocks",
                        lambda dims, parts: placed.append(dims) or real(dims, parts))
    cfg = SearchConfig(template="c_2", family="constrained", trials=5, seed=1, refine_steps=8)
    scan, refine = random_scan(cfg), local_refine(cfg)
    assert scan.n_replayed == 0 and refine.violation is None and refine.steps > 0
    assert placed == []
    template, family, ground, rows, *_ = search._setup(cfg)
    instances = [Instance(template, ground, r) for r in rows.tolist()]
    assert search._replay(family, family.draw(search._rng(0)), instances[0], cfg.tol) is None
    assert len(placed) == 1


@pytest.mark.parametrize("cfg", [
    SearchConfig(template="c_2", family="constrained", trials=1),
    SearchConfig(template="ssa", family="haar-mixed", labels=("A", "B", "C"), dims=(2, 2, 2),
                 trials=1),
], ids=["constrained", "haar-mixed"])
def test_replay_checks_the_matrix_once(monkeypatch, cfg):
    # a constrained state's blocks are checked when .rho is read, and the
    # placed matrix is not checked again (its blocks are disjoint); a
    # haar-mixed build is not checked, so the replay checks it
    checks = []
    real = quantum._check_state
    monkeypatch.setattr(quantum, "_check_state",
                        lambda herm, trace: checks.append(1) or real(herm, trace))
    template, family, ground, rows, *_ = search._setup(cfg)
    instances = [Instance(template, ground, r) for r in rows.tolist()]
    params = family.draw(search._rng(0))
    family.build(params).rho
    one_read = len(checks)
    checks.clear()
    search._replay(family, params, instances[0], cfg.tol)
    assert len(checks) == (one_read if cfg.family == "constrained" else 1)
    assert one_read == (1 if cfg.family == "constrained" else 0)


@pytest.mark.parametrize("corrupt, message", [
    (lambda block: block + np.triu(np.full(block.shape, 0.1), 1), "not hermitian"),
    (lambda block: 1.5 * block, "trace deviates"),
], ids=["hermiticity", "trace"])
def test_a_bad_block_is_caught_when_rho_is_read(monkeypatch, corrupt, message):
    # the first block of every state the family builds is corrupted: the
    # block checks catch it, though the placed matrix is not checked again
    real = ConstrainedFamily.build

    def build(self, params):
        state = real(self, params)
        return quantum.MultipartyState(state.labels, state.dims, factors=state.factors, blocks=[
            (corrupt(block) if k == 0 else block, ranges)
            for k, (block, ranges) in enumerate(state._blocks)])

    monkeypatch.setattr(ConstrainedFamily, "build", build)
    cfg = SearchConfig(template="c_1", family="constrained", n=1, trials=1)
    template, family, ground, rows, *_ = search._setup(cfg)
    instances = [Instance(template, ground, r) for r in rows.tolist()]
    params = family.draw(search._rng(0))
    state = family.build(params)
    with pytest.raises(ValueError, match=message):
        state.rho
    with pytest.raises(ValueError, match=message):
        search._replay(family, params, instances[0], cfg.tol)


def test_overlapping_blocks_are_checked_again_when_placed():
    # each block deviates from hermiticity by 0.6 of the tolerance, so each
    # passes alone; they overlap, and the placed matrix deviates by 1.2
    skew = np.zeros((2, 2), dtype=complex)
    skew[0, 1] = 0.6 * quantum.STATE_ATOL
    half = np.eye(2) / 4 + skew
    state = quantum.MultipartyState(("A", "B"), (2, 2), blocks=[
        (half, ((0, 1), (0, 2))), (half, ((0, 1), (0, 2)))])
    assert state.blocks is not None  # the block checks pass
    with pytest.raises(ValueError, match="not hermitian"):
        state.rho


def test_replay_checks_the_matrix_it_confirms_on():
    """A family that builds unchecked matrices (as haar-mixed and diagonal
    do) gets no violation confirmed on a matrix that is not a state."""
    class Skewed(HaarMixedFamily):
        def build(self, params):
            rho = super().build(params).rho
            return quantum.MultipartyState(self.labels, self.dims, rho + np.triu(
                np.full(rho.shape, 0.1), 1), validate=False)

    cfg = SearchConfig(template="anti-monotone", family="haar-mixed", labels=("A", "B"),
                       dims=(2, 2), trials=1)
    template, family, ground, rows, *_ = search._setup(cfg)
    instances = [Instance(template, ground, r) for r in rows.tolist()]
    skewed = Skewed(family.labels, family.dims)
    with pytest.raises(ValueError, match="matrix not hermitian"):
        search._replay(skewed, skewed.draw(search._rng(0)), instances[0], cfg.tol)


def test_scan_histogram_buckets_are_millibit_floors():
    cfg = SearchConfig(template="ssa", family="haar-mixed", labels=("A", "B", "C"),
                       dims=(2, 2, 2), trials=10, seed=2)
    rep = random_scan(cfg)
    assert rep.histogram
    assert all(isinstance(k, int) for k in rep.histogram)
    assert sum(rep.histogram.values()) == rep.n_admissible
    assert min(rep.histogram) >= 0  # ssa slacks are nonnegative


def _file_template(terms_of: str, name: str):
    """A template as a file gives it: the builtin `terms_of` under `name`."""
    return template_from_obj({**template_to_obj(builtin(terms_of)), "name": name})


@pytest.mark.parametrize("options", [
    {},  # the natural binding: 1 instance
    {"binding": {"A": ("A",), "B": ("B",), "C": ("C",)}},  # 5 instances
    {"auto_filter": True},  # 405 instances
    # file templates on (2,2,2): a renamed copy of ssa, and wmo's terms
    # under the name ssa (22 instances, where the builtin ssa has 9)
    {"template": _file_template("ssa", "my-ssa"), "family": "haar-mixed", "n": None},
    {"template": _file_template("wmo", "ssa"), "family": "haar-mixed", "n": None},
])
def test_report_config_rebuilds_the_scan(options):
    cfg = SearchConfig(**{"template": "c_2", "family": "constrained", "n": 2, "trials": 2,
                          **options})
    report = json.loads(json.dumps(to_obj(random_scan(cfg))))
    again = random_scan(SearchConfig(**report["config"]))
    assert json.loads(json.dumps(to_obj(again))) == report


def test_scan_constrained_family_natural_binding():
    cfg = SearchConfig(template="c_2", family="constrained", n=2, trials=8, seed=3)
    rep = random_scan(cfg)
    assert rep.n_instances == 1
    assert rep.n_admissible == 8  # residuals vanish by construction
    assert not rep.violation_found


def test_scan_auto_filter_rejects_generic_states():
    # a constrained template scanned over unstructured states: nothing admissible
    cfg = SearchConfig(template="lw05", family="haar-mixed",
                       labels=("A", "B", "C", "D"), dims=(2, 2, 2, 2),
                       trials=5, seed=4, auto_filter=True)
    rep = random_scan(cfg)
    assert rep.n_admissible == 0
    assert rep.min_slack is None


def test_scan_partial_binding_enumerates_remaining_slots():
    cfg = SearchConfig(template="ssa", family="haar-mixed", labels=("A", "B", "C"),
                       dims=(2, 2, 2), trials=3, seed=6,
                       binding={"A": ("A",)})
    rep = random_scan(cfg)
    full = SearchConfig(template="ssa", family="haar-mixed", labels=("A", "B", "C"),
                        dims=(2, 2, 2), trials=3, seed=6)
    assert 0 < rep.n_instances < random_scan(full).n_instances


def test_constrained_template_without_binding_errors():
    cfg = SearchConfig(template="lw05", family="haar-mixed",
                       labels=("P", "Q", "R", "S"), dims=(2, 2, 2, 2), trials=2)
    with pytest.raises(ValueError):
        random_scan(cfg)


def test_refine_improves_or_holds_objective():
    cfg = SearchConfig(template="anti-monotone", family="haar-mixed",
                       labels=("A", "B"), dims=(2, 2), seed=5,
                       refine_steps=80)
    rep = local_refine(cfg)
    assert rep.final_objective <= rep.start_objective
    assert rep.violation_found
    assert rep.trajectory[0] == rep.start_objective
    assert rep.trajectory == sorted(rep.trajectory, reverse=True)


def test_refine_respects_theorem_templates():
    cfg = SearchConfig(template="ssa", family="haar-mixed", labels=("A", "B", "C"),
                       dims=(2, 2, 2), seed=8, refine_steps=50)
    rep = local_refine(cfg)
    assert rep.final_slack >= -1e-9
    assert not rep.violation_found


def test_refine_on_constrained_family_keeps_residuals_small():
    cfg = SearchConfig(template="c_1", family="constrained", n=1, seed=2,
                       refine_steps=40)
    rep = local_refine(cfg)
    assert rep.final_residual <= 1e-8
    assert not rep.violation_found


# ------------------------------------------------------------ families


@pytest.mark.parametrize("family,field,value", [
    (family, field, value)
    for family in ("constrained", "constrained-diagonal", "lw05")
    for field, value in (("labels", ("P", "Q", "R")), ("dims", (9, 9, 9)), ("rank", 3))
] + [("diagonal", "rank", 3)])
def test_family_refuses_fields_it_does_not_read(family, field, value):
    cfg = SearchConfig(template="ssa", family=family, n=1, **{field: value})
    with pytest.raises(ValueError, match=field):
        family_for(cfg, resolve_template(cfg))


@pytest.mark.parametrize("family,field,value", [
    ("haar-mixed", "blocks", 7), ("diagonal", "blocks", 3),
    ("haar-mixed", "n", 4), ("diagonal", "n", 2), ("lw05", "n", 2),
])
def test_family_refuses_blocks_and_n_it_does_not_read(family, field, value):
    cfg = SearchConfig(template="ssa", family=family, **{field: value})
    with pytest.raises(ValueError, match=field):
        family_for(cfg, resolve_template(cfg))


def test_n_read_by_the_template_or_the_family_is_accepted():
    haar = SearchConfig(template="c_n", family="haar-mixed", n=1)
    assert family_for(haar, resolve_template(haar)).labels == ("A", "B", "C", "X1")
    # three one-dimensional blocks on A, and the order n read by the family
    cons = SearchConfig(template="ssa", family="constrained", n=2, blocks=3)
    assert family_for(cons, resolve_template(cons)).dims == (3, 3, 2, 4, 4)
    assert SearchConfig().blocks is None
    lw05 = SearchConfig(template="lw05", family="lw05")
    assert family_for(lw05, resolve_template(lw05)).blocks == 2


def test_family_resolution_and_errors():
    cfg = SearchConfig(template="ssa", family="haar-mixed",
                       labels=("A", "B"), dims=(2, 2, 2))
    with pytest.raises(ValueError):
        family_for(cfg, resolve_template(cfg))
    cfg2 = SearchConfig(template="ssa", family="not-a-family")
    with pytest.raises(ValueError):
        family_for(cfg2, resolve_template(cfg2))


@pytest.mark.parametrize("field,value", [
    ("trials", 0), ("trials", -1),
    ("refine_steps", -1), ("refine_steps", -3),
    ("tol", float("nan")), ("tol", -1e-9),
])
def test_config_rejects_values_that_cannot_search(field, value):
    # zero trials would report "no violation" unlooked
    with pytest.raises(ValueError, match=field):
        SearchConfig(template="ssa", labels=("A", "B", "C"), **{field: value})


def test_families_build_unit_trace_states():
    import numpy as np

    rng = np.random.default_rng(0)
    for fam in (
        HaarMixedFamily(("A", "B"), (2, 2)),
        HaarMixedFamily(("A", "B"), (2, 2), rank=1),
        DiagonalFamily(("A", "B"), (2, 3)),
        ConstrainedFamily(FamilyDims.default(1)),
        ConstrainedFamily(FamilyDims.default(1), diagonal=True),
    ):
        params = fam.draw(rng)
        assert params.shape == (fam.n_params(),)
        state = fam.build(params)
        assert abs(np.trace(state.rho) - 1) < 1e-10
        evs = np.linalg.eigvalsh(state.rho)
        assert evs.min() > -1e-10


def test_default_labels_come_from_template_slots():
    cfg = SearchConfig(template="wmo", family="haar-mixed", trials=4, seed=9)
    rep = random_scan(cfg)
    assert not rep.violation_found
    assert rep.config["labels"] == []


def test_c_2_scan_and_refine_reproduce_their_pins():
    # c_2 on the constrained family at n = 2, seed 103: the scan's minimum
    # slack and histogram, and the refine walk from its argmin, as the
    # per-block build and the per-call mask bookkeeping gave them
    slack = 0.6126784985378544
    histogram = dict.fromkeys([
        612, 700, 1119, 1222, 1365, 1411, 1471, 1542, 1549, 1555, 1623, 1700, 1793,
        1801, 1803, 1806, 1812, 1870, 1898, 1973, 2008, 2039, 2078, 2095, 2103, 2131,
        2132, 2143, 2175, 2373,
    ], 1)
    trajectory = [
        0.6126784985378544, 0.6116871998568549, 0.6116445813545592,
        0.6116272278646684, 0.6116179082259601, 0.6116178417471736,
        0.6116172605235644, 0.6116168166105709, 0.6116067496843054,
        0.6116067020149334, 0.6116066646899556, 0.6116060606544367,
        0.6116060461820894, 0.6116052032603063, 0.6116051668082201,
        0.6116051402748526, 0.6116051371524018, 0.6116048575809718,
        0.6116048536069205, 0.6116047809048064, 0.6116047603555033,
        0.6116047351129263, 0.6116047348141227, 0.6116047347052209,
    ]
    cfg = SearchConfig(template="c_2", family="constrained", n=2, trials=30, seed=103,
                       refine_steps=40)
    scan = random_scan(cfg)
    refine = local_refine(cfg, start_seed=scan.argmin["seed"])
    assert scan.min_slack == slack
    assert scan.histogram == histogram
    assert refine.trajectory == trajectory
    assert (refine.steps, refine.accepted) == (40, 23)


def test_replays_and_clipped_mass_cover_the_scan_and_the_walk():
    cfg = SearchConfig(template="anti-monotone", family="haar-mixed", labels=("A", "B"),
                       dims=(2, 2), trials=3, seed=0, refine_steps=5)
    scan, refine = random_scan(cfg), local_refine(cfg)
    assert scan.n_replayed == len(scan.violations) == 3
    assert refine.n_replayed == 1 and refine.violation is not None
    # rank-deficient states: rounding leaves eigenvalues <= 0 on a marginal
    cfg = SearchConfig(template="ssa", family="haar-mixed", labels=("A", "B", "C"),
                       dims=(2, 2, 2), rank=1, trials=4, seed=1, refine_steps=3)
    scan, refine = random_scan(cfg), local_refine(cfg)
    assert (scan.n_replayed, refine.n_replayed) == (0, 0)
    assert scan.clipped_mass > 0 and refine.clipped_mass > 0
    assert "clipped_mass" not in json.dumps(to_obj(scan)) + json.dumps(to_obj(refine))
