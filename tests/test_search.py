"""Randomized violation search: reproducibility, planted defects, refinement."""

import pytest

from entrocone import search
from entrocone.setfn import SetFunction
from entrocone.search import (
    ConstrainedFamily,
    DiagonalFamily,
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
    assert a.to_dict() == b.to_dict()
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
    """A scan whose entropy vectors are wrong (negated, so every ssa slack
    looks negative) must not get a violation past the replay."""
    scan_entropy = search.entropy_vector

    def negated(state):
        h = scan_entropy(state)
        return SetFunction(h.ground, [-v for v in h.values], domain=h.domain)

    monkeypatch.setattr(search, "entropy_vector", negated)
    cfg = SearchConfig(template="ssa", family="haar-mixed", labels=("A", "B", "C"),
                       dims=(2, 2, 2), trials=5, seed=4)
    rep = random_scan(cfg)
    assert rep.n_replayed > 0
    assert rep.violations == []


def test_scan_histogram_buckets_are_millibit_floors():
    cfg = SearchConfig(template="ssa", family="haar-mixed", labels=("A", "B", "C"),
                       dims=(2, 2, 2), trials=10, seed=2)
    rep = random_scan(cfg)
    assert rep.histogram
    assert all(isinstance(k, int) for k in rep.histogram)
    assert sum(rep.histogram.values()) == rep.n_admissible
    assert min(rep.histogram) >= 0  # ssa slacks are nonnegative


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
                       refine_steps=80, step_size=0.2)
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
                       refine_steps=40, step_size=0.3)
    rep = local_refine(cfg)
    assert rep.final_residual <= 1e-8
    assert not rep.violation_found


# ------------------------------------------------------------ families


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
    ("step_size", 0.0), ("step_size", -0.1), ("step_size", float("nan")),
    ("refine_steps", -1), ("refine_steps", -3),
    ("step_size", float("inf")), ("penalty", float("nan")), ("penalty", float("inf")),
    ("penalty", -1.0), ("tol", float("nan")), ("tol", -1e-9),
])
def test_config_rejects_values_that_cannot_search(field, value):
    # zero trials or an immobile walk would report "no violation" unlooked
    with pytest.raises(ValueError, match=field):
        SearchConfig(template="ssa", labels=("A", "B", "C"), **{field: value})


def test_families_build_unit_trace_states():
    import numpy as np

    rng = np.random.default_rng(0)
    for fam in (
        HaarMixedFamily(("A", "B"), (2, 2)),
        HaarMixedFamily(("A", "B"), (2, 2), rank=1),
        DiagonalFamily(("A", "B"), (2, 3)),
        ConstrainedFamily(1),
        ConstrainedFamily(1, diagonal=True),
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
