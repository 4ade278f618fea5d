"""The benchmark's jobs against the library they call.

`perfbench/workloads.py` builds its certify problems and certificates
through the library and checks each job's result apart from it, and pins
the float slacks of its search and sample jobs at its default seed.  A
change to a problem's construction that turned one of those checks into a
failure, or a float change that moved a pinned slack, would show only in a
benchmark run; these tests run every witness and certify job, and every
search and sample job at the pinned seed, once, in process, as the
benchmark does, and read each job's check.
"""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while it runs
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_every_certify_job_passes_its_check(monkeypatch, capsys):
    workloads = _workloads(monkeypatch)
    jobs = workloads.certify_jobs()
    assert [job.name for job in jobs] == [
        "certify-independence", "certify-purified", "certify-purified-simplex",
        *(f"verify-g-{n}" for n in workloads.CERTIFY_G_ORDERS)]
    assert {job.name: job.check(job.run()) for job in jobs} == {job.name: [] for job in jobs}


def test_every_search_and_sample_job_passes_its_check_at_the_pinned_seed(monkeypatch, capsys):
    workloads = _workloads(monkeypatch)
    seed = workloads.DEFAULT_SEED
    jobs = workloads.search_jobs(seed) + workloads.sample_jobs(seed)
    # every pinned slack is read
    assert [job.name for job in jobs] == [*workloads.SEARCH_PINS, *workloads.SAMPLE_PINS]
    assert {job.name: job.check(job.run()) for job in jobs} == {job.name: [] for job in jobs}


def test_every_witness_job_passes_its_check(monkeypatch, capsys, tmp_path):
    """witness-2..6, counterexample and eval on g at the eval order: a moved
    instance count, counterexample value or eval pin fails here."""
    workloads = _workloads(monkeypatch)
    monkeypatch.setattr(sys, "path", [*sys.path])  # `prepare` may put src on it
    jobs = workloads.prepare("witness", workloads.DEFAULT_SEED, tmp_path)
    assert [job.name for job in jobs] == [
        *(f"witness-{n}" for n in workloads.WITNESS_ORDERS), "counterexample",
        *(f"eval-{t}" for t in workloads.EVAL_TEMPLATES)]
    assert {job.name: job.check(job.run()) for job in jobs} == {job.name: [] for job in jobs}
