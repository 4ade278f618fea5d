"""The benchmark's certify jobs against the library they call.

`perfbench/workloads.py` builds its certify problems and certificates
through the library and checks each job's result apart from it.  A builder
change that turned one of those checks into a failure would show only in a
benchmark run; this test runs every certify job once, in process, as the
benchmark does, and reads its check.
"""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_every_certify_job_passes_its_check(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while it runs
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    jobs = workloads.certify_jobs()
    assert [job.name for job in jobs] == [
        "certify-independence", "certify-purified", "certify-purified-simplex",
        *(f"verify-g-{n}" for n in workloads.CERTIFY_G_ORDERS)]
    assert {job.name: job.check(job.run()) for job in jobs} == {job.name: [] for job in jobs}
