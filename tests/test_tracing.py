"""The benchmark's span tracer against the library it wraps by name.

`perfbench/tracing.py` replaces library functions by module attribute and
counts `next()` calls on `enumerate_instances`.  A rename, or an enumerator
that yields blocks, would break a traced benchmark run and no other test;
this one runs the tracer as the benchmark does and reads its counts.
"""

import importlib.util
import json
import sys
from pathlib import Path

from entrocone import cli, inequalities

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_witness_counts_every_instance_and_uninstalls(capsys):
    original = inequalities.enumerate_instances
    bound_in = [name for name, mod in sys.modules.items()
                if name.startswith("entrocone") and mod is not None
                and vars(mod).get("enumerate_instances") is original]
    assert "entrocone.inequalities" in bound_in
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert inequalities.enumerate_instances is not original
        code = cli.main(["witness", "--n", "2"])
    finally:
        tracer.uninstall()
    assert code == 0
    report = json.loads(capsys.readouterr().out)["report"]
    counted = sum(row["count"] for row in report["instance_histogram"])
    assert counted == tracer.counts["inequalities.enumerate.instances"] == 19
    assert all(vars(sys.modules[name])["enumerate_instances"] is original for name in bound_in)


def test_traced_search_enumerates_no_instances(capsys):
    """The search evaluates its instances as one slot-row matrix: it makes
    no `next()` call on `enumerate_instances`."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["search", "--template", "ssa", "--labels", "A,B,C", "--dims", "2,2,2",
                         "--trials", "2", "--refine", "2"])
    finally:
        tracer.uninstall()
    assert code == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert tracer.counts["search.evaluations"] == report["scan"]["n_evaluations"] > 0
    assert tracer.counts["inequalities.enumerate.instances"] == 0
