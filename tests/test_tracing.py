"""The benchmark's span tracer against the library it wraps by name.

`perfbench/tracing.py` replaces library functions by module attribute and
counts `next()` calls on `enumerate_instances`.  A rename, or an enumerator
that yields blocks, would break a traced benchmark run and no other test;
this one runs the tracer as the benchmark does and reads its counts, and
asserts what `perfbench/run.py`'s `trace_errors` asserts on each workload.
"""

import importlib.util
import json
import sys
from pathlib import Path

from entrocone import cli, inequalities

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced(argv, capsys):
    """The tracer after one CLI run of `argv` under it, the exit code and
    the run's report."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    return tracer, code, json.loads(capsys.readouterr().out)["report"]


def _calls(tracer, name):
    return tracer.totals().get(name, (0,))[0]


def test_traced_sample_counts_two_entropy_vectors_a_state(capsys):
    tracer, code, report = _traced(["sample", "--n", "2", "--trials", "2"], capsys)
    assert code == 0
    states = len(report["results"])
    assert states == 2
    assert _calls(tracer, "quantum.entropy_vector") == 2 * states
    assert _calls(tracer, "quantum.check_theorem") == states
    assert _calls(tracer, "quantum.family_sample") == states


def test_traced_certify_counts_the_reported_pivots(capsys):
    tracer, code, report = _traced(["certify", "--builtin", "independence", "--n", "2"], capsys)
    assert code == 0
    assert tracer.counts["certify.pivots"] == report["result"]["pivots"] > 0
    assert _calls(tracer, "certify.cone_membership") == 1


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
    tracer, code, report = _traced(["search", "--template", "ssa", "--labels", "A,B,C",
                                    "--dims", "2,2,2", "--trials", "2", "--refine", "2"], capsys)
    assert code == 0
    assert tracer.counts["search.evaluations"] == report["scan"]["n_evaluations"] > 0
    assert tracer.counts["inequalities.enumerate.instances"] == 0
