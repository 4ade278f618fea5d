"""Command line behavior: exit codes, manifests, determinism, error format."""

import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entrocone import certify, cli, quantum
from entrocone.certify import (
    Certificate,
    cone_membership,
    independence_orbits,
    independence_problem,
    independence_templates,
    problem_to_obj,
    verify_certificate,
)
from entrocone.cli import main
from entrocone.inequalities import (
    builtin,
    enumerate_instances,
    instantiate,
    satisfies,
    template_to_obj,
    type_blocks,
)
from entrocone.setfn import GroundSet, SetFunction, setfn_from_obj, setfn_to_obj
from entrocone.witness import counterexample_table, standard_instance, witness_space


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture()
def etable_file(tmp_path):
    path = tmp_path / "etable.json"
    path.write_text(json.dumps(setfn_to_obj(counterexample_table())))
    return str(path)


# ------------------------------------------------------------ exit codes


def test_witness_rejects_order_one(capsys):
    assert run(["witness", "--n", "1"]) == 2
    assert "at least 2" in capsys.readouterr().err


def test_witness_passes_structural_run(tmp_path, capsys):
    out = tmp_path / "w.json"
    rc = run(["witness", "--n", "2", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["passed"] is True
    assert payload["manifest"]["command"] == "witness"
    assert payload["manifest"]["digest"].startswith("sha256:")


def test_witness_stats_stay_outside_the_digest(tmp_path):
    out = tmp_path / "w.json"
    assert run(["witness", "--n", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    stats = payload["manifest"]["stats"]
    assert stats["instances"] == 19 == sum(r["count"] for r in
                                           payload["report"]["instance_histogram"])
    assert stats["verify_s"] >= 0
    # the digest pinned in test_exact_report_digest_is_pinned
    assert payload["manifest"]["digest"] == (
        "sha256:e40da34775347281c3a6d83ee5e244be0c9a01fcdfe2bbb2c07341fc8fe76301")
    assert "stats" not in json.dumps(payload["report"])


def test_counterexample_ok(capsys):
    assert run(["counterexample"]) == 0
    err = capsys.readouterr().err
    assert "pass" in err


@pytest.fixture()
def float_table_file(tmp_path):
    table = counterexample_table()
    path = tmp_path / "floats.json"
    path.write_text(json.dumps(setfn_to_obj(
        SetFunction(table.ground, [float(v) for v in table.values]))))
    return str(path)


def test_counterexample_on_a_float_table_writes_numbers(float_table_file, tmp_path):
    # exact values are written as strings, float ones as JSON numbers
    out = tmp_path / "r.json"
    assert run(["counterexample", "--values", float_table_file, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["prior_inequality_value"] == -2.0
    assert rep["new_inequality_values"] == {"c_1": 0.0, "thm1p_1": 0.0, "thm2_1": 0.0,
                                            "thm2p_1": 2.0}
    assert list(rep["constraint_values"].values()) == [0.0, 0.0, 0.0]


def test_eval_on_a_float_table_writes_numbers(float_table_file, tmp_path):
    out = tmp_path / "r.json"
    assert run(["eval", "--values", float_table_file, "--template", "ssa", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["min_value"] == 0.0 and rep["max_constraint_residual"] == 0.0
    assert run(["eval", "--values", float_table_file, "--template", "lw05",
                "--bind", "A=A,B=B,C=C,D=D", "--out", str(out)]) == 1
    rep = json.loads(out.read_text())["report"]
    assert rep["min_value"] == -2.0 and rep["max_constraint_residual"] == 0.0
    assert [v["value"] for v in rep["violations"]] == [-2.0]


def test_eval_exit_one_on_violation(etable_file, tmp_path):
    out = tmp_path / "r.json"
    rc = run(["eval", "--values", etable_file, "--template", "lw05",
              "--bind", "A=A,B=B,C=C,D=D", "--out", str(out)])
    assert rc == 1
    rep = json.loads(out.read_text())["report"]
    assert rep["min_value"] == "-2"
    assert rep["holds"] is False


def test_eval_exit_zero_when_satisfied(etable_file):
    assert run(["eval", "--values", etable_file, "--template", "ssa"]) == 0


def test_eval_requires_template(etable_file, capsys):
    assert run(["eval", "--values", etable_file]) == 2


def test_search_requires_template(capsys):
    assert run(["search", "--trials", "1"]) == 2
    assert "--template" in capsys.readouterr().err


def test_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"parties": ["a"],\n  "values": [}')
    rc = run(["eval", "--values", str(bad), "--template", "ssa"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{bad}:2:14: Expecting value" in err


def test_missing_file_is_usage_error(capsys):
    assert run(["eval", "--values", "/nonexistent.json", "--template", "ssa"]) == 2


def test_bad_binding_syntax(etable_file, capsys):
    rc = run(["eval", "--values", etable_file, "--template", "lw05",
              "--bind", "AB"])
    assert rc == 2
    assert "SLOT=labels" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "0"],
    ["sample", "--n", "1", "--blocks", "0"],
    ["certify", "--builtin", "independence"],
    ["sample", "--n", "1", "--trials", "0"],
    ["search", "--template", "ssa", "--trials", "0"],
    ["certify", "--builtin", "independence", "--n", "0"],
    ["search", "--template", "c_n", "--trials", "1"],
    # c_1 is itself an ssa instance: order 1 makes no independence claim
    ["certify", "--builtin", "independence", "--n", "1"],
    # one generator past MAX_GENERATORS, refused before the simplex is built
    ["certify", "--problem", "{too_many_generators}"],
    ["search", "--template", "ssa", "--trials", "1", "--rank", "0"],
    ["certify", "--problem", "{float_coef}"],
    ["certify", "--problem", "{missing_key}"],
    ["certify", "--problem", "{unknown_label}"],
    ["certify", "--problem", "{not_a_list}"],
    ["sample", "--n", "6", "--trials", "1"],
    ["env:ENTROPIC_MAX_DIM=abc", "sample", "--n", "1"],
    ["env:ENTROPIC_MAX_DIM=7", "sample", "--n", "1", "--trials", "1"],
    # each 512 x 512 block is under the cap, their direct sum far above it
    ["sample", "--n", "4", "--blocks", "2000", "--trials", "1"],
    ["search", "--template", "ssa", "--family", "constrained", "--n", "4",
     "--blocks", "2000", "--trials", "1"],
    ["search", "--template", "ssa", "--trials", "1", "--dims", "2,2,0"],
    ["search", "--template", "ssa", "--trials", "2", "--refine", "5", "--tol", "-1"],
    ["search", "--template", "ssa", "--trials", "2", "--refine", "-1"],
    ["search", "--template-file", "{list_coef}", "--trials", "1"],
    ["eval", "--values", "{ones}", "--template", "ssa", "--template-file", "{wmo}"],
    ["search", "--template", "ssa", "--template-file", "{wmo}", "--trials", "1"],
    ["counterexample", "--values", "{ones}"],
    ["search", "--template", "ssa", "--labels", "A,B,C", "--dims", "2,x,2"],
    ["eval", "--values", "{ones}", "--template-file", "{terms_not_list}"],
    ["eval", "--values", "{ones}", "--template-file", "{constraints_not_list}"],
    ["eval", "--values", "{ones}", "--template-file", "{symmetries_not_list}"],
    ["certify", "--problem", "{problem_constraints_not_list}"],
    ["eval", "--values", "{values_not_list}", "--template", "ssa"],
    ["eval", "--values", "{ones}", "--template-file", "{zero_denominator}"],
    ["certify", "--problem", "{problem_zero_denominator}"],
    ["eval", "--values", "{ones}", "--template-file", "{bool_coef}"],
    ["certify", "--problem", "{problem_bool_coef}"],
    ["eval", "--values", "{nans}", "--template", "ssa"],
    ["eval", "--values", "{huge}", "--template", "wmo"],
    ["eval", "--values", "{ones}", "--template", "ssa", "--tol", "nan"],
    ["search", "--template", "anti-monotone", "--trials", "2", "--tol", "nan"],
    ["sample", "--n", "1", "--trials", "1", "--tol", "-1"],
    ["eval", "--values", "{deep}", "--template", "ssa"],
    ["eval", "--values", "{halves}", "--template-file", "{huge_coef}"],
    ["witness", "--n", "2", "--seed", "1"],
    ["counterexample", "--tol", "1"],
    ["eval", "--values", "{ones}", "--template", "ssa", "--format", "csv"],
    ["witness", "--n", "3", "--no-scan"],
    ["eval", "--values", "{ones}", "--template", "mi", "--bind", "A=A,A=B"],
    ["search", "--template", "ssa", "--family", "constrained", "--n", "1", "--dims", "9,9,9",
     "--labels", "P,Q,R", "--rank", "3", "--trials", "1"],
    ["search", "--template", "ssa", "--family", "diagonal", "--rank", "2", "--trials", "1"],
    ["search", "--template", "ssa", "--blocks", "7", "--trials", "1"],
    ["search", "--template", "ssa", "--family", "diagonal", "--blocks", "3", "--trials", "1"],
    ["eval", "--values", "{ones}", "--template", "ssa", "--n", "9"],
    ["eval", "--values", "{ones}", "--template-file", "{wmo}", "--n", "2"],
    ["search", "--template", "ssa", "--n", "4", "--trials", "1"],
    ["search", "--template", "lw05", "--family", "lw05", "--n", "2", "--trials", "1"],
    ["search", "--template", "mi", "--labels", "A,B", "--dims", "2,2",
     "--rank", "1000000000000", "--trials", "1"],
    ["search", "--template", "lw05", "--family", "lw05", "--blocks", "-1", "--trials", "1"],
    ["search", "--template", "lw05", "--family", "lw05", "--blocks", "0", "--trials", "1"],
    ["certify", "--problem", "{forty_parties}"],
    # one past the largest order whose report (the lifted point) is written
    ["certify", "--builtin", "independence", "--n", "13"],
    # sizes far past the caps, refused in one short line before anything is built
    ["certify", "--builtin", "independence", "--n", "1000000"],
    ["certify", "--builtin", "independence", "--n", "3000000"],
    ["certify", "--problem", "{parties_13000}"],
    ["certify", "--problem", "{parties_15000}"],
    ["sample", "--n", "5000"],
    ["sample", "--n", "8000"],
    ["search", "--template", "ssa", "--family", "constrained", "--n", "5000", "--trials", "1"],
    # a zero target lies in every cone: "feasible" would claim nothing
    ["certify", "--problem", "{empty_target}"],
    ["certify", "--problem", "{cancelled_target}"],
    ["certify", "--problem", "{expect_maybe}"],
    ["eval", "--values", "{abc_value}", "--template", "ssa"],
    ["eval", "--values", "{no_parties}", "--template", "ssa"],
    ["eval", "--values", "{label_twice}", "--template", "ssa"],
    ["eval", "--values", "{ones}", "--template", "c_3", "--n", "2"],
    ["eval", "--values", "{ones}", "--template", "c_n", "--n", "0"],
    ["search", "--template", "c_0"],
    # one party: no two disjoint nonempty subsets to bind
    ["search", "--template", "mi", "--labels", "A", "--dims", "2"],
    # a report that cannot be written leaves no temporary file behind
    ["witness", "--n", "2", "--out", "{no_dir}/r.json"],
    ["witness", "--n", "2", "--out", "{a_dir}"],
])
def test_usage_errors_exit_two_without_traceback(argv, tmp_path, capsys, monkeypatch):
    """A leading "env:NAME=value" entry sets that environment variable."""
    while argv[0].startswith("env:"):
        monkeypatch.setenv(*argv[0][4:].split("=", 1))
        argv = argv[1:]
    term = {"subset": ["a"], "coef": "1"}
    problems = {
        "float_coef": {"ground": ["a"], "target": [{**term, "coef": 1.5}],
                       "generators": [[term]]},
        "missing_key": {"ground": ["a"], "target": [term]},
        "unknown_label": {"ground": ["a"], "target": [{**term, "subset": ["z"]}],
                          "generators": [[term]]},
        "not_a_list": {"ground": ["a"], "target": 5, "generators": [[term]]},
        # its LP would have 2^40 - 1 rows: refused before anything is allocated
        "forty_parties": {"ground": [f"p{i}" for i in range(40)],
                          "target": [{**term, "subset": ["p0"]}],
                          "generators": [[{**term, "subset": ["p0"]}]]},
        **{f"parties_{n}": {"ground": [f"p{i}" for i in range(n)],
                            "target": [{**term, "subset": ["p0"]}],
                            "generators": [[{**term, "subset": ["p0"]}]]}
           for n in (13000, 15000)},
        "too_many_generators": {"ground": ["a"], "target": [term],
                                "generators": [[term]] * (certify.MAX_GENERATORS + 1)},
        "list_coef": {"name": "t", "slots": ["A"], "terms": [{**term, "subset": ["A"],
                                                            "coef": [1]}]},
        "problem_constraints_not_list": {"ground": ["a"], "target": [term],
                                         "generators": [[term]], "constraints": 5},
        "problem_zero_denominator": {"ground": ["a"], "target": [{**term, "coef": "1/0"}],
                                     "generators": [[term]]},
        "problem_bool_coef": {"ground": ["a"], "target": [{**term, "coef": True}],
                              "generators": [[term]]},
        "values_not_list": {"parties": ["A"], "values": 5},
        "no_parties": {"parties": [], "values": []},
        "expect_maybe": {"ground": ["a"], "target": [term], "generators": [[term]],
                         "expect": "maybe"},
        "empty_target": {"ground": ["a"], "target": [], "generators": [[term]]},
        "cancelled_target": {"ground": ["a"], "target": [term, {**term, "coef": "-1"}],
                             "generators": [[term]]},
        "wmo": template_to_obj(builtin("wmo")),
    }
    template = {"name": "t", "slots": ["A"], "terms": [{"subset": ["A"], "coef": "1"}]}
    for name, change in (("terms_not_list", {"terms": 5}),
                         ("constraints_not_list", {"constraints": 5}),
                         ("symmetries_not_list", {"symmetries": 5}),
                         ("zero_denominator", {"terms": [{"subset": ["A"], "coef": "1/0"}]}),
                         ("bool_coef", {"terms": [{"subset": ["A"], "coef": True}]}),
                         ("huge_coef", {"terms": [{"subset": ["A"], "coef": "1e400"}]})):
        problems[name] = {**template, **change}
    # three-party tables with every value 1, 1/2, NaN, or so large that a sum
    # overflows
    for name, v in (("ones", 1), ("halves", 0.5), ("nans", float("nan")), ("huge", 1.7e308)):
        problems[name] = setfn_to_obj(SetFunction(GroundSet(("A", "B", "C")), [v] * 8))
    first, second, third, *rest = problems["ones"]["values"]
    problems["abc_value"] = {**problems["ones"],
                             "values": [{**first, "value": "abc"}, second, third, *rest]}
    problems["label_twice"] = {**problems["ones"],
                               "values": [first, second, {**third, "subset": ["A", "A"]}, *rest]}
    problems["deep"] = "[" * 100_000 + "]" * 100_000  # past the JSON decoder's recursion
    for name, obj in problems.items():
        (tmp_path / f"{name}.json").write_text(obj if isinstance(obj, str) else json.dumps(obj))
    (tmp_path / "a_dir").mkdir()
    paths = {k: tmp_path / f"{k}.json" for k in problems}
    assert run([a.format(**paths, no_dir=tmp_path / "no_dir", a_dir=tmp_path / "a_dir")
                for a in argv]) == 2
    assert not list(tmp_path.rglob(".tmp-*"))
    err = capsys.readouterr().err
    assert err.strip() and "Traceback" not in err
    # one short line; argparse's own refusals lead with its usage lines
    lines = err.splitlines()
    assert len(lines[-1]) < 300 and (len(lines) == 1 or lines[0].startswith("usage:")), err


@pytest.mark.parametrize("family", ["haar-mixed", "diagonal"])
@pytest.mark.parametrize("labels, dims, message", [
    # products that wrap around in int64 are still read in full
    ("A,B", "4611686018427387905,4", "exceeds cap"),
    ("A,B,C", "2097152,2097152,2097152", "exceeds cap"),
    ("A,B,C", "2,0,2", "dimensions must be >= 1"),
    ("A,B", "2,2,2", "labels and dims must have equal length"),
])
def test_family_dims_are_refused_by_name(family, labels, dims, message, capsys):
    assert run(["search", "--template", "mi", "--family", family, "--labels", labels,
                "--dims", dims, "--trials", "1"]) == 2
    assert message in capsys.readouterr().err


def test_coefficient_beyond_float64_evaluates_exactly(tmp_path, capsys):
    # only a float64 table needs the coefficient as a float
    values, template, out = tmp_path / "ones.json", tmp_path / "t.json", tmp_path / "r.json"
    values.write_text(json.dumps(setfn_to_obj(SetFunction(GroundSet(("A", "B", "C")), [1] * 8))))
    template.write_text(json.dumps({"name": "t", "slots": ["A"],
                                    "terms": [{"subset": ["A"], "coef": "1e400"}]}))
    assert run(["eval", "--values", str(values), "--template-file", str(template),
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["report"]["min_value"] == str(10**400)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["search", "--template", "c_2", "--trials", "2"],
    ["eval", "--values", "{concave}", "--template", "lw05", "--auto-filter"],
])
def test_nothing_admissible_exits_one(argv, tmp_path, capsys):
    # strictly concave in |S|: every conditional mutual information with
    # nonempty sides is positive, so no constrained instance is admissible
    from entrocone.setfn import GroundSet, SetFunction

    concave = tmp_path / "concave.json"
    concave.write_text(json.dumps(setfn_to_obj(SetFunction(
        GroundSet(("A", "B", "C", "D")),
        [bin(m).count("1") * (8 - bin(m).count("1")) for m in range(16)]))))
    assert run([a.format(concave=concave) for a in argv]) == 1
    assert "no instance was admissible" in capsys.readouterr().err


# any JSON value in any field of an input file, on at most three parties
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["1/2", "-3", "1/0", "a", "b", "A", "B"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8,
)


def _input_files():
    """Per file kind: a valid file and the command that reads it."""
    table = SetFunction(GroundSet(("A", "B", "C")), [bin(m).count("1") for m in range(8)])
    template = template_to_obj(builtin("ssa"))
    template["constraints"] = [[{"subset": ["A", "C"], "coef": "1"},
                                {"subset": ["A"], "coef": "-1/2"}]]
    gr = GroundSet(("a", "b", "c"))
    problem = problem_to_obj(
        instantiate(builtin("mi"), gr, {"A": "a", "B": "b"}).functional,
        [i.functional for i in enumerate_instances(builtin("ssa"), gr)],
        [instantiate(builtin("mi"), gr, {"A": "a", "B": "c"}).functional],
        gr, expect="feasible",
    )
    return {
        "setfn": (setfn_to_obj(table), ["eval", "--values", "{file}", "--template", "ssa"]),
        "template": (template, ["eval", "--values", "{table}", "--template-file", "{file}",
                                "--auto-filter"]),
        "problem": (problem, ["certify", "--problem", "{file}"]),
    }, setfn_to_obj(table)


def _fields(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _fields(value, path + (key,))


def _with(obj, path, value):
    if not path:
        return value
    out = copy.deepcopy(obj)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_json_in_any_field_exits_cleanly(data, tmp_path, capsys):
    files, table = _input_files()
    base, argv = files[data.draw(st.sampled_from(sorted(files)))]
    path = data.draw(st.sampled_from(list(_fields(base))))
    obj = _with(base, path, data.draw(json_values))
    (tmp_path / "in.json").write_text(json.dumps(obj))
    (tmp_path / "table.json").write_text(json.dumps(table))
    rc = run([a.format(file=tmp_path / "in.json", table=tmp_path / "table.json")
              for a in argv])
    assert rc in (0, 1, 2)
    err = capsys.readouterr().err
    if rc == 2:
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


# ------------------------------------------------------------ sample/search


def test_sample_small_run(tmp_path):
    out = tmp_path / "s.json"
    rc = run(["sample", "--n", "1", "--trials", "2", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["all_passed"] is True
    assert len(payload["report"]["results"]) == 2
    assert set(payload["report"]["results"][0]) == {
        "n", "tol", "constraint_residuals", "slacks", "hypotheses", "min_term",
        "marginal_drift", "sigma_route", "clipped_mass", "passed", "trial", "seed"}
    assert {r["sigma_route"] for r in payload["report"]["results"]} == {"factored"}


def test_sample_runs_where_only_the_measured_state_is_over_the_cap(monkeypatch, tmp_path):
    # at n=3 rho is 512 x 512; its measured state, 1024 x 1024, is never built
    monkeypatch.setenv("ENTROPIC_MAX_DIM", "512")
    out = tmp_path / "s.json"
    assert run(["sample", "--n", "3", "--trials", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["report"]["all_passed"] is True


def test_sample_places_no_matrix_of_the_full_dims(monkeypatch, tmp_path):
    # at n=3 rho is 512 x 512, while the two 128 x 128 blocks, whose direct
    # sum is 256, and the 128 x 128 (C, X) marginal are the largest dense
    # matrices sample makes
    placed = []
    real = quantum._place_blocks
    monkeypatch.setattr(quantum, "_place_blocks",
                        lambda dims, parts: placed.append(dims) or real(dims, parts))
    monkeypatch.setenv("ENTROPIC_MAX_DIM", "256")
    out = tmp_path / "s.json"
    assert run(["sample", "--n", "3", "--trials", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["report"]["all_passed"] is True
    # per state: drift's block-route (A, B, C) and (X1..X3), and the factors' (A, B, C)
    assert sorted(placed) == [(2, 2, 2)] * 4 + [(4, 4, 4)] * 2


def test_sample_diagonal_draws_classical_states(tmp_path):
    quantum, classical = tmp_path / "q.json", tmp_path / "c.json"
    assert run(["sample", "--n", "1", "--trials", "2", "--out", str(quantum)]) == 0
    assert run(["sample", "--n", "1", "--trials", "2", "--diagonal",
                "--out", str(classical)]) == 0
    q, c = (json.loads(p.read_text())["report"] for p in (quantum, classical))
    assert c["diagonal"] is True and c["all_passed"] is True
    # same seeds, other states: the flag is read
    assert [r["slacks"] for r in c["results"]] != [r["slacks"] for r in q["results"]]


def test_sample_csv_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["sample", "--n", "1", "--trials", "3", "--format", "csv",
                "--out", str(a)]) == 0
    assert run(["sample", "--n", "1", "--trials", "3", "--format", "csv",
                "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # manifest goes to stdout, not into the csv
    assert "sha256:" in capsys.readouterr().out
    assert b"sha256" not in a.read_bytes()
    # without --out the csv goes to stdout and the manifest to stderr
    assert run(["sample", "--n", "1", "--trials", "3", "--format", "csv"]) == 0
    out, err = capsys.readouterr()
    assert out.encode() == a.read_bytes() and "sha256:" in err


def test_search_violation_exit_code(tmp_path):
    rc = run(["search", "--template", "anti-monotone", "--labels", "A,B",
              "--dims", "2,2", "--trials", "20", "--seed", "3"])
    assert rc == 1


def test_search_clean_scan_with_csv(tmp_path):
    out = tmp_path / "scan.csv"
    rc = run(["search", "--template", "ssa", "--labels", "A,B,C",
              "--dims", "2,2,2", "--trials", "10", "--format", "csv",
              "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,seed,min_slack,argmin_instance,max_residual"
    assert len(lines) == 11


def test_family_reads_n_and_blocks_of_a_fixed_template(tmp_path):
    # ssa takes no order, but the constrained family reads --n and --blocks
    out = tmp_path / "c.json"
    rc = run(["search", "--template", "ssa", "--family", "constrained", "--n", "1",
              "--blocks", "3", "--trials", "1", "--out", str(out)])
    assert rc == 0
    config = json.loads(out.read_text())["report"]["scan"]["config"]
    assert (config["n"], config["blocks"]) == (1, 3)


def test_search_refine_flag(tmp_path):
    out = tmp_path / "r.json"
    rc = run(["search", "--template", "ssa", "--labels", "A,B,C",
              "--dims", "2,2,2", "--trials", "5", "--refine", "20",
              "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert "refine" in payload["report"]
    assert payload["report"]["refine"]["violation_found"] is False
    # trial_records are the CSV rows only
    assert set(payload["report"]["scan"]) == {
        "config", "template", "n_trials", "n_instances", "n_evaluations", "n_admissible",
        "min_slack", "argmin", "histogram", "violations", "n_replayed", "violation_found"}
    assert set(payload["report"]["refine"]) == {
        "config", "template", "start_seed", "steps", "accepted", "start_objective",
        "final_objective", "final_slack", "final_residual", "final_instance", "trajectory",
        "violation", "violation_found"}


@pytest.mark.parametrize("argv, stuck", [
    # lw05's parameters are two seeds: 24 steps, none accepted
    (["--template", "lw05", "--family", "lw05", "--trials", "10", "--seed", "107"], True),
    (["--template", "ssa", "--labels", "A,B,C", "--dims", "2,2,2", "--trials", "5"], False),
], ids=["lw05", "ssa"])
def test_search_says_when_refinement_accepts_no_step(argv, stuck, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["search", *argv, "--refine", "40", "--out", str(out)]) == 0
    refine = json.loads(out.read_text())["report"]["refine"]
    assert (refine["accepted"] == 0, refine["steps"] > 0) == (stuck, True)
    assert ("-- refinement accepted no step" in capsys.readouterr().err) == stuck


# ------------------------------------------------------------ certify


def test_certify_builtin_purified(tmp_path):
    out = tmp_path / "c.json"
    rc = run(["certify", "--builtin", "purified-basic", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["outcome"] == "feasible"


def test_certify_problem_file_and_expectation(tmp_path):
    from entrocone.setfn import GroundSet
    from entrocone.inequalities import builtin, enumerate_instances, instantiate

    gr = GroundSet(("a", "b", "c"))
    gens = [i.functional for i in enumerate_instances(builtin("ssa"), gr)]
    target = instantiate(builtin("mi"), gr, {"A": "a", "B": "b"}).functional

    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(problem_to_obj(target, gens, [], gr, "feasible")))
    assert run(["certify", "--problem", str(ok)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(problem_to_obj(target, gens, [], gr, "infeasible")))
    assert run(["certify", "--problem", str(bad)]) == 1


@pytest.mark.parametrize("coef, code", [("1", 0), ("-1", 1)], ids=["feasible", "infeasible"])
def test_certify_problem_without_expectation_exits_on_the_answer(coef, code, tmp_path):
    term = {"subset": ["a"], "coef": "1"}
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"ground": ["a"], "target": [{**term, "coef": coef}],
                                   "generators": [[term]]}))
    assert run(["certify", "--problem", str(problem)]) == code


@pytest.mark.parametrize("values, check", [
    ([0, 1, 4, 9, 16], "submodular"),  # |S|^2
    ([0, 2, 2, 1, 0], "weakly_monotone"),  # submodular, falls to 0 on the full set
], ids=["square", "falling"])
def test_counterexample_names_the_first_violation(values, check, tmp_path):
    gr = GroundSet(("A", "B", "C", "D"))
    table, out = tmp_path / "f.json", tmp_path / "r.json"
    table.write_text(json.dumps(setfn_to_obj(SetFunction(
        gr, [values[gr.size_of(m)] for m in range(gr.n_subsets)]))))
    assert run(["counterexample", "--values", str(table), "--out", str(out)]) == 1
    violations = json.loads(out.read_text())["report"]["first_violations"]
    assert [v["check"] for v in violations] == [check]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_certify_independence_point_holds_on_the_full_list(n, tmp_path):
    # the LP ran on the types; its point, lifted to the full ground, must
    # separate the full problem, and the report names the instance lists it
    # was re-checked on (n = 5 did not decide on the full ground)
    out = tmp_path / "r.json"
    assert run(["certify", "--builtin", "independence", "--n", str(n), "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["result"]["method"] == "simplex"
    target, gens, cons, ground, _ = independence_problem(n)
    assert report["ground"] == list(ground.labels)
    point = setfn_from_obj(report["result"]["farkas_point"])
    cert = verify_certificate(Certificate(point, tuple(gens), tuple(cons), target))
    assert cert
    names = [name for name in ("ssa", "wmo")
             for _ in enumerate_instances(builtin(name), ground)]
    family = {f"c_{p}": sum(1 for _ in enumerate_instances(builtin("c_n", p), ground,
                                                          fixed={"A": "a", "B": "b", "C": "c"}))
              for p in range(1, n + 3) if p != n}
    assert report["rechecked"] == {
        **{name: {"instances": names.count(name), "violations": 0} for name in ("ssa", "wmo")},
        **{name: {"instances": count, "violations": 0} for name, count in family.items()},
        "target": cert.target_value, "constraints": [0, 0]}


def test_certify_stats_stay_outside_the_digest(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["certify", "--builtin", "independence", "--n", "2", "--out", str(path)]) == 0
    first, second = json.loads(a.read_text()), json.loads(b.read_text())
    stats = first["manifest"]["stats"]
    assert stats["lp_rows"] == 23 == 8 * (2 + 1) - 1
    assert stats["lp_columns"] == first["report"]["n_generators"] + 2 * 2
    from entrocone.certify import independence_orbits

    _, generators, constraints, _, _ = independence_orbits(2)
    assert stats["lp_nonzeros"] == 365 == (sum(len(g.nums) for g in generators)
                                           + 2 * sum(len(c.nums) for c in constraints))
    assert stats["pivots"] == first["report"]["result"]["pivots"]
    assert all(stats[phase] >= 0 for phase in ("build_s", "solve_s", "recheck_s"))
    # the type rows of ssa, wmo and c_1, c_3, c_4 the re-check evaluates
    assert stats["recheck_rows"] == 439 == sum(
        len(rows) for template, fixed in independence_templates(2)
        for rows, _ in type_blocks(template, witness_space(2), fixed))
    assert first["manifest"]["digest"] == second["manifest"]["digest"]
    assert first["report"] == second["report"]
    assert "stats" not in json.dumps(first["report"])


def test_eval_stats_stay_outside_the_digest(etable_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["eval", "--values", etable_file, "--template", "c_n", "--n", "1",
                    "--auto-filter", "--out", str(path)]) == 0
    first, second = json.loads(a.read_text()), json.loads(b.read_text())
    stats, report = first["manifest"]["stats"], first["report"]
    assert (stats["instances"], stats["admissible"]) == (42, 8) == (
        report["n_enumerated"], report["n_admissible"])
    assert stats["scan_s"] >= 0
    assert first["manifest"]["digest"] == second["manifest"]["digest"]
    assert first["report"] == second["report"]
    assert "stats" not in json.dumps(first["report"])


@pytest.mark.parametrize("argv, counts", [
    (["counterexample"], {"instances": 5, "verify_s": None}),
    (["sample", "--n", "1", "--trials", "3"], {"states": 3, "check_s": None}),
    (["search", "--template", "ssa", "--trials", "4", "--labels", "A,B,C",
      "--dims", "2,2,2", "--refine", "3"], {"scan_s": None, "refine_s": None,
                                            "refine_steps": None, "marginals": [7, 7],
                                            "replays": 0, "clipped_mass": None}),
    (["search", "--template", "ssa", "--trials", "2", "--labels", "A,B,C",
      "--dims", "2,2,2"], {"scan_s": None, "marginals": [7, 7], "replays": 0,
                           "clipped_mass": None}),
    (["search", "--template", "c_2", "--family", "constrained", "--n", "2", "--trials", "2"],
     {"scan_s": None, "marginals": [14, 31], "replays": 0, "clipped_mass": None}),
], ids=["counterexample", "sample", "search-refine", "search", "search-c_2"])
def test_stats_of_counterexample_sample_and_search(argv, counts, tmp_path):
    # known counts: the lw05 instance and four order-1 forms, one state per
    # trial, the refine walk's steps as the report gives them, the nonzero
    # masks a search takes per state against 2^m - 1 (c_2 reads 14 of its
    # 31 marginals) and its replays; None marks a phase time or a clipped
    # mass (at least 0)
    paths = tmp_path / "a.json", tmp_path / "b.json"
    for path in paths:
        assert run(argv + ["--out", str(path)]) == 0
    first, second = (json.loads(path.read_text()) for path in paths)
    stats, report = first["manifest"]["stats"], first["report"]
    assert set(stats) == set(counts)
    for key, want in counts.items():
        assert stats[key] >= 0 if want is None else stats[key] == want
    if argv[0] == "sample":
        assert stats["states"] == report["trials"] == len(report["results"])
    if "refine" in report:
        assert stats["refine_steps"] == report["refine"]["steps"] > 0
    assert first["manifest"]["digest"] == second["manifest"]["digest"]
    assert first["report"] == second["report"]
    assert "stats" not in json.dumps(report)


def test_search_stats_count_the_scan_and_refine_replays(tmp_path):
    # the planted defect: every scan trial and the walk's end point replay
    out = tmp_path / "a.json"
    assert run(["search", "--template", "anti-monotone", "--labels", "A,B", "--dims", "2,2",
                "--trials", "3", "--refine", "5", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    stats, report = doc["manifest"]["stats"], doc["report"]
    assert report["scan"]["n_replayed"] == 3 and report["refine"]["violation"] is not None
    assert stats["replays"] == 4 and stats["clipped_mass"] >= 0


def test_python_dash_m_runs_the_command():
    # a checkout without the console script: `python -m entrocone`
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-m", "entrocone", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: entrocone")


def test_certify_builds_the_standard_instance_once_per_verdict(monkeypatch):
    # the LP's target and the re-check's are one Instance
    from entrocone import certify

    built = []
    real = cli.standard_instance
    for module in (cli, certify):
        monkeypatch.setattr(module, "standard_instance",
                            lambda n, p: built.append((n, p)) or real(n, p))
    assert run(["certify", "--builtin", "independence", "--n", "2"]) == 0
    assert built == [(2, 2)]


def test_certify_fails_when_the_recheck_finds_a_violation(monkeypatch, capsys):
    # the LP's point less 1 on the full set's type: negative on 12 wmo
    # instances, and still on the target and the constraints as it was
    from entrocone.setfn import TypeSpace

    lift = TypeSpace.lift
    monkeypatch.setattr(TypeSpace, "lift", lambda space, point: lift(space, SetFunction(
        space, [v - (t == space.full_mask) for t, v in enumerate(point.values)])))
    assert run(["certify", "--builtin", "independence", "--n", "2"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err == "certify: the Farkas point is negative on 12 of 406 wmo instances\n"


def _recheck_on_the_full_ground(point, n: int, target) -> tuple[dict, list]:
    """The re-check `cli._recheck_independence` makes on types, on the full
    ground: `satisfies` on every instance of `independence_templates(n)`
    (no filter), then the target (< 0) and its constraints (= 0)."""
    checks = {template.name: satisfies(point, template, binding=fixed)
              for template, fixed in independence_templates(n)}
    rechecked = {name: {"instances": rep.n_enumerated, "violations": rep.n_violations}
                 for name, rep in checks.items()}
    failed = [f"negative on {rep.n_violations} of {rep.n_enumerated} {name} instances"
              for name, rep in checks.items() if not rep.holds]
    value = target.functional.evaluate(point)
    residuals = [con.evaluate(point) for con in target.constraints]
    rechecked.update(target=value, constraints=residuals)
    if value >= 0:
        failed.append(f"{value} on the target, not negative")
    failed += [f"{r} on constraint {i}, not 0" for i, r in enumerate(residuals) if r]
    return rechecked, failed


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_the_type_recheck_matches_the_full_ground(n):
    # on the LP's point, and on it less 1 on the type {a, x}: the same
    # counts, and on the lowered point the same nonzero violation counts
    target = standard_instance(n, n)
    problem, generators, constraints, space, _ = independence_orbits(n, target)
    point = cone_membership(problem, generators, constraints).farkas_point
    lowered = SetFunction(space, [v - (t == 9) for t, v in enumerate(point.values)])
    for types, violated in ((point, False), (lowered, True)):
        lifted = space.lift(types)
        rechecked, failed, rows = cli._recheck_independence(lifted, space, target)
        assert (rechecked, failed) == _recheck_on_the_full_ground(lifted, n, target)
        assert rows > 0
        counts = [rechecked[t.name]["violations"] for t, _ in independence_templates(n)]
        assert any(counts) == violated


def test_certify_decides_order_10(tmp_path):
    out = tmp_path / "r.json"
    assert run(["certify", "--builtin", "independence", "--n", "10", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["outcome"] == "infeasible" == doc["report"]["expect"]
    rechecked = doc["report"]["rechecked"]
    assert (rechecked["ssa"], rechecked["wmo"]) == (
        {"instances": (4**13 - 2 * 3**13 + 2**13) // 2, "violations": 0},
        {"instances": (4**13 - 3**13 + 2**13 - 1) // 2, "violations": 0})
    assert doc["manifest"]["stats"]["pivots"] == 2819


@pytest.mark.parametrize("value, message", [
    (lambda mask: 0, "0 on the target, not negative"),
    # 1 on supersets of {a, c}: I(a:c|b) reads -1
    (lambda mask: int(mask & 5 == 5), "-1 on constraint 0, not 0"),
])
def test_certify_fails_when_the_lifted_point_misses_the_target_or_a_constraint(
        value, message, monkeypatch, capsys):
    from entrocone.setfn import TypeSpace

    monkeypatch.setattr(TypeSpace, "lift", lambda space, point: SetFunction(
        space.ground, [value(m) for m in range(space.ground.n_subsets)]))
    assert run(["certify", "--builtin", "independence", "--n", "2"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err and message in err


def test_certify_exits_two_when_the_simplex_passes_its_pivot_limit(monkeypatch, capsys):
    # the exact run's limit, MAX_PIVOTS, here lowered to 10 pivots
    monkeypatch.setattr(certify, "MAX_PIVOTS", 10)
    assert run(["certify", "--builtin", "independence", "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "the simplex did not decide within 10 pivots\n"


def test_certify_requires_a_problem(capsys):
    assert run(["certify"]) == 2


@pytest.mark.parametrize("n", ["13", "30", "1000000"])
def test_certify_refuses_an_oversized_order_before_building_it(n, capsys):
    started = time.perf_counter()
    assert run(["certify", "--builtin", "independence", "--n", n]) == 2
    assert time.perf_counter() - started < 1
    assert capsys.readouterr().err == (
        f"order {n} exceeds the cap of 12: the report lifts the Farkas point to the "
        f"2^{int(n) + 3} - 1 subsets of the full ground\n")


@pytest.mark.parametrize("n", ["22", "1000000"])
def test_witness_refuses_an_oversized_order_before_building_it(n, capsys):
    started = time.perf_counter()
    assert run(["witness", "--n", n]) == 2
    assert time.perf_counter() - started < 1
    assert f"witness order {n} exceeds the cap of 21" in capsys.readouterr().err


def test_certify_refuses_an_order_it_would_ignore(capsys):
    assert run(["certify", "--builtin", "purified-basic", "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert "--n is read only by --builtin independence" in err and "Traceback" not in err


def test_certify_refuses_a_problem_file_and_a_builtin_together(tmp_path, capsys):
    gr = GroundSet(("a", "b"))
    gens = [i.functional for i in enumerate_instances(builtin("ssa"), gr)]
    target = instantiate(builtin("mi"), gr, {"A": "a", "B": "b"}).functional
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(problem_to_obj(target, gens, [], gr, "feasible")))
    assert run(["certify", "--problem", str(path)]) == 0
    capsys.readouterr()
    assert run(["certify", "--problem", str(path), "--builtin", "purified-basic"]) == 2
    err = capsys.readouterr().err
    assert "give one of --problem FILE and --builtin" in err and "Traceback" not in err


# ------------------------------------------------------------ manifests


def test_manifest_digest_stable_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["counterexample", "--out", str(a)])
    run(["counterexample", "--out", str(b)])
    da = json.loads(a.read_text())
    db = json.loads(b.read_text())
    assert da["manifest"]["digest"] == db["manifest"]["digest"]
    assert da["report"] == db["report"]


@pytest.mark.parametrize("argv, digest", [
    (["witness", "--n", "2"],
     "e40da34775347281c3a6d83ee5e244be0c9a01fcdfe2bbb2c07341fc8fe76301"),
    (["witness", "--n", "3"],
     "02bae52bc7f5cde9e0fff78d35240c66b7b077865355c1c934112370c818a6fc"),
    (["counterexample"],
     "4446f9ddc333f938e1e9461e9d499d1f8392bc09954ece3b0c1fe0bad712c026"),
    (["certify", "--builtin", "purified-basic"],
     "58d56bc31f1be3cc4ff6b6ad2199c1b80d4eb106d52f0b6af68a189c3f3ce17b"),
    (["certify", "--builtin", "purified-basic", "--no-fast-paths"],
     "58d56bc31f1be3cc4ff6b6ad2199c1b80d4eb106d52f0b6af68a189c3f3ce17b"),
    (["certify", "--builtin", "independence", "--n", "2"],
     "df49766e0f8d978134af9e26df21616e9f227ac792576ec7921ff1a344e69546"),
    (["certify", "--builtin", "independence", "--n", "2", "--no-fast-paths"],
     "df49766e0f8d978134af9e26df21616e9f227ac792576ec7921ff1a344e69546"),
], ids=["witness-2", "witness-3", "counterexample", "purified", "purified-simplex",
        "independence-2", "independence-2-simplex"])
def test_exact_report_digest_is_pinned(argv, digest, tmp_path):
    # exact reports are byte-reproducible: any change to their JSON moves
    # these digests
    out = tmp_path / "r.json"
    assert run(argv + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["manifest"]["digest"] == f"sha256:{digest}"


def test_a_main_call_carries_nothing_into_the_next(tmp_path, capsys):
    # the parser is built once per process; each call parses its own argv
    argv = ["search", "--template", "ssa", "--trials", "3", "--labels", "A,B,C",
            "--dims", "2,2,2"]
    out = tmp_path / "r.json"
    assert run(argv + ["--refine", "2", "--out", str(out)]) == 0
    assert "refine" in json.loads(out.read_text())["report"]
    capsys.readouterr()
    assert run(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert "refine" not in second["report"]
    assert second["manifest"]["args"]["refine"] == 0 and "out" not in second["manifest"]["args"]
    assert cli.build_parser() is cli.build_parser()


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    import entrocone

    assert entrocone.__version__ in capsys.readouterr().out


def test_csv_not_available_for_certify(capsys):
    rc = run(["certify", "--builtin", "purified-basic", "--format", "csv"])
    assert rc == 2
