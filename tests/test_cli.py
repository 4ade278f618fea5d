"""Command line behavior: exit codes, manifests, determinism, error format."""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entrocone.certify import problem_to_obj
from entrocone.cli import main
from entrocone.inequalities import builtin, enumerate_instances, instantiate, template_to_obj
from entrocone.setfn import GroundSet, SetFunction, setfn_to_json, setfn_to_obj
from entrocone.witness import counterexample_table


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture()
def etable_file(tmp_path):
    path = tmp_path / "etable.json"
    path.write_text(setfn_to_json(counterexample_table()))
    return str(path)


# ------------------------------------------------------------ exit codes


def test_witness_rejects_order_one(capsys):
    assert run(["witness", "--n", "1"]) == 2
    assert "at least 2" in capsys.readouterr().err


def test_witness_passes_structural_run(tmp_path, capsys):
    out = tmp_path / "w.json"
    rc = run(["witness", "--n", "2", "--no-scan", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["passed"] is True
    assert payload["manifest"]["command"] == "witness"
    assert payload["manifest"]["digest"].startswith("sha256:")


def test_counterexample_ok(capsys):
    assert run(["counterexample"]) == 0
    err = capsys.readouterr().err
    assert "pass" in err


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
    ["sample", "--n", "1", "--theorems", "bogus"],
    ["sample", "--n", "1", "--trials", "0"],
    ["search", "--template", "ssa", "--trials", "0"],
    ["certify", "--builtin", "independence", "--n", "0"],
    ["witness", "--n", "2", "--p-max", "0"],
    ["witness", "--n", "3", "--p-max", "2"],
    ["certify", "--builtin", "independence", "--n", "2", "--max-generators", "10"],
    ["certify", "--builtin", "purified-basic", "--max-generators", "0"],
    ["certify", "--problem", "{float_coef}"],
    ["certify", "--problem", "{missing_key}"],
    ["certify", "--problem", "{unknown_label}"],
    ["certify", "--problem", "{not_a_list}"],
    ["sample", "--n", "6", "--trials", "1"],
    ["env:ENTROPIC_MAX_DIM=abc", "sample", "--n", "1"],
    ["env:ENTROPIC_MAX_DIM=48", "sample", "--n", "1", "--trials", "1"],
    ["search", "--template", "ssa", "--trials", "2", "--refine", "5", "--step", "0"],
    ["search", "--template", "ssa", "--trials", "2", "--refine", "5", "--step", "-0.1"],
    ["search", "--template", "ssa", "--trials", "2", "--refine", "-1"],
    ["search", "--template-file", "{list_coef}", "--trials", "1"],
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
        "list_coef": {"name": "t", "slots": ["A"], "terms": [{**term, "subset": ["A"],
                                                            "coef": [1]}]},
        "problem_constraints_not_list": {"ground": ["a"], "target": [term],
                                         "generators": [[term]], "constraints": 5},
        "problem_zero_denominator": {"ground": ["a"], "target": [{**term, "coef": "1/0"}],
                                     "generators": [[term]]},
        "problem_bool_coef": {"ground": ["a"], "target": [{**term, "coef": True}],
                              "generators": [[term]]},
        "values_not_list": {"parties": ["A"], "values": 5},
    }
    template = {"name": "t", "slots": ["A"], "terms": [{"subset": ["A"], "coef": "1"}]}
    for name, change in (("terms_not_list", {"terms": 5}),
                         ("constraints_not_list", {"constraints": 5}),
                         ("symmetries_not_list", {"symmetries": 5}),
                         ("zero_denominator", {"terms": [{"subset": ["A"], "coef": "1/0"}]}),
                         ("bool_coef", {"terms": [{"subset": ["A"], "coef": True}]})):
        problems[name] = {**template, **change}
    # three-party tables with every value 1, NaN, or so large that a sum overflows
    for name, v in (("ones", 1), ("nans", float("nan")), ("huge", 1.7e308)):
        problems[name] = setfn_to_obj(SetFunction(GroundSet(("A", "B", "C")), [v] * 8))
    problems["deep"] = "[" * 100_000 + "]" * 100_000  # past the JSON decoder's recursion
    for name, obj in problems.items():
        (tmp_path / f"{name}.json").write_text(obj if isinstance(obj, str) else json.dumps(obj))
    assert run([a.format(**{k: tmp_path / f"{k}.json" for k in problems})
                for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.strip() and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["search", "--template", "c_2", "--trials", "2"],
    ["eval", "--values", "{concave}", "--template", "lw05", "--auto-filter"],
])
def test_nothing_admissible_exits_one(argv, tmp_path, capsys):
    # strictly concave in |S|: every conditional mutual information with
    # nonempty sides is positive, so no constrained instance is admissible
    from entrocone.setfn import GroundSet, SetFunction

    concave = tmp_path / "concave.json"
    concave.write_text(setfn_to_json(SetFunction(
        GroundSet(("A", "B", "C", "D")),
        [bin(m).count("1") * (8 - bin(m).count("1")) for m in range(16)])))
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


def test_search_refine_flag(tmp_path):
    out = tmp_path / "r.json"
    rc = run(["search", "--template", "ssa", "--labels", "A,B,C",
              "--dims", "2,2,2", "--trials", "5", "--refine", "20",
              "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert "refine" in payload["report"]
    assert payload["report"]["refine"]["violation_found"] is False


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
    from entrocone.certify import problem_to_json

    gr = GroundSet(("a", "b", "c"))
    gens = [i.functional for i in enumerate_instances(builtin("ssa"), gr)]
    target = instantiate(builtin("mi"), gr, {"A": "a", "B": "b"}).functional

    ok = tmp_path / "ok.json"
    ok.write_text(problem_to_json(target, gens, [], gr, expect="feasible"))
    assert run(["certify", "--problem", str(ok)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(problem_to_json(target, gens, [], gr, expect="infeasible"))
    assert run(["certify", "--problem", str(bad)]) == 1


def test_certify_requires_a_problem(capsys):
    assert run(["certify"]) == 2


# ------------------------------------------------------------ manifests


def test_manifest_digest_stable_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["counterexample", "--out", str(a)])
    run(["counterexample", "--out", str(b)])
    da = json.loads(a.read_text())
    db = json.loads(b.read_text())
    assert da["manifest"]["digest"] == db["manifest"]["digest"]
    assert da["report"] == db["report"]


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    import entrocone

    assert entrocone.__version__ in capsys.readouterr().out


def test_csv_not_available_for_certify(capsys):
    rc = run(["certify", "--builtin", "purified-basic", "--format", "csv"])
    assert rc == 2
