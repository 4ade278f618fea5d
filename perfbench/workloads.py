"""Workloads of the entrocone benchmark: job lists, inputs and result checks.

A workload is a fixed list of jobs run one after another in one process: a
closed loop with a single client, so the next job starts only when the last
one has returned.  A job is either an `entrocone` command line, run
in-process through `entrocone.cli.main(argv)` with stdout and stderr
captured, or a direct library call.  Every job's exit code and report are
checked against values derived in this file apart from the code under test,
so a fast but wrong answer counts as a failed op.

Which ROADMAP open item each workload exercises (E) or bypasses (B):

    workload  item 2 (integer / compiled  item 3 (float-guided  item 4 (batched
              instance sets)              exact LP)             entropy vectors)
    witness   E                           B                     B
    certify   E (problem build only)      E                     B
    search    E (float instance matrix)   B                     E (small states)
    sample    B                           -                     E (large states)

Only the search and sample jobs are random.  Their `--seed` values derive
from the workload seed; the exact workloads take no seed.  The pinned float
references hold for DEFAULT_SEED only; on any other seed every verdict check
still runs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
SLACK_ATOL = 1e-9  # absolute tolerance on pinned float slacks

WORKLOADS = ("witness", "certify", "search", "sample")

# ---------------------------------------------------------------- witness

# n=7 is left out: it runs 10-15 s on a shared 2-vCPU 2.0 GHz Xeon VM, so a
# run could time it once at most, and one sample cannot separate a change
# from the host's speed swings.
WITNESS_ORDERS = (2, 3, 4, 5, 6)
EVAL_ORDER = 5  # the eval jobs read the repaired witness g at this order
EVAL_TEMPLATES = ("ssa", "wmo")

# Total c_p instances scanned by `witness --n k` (p = 1..k+2, A=a, B=b, C=c).
# Each equals sum over p and delta of S(k+1, p-delta+1), see _stirling2.
WITNESS_INSTANCES = {2: 19, 3: 67, 4: 264, 5: 1152, 6: 5506}

# Pinned eval reports on g at order EVAL_ORDER: (instances enumerated, min value).
EVAL_PINS = {"ssa": (26335, "0"), "wmo": (29615, "4112")}

COUNTEREXAMPLE_PINS = {
    "prior_inequality_value": "-2",
    "new_inequality_values": {"c_1": "0", "thm1p_1": "0", "thm2_1": "0", "thm2p_1": "2"},
}

# ---------------------------------------------------------------- certify

CERTIFY_VERDICT_ORDER = 2  # `certify --builtin independence --n 2`
CERTIFY_G_ORDERS = (2, 3, 4)

# ---------------------------------------------------------------- search

# The seven acceptance-8 plans: template, family arguments, trial weight
# (4:3:3:3:3:3:1, as in the acceptance suite) and base seed.
SEARCH_PLANS = (
    ("ssa", ("--family", "haar-mixed", "--labels", "A,B,C", "--dims", "2,2,2"), 4, 101),
    ("wmo", ("--family", "haar-mixed", "--labels", "A,B,C", "--dims", "2,2,2"), 3, 102),
    ("c_2", ("--family", "constrained", "--n", "2"), 3, 103),
    ("thm1p", ("--family", "constrained", "--n", "2"), 3, 104),
    ("thm2", ("--family", "constrained", "--n", "2"), 3, 105),
    ("thm2p", ("--family", "constrained", "--n", "2"), 3, 106),
    ("lw05", ("--family", "lw05"), 1, 107),
)
SEARCH_TRIAL_UNIT = 10  # trials per unit of plan weight
SEARCH_REFINE = 40
PLANTED = ("anti-monotone", ("--family", "haar-mixed", "--labels", "A,B", "--dims", "2,2",
                             "--rank", "4"), 10, 108)
FIVE_QUBIT = ("ssa", ("--family", "haar-mixed", "--labels", "A,B,C,D,E",
                      "--dims", "2,2,2,2,2"), 20, 109)

# ---------------------------------------------------------------- sample

SAMPLE_ORDERS = ((1, 201), (2, 202), (3, 203))  # (n, base seed)
SAMPLE_TRIALS = 4

# Float references pinned from the seed code at DEFAULT_SEED, by job name.
# search: (scan min_slack, refine final_slack or None); sample: min slack.
SEARCH_PINS = {
    "search-ssa-101": (0.020023693963592715, 0.01957039555119966),
    "search-wmo-102": (1.1238600145608688, 1.123085053575971),
    "search-c_2-103": (0.6126784985378544, 0.6116047347052209),
    "search-thm1p-104": (6.704647704234466, 6.697610006378396),
    "search-thm2-105": (0.8719484812241465, 0.8715787286985774),
    "search-thm2p-106": (8.85881228456543, 8.85855092814215),
    "search-lw05-107": (0.31881233580677204, 0.31881233580677204),
    "search-anti-monotone-108": (-0.7007809011875626, None),
    "search-ssa-109": (0.0013164655451853857, None),
}
SAMPLE_PINS = {
    "sample-1": 0.04624039517392564,
    "sample-2": 1.2252057242214747,
    "sample-3": 2.241332559779188,
}


def job_seed(base: int, seed: int) -> int:
    return base + 1000 * (seed % 2**32)


# ---------------------------------------------------------------- jobs


@dataclass
class CliResult:
    code: int | None
    stdout: str
    stderr: str


@dataclass
class Job:
    """One unit of the closed loop.

    `run` is the timed part.  `check` gets its outcome and returns a list of
    errors (empty when the result is right).  `work` counts the units the
    workload's rate is measured in (0 when the job does not contribute).
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    work: Callable[[object], int]


def run_cli(argv: list[str]) -> CliResult:
    """Run one `entrocone` command in-process, as the console script would."""
    from entrocone import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def _report(res: CliResult, want_code: int) -> tuple[dict | None, list]:
    if res.code != want_code:
        tail = res.stderr.strip().splitlines()[-1:] or [""]
        return None, [f"exit code {res.code}, expected {want_code}: {tail[0]}"]
    try:
        return json.loads(res.stdout)["report"], []
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return None, [f"unreadable report: {exc}"]


def _cli_job(name, argv, want_code, check_report, work_report) -> Job:
    def check(res):
        rep, errs = _report(res, want_code)
        return errs if rep is None else check_report(rep)

    def work(res):
        rep, errs = _report(res, want_code)
        return 0 if rep is None else work_report(rep)

    return Job(name, lambda: run_cli(list(argv)), check, work)


def report_of(res) -> dict | None:
    """The parsed report of a CLI outcome, or None for library jobs."""
    return _report(res, res.code)[0] if isinstance(res, CliResult) else None


# ---------------------------------------------------------------- witness checks


def _stirling2(n: int, k: int) -> int:
    """Ways to split n labelled items into k nonempty blocks."""
    row = [1] + [0] * k
    for i in range(1, n + 1):
        new = [0] * (k + 1)
        for j in range(1, min(i, k) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def _class_count(n: int, p: int, delta: int) -> int:
    # an instance is a set of p - delta disjoint nonempty subsets of the n
    # registers; adding one "unused" item makes it a partition of n + 1 items
    return _stirling2(n + 1, p - delta + 1)


def _check_witness(n: int, rep: dict) -> list:
    errs = []
    if rep.get("passed") is not True:
        errs.append("report says not passed")
    rows = rep.get("instance_histogram", [])
    got = {(r["p"], r["delta"]): r for r in rows}
    want = {(p, d) for p in range(1, n + 3) for d in range(p + 1) if p - d <= n}
    if set(got) != want:
        errs.append(f"histogram classes {sorted(set(got) ^ want)[:3]} differ")
    total = 0
    for (p, d), r in sorted(got.items()):
        value = str(n * (n + 1) * (n - p - 1 + 2 * d))
        if (r["expected"], r["value_f"], r["value_g"]) != (value, value, value):
            errs.append(f"class p={p} delta={d}: values {r['value_f']}/{r['value_g']}, want {value}")
        if r["count"] != _class_count(n, p, d):
            errs.append(f"class p={p} delta={d}: count {r['count']}, want {_class_count(n, p, d)}")
        total += r["count"]
    if total != WITNESS_INSTANCES[n] or total == 0:
        errs.append(f"{total} instances, want {WITNESS_INSTANCES[n]}")
    if rep.get("negative_classes") != [{"p": n, "delta": 0, "value": str(-n * (n + 1))}]:
        errs.append(f"negative classes {rep.get('negative_classes')}")
    return errs


def _check_counterexample(rep: dict) -> list:
    errs = []
    if rep.get("passed") is not True:
        errs.append("report says not passed")
    if not (rep.get("submodular") and rep.get("weakly_monotone")):
        errs.append("table is not submodular and weakly monotone")
    if set(rep.get("constraint_values", {}).values()) != {"0"}:
        errs.append(f"constraints {rep.get('constraint_values')}")
    for key, want in COUNTEREXAMPLE_PINS.items():
        if rep.get(key) != want:
            errs.append(f"{key} = {rep.get(key)}, want {want}")
    return errs


def _check_eval(template: str, rep: dict) -> list:
    n_enum, min_value = EVAL_PINS[template]
    errs = []
    if rep.get("n_enumerated") != n_enum:
        errs.append(f"{rep.get('n_enumerated')} instances, want {n_enum}")
    if rep.get("n_admissible") != n_enum:
        errs.append(f"{rep.get('n_admissible')} admissible, want {n_enum}")
    if rep.get("min_value") != min_value:
        errs.append(f"min value {rep.get('min_value')}, want {min_value}")
    if rep.get("holds") is not True or rep.get("n_violations") != 0:
        errs.append("template reported violated")
    return errs


def _witness_instances(rep: dict) -> int:
    return sum(r["count"] for r in rep.get("instance_histogram", []))


def witness_jobs(workdir: Path) -> list:
    jobs = [
        _cli_job(f"witness-{n}", ["witness", "--n", str(n)], 0,
                 lambda rep, n=n: _check_witness(n, rep), _witness_instances)
        for n in WITNESS_ORDERS
    ]
    jobs.append(_cli_job("counterexample", ["counterexample"], 0,
                         _check_counterexample, lambda rep: 0))
    values = str(workdir / f"g{EVAL_ORDER}.json")
    for t in EVAL_TEMPLATES:
        jobs.append(_cli_job(f"eval-{t}", ["eval", "--values", values, "--template", t], 0,
                             lambda rep, t=t: _check_eval(t, rep),
                             lambda rep: rep["n_enumerated"]))
    return jobs


def write_witness_inputs(workdir: Path) -> None:
    from entrocone.setfn import setfn_to_obj
    from entrocone.witness import make_witness_g

    path = workdir / f"g{EVAL_ORDER}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(setfn_to_obj(make_witness_g(EVAL_ORDER))))
    tmp.replace(path)


# ---------------------------------------------------------------- certify checks


def _dot(coefs: dict, point: dict) -> Fraction:
    return sum((Fraction(c) * point.get(m, 0) for m, c in coefs.items()), Fraction(0))


def _parse_point(obj: dict) -> dict:
    """Set-function JSON as {mask: Fraction}, bits in the order of `parties`."""
    bit = {lab: 1 << i for i, lab in enumerate(obj["parties"])}
    point = {}
    for ent in obj["values"]:
        mask = 0
        for lab in ent["subset"]:
            mask |= bit[lab]
        point[mask] = Fraction(ent["value"])
    return point


@functools.cache
def _problem(key):
    """A membership problem the certify checks replay against, built once
    (in the first pass, so a traced pass records no extra spans)."""
    from entrocone import certify

    if key == "purified":
        return certify.purified_basic_problem()
    return certify.independence_problem(key)


def _check_farkas(rep: dict) -> list:
    if rep.get("outcome") != "infeasible" or rep.get("expect") != "infeasible":
        return [f"outcome {rep.get('outcome')}, want infeasible"]
    target, gens, cons, ground, _ = _problem(CERTIFY_VERDICT_ORDER)
    if rep.get("ground") != list(ground.labels):
        return [f"ground {rep.get('ground')}"]
    y = _parse_point(rep["result"]["farkas_point"])
    errs = []
    bad = sum(1 for g in gens if _dot(g.coefs, y) < 0)
    if bad:
        errs.append(f"Farkas point negative on {bad} generators")
    if any(_dot(c.coefs, y) != 0 for c in cons):
        errs.append("Farkas point not zero on the constraints")
    if _dot(target.coefs, y) >= 0:
        errs.append("Farkas point not negative on the target")
    if not gens:
        errs.append("no generators")
    return errs


def _check_combination(rep: dict) -> list:
    if rep.get("outcome") != "feasible" or rep.get("expect") != "feasible":
        return [f"outcome {rep.get('outcome')}, want feasible"]
    target, gens, cons, _, _ = _problem("purified")
    lams = [Fraction(c) for c in rep["result"]["coefficients"]]
    mus = [Fraction(c) for c in rep["result"]["constraint_coefficients"]]
    if len(lams) != len(gens) or len(mus) != len(cons) or not gens:
        return ["multiplier count does not match the problem"]
    if min(lams) < 0:
        return ["negative generator multiplier"]
    acc: dict = {}
    for lam, fn in list(zip(lams, gens)) + list(zip(mus, cons)):
        for m, c in fn.coefs.items():
            acc[m] = acc.get(m, Fraction(0)) + lam * c
    acc = {m: c for m, c in acc.items() if c}
    if acc != {m: Fraction(c) for m, c in target.coefs.items()}:
        return ["multipliers do not replay the target"]
    return []


@dataclass
class GCertificate:
    n: int
    target_coefs: dict
    point: list
    report: object


def _verify_g(n: int) -> GCertificate:
    from entrocone import certify, witness

    target, gens, cons, _, _ = certify.independence_problem(n)
    g = witness.make_witness_g(n)
    rep = certify.verify_certificate(
        certify.Certificate(point=g, generators=tuple(gens), constraints=tuple(cons),
                            target=target))
    return GCertificate(n, dict(target.coefs), list(g.values), rep)


def _check_g(out: GCertificate) -> list:
    want = -out.n * (out.n + 1)
    errs = []
    if not out.report.valid:
        errs.append(f"g rejected: {out.report.failures[:1]}")
    own = _dot(out.target_coefs, dict(enumerate(out.point)))
    if own != want or out.report.target_value != want:
        errs.append(f"target value {own} / {out.report.target_value}, want {want}")
    return errs


def certify_jobs() -> list:
    verdict = ["certify", "--builtin", "independence", "--n", str(CERTIFY_VERDICT_ORDER)]
    jobs = [
        _cli_job("certify-independence", verdict, 0,
                 _check_farkas, lambda rep: 1),
        _cli_job("certify-purified", ["certify", "--builtin", "purified-basic"], 0,
                 _check_combination, lambda rep: 0),
        _cli_job("certify-purified-simplex",
                 ["certify", "--builtin", "purified-basic", "--no-fast-paths"], 0,
                 _check_combination, lambda rep: 0),
    ]
    for n in CERTIFY_G_ORDERS:
        jobs.append(Job(f"verify-g-{n}", lambda n=n: _verify_g(n), _check_g, lambda out: 0))
    return jobs


# ---------------------------------------------------------------- search checks


def _check_search(name: str, planted: bool, trials: int, seed: int, rep: dict) -> list:
    scan = rep.get("scan", {})
    errs = []
    if scan.get("n_trials") != trials:
        errs.append(f"{scan.get('n_trials')} trials, want {trials}")
    if not scan.get("n_instances") or not scan.get("n_admissible") or scan.get("min_slack") is None:
        errs.append("scan evaluated no admissible instance")
        return errs
    if planted:
        viols = scan.get("violations") or []
        if not scan.get("violation_found") or not viols or viols[0]["value"] >= -SLACK_ATOL:
            errs.append("planted defect not caught")
    else:
        if scan.get("violation_found") or rep.get("refine", {}).get("violation_found"):
            errs.append("violation reported on a true form")
        if "refine" in rep and rep["refine"].get("steps", 0) < 1:
            errs.append("refinement took no step")
    if seed == DEFAULT_SEED and name in SEARCH_PINS:
        want_scan, want_refine = SEARCH_PINS[name]
        if abs(scan["min_slack"] - want_scan) > SLACK_ATOL:
            errs.append(f"scan min slack {scan['min_slack']!r}, pinned {want_scan!r}")
        got_refine = rep.get("refine", {}).get("final_slack")
        if want_refine is not None and (got_refine is None
                                        or abs(got_refine - want_refine) > SLACK_ATOL):
            errs.append(f"refine final slack {got_refine!r}, pinned {want_refine!r}")
    return errs


def search_jobs(seed: int) -> list:
    # (template, family arguments, trials, base seed, planted, refine steps)
    plans = [(t, fam, w * SEARCH_TRIAL_UNIT, base, False, SEARCH_REFINE)
             for t, fam, w, base in SEARCH_PLANS]
    plans += [(*PLANTED, True, 0), (*FIVE_QUBIT, False, 0)]
    jobs = []
    for template, family, trials, base, planted, refine in plans:
        name = f"search-{template}-{base}"
        argv = ["search", "--template", template, *family, "--trials", str(trials),
                "--seed", str(job_seed(base, seed))]
        if refine:
            argv += ["--refine", str(refine)]
        jobs.append(_cli_job(
            name, argv, 1 if planted else 0,
            lambda rep, a=(name, planted, trials, seed): _check_search(*a, rep),
            lambda rep: rep["scan"]["n_trials"]))
    return jobs


# ---------------------------------------------------------------- sample checks


def _check_sample(name: str, seed: int, rep: dict) -> list:
    results = rep.get("results") or []
    errs = []
    if len(results) != SAMPLE_TRIALS:
        errs.append(f"{len(results)} states, want {SAMPLE_TRIALS}")
    if not results or not all(r.get("slacks") for r in results):
        return errs + ["no slack evaluated"]
    if rep.get("all_passed") is not True or not all(r.get("passed") for r in results):
        errs.append("a state failed check_theorem")
    low = min(min(r["slacks"].values()) for r in results)
    if seed == DEFAULT_SEED and name in SAMPLE_PINS and abs(low - SAMPLE_PINS[name]) > SLACK_ATOL:
        errs.append(f"min slack {low!r}, pinned {SAMPLE_PINS[name]!r}")
    return errs


def sample_jobs(seed: int) -> list:
    jobs = []
    for n, base in SAMPLE_ORDERS:
        name = f"sample-{n}"
        argv = ["sample", "--n", str(n), "--trials", str(SAMPLE_TRIALS),
                "--seed", str(job_seed(base, seed))]
        jobs.append(_cli_job(name, argv, 0,
                             lambda rep, name=name: _check_sample(name, seed, rep),
                             lambda rep: len(rep["results"])))
    return jobs


# ---------------------------------------------------------------- set-up


def prepare(workload: str, seed: int, workdir: Path) -> list:
    """Import entrocone and create the workload's inputs; return its jobs."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import entrocone  # noqa: F401  (the import is part of set-up time)
    import entrocone.cli  # noqa: F401

    if workload == "witness":
        workdir.mkdir(parents=True, exist_ok=True)
        write_witness_inputs(workdir)
        return witness_jobs(workdir)
    if workload == "certify":
        return certify_jobs()
    if workload == "search":
        return search_jobs(seed)
    if workload == "sample":
        return sample_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")
