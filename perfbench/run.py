"""Benchmark of the `entrocone` command and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
Workloads (job lists and checks in workloads.py):

  witness  exact witness verification: `witness --n 2..6`, `counterexample`,
           `eval --template ssa|wmo` on the repaired witness g at n=5
  certify  exact LP: `certify --builtin independence --n 2`, `certify
           --builtin purified-basic` with and without `--no-fast-paths`, and
           verify_certificate of g against independence_problem(n), n=2,3,4
  search   numeric scan of many small states: the seven acceptance-8 plans
           with `--refine 40`, the planted anti-monotone defect, ssa on five
           qubits
  sample   numeric theorem checks of few large states: `sample --n 1|2|3`

With `--trace 0` the job list runs in passes, one job at a time, until the
next pass would end after `--seconds` (but at least twice); every pass is
timed with tracing off.
Job times are rescaled to a reference host speed (see hostclock.py; the raw
sum is printed as raw_wall_s).  End-to-end metrics:

  setup_s      median over fresh processes of the time until `import
               entrocone` is done and the workload's inputs exist
  wall_s       sum over the jobs of each job's median time over the passes
  work_per_s   the workload's work over the time of the jobs doing it: exact
               instances (witness: instances_per_s), independence verdicts,
               i.e. 1/verdict_s (certify), scan trials (search: trials_per_s),
               states checked by check_theorem (sample: states_per_s)
  peak_rss_mb  peak resident memory of the process

With `--trace 1` one untraced pass is followed by one traced pass, whose
spans (see tracing.py) give the per-layer metrics and the tracing overhead,
and whose span counts must match the counts in the program's own reports.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  `failed` counts the jobs whose exit code or result check failed
(failed_ops), out of `attempted` jobs.  The line before it records the
environment, per-job timings and the named metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Fixed before numpy loads; recorded in the environment line.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import workloads  # noqa: E402
from hostclock import HostClock  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
MIN_PASSES = 2  # a median over one pass would follow a single contended stretch
SETUP_TIMEOUT_S = 60
WORKDIR = ROOT / ".perfbench_work"

RATE_NAMES = {  # the named form of work_per_s in the human-readable lines
    "witness": "instances_per_s",
    "certify": "verdicts_per_s",
    "search": "trials_per_s",
    "sample": "states_per_s",
}


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


# ---------------------------------------------------------------- environment


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports for itself, when it can be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_id = None
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_id,
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
    }


# ---------------------------------------------------------------- set-up


def measure_setup(workload: str, seed: int, rundir: Path, clock: HostClock) -> list[float]:
    """Times, rescaled like job times, of fresh processes from their start
    until entrocone is imported and the workload's inputs exist."""
    probe = Path(__file__).with_name("setup_probe.py")

    def start(i):
        proc = subprocess.Popen(
            [sys.executable, str(probe), workload, str(seed), str(rundir / f"probe{i}")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
        return proc, proc.stdout.readline()

    times = []
    for i in range(SETUP_REPEATS):
        (proc, line), _, scaled = clock.measure(lambda: start(i), during=False)
        try:
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            _fail("set-up probe timed out")
        if proc.returncode != 0 or line.strip() != "ready":
            _fail(f"set-up probe failed: {err.strip()[-500:]}")
        times.append(scaled)
    return times


# ---------------------------------------------------------------- passes


def _attempt(job):
    try:
        return job.run(), None
    except Exception:  # a crashing job is a failed op, not a crashed bench
        return None, traceback.format_exc(limit=3)


def run_pass(jobs: list, clock: HostClock) -> list[dict]:
    """Run every job once, timing only the job itself (see HostClock.measure);
    check outside the timed region."""
    records = []
    for job in jobs:
        gc.collect()
        (out, err), raw, scaled = clock.measure(lambda: _attempt(job))
        if err is None:
            try:
                errors = job.check(out)
                work = job.work(out) if not errors else 0
            except Exception:
                errors, work = [traceback.format_exc(limit=3)], 0
        else:
            errors, work = [err], 0
        records.append({"job": job.name, "raw_s": raw, "wall_s": scaled, "work": work,
                        "errors": errors, "outcome": out})
    return records


def pass_wall(records: list) -> float:
    return sum(r["wall_s"] for r in records)


def job_medians(passes: list, key: str = "wall_s") -> dict:
    times: dict = {}
    for records in passes:
        for r in records:
            times.setdefault(r["job"], []).append(r[key])
    return {job: statistics.median(v) for job, v in times.items()}


def summarize(passes: list) -> tuple[float, float]:
    """wall_s: the sum of each job's median rescaled time over the passes;
    work_per_s: the work over the rescaled time of the jobs doing it."""
    med = job_medians(passes)
    work = {r["job"]: r["work"] for r in passes[0]}
    work_wall = sum(med[j] for j, w in work.items() if w)
    return sum(med.values()), (sum(work.values()) / work_wall if work_wall else 0.0)


def _report_lines(passes: list) -> list[str]:
    return [f"{r['job']}: {e.strip()}" for records in passes for r in records
            for e in r["errors"]]


# ---------------------------------------------------------------- trace checks


def trace_errors(workload: str, tracer, records: list) -> list[str]:
    """Span counts that disagree with counts the program reports itself."""
    reps = [workloads.report_of(r["outcome"]) or {} for r in records]
    tot = tracer.totals()

    def calls(name):
        return tot.get(name, (0,))[0]

    errs = []

    def expect(what, got, want):
        if got != want:
            errs.append(f"trace: {what} = {got}, program reports {want}")

    if workload == "witness":
        expect("enumerated instances", tracer.counts["inequalities.enumerate.instances"],
               sum(r["work"] for r in records))
        expect("verify_witness spans", calls("witness.verify"),
               sum(1 for r in records if r["job"].startswith("witness-")))
    elif workload == "certify":
        expect("pivots", tracer.counts["certify.pivots"],
               sum(rep["result"]["pivots"] for rep in reps if "result" in rep))
        expect("cone_membership spans", calls("certify.cone_membership"),
               sum(1 for rep in reps if "result" in rep))
    elif workload == "search":
        scans = [rep["scan"] for rep in reps]
        refines = [rep["refine"] for rep in reps if "refine" in rep]
        expect("random_scan spans", calls("search.random_scan"), len(scans))
        expect("refine steps", tracer.counts["search.refine.steps"],
               sum(r["steps"] for r in refines))
        builds = (sum(s["n_trials"] + len(s["violations"]) for s in scans)
                  + sum(1 + r["steps"] + (r["violation"] is not None) for r in refines))
        expect("family builds", calls("search.family_build"), builds)
    elif workload == "sample":
        states = sum(len(rep["results"]) for rep in reps)
        expect("family samples", calls("quantum.family_sample"), states)
        expect("check_theorem spans", calls("quantum.check_theorem"), states)
        expect("entropy vectors", calls("quantum.entropy_vector"), 2 * states)
    return errs


# ---------------------------------------------------------------- main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "entrocone" / "__init__.py").is_file():
        _fail(f"no entrocone sources under {SRC}; run from a source checkout")
    env = environment()
    rundir = WORKDIR / f"run-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, env, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _run(args, env: dict, rundir: Path) -> int:
    clock = HostClock()
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed, rundir, clock)
    jobs = workloads.prepare(args.workload, args.seed, rundir / "main")
    import entrocone

    if Path(entrocone.__file__).resolve().parent != (SRC / "entrocone").resolve():
        _fail(f"imported entrocone from {entrocone.__file__}, not from {SRC}")

    passes = []
    trace_errs: list[str] = []
    if args.trace == 0:
        t_start = time.perf_counter()
        while True:
            passes.append(run_pass(jobs, clock))
            elapsed = time.perf_counter() - t_start
            if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall, rate = summarize(passes)
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "work_per_s": {"value": rate, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        from tracing import LAYER_METRICS, Tracer

        # the reference loop's samples during a job (about 1.5% of its time)
        # count toward whichever span is open
        passes.append(run_pass(jobs, clock))
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(jobs, clock))
        finally:
            tracer.uninstall()
        traced = passes[-1]
        report_bytes = sum(len(r["outcome"].stdout) for r in traced
                           if isinstance(r["outcome"], workloads.CliResult))
        values = tracer.metrics(pass_wall(traced) - pass_wall(passes[0]), report_bytes)
        metrics = {k: {"value": values[k], "unit": LAYER_METRICS[k][0]} for k in LAYER_METRICS}
        trace_errs = trace_errors(args.workload, tracer, traced)
        tracer.write(WORKDIR / f"trace-{args.workload}.json")

    attempted = sum(map(len, passes))
    failed = sum(1 for records in passes for r in records if r["errors"])
    errors = _report_lines(passes) + trace_errs
    for line in errors:
        print(line, file=sys.stderr)
    env["loadavg_1m_end"] = os.getloadavg()[0]

    untraced = passes if args.trace == 0 else passes[:1]
    med, raw = job_medians(untraced), job_medians(untraced, "raw_s")
    named = {RATE_NAMES[args.workload]: (summarize(untraced)[1], "1/s"),
             "raw_wall_s": (sum(raw.values()), "s"),
             "failed_ops": (failed, "count"), "ops": (attempted, "count")}
    if args.workload == "certify":
        named["verdict_s"] = (med["certify-independence"], "s")
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "setup_s_samples": setup_times,
        "job_wall_s": med, "job_raw_s": raw,
        "named": named, "environment": env,
    }
    for name, m in metrics.items():
        print(f"{args.workload:8s} {name:36s} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in named.items():
        print(f"{args.workload:8s} {name:36s} {value:.6g} {unit}")
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
