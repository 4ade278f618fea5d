"""Command line front end.

Subcommands:
  witness         exact verification of the separating witness family
  counterexample  the four-party table refuting the unconstrained promotion
  eval            evaluate a template over instances on a stored set function
  sample          draw constrained-family states and check the inequalities
  certify         cone membership / separation for a stored or builtin problem
  search          randomized counterexample search with optional refinement

Every run emits a manifest (command, arguments, seed, version, timestamps and
a sha256 digest of the canonical report) so results can be reproduced and
compared byte for byte.  JSON reports embed the manifest; CSV output keeps
rows deterministic and the manifest travels separately.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .setfn import SetFunction, setfn_from_obj, to_obj
from .inequalities import builtin, satisfies, takes_order, template_from_obj, type_blocks
from .witness import (
    standard_instance,
    verify_counterexample,
    verify_witness,
)
from .certify import (
    Feasible,
    cone_membership,
    independence_orbits,
    independence_templates,
    problem_from_obj,
    purified_basic_problem,
)
from .quantum import FamilyDims, check_theorem, constrained_family_sample, trial_seed
from .search import FAMILIES, SearchConfig, local_refine, random_scan

# the largest order `certify --builtin independence` takes: its report holds
# the Farkas point lifted to the full ground, 2^(k + 3) - 1 values (32,767 in
# a 7.9 MB report at k = 12)
MAX_INDEPENDENCE_ORDER = 12


def _load(path: str, parse):
    """`parse` applied to the JSON file at `path`; any fault names the file."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"{path}: {exc}") from None


def _template_arg(args):
    """The template a command was given: a file's template, or a builtin name."""
    if bool(args.template) == bool(args.template_file):
        raise ValueError("give one of --template NAME and --template-file FILE")
    if args.template_file:
        return _load(args.template_file, template_from_obj)
    return args.template


def _parse_binding(text: str | None):
    """Parse 'A=a,B=b,X1=x1+x2' into a slot -> label-tuple mapping; a slot
    may be bound once."""
    if not text:
        return None
    binding = {}
    for part in text.split(","):
        if "=" not in part:
            raise ValueError(f"bad binding component {part!r}; expected SLOT=labels")
        slot, _, val = part.partition("=")
        slot = slot.strip()
        if slot in binding:
            raise ValueError(f"slot {slot!r} is bound twice in --bind")
        binding[slot] = tuple(v for v in val.split("+") if v)
    return binding


def _atomic_write(path: str, text: str):
    """`text` to `path` through a temporary file beside it, gone when the
    call returns; an OSError becomes a ValueError naming the path, as in `_load`."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def _manifest(args, report_obj, started: str) -> dict:
    echo = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k != "func" and v is not None
    }
    digest = hashlib.sha256(_canonical(report_obj).encode()).hexdigest()
    return {
        "command": args.command,
        "args": echo,
        "version": __version__,
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "digest": f"sha256:{digest}",
    }


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()


def _emit(args, report, started, csv_table=None, stats=None):
    """Write the report, as `to_obj` writes it, per --out and return
    nothing: JSON, or CSV when the command gives a `csv_table` (those that
    take --format) and --format asks.  `stats` (counts and phase times)
    go in the manifest as `stats`, outside the digest.

    CSV stays byte-deterministic: the manifest never enters the CSV body; it
    goes to stdout when the CSV has a file of its own, to stderr otherwise.
    """
    report_obj = to_obj(report)
    manifest = _manifest(args, report_obj, started)
    if stats is not None:
        manifest["stats"] = stats
    if csv_table is not None and args.format == "csv":
        header, rows = csv_table
        text = _csv_text(header, rows)
        if args.out:
            _atomic_write(args.out, text)
            print(json.dumps(manifest, indent=2))
        else:
            sys.stdout.write(text)
            print(json.dumps(manifest, indent=2), file=sys.stderr)
        return
    payload = {"manifest": manifest, "report": report_obj}
    text = json.dumps(payload, indent=2, default=str) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- commands


def cmd_witness(args) -> int:
    started, t0 = _now(), time.perf_counter()
    report = verify_witness(args.n)
    stats = {"instances": sum(r["count"] for r in report.instance_histogram),
             "verify_s": time.perf_counter() - t0}
    header = ("p", "delta", "count", "value_f", "value_g", "expected")
    rows = [tuple(r[k] for k in header) for r in report.instance_histogram]
    _emit(args, report, started, csv_table=(header, rows), stats=stats)
    print(f"witness n={args.n}: {'pass' if report.passed else 'FAIL'}", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_counterexample(args) -> int:
    started = _now()
    f = _load(args.values, setfn_from_obj) if args.values else None
    t0 = time.perf_counter()
    report = verify_counterexample(f)
    # the lw05 instance and one instance of each order-1 form
    stats = {"instances": 1 + len(report.new_inequality_values),
             "verify_s": time.perf_counter() - t0}
    _emit(args, report, started, stats=stats)
    print(f"counterexample: {'pass' if report.passed else 'FAIL'}", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_eval(args) -> int:
    started = _now()
    f = _load(args.values, setfn_from_obj)
    template = _template_arg(args)
    if args.n is not None and not (isinstance(template, str) and takes_order(template)):
        raise ValueError("--n is read only by a parametric builtin template (c_n, thm1, ...)")
    if isinstance(template, str):
        template = builtin(template, args.n)
    t0 = time.perf_counter()
    rep = satisfies(f, template, binding=_parse_binding(args.bind),
                    auto_filter=args.auto_filter, tol=args.tol)
    stats = {"instances": rep.n_enumerated, "admissible": rep.n_admissible,
             "scan_s": time.perf_counter() - t0}
    _emit(args, rep, started, stats=stats)
    if rep.n_admissible == 0:
        print(f"{rep.template}: no instance was admissible", file=sys.stderr)
        return 1
    print(f"{rep.template}: min value {rep.min_value} over "
          f"{rep.n_admissible} admissible instances", file=sys.stderr)
    return 0 if rep.holds else 1


def cmd_sample(args) -> int:
    started = _now()
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    dims = FamilyDims.default(args.n, args.blocks)
    trials = []
    all_pass = True
    check_s = 0.0
    for t in range(args.trials):
        seed = trial_seed(args.seed, t)
        state = constrained_family_sample(dims, seed=seed, diagonal=args.diagonal)
        t0 = time.perf_counter()
        rep = check_theorem(state, dims.a_blocks, tol=args.tol)
        check_s += time.perf_counter() - t0
        trials.append({**to_obj(rep), "trial": t, "seed": list(seed)})
        all_pass = all_pass and rep.passed
    obj = {
        "n": args.n,
        "blocks": args.blocks,
        "trials": args.trials,
        "seed": args.seed,
        "diagonal": args.diagonal,
        "all_passed": all_pass,
        "results": trials,
    }
    header = ("trial", "seed", "passed", "max_residual", "min_slack",
              "min_term", "marginal_drift", "clipped_mass")
    rows = []
    for d in trials:
        resid = max((abs(v) for v in d["constraint_residuals"].values()), default=0.0)
        slack = min(d["slacks"].values())
        rows.append((d["trial"], f"{d['seed'][0]}:{d['seed'][1]}", d["passed"],
                     f"{resid:.3e}", f"{slack:.12g}", f"{d['min_term']:.12g}",
                     f"{d['marginal_drift']:.3e}", f"{d['clipped_mass']:.3e}"))
    _emit(args, obj, started, csv_table=(header, rows),
          stats={"states": len(trials), "check_s": check_s})
    print(f"sample n={args.n}: {args.trials} trials, "
          f"{'all pass' if all_pass else 'FAILURES'}", file=sys.stderr)
    return 0 if all_pass else 1


def _recheck_independence(point, space, target) -> tuple[dict, list, int]:
    """The Farkas point lifted from `space`, re-checked on slot types: its
    value on each type, read off the lifted point itself at K ∪ {x1..xj},
    on every `type_blocks` row of each of `independence_templates(space.n)`,
    each negative row counting its instances; then `target`, the standard
    instance (< 0), and its constraints (= 0) on the full ground.  Returns
    the report's `rechecked`, the failures, each as the clause "the Farkas
    point is ..." ends with, and the type rows evaluated."""
    k = len(space.fixed)
    types = SetFunction(space, [point.values[(t & ((1 << k) - 1)) + (((1 << (t >> k)) - 1) << k)]
                                for t in range(space.n_subsets)])
    rechecked, failed, n_rows = {}, [], 0
    for template, fixed in independence_templates(space.n):
        compiled = template.compiled
        bound = compiled.bind(types)
        instances = violations = 0
        for rows, counts in type_blocks(template, space, fixed):
            negative = bound.evaluate(compiled.terms(rows))[:, 0] < 0
            instances += int(counts.sum())
            violations += int(counts[negative].sum())
            n_rows += len(rows)
        rechecked[template.name] = {"instances": instances, "violations": violations}
        if violations:
            failed.append(f"negative on {violations} of {instances} {template.name} instances")
    value = target.functional.evaluate(point)
    residuals = [con.evaluate(point) for con in target.constraints]
    rechecked.update(target=value, constraints=residuals)
    if value >= 0:
        failed.append(f"{value} on the target, not negative")
    failed += [f"{r} on constraint {i}, not 0" for i, r in enumerate(residuals) if r]
    return rechecked, failed, n_rows


def cmd_certify(args) -> int:
    started, t0 = _now(), time.perf_counter()
    if bool(args.problem) == bool(args.builtin):
        raise ValueError("give one of --problem FILE and --builtin {independence,purified-basic}")
    if args.n is not None and args.builtin != "independence":
        raise ValueError("--n is read only by --builtin independence")
    if args.problem:
        problem = _load(args.problem, problem_from_obj)
    elif args.builtin == "independence":
        if args.n is None:
            raise ValueError("--builtin independence needs --n")
        if args.n < 2:
            raise ValueError("--builtin independence needs --n of at least 2: c_1 is "
                             "I(A:B|X1) >= 0, itself an ssa instance, so order 1 makes no "
                             "independence claim")
        if args.n > MAX_INDEPENDENCE_ORDER:
            raise ValueError(f"order {args.n} exceeds the cap of {MAX_INDEPENDENCE_ORDER}: the "
                             f"report lifts the Farkas point to the 2^{args.n + 3} - 1 subsets "
                             "of the full ground")
        standard = standard_instance(args.n, args.n)  # the LP's target and the re-check's
        problem = independence_orbits(args.n, standard)
    else:
        problem = purified_basic_problem()
    target, generators, constraints, ground, expect = problem
    built = time.perf_counter()
    outcome = cone_membership(target, generators, constraints)
    solved = time.perf_counter()
    feasible = isinstance(outcome, Feasible)
    rechecked, failed, recheck_rows = None, [], 0
    if args.builtin == "independence":
        # the LP ran on the types of the full ground: the report gives that
        # ground and the point lifted to it, re-checked on slot types
        space, ground = ground, ground.ground
        if not feasible:
            outcome = replace(outcome, farkas_point=space.lift(outcome.farkas_point))
            rechecked, failed, recheck_rows = _recheck_independence(
                outcome.farkas_point, space, standard)
    obj = {
        "outcome": "feasible" if feasible else "infeasible",
        "ground": list(ground.labels),
        "n_generators": len(generators),
        "n_constraints": len(constraints),
        "expect": expect,
        "result": outcome,
    }
    if rechecked is not None:
        obj["rechecked"] = rechecked
    stats = {"lp_rows": target.ground.n_subsets - 1,
             "lp_columns": len(generators) + 2 * len(constraints),
             "lp_nonzeros": outcome.nonzeros,
             "pivots": outcome.pivots,
             "build_s": built - t0, "solve_s": solved - built,
             "recheck_s": time.perf_counter() - solved, "recheck_rows": recheck_rows}
    _emit(args, obj, started, stats=stats)
    if failed:
        print(f"certify: the Farkas point is {' and '.join(failed)}", file=sys.stderr)
        return 1
    print(f"certify: {obj['outcome']} via {outcome.method}"
          + (f" (expected {expect})" if expect else ""), file=sys.stderr)
    if expect is not None:
        return 0 if obj["outcome"] == expect else 1
    return 0 if feasible else 1


def cmd_search(args) -> int:
    started = _now()
    cfg = SearchConfig(
        template=_template_arg(args),
        n=args.n,
        family=args.family,
        labels=tuple(args.labels.split(",")) if args.labels else (),
        dims=tuple(int(d) for d in args.dims.split(",")) if args.dims else (),
        rank=args.rank,
        blocks=args.blocks,
        trials=args.trials,
        seed=args.seed,
        tol=args.tol,
        binding=_parse_binding(args.bind),
        auto_filter=args.auto_filter,
        refine_steps=args.refine,
    )
    t0 = time.perf_counter()
    scan = random_scan(cfg)
    stats = {"scan_s": time.perf_counter() - t0, "marginals": scan.marginals,
             "replays": scan.n_replayed, "clipped_mass": scan.clipped_mass}
    obj = {"scan": scan}
    violated = scan.violation_found
    if args.refine > 0:
        start = tuple(scan.argmin["seed"]) if scan.argmin else None
        t0 = time.perf_counter()
        refine = local_refine(cfg, start_seed=start)
        stats.update(refine_s=time.perf_counter() - t0, refine_steps=refine.steps,
                     replays=scan.n_replayed + refine.n_replayed,
                     clipped_mass=max(scan.clipped_mass, refine.clipped_mass))
        obj["refine"] = refine
        violated = violated or refine.violation_found
    header = ("trial", "seed", "min_slack", "argmin_instance", "max_residual")
    rows = [
        (r["trial"], r["seed"],
         None if r["min_slack"] is None else f"{r['min_slack']:.12g}",
         r["argmin_instance"],
         None if r["max_residual"] is None else f"{r['max_residual']:.3e}")
        for r in scan.trial_records
    ]
    _emit(args, obj, started, csv_table=(header, rows), stats=stats)
    msg = f"search {scan.template}: min slack {scan.min_slack}"
    if scan.n_admissible == 0:
        msg += " -- no instance was admissible"
    if "refine" in obj and obj["refine"].accepted == 0:
        msg += " -- refinement accepted no step"
    if violated:
        msg += " -- VIOLATION"
    print(msg, file=sys.stderr)
    return 1 if violated or scan.n_admissible == 0 else 0


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and kept for the process:
    `parse_args` returns a fresh namespace each call, so nothing carries over
    from one `main` call to the next."""
    # each command takes only the shared flags it reads: every one takes
    # --out, and --format, --seed and --tol go where a command uses them
    out, fmt, seed, tol = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    out.add_argument("--out", help="write the report to this file (atomic)")
    fmt.add_argument("--format", choices=("json", "csv"), default="json")
    seed.add_argument("--seed", type=int, default=0, help="base random seed")
    tol.add_argument("--tol", type=float, default=1e-9, help="float tolerance")

    parser = argparse.ArgumentParser(
        prog="entrocone",
        description="Constrained entropy inequalities: verification, "
                    "certification and counterexample search.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witness", parents=[out, fmt],
                       help="verify the separating witness family exactly")
    p.add_argument("--n", type=int, required=True, help="witness order (>= 2)")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("counterexample", parents=[out],
                       help="verify the four-party counterexample table")
    p.add_argument("--values", help="optional set-function JSON replacing the builtin")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("eval", parents=[out, tol],
                       help="evaluate a template on a stored set function")
    p.add_argument("--values", required=True, help="set-function JSON file")
    p.add_argument("--template", help="builtin template name, e.g. ssa or c_3")
    p.add_argument("--template-file", help="template JSON file")
    p.add_argument("--n", type=int, help="order for parametric builtin templates")
    p.add_argument("--bind", help="slot binding, e.g. A=a,B=b,C=c")
    p.add_argument("--auto-filter", action="store_true",
                   help="keep only instances whose constraints vanish on f")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", parents=[out, fmt, seed, tol],
                       help="draw constrained-family states and check them")
    p.add_argument("--n", type=int, required=True, help="number of X registers")
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--diagonal", action="store_true", help="classical block factors")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("certify", parents=[out],
                       help="decide cone membership and emit the certificate")
    p.add_argument("--problem", help="problem JSON file")
    p.add_argument("--builtin", choices=("independence", "purified-basic"))
    p.add_argument("--n", type=int, help="order for the independence problem")
    p.add_argument("--no-fast-paths", action="store_true",
                   help="ignored: the exact simplex is the only LP run")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("search", parents=[out, fmt, seed, tol],
                       help="random counterexample scan with optional refinement")
    p.add_argument("--template", help="builtin template name")
    p.add_argument("--template-file", help="template JSON file")
    p.add_argument("--n", type=int, help="template/family order")
    p.add_argument("--family", default="haar-mixed", choices=FAMILIES)
    p.add_argument("--labels", help="comma list of party labels")
    p.add_argument("--dims", help="comma list of local dimensions")
    p.add_argument("--rank", type=int, help="rank cap for haar-mixed draws")
    p.add_argument("--blocks", type=int,
                   help="block count for the constrained and lw05 families (default 2)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--bind", help="slot binding, e.g. A=a,B=b,C=c")
    p.add_argument("--auto-filter", action="store_true")
    p.add_argument("--refine", type=int, default=0,
                   help="polish the worst point for this many steps")
    p.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    """Run one command: 0 passed, 1 failed, 2 usage error.

    Bad input raises ValueError, in the command or the library it calls,
    and ends as one line on stderr; internal faults raise RuntimeError and
    are not caught.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
