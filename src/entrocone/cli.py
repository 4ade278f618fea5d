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
import hashlib
import io
import json
import os
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .setfn import GroundSet, setfn_from_obj
from .inequalities import builtin, satisfies, template_from_obj
from .witness import verify_counterexample, verify_witness
from .certify import (
    Feasible,
    cone_membership,
    independence_problem,
    problem_from_obj,
    purified_basic_problem,
)
from .quantum import THEOREMS, check_theorem, constrained_family_sample, trial_seed
from .search import SearchConfig, local_refine, random_scan


def _die(msg: str, code: int = 2):
    print(msg, file=sys.stderr)
    raise SystemExit(code)


def _require_at_least(value, flag: str, low: int):
    if value is not None and value < low:
        _die(f"{flag} must be at least {low}")


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        _die(f"{path}: {exc.strerror or exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        _die(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")


def _load_setfn(path: str):
    obj = _load_json(path)
    try:
        return setfn_from_obj(obj)
    except ValueError as exc:
        _die(f"{path}: {exc}")


def _resolve_template(args):
    if getattr(args, "template_file", None):
        obj = _load_json(args.template_file)
        try:
            return template_from_obj(obj)
        except ValueError as exc:
            _die(f"{args.template_file}: {exc}")
    if getattr(args, "template", None):
        try:
            return builtin(args.template, getattr(args, "n", None))
        except (KeyError, ValueError) as exc:
            _die(str(exc))
    _die("give --template NAME or --template-file FILE")


def _parse_binding(text: str | None, ground: GroundSet | None = None):
    """Parse 'A=a,B=b,X1=x1+x2' into a slot -> label-tuple mapping."""
    if not text:
        return None
    binding = {}
    for part in text.split(","):
        if "=" not in part:
            _die(f"bad binding component {part!r}; expected SLOT=labels")
        slot, _, val = part.partition("=")
        labels = tuple(v for v in val.split("+") if v)
        binding[slot.strip()] = labels
    return binding


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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


def _emit(args, report_obj, started, csv_table=None):
    """Write the report per --format/--out and return nothing.

    CSV stays byte-deterministic: the manifest never enters the CSV body; it
    goes to stdout when the CSV has a file of its own, to stderr otherwise.
    """
    manifest = _manifest(args, report_obj, started)
    if args.format == "csv":
        if csv_table is None:
            _die(f"{args.command}: csv output is not available for this command")
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
    started = _now()
    if args.n < 2:
        _die("--n must be at least 2; the construction needs two registers")
    # the scan must reach p = n, the one negative class
    _require_at_least(args.p_max, "--p-max", 1 if args.no_scan else args.n)
    report = verify_witness(args.n, p_max=args.p_max, scan_instances=not args.no_scan)
    obj = report.to_dict()
    rows = [
        (r["p"], r["delta"], r["count"], r["value_f"], r["value_g"], r["expected"])
        for r in obj.get("instance_histogram", [])
    ]
    _emit(args, obj, started,
          csv_table=(("p", "delta", "count", "value_f", "value_g", "expected"), rows))
    print(f"witness n={args.n}: {'pass' if report.passed else 'FAIL'}", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_counterexample(args) -> int:
    started = _now()
    f = _load_setfn(args.values) if args.values else None
    report = verify_counterexample(f)
    _emit(args, report.to_dict(), started)
    print(f"counterexample: {'pass' if report.passed else 'FAIL'}", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_eval(args) -> int:
    started = _now()
    f = _load_setfn(args.values)
    template = _resolve_template(args)
    binding = _parse_binding(args.bind)
    try:
        rep = satisfies(f, template, binding=binding, auto_filter=args.auto_filter,
                        tol=args.tol)
    except ValueError as exc:
        _die(str(exc))
    obj = {
        "template": rep.template_name,
        "n_enumerated": rep.n_enumerated,
        "n_admissible": rep.n_admissible,
        "min_value": None if rep.min_value is None else str(rep.min_value),
        "argmin": rep.argmin.describe() if rep.argmin is not None else None,
        "n_violations": rep.n_violations,
        "violations": [
            {"instance": inst.describe(), "value": str(val)}
            for inst, val in rep.violations
        ],
        "max_constraint_residual": str(rep.max_constraint_residual),
        "holds": rep.holds,
    }
    _emit(args, obj, started)
    if rep.n_admissible == 0:
        print(f"{rep.template_name}: no instance was admissible", file=sys.stderr)
        return 1
    print(
        f"{rep.template_name}: min value {obj['min_value']} over "
        f"{rep.n_admissible} admissible instances",
        file=sys.stderr,
    )
    return 0 if rep.holds else 1


def cmd_sample(args) -> int:
    started = _now()
    _require_at_least(args.n, "--n", 1)
    _require_at_least(args.blocks, "--blocks", 1)
    _require_at_least(args.trials, "--trials", 1)
    which = tuple(args.theorems.split(",")) if args.theorems else None
    for name in which or ():
        if name not in THEOREMS:
            _die(f"unknown theorem {name!r} (choose from {','.join(THEOREMS)})")
    trials = []
    all_pass = True
    kw = {"tol": args.tol}
    if which:
        kw["which"] = which
    try:
        # the dimension cap (of a state or its register) raises here: a usage error
        for t in range(args.trials):
            seed = trial_seed(args.seed, t)
            state, bs = constrained_family_sample(
                args.n, blocks=args.blocks, seed=seed, diagonal=args.diagonal
            )
            rep = check_theorem(state, bs, **kw)
            d = rep.to_dict()
            d["trial"] = t
            d["seed"] = list(seed)
            trials.append(d)
            all_pass = all_pass and rep.passed
    except ValueError as exc:
        _die(str(exc))
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
              "aggregate_slack", "marginal_drift", "clipped_mass")
    rows = []
    for d in trials:
        resid = max((abs(v) for v in d["constraint_residuals"].values()), default=0.0)
        slack = min(d["slacks"].values())
        rows.append((d["trial"], f"{d['seed'][0]}:{d['seed'][1]}", d["passed"],
                     f"{resid:.3e}", f"{slack:.12g}", f"{d['aggregate_slack']:.12g}",
                     f"{d['marginal_drift']:.3e}", f"{d['clipped_mass']:.3e}"))
    _emit(args, obj, started, csv_table=(header, rows))
    print(f"sample n={args.n}: {args.trials} trials, "
          f"{'all pass' if all_pass else 'FAILURES'}", file=sys.stderr)
    return 0 if all_pass else 1


def cmd_certify(args) -> int:
    started = _now()
    _require_at_least(args.max_generators, "--max-generators", 1)
    expect = None
    if args.problem:
        obj = _load_json(args.problem)
        try:
            target, generators, constraints, ground, expect = problem_from_obj(obj)
        except ValueError as exc:
            _die(f"{args.problem}: {exc}")
    elif args.builtin == "independence":
        if args.n is None:
            _die("--builtin independence needs --n")
        _require_at_least(args.n, "--n", 1)
        target, generators, constraints, ground, meta = independence_problem(
            args.n, p_max=args.p_max
        )
        expect = meta.get("expect")
    elif args.builtin == "purified-basic":
        target, generators, constraints, ground, meta = purified_basic_problem()
        expect = meta.get("expect")
    else:
        _die("give --problem FILE or --builtin {independence,purified-basic}")
    try:
        outcome = cone_membership(
            target, generators, constraints,
            max_generators=args.max_generators,
            use_fast_paths=not args.no_fast_paths,
        )
    except ValueError as exc:
        _die(str(exc))
    feasible = isinstance(outcome, Feasible)
    obj = {
        "outcome": "feasible" if feasible else "infeasible",
        "ground": list(ground.labels),
        "n_generators": len(generators),
        "n_constraints": len(constraints),
        "expect": expect,
        "result": outcome.to_dict(),
    }
    _emit(args, obj, started)
    print(f"certify: {obj['outcome']} via {outcome.method}"
          + (f" (expected {expect})" if expect else ""), file=sys.stderr)
    if expect is not None:
        return 0 if obj["outcome"] == expect else 1
    return 0 if feasible else 1


def cmd_search(args) -> int:
    started = _now()
    _require_at_least(args.trials, "--trials", 1)
    _require_at_least(args.refine, "--refine", 0)
    if not args.step > 0:
        _die("--step must be positive")
    template = args.template
    if args.template_file:
        obj = _load_json(args.template_file)
        try:
            template = template_from_obj(obj)
        except ValueError as exc:
            _die(f"{args.template_file}: {exc}")
    cfg = SearchConfig(
        template=template,
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
        penalty=args.penalty,
        refine_steps=args.refine,
        step_size=args.step,
    )
    try:
        scan = random_scan(cfg)
    except ValueError as exc:
        _die(str(exc))
    obj = {"scan": scan.to_dict()}
    violated = scan.violation_found
    if args.refine > 0:
        start = tuple(scan.argmin["seed"]) if scan.argmin else None
        refine = local_refine(cfg, start_seed=start)
        obj["refine"] = refine.to_dict()
        violated = violated or refine.violation_found
    header = ("trial", "seed", "min_slack", "argmin_instance", "max_residual")
    rows = [
        (r["trial"], r["seed"],
         None if r["min_slack"] is None else f"{r['min_slack']:.12g}",
         r["argmin_instance"],
         None if r["max_residual"] is None else f"{r['max_residual']:.3e}")
        for r in scan.trial_records
    ]
    _emit(args, obj, started, csv_table=(header, rows))
    msg = f"search {scan.template_name}: min slack {scan.min_slack}"
    if scan.n_admissible == 0:
        msg += " -- no instance was admissible"
    if violated:
        msg += " -- VIOLATION"
    print(msg, file=sys.stderr)
    return 1 if violated or scan.n_admissible == 0 else 0


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base random seed")
    common.add_argument("--tol", type=float, default=1e-9, help="float tolerance")
    common.add_argument("--out", help="write the report to this file (atomic)")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    parser = argparse.ArgumentParser(
        prog="entrocone",
        description="Constrained entropy inequalities: verification, "
                    "certification and counterexample search.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witness", parents=[common],
                       help="verify the separating witness family exactly")
    p.add_argument("--n", type=int, required=True, help="witness order (>= 2)")
    p.add_argument("--p-max", type=int, default=None,
                   help="largest template order to scan, at least n (default n+2)")
    p.add_argument("--no-scan", action="store_true",
                   help="skip the full instance scan; structural checks only")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("counterexample", parents=[common],
                       help="verify the four-party counterexample table")
    p.add_argument("--values", help="optional set-function JSON replacing the builtin")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a template on a stored set function")
    p.add_argument("--values", required=True, help="set-function JSON file")
    p.add_argument("--template", help="builtin template name, e.g. ssa or c_3")
    p.add_argument("--template-file", help="template JSON file")
    p.add_argument("--n", type=int, help="order for parametric builtin templates")
    p.add_argument("--bind", help="slot binding, e.g. A=a,B=b,C=c")
    p.add_argument("--auto-filter", action="store_true",
                   help="keep only instances whose constraints vanish on f")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", parents=[common],
                       help="draw constrained-family states and check them")
    p.add_argument("--n", type=int, required=True, help="number of X registers")
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--diagonal", action="store_true", help="classical block factors")
    p.add_argument("--theorems", help="comma list from thm1,thm1p,thm2,thm2p")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("certify", parents=[common],
                       help="decide cone membership and emit the certificate")
    p.add_argument("--problem", help="problem JSON file")
    p.add_argument("--builtin", choices=("independence", "purified-basic"))
    p.add_argument("--n", type=int, help="order for the independence problem")
    p.add_argument("--p-max", type=int, default=None)
    p.add_argument("--max-generators", type=int, default=20000)
    p.add_argument("--no-fast-paths", action="store_true",
                   help="skip the generator shortcut and the float guide; "
                        "run the exact simplex alone")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("search", parents=[common],
                       help="random counterexample scan with optional refinement")
    p.add_argument("--template", help="builtin template name")
    p.add_argument("--template-file", help="template JSON file")
    p.add_argument("--n", type=int, help="template/family order")
    p.add_argument("--family", default="haar-mixed",
                   choices=("haar-mixed", "diagonal", "constrained",
                            "constrained-diagonal", "lw05"))
    p.add_argument("--labels", help="comma list of party labels")
    p.add_argument("--dims", help="comma list of local dimensions")
    p.add_argument("--rank", type=int, help="rank cap for haar-mixed draws")
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--bind", help="slot binding, e.g. A=a,B=b,C=c")
    p.add_argument("--auto-filter", action="store_true")
    p.add_argument("--refine", type=int, default=0,
                   help="polish the worst point for this many steps")
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--penalty", type=float, default=1000.0)
    p.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
