"""Command-line front end.

Commands::

    splitsolve solve <config> [-o out.csv] [--steps auto|manual]
                              [--unsafe-steps] [--timings]
                                    (the starting steps, then the steps in
                                     force at the end and the changes made)
    splitsolve check <config>       (each norm(L[i]) with its source, and
                                     whether the steps are fixed or balanced)
    splitsolve bench <suite> -o <dir>
    splitsolve diag  <config>       (samples mu, each nu_i and each L[i]'s
                                     adjoint, then the step condition)

Commands read steps, errors, stop rule and seed from the parsed config;
``SPLITSOLVE_SEED`` (an integer >= 0) replaces its seed.  The exit
codes, and the refusals that exit 1, are README's "CLI".
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import benchmarks
from .config import ConfigError, build_problem, parse_config_file
from .convex import check_qualification, solve_convex
from .diagnostics import certify_operators
from .operators import CLOSED_FORM_NORM_KINDS
from .reporting import write_run_csv
from .spaces import _check_count, _check_real
from .solver import (
    StoppingRule,
    geometric_errors,
    step_condition,
    suggest_steps,
    validate_steps,
)

__all__ = ["main"]


def _load(path: str):
    """The built problem and its parsed config, reseeded by ``SPLITSOLVE_SEED``."""
    pc = parse_config_file(path)
    raw = os.environ.get("SPLITSOLVE_SEED")
    if raw is not None:
        try:
            seed = _check_count("SPLITSOLVE_SEED", int(raw), minimum=0)
        except ValueError:
            raise ConfigError(f"SPLITSOLVE_SEED must be an integer >= 0, got {raw!r}") from None
        pc = dataclasses.replace(pc, seed=seed)
    return build_problem(pc), pc


def _step_config(cp, pc, mode_override=None):
    """The steps of the problem and their step condition."""
    spec = cp.spec
    steps = pc.steps
    mode = mode_override or steps.mode
    if mode == "auto":
        cfg = suggest_steps(spec, safety=steps.safety, lam=steps.lam)
    else:
        if steps.tau is None or steps.sigmas is None:
            raise ConfigError("manual steps need both tau and sigma")
        cfg = validate_steps(spec, steps.tau, steps.sigmas, lam=steps.lam)
    return cfg, step_condition(spec, cfg)


def _run_rules(cp, pc):
    """The stop rule and error schedule of the config, its ``kkt_tol``
    checked as :func:`solve_convex` checks it."""
    errors = None
    if pc.errors.kind == "geometric":
        errors = geometric_errors(cp.layout, pc.errors.amplitude,
                                  pc.errors.decay, seed=pc.seed)
    stop = StoppingRule(tol=pc.stop.tol, max_iter=pc.stop.max_iter)
    if pc.stop.kkt_tol is not None:
        _check_real("kkt_tol", pc.stop.kkt_tol, ends="[[")
    return stop, errors


def _admissibility_lines(cond):
    return [
        f"rho = {cond.rho:.17g}",
        f"beta = {cond.beta:.17g}",
        f"delta = {cond.delta:.17g}",
        f"margin = {cond.margin:.17g}",
        f"admissible = {'yes' if cond.admissible else 'no'}",
    ]


def cmd_solve(args) -> int:
    cp, pc = _load(args.config)
    cfg, cond = _step_config(cp, pc, args.steps)
    stop, errors = _run_rules(cp, pc)
    if not cond.admissible and not args.unsafe_steps:
        print(f"refusing to solve: step sizes are inadmissible (margin = "
              f"{cond.margin:.17g} <= 0; rerun with --unsafe-steps to override)",
              file=sys.stderr)
        for line in _admissibility_lines(cond):
            print(line, file=sys.stderr)
        return 1

    report, gap = solve_convex(
        cp, cfg=cfg, stop=stop, errors=errors, kkt_tol=pc.stop.kkt_tol,
        allow_inadmissible=args.unsafe_steps, record_objective=True,
    )

    out = Path(args.output) if args.output else Path(args.config).with_suffix(".csv")
    write_run_csv(out, report, cond, include_timings=args.timings)

    print(f"termination = {report.termination}")
    print(f"iterations = {report.iterations}")
    print(f"stop = {report.stop.line()}")
    for line in _admissibility_lines(cond):
        print(line)
    print(f"tau = {cfg.tau:.17g}")
    print("sigmas = " + " ".join(f"{s:.17g}" for s in cfg.sigmas))
    final = report.steps
    print(f"final tau = {final.tau:.17g}")
    print("final sigmas = " + " ".join(f"{s:.17g}" for s in final.sigmas))
    print("final ratio = " + " ".join(f"{s / final.tau:.17g}" for s in final.sigmas))
    print(f"step changes = {report.step_changes}")
    if gap.primal_value is not None:
        print(f"primal objective = {gap.primal_value:.17g}")
    if gap.dual_value is not None:
        print(f"dual objective = {gap.dual_value:.17g}")
    if gap.gap is not None:
        print(f"gap = {gap.gap:.17g}")
    print(f"kkt residual = {gap.kkt_residual:.17g}")
    for note in gap.notes:
        print(f"note: {note}")
    # float by float: x.tolist() is 0.1 ms faster at n = 2000, but its 2000
    # live floats raised bench/run.py's cli-tv1d setup_s by about 10 %
    print("x = " + " ".join(map("{:.17g}".format, map(float, report.final_state.x))))
    print(f"wrote {out}")
    if report.termination == "converged":
        return 0
    if report.termination == "max_iter":
        return 2
    print(f"failure: {report.failure}", file=sys.stderr)
    return 3


def cmd_check(args) -> int:
    cp, pc = _load(args.config)
    cfg, cond = _step_config(cp, pc)
    _run_rules(cp, pc)
    for i, (blk, nm) in enumerate(zip(cp.blocks, cfg.norms)):
        print(f"norm(L[{i}]) = {nm:.17g}")
        source = (f"closed form ({blk.L.kind})" if blk.L.kind in CLOSED_FORM_NORM_KINDS
                  else "power iteration")
        print(f"norm(L[{i}]) source = {source}")
    for line in _admissibility_lines(cond):
        print(line)
    print(f"tau = {cfg.tau:.17g}")
    print("sigmas = " + " ".join(f"{s:.17g}" for s in cfg.sigmas))
    print(f"steps = {'fixed' if cfg.balance is None else 'balanced'}")
    qual = check_qualification(cp)
    print(f"qualification = {qual.verdict}")
    if qual.reason:
        print(f"  ({qual.reason})")
    return 0


def cmd_bench(args) -> int:
    out_dir = Path(args.output)
    if args.suite in benchmarks.SUITE_NAMES:  # run_suite refuses other names
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"cannot make the output directory -o {out_dir}: {exc.strerror}",
                  file=sys.stderr)
            return 1
    outcome = benchmarks.run_suite(args.suite)
    for name, report in outcome.reports.items():
        write_run_csv(out_dir / f"{name}.csv", report)
    for check in outcome.checks:
        print(check.line())
    print(f"wrote CSVs to {out_dir}")
    return 0 if outcome.all_passed else 2


def cmd_diag(args) -> int:
    cp, pc = _load(args.config)
    _, cond = _step_config(cp, pc)
    _run_rules(cp, pc)
    reports = certify_operators(cp.spec)
    for rep in reports:
        print(f"{rep.name}: {'PASS' if rep.passed else 'FAIL'} (margin {rep.margin:.3e}, "
              f"threshold {rep.threshold:g}, samples {rep.samples})")
        if rep.note:
            print(f"  {rep.note}")
    for line in _admissibility_lines(cond):
        print(line)
    return 0 if cond.admissible and all(rep.passed for rep in reports) else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="splitsolve",
        description="Primal-dual splitting solver for structured convex programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a configured problem")
    p_solve.add_argument("config")
    p_solve.add_argument("-o", "--output", default=None,
                         help="run CSV path (default: config path with .csv)")
    p_solve.add_argument("--steps", choices=("auto", "manual"), default=None,
                         help="override the step mode from the config")
    p_solve.add_argument("--unsafe-steps", action="store_true",
                         help="run even when the step condition fails")
    p_solve.add_argument("--timings", action="store_true",
                         help="fill the wall_ms column (breaks byte-level "
                              "reproducibility)")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="report admissibility without solving")
    p_check.add_argument("config")
    p_check.set_defaults(func=cmd_check)

    p_bench = sub.add_parser("bench", help="run a named benchmark suite")
    p_bench.add_argument("suite")
    p_bench.add_argument("-o", "--output", required=True, help="output directory")
    p_bench.set_defaults(func=cmd_bench)

    p_diag = sub.add_parser("diag", help="certify the operators the step condition trusts")
    p_diag.add_argument("config")
    p_diag.set_defaults(func=cmd_diag)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MemoryError) as exc:
        # numpy refuses an array it cannot allocate, such as one of a
        # configured dimension of 10^14 entries
        where = getattr(args, "config", None)
        prefix = f"{where}:" if where else ""
        print(f"{prefix}{str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
