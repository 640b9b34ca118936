#!/usr/bin/env python3
"""Print one sha256 line per solver output, to compare two checkouts bit for bit.

Usage::

    PYTHONPATH=<checkout>/src python scripts/fingerprint.py > a.txt
    PYTHONPATH=<other>/src python scripts/fingerprint.py > b.txt
    diff a.txt b.txt

The outputs covered are every ``splitsolve bench`` suite (each CSV, the
check lines, and each check's value by its ``repr``, all 17 digits,
from a second ``benchmarks.run_suite``), ``solve`` (CSV, its ``iter``
and ``step_norm`` columns on their own line, and stdout), ``check`` and ``diag`` of each
``configs/*.cfg``, ``solve`` of a generated TV-1D config and of a
generated config with the branches the others miss (a ``box`` f, an
``sq_l2`` h of weight 2.5, a nonzero ``z``, an ``r`` with -0.0 entries,
a ``quadratic`` ell, two blocks weighted (0.7, 0.3) and a ``kkt_tol``
that ends the run) and of a generated config whose h is ``zero`` with
a declared ``mu = 2.0`` (a zero gradient that counts in the step
condition, which a run skips), the text that ``serialize_config`` writes for each
of these configs, and four
library runs of TV-2D denoising: one at relaxation 1, one at relaxation
0.9 with geometric errors and a metrics hook (which ``run`` calls on
every ``OBJECTIVE_STRIDE``-th row only; a ``hook rows`` line lists the
rows it filled; written ``lambda st, *_:`` so that it takes the state
whether or not ``run`` passes its weighted sum too), one whose dual operator
is a custom ``ResolventOp`` around the l1 prox, and one whose dual
operator is ``ResolventOp.zero`` next to ``CocoerciveOp.zero``.  The
last two run with explicit steps and norms.  Each library run also
has a ``steps`` line (tau and the sigmas) and a ``margin`` line (the
step condition's margin), so a change of steps shows apart from a
change of iterates; a run on balanced steps (``cfg.balance`` set, as
``suggest_steps`` sets it) also has a ``final steps`` line (the steps
in force at the end and the number of changes, ``report.steps`` and
``report.step_changes``), so a change of balancing shows apart too.  The custom run takes the inverse-resolvent
identity rather than the catalog's closed-form dual resolvent and uses
no closed-form norm, so it pins that path even when those change; the
zero run pins the dual step of the zero operator.  A last library run
has every term of the update that the others leave out: a nonzero
``z``, an ``r`` with -0.0 entries, two blocks weighted (0.7, 0.3), a
``quadratic_term`` D^{-1}, a ``zero_smooth`` C and relaxation 0.8.  A TV-2D run at relaxation 0.9 with neither
errors nor a hook pins the gradient's residual cross term alone.  Two
last runs start from x and v holding -0.0, each with a single
unit-weight block, one coupled through the identity (whose adjoint
passes -0 on, so the weighted sum's ``+ 0.0`` pass must stay) and one
through a 1-D difference (whose adjoint never returns -0, so that pass
may go); they stop after a few iterations, while zeros are left in
the iterates.  The sign of a zero in the weighted sum washes out of the
iterates, so these runs also hash what the update hands on: the
argument of every call of A (a pass-through resolvent that records
it), and the weighted sum an ``extra_stop`` hook is handed on every
row.
Only ``cli.main``, ``benchmarks.run_suite`` (its checks' values),
``final_state.x``/``.v``, the run histories and the step configs are
read, no operator is built with a ``kind`` tag, and
CSV columns are found by header name, so the script runs unchanged on
any checkout that has these, ``suggest_steps(..., lam=)``,
``step_condition(spec, cfg).margin`` and ``ConvexProblem.spec``.  Every run CSV is hashed a
second time with its ``residual`` column dropped, so a change that
moves only residuals shows apart from a change of iterates.  At the
final state of the relaxation-1 TV-2D run, ``evaluate_gap`` (the
``repr`` of each field) and ``kkt_residual`` of the same problem,
built as a ``ConvexProblem`` from public constructors, are hashed too.
Temporary directory names are replaced by ``<tmp>`` before hashing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from splitsolve import benchmarks, cli, config, convex, operators, solver
from splitsolve.spaces import SpaceLayout

ROOT = Path(__file__).resolve().parent.parent
TV1D_N = 400
TV2D_SIDE = 64


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def emit(label: str, data: bytes) -> None:
    print(f"{digest(data)}  {label}")


def floats(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


def run_cli(argv, tmp: Path) -> tuple[int, bytes]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    text = out.getvalue().replace(str(tmp), "<tmp>")
    return code, f"exit {code}\n{text}".encode()


def bench_suites(tmp: Path) -> None:
    for suite in benchmarks.SUITE_NAMES:
        out_dir = tmp / f"bench-{suite}"
        _, stdout = run_cli(["bench", suite, "-o", str(out_dir)], tmp)
        emit(f"bench {suite} stdout", stdout)
        for csv in sorted(out_dir.glob("*.csv")):
            emit_csv(f"bench {suite} {csv.name}", csv.read_bytes())
        for check in benchmarks.run_suite(suite).checks:
            emit(f"bench {suite} {check.label} value", repr(check.value).encode())


def csv_columns(text: str, names) -> bytes:
    """The named columns of a run CSV's rows, without the ``#`` footer."""
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    if not rows:
        return b""
    picks = [rows[0].index(name) for name in names]
    return "".join(",".join(row[j] for j in picks) + "\n" for row in rows).encode()


def csv_without(text: str, name: str) -> bytes:
    """A run CSV with the named column dropped from every row; the ``#``
    footer is kept."""
    lines = text.splitlines()
    if not lines:
        return b""
    drop = lines[0].split(",").index(name)
    out = []
    for line in lines:
        if not line.startswith("#"):
            cells = line.split(",")
            line = ",".join(cells[:drop] + cells[drop + 1:])
        out.append(line + "\n")
    return "".join(out).encode()


def emit_csv(label: str, data: bytes) -> None:
    """The CSV, and the CSV without its ``residual`` column."""
    emit(f"{label}", data)
    emit(f"{label} without residual", csv_without(data.decode(), "residual"))


def serialized(label: str, cfg: Path) -> None:
    emit(f"serialized {label}",
         config.serialize_config(config.parse_config_file(cfg)).encode())


def solve_config(label: str, cfg: Path, tmp: Path) -> None:
    serialized(label, cfg)
    csv = tmp / f"{cfg.stem}.csv"
    _, stdout = run_cli(["solve", str(cfg), "-o", str(csv)], tmp)
    emit(f"solve {label} stdout", stdout)
    data = csv.read_bytes() if csv.exists() else b""
    emit_csv(f"solve {label} csv", data)
    emit(f"solve {label} csv iter,step_norm",
         csv_columns(data.decode(), ("iter", "step_norm")))


def configs(tmp: Path) -> None:
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        solve_config(cfg.name, cfg, tmp)
        for command in ("check", "diag"):
            _, stdout = run_cli([command, str(cfg)], tmp)
            emit(f"{command} {cfg.name} stdout", stdout)


def tv1d_config(tmp: Path) -> None:
    rng = np.random.default_rng(7)
    levels = np.repeat(rng.uniform(-1.0, 1.0, 20), TV1D_N // 20)
    b = levels + 0.1 * rng.standard_normal(TV1D_N)
    center = ",".join(repr(float(v)) for v in b)
    text = f"""[problem]
dim_primal = {TV1D_N}
z = zeros
f = zero
h = sq_l2 weight=1.0 center=({center})

[block]
dim = {TV1D_N - 1}
omega = 1.0
L = diff1d
g = l1 weight=0.4
ell = dirac
r = zeros

[steps]
mode = auto
safety = 0.99
lambda = 1.0

[stop]
tol = 1e-8
max_iter = 100000
"""
    cfg = tmp / "tv1d.cfg"
    cfg.write_text(text)
    solve_config("generated tv1d", cfg, tmp)


def offsets_config(tmp: Path) -> None:
    """``solve`` of a generated config with the branches the other
    configs leave out: a ``box`` f, an ``sq_l2`` h of weight 2.5, a
    nonzero ``z``, an ``r`` holding -0.0, a ``quadratic`` ell, two blocks
    weighted (0.7, 0.3), and a ``kkt_tol`` that ends the run."""
    n = 40
    rng = np.random.default_rng(13)
    b = np.repeat(rng.uniform(-1.0, 1.0, 5), n // 5)
    z = 0.1 * rng.standard_normal(n)
    r = 0.05 * rng.standard_normal(n - 1)
    r[::5] = -0.0

    def literal(values):
        return "literal " + " ".join(repr(float(v)) for v in values)

    center = ",".join(repr(float(v)) for v in b)
    text = f"""[problem]
dim_primal = {n}
z = {literal(z)}
f = box lo=-0.9 hi=0.9
h = sq_l2 weight=2.5 center=({center})

[block]
dim = {n - 1}
omega = 0.7
L = diff1d
g = l1 weight=0.3
ell = quadratic nu=2.0
r = {literal(r)}

[block]
dim = {n}
omega = 0.3
L = identity
g = l2 weight=0.5
ell = dirac
r = zeros

[steps]
mode = auto
safety = 0.99
lambda = 1.0

[stop]
tol = 1e-14
max_iter = 20000
kkt_tol = 1e-9
"""
    cfg = tmp / "offsets.cfg"
    cfg.write_text(text)
    solve_config("generated offsets", cfg, tmp)


def zero_mu_config(tmp: Path) -> None:
    """``solve`` of a generated config whose h is ``zero`` with a
    declared ``mu = 2.0``: the zero gradient is skipped by the run, and
    its constant enters the step condition."""
    n = 30
    rng = np.random.default_rng(19)
    b = np.repeat(rng.uniform(-1.0, 1.0, 5), n // 5) + 0.05 * rng.standard_normal(n)
    center = ",".join(repr(float(v)) for v in b)
    text = f"""[problem]
dim_primal = {n}
z = zeros
f = sq_l2 weight=1.0 center=({center})
h = zero
mu = 2.0

[block]
dim = {n - 1}
omega = 1.0
L = diff1d
g = l1 weight=0.3
ell = dirac
r = zeros

[steps]
mode = auto
safety = 0.99
lambda = 1.0

[stop]
tol = 1e-10
max_iter = 20000
"""
    cfg = tmp / "zero_mu.cfg"
    cfg.write_text(text)
    solve_config("generated zero h mu=2", cfg, tmp)


def tv2d_spec(b: np.ndarray) -> solver.ProblemSpec:
    n = b.size
    L = operators.grad2d_op(TV2D_SIDE, TV2D_SIDE)
    m = L.out_dim
    return solver.ProblemSpec(
        layout=SpaceLayout(n, (m,), (1.0,)),
        A=operators.resolvent_from_prox(operators.catalog_prox("zero", n)),
        C=operators.CocoerciveOp(n, lambda x: x - b, 1.0),
        z=np.zeros(n),
        blocks=(solver.Block(
            B=operators.resolvent_from_prox(
                operators.catalog_prox("l1", m, weight=0.3)),
            Dinv=operators.CocoerciveOp.zero(m),
            L=L,
            r=np.zeros(m),
        ),),
    )


def tv2d_convex(b: np.ndarray) -> convex.ConvexProblem:
    """The problem of :func:`tv2d_spec` as a convex program: a zero f,
    h = ||x - b||^2 / 2 and an l1 g with no inf-convolution."""
    n = b.size
    L = operators.grad2d_op(TV2D_SIDE, TV2D_SIDE)
    m = L.out_dim
    return convex.ConvexProblem(
        layout=SpaceLayout(n, (m,), (1.0,)),
        f=operators.catalog_prox("zero", n),
        h=convex.quadratic_smooth(b, weight=1.0),
        z=np.zeros(n),
        blocks=(convex.ConvexBlock(g=operators.catalog_prox("l1", m, weight=0.3),
                                   ell=convex.dirac_term(m), L=L, r=np.zeros(m)),),
    )


def emit_gap(label: str, cp, cfg, report) -> None:
    """``evaluate_gap`` and ``kkt_residual`` at the run's final state."""
    st = report.final_state
    gap = convex.evaluate_gap(cp, st.x, st.v, tau=cfg.tau, sigmas=cfg.sigmas)
    emit(f"{label} evaluate_gap", repr(tuple(
        getattr(gap, f.name) for f in dataclasses.fields(gap))).encode())
    emit(f"{label} kkt_residual", repr(convex.kkt_residual(
        cp, st.x, st.v, tau=cfg.tau, sigmas=cfg.sigmas)).encode())


def emit_report(label: str, spec, cfg, report) -> None:
    emit(f"{label} steps", f"tau {cfg.tau!r} sigmas {cfg.sigmas!r}".encode())
    emit(f"{label} margin", repr(solver.step_condition(spec, cfg).margin).encode())
    if getattr(cfg, "balance", None) is not None:
        final = report.steps
        emit(f"{label} final steps", (f"tau {final.tau!r} sigmas {final.sigmas!r} "
                                      f"changes {report.step_changes}").encode())
    st = report.final_state
    emit(f"{label} termination", f"{report.termination} {report.iterations}".encode())
    emit(f"{label} final x", floats(st.x))
    for i, v in enumerate(st.v):
        emit(f"{label} final v[{i}]", floats(v))
    emit(f"{label} step_norm", floats([r.step_norm for r in report.history]))
    emit(f"{label} residual", floats([r.residual for r in report.history]))
    filled = [r for r in report.history if r.primal_obj is not None]
    if filled:
        emit(f"{label} primal_obj", floats([r.primal_obj for r in filled]))
        print(f"{label} hook rows: {' '.join(str(r.iter) for r in filled)}")


def tv2d_runs() -> None:
    rng = np.random.default_rng(21)
    tiles = np.kron(rng.uniform(-1.0, 1.0, (4, 4)),
                    np.ones((TV2D_SIDE // 4, TV2D_SIDE // 4)))
    b = (tiles + 0.02 * rng.standard_normal(tiles.shape)).ravel()
    spec = tv2d_spec(b)
    stop = solver.StoppingRule(tol=1e-6, max_iter=3000)

    cfg = solver.suggest_steps(spec)
    report = solver.run(spec, cfg, stop=stop)
    emit_report("tv2d lambda=1", spec, cfg, report)
    emit_gap("tv2d lambda=1", tv2d_convex(b), cfg, report)

    cfg = solver.suggest_steps(spec, lam=0.9)
    errors = solver.geometric_errors(spec.layout, 1e-3, 0.95, seed=3)
    report = solver.run(spec, cfg, stop=stop, errors=errors,
                        iter_metrics=lambda st, *_: {"primal_obj": float(np.dot(st.x, st.x))})
    emit_report("tv2d lambda=0.9 errors hook", spec, cfg, report)

    report = solver.run(spec, cfg, stop=stop)
    emit_report("tv2d lambda=0.9", spec, cfg, report)

    m = spec.blocks[0].B.dim
    l1 = operators.catalog_prox("l1", m, weight=0.3)
    custom = dataclasses.replace(spec.blocks[0], B=operators.ResolventOp(m, l1.prox))
    spec = dataclasses.replace(spec, blocks=(custom,))
    # ||grad2d|| < sqrt(8), and tau = sigma = 0.25 gives the margin 3.5 - 8/4 > 0 at mu = 1
    cfg = solver.validate_steps(spec, 0.25, (0.25,), norms=(math.sqrt(8.0),))
    emit_report("tv2d custom B explicit steps", spec, cfg,
                solver.run(spec, cfg, stop=stop))

    zero = dataclasses.replace(custom, B=operators.ResolventOp.zero(m),
                               Dinv=operators.CocoerciveOp.zero(m))
    spec = dataclasses.replace(spec, blocks=(zero,))
    # J_{sigma 0^{-1}} is 0; from v = 0 the argument u is sigma times a
    # vector and its round trip u - sigma (u / sigma) lands on 0, so start
    # from a nonzero v, with a sigma that is not a power of two
    cfg = solver.validate_steps(spec, 0.25, (0.3,), norms=(math.sqrt(8.0),))
    v0 = (np.random.default_rng(5).standard_normal(m),)
    emit_report("tv2d zero B explicit steps", spec, cfg,
                solver.run(spec, cfg, v0=v0, stop=stop))


def offsets_run() -> None:
    """Two weighted blocks with every kernel term present: nonzero z, an
    r holding -0.0, a quadratic ell (nonzero D^{-1}), a zero smooth term
    and relaxation 0.8; no workload or config has any of these."""
    n = 60
    rng = np.random.default_rng(11)
    b = np.repeat(rng.uniform(-1.0, 1.0, 6), n // 6)
    r0 = 0.05 * rng.standard_normal(n - 1)
    r0[::7] = -0.0
    cp = convex.ConvexProblem(
        layout=SpaceLayout(n, (n - 1, n), (0.7, 0.3)),
        f=operators.catalog_prox("sq_l2", n, weight=1.0, center=b),
        h=convex.zero_smooth(n),
        z=0.1 * rng.standard_normal(n),
        blocks=(
            convex.ConvexBlock(g=operators.catalog_prox("l1", n - 1, weight=0.2),
                               ell=convex.quadratic_term(n - 1, nu=2.0),
                               L=operators.diff1d_op(n), r=r0),
            convex.ConvexBlock(g=operators.catalog_prox("box", n, lo=-0.8, hi=0.8),
                               ell=convex.dirac_term(n),
                               L=operators.identity_op(n), r=np.zeros(n)),
        ),
    )
    spec = cp.spec
    cfg = solver.suggest_steps(spec, lam=0.8)
    stop = solver.StoppingRule(tol=1e-10, max_iter=5000)
    emit_report("offsets z r omega Dinv lambda=0.8", spec, cfg,
                solver.run(spec, cfg, stop=stop))


def signed_zero_runs() -> None:
    """x0 = -0 and v0 holding -0.0, +0.0 and a few nonzero entries, with
    an identity block, then a diff1d block; a zero C, z and r, so that
    the update hands the weighted sum to A without adding to it."""
    n = 12
    rng = np.random.default_rng(17)
    for label, L in (("identity", operators.identity_op(n)),
                     ("diff1d", operators.diff1d_op(n))):
        m = L.out_dim
        args = []

        def resolvent(gamma, w):
            args.append(floats(w))
            return w

        spec = solver.ProblemSpec(
            layout=SpaceLayout(n, (m,), (1.0,)),
            A=operators.ResolventOp(n, resolvent),
            C=operators.CocoerciveOp.zero(n),
            z=np.zeros(n),
            blocks=(solver.Block(
                B=operators.resolvent_from_prox(operators.catalog_prox("l1", m, weight=0.5)),
                Dinv=operators.CocoerciveOp.zero(m), L=L, r=np.zeros(m)),),
        )
        v0 = np.zeros(m)
        v0[1::2] = -0.0
        v0[::5] = 0.3 * rng.standard_normal(len(v0[::5]))
        sums = []

        def extra_stop(st, wsum, *_):
            sums.append(floats(wsum))
            return None

        cfg = solver.suggest_steps(spec)
        report = solver.run(spec, cfg, x0=np.full(n, -0.0), v0=(v0,),
                            stop=solver.StoppingRule(tol=0.0, max_iter=4),
                            extra_stop=extra_stop)
        emit_report(f"signed zeros {label}", spec, cfg, report)
        emit(f"signed zeros {label} A arguments", b"".join(args))
        emit(f"signed zeros {label} wsum", b"".join(sums))


def main() -> int:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        bench_suites(tmp)
        configs(tmp)
        tv1d_config(tmp)
        offsets_config(tmp)
        zero_mu_config(tmp)
    tv2d_runs()
    offsets_run()
    signed_zero_runs()
    return 0


if __name__ == "__main__":
    sys.exit(main())
