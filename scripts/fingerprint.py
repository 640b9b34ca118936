#!/usr/bin/env python3
"""Print one sha256 line per solver output, to compare two checkouts bit for bit.

Usage::

    PYTHONPATH=<checkout>/src python scripts/fingerprint.py > a.txt
    PYTHONPATH=<other>/src python scripts/fingerprint.py > b.txt
    diff a.txt b.txt

The outputs covered are every ``splitsolve bench`` suite (each CSV and
the check lines), ``solve`` (CSV, its ``iter`` and ``step_norm``
columns on their own line, and stdout), ``check`` and ``diag`` of each
``configs/*.cfg``, ``solve`` of a generated TV-1D config, and two
library runs of TV-2D denoising: one at relaxation 1, one at relaxation
0.9 with geometric errors and a metrics hook.  Only ``cli.main``,
``final_state.x``/``.v`` and the run histories are read, and CSV
columns are found by header name, so the script runs unchanged on any
checkout that has them.  Temporary directory names are replaced by
``<tmp>`` before hashing.
"""

from __future__ import annotations

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from splitsolve import benchmarks, cli, operators, solver
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
            emit(f"bench {suite} {csv.name}", csv.read_bytes())


def csv_columns(text: str, names) -> bytes:
    """The named columns of a run CSV's rows, without the ``#`` footer."""
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    if not rows:
        return b""
    picks = [rows[0].index(name) for name in names]
    return "".join(",".join(row[j] for j in picks) + "\n" for row in rows).encode()


def solve_config(label: str, cfg: Path, tmp: Path) -> None:
    csv = tmp / f"{cfg.stem}.csv"
    _, stdout = run_cli(["solve", str(cfg), "-o", str(csv)], tmp)
    emit(f"solve {label} stdout", stdout)
    data = csv.read_bytes() if csv.exists() else b""
    emit(f"solve {label} csv", data)
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


def emit_report(label: str, report) -> None:
    st = report.final_state
    emit(f"{label} termination", f"{report.termination} {report.iterations}".encode())
    emit(f"{label} final x", floats(st.x))
    for i, v in enumerate(st.v):
        emit(f"{label} final v[{i}]", floats(v))
    emit(f"{label} step_norm", floats([r.step_norm for r in report.history]))
    emit(f"{label} residual", floats([r.residual for r in report.history]))
    objs = [r.primal_obj for r in report.history if r.primal_obj is not None]
    if objs:
        emit(f"{label} primal_obj", floats(objs))


def tv2d_runs() -> None:
    rng = np.random.default_rng(21)
    tiles = np.kron(rng.uniform(-1.0, 1.0, (4, 4)),
                    np.ones((TV2D_SIDE // 4, TV2D_SIDE // 4)))
    b = (tiles + 0.02 * rng.standard_normal(tiles.shape)).ravel()
    spec = tv2d_spec(b)
    stop = solver.StoppingRule(tol=1e-6, max_iter=3000)

    cfg = solver.suggest_steps(spec)
    emit_report("tv2d lambda=1", solver.run(spec, cfg, stop=stop))

    cfg = solver.suggest_steps(spec, lambda_schedule=lambda n: 0.9)
    errors = solver.geometric_errors(spec.layout, 1e-3, 0.95, seed=3)
    report = solver.run(spec, cfg, stop=stop, errors=errors,
                        iter_metrics=lambda st: {"primal_obj": float(np.dot(st.x, st.x))})
    emit_report("tv2d lambda=0.9 errors hook", report)


def main() -> int:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        bench_suites(tmp)
        configs(tmp)
        tv1d_config(tmp)
    tv2d_runs()
    return 0


if __name__ == "__main__":
    sys.exit(main())
