"""CSV emission for run histories.

Columns: iter, step_norm, residual, kkt_residual, primal_obj, dual_obj,
gap, wall_ms.  ``residual`` is the value the ``tol`` stopping rule
compares and is filled on every row; ``splitsolve solve`` fills the
objective and KKT cells on every ``OBJECTIVE_STRIDE``-th row and on the
last row only (see :func:`splitsolve.convex.solve_convex`).
Unavailable fields stay blank.  Floats use '.' as the decimal
separator with 17 significant digits, so values round-trip exactly and
identical runs produce byte-identical files.  Timing is recorded in the
report but written only on request, because wall-clock values would
break byte-level reproducibility.
"""

from __future__ import annotations

from typing import Optional

from .solver import RunReport, StepConfig

__all__ = ["format_run_csv", "write_run_csv"]

_HEADER = "iter,step_norm,residual,kkt_residual,primal_obj,dual_obj,gap,wall_ms"


def _cell(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.17g}"


def format_run_csv(report: RunReport, cfg: Optional[StepConfig] = None,
                   include_timings: bool = False) -> str:
    lines = [_HEADER]
    for rec in report.history:
        wall = rec.wall_ms if include_timings else None
        lines.append(",".join([
            str(rec.iter),
            _cell(rec.step_norm),
            _cell(rec.residual),
            _cell(rec.kkt),
            _cell(rec.primal_obj),
            _cell(rec.dual_obj),
            _cell(rec.gap),
            _cell(wall),
        ]))
    lines.append(f"# termination={report.termination}")
    lines.append(f"# iterations={report.iterations}")
    if cfg is not None:
        lines.append(f"# rho={cfg.rho:.17g}")
        lines.append(f"# beta={cfg.beta:.17g}")
        lines.append(f"# admissible={'yes' if cfg.admissible else 'no'}")
    if report.failure:
        lines.append(f"# failure={report.failure}")
    return "\n".join(lines) + "\n"


def write_run_csv(path, report: RunReport, cfg: Optional[StepConfig] = None,
                  include_timings: bool = False) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_run_csv(report, cfg, include_timings))
