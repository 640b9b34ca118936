"""CSV emission for run histories, in the format of README's "Run CSV"."""

from __future__ import annotations

from typing import Optional

from .solver import RunReport, StepCondition, _History

__all__ = ["format_run_csv", "write_run_csv"]

_HEADER = "iter,step_norm,residual,kkt_residual,primal_obj,dual_obj,gap,wall_ms"


def _cell(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.17g}"


def _row(rec, include_timings: bool) -> str:
    wall = rec.wall_ms if include_timings else None
    return ",".join([
        str(rec.iter),
        _cell(rec.step_norm),
        _cell(rec.residual),
        _cell(rec.kkt),
        _cell(rec.primal_obj),
        _cell(rec.dual_obj),
        _cell(rec.gap),
        _cell(wall),
    ])


def _column_rows(history: _History, include_timings: bool) -> list[str]:
    """The lines of :func:`_row` for a run's columnar history, written
    from its columns: a row without a built record is its iter,
    step_norm and residual (and wall_ms) with blank objective cells, and
    a row that has one is formatted from it instead."""
    steps, residuals, walls = history.columns
    count = range(1, len(history) + 1)
    if include_timings:
        lines = ["%d,%.17g,%.17g,,,,,%.17g" % row for row in zip(count, steps, residuals, walls)]
    else:
        lines = ["%d,%.17g,%.17g,,,,," % row for row in zip(count, steps, residuals)]
    for k, rec in history.built.items():
        lines[k] = _row(rec, include_timings)
    return lines


def format_run_csv(report: RunReport, condition: Optional[StepCondition] = None,
                   include_timings: bool = False) -> str:
    lines = [_HEADER]
    history = report.history
    if isinstance(history, _History):
        lines.extend(_column_rows(history, include_timings))
    else:
        lines.extend(_row(rec, include_timings) for rec in history)
    lines.append(f"# termination={report.termination}")
    lines.append(f"# iterations={report.iterations}")
    if condition is not None:
        lines.append(f"# rho={condition.rho:.17g}")
        lines.append(f"# beta={condition.beta:.17g}")
        lines.append(f"# admissible={'yes' if condition.admissible else 'no'}")
    if report.failure:
        lines.append(f"# failure={report.failure}")
    return "\n".join(lines) + "\n"


def write_run_csv(path, report: RunReport, condition: Optional[StepCondition] = None,
                  include_timings: bool = False) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_run_csv(report, condition, include_timings))
