#!/usr/bin/env python3
"""Regenerate the frozen long-run reference values in benchmarks.REFERENCES.

Runs one million iterations of the solver on each reference instance,
validates the outcome with the exact optimality certificates (and with
cvxpy when it is installed), and prints a REFERENCES dict ready to paste
into src/splitsolve/benchmarks.py.  The smoothed-TV certificate comes
from ``tests/huber_tv.py``, which the acceptance tests share.
"""

import sys
from pathlib import Path

import numpy as np

import splitsolve as ss
from splitsolve import benchmarks as B

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from huber_tv import huber_tv_certificate_violation, huber_tv_dual_from_primal  # noqa: E402

ITERS = 1_000_000


def long_run(cp):
    report, gap = ss.solve_convex(
        cp, stop=ss.StoppingRule(tol=0.0, max_iter=ITERS))
    assert report.iterations == ITERS, report.iterations
    return report.final_state, gap


def fmt_vec(v):
    return "(" + ", ".join(f"{x:.17g}" for x in v) + ")"


def cvxpy_check(name, objective, build):
    try:
        import cvxpy as cv
    except ImportError:
        print(f"  [{name}] cvxpy not installed; skipped cross-check")
        return
    prob, x = build(cv)
    prob.solve(solver="CLARABEL")
    rel = abs(prob.value - objective) / abs(objective)
    print(f"  [{name}] cvxpy objective {prob.value:.12g} "
          f"(relative difference {rel:.3e})")
    assert rel < 1e-8, (name, prob.value, objective)


def main():
    refs = {}

    # tv1d -------------------------------------------------------------
    cp, params = B.tv1d_problem()
    final, gap = long_run(cp)
    cert = B.tv_certificate_violation(params["b"], params["weight"], final.x)
    print(f"[tv1d] objective {gap.primal_value:.17g} kkt {gap.kkt_residual:.3e} "
          f"certificate {cert:.3e}")
    assert cert < 1e-10

    def build_tv(cv):
        x = cv.Variable(50)
        b, w = params["b"], params["weight"]
        obj = 0.5 * cv.sum_squares(x - b) + w * cv.norm1(cv.diff(x))
        return cv.Problem(cv.Minimize(obj)), x

    cvxpy_check("tv1d", gap.primal_value, build_tv)
    refs["tv1d"] = {"objective": gap.primal_value}

    # fused lasso --------------------------------------------------------
    cp, params = B.fused_lasso_problem()
    final, gap = long_run(cp)
    print(f"[fusedlasso] objective {gap.primal_value:.17g} "
          f"kkt {gap.kkt_residual:.3e}")

    # cross-route check: the solution is the soft-threshold of the pure
    # difference-penalty solution with the same data
    tv_stage_cp, _ = B.fused_lasso_problem()
    tv_stage = ss.ConvexProblem(
        layout=tv_stage_cp.layout,
        f=ss.catalog_prox("zero", 10),
        h=tv_stage_cp.h,
        z=tv_stage_cp.z,
        blocks=tv_stage_cp.blocks,
    )
    stage_final, _ = long_run(tv_stage)
    stage_cert = B.tv_certificate_violation(params["b"], params["weight"],
                                            stage_final.x)
    l1 = ss.catalog_prox("l1", 10, weight=params["alpha"])
    composed = l1.prox(1.0, stage_final.x)
    dev = np.max(np.abs(composed - final.x))
    print(f"  [fusedlasso] stage certificate {stage_cert:.3e}; "
          f"composition deviation {dev:.3e}")
    assert stage_cert < 1e-10 and dev < 1e-10

    def build_fl(cv):
        x = cv.Variable(10)
        b, w, al = params["b"], params["weight"], params["alpha"]
        obj = (0.5 * cv.sum_squares(x - b) + w * cv.norm1(cv.diff(x))
               + al * cv.norm1(x))
        return cv.Problem(cv.Minimize(obj)), x

    cvxpy_check("fusedlasso", gap.primal_value, build_fl)
    refs["fusedlasso"] = {
        "objective": gap.primal_value,
        "x": tuple(final.x),
        "tv_stage_x": tuple(stage_final.x),
    }

    # smoothed-TV strong-convergence instance ----------------------------
    cp, params = B.huber_tv_problem()
    final, gap = long_run(cp)
    cert = huber_tv_certificate_violation(
        params["b"], params["alpha"], params["weight"], params["nu"], final.x)
    vdev = np.max(np.abs(
        final.v[0] - huber_tv_dual_from_primal(params["weight"],
                                                 params["nu"], final.x)))
    print(f"[hubertv] objective {gap.primal_value:.17g} kkt {gap.kkt_residual:.3e} "
          f"certificate {cert:.3e} dual-closed-form deviation {vdev:.3e}")
    assert cert < 1e-10 and vdev < 1e-10

    def build_huber(cv):
        x = cv.Variable(10)
        b, w, al, nu = params["b"], params["weight"], params["alpha"], params["nu"]
        # (g inf-conv ell) for l1 and a quadratic is the Huber penalty:
        # value w|t| - w^2/(2 nu) beyond w/nu, (nu/2) t^2 inside
        hub = cv.sum(cv.huber(cv.diff(x), M=w / nu) * nu / 2)
        obj = 0.5 * cv.sum_squares(x - b) + hub + al * cv.norm1(x)
        return cv.Problem(cv.Minimize(obj)), x

    cvxpy_check("hubertv", gap.primal_value, build_huber)
    refs["hubertv"] = {
        "objective": gap.primal_value,
        "x": tuple(final.x),
        "v": tuple(final.v[0]),
    }

    print("\nREFERENCES = {")
    for name, entry in refs.items():
        print(f'    "{name}": {{')
        for key, val in entry.items():
            if isinstance(val, tuple):
                print(f'        "{key}": {fmt_vec(val)},')
            else:
                print(f'        "{key}": {val:.17g},')
        print("    },")
    print("}")


if __name__ == "__main__":
    main()
