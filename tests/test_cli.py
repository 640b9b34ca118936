import math
import re
from pathlib import Path

import numpy as np
import pytest

import splitsolve.benchmarks
import splitsolve.convex
import splitsolve.operators
import splitsolve.solver
from splitsolve.cli import main
from splitsolve.config import build_problem, parse_config_file
from splitsolve.convex import solve_convex
from splitsolve.solver import StoppingRule, suggest_steps

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
LASSO = str(CONFIG_DIR / "lasso1d.cfg")
FUSED = str(CONFIG_DIR / "fusedlasso10.cfg")
INTERSECT = str(CONFIG_DIR / "intersect.cfg")

TWO_BLOCK_CHECK = """
[problem]
dim_primal = 2
z = zeros
f = zero
h = sq_l2 weight=1.0 center=0.0

[block]
dim = 2
omega = 0.5
L = identity
g = l1 weight=1.0
ell = dirac

[block]
dim = 2
omega = 0.5
L = identity
g = l1 weight=1.0
ell = dirac

[steps]
mode = manual
tau = 0.25
sigma = 0.25
"""


MATRIX_CHECK = TWO_BLOCK_CHECK.replace("L = identity", "L = matrix 2 0 ; 0 1", 1)


def denoise_config(center, L, dual_dim):
    """TV denoising of ``center`` with the coupling ``L`` (config syntax)."""
    return f"""
[problem]
dim_primal = {center.size}
z = zeros
f = zero
h = sq_l2 weight=1.0 center=({",".join(repr(float(c)) for c in center)})

[block]
dim = {dual_dim}
omega = 1.0
L = {L}
g = l1 weight=0.3
ell = dirac

[steps]
mode = auto

[stop]
tol = 1e-4
max_iter = 5000
"""


def extract(stdout, key):
    for line in stdout.splitlines():
        if line.startswith(key + " ="):
            return line.split("=", 1)[1].strip()
    raise AssertionError(f"{key!r} not found in output:\n{stdout}")


class TestSolve:
    def test_lasso_converges_to_three(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main(["solve", LASSO, "-o", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert extract(stdout, "termination") == "converged"
        x = float(extract(stdout, "x"))
        assert abs(x - 3.0) <= 1e-6
        text = out.read_text()
        assert text.startswith("iter,step_norm,residual,kkt_residual,primal_obj,dual_obj,gap,wall_ms\n")
        assert "# termination=converged" in text
        assert "# admissible=yes" in text

    def test_problem_lowered_once(self, tmp_path, capsys, monkeypatch):
        # the steps and the solve read the one ProblemSpec the built
        # problem holds
        specs = []
        post_init = splitsolve.solver.ProblemSpec.__post_init__

        def counted_post_init(spec):
            specs.append(1)
            post_init(spec)

        monkeypatch.setattr(splitsolve.solver.ProblemSpec, "__post_init__", counted_post_init)
        assert main(["solve", LASSO, "-o", str(tmp_path / "r.csv")]) == 0
        assert len(specs) == 1

    def test_auto_steps_echoed(self, tmp_path, capsys):
        code = main(["solve", LASSO, "-o", str(tmp_path / "r.csv"), "--steps", "auto"])
        stdout = capsys.readouterr().out
        assert code == 0
        # mu = 1, ||L|| = 1: 0.99 times the root of 1/tau - 1/2 = tau
        assert float(extract(stdout, "tau")) == pytest.approx(
            0.99 * (math.sqrt(4.25) - 0.5) / 2.0, rel=1e-14)

    def test_final_steps_printed(self, tmp_path, capsys):
        # intersect.cfg has auto steps, which balance; tau and sigmas
        # print the starting steps, the final lines those of the last update
        assert main(["solve", INTERSECT, "-o", str(tmp_path / "r.csv")]) == 0
        stdout = capsys.readouterr().out
        keys = [line.split(" =")[0] for line in stdout.splitlines()]
        at = keys.index("sigmas") + 1
        assert keys[at:at + 4] == ["final tau", "final sigmas", "final ratio", "step changes"]
        pc = parse_config_file(INTERSECT)
        cp = build_problem(pc)
        start = suggest_steps(cp.spec, safety=pc.steps.safety, lam=pc.steps.lam)
        report, _ = solve_convex(cp, cfg=start, stop=StoppingRule(tol=pc.stop.tol,
                                                                  max_iter=pc.stop.max_iter))
        final = report.steps
        assert report.step_changes >= 1 and final.tau != start.tau
        assert extract(stdout, "tau") == f"{start.tau:.17g}"
        assert extract(stdout, "final tau") == f"{final.tau:.17g}"
        assert extract(stdout, "final sigmas") == " ".join(f"{s:.17g}" for s in final.sigmas)
        assert extract(stdout, "final ratio") == " ".join(
            f"{s / final.tau:.17g}" for s in final.sigmas)
        assert extract(stdout, "step changes") == str(report.step_changes)

    def test_manual_steps_stay_fixed(self, tmp_path, capsys):
        cfg = tmp_path / "manual.cfg"
        cfg.write_text(Path(LASSO).read_text().replace(
            "mode = auto\nsafety = 0.99", "mode = manual\ntau = 0.25\nsigma = 0.5"))
        assert main(["solve", str(cfg), "-o", str(tmp_path / "r.csv")]) == 0
        stdout = capsys.readouterr().out
        assert extract(stdout, "final tau") == "0.25"
        assert extract(stdout, "final sigmas") == "0.5"
        assert extract(stdout, "final ratio") == "2"
        assert extract(stdout, "step changes") == "0"

    def test_inadmissible_refused_without_override(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(Path(LASSO).read_text().replace(
            "mode = auto\nsafety = 0.99",
            "mode = manual\ntau = 1.0\nsigma = 1.0"))
        code = main(["solve", str(cfg), "-o", str(tmp_path / "r.csv")])
        captured = capsys.readouterr()
        assert code == 1
        # lasso1d has mu = 1 and L = identity: margin (1 - 1/2) - 1/1 = -1/2
        assert "inadmissible (margin = -0.5 <= 0;" in captured.err
        lines = captured.err.splitlines()
        assert [line.split(" =")[0] for line in lines[1:]] == [
            "rho", "beta", "delta", "margin", "admissible"]
        assert extract(captured.err, "margin") == "-0.5"

    def test_unsafe_override_runs(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(Path(LASSO).read_text().replace(
            "mode = auto\nsafety = 0.99",
            "mode = manual\ntau = 1.0\nsigma = 1.0"))
        code = main(["solve", str(cfg), "-o", str(tmp_path / "r.csv"),
                     "--unsafe-steps"])
        capsys.readouterr()
        assert code in (0, 2)  # no refusal; outcome depends on the iteration

    def test_config_error_exit_code_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("[problem]\nnope = 1\n")
        code = main(["solve", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1
        assert "line 2" in captured.err
        assert "nope" in captured.err

    def test_max_iter_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "short.cfg"
        cfg.write_text(Path(FUSED).read_text().replace(
            "max_iter = 50000", "max_iter = 3"))
        code = main(["solve", str(cfg), "-o", str(tmp_path / "r.csv")])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_state_whose_squares_overflow_runs_without_warnings(self, tmp_path,
                                                                       capfd):
        cfg = tmp_path / "far.cfg"
        text = Path(LASSO).read_text()
        cfg.write_text(text.replace("center=4.0", "center=1e200")
                       .replace("max_iter = 20000", "max_iter = 3"))
        code = main(["solve", str(cfg), "-o", str(tmp_path / "r.csv")])
        captured = capfd.readouterr()
        assert code == 2
        assert extract(captured.out, "stop") == "max_iter (value 3, threshold 3)"
        assert "RuntimeWarning" not in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(Path(LASSO).read_text().replace(
            "mode = auto\nsafety = 0.99",
            "mode = manual\ntau = 100.0\nsigma = 100.0"))
        code = main(["solve", str(cfg), "-o", str(tmp_path / "r.csv"),
                     "--unsafe-steps"])
        captured = capsys.readouterr()
        assert code == 3
        assert "failure" in captured.err
        assert extract(captured.out, "stop") == "diverged"

    @pytest.mark.parametrize("stop, message", [
        ("tol = nan", "tol must lie in [0, inf[, got nan"),
        ("tol = -1e-9", "tol must lie in [0, inf[, got -1e-09"),
        ("tol = 1e-12\nkkt_tol = nan", "kkt_tol must lie in [0, inf[, got nan"),
    ], ids=["tol-nan", "tol-negative", "kkt_tol-nan"])
    def test_bad_tolerance_refused(self, tmp_path, capsys, stop, message):
        cfg = tmp_path / "tol.cfg"
        cfg.write_text(Path(LASSO).read_text().replace("tol = 1e-12", stop))
        code = main(["solve", str(cfg), "-o", str(tmp_path / "r.csv")])
        assert code == 1
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("steps, message", [
        ("tau = nan\nsigma = 0.5", "tau must lie in ]0, inf[, got nan"),
        ("tau = inf\nsigma = 0.5", "tau must lie in ]0, inf[, got inf"),
        ("tau = 0.5\nsigma = nan", "sigma[0] must lie in ]0, inf[, got nan"),
        ("tau = 0.5\nsigma = inf", "sigma[0] must lie in ]0, inf[, got inf"),
    ], ids=["tau-nan", "tau-inf", "sigma-nan", "sigma-inf"])
    def test_non_finite_manual_steps_refused(self, tmp_path, capsys, steps, message):
        cfg = tmp_path / "steps.cfg"
        cfg.write_text(Path(LASSO).read_text().replace(
            "mode = auto\nsafety = 0.99", "mode = manual\n" + steps))
        code = main(["solve", str(cfg), "-o", str(tmp_path / "r.csv"), "--unsafe-steps"])
        assert code == 1
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("amplitude", ["nan", "inf"])
    def test_non_finite_error_amplitude_refused(self, tmp_path, capsys, amplitude):
        cfg = tmp_path / "noisy.cfg"
        cfg.write_text(Path(LASSO).read_text()
                       + f"\n[errors]\nkind = geometric\namplitude = {amplitude}\ndecay = 0.9\n")
        code = main(["solve", str(cfg), "-o", str(tmp_path / "r.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"amplitude must lie in [0, inf[, got {amplitude}\n"
        assert not (tmp_path / "r.csv").exists()

    def test_stop_line_names_the_residual_rule(self, tmp_path, capsys):
        assert main(["solve", LASSO, "-o", str(tmp_path / "r.csv")]) == 0
        stop = extract(capsys.readouterr().out, "stop")
        rule, rest = stop.split(" ", 1)
        assert rule == "residual"
        value, threshold = (float(part.split()[1]) for part in rest.strip("()").split(","))
        assert 0.0 <= value <= threshold
        # the residual compared is the last row's, as written
        rows = [row for row in (tmp_path / "r.csv").read_text().splitlines()
                if not row.startswith("#")]
        assert rows[-1].split(",")[2] == f"{value:.17g}"

    def test_kkt_stop_line_pinned(self, tmp_path, capsys):
        # the rule stopping the run reports the KKT residual it compared
        cfg = tmp_path / "kkt.cfg"
        cfg.write_text(Path(LASSO).read_text().replace("tol = 1e-12\nmax_iter = 20000",
                                                       "tol = 0\nkkt_tol = 1e-6"))
        assert main(["solve", str(cfg), "-o", str(tmp_path / "r.csv")]) == 0
        out = capsys.readouterr().out
        assert extract(out, "iterations") == "9"
        assert extract(out, "stop") == (
            "kkt_tol (value 5.0123796979661961e-07, threshold 9.9999999999999995e-07)")

    @pytest.mark.parametrize("stop, line", [
        ("tol = 0\nkkt_tol = 1e-6", "kkt_tol"),
        ("tol = 1e-12\nmax_iter = 3", "max_iter (value 3, threshold 3)"),
    ], ids=["kkt_tol", "max_iter"])
    def test_stop_line_names_other_rules(self, tmp_path, capsys, stop, line):
        cfg = tmp_path / "stop.cfg"
        cfg.write_text(Path(LASSO).read_text().replace("tol = 1e-12\nmax_iter = 20000", stop))
        main(["solve", str(cfg), "-o", str(tmp_path / "r.csv")])
        printed = extract(capsys.readouterr().out, "stop")
        assert printed.startswith(line)
        if line == "kkt_tol":
            assert printed.endswith(", threshold 9.9999999999999995e-07)")

    def test_missing_file(self, capsys):
        assert main(["solve", "no-such-file.cfg"]) == 1
        capsys.readouterr()

    def test_directory_as_config(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path)]) == 1
        assert str(tmp_path) in capsys.readouterr().err

    def test_directory_as_output(self, tmp_path, capsys):
        assert main(["solve", LASSO, "-o", str(tmp_path)]) == 1
        assert str(tmp_path) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_unallocatable_dimension_refused_in_one_line(self, tmp_path, capsys, command):
        # 10^14 entries (728 TiB) exceed the user address space, so numpy
        # refuses them at once under any overcommit policy
        huge = "100000000000000"
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(Path(LASSO).read_text().replace("dim_primal = 1", f"dim_primal = {huge}")
                       .replace("dim = 1", f"dim = {huge}"))
        extra = ["-o", str(tmp_path / "r.csv")] if command == "solve" else []
        assert main([command, str(cfg), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"{re.escape(str(cfg))}:Unable to allocate [^\n]+\n", captured.err)
        assert not (tmp_path / "r.csv").exists()


class TestRelaxation:
    """``lambda`` is refused alike by every command that reads steps."""

    @pytest.mark.parametrize("command", ["check", "diag", "solve"])
    @pytest.mark.parametrize("lam", ["1.5", "0", "-0.1", "inf", "nan"])
    def test_out_of_range_refused(self, tmp_path, capsys, command, lam):
        cfg = tmp_path / "lam.cfg"
        cfg.write_text(Path(LASSO).read_text().replace(
            "safety = 0.99", f"safety = 0.99\nlambda = {lam}"))
        argv = [command, str(cfg)] + (["-o", str(tmp_path / "r.csv")]
                                      if command == "solve" else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"lambda must lie in ]0, 1], got {float(lam)!r}\n"
        assert captured.out == ""
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command, code", [("check", 0), ("diag", 0), ("solve", 2)])
    def test_small_constant_accepted(self, tmp_path, capsys, command, code):
        # a constant lambda is its own positive lower bound, however small
        cfg = tmp_path / "lam.cfg"
        cfg.write_text(Path(LASSO).read_text().replace(
            "safety = 0.99", "safety = 0.99\nlambda = 0.0005").replace(
            "max_iter = 20000", "max_iter = 5"))
        argv = [command, str(cfg)] + (["-o", str(tmp_path / "r.csv")]
                                      if command == "solve" else [])
        assert main(argv) == code
        assert extract(capsys.readouterr().out, "admissible") == "yes"


class TestNonFiniteOperator:
    NAN_MATRIX = TWO_BLOCK_CHECK.replace("L = identity", "L = matrix 1 nan ; 0 1", 1).replace(
        "mode = manual\ntau = 0.25\nsigma = 0.25", "mode = auto")

    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_nan_matrix_refused(self, tmp_path, capsys, command):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(self.NAN_MATRIX)
        extra = ["-o", str(tmp_path / "r.csv")] if command == "solve" else []
        assert main([command, str(cfg), *extra]) == 1
        err = capsys.readouterr().err
        # a matrix with a non-finite entry has the norm bound inf
        assert "block 0: norm of L must lie in ]0, inf[, got inf" in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_matrix_refused_without_warnings(self, tmp_path, capfd):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(Path(LASSO).read_text().replace("L = identity", "L = matrix 1e308"))
        assert main(["solve", str(cfg), "-o", str(tmp_path / "r.csv")]) == 1
        captured = capfd.readouterr()
        # the norm 1e308 is finite and exact; its square overflows the step
        assert captured.err == ("no positive step size exists for mu = 1.0, nu = [inf] "
                                "and norms (1.000001e+308,)\n")
        assert not (tmp_path / "r.csv").exists()


class TestNonFiniteValues:
    """A non-finite catalog parameter, z or r is refused by name at setup."""

    CASES = [
        ("g = l1 weight=1.0", "g = l1 weight=nan", "block 0: g: l1 weight must lie in ]0, inf[, got nan"),
        ("g = l1 weight=1.0", "g = l1 weight=inf", "block 0: g: l1 weight must lie in ]0, inf[, got inf"),
        ("f = zero", "f = sq_l2 weight=nan", "f: sq_l2 weight must lie in ]0, inf[, got nan"),
        ("z = zeros", "z = const nan", "z must be finite"),
        ("g = l1 weight=1.0", "g = box lo=nan hi=3", "block 0: g: lo must be finite or -inf"),
        ("g = l1 weight=1.0", "g = box lo=inf hi=inf", "block 0: g: lo must be finite or -inf"),
        ("g = l1 weight=1.0", "g = box lo=-inf hi=-inf", "block 0: g: hi must be finite or +inf"),
        ("g = l1 weight=1.0", "g = point point=nan", "block 0: g: point must be finite"),
        ("h = sq_l2 weight=1.0 center=4.0", "h = sq_l2 weight=1.0 center=inf",
         "h: center must be finite"),
        ("f = zero", "f = linear a=inf", "f: a must be finite"),
        ("r = zeros", "r = const inf", "block 0: r must be finite"),
        ("ell = dirac", "ell = quadratic nu=inf", "block 0: ell: nu must lie in ]0, inf[, got inf"),
    ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["solve", "check", "diag"])
    @pytest.mark.parametrize("old, new, message", CASES, ids=[c[1] for c in CASES])
    def test_refused_by_name(self, tmp_path, capsys, command, old, new, message):
        text = Path(LASSO).read_text()
        assert text.count(old) == 1
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.replace(old, new))
        extra = ["-o", str(tmp_path / "r.csv")] if command == "solve" else []
        assert main([command, str(cfg), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"{cfg}:{message}\n"
        assert captured.out == ""
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("box", ["lo=-inf hi=3", "lo=-2 hi=inf", "lo=-inf hi=inf"])
    def test_open_box_side_accepted(self, tmp_path, capsys, box):
        cfg = tmp_path / "box.cfg"
        cfg.write_text(Path(LASSO).read_text().replace("g = l1 weight=1.0", f"g = box {box}"))
        assert main(["check", str(cfg)]) == 0
        capsys.readouterr()


class TestSetupRefusals:
    """Refusals at setup end each command with exit 1 and one line on
    stderr, never a traceback."""

    CASES = [
        # used to end in a TypeError traceback from sorted()
        ("h = sq_l2 weight=1.0 center=4.0", "h = sq_l2 weight=1.0 weight=(1,2) center=4.0",
         "{cfg}:line 9: h: duplicate parameter 'weight'"),
        # used to print the private builder's TypeError
        ("g = l1 weight=1.0", "g = l1 bogus=1",
         "{cfg}:block 0: g: l1: unknown parameters ['bogus']; known: ['weight']"),
        # used to read "tau must be strictly positive", a step never set
        ("z = zeros", "z = zeros\nmu = 1e-320",
         "no positive step size exists for mu = 1e-320, nu = [inf] and norms (1.0,)"),
        ("ell = dirac", "ell = quadratic nu=1e-320",
         "no positive step size exists for mu = 1.0, nu = [1e-320] and norms (1.0,)"),
        # a vector of the wrong length, refused by the problem with both shapes
        ("h = sq_l2 weight=1.0 center=4.0", "h = sq_l2 weight=1.0 center=(4.0,1.0)",
         "{cfg}:h: center must be a vector of length 1, got shape (2,)"),
        ("z = zeros", "z = literal 1 2", "{cfg}:z must be a vector of length 1, got shape (2,)"),
        ("r = zeros", "r = literal 0 0",
         "{cfg}:block 0: r must be a vector of length 1, got shape (2,)"),
        # refused at its line whether or not errors are on
        ("seed = 1", "seed = -1", "{cfg}:line 6: seed must be an integer >= 0, got -1"),
    ]

    @pytest.mark.parametrize("command", ["solve", "check", "diag"])
    @pytest.mark.parametrize("old, new, message", CASES, ids=[c[1] for c in CASES])
    def test_refused_in_one_line(self, tmp_path, capsys, command, old, new, message):
        text = Path(LASSO).read_text()
        assert text.count(old) == 1
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.replace(old, new))
        extra = ["-o", str(tmp_path / "r.csv")] if command == "solve" else []
        assert main([command, str(cfg), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err == message.format(cfg=cfg) + "\n"
        assert captured.out == ""
        assert not (tmp_path / "r.csv").exists()


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", FUSED, "-o", str(a)]) == 0
        assert main(["solve", FUSED, "-o", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_changes_error_schedule(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "noisy.cfg"
        cfg.write_text(Path(FUSED).read_text() + "\n[errors]\nkind = geometric\namplitude = 0.1\ndecay = 0.9\n")
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        monkeypatch.setenv("SPLITSOLVE_SEED", "1")
        assert main(["solve", str(cfg), "-o", str(a)]) == 0
        assert main(["solve", str(cfg), "-o", str(b)]) == 0
        monkeypatch.setenv("SPLITSOLVE_SEED", "2")
        assert main(["solve", str(cfg), "-o", str(c)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_env_seed_overrides_config_seed(self, tmp_path, capsys, monkeypatch):
        noisy = Path(FUSED).read_text() + "\n[errors]\nkind = geometric\namplitude = 0.1\ndecay = 0.9\n"
        assert noisy.count("seed = 7") == 1
        seven, forty_two = tmp_path / "seven.cfg", tmp_path / "forty_two.cfg"
        seven.write_text(noisy)
        forty_two.write_text(noisy.replace("seed = 7", "seed = 42"))
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        monkeypatch.delenv("SPLITSOLVE_SEED", raising=False)
        assert main(["solve", str(forty_two), "-o", str(a)]) == 0
        assert main(["solve", str(seven), "-o", str(c)]) == 0
        monkeypatch.setenv("SPLITSOLVE_SEED", "42")
        assert main(["solve", str(seven), "-o", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    @pytest.mark.parametrize("command", ["solve", "check", "diag"])
    def test_env_seed_must_be_an_integer(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("SPLITSOLVE_SEED", "4.5")
        extra = ["-o", str(tmp_path / "r.csv")] if command == "solve" else []
        assert main([command, FUSED, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"{FUSED}:SPLITSOLVE_SEED must be an integer >= 0, got '4.5'\n"
        assert captured.out == ""
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command", ["solve", "check", "diag"])
    @pytest.mark.parametrize("where", ["config", "env"])
    def test_negative_seed_refused_by_name(self, tmp_path, capsys, monkeypatch, command, where):
        # with geometric errors, both used to end in numpy's bare
        # "expected non-negative integer"
        noisy = Path(FUSED).read_text() + "\n[errors]\nkind = geometric\namplitude = 0.1\ndecay = 0.9\n"
        line = noisy.splitlines().index("seed = 7") + 1
        cfg = tmp_path / "noisy.cfg"
        if where == "config":
            monkeypatch.delenv("SPLITSOLVE_SEED", raising=False)
            cfg.write_text(noisy.replace("seed = 7", "seed = -1"))
            message = f"line {line}: seed must be an integer >= 0, got -1"
        else:
            monkeypatch.setenv("SPLITSOLVE_SEED", "-5")
            cfg.write_text(noisy)
            message = "SPLITSOLVE_SEED must be an integer >= 0, got '-5'"
        extra = ["-o", str(tmp_path / "r.csv")] if command == "solve" else []
        assert main([command, str(cfg), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"{cfg}:{message}\n"
        assert captured.out == ""
        assert not (tmp_path / "r.csv").exists()

    def test_timings_breaks_reproducibility_knowingly(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["solve", LASSO, "-o", str(out), "--timings"]) == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()
        first = rows[1].split(",")
        assert first[-1] != ""  # wall_ms filled


class TestCheck:
    def test_two_block_rho(self, tmp_path, capsys):
        cfg = tmp_path / "check.cfg"
        cfg.write_text(TWO_BLOCK_CHECK)
        code = main(["check", str(cfg)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert float(extract(stdout, "rho")) == pytest.approx(3.0, abs=1e-14)
        assert extract(stdout, "norm(L[0])") == "1"

    def test_margin_follows_delta(self, tmp_path, capsys):
        cfg = tmp_path / "check.cfg"
        cfg.write_text(TWO_BLOCK_CHECK)
        assert main(["check", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        keys = [line.split(" =")[0] for line in lines]
        assert keys[keys.index("delta") + 1] == "margin"
        # (1/0.25 - 1/2) - 2 * 0.5 * 1 / (1/0.25)
        assert float(extract("\n".join(lines), "margin")) == pytest.approx(3.25, abs=1e-14)

    @pytest.mark.parametrize("text, steps", [
        (TWO_BLOCK_CHECK, "fixed"),
        (TWO_BLOCK_CHECK.replace("mode = manual\ntau = 0.25\nsigma = 0.25", "mode = auto"),
         "balanced"),
    ], ids=["manual", "auto"])
    def test_steps_mode_printed(self, tmp_path, capsys, text, steps):
        cfg = tmp_path / "steps.cfg"
        cfg.write_text(text)
        assert main(["check", str(cfg)]) == 0
        stdout = capsys.readouterr().out
        keys = [line.split(" =")[0] for line in stdout.splitlines()]
        assert keys[keys.index("sigmas") + 1] == "steps"
        assert extract(stdout, "steps") == steps

    def test_matrix_norm_needs_no_power_iteration(self, tmp_path, capsys, monkeypatch):
        # ||diag(2, 1)|| needed about 14 power steps to reach the tolerance;
        # a matrix norm is closed form now, so a budget of 3 is never used
        monkeypatch.setattr(splitsolve.solver, "POWER_MAX_ITER", 3)
        cfg = tmp_path / "m.cfg"
        cfg.write_text(MATRIX_CHECK)
        for command in ("check", "solve"):
            assert main([command, str(cfg), *(["-o", str(tmp_path / "r.csv")]
                                              if command == "solve" else [])]) == 0
            assert capsys.readouterr().err == ""
        assert (tmp_path / "r.csv").exists()

    def test_bad_weights_named(self, tmp_path, capsys):
        cfg = tmp_path / "badw.cfg"
        cfg.write_text(TWO_BLOCK_CHECK.replace("omega = 0.5", "omega = 0.4", 1))
        code = main(["check", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1
        assert "sum to 1" in captured.err

    def test_full_domain_qualification(self, tmp_path, capsys):
        cfg = tmp_path / "q.cfg"
        cfg.write_text(TWO_BLOCK_CHECK)
        main(["check", str(cfg)])
        stdout = capsys.readouterr().out
        assert extract(stdout, "qualification") == "satisfied"

    @pytest.mark.parametrize("text, norm, source", [
        (TWO_BLOCK_CHECK, 1.0, "closed form (identity)"),
        (MATRIX_CHECK, 2.0, "closed form (matrix)"),
    ], ids=["identity", "matrix"])
    def test_norm_source(self, tmp_path, capsys, text, norm, source):
        cfg = tmp_path / "src.cfg"
        cfg.write_text(text)
        assert main(["check", str(cfg)]) == 0
        stdout = capsys.readouterr().out
        assert norm <= float(extract(stdout, "norm(L[0])")) <= norm * 1.00001
        assert extract(stdout, "norm(L[0]) source") == source
        assert extract(stdout, "norm(L[1]) source") == "closed form (identity)"


class TestSetupStaysLinear:
    """Library operators and catalog terms reach the first iteration
    without power iteration or the O(n^2) gradient check."""

    @staticmethod
    def tv1d():
        rng = np.random.default_rng(5)
        n = 2000
        center = np.repeat(rng.uniform(-1.0, 1.0, 20), n // 20) + 0.05 * rng.standard_normal(n)
        return denoise_config(center, "diff1d", n - 1)

    @staticmethod
    def tv2d():
        rng = np.random.default_rng(6)
        side = 64
        img = np.kron(rng.uniform(-1.0, 1.0, (4, 4)), np.ones((16, 16)))
        center = (img + 0.02 * rng.standard_normal(img.shape)).ravel()
        return denoise_config(center, f"grad2d rows={side} cols={side}", 2 * side * (side - 1))

    @pytest.mark.parametrize("command", ["solve", "check"])
    @pytest.mark.parametrize("make", ["tv1d", "tv2d"])
    def test_no_power_iteration_or_gradient_check(self, tmp_path, capsys, monkeypatch,
                                                  command, make):
        calls = []

        def refuse(name):
            def refused(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called during setup")
            return refused

        for module in (splitsolve.operators, splitsolve.solver):
            monkeypatch.setattr(module, "estimate_norm", refuse("estimate_norm"))
        monkeypatch.setattr(splitsolve.convex, "check_gradient", refuse("check_gradient"))
        cfg = tmp_path / "big.cfg"
        cfg.write_text(getattr(self, make)())
        argv = [command, str(cfg)] + (["-o", str(tmp_path / "r.csv")] if command == "solve" else [])
        code = main(argv)
        stdout = capsys.readouterr().out
        assert calls == []
        assert code == 0
        if command == "solve":
            assert extract(stdout, "termination") == "converged"
        else:
            assert extract(stdout, "norm(L[0]) source").startswith("closed form")


class TestBench:
    def test_fb_reduction_passes(self, tmp_path, capsys):
        code = main(["bench", "fb-reduction", "-o", str(tmp_path / "out")])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "PASS" in stdout
        assert (tmp_path / "out" / "fb-reduction.csv").exists()

    def test_unknown_suite(self, tmp_path, capsys):
        code = main(["bench", "nope", "-o", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ("unknown suite 'nope'; known: tv1d, fusedlasso, "
                                "project-intersection, fb-reduction, condat-reduction\n")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_output_path_that_is_a_file_refused_before_the_suite_runs(
            self, tmp_path, capsys, monkeypatch, sub):
        ran = []
        monkeypatch.setattr(splitsolve.benchmarks, "run_suite", ran.append)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / sub if sub else taken
        code = main(["bench", "fb-reduction", "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert ran == []
        assert captured.out == ""
        assert captured.err.startswith(f"cannot make the output directory -o {out}: ")
        assert captured.err.count("\n") == 1
        assert taken.read_text() == "kept\n"


class TestDiag:
    def diag(self, tmp_path, capsys, text):
        cfg = tmp_path / "diag.cfg"
        cfg.write_text(text)
        code = main(["diag", str(cfg)])
        return code, capsys.readouterr().out

    def test_all_certificates_pass(self, capsys):
        code = main(["diag", FUSED])
        stdout = capsys.readouterr().out
        assert code == 0
        assert stdout.count("PASS") == 3
        assert "FAIL" not in stdout
        assert stdout.endswith("admissible = yes\n")

    def test_overstated_mu_fails_cocoercivity(self, tmp_path, capsys):
        code, stdout = self.diag(tmp_path, capsys, Path(FUSED).read_text().replace(
            "f = l1 weight=0.2", "f = l1 weight=0.2\nmu = 3.0"))
        assert code == 2
        assert "cocoercivity(C): FAIL" in stdout

    def test_overstated_mu_below_nu_fails(self, tmp_path, capsys):
        # the true mu is 1; with nu = 0.5 the smaller constant is honest and
        # the steps taken from mu = 3 look admissible, but are not at mu = 1
        code, stdout = self.diag(tmp_path, capsys, Path(FUSED).read_text().replace(
            "f = l1 weight=0.2", "f = l1 weight=0.2\nmu = 3.0").replace(
            "ell = dirac", "ell = quadratic nu=0.5"))
        assert code == 2
        assert "cocoercivity(C): FAIL" in stdout
        assert "cocoercivity(Dinv[0]): PASS" in stdout
        assert "admissible = yes" in stdout

    @pytest.mark.parametrize("scale", [1e4, 1e8])
    def test_scaled_matrix_passes(self, tmp_path, capsys, scale):
        mat = scale * np.random.default_rng(3).standard_normal((9, 10))
        rows = " ; ".join(" ".join(repr(float(v)) for v in row) for row in mat)
        code, stdout = self.diag(tmp_path, capsys, Path(FUSED).read_text().replace(
            "L = diff1d", f"L = matrix {rows}"))
        assert code == 0
        assert stdout.count("PASS") == 3
        assert "FAIL" not in stdout

    def test_inadmissible_steps_exit_2(self, tmp_path, capsys):
        code, stdout = self.diag(tmp_path, capsys, Path(FUSED).read_text().replace(
            "mode = auto\nsafety = 0.99",
            "mode = manual\ntau = 2.0\nsigma = 2.0"))
        assert code == 2
        assert stdout.count("PASS") == 3
        assert "admissible = no" in stdout
