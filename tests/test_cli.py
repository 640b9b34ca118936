from pathlib import Path

import numpy as np
import pytest

import splitsolve.convex
import splitsolve.operators
import splitsolve.solver
from splitsolve.cli import main

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
        assert text.startswith("iter,step_norm,kkt_residual,primal_obj,dual_obj,gap,wall_ms\n")
        assert "# termination=converged" in text
        assert "# admissible=yes" in text

    def test_auto_steps_echoed(self, tmp_path, capsys):
        code = main(["solve", LASSO, "-o", str(tmp_path / "r.csv"), "--steps", "auto"])
        stdout = capsys.readouterr().out
        assert code == 0
        assert float(extract(stdout, "tau")) == pytest.approx(0.66)

    def test_inadmissible_refused_without_override(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(Path(LASSO).read_text().replace(
            "mode = auto\nsafety = 0.99",
            "mode = manual\ntau = 1.0\nsigma = 1.0"))
        code = main(["solve", str(cfg), "-o", str(tmp_path / "r.csv")])
        captured = capsys.readouterr()
        assert code == 1
        assert "inadmissible" in captured.err
        assert "rho" in captured.err

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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
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

    def test_missing_file(self, capsys):
        assert main(["solve", "no-such-file.cfg"]) == 1
        capsys.readouterr()


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
        (MATRIX_CHECK, 2.0, "power iteration"),
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
        assert "unknown suite" in captured.err


class TestDiag:
    def test_all_certificates_pass(self, capsys):
        code = main(["diag", FUSED])
        stdout = capsys.readouterr().out
        assert code == 0
        assert stdout.count("PASS") == 3

    def test_overstated_mu_fails_cocoercivity(self, tmp_path, capsys):
        cfg = tmp_path / "lying.cfg"
        cfg.write_text(Path(FUSED).read_text().replace(
            "f = l1 weight=0.2", "f = l1 weight=0.2\nmu = 3.0"))
        code = main(["diag", str(cfg)])
        stdout = capsys.readouterr().out
        assert code == 2
        assert "cocoercivity(Q): FAIL" in stdout

    def test_inadmissible_steps_reported_vacuous(self, tmp_path, capsys):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(Path(FUSED).read_text().replace(
            "mode = auto\nsafety = 0.99",
            "mode = manual\ntau = 2.0\nsigma = 2.0"))
        code = main(["diag", str(cfg)])
        stdout = capsys.readouterr().out
        assert code == 2
        assert "VACUOUS" in stdout
        assert "rho" in stdout
