import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsolve.config import (
    BlockConfig,
    ConfigError,
    ErrorsConfig,
    FuncSpec,
    OpSpec,
    ProblemConfig,
    StepsConfig,
    StopConfig,
    VecSpec,
    build_problem,
    parse_config,
    serialize_config,
)

BASIC = """
[problem]
dim_primal = 3
seed = 5
z = const 0.5
f = l1 weight=0.25
h = sq_l2 weight=2.0 center=(1.0,2.0,3.0)

[block]
dim = 2
omega = 1.0
L = diff1d
g = l1 weight=0.4
ell = dirac
r = literal 0.1 -0.2

[steps]
mode = manual
tau = 0.3
sigma = 0.6
lambda = 0.9

[errors]
kind = geometric
amplitude = 0.05
decay = 0.8

[stop]
tol = 1e-9
max_iter = 500
kkt_tol = 1e-7
"""


class TestParsing:
    def test_round_trip_identity(self):
        pc = parse_config(BASIC)
        again = parse_config(serialize_config(pc))
        assert pc == again

    def test_fields(self):
        pc = parse_config(BASIC)
        assert pc.dim_primal == 3
        assert pc.seed == 5
        assert pc.f.kind == "l1"
        assert pc.blocks[0].r.values == (0.1, -0.2)
        assert pc.steps.tau == 0.3
        assert pc.steps.sigmas == (0.6,)
        assert pc.errors.kind == "geometric"
        assert pc.stop.kkt_tol == 1e-7

    def test_unknown_key_rejected_with_line(self):
        text = BASIC.replace("seed = 5", "sneed = 5")
        with pytest.raises(ConfigError, match="unknown key 'sneed'") as exc:
            parse_config(text)
        assert exc.value.line == 4

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section \[extra\]"):
            parse_config(BASIC + "\n[extra]\nx = 1\n")

    def test_duplicate_key_rejected(self):
        text = BASIC.replace("seed = 5", "seed = 5\nseed = 6")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text)

    def test_missing_required_key(self):
        text = BASIC.replace("dim_primal = 3\n", "")
        with pytest.raises(ConfigError, match="dim_primal"):
            parse_config(text)

    def test_manual_mode_needs_steps(self):
        text = BASIC.replace("tau = 0.3\n", "")
        with pytest.raises(ConfigError, match="tau"):
            parse_config(text)

    def test_key_before_section(self):
        with pytest.raises(ConfigError, match="before any section"):
            parse_config("x = 1\n[problem]\n")

    def test_malformed_number(self):
        text = BASIC.replace("tau = 0.3", "tau = fast")
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config(text)

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + BASIC.replace(
            "tau = 0.3", "tau = 0.3  # inline note")
        assert parse_config(text).steps.tau == 0.3

    def test_sigma_broadcast_to_blocks(self):
        two_block = BASIC.replace(
            "[steps]",
            "[block]\ndim = 3\nomega = 0.5\nL = identity\n"
            "g = zero\nell = dirac\n\n[steps]",
        ).replace("omega = 1.0", "omega = 0.5", 1)
        pc = parse_config(two_block)
        assert pc.steps.sigmas == (0.6, 0.6)


PROBLEM_SECTION = """[problem]
dim_primal = 3
seed = 5
z = const 0.5
f = l1 weight=0.25
h = sq_l2 weight=2.0 center=(1.0,2.0,3.0)
"""
BLOCK_SECTION = """[block]
dim = 2
omega = 1.0
L = diff1d
g = l1 weight=0.4
ell = dirac
r = literal 0.1 -0.2
"""
STEPS_SECTION = """[steps]
mode = manual
tau = 0.3
sigma = 0.6
lambda = 0.9
"""


# (text in BASIC, its replacement, the exact message, ConfigError.line)
PARSER_ERRORS = [
    ("dim_primal = 3", "dim_primal = 3.5", "dim_primal: expected an integer, got '3.5'", 3),
    ("max_iter = 500", "max_iter = 5e2", "max_iter: expected an integer, got '5e2'", 30),
    ("omega = 1.0", "omega = one", "omega: expected a number, got 'one'", 11),
    ("lambda = 0.9", "lambda = x", "lambda: expected a number, got 'x'", 21),
    ("lambda = 0.9", "lambda = 0.9\nepsilon = 0.001", "unknown key 'epsilon' in section [steps]", 22),
    ("center=(1.0,2.0,3.0)", "center=()", "h.center: empty vector literal", 7),
    ("center=(1.0,2.0,3.0)", "center=(1.0,x)", "h.center: expected a number, got 'x'", 7),
    ("center=(1.0,2.0,3.0)", "center=(1.0,2.0,1e)", "h.center: expected a number, got '1e'", 7),
    ("center=(1.0,2.0,3.0)", "center=(u,2.0,w)", "h.center: expected a number, got 'u'", 7),
    ("f = l1 weight=0.25", "f =", "f: empty function spec", 6),
    ("g = l1 weight=0.4", "g = l1 weight",
     "g: malformed parameter 'weight' (expected name=value)", 13),
    ("z = const 0.5", "z =", "z: empty vector spec", 5),
    ("z = const 0.5", "z = zeros 1", "z: 'zeros' takes no arguments", 5),
    ("z = const 0.5", "z = const 1 2", "z: 'const' takes exactly one value", 5),
    ("z = const 0.5", "z = const x", "z: expected a number, got 'x'", 5),
    ("z = const 0.5", "z = ones",
     "z: unknown vector form 'ones' (use zeros, const, or literal)", 5),
    ("r = literal 0.1 -0.2", "r = literal", "r: 'literal' needs at least one value", 15),
    ("r = literal 0.1 -0.2", "r = literal 0.1 y", "r: expected a number, got 'y'", 15),
    ("L = diff1d", "L =", "L: empty operator spec", 12),
    ("L = diff1d", "L = diff1d 2", "L: 'diff1d' takes no arguments", 12),
    ("L = diff1d", "L = identity 2", "L: 'identity' takes no arguments", 12),
    ("L = diff1d", "L = grad2d rows=2 size=3",
     "L: grad2d expects rows=.. cols=.., got 'size=3'", 12),
    ("L = diff1d", "L = grad2d rows=", "L: grad2d expects rows=.. cols=.., got 'rows='", 12),
    ("L = diff1d", "L = grad2d rows=2", "L: grad2d needs both rows= and cols=", 12),
    # used to parse as rows=1 cols=1, the repeat resolved silently
    ("L = diff1d", "L = grad2d rows=1 cols=1 rows=1", "L: duplicate parameter 'rows'", 12),
    ("L = diff1d", "L = grad2d cols=4 rows=2 cols=3", "L: duplicate parameter 'cols'", 12),
    ("L = diff1d", "L = grad2d rows=2 cols=x", "L.cols: expected an integer, got 'x'", 12),
    ("L = diff1d", "L = matrix", "L: matrix needs row entries", 12),
    ("L = diff1d", "L = matrix 1 0 ; ; 0 1", "L: empty matrix row", 12),
    ("L = diff1d", "L = matrix 1 0 ; 1", "L: matrix rows have unequal lengths", 12),
    ("L = diff1d", "L = matrix 1 x", "L: expected a number, got 'x'", 12),
    ("L = diff1d", "L = spiral",
     "L: unknown operator 'spiral' (use identity, diff1d, grad2d, or matrix)", 12),
    ("[stop]", "[halt]", "unknown section [halt]", 28),
    ("\n[problem]", "x = 1\n[problem]", "key/value pair before any section header", 1),
    ("seed = 5", "seed 5", "expected 'key = value', got 'seed 5'", 4),
    ("seed = 5", "sneed = 5", "unknown key 'sneed' in section [problem]", 4),
    ("seed = 5", "seed = 5\nseed = 6", "duplicate key 'seed' in section [problem]", 5),
    (PROBLEM_SECTION, "", "missing required section [problem]", None),
    (STEPS_SECTION, "", "missing required section [steps]", None),
    (BLOCK_SECTION, "", "at least one [block] section is required", None),
    ("[block]", "[problem]\n[block]", "section [problem] appears more than once", 9),
    ("[errors]", "[steps]\n[errors]", "section [steps] appears more than once", 23),
    ("[stop]", "[errors]\n[stop]", "section [errors] appears more than once", 28),
    ("kkt_tol = 1e-7", "kkt_tol = 1e-7\n[stop]", "section [stop] appears more than once", 32),
    ("f = l1 weight=0.25\n", "", "missing key 'f' in section [problem]", 2),
    ("dim = 2\n", "", "missing key 'dim' in section [block]", 9),
    ("ell = dirac\n", "", "missing key 'ell' in section [block]", 9),
    ("mode = manual", "mode = guess", "steps mode must be auto or manual, got 'guess'", 18),
    ("sigma = 0.6", "sigma = 0.6 0.7", "sigma: expected 1 or 1 values, got 2", 20),
    ("sigma = 0.6", "sigma = 0.6 x", "sigma: expected a number, got 'x'", 20),
    ("tau = 0.3\n", "", "manual steps need both tau and sigma", 17),
    ("sigma = 0.6\n", "", "manual steps need both tau and sigma", 17),
    ("kind = geometric", "kind = random",
     "errors kind must be none or geometric, got 'random'", 24),
    ("amplitude = 0.05\n", "", "geometric errors need an amplitude", 23),
]


@pytest.mark.parametrize("new, message", [
    # used to die in sorted() with a TypeError
    ("f = l1 weight=0.25 weight=(1,2)", "f: duplicate parameter 'weight'"),
    # used to run with the last weight, in either order
    ("f = l1 weight=0.5 weight=0.25", "f: duplicate parameter 'weight'"),
    # used to be parsed as a parameter with an empty name
    ("f = l1 =0.25", "f: malformed parameter '=0.25' (expected name=value)"),
], ids=["repeated-vector", "repeated-scalar", "empty-name"])
def test_function_spec_parameter_refused_with_line(new, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(BASIC.replace("f = l1 weight=0.25", new))
    assert (exc.value.message, exc.value.line) == (message, 6)


@pytest.mark.parametrize("old, new, message, line", PARSER_ERRORS)
def test_parser_error_message_and_line(old, new, message, line):
    assert BASIC.count(old) == 1
    with pytest.raises(ConfigError) as exc:
        parse_config(BASIC.replace(old, new))
    assert (exc.value.message, exc.value.line) == (message, line)


_NUM = st.floats(allow_nan=False)
_VEC = st.one_of(
    st.just(VecSpec("zeros")),
    _NUM.map(lambda v: VecSpec("const", (v,))),
    st.lists(_NUM, min_size=1, max_size=4).map(lambda vs: VecSpec("literal", tuple(vs))),
)
_PARAMS = st.dictionaries(
    st.sampled_from(("a", "center", "hi", "lo", "nu", "point", "weight")),
    st.one_of(_NUM, st.lists(_NUM, min_size=1, max_size=3).map(tuple)),
    max_size=3,
)


def _funcs(*kinds):
    # the parser stores parameters sorted by name
    return st.builds(lambda kind, params: FuncSpec(kind, tuple(sorted(params.items()))),
                     st.sampled_from(kinds), _PARAMS)


_OPS = st.one_of(
    st.sampled_from(("identity", "diff1d")).map(OpSpec),
    st.builds(lambda rows, cols: OpSpec("grad2d", (("cols", cols), ("rows", rows))),
              st.integers(1, 64), st.integers(1, 64)),
    st.integers(1, 3).flatmap(
        lambda width: st.lists(st.lists(_NUM, min_size=width, max_size=width).map(tuple),
                               min_size=1, max_size=3)
    ).map(lambda rows: OpSpec("matrix", (("rows", tuple(rows)),))),
)
_BLOCKS = st.builds(
    BlockConfig, dim=st.integers(1, 1000), omega=_NUM, L=_OPS,
    g=_funcs("sq_l2", "l1", "l2", "box", "point", "zero", "linear"),
    ell=_funcs("dirac", "quadratic"), r=_VEC,
)


@st.composite
def problem_configs(draw):
    blocks = tuple(draw(st.lists(_BLOCKS, min_size=1, max_size=3)))
    manual = draw(st.booleans())
    sigmas = st.lists(_NUM, min_size=len(blocks), max_size=len(blocks)).map(tuple)
    steps = StepsConfig(
        mode="manual" if manual else "auto",
        safety=draw(_NUM),
        tau=draw(_NUM if manual else st.none() | _NUM),
        sigmas=draw(sigmas if manual else st.none() | sigmas),
        lam=draw(_NUM),
    )
    return ProblemConfig(
        dim_primal=draw(st.integers(1, 10 ** 6)),
        f=draw(_funcs("sq_l2", "l1", "l2", "box", "point", "zero", "linear")),
        h=draw(_funcs("sq_l2", "zero")),
        blocks=blocks,
        z=draw(_VEC),
        seed=draw(st.integers(0, 2 ** 32)),
        mu=draw(st.none() | _NUM),
        steps=steps,
        errors=ErrorsConfig(kind=draw(st.sampled_from(("none", "geometric"))),
                            amplitude=draw(_NUM), decay=draw(_NUM)),
        stop=StopConfig(tol=draw(_NUM), max_iter=draw(st.integers(1, 10 ** 6)),
                        kkt_tol=draw(st.none() | _NUM)),
    )


class TestRoundTripProperty:
    """Hypothesis search for a configuration that does not survive
    serialization and re-parsing field for field."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pc=problem_configs())
    def test_parse_inverts_serialize(self, pc):
        assert parse_config(serialize_config(pc)) == pc


class TestBuild:
    def test_basic_build(self):
        cp = build_problem(parse_config(BASIC))
        assert cp.layout.dim_primal == 3
        assert cp.layout.dual_dims == (2,)
        np.testing.assert_array_equal(cp.z, np.full(3, 0.5))
        assert cp.h.lipschitz_inv == pytest.approx(0.5)  # weight 2 quadratic

    def test_weights_must_sum(self):
        text = BASIC.replace("omega = 1.0", "omega = 0.8")
        with pytest.raises(ConfigError, match="sum to 1"):
            build_problem(parse_config(text))

    def test_vector_length_mismatch(self):
        text = BASIC.replace("r = literal 0.1 -0.2", "r = literal 0.1 0.2 0.3")
        with pytest.raises(ConfigError, match=r"^block 0: r must be a vector of length 2, "
                                              r"got shape \(3,\)$"):
            build_problem(parse_config(text))

    def test_stencil_dimension_checks(self):
        text = BASIC.replace("dim = 2", "dim = 3")
        with pytest.raises(ConfigError, match=r"^block 0: L must map length 3 to 3, got 3 to 2$"):
            build_problem(parse_config(text))

    def test_matrix_operator(self):
        text = BASIC.replace("L = diff1d", "L = matrix 1 0 0 ; 0 1 1")
        cp = build_problem(parse_config(text))
        np.testing.assert_array_equal(
            cp.blocks[0].L.apply(np.array([1.0, 2.0, 3.0])), [1.0, 5.0])

    def test_matrix_shape_mismatch(self):
        text = BASIC.replace("L = diff1d", "L = matrix 1 0 ; 0 1")
        with pytest.raises(ConfigError, match=r"^block 0: L must map length 3 to 2, got 2 to 2$"):
            build_problem(parse_config(text))

    def test_grad2d_stencil(self):
        text = """
[problem]
dim_primal = 6
f = zero
h = sq_l2 weight=1.0 center=0.0

[block]
dim = 7
omega = 1.0
L = grad2d rows=2 cols=3
g = l2 weight=1.0
ell = dirac

[steps]
mode = auto
"""
        cp = build_problem(parse_config(text))
        assert cp.blocks[0].L.out_dim == 7  # (2-1)*3 + 2*(3-1)

    def test_mu_override_reaches_smooth_term(self):
        text = BASIC.replace("h = sq_l2 weight=2.0 center=(1.0,2.0,3.0)",
                             "h = sq_l2 weight=2.0 center=(1.0,2.0,3.0)\nmu = 3.0")
        cp = build_problem(parse_config(text))
        assert cp.h.lipschitz_inv == 3.0

    def test_unknown_catalog_function(self):
        text = BASIC.replace("f = l1 weight=0.25", "f = entropy")
        with pytest.raises(ConfigError, match="unknown catalog"):
            build_problem(parse_config(text))


class TestHostileConfigs:
    """Mutated example configs fail only with ``ConfigError``."""

    CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
    # declared dimensions stay at most 3 here, so a mutation never asks
    # for a large allocation
    NUMBERS = ["nan", "inf", "-inf", "0", "0.0", "-0.0", "-1", "-2.5", "1e-300", "2", "3"]
    VECTORS = ["()", "(,)", "(1.0,,2.0)", "(nan,1.0)", "(1.0", "1.0)", "(inf,-inf,0)",
               "(a,b)", "zeros", "const", "const nan", "literal", "literal 1 nan"]
    LINES = [
        "L = matrix", "L = matrix 1 nan ; 0 1", "L = matrix 1 2 ; 3", "L = matrix ;",
        "L = grad2d rows=1 cols=1", "L = grad2d rows=0 cols=3", "L = grad2d rows=nan cols=2",
        "L = grad2d", "L = grad2d rows=2 cols=5", "L = diff1d", "L = identity", "L = spiral",
        "ell = quadratic nu=0", "ell = quadratic nu=-1", "ell = quadratic nu=nan",
        "ell = quadratic", "g = l1 weight=-1", "g = l1 weight=nan", "g = box lo=1 hi=0",
        "g = box lo=(1,2) hi=3", "h = sq_l2 weight=0 center=0", "h = sq_l2 weight=nan center=0",
        "h = zero", "f = l1 weight=inf", "omega = 0", "omega = nan", "dim = 0", "dim_primal = -1",
        "[block]", "[steps]", "mode = manual", "sigma = 0.1 0.2 0.3", "lambda = 0",
    ]

    def mutate(self, lines, rng):
        i = int(rng.integers(len(lines)))
        kind = int(rng.integers(6))
        if kind == 0:
            lines[i] = re.sub(r"-?\d+(\.\d*)?(e-?\d+)?",
                              lambda m: str(rng.choice(self.NUMBERS)), lines[i])
        elif kind == 1:
            lines[i] = re.sub(r"\([^)]*\)|(?<== )\S+$",
                              lambda m: str(rng.choice(self.VECTORS)), lines[i])
        elif kind == 2:
            lines[i] = str(rng.choice(self.LINES))
        elif kind == 3:
            lines.insert(i, str(rng.choice(self.LINES)))
        elif kind == 4:
            lines.insert(i, lines[i])
        else:
            del lines[i]

    def test_mutations_raise_only_config_error(self):
        rng = np.random.default_rng(2024)
        texts = [cfg.read_text().splitlines() for cfg in self.CONFIGS]
        outcomes = {"built": 0, "refused": 0}
        for _ in range(3000):
            lines = list(texts[int(rng.integers(len(texts)))])
            for _ in range(int(rng.integers(1, 4))):
                if lines:
                    self.mutate(lines, rng)
            text = "\n".join(lines) + "\n"
            try:
                build_problem(parse_config(text))
            except ConfigError:
                outcomes["refused"] += 1
            except Exception as exc:  # noqa: BLE001 - the finding is the type
                pytest.fail(f"{type(exc).__name__}: {exc}\n--- config ---\n{text}")
            else:
                outcomes["built"] += 1
        # both branches are exercised, so the fuzzing is not vacuous
        assert outcomes["built"] > 100 and outcomes["refused"] > 100


@pytest.mark.parametrize("old, new, message", [
    ("ell = dirac", "ell = quadratic nu=0", r"nu must lie in \]0, inf\[, got 0.0"),
    ("L = identity", "L = grad2d rows=1 cols=1", "grad2d needs rows >= 2"),
    ("ell = dirac", "ell = quadratic nu=(1,2)",
     r"^block 0: ell: nu must be a real number, got \(1.0, 2.0\)$"),
    ("L = identity", "L = diff1d", "^block 0: L: n must be an integer >= 2, got 1$"),
    ("h = sq_l2 weight=1.0 center=4.0", "h = sq_l2 weight=-1.0 center=4.0",
     r"^h: weight must lie in \]0, inf\[, got -1.0$"),
])
def test_block_construction_errors_are_config_errors(old, new, message):
    text = (Path(__file__).resolve().parents[1] / "configs" / "lasso1d.cfg").read_text()
    with pytest.raises(ConfigError, match=message):
        build_problem(parse_config(text.replace(old, new)))
