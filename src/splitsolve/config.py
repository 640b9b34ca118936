"""Plain-text problem configuration.

The format is line oriented: ``key = value`` pairs inside bracketed
sections, ``#`` starts a comment.  One ``[problem]`` section, one
``[block]`` section per dual block (in block order), one ``[steps]``
section, and optional ``[errors]`` and ``[stop]`` sections::

    [problem]
    dim_primal = 10
    seed = 7                 # optional (default 0), an integer >= 0
    z = zeros                # zeros | const <x> | literal <x1> <x2> ...
    f = l1 weight=0.2
    h = sq_l2 weight=1.0 center=(0.5,1.0,...)
    mu = 2.0                 # optional cocoercivity-claim override

    [block]
    dim = 9
    omega = 1.0
    L = diff1d               # identity | diff1d | grad2d rows=.. cols=..
                             # | matrix r11 r12 ; r21 r22 ...
    g = l1 weight=0.5
    ell = dirac              # dirac | quadratic nu=..
    r = zeros                # optional (default zeros)

    [steps]
    mode = auto              # auto | manual
    safety = 0.99            # auto mode
    tau = 0.5                # manual mode
    sigma = 0.5              # manual mode; broadcast or one value per block
    lambda = 1.0             # optional (default 1.0), in ]0, 1]

    [errors]
    kind = geometric         # none | geometric
    amplitude = 0.1
    decay = 0.9

    [stop]
    tol = 1e-10
    max_iter = 10000
    kkt_tol = 1e-9           # optional

Function specs are ``kind key=value ...`` with scalar values or
parenthesized comma-separated vectors (no spaces inside).  Catalog
kinds for f and g: ``sq_l2`` (weight, center), ``l1`` (weight), ``l2``
(weight), ``box`` (lo, hi), ``point`` (point), ``zero``, ``linear``
(a); for h: ``sq_l2`` and ``zero``; for ell: ``dirac`` and
``quadratic`` (nu).  Unknown sections or keys are rejected with the
offending line number.

Each key, with its dataclass field, parser and writer, is one row of
the private table ``_SECTIONS``, which also says how often each section
may appear; the dataclasses below hold every default, and a key whose
field has none is required.  Building the problem refuses a
non-finite catalog parameter, ``z`` or ``r`` by name (a box bound may
be infinite on its open side; NaN is refused everywhere).
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from .convex import (
    ConvexBlock,
    ConvexProblem,
    dirac_term,
    quadratic_smooth,
    quadratic_term,
    zero_smooth,
)
from .operators import (
    CATALOG_KINDS,
    LinearOp,
    catalog_prox,
    diff1d_op,
    grad2d_op,
    identity_op,
    matrix_op,
)
from .spaces import SpaceLayout, _check_count, _check_vector

__all__ = [
    "ConfigError",
    "VecSpec",
    "FuncSpec",
    "OpSpec",
    "BlockConfig",
    "StepsConfig",
    "ErrorsConfig",
    "StopConfig",
    "ProblemConfig",
    "parse_config",
    "parse_config_file",
    "serialize_config",
    "build_problem",
]


class ConfigError(ValueError):
    """Configuration problem, anchored to a 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        self.message = message
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class VecSpec:
    kind: str  # "zeros" | "const" | "literal"
    values: tuple[float, ...] = ()

    def resolve(self, dim: int, name: str = "vector") -> np.ndarray:
        """The vector of length ``dim``, a literal as written (the problem
        refuses another length by ``name``); ``name`` labels a refusal."""
        if self.kind == "zeros":
            return np.zeros(dim)
        if self.kind == "const":
            return _check_vector(name, self.values[0], dim, scalar=True, finite=True)
        return _check_vector(name, self.values, finite=True)


@dataclass(frozen=True)
class FuncSpec:
    kind: str
    params: tuple[tuple[str, object], ...] = ()

    def param_dict(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class OpSpec:
    kind: str  # "identity" | "diff1d" | "grad2d" | "matrix"
    params: tuple[tuple[str, object], ...] = ()

    def param_dict(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class BlockConfig:
    dim: int
    omega: float
    L: OpSpec
    g: FuncSpec
    ell: FuncSpec
    r: VecSpec = VecSpec("zeros")


@dataclass(frozen=True)
class StepsConfig:
    mode: str = "auto"  # "auto" | "manual"
    safety: float = 0.99
    tau: Optional[float] = None
    sigmas: Optional[tuple[float, ...]] = None
    lam: float = 1.0


@dataclass(frozen=True)
class ErrorsConfig:
    kind: str = "none"  # "none" | "geometric"
    amplitude: float = 0.0
    decay: float = 0.9


@dataclass(frozen=True)
class StopConfig:
    tol: float = 1e-10
    max_iter: int = 10000
    kkt_tol: Optional[float] = None


@dataclass(frozen=True)
class ProblemConfig:
    dim_primal: int
    f: FuncSpec
    h: FuncSpec
    blocks: tuple[BlockConfig, ...]
    z: VecSpec = VecSpec("zeros")
    seed: int = 0
    mu: Optional[float] = None
    steps: StepsConfig = StepsConfig()
    errors: ErrorsConfig = ErrorsConfig()
    stop: StopConfig = StopConfig()


# ---------------------------------------------------------------------------
# values


def _parse_float(text: str, line: int, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}", line) from None


def _parse_int(text: str, line: int, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}", line) from None


def _parse_seed(text: str, line: int, key: str) -> int:
    seed = _parse_int(text, line, key)
    try:
        return _check_count(key, seed, minimum=0)
    except ValueError as exc:
        raise ConfigError(str(exc), line) from None


def _parse_float_list(parts, line: int, key: str) -> tuple[float, ...]:
    """The numbers of ``parts`` in one pass; only when one of them is not
    a number are they parsed one by one, so the error names it."""
    try:
        return tuple(map(float, parts))
    except ValueError:
        for p in parts:
            _parse_float(p, line, key)
        raise


def _parse_floats(text: str, line: int, key: str) -> tuple[float, ...]:
    return _parse_float_list(text.split(), line, key)


def _choice(label: str, *options: str):
    """Parser of a word that must be one of ``options``."""

    def parse(text: str, line: int, key: str) -> str:
        if text not in options:
            raise ConfigError(f"{label} must be {' or '.join(options)}, got {text!r}", line)
        return text

    return parse


def _parse_param_value(text: str, line: int, key: str):
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1].strip()
        parts = [p for p in inner.split(",") if p != ""]
        if not parts:
            raise ConfigError(f"{key}: empty vector literal", line)
        return _parse_float_list(parts, line, key)
    return _parse_float(text, line, key)


def _parse_funcspec(text: str, line: int, key: str) -> FuncSpec:
    parts = text.split()
    if not parts:
        raise ConfigError(f"{key}: empty function spec", line)
    kind = parts[0]
    params = {}
    for part in parts[1:]:
        name, eq, raw = part.partition("=")
        if not (name and eq):
            raise ConfigError(
                f"{key}: malformed parameter {part!r} (expected name=value)", line
            )
        if name in params:
            raise ConfigError(f"{key}: duplicate parameter {name!r}", line)
        params[name] = _parse_param_value(raw, line, f"{key}.{name}")
    return FuncSpec(kind, tuple(sorted(params.items())))


def _parse_vecspec(text: str, line: int, key: str) -> VecSpec:
    parts = text.split()
    if not parts:
        raise ConfigError(f"{key}: empty vector spec", line)
    head = parts[0]
    if head == "zeros":
        if len(parts) != 1:
            raise ConfigError(f"{key}: 'zeros' takes no arguments", line)
        return VecSpec("zeros")
    if head == "const":
        if len(parts) != 2:
            raise ConfigError(f"{key}: 'const' takes exactly one value", line)
        return VecSpec("const", (_parse_float(parts[1], line, key),))
    if head == "literal":
        if len(parts) < 2:
            raise ConfigError(f"{key}: 'literal' needs at least one value", line)
        return VecSpec("literal", _parse_float_list(parts[1:], line, key))
    raise ConfigError(
        f"{key}: unknown vector form {head!r} (use zeros, const, or literal)", line
    )


def _parse_opspec(text: str, line: int, key: str) -> OpSpec:
    parts = text.split()
    if not parts:
        raise ConfigError(f"{key}: empty operator spec", line)
    kind = parts[0]
    if kind in ("identity", "diff1d"):
        if len(parts) != 1:
            raise ConfigError(f"{key}: {kind!r} takes no arguments", line)
        return OpSpec(kind)
    if kind == "grad2d":
        params = {}
        for part in parts[1:]:
            name, _, raw = part.partition("=")
            if name not in ("rows", "cols") or not raw:
                raise ConfigError(f"{key}: grad2d expects rows=.. cols=.., got {part!r}", line)
            if name in params:
                raise ConfigError(f"{key}: duplicate parameter {name!r}", line)
            params[name] = _parse_int(raw, line, f"{key}.{name}")
        if set(params) != {"rows", "cols"}:
            raise ConfigError(f"{key}: grad2d needs both rows= and cols=", line)
        return OpSpec("grad2d", tuple(sorted(params.items())))
    if kind == "matrix":
        body = text[len("matrix"):].strip()
        if not body:
            raise ConfigError(f"{key}: matrix needs row entries", line)
        rows = []
        width = None
        for chunk in body.split(";"):
            entries = chunk.split()
            if not entries:
                raise ConfigError(f"{key}: empty matrix row", line)
            row = _parse_float_list(entries, line, key)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ConfigError(f"{key}: matrix rows have unequal lengths", line)
            rows.append(row)
        return OpSpec("matrix", (("rows", tuple(rows)),))
    raise ConfigError(
        f"{key}: unknown operator {kind!r} (use identity, diff1d, grad2d, or matrix)",
        line,
    )


def _fmt_floats(values: tuple[float, ...]) -> str:
    return " ".join(repr(v) for v in values)


def _fmt_value(value) -> str:
    if isinstance(value, tuple):
        return "(" + ",".join(repr(float(v)) for v in value) + ")"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_funcspec(spec: FuncSpec) -> str:
    parts = [spec.kind]
    parts.extend(f"{k}={_fmt_value(v)}" for k, v in spec.params)
    return " ".join(parts)


def _fmt_vecspec(spec: VecSpec) -> str:
    if spec.kind == "zeros":
        return "zeros"
    if spec.kind == "const":
        return f"const {repr(spec.values[0])}"
    return "literal " + _fmt_floats(spec.values)


def _fmt_opspec(spec: OpSpec) -> str:
    if spec.kind in ("identity", "diff1d"):
        return spec.kind
    if spec.kind == "grad2d":
        d = spec.param_dict()
        return f"grad2d cols={d['cols']} rows={d['rows']}"
    rows = spec.param_dict()["rows"]
    return "matrix " + " ; ".join(_fmt_floats(row) for row in rows)


# ---------------------------------------------------------------------------
# the format: sections and keys


class _Section(NamedTuple):
    cls: type  # the dataclass that the section's keys fill
    fewest: int  # occurrences of the section in a file
    most: Optional[int]  # None: no limit
    keys: dict  # config key -> (dataclass field, parser, formatter)


# The one description of the file format, in file order.  A key is
# required when its dataclass field has no default, and an absent key
# takes the field's default.  ``str`` writes ints, words and floats
# (``str`` of a float is its shortest round-trip repr).
_SECTIONS = {
    "problem": _Section(ProblemConfig, 1, 1, {
        "dim_primal": ("dim_primal", _parse_int, str),
        "seed": ("seed", _parse_seed, str),
        "z": ("z", _parse_vecspec, _fmt_vecspec),
        "f": ("f", _parse_funcspec, _fmt_funcspec),
        "h": ("h", _parse_funcspec, _fmt_funcspec),
        "mu": ("mu", _parse_float, str),
    }),
    "block": _Section(BlockConfig, 1, None, {
        "dim": ("dim", _parse_int, str),
        "omega": ("omega", _parse_float, str),
        "L": ("L", _parse_opspec, _fmt_opspec),
        "g": ("g", _parse_funcspec, _fmt_funcspec),
        "ell": ("ell", _parse_funcspec, _fmt_funcspec),
        "r": ("r", _parse_vecspec, _fmt_vecspec),
    }),
    "steps": _Section(StepsConfig, 1, 1, {
        "mode": ("mode", _choice("steps mode", "auto", "manual"), str),
        "safety": ("safety", _parse_float, str),
        "tau": ("tau", _parse_float, str),
        "sigma": ("sigmas", _parse_floats, _fmt_floats),
        "lambda": ("lam", _parse_float, str),
    }),
    "errors": _Section(ErrorsConfig, 0, 1, {
        "kind": ("kind", _choice("errors kind", "none", "geometric"), str),
        "amplitude": ("amplitude", _parse_float, str),
        "decay": ("decay", _parse_float, str),
    }),
    "stop": _Section(StopConfig, 0, 1, {
        "tol": ("tol", _parse_float, str),
        "max_iter": ("max_iter", _parse_int, str),
        "kkt_tol": ("kkt_tol", _parse_float, str),
    }),
}

_SECTION_RE = re.compile(r"^\[([a-zA-Z][a-zA-Z0-9_-]*)\]$")


# ---------------------------------------------------------------------------
# parsing


def _section_fields(name: str, lineno: int, data: dict) -> dict:
    """The dataclass fields that one section's keys set."""
    sec = _SECTIONS[name]
    required = {f.name for f in fields(sec.cls)
                if f.default is MISSING and f.default_factory is MISSING}
    values = {}
    for key, (field, parse, _) in sec.keys.items():
        if key in data:
            values[field] = parse(*data[key], key)
        elif field in required:
            raise ConfigError(f"missing key {key!r} in section [{name}]", lineno)
    return values


def parse_config(text: str) -> ProblemConfig:
    """Parse configuration text; raises :class:`ConfigError` on problems."""
    found: dict[str, list[tuple[int, dict]]] = {name: [] for name in _SECTIONS}
    current: Optional[dict] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = _SECTION_RE.match(stripped)
        if m:
            name = m.group(1)
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}]", lineno)
            current = {}
            found[name].append((lineno, current))
            continue
        if current is None:
            raise ConfigError("key/value pair before any section header", lineno)
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _SECTIONS[name].keys:
            raise ConfigError(f"unknown key {key!r} in section [{name}]", lineno)
        if key in current:
            raise ConfigError(f"duplicate key {key!r} in section [{name}]", lineno)
        current[key] = (value.strip(), lineno)

    for name, sec in _SECTIONS.items():
        occurrences = found[name]
        if len(occurrences) < sec.fewest:
            raise ConfigError(f"at least one [{name}] section is required" if sec.most is None
                              else f"missing required section [{name}]")
        if sec.most is not None and len(occurrences) > sec.most:
            raise ConfigError(f"section [{name}] appears more than once",
                              occurrences[sec.most][0])
    # an absent optional section takes every default
    values = {name: [_section_fields(name, lineno, data)
                     for lineno, data in found[name] or [(None, {})]]
              for name in _SECTIONS}

    # rules that read more than one key
    s_line, s = found["steps"][0]
    steps, blocks = values["steps"][0], values["block"]
    if "sigmas" in steps:
        sigmas = steps["sigmas"]
        if len(sigmas) == 1:
            sigmas *= len(blocks)
        if len(sigmas) != len(blocks):
            raise ConfigError(f"sigma: expected 1 or {len(blocks)} values, got {len(sigmas)}",
                              s["sigma"][1])
        steps["sigmas"] = sigmas
    if steps.get("mode") == "manual" and not {"tau", "sigmas"} <= steps.keys():
        raise ConfigError("manual steps need both tau and sigma", s_line)
    errors = values["errors"][0]
    if errors.get("kind") == "geometric" and "amplitude" not in errors:
        raise ConfigError("geometric errors need an amplitude", found["errors"][0][0])

    return ProblemConfig(
        **values["problem"][0],
        blocks=tuple(BlockConfig(**b) for b in blocks),
        steps=StepsConfig(**steps),
        errors=ErrorsConfig(**errors),
        stop=StopConfig(**values["stop"][0]),
    )


def parse_config_file(path) -> ProblemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# serialization


def serialize_config(pc: ProblemConfig) -> str:
    """Serialize so that re-parsing reproduces the configuration
    field for field; a field that is ``None`` is left out."""
    sections = [("problem", pc), *(("block", b) for b in pc.blocks),
                ("steps", pc.steps), ("errors", pc.errors), ("stop", pc.stop)]
    out = []
    for name, obj in sections:
        lines = [f"[{name}]"]
        for key, (field, _, fmt) in _SECTIONS[name].keys.items():
            value = getattr(obj, field)
            if value is not None:
                lines.append(f"{key} = {fmt(value)}")
        out.append("\n".join(lines))
    return "\n\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# problem assembly


def _named(name: str, build, *args):
    """``build(*args)``, with ``name: `` before the message of any
    ``ValueError`` or ``TypeError`` it raises."""
    try:
        return build(*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _build_prox(spec: FuncSpec, dim: int):
    if spec.kind not in CATALOG_KINDS:
        raise ConfigError(f"unknown catalog function {spec.kind!r}")
    return catalog_prox(spec.kind, dim, **spec.param_dict())


def _build_smooth(spec: FuncSpec, dim: int, mu: Optional[float]):
    if spec.kind == "zero":
        if spec.params:
            raise ConfigError("zero takes no parameters")
        return zero_smooth(dim, mu=mu)
    if spec.kind == "sq_l2":
        d = spec.param_dict()
        weight = d.pop("weight", 1.0)
        center = d.pop("center", 0.0)
        if d:
            raise ConfigError(f"unexpected parameters {sorted(d)}")
        return quadratic_smooth(center, weight=weight, dim=dim, mu=mu)
    raise ConfigError(f"unknown smooth kind {spec.kind!r} (use sq_l2 or zero)")


def _build_ell(spec: FuncSpec, dim: int):
    if spec.kind == "dirac":
        if spec.params:
            raise ConfigError("dirac takes no parameters")
        return dirac_term(dim)
    if spec.kind == "quadratic":
        d = spec.param_dict()
        nu = d.pop("nu", 1.0)
        if d:
            raise ConfigError(f"unexpected parameters {sorted(d)}")
        return quadratic_term(dim, nu=nu)
    raise ConfigError(f"unknown kind {spec.kind!r} (use dirac or quadratic)")


def _build_operator(spec: OpSpec, dim: int) -> LinearOp:
    # the problem refuses an operator that does not map length dim to
    # its block's, naming both maps
    if spec.kind == "identity":
        return identity_op(dim)
    if spec.kind == "diff1d":
        return diff1d_op(dim)
    if spec.kind == "grad2d":
        d = spec.param_dict()
        return grad2d_op(d["rows"], d["cols"])
    return matrix_op(np.asarray(spec.param_dict()["rows"], dtype=float))


def build_problem(pc: ProblemConfig) -> ConvexProblem:
    """Assemble the convex problem described by a parsed configuration."""
    try:
        layout = SpaceLayout(
            pc.dim_primal,
            tuple(b.dim for b in pc.blocks),
            tuple(b.omega for b in pc.blocks),
        )
        blocks = tuple(
            ConvexBlock(
                g=_named(f"block {i}: g", _build_prox, b.g, b.dim),
                ell=_named(f"block {i}: ell", _build_ell, b.ell, b.dim),
                L=_named(f"block {i}: L", _build_operator, b.L, pc.dim_primal),
                r=b.r.resolve(b.dim, f"block {i}: r"),
            )
            for i, b in enumerate(pc.blocks)
        )
        return ConvexProblem(
            layout=layout,
            f=_named("f", _build_prox, pc.f, pc.dim_primal),
            h=_named("h", _build_smooth, pc.h, pc.dim_primal, pc.mu),
            z=pc.z.resolve(pc.dim_primal, "z"),
            blocks=blocks,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
