"""Plain-text problem configuration.

The format is line oriented: ``key = value`` pairs inside bracketed
sections, ``#`` starts a comment.  One ``[problem]`` section, one
``[block]`` section per dual block (in block order), one ``[steps]``
section, and optional ``[errors]`` and ``[stop]`` sections::

    [problem]
    dim_primal = 10
    seed = 7                 # optional (default 0)
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
    lambda = 1.0             # optional (default 1.0)
    epsilon = 0.001          # optional (default 1e-3)

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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .convex import (
    ConvexBlock,
    ConvexProblem,
    dirac_term,
    quadratic_smooth,
    quadratic_term,
    zero_smooth,
)
from .operators import LinearOp, catalog_prox, diff1d_op, grad2d_op, identity_op, matrix_op
from .spaces import SpaceLayout

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

    def resolve(self, dim: int, line: Optional[int] = None) -> np.ndarray:
        if self.kind == "zeros":
            return np.zeros(dim)
        if self.kind == "const":
            return np.full(dim, self.values[0])
        if len(self.values) != dim:
            raise ConfigError(
                f"vector literal has {len(self.values)} entries, expected {dim}",
                line,
            )
        return np.asarray(self.values, dtype=float)


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
    epsilon: float = 1e-3


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
# parsing

_SECTION_RE = re.compile(r"^\[([a-zA-Z][a-zA-Z0-9_-]*)\]$")
_VALID_SECTIONS = {"problem", "block", "steps", "errors", "stop"}
_KEYS = {
    "problem": {"dim_primal", "seed", "z", "f", "h", "mu"},
    "block": {"dim", "omega", "L", "g", "ell", "r"},
    "steps": {"mode", "safety", "tau", "sigma", "lambda", "epsilon"},
    "errors": {"kind", "amplitude", "decay"},
    "stop": {"tol", "max_iter", "kkt_tol"},
}


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


def _parse_param_value(text: str, line: int, key: str):
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1].strip()
        parts = [p for p in inner.split(",") if p != ""]
        if not parts:
            raise ConfigError(f"{key}: empty vector literal", line)
        return tuple(_parse_float(p, line, key) for p in parts)
    return _parse_float(text, line, key)


def _parse_funcspec(text: str, line: int, key: str) -> FuncSpec:
    parts = text.split()
    if not parts:
        raise ConfigError(f"{key}: empty function spec", line)
    kind = parts[0]
    params = []
    for part in parts[1:]:
        if "=" not in part:
            raise ConfigError(
                f"{key}: malformed parameter {part!r} (expected name=value)", line
            )
        name, _, raw = part.partition("=")
        params.append((name, _parse_param_value(raw, line, f"{key}.{name}")))
    return FuncSpec(kind, tuple(sorted(params)))


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
        return VecSpec("literal", tuple(_parse_float(p, line, key) for p in parts[1:]))
    raise ConfigError(
        f"{key}: unknown vector form {head!r} (use zeros, const, or literal)", line
    )


def _parse_opspec(text: str, line: int) -> OpSpec:
    parts = text.split()
    if not parts:
        raise ConfigError("L: empty operator spec", line)
    kind = parts[0]
    if kind in ("identity", "diff1d"):
        if len(parts) != 1:
            raise ConfigError(f"L: {kind!r} takes no arguments", line)
        return OpSpec(kind)
    if kind == "grad2d":
        params = {}
        for part in parts[1:]:
            name, _, raw = part.partition("=")
            if name not in ("rows", "cols") or not raw:
                raise ConfigError(f"L: grad2d expects rows=.. cols=.., got {part!r}", line)
            params[name] = _parse_int(raw, line, f"L.{name}")
        if set(params) != {"rows", "cols"}:
            raise ConfigError("L: grad2d needs both rows= and cols=", line)
        return OpSpec("grad2d", tuple(sorted(params.items())))
    if kind == "matrix":
        body = text[len("matrix"):].strip()
        if not body:
            raise ConfigError("L: matrix needs row entries", line)
        rows = []
        width = None
        for chunk in body.split(";"):
            entries = chunk.split()
            if not entries:
                raise ConfigError("L: empty matrix row", line)
            row = tuple(_parse_float(e, line, "L") for e in entries)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ConfigError("L: matrix rows have unequal lengths", line)
            rows.append(row)
        return OpSpec("matrix", (("rows", tuple(rows)),))
    raise ConfigError(
        f"L: unknown operator {kind!r} (use identity, diff1d, grad2d, or matrix)",
        line,
    )


def parse_config(text: str) -> ProblemConfig:
    """Parse configuration text; raises :class:`ConfigError` on problems."""
    sections: list[tuple[str, int, dict]] = []
    current: Optional[dict] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = _SECTION_RE.match(stripped)
        if m:
            name = m.group(1)
            if name not in _VALID_SECTIONS:
                raise ConfigError(f"unknown section [{name}]", lineno)
            current = {}
            sections.append((name, lineno, current))
            continue
        if current is None:
            raise ConfigError("key/value pair before any section header", lineno)
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        name = sections[-1][0]
        if key not in _KEYS[name]:
            raise ConfigError(f"unknown key {key!r} in section [{name}]", lineno)
        if key in current:
            raise ConfigError(f"duplicate key {key!r} in section [{name}]", lineno)
        current[key] = (value, lineno)

    by_name: dict[str, list[tuple[int, dict]]] = {}
    for name, lineno, data in sections:
        by_name.setdefault(name, []).append((lineno, data))

    for name in ("problem", "steps"):
        if name not in by_name:
            raise ConfigError(f"missing required section [{name}]")
        if len(by_name[name]) > 1:
            raise ConfigError(f"section [{name}] appears more than once",
                              by_name[name][1][0])
    for name in ("errors", "stop"):
        if name in by_name and len(by_name[name]) > 1:
            raise ConfigError(f"section [{name}] appears more than once",
                              by_name[name][1][0])
    if "block" not in by_name:
        raise ConfigError("at least one [block] section is required")

    def need(data, key, section, lineno):
        if key not in data:
            raise ConfigError(f"missing key {key!r} in section [{section}]", lineno)
        return data[key]

    p_line, p = by_name["problem"][0]
    dim_primal = _parse_int(*need(p, "dim_primal", "problem", p_line), key="dim_primal")
    f_spec = _parse_funcspec(*need(p, "f", "problem", p_line), key="f")
    h_spec = _parse_funcspec(*need(p, "h", "problem", p_line), key="h")
    z_spec = _parse_vecspec(*p["z"], key="z") if "z" in p else VecSpec("zeros")
    seed = _parse_int(*p["seed"], key="seed") if "seed" in p else 0
    mu = _parse_float(*p["mu"], key="mu") if "mu" in p else None

    blocks = []
    for b_line, b in by_name["block"]:
        blocks.append(BlockConfig(
            dim=_parse_int(*need(b, "dim", "block", b_line), key="dim"),
            omega=_parse_float(*need(b, "omega", "block", b_line), key="omega"),
            L=_parse_opspec(*need(b, "L", "block", b_line)),
            g=_parse_funcspec(*need(b, "g", "block", b_line), key="g"),
            ell=_parse_funcspec(*need(b, "ell", "block", b_line), key="ell"),
            r=_parse_vecspec(*b["r"], key="r") if "r" in b else VecSpec("zeros"),
        ))

    s_line, s = by_name["steps"][0]
    mode = s["mode"][0] if "mode" in s else "auto"
    if mode not in ("auto", "manual"):
        raise ConfigError(f"steps mode must be auto or manual, got {mode!r}",
                          s["mode"][1] if "mode" in s else s_line)
    tau = _parse_float(*s["tau"], key="tau") if "tau" in s else None
    sigmas = None
    if "sigma" in s:
        raw, line = s["sigma"]
        vals = tuple(_parse_float(v, line, "sigma") for v in raw.split())
        if len(vals) == 1:
            vals = vals * len(blocks)
        if len(vals) != len(blocks):
            raise ConfigError(
                f"sigma: expected 1 or {len(blocks)} values, got {len(vals)}", line
            )
        sigmas = vals
    if mode == "manual" and (tau is None or sigmas is None):
        raise ConfigError("manual steps need both tau and sigma", s_line)
    steps = StepsConfig(
        mode=mode,
        safety=_parse_float(*s["safety"], key="safety") if "safety" in s else 0.99,
        tau=tau,
        sigmas=sigmas,
        lam=_parse_float(*s["lambda"], key="lambda") if "lambda" in s else 1.0,
        epsilon=_parse_float(*s["epsilon"], key="epsilon") if "epsilon" in s else 1e-3,
    )

    errors = ErrorsConfig()
    if "errors" in by_name:
        e_line, e = by_name["errors"][0]
        kind = e["kind"][0] if "kind" in e else "none"
        if kind not in ("none", "geometric"):
            raise ConfigError(f"errors kind must be none or geometric, got {kind!r}",
                              e["kind"][1] if "kind" in e else e_line)
        errors = ErrorsConfig(
            kind=kind,
            amplitude=_parse_float(*e["amplitude"], key="amplitude") if "amplitude" in e else 0.0,
            decay=_parse_float(*e["decay"], key="decay") if "decay" in e else 0.9,
        )
        if kind == "geometric" and "amplitude" not in e:
            raise ConfigError("geometric errors need an amplitude", e_line)

    stop = StopConfig()
    if "stop" in by_name:
        t_line, t = by_name["stop"][0]
        stop = StopConfig(
            tol=_parse_float(*t["tol"], key="tol") if "tol" in t else 1e-10,
            max_iter=_parse_int(*t["max_iter"], key="max_iter") if "max_iter" in t else 10000,
            kkt_tol=_parse_float(*t["kkt_tol"], key="kkt_tol") if "kkt_tol" in t else None,
        )

    return ProblemConfig(
        dim_primal=dim_primal, f=f_spec, h=h_spec, blocks=tuple(blocks),
        z=z_spec, seed=seed, mu=mu, steps=steps, errors=errors, stop=stop,
    )


def parse_config_file(path) -> ProblemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# serialization


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
    return "literal " + " ".join(repr(v) for v in spec.values)


def _fmt_opspec(spec: OpSpec) -> str:
    if spec.kind in ("identity", "diff1d"):
        return spec.kind
    if spec.kind == "grad2d":
        d = spec.param_dict()
        return f"grad2d cols={d['cols']} rows={d['rows']}"
    rows = spec.param_dict()["rows"]
    return "matrix " + " ; ".join(" ".join(repr(v) for v in row) for row in rows)


def serialize_config(pc: ProblemConfig) -> str:
    """Serialize so that re-parsing reproduces the configuration
    field for field."""
    out = ["[problem]"]
    out.append(f"dim_primal = {pc.dim_primal}")
    out.append(f"seed = {pc.seed}")
    out.append(f"z = {_fmt_vecspec(pc.z)}")
    out.append(f"f = {_fmt_funcspec(pc.f)}")
    out.append(f"h = {_fmt_funcspec(pc.h)}")
    if pc.mu is not None:
        out.append(f"mu = {repr(pc.mu)}")
    for blk in pc.blocks:
        out.append("")
        out.append("[block]")
        out.append(f"dim = {blk.dim}")
        out.append(f"omega = {repr(blk.omega)}")
        out.append(f"L = {_fmt_opspec(blk.L)}")
        out.append(f"g = {_fmt_funcspec(blk.g)}")
        out.append(f"ell = {_fmt_funcspec(blk.ell)}")
        out.append(f"r = {_fmt_vecspec(blk.r)}")
    out.append("")
    out.append("[steps]")
    out.append(f"mode = {pc.steps.mode}")
    out.append(f"safety = {repr(pc.steps.safety)}")
    if pc.steps.tau is not None:
        out.append(f"tau = {repr(pc.steps.tau)}")
    if pc.steps.sigmas is not None:
        out.append("sigma = " + " ".join(repr(s) for s in pc.steps.sigmas))
    out.append(f"lambda = {repr(pc.steps.lam)}")
    out.append(f"epsilon = {repr(pc.steps.epsilon)}")
    out.append("")
    out.append("[errors]")
    out.append(f"kind = {pc.errors.kind}")
    out.append(f"amplitude = {repr(pc.errors.amplitude)}")
    out.append(f"decay = {repr(pc.errors.decay)}")
    out.append("")
    out.append("[stop]")
    out.append(f"tol = {repr(pc.stop.tol)}")
    out.append(f"max_iter = {pc.stop.max_iter}")
    if pc.stop.kkt_tol is not None:
        out.append(f"kkt_tol = {repr(pc.stop.kkt_tol)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# problem assembly

_F_KINDS = {"sq_l2", "l1", "l2", "box", "point", "zero", "linear"}


def _build_prox(spec: FuncSpec, dim: int, key: str):
    if spec.kind not in _F_KINDS:
        raise ConfigError(f"{key}: unknown catalog function {spec.kind!r}")
    try:
        return catalog_prox(spec.kind, dim, **spec.param_dict())
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _build_smooth(spec: FuncSpec, dim: int, mu: Optional[float]):
    if spec.kind == "zero":
        if spec.params:
            raise ConfigError("h: zero takes no parameters")
        return zero_smooth(dim, mu=mu)
    if spec.kind == "sq_l2":
        d = spec.param_dict()
        weight = float(d.pop("weight", 1.0))
        center = d.pop("center", 0.0)
        if d:
            raise ConfigError(f"h: unexpected parameters {sorted(d)}")
        center_arr = np.asarray(center, dtype=float)
        if center_arr.ndim == 1 and center_arr.size != dim:
            raise ConfigError(
                f"h: center has {center_arr.size} entries, expected {dim}")
        return quadratic_smooth(center_arr, weight=weight, dim=dim, mu=mu)
    raise ConfigError(f"h: unknown smooth kind {spec.kind!r} (use sq_l2 or zero)")


def _build_ell(spec: FuncSpec, dim: int):
    if spec.kind == "dirac":
        if spec.params:
            raise ConfigError("ell: dirac takes no parameters")
        return dirac_term(dim)
    if spec.kind == "quadratic":
        d = spec.param_dict()
        nu = float(d.pop("nu", 1.0))
        if d:
            raise ConfigError(f"ell: unexpected parameters {sorted(d)}")
        return quadratic_term(dim, nu=nu)
    raise ConfigError(f"ell: unknown kind {spec.kind!r} (use dirac or quadratic)")


def _build_operator(spec: OpSpec, in_dim: int, out_dim: int) -> LinearOp:
    if spec.kind == "identity":
        if out_dim != in_dim:
            raise ConfigError(
                f"L: identity needs block dim {in_dim}, got {out_dim}")
        return identity_op(in_dim)
    if spec.kind == "diff1d":
        if out_dim != in_dim - 1:
            raise ConfigError(
                f"L: diff1d maps dim {in_dim} to {in_dim - 1}, block has {out_dim}")
        return diff1d_op(in_dim)
    if spec.kind == "grad2d":
        d = spec.param_dict()
        rows, cols = d["rows"], d["cols"]
        if rows * cols != in_dim:
            raise ConfigError(
                f"L: grad2d rows*cols = {rows * cols} disagrees with dim_primal {in_dim}")
        op = grad2d_op(rows, cols)
        if op.out_dim != out_dim:
            raise ConfigError(
                f"L: grad2d output dimension is {op.out_dim}, block has {out_dim}")
        return op
    mat = np.asarray(spec.param_dict()["rows"], dtype=float)
    if mat.shape != (out_dim, in_dim):
        raise ConfigError(
            f"L: matrix shape {mat.shape} disagrees with block ({out_dim}, {in_dim})")
    return matrix_op(mat)


@dataclass(frozen=True)
class BuildOptions:
    """Everything a front end needs to run the parsed problem."""

    steps: StepsConfig
    errors: ErrorsConfig
    stop: StopConfig
    seed: int


def build_problem(pc: ProblemConfig, seed: Optional[int] = None) -> tuple[ConvexProblem, BuildOptions]:
    """Assemble the convex problem described by a parsed configuration."""
    try:
        layout = SpaceLayout(
            pc.dim_primal,
            tuple(b.dim for b in pc.blocks),
            tuple(b.omega for b in pc.blocks),
        )
        blocks = tuple(
            ConvexBlock(
                g=_build_prox(b.g, b.dim, f"block {i}: g"),
                ell=_build_ell(b.ell, b.dim),
                L=_build_operator(b.L, pc.dim_primal, b.dim),
                r=b.r.resolve(b.dim),
            )
            for i, b in enumerate(pc.blocks)
        )
        cp = ConvexProblem(
            layout=layout,
            f=_build_prox(pc.f, pc.dim_primal, "f"),
            h=_build_smooth(pc.h, pc.dim_primal, pc.mu),
            z=pc.z.resolve(pc.dim_primal),
            blocks=blocks,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    opts = BuildOptions(
        steps=pc.steps, errors=pc.errors, stop=pc.stop,
        seed=pc.seed if seed is None else seed,
    )
    return cp, opts
