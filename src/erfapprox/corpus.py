"""Built-in function corpus with closed-form moduli and derivative chains.

Two views of each shape exist where both make sense: an interval variant
(for the normalized interval operator) and a whole-line variant with a
finite sup norm (for the line operators).  Exact first moduli are
attached wherever a closed form is available; everything else falls back
to grid estimation and is flagged as such downstream.

Every derivative chain, hand-built or derived from an expression, is made
by ``_chain``; sin and cos are one cycle (sin, cos, -sin, -cos) rotated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .expr import Num, Program, compile, derivatives, evaluate, parse
from .funcs import ComplexFunctionSpec, FunctionSpec

# ------------------------------------------------------- modulus registry
#
# Named closed-form first moduli.  Each factory takes the interval (a, b),
# or None for the whole line, and returns delta -> omega_1.  Validity is
# stated per shape; the factories raise for unsupported intervals.


def _mod_linear(a: Optional[float], b: Optional[float], slope: float = 1.0):
    if a is None:
        # whole line: omega_1 = slope * delta, unbounded growth
        return lambda d: abs(slope) * d
    return lambda d: abs(slope) * min(d, b - a)


def _mod_sine_period(a, b):
    # valid on the whole line and on any interval containing a full
    # crest-to-trough pair, e.g. [-pi, pi]
    return lambda d: 2.0 * math.sin(min(d, math.pi) / 2.0)


def _mod_sine_rising(a, b):
    # sin on [a, b] inside [0, pi/2]: concave increasing, so the widest
    # spread sits on the leftmost window
    if a is None or a < 0.0 or b > math.pi / 2.0 + 1e-12:
        raise ConfigError("exact_modulus", "sine_rising needs [a, b] inside [0, pi/2]")
    return lambda d: math.sin(a + min(d, b - a)) - math.sin(a)


def _mod_exp_interval(a, b):
    # exp is convex increasing: the widest spread sits on the rightmost window
    if a is None:
        raise ConfigError("exact_modulus", "exp_interval needs a finite interval")
    return lambda d: math.exp(b) - math.exp(b - min(d, b - a))


def _mod_vee(a, b):
    # |x| on [a, b] with a <= 0 <= b; on the whole line it is 1-Lipschitz
    # with unbounded spread
    if a is None:
        return lambda d: d
    if a > 0.0 or b < 0.0:
        raise ConfigError("exact_modulus", "vee needs an interval containing 0")
    return lambda d: min(d, max(-a, b))


_CLIP = 4.0     # where the clipped builtins level off


def _mod_clipped_vee(a, b):
    # min(|x|, _CLIP) on the whole line
    return lambda d: min(d, _CLIP)


def _mod_clipped_linear(a, b):
    # clip(x, -_CLIP, _CLIP) on the whole line
    return lambda d: min(d, 2.0 * _CLIP)


def _mod_parabola(a, b):
    # x^2 on [-c, c]: widest spread on the outermost window
    if a is None or abs(a + b) > 1e-12:
        raise ConfigError("exact_modulus", "parabola needs a symmetric interval [-c, c]")
    c = b
    return lambda d: d * (2.0 * c - d) if d < c else c * c

def _mod_parabola_right(a, b):
    # x^2 on [a, b] with 0 <= a: convex increasing, rightmost window
    if a is None or a < 0.0:
        raise ConfigError("exact_modulus", "parabola_right needs [a, b] with a >= 0")
    return lambda d: b * b - (b - min(d, b - a)) ** 2


def _mod_constant(a, b):
    return lambda d: 0.0


EXACT_MODULI: Dict[str, Callable] = {
    "linear": _mod_linear,
    "sine_period": _mod_sine_period,
    "sine_rising": _mod_sine_rising,
    "exp_interval": _mod_exp_interval,
    "vee": _mod_vee,
    "clipped_vee": _mod_clipped_vee,
    "clipped_linear": _mod_clipped_linear,
    "parabola": _mod_parabola,
    "parabola_right": _mod_parabola_right,
    "constant": _mod_constant,
}


def modulus_from_registry(name: str, domain: Optional[Tuple[float, float]]):
    if name not in EXACT_MODULI:
        raise ConfigError("exact_modulus", f"unknown modulus shape {name!r}; expected one of "
                                           f"{', '.join(EXACT_MODULI)}")
    a, b = domain if domain is not None else (None, None)
    return EXACT_MODULI[name](a, b)


# ------------------------------------------------------- hand-built corpus


def _np(fn):
    return lambda t: fn(np.asarray(t, dtype=float))


def _chain(name, evals, domain, moduli, sups, grid_window=None):
    """Build a FunctionSpec whose derivatives are the tail of the chain;
    each level is built once and shared by every level above it."""
    tail = ()
    for i in range(len(evals) - 1, -1, -1):
        spec = FunctionSpec(
            name if i == 0 else f"{name}^({i})",
            evals[i],
            domain=domain,
            derivatives=tail,
            exact_modulus=moduli[i],
            sup_norm=sups[i],
            grid_window=grid_window,
        )
        tail = (spec,) + tail
    return spec


#: sin and its derivatives; cos and its derivatives are the same cycle
#: rotated by one
_SINE_CYCLE = [_np(np.sin), _np(np.cos), _np(lambda t: -np.sin(t)), _np(lambda t: -np.cos(t))]


def _wave(name, shift, domain, grid_window):
    """sin (shift 0) or cos (shift 1) with three derivatives, each under the
    whole-period modulus and sup norm 1."""
    evals = _SINE_CYCLE[shift:] + _SINE_CYCLE[:shift]
    return _chain(name, evals, domain, [_mod_sine_period(None, None)] * 4, [1.0] * 4,
                  grid_window)


def _build_interval_corpus() -> Dict[str, FunctionSpec]:
    pi = math.pi
    out: Dict[str, FunctionSpec] = {}

    out["linear"] = _chain(
        "linear",
        [_np(lambda t: t), _np(np.ones_like), _np(np.zeros_like)],
        (0.0, 1.0),
        [_mod_linear(0.0, 1.0), lambda d: 0.0, lambda d: 0.0],
        [1.0, 1.0, 0.0],
    )
    out["sin"] = _wave("sin", 0, (-pi, pi), None)
    out["cos"] = _wave("cos", 1, (-pi, pi), None)
    out["abs"] = FunctionSpec(
        "abs", _np(np.abs), domain=(-1.0, 1.0),
        exact_modulus=_mod_vee(-1.0, 1.0), sup_norm=1.0,
    )
    out["exp"] = _chain(
        "exp",
        [_np(np.exp)] * 4,
        (0.0, 1.0),
        [_mod_exp_interval(0.0, 1.0)] * 4,
        [math.e] * 4,
    )
    out["sq"] = _chain(
        "sq",
        [_np(np.square), _np(lambda t: 2.0 * t), _np(lambda t: np.full_like(t, 2.0))],
        (-1.0, 1.0),
        [_mod_parabola(-1.0, 1.0), _mod_linear(-1.0, 1.0, 2.0), lambda d: 0.0],
        [1.0, 2.0, 2.0],
    )
    out["const"] = _chain("const", [_np(np.ones_like), _np(np.zeros_like), _np(np.zeros_like)],
                          (0.0, 1.0), [lambda d: 0.0] * 3, [1.0, 0.0, 0.0])
    return out


def _build_line_corpus() -> Dict[str, FunctionSpec]:
    pi = math.pi
    out: Dict[str, FunctionSpec] = {}

    out["linear"] = FunctionSpec(
        "linear", _np(lambda t: np.clip(t, -_CLIP, _CLIP)), domain=None,
        exact_modulus=_mod_clipped_linear(None, None), sup_norm=_CLIP,
        grid_window=(-_CLIP, _CLIP),
    )
    out["sin"] = _wave("sin", 0, None, (-pi, pi))
    out["cos"] = _wave("cos", 1, None, (-pi, pi))
    out["abs"] = FunctionSpec(
        "abs", _np(lambda t: np.minimum(np.abs(t), _CLIP)), domain=None,
        exact_modulus=_mod_clipped_vee(None, None), sup_norm=_CLIP,
        grid_window=(-_CLIP, _CLIP),
    )
    out["const"] = _chain("const", [_np(np.ones_like)], None, [lambda d: 0.0], [1.0], (-2.0, 2.0))
    return out


def _build_fractional_corpus() -> Dict[str, FunctionSpec]:
    out: Dict[str, FunctionSpec] = {}
    out["sq"] = _chain(
        "sq",
        [_np(np.square), _np(lambda t: 2.0 * t), _np(lambda t: np.full_like(t, 2.0)),
         _np(np.zeros_like)],
        (0.0, 1.0),
        [_mod_parabola_right(0.0, 1.0), _mod_linear(0.0, 1.0, 2.0), lambda d: 0.0,
         lambda d: 0.0],
        [1.0, 2.0, 2.0, 0.0],
    )
    out["cube"] = _chain(
        "cube",
        [_np(lambda t: t ** 3), _np(lambda t: 3.0 * t * t), _np(lambda t: 6.0 * t),
         _np(lambda t: np.full_like(t, 6.0))],
        (0.0, 1.0),
        [None, None, _mod_linear(0.0, 1.0, 6.0), lambda d: 0.0],
        [1.0, 3.0, 6.0, 6.0],
    )
    # sin on [0, 1] rises inside [0, pi/2]; its derivatives' moduli are estimated
    out["sin"] = _chain("sin", _SINE_CYCLE, (0.0, 1.0),
                        [_mod_sine_rising(0.0, 1.0), None, None, None],
                        [math.sin(1.0), 1.0, math.sin(1.0), 1.0])
    # the interval variant of const already lives on [0, 1]
    out["const"] = INTERVAL_CORPUS["const"]
    return out


INTERVAL_CORPUS = _build_interval_corpus()
LINE_CORPUS = _build_line_corpus()
FRACTIONAL_CORPUS = _build_fractional_corpus()

#: Complex pairs (re, im); variant-matched so both parts share a domain.
COMPLEX_INTERVAL_CORPUS: Dict[str, ComplexFunctionSpec] = {
    "circle": ComplexFunctionSpec("circle", INTERVAL_CORPUS["cos"], INTERVAL_CORPUS["sin"]),
    "ramp_pair": ComplexFunctionSpec("ramp_pair", INTERVAL_CORPUS["linear"],
                                     FRACTIONAL_CORPUS["sq"]),
}

COMPLEX_LINE_CORPUS: Dict[str, ComplexFunctionSpec] = {
    "circle": ComplexFunctionSpec("circle", LINE_CORPUS["cos"], LINE_CORPUS["sin"]),
}


# ------------------------------------------------------- expression builder


@dataclass(frozen=True, eq=False)
class ChainLevel:
    """The eval of level ``level`` of an expression chain compiled into
    ``program``: ``evaluate(program, t, level)``; its repr leaves the
    program out."""

    program: Program = field(repr=False)
    level: int

    def __call__(self, t):
        return evaluate(self.program, t, self.level)


def eval_levels(specs: Sequence[FunctionSpec], t) -> Iterator:
    """f.eval(t) for f in specs, in turn: from one ``evaluate`` call over
    the union of their steps when every eval is a level of one expression
    chain (``ChainLevel``), so each step they share runs once, else each
    eval on demand, so that one value is alive at a time."""
    evals = [f.eval for f in specs]
    if evals and all(isinstance(e, ChainLevel) and e.program is evals[0].program for e in evals):
        return iter(evaluate(evals[0].program, t, tuple(e.level for e in evals)))
    return (e(t) for e in evals)


def function_from_expression(
    name: str,
    text: str,
    domain: Optional[Tuple[float, float]] = None,
    orders: int = 0,
    exact_modulus: Optional[str] = None,
    sup_norm: Optional[float] = None,
    grid_window: Optional[Tuple[float, float]] = None,
) -> FunctionSpec:
    """Build a FunctionSpec (with symbolic derivatives) from an expression;
    the chain is compiled once, and the eval of derivative k is level k of
    that program (a ``ChainLevel``).  A derivative whose root simplifies
    to the constant 0 declares sup_norm 0.0, which its sampled sup would
    read, so that a Caputo table skips its nodes."""
    chain = derivatives(parse(text), orders)
    program = compile(*chain)

    mod = None if exact_modulus is None else modulus_from_registry(exact_modulus, domain)
    zero = [0.0 if isinstance(root, Num) and root.value == 0.0 else None for root in chain[1:]]
    return _chain(
        name, [ChainLevel(program, k) for k in range(orders + 1)], domain,
        [mod] + [None] * orders, [sup_norm] + zero, grid_window,
    )
