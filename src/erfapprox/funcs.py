"""Function descriptors consumed by the operators and bound evaluators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

from .errors import MissingDerivative, PreconditionViolated

#: Interval domain as (a, b); None means the whole real line.
Domain = Optional[Tuple[float, float]]

#: points of a function's grid sample on its sample window: the grid of
#: its sampled sup norm and the coarse grid of its omega_1 estimate
SAMPLE_POINTS = 4096


@dataclass(frozen=True, eq=False)
class FunctionSpec:
    """A real function of one real variable plus the metadata bounds need.

    ``eval`` must accept scalars and numpy arrays.  ``derivatives`` holds
    closed-form derivatives of orders 1..N, each itself a FunctionSpec so
    it can carry its own exact modulus and sup norm.  ``exact_modulus``
    is the closed-form first modulus of continuity on the declared domain;
    ``sup_norm`` the supremum of |f| there.  ``grid_window`` is the
    compact x-range used for grid sampling of whole-line functions.

    A spec is equal only to itself and hashes by identity, so a memo keyed
    by one costs O(1) at any derivative order; its repr leaves out the
    derivatives, whose own reprs would repeat every level below them.
    """

    name: str
    eval: Callable
    domain: Domain = None
    derivatives: Sequence["FunctionSpec"] = field(default_factory=tuple, repr=False)
    exact_modulus: Optional[Callable[[float], float]] = None
    sup_norm: Optional[float] = None
    grid_window: Optional[Tuple[float, float]] = None

    def __call__(self, x):
        return self.eval(x)

    @property
    def parts(self) -> Tuple["FunctionSpec", ...]:
        """Real components, measured one by one: just this function."""
        return (self,)

    def derivative(self, order: int) -> "FunctionSpec":
        if order < 1 or order > len(self.derivatives):
            raise MissingDerivative(
                f"{self.name}: derivative of order {order} not supplied "
                f"(have {len(self.derivatives)})"
            )
        return self.derivatives[order - 1]

    def sample_window(self) -> Tuple[float, float]:
        """Compact window for grid evaluation; domain, else grid_window."""
        if self.domain is not None:
            return self.domain
        if self.grid_window is not None:
            return self.grid_window
        return (-8.0, 8.0)


@dataclass(frozen=True, eq=False)
class ComplexFunctionSpec:
    """A complex-valued function given by its real and imaginary parts,
    equal only to itself like its parts."""

    name: str
    re: FunctionSpec
    im: FunctionSpec

    def __post_init__(self):
        if self.re.domain != self.im.domain:
            raise PreconditionViolated(
                f"{self.name}: real and imaginary parts must share a domain"
            )

    @property
    def domain(self) -> Domain:
        return self.re.domain

    @property
    def parts(self) -> Tuple[FunctionSpec, FunctionSpec]:
        return (self.re, self.im)

    def sample_window(self) -> Tuple[float, float]:
        """The hull of both parts' sample windows, so that each part is
        sampled over the whole of its own."""
        (lo1, hi1), (lo2, hi2) = self.re.sample_window(), self.im.sample_window()
        return min(lo1, lo2), max(hi1, hi2)
