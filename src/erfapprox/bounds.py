"""Right-hand sides of every approximation theorem, empirical error
measurement, verdicts, and convergence-rate fitting.

Theorem ids:

* T12/T13/T14/T15: first-order Jackson bounds for the A/B/C/D operators,
  one core at the modulus step n^-alpha (A, B) or 1/n + n^-alpha (C, D).
* T16: high-order bound for the interval operator using derivatives 1..N.
* T30: fractional bound from Caputo moduli and T16's Taylor sum; C31
  (0 < alpha < 1) and C33 (alpha = 1/2) are its sup form.
* T36/T37/T38/T41: complex-valued companions (componentwise terms
  added); T39: complex fractional companion.

Each theorem is declared by one row of ``THEOREMS``: its corpus pool,
operator families, bound function, the bound's parameters with their
defaults, and swept parameter; it alone says what a theorem reads.  Every
bound is called as bound(f, n, exponent, **params, run=run): the window
is f's own (its domain, or its sample window on the whole line), and the
grid and steps come from the ``Run``.

The constant 1/chi(1) ~= 4.0188 enters every interval-operator bound at
full precision.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import CriticalPointViolated, DegenerateFit, PreconditionViolated
from .fractional import (
    FractionalSpec,
    caputo_table,
    gamma_fn,
    table_modulus,
)
from .funcs import SAMPLE_POINTS, ComplexFunctionSpec, FunctionSpec
from .modulus import evaluate_modulus, window_sizes
from .operators import OperatorConfig, QuadratureWeights, Workspace, apply_operator
from .partition import tail_bound, tail_core
from .special_functions import INV_CHI_AT_ONE


@dataclass(frozen=True)
class BoundReport:
    theorem_id: str
    function_id: str
    family: str
    n: int
    rate_exponent: float
    point_mode: str             # "pointwise x" or "sup over grid"
    empirical_error: float
    bound_value: float
    terms: Dict[str, float]
    modulus_quality: str        # "exact" or "estimated"
    verdict: str                # "holds", "violated", "inconclusive-estimated", "non-finite"

    @property
    def slack(self) -> float:
        return self.bound_value - self.empirical_error


def _verdict(empirical: float, bound: float, quality: str) -> str:
    if not (math.isfinite(empirical) and math.isfinite(bound)):
        return "non-finite"
    if empirical <= bound * (1.0 + 1e-9):
        return "holds"
    return "violated" if quality == "exact" else "inconclusive-estimated"


@dataclass(frozen=True)
class GridPolicy:
    """x-sampling: grid-sup resolution, pointwise-check resolution, and
    fractional anchor grid.

    With ``refinement`` the grid sup is taken on the refined grid of
    2 * x_points - 1 points alone: it holds the x_points grid bit for bit
    as its even samples, so the coarse pass is read from it, not evaluated
    again.
    """

    x_points: int = 2048
    refinement: bool = True
    pointwise_points: int = 17
    anchors: int = 33
    table_points: int = 513

    #: each count's least value; the config schema reads it from here
    LEAST: ClassVar[Dict[str, int]] = {
        "x_points": 2, "pointwise_points": 1, "anchors": 1, "table_points": 2}

    def __post_init__(self):
        for key, least in self.LEAST.items():
            value = getattr(self, key)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise PreconditionViolated(f"GridPolicy.{key} must be an integer, got {value!r}")
            if value < least:
                raise PreconditionViolated(f"GridPolicy.{key} must be >= {least}")


# ------------------------------------------------------- first-order bounds


def _jackson(f: FunctionSpec, n: int, alpha: float, delta: float, run: Optional[Run]):
    """omega_1(f, delta) + ||f|| tail, the first-order bound at the modulus
    step delta, both read from f's modulus entry in run (a run of this n
    and alpha alone when None); returns (value, terms, modulus quality)."""
    omega, quality, sup = (run or Run.of((n,), (alpha,))).modulus(f, delta)
    tail = sup * tail_core(n, alpha)
    terms = {"modulus_term": omega, "tail_term": tail}
    return omega + tail, terms, quality


def mu2(f: FunctionSpec, n: int, alpha: float, *, run: Optional[Run] = None):
    """Line-operator bound: the Jackson core at the step n^-alpha."""
    return _jackson(f, n, alpha, float(n) ** (-alpha), run)


def mu1(f: FunctionSpec, n: int, alpha: float, *, run: Optional[Run] = None):
    """Interval-operator bound: exactly 1/chi(1) times the mu2 core."""
    core, terms, quality = mu2(f, n, alpha, run=run)
    terms = {k: INV_CHI_AT_ONE * v for k, v in terms.items()}
    return INV_CHI_AT_ONE * core, terms, quality


def mu3(f: FunctionSpec, n: int, alpha: float, *, run: Optional[Run] = None):
    """Kantorovich/quadrature bound: the Jackson core at the step 1/n + n^-alpha."""
    return _jackson(f, n, alpha, 1.0 / n + float(n) ** (-alpha), run)


# ------------------------------------------------------- high-order bound


def _interval(f, x: Optional[float] = None) -> Tuple[float, float]:
    """f's interval [a, b], which the bounds of the interval operator A
    read; a point x the bound is taken at must lie in it."""
    if f.domain is None:
        raise PreconditionViolated(f"{f.name}: the bound needs an interval [a, b]")
    a, b = f.domain
    if x is not None and not a <= x <= b:
        raise PreconditionViolated(f"{f.name}: x = {x} is not in [a, b] = [{a}, {b}]")
    return f.domain


def _taylor_sum(f: FunctionSpec, order: int, mode: str, x: Optional[float], n: int,
                exponent: float, width: float, tail: float, run: Run) -> float:
    """T16's and T30's derivative sum_{j<=order} c_j/j! (n^(-exponent j) + width^j tail)
    with c_j = |f^(j)(x)| ("pointwise") or ||f^(j)|| ("sup", read through
    run).  "critical" omits it but requires f^(j)(x) = 0 (to 1e-12) for
    j = 1..order; other modes omit it."""
    if mode in ("pointwise", "critical"):
        coeffs = [abs(float(f.derivative(j)(x))) for j in range(1, order + 1)]
    elif mode == "sup":
        coeffs = [run.sup(f.derivative(j)) for j in range(1, order + 1)]
    else:
        return 0.0
    if mode == "critical":
        for j, dv in enumerate(coeffs, start=1):
            if not dv <= 1e-12:         # a nan derivative does not vanish
                raise CriticalPointViolated(f"{f.name}: |f^({j})({x})| = {dv:.3e} > 1e-12")
        return 0.0
    total = 0.0
    for j, cj in enumerate(coeffs, start=1):
        total += (cj / math.factorial(j)) * (float(n) ** (-exponent * j) + width ** j * tail)
    return total


def highorder_bound(f: FunctionSpec, n: int, alpha: float, N: int, mode: str = "sup",
                    x: Optional[float] = None, *, run: Optional[Run] = None):
    """High-order bound on f's interval; mode selects the pointwise form
    (with |f^(j)(x)|), the sup form (with ||f^(j)||), or the critical-point
    form (derivative sum omitted, requires f^(j)(x) = 0 for j = 1..N).
    The modulus and sup norms are read from run (a run of this n and alpha
    alone when None).

    Returns (value, terms, modulus quality).
    """
    if mode not in ("pointwise", "sup", "critical"):
        raise PreconditionViolated(f"unknown mode {mode!r}")
    run = run or Run.of((n,), (alpha,))
    tc = tail_core(n, alpha)
    a, b = _interval(f, x)
    width = b - a
    omega, quality, sup = run.modulus(f.derivative(N), float(n) ** (-alpha))
    n_fact = math.factorial(N)
    final_block = (
        omega / (float(n) ** (alpha * N) * n_fact)
        + sup * width ** N / n_fact * tc
    )
    deriv_sum = _taylor_sum(f, N, mode, x, n, alpha, width, tc / 2.0, run)

    value = INV_CHI_AT_ONE * (deriv_sum + final_block)
    terms = {
        "derivative_sum": INV_CHI_AT_ONE * deriv_sum,
        "modulus_block": INV_CHI_AT_ONE * final_block,
    }
    return value, terms, quality


# ------------------------------------------------------- fractional bounds


def _anchor_data(f: FunctionSpec, orders: Tuple[float, ...], xs: np.ndarray, points: int,
                 deltas: Tuple[float, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """Caputo moduli and sups at the anchors xs in f's interval for every
    order of orders: (moduli, sups) of shapes (orders, anchors, 2,
    len(deltas)) and (orders, anchors, 2), side 0 the right derivative on
    [a, x] and side 1 the left one on [x, b] (zeros for an empty side).

    Each (anchor, side) is one caputo_table call for all the orders.  The
    sides whose table grids give equal window sizes at deltas (the right
    side at anchor k and the left one at anchor anchors - 1 - k cover equal
    lengths) form a group, whose rows are stacked and read at every step in
    one table_modulus call; a group's tables are dropped once read."""
    a, b = f.domain
    moduli = np.zeros((len(orders), len(xs), 2, len(deltas)))
    sups = np.zeros((len(orders), len(xs), 2))
    groups: Dict[Tuple[int, ...], list] = {}
    for k, x in enumerate(xs.tolist()):
        for i, (side, sub) in enumerate((("right", (a, x)), ("left", (x, b)))):
            if sub[1] - sub[0] > 1e-12:
                key = window_sizes(sub, points, deltas)
                groups.setdefault(key, []).append((k, i, [FractionalSpec(alpha, x, side)
                                                          for alpha in orders], sub))
    for members in groups.values():
        tables = [caputo_table(f, specs, sub, points) for _, _, specs, sub in members]
        values = np.stack([rows for _, rows in tables])         # (members, orders, points)
        ks, sides = [m[0] for m in members], [m[1] for m in members]
        sups[:, ks, sides] = np.max(np.abs(values), axis=-1).T
        moduli[:, ks, sides] = table_modulus((tables[0][0], values), deltas).swapaxes(0, 1)
    return moduli, sups


@lru_cache(maxsize=32)
def _anchor_tables(f: FunctionSpec, orders: Tuple[float, ...], grid: GridPolicy,
                   deltas: Tuple[float, ...]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Caputo moduli and sups at grid.anchors points xs across f's interval,
    on tables of grid.table_points points, for every order of orders (a
    run's whole set that f's chain can take, so one entry serves each of
    its fractional groups) and every step in deltas (a run's whole set, so
    one entry serves each n and exponent): (xs, moduli, sups) of shapes
    (anchors,), (orders, anchors, 2, len(deltas)) and (orders, anchors, 2)
    from ``_anchor_data``; no table is kept.

    The cache is process-wide (lru_cache, 32 entries) and keeps its entries
    after a run returns; the benchmark's trace reads its hit counts through
    ``cache_info()``.
    """
    xs = np.linspace(*_interval(f), grid.anchors)
    return (xs,) + _anchor_data(f, orders, xs, grid.table_points, deltas)


def fractional_bound(f: FunctionSpec, n: int, beta: float, alpha_frac: float,
                     mode: str = "sup", x: Optional[float] = None, *,
                     run: Optional[Run] = None):
    """Fractional bound on f's interval, built from Caputo moduli and sups.

    Modes: "taylor_pointwise" (Taylor terms moved to the left-hand side),
    "critical" (same value, valid only when f^(j)(x) = 0 for j < N),
    "pointwise" (full right-hand side with |f^(j)(x)| terms) and "sup"
    (uniform form, anchor-grid suprema).  The sup form at 0 < alpha < 1
    is C31's bound and at alpha = 1/2 C33's.

    run (a run of this n and beta alone when None) gives the anchor grid,
    the steps each Caputo table is read at, ``Run.deltas``, and the other
    orders whose tables are built with alpha_frac's, f's entry in
    ``Run.orders``; the bound reads the entries of its own order and of
    its own step n^-beta, which must be one of the steps.
    The sup form takes the maximum over the anchors, so a NaN at any anchor
    makes it NaN; a pointwise form reads the anchor nearest x, or x's own
    tables at the run's steps when x is off the grid.  The sup form's
    derivative sup norms are read from run too.

    Returns (value, terms, modulus quality); quality is always
    "estimated" because Caputo moduli come from sampled tables.
    """
    run = run or Run.of((n,), (beta,))
    a, b = _interval(f, x)
    N = FractionalSpec(alpha_frac, 0.5 * (a + b), "left").N
    pointwise = mode in ("taylor_pointwise", "critical", "pointwise")
    if not pointwise and mode != "sup":
        raise PreconditionViolated(f"unknown mode {mode!r}")
    delta = float(n) ** (-beta)
    if delta not in run.deltas:
        raise PreconditionViolated(f"Caputo step {delta!r} is not one of the run's")
    j = run.deltas.index(delta)
    htc = tail_bound(n, beta)
    gamma_factor = 1.0 / gamma_fn(alpha_frac + 1.0)
    orders = tuple(sorted({alpha_frac, *run.orders.get(f, ())}))
    xs, moduli, sups = _anchor_tables(f, orders, run.grid, run.deltas)
    i = orders.index(alpha_frac)
    moduli, sups = moduli[i], sups[i]
    if pointwise:
        if x is None:
            raise PreconditionViolated(f"mode {mode} needs an evaluation point x")
        k = int(np.argmin(np.abs(xs - x)))
        if abs(xs[k] - x) > 1e-9 * (1.0 + abs(x)):    # off the anchor grid
            moduli, sups = _anchor_data(f, (alpha_frac,), np.array([x]),
                                        run.grid.table_points, run.deltas)
            moduli, sups = moduli[0, 0], sups[0, 0]
        else:
            moduli, sups = moduli[k], sups[k]
    else:
        moduli, sups = moduli.max(axis=0), sups.max(axis=0)
    (wr, wl), (sr, sl) = moduli[:, j].tolist(), sups.tolist()
    if pointwise:
        sup_term = htc * (sr * (x - a) ** alpha_frac + sl * (b - x) ** alpha_frac)
    else:
        sup_term = htc * (b - a) ** alpha_frac * (sr + sl)
    frac_block = gamma_factor * ((wr + wl) / float(n) ** (alpha_frac * beta) + sup_term)
    deriv_sum = _taylor_sum(f, N - 1, mode, x, n, beta, b - a, htc, run)
    value = INV_CHI_AT_ONE * (deriv_sum + frac_block)
    terms = {
        "derivative_sum": INV_CHI_AT_ONE * deriv_sum,
        "fractional_block": INV_CHI_AT_ONE * frac_block,
    }
    return value, terms, "estimated"


def remark34_check(f: FunctionSpec, beta: float, sweep: Sequence[int],
                   grid: GridPolicy = GridPolicy()):
    """Certify the linear-modulus premise for the accelerated n^(-3 beta/2)
    uniform rate at fractional order 1/2, on grid's anchors across f's
    interval.

    The premise asks sup_x omega_1(Caputo derivative, n^-beta) <= K/n^beta
    for all n.  It is certified empirically iff q(n) = n^beta * sup-modulus
    is finite and non-increasing along the sweep; K is then max q(n), NaN
    when any q(n) is.  The sup-moduli are read from the anchor arrays at
    the steps of ``Run.of(sweep, (beta,), grid)``.  Returns (certified, K).
    """
    if not sweep:
        raise PreconditionViolated("remark34_check needs a non-empty sweep")
    run = Run.of(sweep, (beta,), grid)
    _, moduli, _ = _anchor_tables(f, (0.5,), grid, run.deltas)
    sup_mod = moduli[0].max(axis=0).sum(axis=0).tolist()     # right + left
    qs = [float(n) ** beta * sup_mod[run.deltas.index(float(n) ** (-beta))] for n in sweep]
    K = float(np.max(qs))
    certified = math.isfinite(K) and all(
        qs[i + 1] <= qs[i] * (1.0 + 1e-9) + 1e-15 for i in range(len(qs) - 1)
    )
    return certified, K


# ------------------------------------------------------- complex bounds


def complex_bound(f: ComplexFunctionSpec, real_bound, *args, **kw):
    """Complex-operator bound: the real theorem's bound applied to the real
    and imaginary parts with the same arguments, values and terms added.

    The modulus quality is exact only when both parts' is.
    """
    v1, t1, q1 = real_bound(f.re, *args, **kw)
    v2, t2, q2 = real_bound(f.im, *args, **kw)
    terms = {k: t1[k] + t2[k] for k in t1}
    quality = "exact" if q1 == "exact" and q2 == "exact" else "estimated"
    return v1 + v2, terms, quality


# ------------------------------------------------------- empirical errors


def _monomial_images(x: float, cfg: OperatorConfig, order: int,
                     work: Optional[Workspace]) -> List[float]:
    """Operator images at x of the shifted monomials (t - x)^j, j = 1..order-1."""
    return [
        apply_operator(FunctionSpec("shifted_power",
                                    lambda t, _j=j: (np.asarray(t, float) - x) ** _j), x, cfg,
                       work)
        for j in range(1, order)
    ]


def _taylor_image(f: FunctionSpec, x: float, monomials: Sequence[float]) -> float:
    """Operator image at x of the Taylor terms of f about x of orders 1..N-1,
    from the images of the shifted monomials."""
    corr = 0.0
    for j, image in enumerate(monomials, start=1):
        corr += float(f.derivative(j)(x)) / math.factorial(j) * image
    return corr


def _deviations(f, x, cfg: OperatorConfig, taylor_order: int = 0, *, values=None,
                work: Optional[Workspace] = None) -> list:
    """Op p - p at x (a point or a grid) for each part p of f, the images
    of every part from one operator call run in work.  values, when given,
    are f's parts at x.  A taylor_order N > 1 first subtracts the operator
    image of p's Taylor terms of orders 1..N-1 at the point x; the shifted
    monomials' images are shared by both parts."""
    images = apply_operator(f, x, cfg, work)
    if len(f.parts) == 1:
        images = (images,)
    monomials = _monomial_images(x, cfg, taylor_order, work)
    if values is None:
        values = [p.eval(x) for p in f.parts]
    return [
        image - _taylor_image(p, x, monomials) - value
        for image, p, value in zip(images, f.parts, values)
    ]


def _deviation(f, x, cfg: OperatorConfig, taylor_order: int = 0, *,
               work: Optional[Workspace] = None):
    """|Op f - f| at x (see ``_deviations``): the hypot of a complex f's parts."""
    devs = _deviations(f, x, cfg, taylor_order, work=work)
    return np.hypot(*devs) if len(devs) == 2 else np.abs(devs[0])


def _sup_error(f, cfg: OperatorConfig, run: Run) -> float:
    """Grid sup of |Op f - f| over f's sup grid (``Run.sup_sample``).

    Each distinct (f, cfg) is measured once per run and later calls read
    the float stored in run.sup_errors.  One operator call gives the
    images of every part of f: a complex f's error is the max over its
    sup grid of the hypot of its parts' |Op p - p|, and each part whose
    own sup grid is f's gets its real entry from the same call, so a run
    that measures a complex function before its parts measures each image
    once (``harness.run_verify`` runs the complex groups first).  The part
    is sampled on its own grid there and each part's image is computed
    alone, so its entry is the same bit for bit as from its own call.
    """
    if (f, cfg) not in run.sup_errors:
        xs, values = run.sup_sample(f)
        devs = [np.abs(dev) for dev in _deviations(f, xs, cfg, values=values, work=run.work)]
        window = f.sample_window()
        for p, dev in zip(f.parts, devs):
            if p.sample_window() == window:
                run.sup_errors.setdefault((p, cfg), float(np.max(dev)))
        if len(devs) == 2:
            run.sup_errors[f, cfg] = float(np.max(np.hypot(*devs)))
    return run.sup_errors[f, cfg]


def fit_rate(points: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Least-squares slope of log error against log n, with r squared."""
    if len(points) < 3:
        raise DegenerateFit(f"need >= 3 points, got {len(points)}")
    ns = np.array([p[0] for p in points], dtype=float)
    es = np.array([p[1] for p in points], dtype=float)
    if not np.all((ns > 0.0) & (ns < math.inf)):
        raise DegenerateFit("all n must be finite and > 0")
    if not np.all((es > 0.0) & (es < math.inf)):
        raise DegenerateFit("all errors must be finite and > 0")
    if np.all(ns == ns[0]):
        raise DegenerateFit("all n equal")
    lx, ly = np.log(ns), np.log(es)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return float(slope), r2


# ------------------------------------------------------- theorem table


@dataclass(frozen=True)
class Theorem:
    """Everything the harness knows about one theorem.

    ``pool`` names the corpus dict in ``erfapprox.corpus`` that builtin
    functions are drawn from.  ``families`` are the operators measured, one
    report row each, all against one bound: ``bound`` names a real bound
    function of this module, applied through ``complex_bound`` when
    ``complex``.  ``params`` are the keyword parameters the bound takes
    after (f, n, exponent) besides the run, with the values verify passes
    when not given; a bound with pointwise forms takes mode and x.
    ``param`` ("N" or "alpha_frac") is swept over the config's
    ``highorder_orders`` or ``fractional_orders``; only values inside the
    open range ``orders`` are admissible.  A theorem without one reads its
    bound at the default in ``params`` (C33 at alpha_frac = 1/2).
    """

    pool: str
    families: Tuple[str, ...]
    bound: str
    complex: bool = False
    params: Dict[str, object] = field(default_factory=dict)
    param: Optional[str] = None
    orders: Tuple[float, float] = (-math.inf, math.inf)

    def derivative_order(self, kw: dict) -> int:
        """Highest derivative of f one cell with parameters kw consumes."""
        if "N" in self.params:
            return int(kw.get("N", self.params["N"]))
        if "alpha_frac" in self.params:
            return math.ceil(kw.get("alpha_frac", self.params["alpha_frac"]))
        return 0


#: the ``params`` of the rows of highorder_bound and of fractional_bound
_HIGHORDER = {"N": 1, "mode": "sup", "x": None}
_FRACTIONAL = {"alpha_frac": 0.5, "mode": "sup", "x": None}

THEOREMS: Dict[str, Theorem] = {
    "T12": Theorem("INTERVAL_CORPUS", ("A",), "mu1"),
    "T13": Theorem("LINE_CORPUS", ("B",), "mu2"),
    "T14": Theorem("LINE_CORPUS", ("C",), "mu3"),
    "T15": Theorem("LINE_CORPUS", ("D",), "mu3"),
    "T16": Theorem("INTERVAL_CORPUS", ("A",), "highorder_bound", params=_HIGHORDER,
                   param="N"),
    "T30": Theorem("FRACTIONAL_CORPUS", ("A",), "fractional_bound", params=_FRACTIONAL,
                   param="alpha_frac"),
    "C31": Theorem("FRACTIONAL_CORPUS", ("A",), "fractional_bound", params=_FRACTIONAL,
                   param="alpha_frac", orders=(0.0, 1.0)),
    "C33": Theorem("FRACTIONAL_CORPUS", ("A",), "fractional_bound", params=_FRACTIONAL),
    "T36": Theorem("COMPLEX_INTERVAL_CORPUS", ("A",), "mu1", complex=True),
    "T37": Theorem("COMPLEX_LINE_CORPUS", ("B",), "mu2", complex=True),
    "T38": Theorem("COMPLEX_INTERVAL_CORPUS", ("A",), "highorder_bound", complex=True,
                   params=_HIGHORDER, param="N"),
    "T39": Theorem("COMPLEX_INTERVAL_CORPUS", ("A",), "fractional_bound", complex=True,
                   params=_FRACTIONAL, param="alpha_frac", orders=(0.0, 2.0)),
    "T41": Theorem("COMPLEX_LINE_CORPUS", ("C", "D"), "mu3", complex=True),
}


# ------------------------------------------------------- verify


_DEFAULT_THETA = 4


@dataclass
class Run:
    """What the verify calls of one run share:

    * ``grid``: the run's x-sampling and Caputo anchor grid;
    * ``sup_errors``: each distinct grid-sup error, measured once; a
      complex function's call also stores those of its parts that share
      its sup grid (``_sup_error``);
    * ``deltas``: every modulus step float(n) ** (-e) of the run's sweep
      and exponents, sorted, at which each Caputo table is read once when
      it is built;
    * ``orders``: per function (each part of a complex one), the orders
      alpha_frac its fractional groups read, as ``harness._plan`` records
      them; a fractional bound builds f's tables for these and its own;
    * ``steps``: every Jackson step, ``deltas`` and mu3's 1/n + n^-e,
      sorted;
    * ``moduli``: per function, one ``ModulusResult`` holding omega_1 and
      its refinement gap at every step on the function's sample window,
      from one sample of the function;
    * ``sups``: per function, max |f| on the ``funcs.SAMPLE_POINTS`` grid
      of its sample window, whatever sup_norm it declares: the sup of its
      modulus entry's sample, or of one sample alone when no entry holds
      one (its omega is exact or never read);
    * ``sample``: the last function's sup grid and its parts' values there
      (``sup_sample``), so that its n and families share one evaluation;
    * ``work``: the ``operators.Workspace`` every operator call of the run
      writes its kernel into, grown to the largest call; it goes with the
      run.
    """

    deltas: Tuple[float, ...]
    steps: Tuple[float, ...]
    grid: GridPolicy = GridPolicy()
    orders: dict = field(default_factory=dict)
    sup_errors: dict = field(default_factory=dict)
    moduli: dict = field(default_factory=dict)
    sups: dict = field(default_factory=dict)
    sample: Optional[tuple] = field(default=None, repr=False, compare=False)
    work: Workspace = field(default_factory=Workspace, repr=False, compare=False)

    @staticmethod
    def of(sweep: Sequence[int], exponents: Sequence[float],
           grid: GridPolicy = GridPolicy()) -> "Run":
        _check_sweep(sweep)
        deltas = {float(n) ** (-e) for n in sweep for e in exponents}
        steps = deltas | {1.0 / n + float(n) ** (-e) for n in sweep for e in exponents}
        return Run(tuple(sorted(deltas)), tuple(sorted(steps)), grid)

    def modulus(self, f: FunctionSpec, delta: float) -> Tuple[float, str, float]:
        """(omega_1(f, delta) on f's sample window, its quality, f's sup
        norm), read from f's entry; delta must be one of the steps."""
        if delta not in self.steps:
            raise PreconditionViolated(f"modulus step {delta!r} is not one of the run's")
        mq = self._entry(f)
        return float(mq.value[self.steps.index(delta)]), mq.quality, self.sup(f)

    def sup(self, f: FunctionSpec) -> float:
        """f's sup norm: the declared sup_norm, else its sampled sup."""
        return f.sup_norm if f.sup_norm is not None else self.sampled_sup(f)

    def sampled_sup(self, f: FunctionSpec, modulus: bool = False) -> float:
        """f's entry in ``sups``.  With modulus, f's modulus entry is made
        first, so that its sample gives the sup; without one that holds a
        sample, f is sampled alone on first use, with no omega pass."""
        if modulus:
            self._entry(f)
        if f not in self.sups:
            xs = np.linspace(*f.sample_window(), SAMPLE_POINTS)
            self.sups[f] = float(np.max(np.abs(f.eval(xs))))
        return self.sups[f]

    def sup_sample(self, f) -> Tuple[np.ndarray, tuple]:
        """(xs, values): f's sup grid on its sample window (for a complex
        f the hull of its parts'), the refined grid of 2 * x_points - 1
        points when grid.refinement is on (its even samples are the
        x_points grid, so the coarse maximum is never larger), and f's
        parts evaluated there.  The last f's are kept in ``sample``;
        elementwise evaluation makes them the values a fresh evaluation
        would give."""
        if self.sample is None or self.sample[0] is not f:
            points = 2 * self.grid.x_points - 1 if self.grid.refinement else self.grid.x_points
            xs = np.linspace(*f.sample_window(), points)
            self.sample = (f, xs, tuple(p.eval(xs) for p in f.parts))
        return self.sample[1:]

    def _entry(self, f: FunctionSpec):
        """f's entry in ``moduli``, made on first use by one evaluate_modulus
        call at every step; its sample's sup goes to ``sups``."""
        if f not in self.moduli:
            mq = self.moduli[f] = evaluate_modulus(f, self.steps)
            if mq.sup is not None:
                self.sups[f] = mq.sup
        return self.moduli[f]


def _check_sweep(sweep: Sequence[int]):
    """Name the first entry that is a bool, not an integer value or below 1."""
    for n in sweep:
        if (isinstance(n, bool) or not isinstance(n, numbers.Real)
                or not float(n).is_integer() or n < 1):
            raise PreconditionViolated(f"sweep entry {n!r} must be an integer >= 1")


def _family_config(family: str, n: int, interval=None) -> OperatorConfig:
    if family == "A":
        return OperatorConfig("A", n, interval=interval)
    if family == "D":
        return OperatorConfig("D", n, weights=QuadratureWeights.uniform(_DEFAULT_THETA))
    return OperatorConfig(family, n)


def verify(
    theorem_id: str,
    f: Union[FunctionSpec, ComplexFunctionSpec],
    sweep: Sequence[int],
    rate_exponent: float,
    grid: GridPolicy = GridPolicy(),
    *,
    run: Optional[Run] = None,
    **kw,
) -> List[BoundReport]:
    """Measure empirical operator error against the theorem's bound for
    every n in the sweep; one report row per n and operator family.

    ``run``, shared by the calls of one run (``Run.of(sweep,
    (rate_exponent,), grid)`` when omitted), stores each distinct grid-sup
    error so that rows measuring the same operator image reuse it, and
    names the steps each Caputo table is read at; its grid must be grid.

    A row whose error or bound is not finite (a pole, an overflow) at any
    of its points gets the verdict "non-finite" instead of a comparison.

    Extra keyword arguments: the theorem's parameter (N or alpha_frac) and,
    for a bound with modes, mode (default "sup") and, with mode="critical"
    only, x, the point that mode evaluates at (default 0); any other
    raises.  The bound is called with the theorem's ``params``, these
    given values in place of their defaults.  The "pointwise" and
    "taylor_pointwise" modes report the worst of grid.pointwise_points
    points by error-to-bound ratio.
    """
    th = THEOREMS.get(theorem_id)
    if th is None:
        raise PreconditionViolated(f"unknown theorem id {theorem_id!r}")
    reads = {th.param}
    if "mode" in th.params:
        reads |= {"mode", "x"} if kw.get("mode") == "critical" else {"mode"}
    if set(kw) - reads:
        raise PreconditionViolated(f"{theorem_id} does not read {sorted(set(kw) - reads)}")
    params = {k: kw.get(k, v) for k, v in th.params.items()}
    if th.param is not None:
        lo, hi = th.orders
        if not lo < params[th.param] < hi:
            raise PreconditionViolated(f"{theorem_id} needs {lo:g} < {th.param} < {hi:g}, "
                                       f"got {params[th.param]}")
    _check_sweep(sweep)
    if run is None:
        run = Run.of(sweep, (rate_exponent,), grid)
    elif run.grid != grid:
        raise PreconditionViolated(f"the run's grid {run.grid} is not grid {grid}")
    rows: List[BoundReport] = []
    for n in sweep:
        rows.extend(_verify_one(theorem_id, th, f, int(n), rate_exponent, run, params))
    return rows


def _verify_one(tid, th: Theorem, f, n, ex, run: Run, params: dict) -> List[BoundReport]:
    mode = params.get("mode", "sup")
    if mode == "critical":
        points = [0.0 if params["x"] is None else params["x"]]
        point_mode = "pointwise x"
    elif mode in ("pointwise", "taylor_pointwise"):
        points = [float(x) for x in np.linspace(*_interval(f), run.grid.pointwise_points)]
        point_mode = "pointwise x"
    else:
        points, point_mode = [None], "sup over grid"
    taylor = th.derivative_order(params) if mode == "taylor_pointwise" else 0
    cfgs = [_family_config(family, n, f.domain) for family in th.families]

    # looked up at call time so rebinding a module global reaches every row
    real_bound = globals()[th.bound]
    worst = [None] * len(cfgs)
    for x in points:
        kw = {**params, "x": x} if "x" in params else params
        if th.complex:
            value, terms, quality = complex_bound(f, real_bound, n, ex, **kw, run=run)
        else:
            value, terms, quality = real_bound(f, n, ex, **kw, run=run)
        for i, cfg in enumerate(cfgs):
            if x is None:
                emp = _sup_error(f, cfg, run)
            else:
                emp = float(_deviation(f, x, cfg, taylor, work=run.work))
            # a non-finite point outranks every finite one, so its row reads
            # "non-finite" (a nan ratio would never compare greater)
            finite = math.isfinite(emp) and math.isfinite(value)
            rank = (not finite, emp / value if finite and value > 0 else math.inf)
            if worst[i] is None or rank > worst[i][0]:
                worst[i] = (rank, emp, value, terms, quality)
    return [
        BoundReport(tid, f.name, family, n, ex, point_mode, emp, value, terms, quality,
                    _verdict(emp, value, quality))
        for family, (_, emp, value, terms, quality) in zip(th.families, worst)
    ]
