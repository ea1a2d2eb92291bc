"""Benchmark workloads: which config each one runs.  Every workload runs
serially (``jobs=1``).

``default`` runs the packaged ``default.yaml``; the seed does not change
it.  ``expr-dense`` runs a config drawn from the
seed: user expressions on random domains and bounded whole-line waves,
swept densely in n.  The program only ever sees the written YAML.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np
import yaml

PACKAGED_CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                               "src", "erfapprox", "default.yaml")


@dataclass(frozen=True)
class Workload:
    name: str
    generated: bool         # config drawn from the seed


WORKLOADS: Dict[str, Workload] = {
    "default": Workload("default", False),
    "expr-dense": Workload("expr-dense", True),
}

#: expr-dense shape: every seed gives the same groups, rows and grids,
#: so seeds vary the numbers the program sees but not the work it does
INTERVAL_FUNCTIONS = 5
LINE_FUNCTIONS = 3
DENSE_THEOREMS = ("T12", "T13", "T14", "T15", "T30")
DENSE_EXPONENT = 0.5
DENSE_FRACTIONAL_ORDERS = (0.5, 1.5)
#: 12 n per group: one repetition takes about 10-12 s on a 2-vCPU VM, so
#: three of them fit a run
DENSE_SWEEP_POINTS = 12
DENSE_N_MIN, DENSE_N_MAX = 16, 2048


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    """Two-decimal constant in [lo, hi] that is never 0 or 1, so the
    expression simplifier sees the same tree shape for every seed."""
    while True:
        v = round(rng.uniform(lo, hi), 2)
        if v not in (0.0, 1.0):
            return v


def dense_sweep() -> List[int]:
    ratio = (DENSE_N_MAX / DENSE_N_MIN) ** (1.0 / (DENSE_SWEEP_POINTS - 1))
    return [int(round(DENSE_N_MIN * ratio ** i)) for i in range(DENSE_SWEEP_POINTS)]


def expr_dense_functions(seed: int) -> List[Tuple[dict, Callable]]:
    """Finite, bounded expressions only: sums and products of sin, cos,
    exp(-c x^2) and polynomials, on compact domains or with a declared
    sup norm.  No exact moduli, so every modulus is a grid estimate.

    Returns (config entry, numpy function) pairs; the numpy function is
    the same expression written directly, for the oracle."""
    rng = random.Random(seed)
    out = []
    for i in range(INTERVAL_FUNCTIONS):
        lo = round(rng.uniform(-2.0, 0.5), 2)
        hi = round(lo + rng.uniform(1.0, 2.5), 2)
        if i % 2 == 0:
            p, q = _draw(rng, 0.5, 3.0), _draw(rng, 0.1, 0.9)
            text = f"sin({p}*x) + {q}*x^2"
            fn = lambda x, p=p, q=q: np.sin(p * x) + q * x ** 2  # noqa: E731
        else:
            p, q = _draw(rng, 0.3, 2.0), _draw(rng, 0.5, 3.0)
            text = f"exp(-{p}*x^2)*cos({q}*x)"
            fn = lambda x, p=p, q=q: np.exp(-p * x ** 2) * np.cos(q * x)  # noqa: E731
        out.append(({"id": f"g{i}", "expr": text, "domain": [lo, hi]}, fn))
    for i in range(LINE_FUNCTIONS):
        amp, p, q = _draw(rng, 0.2, 0.9), _draw(rng, 0.3, 2.5), _draw(rng, 0.3, 2.5)
        # a window of its own, so the waves share no operator kernel
        window = [round(rng.uniform(-7.0, -4.0), 2), round(rng.uniform(4.0, 7.0), 2)]
        out.append(({"id": f"w{i}", "expr": f"{amp}*sin({p}*x)*cos({q}*x)",
                     "sup_norm": amp, "grid_window": window},
                    lambda x, a=amp, p=p, q=q: a * np.sin(p * x) * np.cos(q * x)))
    return out


def expr_dense_config(seed: int) -> dict:
    functions = [spec for spec, _ in expr_dense_functions(seed)]
    return {
        "schema_version": 1,
        "functions": functions,
        "theorems": list(DENSE_THEOREMS),
        "sweep": dense_sweep(),
        "rate_exponents": [DENSE_EXPONENT],
        "fractional_orders": list(DENSE_FRACTIONAL_ORDERS),
        "grid": {"x_points": 2048, "refinement": True},
    }


def expected_dense_keys(config: dict) -> List[Tuple]:
    """Row keys the expr-dense config must produce, derived from the
    config alone: interval functions get T12 and T30 (one group per
    fractional order), whole-line waves get T13/T14/T15."""
    keys = []
    ex = float(config["rate_exponents"][0])
    for theorem in config["theorems"]:
        for spec in config["functions"]:
            interval = "domain" in spec
            if theorem in ("T12", "T30") and not interval:
                continue
            if theorem in ("T13", "T14", "T15") and interval:
                continue
            family = {"T13": "B", "T14": "C", "T15": "D"}.get(theorem, "A")
            groups = len(config["fractional_orders"]) if theorem == "T30" else 1
            for _ in range(groups):
                for n in config["sweep"]:
                    keys.append((theorem, spec["id"], family, int(n), ex, "sup over grid"))
    return keys


def write_config(workload: Workload, seed: int, out_dir: str) -> Tuple[str, str]:
    """Write the workload's config into out_dir; return (path, sha256)."""
    if workload.generated:
        text = yaml.safe_dump(expr_dense_config(seed), sort_keys=False)
    else:
        with open(PACKAGED_CONFIG) as fh:
            text = fh.read()
    path = os.path.join(out_dir, f"{workload.name}.yaml")
    with open(path, "w") as fh:
        fh.write(text)
    return path, hashlib.sha256(text.encode()).hexdigest()
