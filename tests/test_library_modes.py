"""verify in the modes only the library reaches: the pointwise,
taylor_pointwise and critical forms of the high-order and fractional
theorems, which no config selects.  Each error and bound is compared
with tests/data/library_modes.json by float.hex.

The file holds what these cases gave when it was written; regenerate it
only for an intended change of these numbers, with

    PYTHONPATH=src python tests/test_library_modes.py
"""

import json
from pathlib import Path

import pytest

from erfapprox import corpus
from erfapprox.bounds import THEOREMS, GridPolicy, verify
from erfapprox.errors import ErfApproxError

DATA = Path(__file__).parent / "data" / "library_modes.json"
GRID = GridPolicy(x_points=128, refinement=False, pointwise_points=5, anchors=5,
                  table_points=65)
SWEEP = (16, 81)
EXPONENT = 0.5

#: (theorem, functions, parameter values, modes, critical points)
PLAN = (
    ("T16", ("sq", "cos"), (1, 2), ("pointwise", "critical"), (0.0,)),
    ("T38", ("circle", "ramp_pair"), (1, 2), ("pointwise", "critical"), (0.0,)),
    ("T30", ("sq", "sin"), (0.5, 1.5), ("pointwise", "taylor_pointwise", "critical"),
     (0.0, 0.3)),
    ("T39", ("circle",), (0.5, 1.5), ("pointwise", "taylor_pointwise", "critical"), (0.0,)),
)


def cases():
    """(key, theorem, function, keyword arguments) of every case."""
    out = []
    for tid, names, values, modes, critical in PLAN:
        th = THEOREMS[tid]
        for name in names:
            for value in values:
                for mode in modes:
                    for x in critical if mode == "critical" else (None,):
                        kw = {th.param: value, "mode": mode}
                        if x is not None:
                            kw["x"] = x
                        # the keys name the point x0, as tests/data/library_modes.json does
                        key = f"{tid} {name} {th.param}={value} {mode}" + (
                            "" if x is None else f" x0={x}")
                        out.append((key, tid, getattr(corpus, th.pool)[name], kw))
    return out


def measure(tid, f, kw) -> dict:
    """The case's rows with error and bound as float.hex, or the name of
    the error verify raises."""
    try:
        rows = verify(tid, f, SWEEP, EXPONENT, GRID, **kw)
    except ErfApproxError as exc:
        return {"raises": type(exc).__name__}
    return {"rows": [
        {"family": r.family, "n": r.n, "point_mode": r.point_mode,
         "empirical_error": r.empirical_error.hex(), "bound": r.bound_value.hex(),
         "modulus_quality": r.modulus_quality, "verdict": r.verdict}
        for r in rows]}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("key, tid, f, kw", cases(), ids=[c[0] for c in cases()])
def test_matches_golden(golden, key, tid, f, kw):
    assert measure(tid, f, kw) == golden[key]


def test_golden_holds_every_case_and_rows_in_each_mode(golden):
    assert sorted(golden) == sorted(c[0] for c in cases())
    modes = {key.split()[3] for key, entry in golden.items() if "rows" in entry}
    assert modes == {"pointwise", "taylor_pointwise", "critical"}


if __name__ == "__main__":
    doc = {key: measure(tid, f, kw) for key, tid, f, kw in cases()}
    DATA.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
