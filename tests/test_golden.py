"""Golden reports, compared byte for byte: every theorem on a fast grid,
and the packaged default config."""

from pathlib import Path

import erfapprox
from erfapprox.harness import ExperimentConfig, run_verify, write_csv

DATA = Path(__file__).parent / "data"


def test_all_theorems_csv_matches_golden(tmp_path):
    cfg = ExperimentConfig.from_file(str(DATA / "golden.yaml"))
    assert set(cfg.theorems) == {
        "T12", "T13", "T14", "T15", "T16", "T30", "C31", "C33",
        "T36", "T37", "T38", "T39", "T41",
    }
    out = tmp_path / "golden.csv"
    write_csv(run_verify(cfg), str(out))
    assert out.read_bytes() == (DATA / "golden.csv").read_bytes()


def test_packaged_default_csv_matches(tmp_path):
    cfg = ExperimentConfig.from_file(str(Path(erfapprox.__file__).parent / "default.yaml"))
    out = tmp_path / "default.csv"
    write_csv(run_verify(cfg), str(out))
    assert out.read_bytes() == (DATA / "default.csv").read_bytes()
