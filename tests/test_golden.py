"""Golden report: every theorem on a fast grid, compared byte for byte."""

from pathlib import Path

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
