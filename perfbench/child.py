"""One repetition of ``erfapprox verify`` in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/child.py --config C [--setup-only]
        [--csv R.csv --json R.json [--spans S.jsonl]]

Prints one JSON line.  ``setup_end`` is the monotonic clock once the
package is imported and the config validated; the parent subtracts the
moment it started this interpreter.  Without ``--setup-only`` the child
then times ``run_verify`` plus ``write_csv`` and ``write_json``, the
work ``erfapprox verify`` does after setup.  With ``--spans`` that sweep
runs under the tracer, whose spans go to the given file and whose
per-layer metrics join the output.
"""

import argparse
import contextlib
import dataclasses
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--csv")
    parser.add_argument("--json")
    parser.add_argument("--spans")
    args = parser.parse_args()

    from erfapprox.harness import ExperimentConfig, run_verify, write_csv, write_json

    cfg = ExperimentConfig.from_file(args.config)
    if not args.setup_only:
        cfg = dataclasses.replace(cfg, jobs=1, csv_path=args.csv,
                                  json_path=args.json)
    out = {"setup_end": time.monotonic()}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.spans:
        import tracer as tracing
        tracer = tracing.Tracer()
    with tracer or contextlib.nullcontext():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = run_verify(cfg)
        wall1 = time.perf_counter()
        write_csv(result, cfg.csv_path)
        write_json(result, cfg.json_path)
        wall2, cpu2 = time.perf_counter(), time.process_time()

    import numpy
    import scipy

    out.update({
        "verify_s": wall2 - wall0,
        "verify_cpu_s": cpu2 - cpu0,
        "report_write_s": wall2 - wall1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    })
    if tracer is not None:
        tracer.write(args.spans)
        out["layers"] = tracing.layer_metrics(tracer.spans, wall1 - wall0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
