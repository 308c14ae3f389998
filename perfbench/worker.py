"""One repetition of one workload, in a fresh process.

Run by ``run.py``; prints one JSON object on its last stdout line. Set-up
(imports, configs, the output directory) ends at ``ready_at``, a
CLOCK_MONOTONIC timestamp the parent compares with the moment it spawned this
process. The timed section follows; peak RSS is read right after it, before
the reports are read back and checked.
"""

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def _environment() -> dict:
    import numpy as np
    import qflux

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "qflux": qflux.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True,
                        help="empty directory for the workload's reports")
    parser.add_argument("--spans", type=Path, default=None,
                        help="trace the run and write its spans here")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once set-up is done")
    args = parser.parse_args(argv)

    import qflux

    source = Path(qflux.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"qflux imported from {source}, not from this checkout")
    args.out.mkdir(parents=True, exist_ok=True)
    job = workloads.prepare(args.workload, args.seed, args.out)
    tracer = None
    if args.spans is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        observed = job()
    wall_s = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.spans)

    verdicts = workloads.check(args.workload, args.seed, args.out, observed)
    print(json.dumps({"ready_at": ready_at, "wall_s": wall_s,
                      "peak_rss_mib": peak_rss_mib, "digests": _digests(args.out),
                      "environment": _environment(), **verdicts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
