"""One workload process: import lokpde, run ``lokpde.cli.main(argv)`` once.

Usage: ``python3 child.py <spawned_at> <job.json>``, where ``spawned_at``
is the parent's ``time.monotonic()`` just before it started this process
(the same clock across processes on Linux) and the job file holds
``{"argv": [...] or null, "trace": bool}``.  With ``argv`` null the process
only imports and reports its set-up time.

Prints one JSON line: set-up seconds, wall seconds of ``main``, its exit
code and printed record, peak RSS, and (traced) the spans.
"""

import os
import sys
import time

spawned_at = float(sys.argv[1])
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import lokpde.cli  # noqa: E402  (set-up ends when this import returns)

setup_s = time.monotonic() - spawned_at

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def main() -> int:
    expected = os.path.realpath(os.path.join(SRC, "lokpde", "cli.py"))
    if os.path.realpath(lokpde.cli.__file__) != expected:
        print(f"error: imported {lokpde.cli.__file__}, not {expected}", file=sys.stderr)
        return 2
    with open(sys.argv[2]) as fh:
        job = json.load(fh)
    out = {"setup_s": setup_s}
    if job["argv"] is not None:
        tracer = None
        if job["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            code = lokpde.cli.main(job["argv"])
        out["wall_s"] = time.perf_counter() - start
        lines = captured.getvalue().splitlines()
        out["exit_code"] = code
        out["record"] = json.loads(lines[-1]) if code == 0 and lines else None
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
