"""One benchmark invocation in a fresh interpreter.

    python3 bench/child.py T_SPAWN MODE STATS_PATH [CLI ARGS...]

T_SPAWN is the parent's ``time.monotonic()`` just before it spawned this
process (the clock is system-wide on Linux).  MODE is ``setup`` (import the
package and stop), ``plain`` (run ``dgres.cli.main`` on the CLI arguments) or
``trace`` (the same, with the span tracer installed).  The report goes to
stdout exactly as the CLI writes it; timings and counters go to STATS_PATH
as JSON, so nothing the benchmark measures can reach the report.  Each
window (set-up, then the call to ``main``) is timed with the speed probe of
bench/speed.py running, which reports its wall time and its time scaled to
the probe's reference speed.
"""

import os
import sys
import time

from speed import SpeedProbe

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

PROBE = SpeedProbe()
PROBE.start()
PROBE.open()

import dgres  # noqa: E402
import dgres.cli  # noqa: E402

SETUP = PROBE.close(time.monotonic() - float(sys.argv[1]))

import json  # noqa: E402
import resource  # noqa: E402


def main() -> int:
    mode, stats_path, argv = sys.argv[2], sys.argv[3], sys.argv[4:]
    stats = {"setup": SETUP, "dgres_file": dgres.__file__}
    rc = 0
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        PROBE.open()
        rc = dgres.cli.main(argv)
        sys.stdout.flush()
        stats["solve"] = PROBE.close()
        stats["rc"] = rc
        stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            stats["trace"] = tracer.metrics()
    PROBE.stop()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
