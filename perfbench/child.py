"""One `verify` process, as the `verify` entry point runs it, plus marks.

    python3 perfbench/child.py MODE INFO_PATH VERIFY_ARGS...

MODE is `time` (run and note when the first suite starts), `setup` (exit
as soon as the first suite would start), `trace` (run under the tracer) or
`probe` (time a fixed pure-Python job every 0.1 s until killed, writing
one line per probe to INFO_PATH; no VERIFY_ARGS).
The report goes to stdout and the exit code is verify's.  The marks, and
in `trace` mode the tracer's spans and metrics, go to INFO_PATH as JSON.
Timestamps are CLOCK_MONOTONIC, so run.py can subtract its spawn time.
"""

import json
import os
import random
import sys
import time
from fractions import Fraction

from tracer import Tracer, now


PROBE_PERIOD_S = 0.1
TABLE_SIZE = 200_000  # a dict of about 30 MB, well beyond the core's caches
LOOKUPS = 3000


def probe_table() -> tuple[dict, list]:
    table = {k: (k, 7 * k) for k in range(TABLE_SIZE)}
    keys = random.Random(1).sample(range(TABLE_SIZE), LOOKUPS)
    return table, keys


def probe_job(table: dict, keys: list) -> None:
    """A fixed pure-Python job of about 3 ms that shows the host's speed.
    Like verify it allocates tuples, dicts and Fractions, and it reads a
    table far larger than the caches at random, so it slows down with
    verify whether neighbours contend for the core or for memory."""
    acc: dict = {}
    for k in range(150):
        key = (k % 97, k % 101, k)
        acc[key] = acc.get(key, 0) + Fraction(k % 7, 3)
    sum(acc.values())
    total = 0
    for k in keys:
        total += table[k][1]


def probe_loop(path: str) -> int:
    """Run probe_job every PROBE_PERIOD_S s until killed or orphaned,
    appending `start cpu_s` per probe to path.  The probe's own CPU time is
    what counts, so a `verify` child that shares the core and preempts the
    probe does not inflate it."""
    parent = os.getppid()
    table, keys = probe_table()
    with open(path, "w", buffering=1) as fh:
        while os.getppid() == parent:
            t0, c0 = now(), time.process_time()
            probe_job(table, keys)
            fh.write(f"{t0!r} {time.process_time() - c0!r}\n")
            time.sleep(max(0.0, PROBE_PERIOD_S - (now() - t0)))
    return 0


def main() -> int:
    mode, info_path, *argv = sys.argv[1:]
    if mode == "probe":
        return probe_loop(info_path)
    import gltlab
    import gltlab.cli as cli

    info = {"gltlab": os.path.abspath(gltlab.__file__)}
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()

    def write_info():
        with open(info_path, "w") as fh:
            json.dump(info, fh)

    def marked(fn):
        def suite(cfg):
            if "suite_start" not in info:
                info["suite_start"] = now()
                if mode == "setup":
                    write_info()
                    os._exit(0)
            return fn(cfg)
        return suite

    for name, fn in list(cli.SUITE_FNS.items()):
        cli.SUITE_FNS[name] = marked(fn)
    rc = cli.main(argv)
    sys.stdout.flush()
    if tracer is not None:
        info["trace"] = tracer.dump()
        emit = [s for s in info["trace"]["spans"] if s[0] == "cli.emit_report"]
        info["emit_end"] = emit[-1][2] if emit else None
    write_info()
    return rc


if __name__ == "__main__":
    sys.exit(main())
