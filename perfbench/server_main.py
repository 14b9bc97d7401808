"""Server process for the ``bulk_fetch`` workload.

Builds the database the way ``repro serve`` does by default (cracking,
vector mode, concurrent, plan cache on, one shard, no crack threshold,
v2 protocol with compression offered), loads the seeded table, burns
the column in by running the statement pool once, then serves on a free
port.  Protocol with the parent, one JSON object per stdout line:

* after start: ``{"port", "burn_in_s"}``
* after stdin reaches EOF (the parent is done or gone) the server drains
  and exits, printing ``{"rss_mb", "invariants", "layers", ...}``.

With ``--trace 1`` the engine and server layers are wrapped after the
burn-in, so the reported layer times cover served statements only.

Run by the benchmark, not by hand::

    python3 perfbench/server_main.py --rows 1000000 --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import data, tracing  # noqa: E402
from perfbench.workloads import ENGINE, cracker_counters, cracker_delta  # noqa: E402
from repro.server import ServerThread  # noqa: E402
from repro.sql import Database  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    database = Database(**ENGINE)
    data.load_table(database, data.make_table(args.rows, args.seed))
    started = time.perf_counter()
    for _, _, sql in data.bulk_pool(args.rows, args.seed):
        database.execute(sql)
    burn_in_s = time.perf_counter() - started

    clock = tracing.LayerClock()
    patches = tracing.Patches()
    if args.trace:
        tracing.install_engine(clock, patches)
        tracing.install_server(clock, patches)
    before = cracker_counters(database)
    server = ServerThread(database)
    try:
        _, port = server.start()
        print(json.dumps({"port": port, "burn_in_s": burn_in_s}), flush=True)
        sys.stdin.read()  # returns at EOF: the parent closed our stdin
    finally:
        server.stop()
        patches.restore()
    after = cracker_counters(database)
    try:
        database.check_invariants()
        invariants = "ok"
    except Exception as exc:  # reported to the parent, which fails the run
        invariants = f"{type(exc).__name__}: {exc}"
    database.close()
    print(json.dumps({
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "invariants": invariants,
        "layers": clock.totals(),
        "cracker": cracker_delta(before, after),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
