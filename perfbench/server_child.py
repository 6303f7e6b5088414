"""The server process of the point_read and txn_write workloads.

Usage: ``python3 perfbench/server_child.py <workload> <seed> [--dir D] [--trace]``

Builds the workload's database, serves it on an ephemeral port and
prints one JSON line ``{"port": ...}`` when ready.  It then answers
one-line commands on stdin, each with one JSON line on stdout:

* ``rss`` — this process's peak resident set size;
* ``counts`` — the traced per-row call counts;
* ``dump <path>`` — write the recorded spans to *path* as JSON.

End of input stops the server, so the process cannot outlive the
benchmark that started it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import datasets  # noqa: E402
from harness import peak_rss_mb  # noqa: E402


def build(workload: str, seed: int, directory: str):
    from repro.storage.database import Database

    if workload == "point_read":
        database = Database("point_read")
        rows = datasets.acct_rows(datasets.POINT_ROWS, seed)
    else:
        # Flush policy: fsync at every commit, group commit on, no
        # checkpoint worker.
        database = Database.open(directory, "txn_write", sync="commit",
                                 group_commit=True)
        rows = datasets.acct_rows(datasets.TXN_ROWS, seed)
    table = database.create_table("ACCT", ["K", "G", "V", "W"])
    table.insert_many(rows)
    table.create_index(["K"])
    database.analyze()
    if database.wal is not None:
        database.checkpoint()
    return database


def reply(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("point_read", "txn_write"))
    parser.add_argument("seed", type=int)
    parser.add_argument("--dir", default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_layer_spans(tracer)
        tracing.install_server_spans(tracer)

    from repro.server import serve

    database = build(args.workload, args.seed, args.dir)
    handle = serve(database)
    try:
        reply({"port": handle.port})
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "rss":
                reply({"rss_mb": peak_rss_mb()})
            elif command == "counts":
                reply(tracer.counts() if tracer is not None else {})
            elif command == "dump":
                spans = tracer.spans if tracer is not None else []
                with open(argument, "w", encoding="utf-8") as out:
                    json.dump(spans, out)
                reply({"spans": len(spans)})
            else:
                reply({"error": f"unknown command {command!r}"})
    finally:
        handle.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
