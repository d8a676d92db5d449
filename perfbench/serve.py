"""Run ``python -m repro.service`` with layer tracing in its pool workers.

    python3 perfbench/serve.py --spans-dir DIR -- <repro.service args>

The wrappers of :mod:`tracer` are installed before the server starts,
so the pool workers it forks inherit them.  Each worker appends one JSON
line per job to ``DIR/<pid>.jsonl``: the job id, its spans and its
counters.  Writing per job keeps the spans of a worker that the
server's shutdown stops without a goodbye.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="serve.py")
    parser.add_argument("--spans-dir", required=True)
    parser.add_argument("service_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    service_args = args.service_args
    if service_args[:1] == ["--"]:
        service_args = service_args[1:]
    os.makedirs(args.spans_dir, exist_ok=True)

    from tracer import Tracer, install
    import repro.service.scheduler as scheduler
    from repro.service.__main__ import main as service_main

    tracer = Tracer()
    install(tracer)
    execute = scheduler._execute_job

    @functools.wraps(execute)
    def traced_execute(spec_dict, paths, attempt, resume):
        tracer.session = spec_dict["id"]
        try:
            with tracer.span("service.execute", "service"):
                return execute(spec_dict, paths, attempt, resume)
        finally:
            line = {"job": spec_dict["id"],
                    "spans": [s.to_dict() for s in tracer.spans],
                    "counts": dict(tracer.counts)}
            tracer.spans.clear()
            tracer.counts.clear()
            path = os.path.join(args.spans_dir, f"{os.getpid()}.jsonl")
            with open(path, "a") as f:
                f.write(json.dumps(line) + "\n")

    # the pool pickles the job function by its module path, which now
    # resolves to this wrapper in the forked workers
    scheduler._execute_job = traced_execute
    return service_main(service_args)


if __name__ == "__main__":
    sys.exit(main())
