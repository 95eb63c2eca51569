"""One pass of one workload in one fresh process (the package's caches
are process-wide, so every pass starts cold).

usage: python bench/worker.py OUT.json --workload W --seed N
           [--check] [--trace] [--setup-only]

Set-up (import, inputs) runs first; its end is written as a
CLOCK_MONOTONIC reading, which the parent compares with the moment it
started this process. Then one client runs the timed call on every
input of the pass in order, each call starting when the previous one
has returned (closed loop). Outputs are kept; after the last timed call
they are checked (--check) and fingerprinted. Results go to OUT.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("out", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import polyrings  # noqa: F401  (loads every layer before wrapping)
        import polyrings.cli  # noqa: F401
        from tracer import SETUP_ITEM, Tracer
        from workloads import HOOKS

        tracer = Tracer()
        tracer.install(HOOKS)
        tracer.activate(SETUP_ITEM)
    from workloads import WORKLOADS, Cli, cache_sizes

    cls = WORKLOADS[args.workload]
    if cls is Cli and args.trace:
        wl = cls(args.seed, args.out.parent)
    else:
        wl = cls(args.seed)
    if tracer is not None:
        tracer.deactivate()
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if args.setup_only:
        args.out.write_text(json.dumps(result))
        return 0

    latencies: list[int] = []
    outputs: list = []
    counters: dict = {}
    clock = time.perf_counter_ns
    for k, inp in enumerate(wl.items):
        if tracer is not None:
            tracer.activate(k)
        t0 = clock()
        try:
            out = wl.run(inp)
        except Exception as exc:  # a crashing item is a failed item
            out = exc
        t1 = clock()
        if tracer is not None:
            tracer.deactivate()
            if cls is Cli:
                wl.collect(k, tracer, counters)
            else:
                tracer.drain(counters)
        latencies.append(t1 - t0)
        outputs.append(out)

    problems, digests = [], []
    for inp, out in zip(wl.items, outputs):
        if isinstance(out, Exception):
            problems.append([(f"raised {type(out).__name__}", True)])
            digests.append(f"raised {type(out).__name__}")
            continue
        problems.append(wl.check(inp, out) if args.check else [])
        digests.append(wl.digest(out))

    who = resource.RUSAGE_CHILDREN if cls is Cli else resource.RUSAGE_SELF
    result.update(
        latencies_ns=latencies,
        labels=[inp[0] for inp in wl.items] if cls is Cli else [],
        problems=problems,
        digests=digests,
        peak_rss_kb=resource.getrusage(who).ru_maxrss,
    )
    if tracer is not None:
        from tracer import self_times

        items, setup = self_times(tracer)
        tracer.dump(args.out.with_name(args.out.stem + "-spans"))
        caches = cache_sizes()
        if cls is Cli:
            # the CLI children, not this process, hold the caches: report
            # their mean size per request
            caches = {key: counters.pop(key, 0) / len(latencies) for key in caches}
        if cls is Cli and args.check:
            result["cli_baselines"] = wl.baselines()
        result.update(
            spans=len(tracer),
            self_items=items,
            self_setup=setup,
            counters=counters,
            caches=caches,
        )
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
