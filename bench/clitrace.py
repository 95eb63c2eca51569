"""Run one polyrings CLI request with the benchmark's tracer installed.

usage: python bench/clitrace.py STEM <polyrings cli arguments>

Writes the request's spans to STEM.json and STEM.bin and its computed
work counters to STEM.counters.json, then exits with the CLI's code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import polyrings.cli as cli
from tracer import Tracer
from workloads import HOOKS, cache_sizes


def main() -> int:
    stem = Path(sys.argv[1])
    tracer = Tracer()
    tracer.install(HOOKS)
    tracer.activate(0)
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.deactivate()
    counters: dict = {}
    tracer.drain(counters)
    counters.update(cache_sizes())
    tracer.dump(stem)
    stem.with_suffix(".counters.json").write_text(json.dumps(counters))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
