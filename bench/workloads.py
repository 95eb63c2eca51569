"""The four benchmark workloads.

Each workload builds one pass of inputs from the seed (set-up), runs the
timed call on each, and afterwards checks each output by an independent
route. A check returns a list of (reason, hard) problems; an item with
any problem counts as failed. "hard" marks a value the package
certifies (or a crash); a value the package tags "formula" is, by its
own documentation, an unverified prediction, so a wrong one fails the
item but is not hard. digest() fingerprints an output, so a later pass
can be checked against the first by equality.

Timed calls go through module attributes (invariants.full_report, not a
name bound at import), so a traced run sees the tracer's wrappers.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import random
import subprocess
import sys
import threading
import time
from functools import lru_cache
from pathlib import Path

from polyrings import (
    fixtures,
    generate,
    gorenstein,
    invariants,
    polyomino,
    srcomplex,
    toric,
)
from polyrings.errors import (
    ConsistencyError,
    DecompositionFailed,
    GroebnerUnverified,
    NotAFacet,
    NotPure,
    PolyominoError,
)

# Size guard passed wherever the workload asks for an exact complex
# value beyond the package's defaults.
RAISED_GUARD = 1 << 16


@lru_cache(maxsize=None)
def _params(fn) -> frozenset:
    return frozenset(inspect.signature(fn).parameters)


def call(fn, *args, **guards):
    """Call fn, passing each guard keyword only while fn's signature
    still takes it, so the benchmark survives the guards' removal."""
    params = _params(fn)
    return fn(*args, **{k: v for k, v in guards.items() if k in params})


def stack_from_heights(hs) -> polyomino.Polyomino:
    return polyomino.Polyomino(
        (col, row) for col, h in enumerate(hs, start=1) for row in range(1, h + 1)
    )


def complex_truth(p, order=None):
    """(h-vector, facet count, d) of p's initial complex, guards raised."""
    c = srcomplex.build_complex(p, order)
    call(srcomplex.f_vector, c, max_vertices=RAISED_GUARD)
    q = srcomplex.hilbert_numerator(c)
    nfac = len(call(srcomplex.facets, c, max_vertices=RAISED_GUARD))
    return tuple(q), nfac, c.d


def check_report(rep, truth, problems) -> None:
    """Compare a full_report result with its complex's exact values."""
    q, nfac, d = truth
    if sum(q) != nfac:
        problems.append(("h-vector sum differs from facet count", True))
    if rep.multiplicity != nfac:
        problems.append((f"multiplicity [{rep.methods.get('multiplicity')}]", True))
    if rep.h_vector is not None and tuple(rep.h_vector) != q:
        problems.append(("h_vector [complex]", True))
    reg = len(q) - 1
    for field, value, true in (
        ("regularity", rep.regularity, reg),
        ("a_invariant", rep.a_invariant, reg - d),
    ):
        if value is not None and value != true:
            method = rep.methods.get(field)
            problems.append((f"{field} [{method}]", method != "formula"))
    if rep.regularity is not None and rep.a_invariant is not None:
        if rep.regularity != rep.d + rep.a_invariant:
            problems.append(("reg != d + a", True))
    if rep.gorenstein is not None and rep.gorenstein != (q == q[::-1]):
        problems.append(("gorenstein verdict vs h-vector palindromicity", True))


def check_stack_gorenstein(p, verdict, problems) -> None:
    """The convex sweep's verdict, unless unavailable (None), must match
    both stack checkers."""
    if verdict is None:
        return
    sub = gorenstein.is_gorenstein_stack_subsets(p).gorenstein
    cor = gorenstein.is_gorenstein_stack_corners(p)
    if not verdict == sub == cor:
        problems.append(("gorenstein checkers disagree", True))


def _digest(value) -> str:
    return hashlib.blake2b(
        json.dumps(value, sort_keys=True).encode(), digest_size=16
    ).hexdigest()


class _Pass:
    """A corpus in one seeded order, the same order in every pass."""

    def __init__(self, rng: random.Random, corpus: list):
        rng.shuffle(corpus)
        self.items = corpus

    def digest(self, rep) -> str:
        return _digest(rep.to_dict())


class StackSweep(_Pass):
    """Every stack with at most 13 cells through full_report."""

    MAX_CELLS = 13

    def __init__(self, seed: int):
        super().__init__(
            random.Random(f"stack_sweep:{seed}"),
            list(generate.stack_polyominoes(self.MAX_CELLS)),
        )

    def run(self, p):
        return invariants.full_report(p)

    def check(self, p, rep) -> list:
        truth = complex_truth(p)
        verdict = gorenstein.is_gorenstein_convex(p).gorenstein
        problems: list = []
        if invariants.multiplicity_recursive(p) != truth[1]:
            problems.append(("recursion differs from facet count", True))
        check_report(rep, truth, problems)
        if rep.gorenstein != verdict:
            problems.append(("gorenstein [interval criterion]", True))
        check_stack_gorenstein(p, verdict, problems)
        return problems


def _vertex_count(hs) -> int:
    ext = (0, *hs, 0)
    return sum(max(ext[i], ext[i + 1]) + 1 for i in range(len(hs) + 1))


def _unimodal(rng: random.Random, width: int, peak_height: int) -> list[int]:
    peak = rng.randrange(width)
    left = sorted(rng.randint(1, peak_height) for _ in range(peak))
    right = sorted(
        (rng.randint(1, peak_height) for _ in range(width - peak - 1)), reverse=True
    )
    return left + [peak_height] + right


class LargeStacks(_Pass):
    """Random stacks in two strata, drawn once from POPULATION_SEED; the
    run seed sets their order.

    Complex stratum: PER_VERTEX_COUNT stacks with exactly V vertices for
    each V in 30..60, each item full_report then f_vector with
    hilbert_numerator then facets, guards raised. Square stratum: one
    stack on an m x m vertex box for each m in 13..17, through
    full_report only. Item cost follows the facet count, which ranges
    over three orders of magnitude at fixed V, so shapes drawn afresh
    for every seed would make the seeds disagree by their composition
    alone; a fixed population keeps the work equal across seeds.
    """

    POPULATION_SEED = "large_stacks"
    VERTICES = range(30, 61)
    PER_VERTEX_COUNT = 2
    SIDES = range(13, 18)

    def __init__(self, seed: int):
        rng = random.Random(self.POPULATION_SEED)
        corpus = []
        for target in self.VERTICES:
            for _ in range(self.PER_VERTEX_COUNT):
                while True:
                    width = rng.randint(2, target // 2)
                    # the peak column alone brings 2 * height vertices
                    hs = _unimodal(rng, width, rng.randint(1, (target - width - 1) // 2))
                    if _vertex_count(hs) == target:
                        corpus.append(("complex", stack_from_heights(hs)))
                        break
        for m in self.SIDES:
            corpus.append(("square", stack_from_heights(_unimodal(rng, m - 1, m - 1))))
        super().__init__(random.Random(f"large_stacks:{seed}"), corpus)

    def digest(self, out) -> str:
        rep, truth = out
        return _digest([rep.to_dict(), truth])

    def run(self, inp):
        kind, p = inp
        rep = invariants.full_report(p)
        if kind == "square":
            return rep, None
        c = srcomplex.build_complex(p)
        call(srcomplex.f_vector, c, max_vertices=RAISED_GUARD)
        q = srcomplex.hilbert_numerator(c)
        fs = call(srcomplex.facets, c, max_vertices=RAISED_GUARD)
        return rep, (tuple(q), len(fs), c.d)

    def check(self, inp, out) -> list:
        kind, p = inp
        rep, truth = out
        problems: list = []
        if kind == "complex":
            if invariants.multiplicity_recursive(p) != truth[1]:
                problems.append(("recursion differs from facet count", True))
            check_report(rep, truth, problems)
        elif invariants.multiplicity_recursive(polyomino.mirror(p)) != rep.multiplicity:
            # no complex at this size: the mirror image takes another
            # recursion path to the same multiplicity
            problems.append(("multiplicity differs from the mirror's recursion", True))
        check_stack_gorenstein(p, rep.gorenstein, problems)
        return problems


class ConvexNonstack(_Pass):
    """Every non-stack convex shape with at most 8 cells through
    full_report with the advisory variable order."""

    MAX_CELLS = 8

    def __init__(self, seed: int):
        super().__init__(
            random.Random(f"convex_nonstack:{seed}"),
            [
                p
                for p in generate.convex_polyominoes(self.MAX_CELLS)
                if not polyomino.is_stack(p)
            ],
        )

    def run(self, p):
        return invariants.full_report(p, order=toric.variable_order(p))

    def check(self, p, rep) -> list:
        try:
            truth = complex_truth(p, toric.variable_order(p))
        except GroebnerUnverified:
            return [("GroebnerUnverified", True)]
        problems: list = []
        if rep.methods.get("multiplicity") == "unavailable":
            problems.append(("complex values unavailable", True))
        check_report(rep, truth, problems)
        return problems


def run_child(argv: list[str], timeout: float = 120) -> tuple[int, str]:
    """Run argv to completion; returns (exit code, standard output).

    Waits with a blocking waitpid: subprocess's own timeout path polls
    with sleeps of up to 50 ms, which would land in the measured time.
    A timer kills a child that outlives the timeout instead.
    """
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            stdout, _ = proc.communicate()
        finally:
            timer.cancel()
    return proc.returncode, stdout


CLI_COMMANDS = ("invariants", "gorenstein", "groebner")
_INTERNAL = (ConsistencyError, NotPure, DecompositionFailed, NotAFacet)


def _plain(value):
    return json.loads(json.dumps(value))


class Cli(_Pass):
    """One `python -m polyrings.cli <cmd> <fixture> --json` at a time,
    for each command on every bundled fixture.

    With trace_dir set, each request runs through clitrace.py instead,
    which records the child's spans and counters into trace_dir.
    """

    def __init__(self, seed: int, trace_dir: Path | None = None):
        super().__init__(
            random.Random(f"cli:{seed}"),
            [(cmd, name) for cmd in CLI_COMMANDS for name in fixtures.names()],
        )
        self.trace_dir = trace_dir
        # one untimed request, so the bytecode cache is warm before timing
        self.run(self.items[0])

    def argv(self, cmd: str, name: str) -> list[str]:
        tail = [cmd, str(fixtures.fixture_path(name)), "--json"]
        if self.trace_dir is None:
            return [sys.executable, "-m", "polyrings.cli", *tail]
        shim = Path(__file__).with_name("clitrace.py")
        return [sys.executable, str(shim), str(self.trace_dir / "child"), *tail]

    def digest(self, out) -> str:
        return _digest(list(out))

    def run(self, inp):
        return run_child(self.argv(*inp))

    @staticmethod
    def baselines(repeats: int = 9) -> dict:
        """Least wall time of a bare interpreter, and the extra time of
        one that imports polyrings.cli, over interleaved repeats, in ms."""
        bare, imp = [], []
        for _ in range(repeats):
            for code, out in (("pass", bare), ("import polyrings.cli", imp)):
                t0 = time.perf_counter_ns()
                run_child([sys.executable, "-c", code])
                out.append((time.perf_counter_ns() - t0) / 1e6)
        return {"cli.interpreter_ms": min(bare), "cli.import_ms": min(imp) - min(bare)}

    def collect(self, k: int, tracer, counters: dict) -> None:
        """Merge a traced child's spans and counters into this process's."""
        from tracer import load

        stem = self.trace_dir / "child"
        if not stem.with_suffix(".counters.json").exists():
            return  # the child crashed before writing; the item fails its check
        tracer.extend(*load(stem)[:5], item=k)
        extra = json.loads(stem.with_suffix(".counters.json").read_text())
        for key, value in extra.items():
            counters[key] = counters.get(key, 0) + value
        for suffix in (".json", ".bin", ".counters.json"):
            stem.with_suffix(suffix).unlink()

    def _expect(self, cmd: str, name: str):
        """(exit code, in-process result) for one request."""
        p = fixtures.load(name)
        try:
            if cmd == "invariants":
                rep = invariants.full_report(p)
                truth = complex_truth(p) if polyomino.is_stack(p) else None
                return 0, (rep, truth)
            if cmd == "gorenstein":
                verdict = gorenstein.is_gorenstein_convex(p)
                return 0, (p, verdict)
            order = toric.variable_order(p)
            leads = [
                sorted(list(v) for v in toric.leading_term(mn, order))
                for mn in toric.inner_minors(p)
            ]
            return 0, (p, order, toric.verify_groebner(p, order), leads)
        except _INTERNAL:
            return 2, None
        except PolyominoError:
            return 1, None

    def check(self, inp, out) -> list:
        cmd, name = inp
        want_code, want = self._expect(cmd, name)
        code, stdout = out
        if code != want_code:
            return [(f"{cmd}: exit code {code}, library says {want_code}", True)]
        if want_code != 0:
            return []
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError:
            return [(f"{cmd}: output is not JSON", True)]
        problems: list = []
        if cmd == "invariants":
            rep, truth = want
            for field, value in rep.to_dict().items():
                if got.get(field) != _plain(value):
                    problems.append((f"invariants: JSON {field} differs from library", True))
            if truth is not None:
                check_report(rep, truth, problems)
        elif cmd == "gorenstein":
            p, verdict = want
            certs = [
                {"subset": list(c.subset.indices()), "neighbors": list(c.neighbors.indices())}
                for c in verdict.certificates
            ]
            if (got.get("gorenstein"), got.get("method"), got.get("certificates")) != (
                verdict.gorenstein,
                verdict.method,
                certs,
            ):
                problems.append(("gorenstein: JSON differs from library", True))
            if polyomino.is_stack(p):
                check_stack_gorenstein(p, verdict.gorenstein, problems)
        else:
            p, order, verified, leads = want
            if (
                got.get("order") != [list(v) for v in order.ranked]
                or got.get("advisory") != order.advisory
                or got.get("verified") != verified
                or [mn.get("leading") for mn in got.get("minors", ())] != leads
            ):
                problems.append(("groebner: JSON differs from library", True))
            if polyomino.is_stack(p) and not verified:
                problems.append(("groebner: height order on a stack not verified", True))
        return problems


WORKLOADS = {
    "stack_sweep": StackSweep,
    "large_stacks": LargeStacks,
    "convex_nonstack": ConvexNonstack,
    "cli": Cli,
}


def _verify_groebner_pairs(args, kwargs, result) -> dict:
    p = args[0]
    order = args[1] if len(args) > 1 else kwargs.get("order")
    if order is None:
        order = toric.variable_order(p)
    leads = [toric.leading_term(mn, order) for mn in toric.inner_minors(p)]
    overlapping = sum(
        1 for a in range(len(leads)) for b in range(a + 1, len(leads)) if leads[a] & leads[b]
    )
    return {
        "toric.spairs_total": len(leads) * (len(leads) - 1) // 2,
        "toric.spairs_overlapping": overlapping,
    }


def _gorenstein_sweep(args, kwargs, verdict) -> dict:
    """Subsets T the convex sweep visited: it walks T = 1, 2, ... and
    stops at the first cardinality violation; a Hall failure returns
    before the sweep."""
    if verdict.violation is None:
        swept = (1 << args[0].m) - 2
    elif verdict.violation.kind == "cardinality":
        swept = verdict.violation.subset.bits
    else:
        swept = 0
    return {"gorenstein.subsets_swept": swept, "gorenstein.certificates": len(verdict.certificates)}


def _hall_subsets(args, kwargs, violator) -> dict:
    """Subsets hall_violator tried: X side in bit order, then Y side."""
    g = args[0]
    if violator is None:
        tried = (1 << g.m) + (1 << g.n) - 2
    elif violator.side == "X":
        tried = violator.bits
    else:
        tried = (1 << g.m) - 1 + violator.bits
    return {"bigraph.hall_subsets": tried}


# Computed work counters: each hook reads a traced call's arguments and
# result (through public functions, tracer inactive) after the item.
HOOKS = {
    "toric.inner_minors": lambda args, kwargs, result: {"toric.minors": len(result)},
    "toric.verify_groebner": _verify_groebner_pairs,
    "gorenstein.is_gorenstein_convex": _gorenstein_sweep,
    "bigraph.hall_violator": _hall_subsets,
    "srcomplex.facets": lambda args, kwargs, result: {"srcomplex.facets_listed": len(result)},
}


def cache_sizes() -> dict:
    """Sizes of the package's process-wide caches, read from module
    attributes; a cache that no longer exists reads 0."""
    memo = getattr(invariants, "_mult_memo", None)
    complex_for = getattr(srcomplex, "complex_for", None)
    info = getattr(complex_for, "cache_info", None)
    return {
        "invariants.memo_entries": len(memo) if memo is not None else 0,
        "srcomplex.complex_for_entries": info().currsize if info is not None else 0,
    }
