import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polyrings import cli, fixtures, invariants, srcomplex
from polyrings.cli import main
from polyrings.errors import ConsistencyError, TooLarge
from polyrings.fixtures import fixture_path, names
from polyrings.polyomino import is_stack

COMMANDS = ("check", "gorenstein", "invariants", "facets", "decompose", "groebner")


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def path(name):
    return str(fixture_path(name))


def test_check_json_single_cell(capsys):
    rc, out, _ = run(capsys, "check", path("single_cell"), "--json")
    assert rc == 0
    got = json.loads(out)
    assert got["convex"] is True
    assert got["stack"] is True
    assert (got["m"], got["n"]) == (2, 2)
    assert got["outside_corners"] == [[1, 1], [1, 2], [2, 1], [2, 2]]
    assert got["inside_corners"] == []


def test_check_text_output(capsys):
    rc, out, _ = run(capsys, "check", path("ex3"))
    assert rc == 0
    lines = out.splitlines()
    assert "convex: True" in lines
    assert "stack: True" in lines
    assert "heights: 3 4 4 2" in lines


def test_invariants_text_ex3(capsys):
    rc, out, _ = run(capsys, "invariants", path("ex3"))
    assert rc == 0
    assert out.splitlines() == [
        "box: [4] x [4]   d: 7",
        "a-invariant: -4 [recursion]",
        "regularity: 3 [recursion]",
        "multiplicity: 14 [recursion]",
        "h-vector: 1 6 6 1",
        "gorenstein: yes",
    ]


def test_invariants_json_ex3(capsys):
    rc, out, _ = run(capsys, "invariants", path("ex3"), "--json")
    assert rc == 0
    got = json.loads(out)
    assert got["multiplicity"] == 14
    assert got["h_vector"] == [1, 6, 6, 1]
    assert got["methods"]["multiplicity"] == "recursion"
    assert got["notes"] == []


def test_invariants_note_when_formulas_lose(capsys):
    rc, out, _ = run(capsys, "invariants", path("figb"))
    assert rc == 0
    assert "a-invariant: -6 [recursion]" in out
    assert "regularity: 2 [recursion]" in out
    assert (
        "note: bounding-box bounds predict a=-5, regularity=3; "
        "the recursion gives a=-6, regularity=2 (reported)"
    ) in out


def test_gorenstein_fig8(capsys):
    rc, out, _ = run(capsys, "gorenstein", path("fig8"))
    assert rc == 0
    assert out.strip() == "NOT Gorenstein; T={x4,x5,x6}, |N_Y(T)|=3, need 4"


def test_gorenstein_fig9(capsys):
    rc, out, _ = run(capsys, "gorenstein", path("fig9"))
    assert rc == 0
    assert out.splitlines() == [
        "Gorenstein",
        "certificate T={x4}, N_Y(T)={y2,y3}",
        "certificate T={x1,x4}, N_Y(T)={y1,y2,y3}",
    ]


def test_invariants_on_a_70_cell_strip(capsys):
    grid = "\\n".join(["#"] * 70)
    rc, out, err = run(capsys, "invariants", "--grid", grid)
    assert (rc, err) == (0, "")
    assert "multiplicity: 71 [recursion]" in out.splitlines()
    assert out.splitlines()[-1] == "gorenstein: no"


def test_gorenstein_json(capsys):
    rc, out, _ = run(capsys, "gorenstein", path("fig9"), "--json")
    assert rc == 0
    got = json.loads(out)
    assert got["gorenstein"] is True
    assert got["violation"] is None
    assert [c["subset"] for c in got["certificates"]] == [[4], [1, 4]]


def test_facets_json_ex1(capsys):
    rc, out, _ = run(capsys, "facets", path("ex1"), "--json")
    assert rc == 0
    got = json.loads(out)
    assert got["d"] == 5 and got["count"] == 5
    assert got["facets"] == [
        [[1, 1], [1, 2], [1, 3], [2, 3], [3, 1]],
        [[1, 1], [1, 2], [2, 2], [2, 3], [3, 1]],
        [[1, 1], [2, 1], [2, 2], [2, 3], [3, 1]],
        [[1, 2], [1, 3], [2, 3], [3, 1], [3, 2]],
        [[1, 2], [2, 2], [2, 3], [3, 1], [3, 2]],
    ]


def test_decompose_text_ex3(capsys):
    rc, out, _ = run(capsys, "decompose", path("ex3"))
    assert rc == 0
    assert out == "v: (4,2)\nP1:\n.#\n##\n##\nP2:\n.#\n##\n"


def test_decompose_json(capsys):
    rc, out, _ = run(capsys, "decompose", path("figb"), "--json")
    assert rc == 0
    got = json.loads(out)
    assert got["v"] == [3, 2]


def test_groebner_text_ex1(capsys):
    rc, out, _ = run(capsys, "groebner", path("ex1"))
    assert rc == 0
    assert out.splitlines() == [
        "order: x23 > x22 > x21 > x13 > x12 > x11 > x32 > x31",
        "minors: 5",
        "x12x21 - x11x22   lead x12x21",
        "x13x21 - x11x23   lead x13x21",
        "x13x22 - x12x23   lead x13x22",
        "x12x31 - x11x32   lead x11x32",
        "x22x31 - x21x32   lead x21x32",
        "groebner: verified",
    ]


def test_inline_grid_input(capsys):
    rc, out, _ = run(capsys, "check", "--grid", "#\\n#", "--json")
    assert rc == 0
    got = json.loads(out)
    assert (got["m"], got["n"], got["cells"]) == (2, 3, 2)


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("##\n#.\n"))
    rc, out, _ = run(capsys, "check", "-", "--json")
    assert rc == 0
    assert json.loads(out)["cells"] == 3


def test_json_output_is_byte_stable(capsys):
    outs = set()
    for _ in range(2):
        rc, out, _ = run(capsys, "invariants", path("ex3"), "--json")
        assert rc == 0
        outs.add(out)
    assert len(outs) == 1
    outs = set()
    for _ in range(2):
        rc, out, _ = run(capsys, "facets", path("figb"), "--json")
        assert rc == 0
        outs.add(out)
    assert len(outs) == 1


def test_validation_failures_exit_1(capsys):
    rc, _, err = run(capsys, "check", "--grid", "#.#")
    assert rc == 1 and "error:" in err
    rc, _, err = run(capsys, "check", "/no/such/file.grid")
    assert rc == 1 and "cannot read" in err
    rc, _, err = run(capsys, "check", path("ex1"), "--grid", "#")
    assert rc == 1 and "exactly one input" in err
    rc, _, err = run(capsys, "check")
    assert rc == 1 and "exactly one input" in err
    rc, _, err = run(capsys, "invariants", path("fig1_left"))
    assert rc == 1 and "convex" in err
    rc, _, err = run(capsys, "decompose", path("single_cell"))
    assert rc == 1
    rc, _, err = run(capsys, "decompose", path("fig9"))
    assert rc == 1


def test_decompose_oracle_honours_the_facet_guard(capsys, monkeypatch):
    # a 22-cell stack with 46 vertices, past the old guard of 40: its
    # facets are counted and listed against the recursion
    grid = "#" + "." * 20 + "\\n" + "#" * 21
    listed = []
    real = cli.facets
    monkeypatch.setattr(cli, "facets", lambda c: listed.append(len(c.vertices)) or real(c))
    rc, out, err = run(capsys, "decompose", "--grid", grid, "--oracle")
    assert (rc, err, listed) == (0, "", [46])
    assert out.splitlines()[0] == "v: (3,2)"
    # past the facet budget the cross-check is skipped, not failed
    monkeypatch.setattr(srcomplex, "MAX_FACETS", 1)
    assert run(capsys, "decompose", "--grid", grid, "--oracle") == (0, out, "")


def test_decompose_oracle_catches_a_wrong_recursion(capsys, monkeypatch):
    # a step that always lowers the last column still stores
    # e(P1) + e(P2) as e(P), but P and its mirror image now disagree
    def last_column_step(hs):
        low = min(hs[0], hs[-1])
        p1 = hs[:-1] if hs[-1] == 1 else hs[:-1] + (hs[-1] - 1,)
        return p1, tuple(h - low for h in hs if h > low)

    monkeypatch.setattr(invariants, "_mult_memo", {})
    monkeypatch.setattr(invariants, "_step", last_column_step)
    rc, _, err = run(capsys, "decompose", path("ex3"), "--oracle")
    assert rc == 2 and "mirror" in err


def test_invariants_oracle_catches_a_wrong_recursion(capsys, monkeypatch):
    # a step that returns (P2, P1) keeps h(1), and on fig13 also deg h
    # and the palindromicity, so only the complex's h-vector can tell
    step = invariants._step
    monkeypatch.setattr(invariants, "_mult_memo", {})
    monkeypatch.setattr(invariants, "_step", lambda hs: step(hs)[::-1])
    rc, _, err = run(capsys, "invariants", path("fig13"))
    assert (rc, err) == (0, "")
    rc, _, err = run(capsys, "invariants", path("fig13"), "--oracle")
    assert rc == 2 and "vs complex" in err


def test_gorenstein_oracle_checks_stacks_up_to_the_guard(capsys, monkeypatch):
    # fig11 has 25 vertices, inside the complex guard: the oracle reads
    # the complex's h-vector, so an h whose palindromicity contradicts
    # the verdict must exit 2
    assert len(fixtures.load("fig11").vertices) == 25
    rc, out, _ = run(capsys, "gorenstein", path("fig11"), "--oracle", "--json")
    assert rc == 0
    h = (1, 2) if json.loads(out)["gorenstein"] else (1, 1)
    monkeypatch.setattr(cli, "hilbert_numerator", lambda *a, **k: h)
    rc, _, err = run(capsys, "gorenstein", path("fig11"), "--oracle")
    assert rc == 2 and "palindromicity contradicts" in err
    # when a work budget stops the complex, the cross-check is skipped
    def stopped(c):
        raise TooLarge("forced budget stop")

    monkeypatch.setattr(cli, "hilbert_numerator", stopped)
    rc, _, err = run(capsys, "gorenstein", path("fig11"), "--oracle")
    assert (rc, err) == (0, "")


def test_invariants_oracle_reads_the_transpose_up_to_the_guard(capsys, monkeypatch):
    # a 45-vertex stack whose transpose is not a stack: past the old
    # guard of 40, the transpose's multiplicity comes from its complex,
    # which full_report builds
    grid = ".##" + "." * 17 + "\\n" + "#" * 20
    seen = []
    real = srcomplex.hilbert_numerator

    def spy(c):
        seen.append((len(c.vertices), is_stack(c.poly)))
        return real(c)

    monkeypatch.setattr(cli, "hilbert_numerator", spy)
    monkeypatch.setattr(invariants, "hilbert_numerator", spy)
    rc, out, err = run(capsys, "invariants", "--grid", grid, "--oracle")
    assert (rc, err) == (0, "")
    assert sorted(seen) == [(45, False), (45, True)]
    # the transpose's fallback DP needs 70 memo entries; a budget of 69
    # skips that cross-check and changes no output
    monkeypatch.setattr(srcomplex, "MAX_DP_ENTRIES", 69)
    assert run(capsys, "invariants", "--grid", grid, "--oracle") == (0, out, "")


def test_invariants_oracle_checks_the_rook_number(capsys, monkeypatch):
    # -a against d - r(P) on every stack: fig13 (m + n = 7) and a
    # 45-vertex stack with m + n = 24, where no 2^(m+n) sweep could run
    grid = ".##" + "." * 17 + "\\n" + "#" * 20
    real = cli.rook_number
    for source in ([path("fig13")], ["--grid", grid]):
        rc, _, err = run(capsys, "invariants", *source, "--oracle")
        assert (rc, err) == (0, "")
        monkeypatch.setattr(cli, "rook_number", lambda p: real(p) + 1)
        rc, _, err = run(capsys, "invariants", *source, "--oracle")
        assert rc == 2 and "rook number" in err
        monkeypatch.setattr(cli, "rook_number", real)


def test_check_oracle_catches_a_lying_path_test(capsys, monkeypatch):
    real = cli.has_monotone_paths
    monkeypatch.setattr(cli, "has_monotone_paths", lambda p: not real(p))
    rc, out, err = run(capsys, "check", path("ex3"), "--oracle")
    assert (rc, out) == (2, "")
    assert err == "internal invariant violation: convexity and monotone-path test disagree\n"


def _first_facet_replaced(monkeypatch, edit):
    """Make cli.facets return its first facet changed by edit(c, f)."""
    real = cli.facets
    monkeypatch.setattr(cli, "facets", lambda c: (edit(c, real(c)[0]), *real(c)[1:]))


def test_facets_oracle_catches_a_forbidden_pair(capsys, monkeypatch):
    # a facet plus any vertex it lacks holds a forbidden pair, as the
    # facet was a maximal independent set
    _first_facet_replaced(monkeypatch, lambda c, f: f | {min(set(c.vertices) - f)})
    rc, out, err = run(capsys, "facets", path("ex1"), "--oracle")
    assert (rc, out) == (2, "")
    assert err == (
        "internal invariant violation: facet contains a forbidden pair: "
        "[(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1)]\n"
    )


def test_facets_oracle_catches_a_facet_that_is_not_maximal(capsys, monkeypatch):
    _first_facet_replaced(monkeypatch, lambda c, f: f - {max(f)})
    rc, out, err = run(capsys, "facets", path("ex1"), "--oracle")
    assert (rc, out) == (2, "")
    assert err == (
        "internal invariant violation: facet is not maximal: "
        "[(1, 1), (1, 2), (1, 3), (2, 3)]\n"
    )


def test_unknown_fixture_name_raises_key_error():
    with pytest.raises(KeyError, match="no fixture named 'nonesuch'"):
        fixture_path("nonesuch")


def test_unknown_command_exits_1(capsys):
    rc = main(["frobnicate", "--grid", "#"])
    capsys.readouterr()
    assert rc == 1


def test_help_exits_0(capsys):
    rc = main(["--help"])
    capsys.readouterr()
    assert rc == 0


def test_help_describes_every_subcommand(capsys):
    rc = main(["--help"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in COMMANDS:
        line = next(ln for ln in out.splitlines() if ln.split()[:1] == [name])
        assert line.split(maxsplit=1)[1:], f"no help text for {name}"
    # no size option: the work budgets live in srcomplex
    rc = main(["facets", "--help"])
    out = capsys.readouterr().out
    assert rc == 0
    options = {word.strip("[],") for word in out.split() if word.lstrip("[").startswith("--")}
    assert options == {"--help", "--grid", "--json", "--oracle"}
    rc, _, err = run(capsys, "facets", "--grid", "#", "--max-facets", "60")
    assert rc == 1 and "unrecognized arguments: --max-facets" in err


def test_internal_violation_exits_2(capsys, monkeypatch):
    def boom(*a, **k):
        raise ConsistencyError("forced for the exit-code contract")

    monkeypatch.setattr("polyrings.cli.full_report", boom)
    rc, _, err = run(capsys, "invariants", path("ex1"))
    assert rc == 2
    assert "internal invariant violation" in err


def test_purity_failure_exits_2(capsys):
    # a non-convex shape can pass the Groebner check of its own minors
    # yet give an impure complex; the contract files that under exit 2
    rc, _, err = run(capsys, "facets", path("fig1_left"))
    assert rc == 2
    assert "internal invariant violation" in err


BOX10 = "\n".join(["#" * 10] * 10)

# (argv, exit code, class, message) of one failure per exit code and kind
ERRORS = (
    (("invariants", "--grid", "#.#"), 1, "DisconnectedCells", "cells are not edge-connected"),
    (("facets", "--grid", BOX10), 1, "TooLarge",
     "184756 facets exceed the budget MAX_FACETS = 50000"),
    (("facets", path("fig1_left")), 2, "NotPure", "face sizes reach 11, expected d = 9"),
)


def test_json_errors_are_one_object_on_stdout(capsys):
    for argv, code, cls, message in ERRORS:
        rc, out, err = run(capsys, *argv, "--json")
        assert (rc, err) == (code, ""), argv
        assert out.count("\n") == 1
        assert json.loads(out) == {
            "error": {"class": cls, "message": message, "exit_code": code}
        }, argv


def test_plain_errors_are_one_line_on_stderr(capsys):
    labels = {1: "error", 2: "internal invariant violation"}
    for argv, code, _, message in ERRORS:
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (code, ""), argv
        assert err == f"{labels[code]}: {message}\n", argv


def test_oracle_never_flips_an_exit_code(capsys):
    for cmd in COMMANDS:
        for name in names():
            plain = main([cmd, path(name)])
            capsys.readouterr()
            checked = main([cmd, path(name), "--oracle"])
            capsys.readouterr()
            assert plain == checked, (cmd, name)


def test_oracle_passes_wherever_the_command_applies(capsys):
    expected_nonzero = {
        ("gorenstein", "fig1_left"): 1,
        ("invariants", "fig1_left"): 1,
        ("facets", "fig1_left"): 2,
        ("decompose", "fig1_left"): 1,
        ("decompose", "fig1_right"): 1,
        ("decompose", "fig6"): 1,
        ("decompose", "fig8"): 1,
        ("decompose", "fig9"): 1,
        ("decompose", "ex6"): 1,
        ("decompose", "ex7"): 1,
        ("decompose", "vertical"): 1,
        ("decompose", "single_cell"): 1,
    }
    for cmd in COMMANDS:
        for name in names():
            rc = main([cmd, path(name), "--oracle"])
            capsys.readouterr()
            assert rc == expected_nonzero.get((cmd, name), 0), (cmd, name, rc)


def test_reading_a_grid_file_leaves_no_resource_warning():
    # a child interpreter in development mode, where an unclosed file
    # reports a ResourceWarning on stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-m", "polyrings.cli", "check", path("single_cell")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
