"""Bundled example polyominoes, one .grid file each.

The .grid files sit in the fixtures directory beside this module, in
the source tree and in an installed package alike.
"""

from __future__ import annotations

from pathlib import Path

from .polyomino import Polyomino, parse


def names() -> tuple[str, ...]:
    """Fixture names, sorted."""
    root = Path(__file__).with_name("fixtures")
    return tuple(sorted(p.name[: -len(".grid")] for p in root.iterdir() if p.name.endswith(".grid")))


def fixture_path(name: str) -> Path:
    path = Path(__file__).with_name("fixtures") / f"{name}.grid"
    if not path.exists():
        raise KeyError(f"no fixture named {name!r}")
    return path


def load(name: str) -> Polyomino:
    return parse(fixture_path(name).read_text())
