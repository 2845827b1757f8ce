"""Print the three sizes the roadmap tracks: source lines, public names and CLI flags.

    PYTHONPATH=src python tools/source_size.py

The first lines give the non-blank lines of each ``src/bimix`` module and
their total (what ``cat src/bimix/*.py | grep -cv '^\\s*$'`` counts), then
the length of ``bimix.__all__``, then the number of flags the ``bimix``
subcommands take (``-h`` and ``--version`` left out).
"""

from __future__ import annotations

import argparse
from pathlib import Path

import bimix
from bimix.cli import _build_parser

SOURCE = Path(__file__).resolve().parents[1] / "src" / "bimix"


def non_blank_lines(path: Path) -> int:
    return sum(1 for line in path.read_text().splitlines() if line.strip())


def flag_count() -> int:
    """Optional arguments over every subcommand, without each one's ``-h``."""
    subcommands = next(action.choices for action in _build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    return sum(1 for parser in subcommands.values() for action in parser._actions
               if action.option_strings and not isinstance(action, argparse._HelpAction))


def main() -> int:
    total = 0
    for path in sorted(SOURCE.glob("*.py")):
        lines = non_blank_lines(path)
        total += lines
        print(f"{path.name} {lines}")
    print(f"total {total}")
    print(f"__all__ {len(bimix.__all__)}")
    print(f"flags {flag_count()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
