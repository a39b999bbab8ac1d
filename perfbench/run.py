"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_rw --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every correctness check passed.  The program under test is
imported from ``src/`` next to this directory, never from an installed copy.
"""

import sys
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.cli import main as cli_main

    return cli_main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
