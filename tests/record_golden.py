"""Rewrite tests/golden.json from the commands of ``test_golden.COMMANDS``.

Run from the repository root, with the package importable:

    PYTHONPATH=src python tests/record_golden.py

Each command runs in a fresh temporary directory.  Re-recording a tree
whose outputs did not change rewrites the same bytes.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_golden import COMMANDS, GOLDEN, run_row  # noqa: E402


def main() -> None:
    rows = []
    for argv, inputs in COMMANDS:
        with tempfile.TemporaryDirectory() as directory:
            rows.append(run_row(argv, inputs, Path(directory)))
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"{len(rows)} rows written to {GOLDEN}")


if __name__ == "__main__":
    main()
