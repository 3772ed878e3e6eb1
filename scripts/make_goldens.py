"""Regenerate the golden machine reports under tests/golden/.

Run from the repository root after any deliberate change to report
payloads or corpus files, then review the diff before committing.  The
cases are the ones tests/test_cli.py checks: tests/golden/cases.json
maps each golden file to its argument list, with corpus paths relative
to the repository root.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from crystor.cli import run_command

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def main() -> int:
    import os

    os.chdir(ROOT)
    cases = json.loads((GOLDEN / "cases.json").read_text())
    for name, argv in cases.items():
        report, code = run_command(argv)
        if code != 0:
            print(f"refusing to freeze a failing run: {argv} -> {code}")
            return 1
        (GOLDEN / name).write_bytes(report.machine().encode())
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
