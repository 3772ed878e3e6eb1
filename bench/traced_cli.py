"""Run one crystor CLI command with the benchmark's tracer installed.

    python bench/traced_cli.py SPANS.json SUBCOMMAND [ARGS...]

Behaves like ``python -m crystor SUBCOMMAND ARGS...`` (same stdout,
stderr and exit code) and writes the spans and counters of the run to
SPANS.json.  crystor is imported from ``src/`` next to this directory.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import crystor.cli  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return crystor.cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
