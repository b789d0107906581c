"""Run ``metaloc`` with the tracer installed; write span aggregates as JSON.

Usage: ``python3 perfbench/traced_cli.py TRACE_DIR <metaloc arguments>``.
The main process writes ``main-<pid>.json`` when the command returns;
forked pool workers write one ``cell-<pid>-<n>.json`` per cell.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer  # noqa: E402
from metaloc import cli  # noqa: E402


def main() -> int:
    trace_dir = Path(sys.argv[1])
    trace_dir.mkdir(parents=True, exist_ok=True)
    spans = tracer.Tracer(trace_dir).install()
    try:
        return cli.main(sys.argv[2:])
    finally:
        spans.uninstall()
        (trace_dir / f"main-{os.getpid()}.json").write_text(json.dumps(spans.snapshot()))


if __name__ == "__main__":
    sys.exit(main())
