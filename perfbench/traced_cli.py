"""Run one iterflow CLI command with the layer tracer installed.

    python3 perfbench/traced_cli.py SPANS_JSON COMMAND [CLI ARGS...]

Times ``import iterflow.cli`` in this fresh interpreter (the ``cli.import_s``
layer), wraps the engine's functions, runs the command through
``iterflow.cli.main`` and writes the spans and counts to SPANS_JSON.  The
exit code is the CLI's.  ``iterflow`` must be importable (PYTHONPATH).
"""

import json
import sys
import time


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    import iterflow.cli
    import_s = time.perf_counter() - started

    import tracing
    tracer = tracing.Tracer()
    tracer.install(tracing.CLI_TARGETS)
    try:
        return iterflow.cli.main(argv)
    finally:
        tracer.uninstall()
        doc = tracer.dump()
        doc["import_s"] = import_s
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
