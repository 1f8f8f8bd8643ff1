"""Run one guaranteesim CLI command and record its in-process time.

    python3 child.py RESULT_JSON TRACE(0|1) SUBCOMMAND [ARGS...]

Imports the package first, so interpreter start and import fall outside
the timed region, then times `guaranteesim.cli.main` alone. With TRACE 1
the layer spans of `tracing.Tracer` are recorded and written out with
the result once the command has finished. Exits with the command's code.
"""

import json
import sys
import time

from guaranteesim import cli


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer().install()
    start = time.perf_counter()
    rc = cli.main(argv)
    cmd_s = time.perf_counter() - start
    sys.stdout.flush()
    result = {"rc": rc, "cmd_s": cmd_s}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["missing"] = tracer.missing
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
