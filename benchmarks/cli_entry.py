"""Run the ordgroups command line as its console script does: `main(argv)`.

The cli workload runs every op as a fresh interpreter on this file. With
BENCH_TRACE_FILE set, it also times the import of `ordgroups.cli`, traces
the command's calls and writes the import time and spans to that file.
"""

import json
import os
import sys
import time


def main() -> int:
    trace_file = os.environ.get("BENCH_TRACE_FILE")
    if not trace_file:
        from ordgroups.cli import main as cli_main

        return cli_main(sys.argv[1:])

    start = time.perf_counter()
    import ordgroups.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        code = ordgroups.cli.main(sys.argv[1:])
    with open(trace_file, "w") as fh:
        json.dump({"import_s": import_s, **tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
