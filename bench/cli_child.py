"""Run one `rggloc` subcommand in this interpreter, as the console script does.

    python3 bench/cli_child.py REPORT.json TRACE(0|1) <rggloc arguments...>

Writes the exit code, this process's peak RSS and, with TRACE=1, the spans
of the calls into the package layers to REPORT.json.
"""

import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    report, trace, argv = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    from rggloc import cli

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    rc = cli.main(argv)
    report.write_text(json.dumps({
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.records if tracer else [],
    }))
    return rc


if __name__ == "__main__":
    sys.exit(main())
