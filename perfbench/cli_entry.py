"""Runs the ``polarcube`` command line the way its console script does.

When ``PERFBENCH_SPANS`` names a file, the public functions are wrapped
after the package is imported, and the recorded spans and counters are
written to that file when the command ends.  Without it, nothing but the
command runs.

    python3 perfbench/cli_entry.py reconstruct raw.spsi --out cube.spsi
"""

import os
import sys

from polarcube.cli import main as cli_main


def main() -> int:
    spans_path = os.environ.get("PERFBENCH_SPANS")
    if not spans_path:
        return cli_main()
    from tracer import Tracer

    tracer = Tracer()
    tracer.iteration = 0
    tracer.install()
    try:
        return cli_main()
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
