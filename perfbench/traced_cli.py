"""Run the ``multitask-irl`` command line with span tracing.

Usage: ``python3 perfbench/traced_cli.py SPAN_FILE <cli arguments...>``
with the package importable (``PYTHONPATH=src``).  Writes the spans of the
command to SPAN_FILE and exits with the command's exit code.
"""

import sys

from multitask_irl import cli
from spans import Tracer


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer:
        code = cli.main(argv)
    tracer.dump(span_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
