"""Run the fbar command line from this checkout's source tree.

    python3 perfbench/fbar_cli.py <fbar arguments>

Behaves like the installed ``fbar`` entry point, but imports the package
from the ``src/`` directory beside this one, so nothing is installed.
When PERFBENCH_SPANS names a file, the layer functions are wrapped with
timing spans (tracing.py), stamped with the operation id in PERFBENCH_OP,
and written to that file when the command ends.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main(argv):
    import fbar.cli

    spans_path = os.environ.get("PERFBENCH_SPANS")
    if not spans_path:
        return fbar.cli.main(argv)
    import tracing

    tracer = tracing.Tracer(op=os.environ.get("PERFBENCH_OP"))
    tracer.install()
    try:
        return tracer.call("cli.main", fbar.cli.main, (argv,))
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
