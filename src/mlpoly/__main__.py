"""The process entry of `mlpoly`: `python -m mlpoly` and the installed `mlpoly` command.

One call of the CLI per process builds no reference cycles worth collecting (the
peak RSS of the largest runs is the same without the collector), yet the cycle
collector makes about 60 passes while numpy and the package load and walks every
module object again at interpreter teardown.  So `run` turns the collector off
before it imports the CLI and freezes the heap when the call ends, which
teardown's final collection then skips.  `mlpoly.cli.main` itself never touches
the collector: tests and library callers that call it keep theirs.  Importing
this module changes nothing until `run` is called.
"""

import gc
import sys


def run() -> int:
    """Run the CLI on sys.argv with the collector off; returns main's exit code."""
    gc.disable()
    from .cli import main
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
