"""``python -m crystor`` and the ``crystor`` console script."""

import atexit
import os
import sys

from .cli import main


def console_entry() -> None:
    """Run the command line on sys.argv, then end the process without
    tearing the interpreter down.

    Once ``main`` returns, its output is written and nothing is left to
    free, so this runs the atexit handlers, flushes stdout and stderr and
    ends with ``os._exit`` (as mypy's ``util.hard_exit`` does), which
    saves the teardown of every module and object.  Under ``python -i``
    or PYTHONINSPECT, or when a flush raises (a closed pipe, say), it
    leaves through ``sys.exit`` instead, so the interpreter reports and
    exits as it always has.
    """
    code = main()
    if sys.flags.inspect:
        sys.exit(code)
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        # the unflushed output stays buffered, and the interpreter's own
        # exit reports the failure and sets the exit code, as before
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    console_entry()
