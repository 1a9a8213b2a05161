"""A work bound for tests: the number of lines of some source files that run
during a call. Unlike a clock, the count does not change with the host's
load. It does not see the work done inside one C call, such as copying a
set, so it bounds the Python-level loops only."""

import sys


def lines_run(files, call, limit):
    """Return `call()`, counting the lines of `files` that run meanwhile, and
    raise AssertionError as soon as the count passes `limit`."""
    lines = 0

    def count(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
            if lines > limit:
                raise AssertionError(f"more than {limit} lines run")
        return count

    def trace(frame, event, arg):
        return count if frame.f_code.co_filename in files else None

    tracer = sys.gettrace()
    sys.settrace(trace)
    try:
        return call()
    finally:
        sys.settrace(tracer)
