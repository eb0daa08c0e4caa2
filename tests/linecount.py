"""One line-event counter for the complexity checks.

Executed lines, not time: a count does not drift with the machine.  Counts
differ between Python versions, so the checks assert only their ratios.
"""

from __future__ import annotations

import sys


def line_events(call, *args, expected: tuple[type[BaseException], ...] = ()) -> int:
    """The line events Python traces while ``call(*args)`` runs; an
    exception of a type in ``expected`` ends the count.  Any tracer already
    set is put back afterwards."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local)
    try:
        call(*args)
    except expected:
        pass
    finally:
        sys.settrace(old)
    return count
