"""The one rule for a numeric input: :func:`check_number`."""

from __future__ import annotations

import math
import numbers


def check_number(name, value, *, above=None, at_least=None, integral=False):
    """``value``, or ``int(value)`` when ``integral``, if it is a finite
    ``numbers.Real`` (never a Python or numpy boolean) that exceeds
    ``above``, is at least ``at_least`` and, when ``integral``, equals an
    integer; otherwise a ValueError that names the field ``name``."""
    try:
        if (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value)
                and (not integral or value == int(value))
                and (above is None or value > above)
                and (at_least is None or value >= at_least)):
            return int(value) if integral else value
    except OverflowError:       # an integer beyond the float range
        pass
    bound = "" if above is None else f" and exceed {above}"
    bound += "" if at_least is None else f" and be at least {at_least}"
    kind = "an integer" if integral else "a finite real number"
    raise ValueError(f"{name} must be {kind}{bound}, got {value!r}")
