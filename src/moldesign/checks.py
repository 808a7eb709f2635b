"""Value checks shared by the config dataclasses and the CLI.

A bool is not accepted as a number: JSON true would otherwise read as 1.
"""

import math
import numbers


def is_int(x, least):
    """x is an integer >= least."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) \
        and x >= least


def is_real(x):
    """x is a finite real number."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) \
        and math.isfinite(x)
