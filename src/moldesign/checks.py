"""Value checks shared by the config dataclasses, the CLI and the
numeric entry points, the one error type of a bad configuration, and the
readers of every text and JSON input file.

A bool is not accepted as a number: JSON true would otherwise read as 1.
"""

import json
import math
import numbers

import numpy as np


class ConfigError(Exception):
    """A config value is missing, unknown or out of range; the CLI exits 1."""


def is_int(x, least):
    """x is an integer >= least."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) \
        and x >= least


def is_real(x):
    """x is a finite real number."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) \
        and math.isfinite(x)


def repeated(values):
    """The entries of the list values that equal an earlier entry."""
    return [v for i, v in enumerate(values) if v in values[:i]]


def as_box(bounds, n, error):
    """bounds = (lo, hi) as float arrays; raises error unless both have
    shape (n,)."""
    lo, hi = (np.asarray(b, dtype=float) for b in bounds)
    if lo.shape != (n,) or hi.shape != (n,):
        raise error("bounds of shapes %s and %s for dimension %d"
                    % (lo.shape, hi.shape, n))
    return lo, hi


def check_keys(cfg, keys, error, kind="config"):
    """Raise error unless the config object cfg has schema_version 1 (or
    none), the integer, and no key outside keys other than
    schema_version."""
    version = cfg.get("schema_version", 1)
    if not is_int(version, 1) or version != 1:
        raise error("unsupported %s schema %r" % (kind, version))
    for key in cfg:
        if key not in keys and key != "schema_version":
            raise error("unknown %s key %r" % (kind, key))


def read_text(path):
    """The text of the file at path, decoded as UTF-8; a file that is not
    UTF-8 raises ConfigError naming it."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise ConfigError("%s is not UTF-8 text: %s" % (path, e)) \
                from None


def read_json(path):
    """The JSON object in the file at path; a file that is not JSON, or
    holds another JSON value, raises ConfigError naming it."""
    try:
        value = json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise ConfigError("%s is not JSON: %s" % (path, e)) from None
    if not isinstance(value, dict):
        raise ConfigError("%s is not a JSON object" % path)
    return value
