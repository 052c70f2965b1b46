"""Elementary functions for formulas written once for floats and arrays.

``of(x)`` gives the namespace matching x: for a Python float it holds
the ``math`` functions and builtins themselves (and one conditional
expression), so the scalar formulas keep their exact bits and nearly
their cost; for a numpy array it holds the elementwise numpy
counterparts.  The worst-case bound and the key rate
use these, so one statement of each law scores a single cluster and a
whole table of candidate clusters.

Both namespaces hold sqrt, log2, maximum(floor, x) (for floats what
max(floor, x) gives, NaN included; np.maximum for arrays, where a NaN
propagates so that a later finiteness check sees it), floor and int (to
integers), any and isfinite (finite everywhere).
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

_ndarray = np.ndarray


SCALAR = SimpleNamespace(
    # a conditional expression costs half of what the builtin max does
    sqrt=math.sqrt, log2=math.log2, maximum=lambda floor, x: x if x > floor else floor,
    floor=math.floor, int=int,
    any=bool, isfinite=math.isfinite)

ARRAY = SimpleNamespace(
    sqrt=np.sqrt, log2=np.log2, maximum=np.maximum,
    floor=lambda x: np.floor(x).astype(np.int64),
    int=lambda x: x.astype(np.int64),
    any=np.ndarray.any, isfinite=lambda x: bool(np.isfinite(x).all()))


def of(x) -> SimpleNamespace:
    """ARRAY for a numpy array, else SCALAR."""
    return ARRAY if isinstance(x, _ndarray) else SCALAR
