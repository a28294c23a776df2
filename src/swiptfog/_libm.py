"""C-library evaluation of math functions over arrays.

numpy's own loops for exp, log and power may round differently from the C
library in the last bit; on AVX-512 builds they do, for a few percent of
inputs.  The array code evaluates these functions through the math module,
as the scalar code does, so that both give the same bits.
"""

import numpy as np


def libm(fn, x):
    """fn, a math-module function of one float, at every element of x.
    A float argument gives a float result."""
    if isinstance(x, float):
        return fn(x)
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), dtype=float,
                       count=x.size).reshape(x.shape)
