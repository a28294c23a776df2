"""C-library evaluation of math functions over arrays.

numpy's own loops for exp, log and power may round differently from the C
library in the last bit; on AVX-512 builds they do, for a few percent of
inputs.  The array code evaluates these functions through the math module,
so that its bits do not depend on how numpy was built.

A power with a fixed exponent is mapped as a bound float method,
``(2.0).__rpow__`` for x ** 2: the same C pow call as ``partial(pow,
exp=2)`` at about a third of the cost per element, since a keyword partial
builds a keyword call for every element.  ``np.square`` is no substitute:
it multiplies, and a product can differ from the C library's pow(x, 2) in
the last bit.
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
