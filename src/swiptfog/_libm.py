"""C-library evaluation of math functions over arrays, for the oracle.

The grid oracle (bruteforce), verify's root-residual check (cli.certify),
verify's gain draw and the energy ledger's offload_bits evaluate exp, log2,
log1p and pow through the math module, one element at a time.  The kernel
does not: its exp, log2 and 2**u - 1 come from _ieee, so the oracle and the
ledger check it against independent implementations.

A power with a fixed base is mapped as a bound callable such as
``partial(pow, 10.0)``.  The oracle's offload grid sweep is the exception:
it evaluates 2**u with numpy's exp2, whose last bit may depend on the numpy
build.
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
