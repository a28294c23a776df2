"""exp, 2**u - 1 and log2 on float64 arrays, with the same bits on every CPU
and numpy build.

They are built only from operations whose results IEEE 754 fixes: + - * /
and np.sqrt, which it rounds correctly, and np.rint, np.frexp and np.ldexp,
which are exact (ldexp rounds once where its result is subnormal).  Every
step is a separate ufunc call, so no multiply-add is fused into one
rounding, and no step takes a vectorised or C-library transcendental whose
last bit depends on the platform.  Each function takes an array-like and
returns a float64 array of its shape, element by element: an element's bits
do not depend on its neighbours, its position or the array's alignment.

The algorithms are those of fdlibm (Sun Microsystems, 1993) and its FreeBSD
descendant, written on arrays:

* exp: Cody-Waite reduction x = k ln2 + r with ln2 split in two, so that
  k * ln2_hi is exact, and fdlibm's rational form of exp(r).  Error below
  1 ulp.
* exp2m1: u = k + r with r = u - rint(u) exact; 2**r - 1 is r ln2 (as an
  exact Dekker product plus the tail of ln2) plus a Taylor series in r, and
  (1 - 2**-k) + (2**r - 1) is summed in compensated arithmetic before the
  exact scaling by 2**k.  There is no cancellation in 2**u - 1 for small u.
  Error below 1 ulp on [1e-12, 60].
* log2: frexp gives x = m 2**e with m in [sqrt(1/2), sqrt(2)); log(m) is
  the atanh series in s = (m - 1)/(m + 1), and the product with 1/ln2 is
  carried in two parts.  Error below 1 ulp.

Special values are those of the C library (exp(-inf) = 0, log2(0) = -inf,
log2(x < 0) = NaN, ...), and no floating-point warning is raised.
"""

from decimal import Context, Decimal

import numpy as np

__all__ = ["LN2", "exp", "exp2m1", "log2"]

# fdlibm e_exp.c: ln2 = _LN2_HI + _LN2_LO with 32 significant bits in
# _LN2_HI, and the minimax coefficients of its rational approximation.
_INV_LN2 = 1.44269504088896338700e+00
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_P1 = 1.66666666666666019037e-01
_P2 = -2.77777777770155933842e-03
_P3 = 6.61375632143793436117e-05
_P4 = -1.65339022054652515390e-06
_P5 = 4.13813679705723846039e-08
# exp(x) is 0 below this and inf above this; clipping keeps k in range.
_EXP_MIN, _EXP_MAX = -746.0, 710.0

# fdlibm k_log.h: the atanh series of log(1 + f) = log((1 + s)/(1 - s)),
# minimax in s**2; FreeBSD e_log2.c: 1/ln2 = _INV_LN2_HI + _INV_LN2_LO with
# 32 significant bits in _INV_LN2_HI.
_LG1 = 6.666666666666735130e-01
_LG2 = 3.999999999940941908e-01
_LG3 = 2.857142874366239149e-01
_LG4 = 2.222219843214978396e-01
_LG5 = 1.818357216161805012e-01
_LG6 = 1.531383769920937332e-01
_LG7 = 1.479819860511658591e-01
_INV_LN2_HI = 1.44269504072144627571e+00
_INV_LN2_LO = 1.67517131648865118353e-10
_SQRT_HALF = 0.70710678118654752440
# Veltkamp's splitter 2**32 + 1 leaves 21 significant bits in the high
# part, so its product with _INV_LN2_HI is exact.
_SPLIT_32 = 4294967297.0
_SPLIT_27 = 134217729.0  # 2**27 + 1: halves of 26 bits


def _ln2_constants():
    """ln2 rounded to a double, its split into two 26-bit halves, the
    rounding error of the double, and the Taylor coefficients ln2**n / n!
    for n = 2..14, each from 40-digit decimal arithmetic."""
    ctx = Context(prec=40)
    ln2 = ctx.ln(2)
    whole = float(ln2)
    c = whole * _SPLIT_27
    high = c - (c - whole)
    term, taylor = ln2, []
    for n in range(2, 15):
        term = ctx.divide(ctx.multiply(term, ln2), n)
        taylor.append(float(term))
    return whole, high, whole - high, float(ctx.subtract(ln2, Decimal(whole))), taylor


LN2, _LN2_A, _LN2_B, _LN2_TAIL, _TAYLOR = _ln2_constants()  # LN2: ln 2
# 2**u - 1 rounds to -1 below this and overflows above this.
_EXP2M1_MIN, _EXP2M1_MAX = -80.0, 1025.0
_EXP2M1_TINY = 2.0 ** -1000


def _horner(t, coefficients):
    """The polynomial c_0 + c_1 t + c_2 t**2 + ... of the coefficients
    c_0, c_1, ..., each step a separate ufunc call."""
    acc = t * coefficients[-1]
    for c in coefficients[-2:0:-1]:
        acc += c
        acc *= t
    acc += coefficients[0]
    return acc


def exp(x):
    """e**x, element-wise, within 1 ulp of the exact value."""
    x = np.asarray(x, dtype=float)
    shape = x.shape
    with np.errstate(all="ignore"):
        x = np.clip(x.reshape(-1), _EXP_MIN, _EXP_MAX)  # NaN stays NaN
        k = x * _INV_LN2
        np.rint(k, out=k)
        hi = k * _LN2_HI
        np.subtract(x, hi, out=hi)  # exact
        lo = np.multiply(k, _LN2_LO, out=x)
        r = hi - lo
        t = r * r
        c = _horner(t, (_P1, _P2, _P3, _P4, _P5))
        c *= t
        np.subtract(r, c, out=c)
        # exp(r) = 1 - ((lo - r c / (2 - c)) - hi)
        y = np.multiply(r, c, out=t)
        np.subtract(2.0, c, out=c)
        y /= c
        np.subtract(lo, y, out=y)
        y -= hi
        np.subtract(1.0, y, out=y)
        return np.ldexp(y, k.astype(np.int32), out=y).reshape(shape)


def exp2m1(u):
    """2**u - 1, element-wise, within 1 ulp of the exact value."""
    u = np.asarray(u, dtype=float)
    shape = u.shape
    with np.errstate(all="ignore"):
        u = np.clip(u.reshape(-1), _EXP2M1_MIN, _EXP2M1_MAX)  # NaN stays NaN
        tiny = np.abs(u) < _EXP2M1_TINY
        u_tiny = u[tiny]
        k = np.rint(u)
        r = np.subtract(u, k, out=u)  # exact, |r| <= 1/2
        # r ln2 = hi + err exactly (Dekker's product without a fused
        # multiply-add: r and LN2 split into halves of 26 bits)
        hi = r * LN2
        r1 = r * _SPLIT_27
        r2 = r1 - r
        r1 -= r2
        np.subtract(r, r1, out=r2)
        err = r1 * _LN2_A
        err -= hi
        t = np.multiply(r1, _LN2_B, out=r1)
        err += t
        np.multiply(r2, _LN2_A, out=t)
        err += t
        np.multiply(r2, _LN2_B, out=t)
        err += t
        # 2**r - 1 = hi + tail, with the rounding error of LN2 and the
        # Taylor terms of order 2 to 14 in the tail
        np.multiply(r, _LN2_TAIL, out=t)
        err += t
        q = _horner(r, _TAYLOR)
        np.multiply(r, r, out=t)
        q *= t
        err += q
        # 2**u - 1 = 2**k ((1 - 2**-k) + hi + tail), where 1 - 2**-k is
        # exact for |k| <= 53 and a + hi is an exact two-sum
        ki = k.astype(np.int32)
        a = np.ldexp(1.0, -ki, out=k)
        np.subtract(1.0, a, out=a)
        s = np.add(a, hi, out=t)
        bb = np.subtract(s, a, out=r2)  # Knuth's two-sum: s_lo = (a + hi) - s
        s_lo = np.subtract(s, bb, out=q)
        np.subtract(a, s_lo, out=s_lo)
        np.subtract(hi, bb, out=bb)
        s_lo += bb
        s_lo += err
        s += s_lo
        out = np.ldexp(s, ki, out=s)
        # where u ln2 is subnormal it is the whole result, and the products
        # above would round
        if u_tiny.size:
            out[tiny] = u_tiny * LN2
        return out.reshape(shape)


def log2(x):
    """Base-2 logarithm, element-wise, within 1 ulp of the exact value."""
    x = np.asarray(x, dtype=float)
    shape, x = x.shape, x.reshape(-1)
    with np.errstate(all="ignore"):
        regular = (x > 0.0) & (x < np.inf)
        special = None
        if not regular.all():
            special = ~regular
            xs = x[special]
            special_values = np.where(
                xs == 0.0, -np.inf, np.where(xs == np.inf, np.inf, np.nan))
            x = np.where(regular, x, 1.0)
        m, e = np.frexp(x)  # x = m 2**e, m in [1/2, 1)
        low = m < _SQRT_HALF
        m *= low + 1.0  # m in [sqrt(1/2), sqrt(2))
        y = e.astype(float)
        y -= low
        f = m
        f -= 1.0  # exact
        s = f + 2.0
        np.divide(f, s, out=s)
        z = s * s
        w = z * z
        t1 = _horner(w, (_LG2, _LG4, _LG6))
        t1 *= w
        r = _horner(w, (_LG1, _LG3, _LG5, _LG7))
        r *= z
        r += t1  # R
        hfsq = np.multiply(f, f, out=z)
        hfsq *= 0.5
        r += hfsq
        r *= s  # s (hfsq + R): log(1 + f) = f - hfsq + that
        # hi: f - hfsq with 21 significant bits (Veltkamp), lo: the rest
        hi = np.subtract(f, hfsq, out=w)
        c = np.multiply(hi, _SPLIT_32, out=t1)
        np.subtract(c, hi, out=s)
        np.subtract(c, s, out=hi)
        lo = np.subtract(f, hi, out=f)
        lo -= hfsq
        lo += r
        val_hi = np.multiply(hi, _INV_LN2_HI, out=c)
        val_lo = np.add(lo, hi, out=hi)
        val_lo *= _INV_LN2_LO
        np.multiply(lo, _INV_LN2_HI, out=lo)
        val_lo += lo
        # y + val_hi as a two-sum; |y| >= 1 > |val_hi| unless y == 0
        total = np.add(y, val_hi, out=s)
        np.subtract(y, total, out=y)
        y += val_hi
        val_lo += y
        total += val_lo
        if special is not None:
            total[special] = special_values
        return total.reshape(shape)
