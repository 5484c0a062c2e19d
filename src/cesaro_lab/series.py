"""Exact-truncation arithmetic on complex Taylor polynomials.

Every operator in this package is lower triangular in the monomial basis,
so the first M+1 coefficients of an image depend only on the first M+1
coefficients of the argument and truncation commutes exactly with
application.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

#: Most multiply-adds :func:`stack_product` hands to one BLAS call: OpenBLAS
#: 0.3.31 keeps calls below about 4.4e5 on the calling thread; larger ones
#: wake its worker threads, which spin on the other cores for no gain here.
SERIAL_PRODUCT_SIZE = 400_000

#: Complex members per product of :func:`stack_product`, twice as many real ones.
PRODUCT_BLOCK = 8

#: Coefficient magnitudes at or below this are structural zeros when
#: measuring the vanishing order at the origin.
ZERO_THRESHOLD = 1e-14


def require_count(value, what: str, low: int = 0, cap=math.inf) -> int:
    """``value`` as an int, refused unless it is an integer in low..cap (a
    float such as 1024.0 counts), naming it as ``what``: the one check of
    every degree, size and sample count, made before anything of that size
    is built.  An int is never converted to a float, so an integer of any
    size is refused by its bound, not by an overflow."""
    # int first: the abstract-base-class check alone costs about 1 us a call
    integral = isinstance(value, (int, numbers.Integral))
    if not integral and not (isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValueError(f"{what} must be an integer, got {value}")
    count = int(value)
    if count < low:
        raise ValueError(f"{what} must be at least {low}")
    if count > cap:
        raise ValueError(f"{what} {count} exceeds the cap {cap}")
    return count


def require_finite_param(value, name: str) -> complex:
    """Validate a scalar operation parameter as a finite complex number."""
    v = complex(value)
    if not (np.isfinite(v.real) and np.isfinite(v.imag)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return v


@dataclass(frozen=True, eq=False)
class Poly:
    """Truncated Taylor series; ``coeffs[n]`` multiplies z**n."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex, copy=True)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must form a non-empty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must all be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1


def monomial(power: int) -> Poly:
    """z**power as a degree-``power`` polynomial."""
    power = require_count(power, "power")
    c = np.zeros(power + 1, dtype=complex)
    c[power] = 1.0
    return Poly(c)


def truncate(p: Poly, degree: int) -> Poly:
    """Resize to the given degree, cutting or zero-padding the tail."""
    degree = require_count(degree, "degree")
    if degree == p.degree:
        return p
    if degree < p.degree:
        return Poly(p.coeffs[: degree + 1])
    return Poly(np.concatenate([p.coeffs, np.zeros(degree - p.degree, dtype=complex)]))


def poly_stack(h) -> np.ndarray:
    """The (members, degree+1) complex coefficients of a Poly h, one row, of
    a non-empty sequence of Polys of one degree, or of a finite non-empty
    2-d array, as a new C-ordered array that a kernel may change in place:
    the one boundary that every array-first kernel crosses."""
    if isinstance(h, np.ndarray):
        stack = np.array(h, dtype=complex, order="C")
        valid = stack.ndim == 2 and stack.size > 0 and np.all(np.isfinite(stack))
    else:
        members = [h] if isinstance(h, Poly) else list(h)
        valid = all(isinstance(p, Poly) for p in members) and len({p.degree for p in members}) == 1
        stack = np.array([p.coeffs for p in members]) if valid else None
    if not valid:
        raise ValueError("h must be a Poly or a stack of one degree: Polys or a finite 2-d array")
    return stack


def as_given(h, results, lam=None):
    """A kernel's per-member ``results`` in the shape in which the caller
    gave h to :func:`poly_stack` and, when passed, its own lam: the (M, ...)
    results, or the (L, M, ...) grid of an array of L lam, lose the lam axis
    for a number lam (a 0-d array too) and the member axis for a Poly h.  An
    array that loses an axis comes back C-ordered; one that loses none is
    the kernel's own."""
    lam_axis = lam is not None and np.ndim(lam) > 0
    kept = results if lam is None or lam_axis else results[0]
    if isinstance(h, Poly):
        kept = kept[:, 0] if lam_axis else kept[0]
    return kept if kept is results or np.ndim(kept) == 0 else np.ascontiguousarray(kept)


def stack_as_given(h, stack: np.ndarray, lam=None):
    """A kernel's coefficient stack or grid as :func:`as_given` shapes it,
    as a Poly when one coefficient row is left."""
    kept = as_given(h, stack, lam)
    return Poly(kept) if kept.ndim == 1 else kept


def horner_eval(p, z):
    """Horner's rule in z, acc = acc * z + c_k from the top coefficient, at
    a scalar or an array z; a stack of one degree gives one row per member,
    bit for bit its member's own call.  At degree N the value is within
    4N u sum_k |c_k| |z|**k of the sum (u = 2**-53; Higham, Accuracy and
    Stability of Numerical Algorithms, section 5.1)."""
    stack = poly_stack(p)
    zs = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(zs)):
        raise ValueError("evaluation points must be finite")
    acc = np.repeat(stack[:, -1:], zs.size, axis=1)
    for c in stack.T[-2::-1]:
        acc *= zs.reshape(-1)
        acc += c[:, None]
    values = as_given(p, acc.reshape(stack.shape[:1] + zs.shape))
    return complex(values) if values.ndim == 0 else values


def stack_product(m: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """m @ c for a real or complex (rows, K) matrix m and each member c of a
    real or complex (members, K) stack, as a C-ordered (members, rows) array,
    real when both are: the one matrix-times-stack product.  Members fill
    zero-padded blocks of 16 real columns, a complex one as its real and
    imaginary parts side by side, and a complex m goes as its real rows over
    its imaginary rows (a complex product is 2-3x slower), so each row block
    is one real product of at most ``SERIAL_PRODUCT_SIZE`` multiply-adds.  A
    product has one shape per m, and each column depends only on itself, so
    a member's bits do not depend on its stack or its place in it."""
    real = np.concatenate([m.real, m.imag]) if np.iscomplexobj(m) else m
    pairs = np.iscomplexobj(stack)  # a complex member takes two real columns
    size = 2 * PRODUCT_BLOCK // (1 + pairs)  # members per block
    sums = np.empty((len(real), 2 * PRODUCT_BLOCK))
    step = max(1, SERIAL_PRODUCT_SIZE // (sums.shape[1] * m.shape[1]))  # rows per product
    out = np.empty((len(stack), len(m)), dtype=np.result_type(m, stack))
    for start in range(0, len(stack), size):
        members = stack[start : start + size]
        block = np.zeros((m.shape[1], size), dtype=complex if pairs else float)
        block[:, : len(members)] = members.T
        for i in range(0, len(real), step):
            np.matmul(real[i : i + step], block.view(float), out=sums[i : i + step])
        values = (sums.view(complex) if pairs else sums)[:, : len(members)].T
        if np.iscomplexobj(m):
            values = values[:, : len(m)] + 1j * values[:, len(m) :]
        out[start : start + len(members)] = values
    return out


def cauchy_product(p: Poly, q: Poly, degree: int) -> Poly:
    """Coefficient convolution, truncated or zero-padded to ``degree``."""
    degree = require_count(degree, "degree")
    return truncate(Poly(np.convolve(p.coeffs, q.coeffs)[: degree + 1]), degree)


def binomial_series(alpha, degree: int) -> Poly:
    """Coefficients of (1 - z)**alpha.

    Uses the stable ratio recurrence c[n] = c[n-1] * (-(alpha - n + 1) / n),
    so c[n] = (-1)**n * alpha*(alpha-1)*...*(alpha-n+1) / n!.
    """
    a = require_finite_param(alpha, "alpha")
    degree = require_count(degree, "degree")
    c = np.empty(degree + 1, dtype=complex)
    c[0] = 1.0
    for n in range(1, degree + 1):
        c[n] = c[n - 1] * (-(a - n + 1) / n)
    return Poly(c)


def shifted_pole(n: int, degree: int) -> Poly:
    """Coefficients of z**(n-1) * (1 - z)**(-n), namely C(k, n-1) at z**k:
    the eigenvector of the averaging operator for the eigenvalue 1/n."""
    n = require_count(n, "n", 1)
    degree = require_count(degree, f"degree for n = {n}", n - 1)
    c = np.zeros(degree + 1, dtype=complex)
    c[n - 1 :] = binomial_series(-n, degree - (n - 1)).coeffs
    return Poly(c)


def log_one_minus_inv(degree: int) -> Poly:
    """Series of log(1/(1-z)): zero constant term, then 1/n."""
    degree = require_count(degree, "degree", 1)
    c = np.zeros(degree + 1, dtype=complex)
    c[1:] = 1.0 / np.arange(1, degree + 1)
    return Poly(c)


def vanishing_order(p) -> int:
    """Smallest n with |c_n| > ``ZERO_THRESHOLD`` in a Poly, or in some
    member of a stack; degree+1 when every coefficient is a structural zero."""
    stack = poly_stack(p)
    idx = np.flatnonzero((np.abs(stack) > ZERO_THRESHOLD).any(axis=0))
    return int(idx[0]) if idx.size else stack.shape[1]


#: The named series of the command line's ``--f`` and of the test corpus, each
#: built at a degree: bounded, logarithmic and standard-order growth.
BUILTIN_FUNCTIONS = {
    "const1": lambda degree: truncate(monomial(0), degree),
    "log-inv": log_one_minus_inv,
    "log-neg": lambda degree: Poly(-log_one_minus_inv(degree).coeffs),
    "geom": lambda degree: binomial_series(-1, degree),
    "binom-half": lambda degree: binomial_series(-0.5, degree),
    "binom-2": lambda degree: binomial_series(-2, degree),
    "e2": lambda degree: shifted_pole(2, degree),
    "e3": lambda degree: shifted_pole(3, degree),
    "e4": lambda degree: shifted_pole(4, degree),
}
