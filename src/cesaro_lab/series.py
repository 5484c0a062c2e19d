"""Exact-truncation arithmetic on complex Taylor polynomials.

Every operator in this package is lower triangular in the monomial basis,
so the first M+1 coefficients of an image depend only on the first M+1
coefficients of the argument and truncation commutes exactly with
application.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Most multiply-adds :func:`real_matmul` hands to one BLAS call: OpenBLAS
#: 0.3.31 keeps calls below about 4.4e5 on the calling thread; larger ones
#: wake its worker threads, which spin on the other cores for no gain here.
SERIAL_PRODUCT_SIZE = 400_000

#: Coefficient magnitudes at or below this are structural zeros when
#: measuring the vanishing order at the origin.
ZERO_THRESHOLD = 1e-14


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
    if power < 0:
        raise ValueError("power must be nonnegative")
    c = np.zeros(power + 1, dtype=complex)
    c[power] = 1.0
    return Poly(c)


def truncate(p: Poly, degree: int) -> Poly:
    """Resize to the given degree, cutting or zero-padding the tail."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
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


def real_matmul(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for a real or complex matrix m and a complex array z, as real
    products over row blocks of m of at most ``SERIAL_PRODUCT_SIZE``
    multiply-adds: a complex product is 2-3x slower, and it and a larger
    real one wake idle-spinning BLAS worker threads."""
    if np.iscomplexobj(m):
        return real_matmul(m.real, z) + 1j * real_matmul(m.imag, z)
    step = max(1, SERIAL_PRODUCT_SIZE // max(1, z.size))  # z.size multiply-adds per row
    z_re, z_im = np.ascontiguousarray(z.real), np.ascontiguousarray(z.imag)
    out = np.empty(m.shape[:1] + z.shape[1:], dtype=complex)
    for i in range(0, m.shape[0], step):
        out.real[i : i + step] = m[i : i + step] @ z_re
        out.imag[i : i + step] = m[i : i + step] @ z_im
    return out


def cauchy_product(p: Poly, q: Poly, degree: int) -> Poly:
    """Coefficient convolution, truncated or zero-padded to ``degree``."""
    return truncate(Poly(np.convolve(p.coeffs, q.coeffs)[: degree + 1]), degree)


def binomial_series(alpha, degree: int) -> Poly:
    """Coefficients of (1 - z)**alpha.

    Uses the stable ratio recurrence c[n] = c[n-1] * (-(alpha - n + 1) / n),
    so c[n] = (-1)**n * alpha*(alpha-1)*...*(alpha-n+1) / n!.
    """
    a = require_finite_param(alpha, "alpha")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    c = np.empty(degree + 1, dtype=complex)
    c[0] = 1.0
    for n in range(1, degree + 1):
        c[n] = c[n - 1] * (-(a - n + 1) / n)
    return Poly(c)


def shifted_pole(n: int, degree: int) -> Poly:
    """Coefficients of z**(n-1) * (1 - z)**(-n), namely C(k, n-1) at z**k:
    the eigenvector of the averaging operator for the eigenvalue 1/n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    c = np.zeros(degree + 1, dtype=complex)
    c[n - 1 :] = binomial_series(-n, degree - (n - 1)).coeffs
    return Poly(c)


def log_one_minus_inv(degree: int) -> Poly:
    """Series of log(1/(1-z)): zero constant term, then 1/n."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    c = np.zeros(degree + 1, dtype=complex)
    c[1:] = 1.0 / np.arange(1, degree + 1)
    return Poly(c)


def vanishing_order(p) -> int:
    """Smallest n with |c_n| > ``ZERO_THRESHOLD`` in a Poly, or in some
    member of a stack; degree+1 when every coefficient is a structural zero."""
    stack = poly_stack(p)
    idx = np.flatnonzero((np.abs(stack) > ZERO_THRESHOLD).any(axis=0))
    return int(idx[0]) if idx.size else stack.shape[1]
