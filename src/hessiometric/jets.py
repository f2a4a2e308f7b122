"""Truncated multivariate Taylor arithmetic (jets) up to total order 4.

A :class:`Jet` carries every partial derivative of a scalar function at a
point, up to a fixed truncation order.  Order 4 is the highest anything in
this package needs: the scalar curvature of a Hessian metric involves
fourth derivatives of the potential.

Coefficients are stored densely, in graded-lexicographic order of the
multi-indices, in Taylor form (derivative divided by the multi-index
factorial).  This makes multiplication a plain truncated convolution;
the derivative tensors multiply the factorials back in.

A trailing batch axis, coefficients (ncoeff, P), makes one jet hold P
points; each column is computed exactly as its own unbatched jet, and
the tensors of a batch come out with a leading batch axis.  Derivative tables
take whole batch columns (libm per point, + - * / in numpy), bit for bit as
per point.  A float operand c rounds exactly as the constant jet ``constant_like(c)``.
"""

from __future__ import annotations

import math
from functools import lru_cache, wraps
from itertools import product
from types import SimpleNamespace

import numpy as np

from .errors import DomainError

MAX_ORDER = 4
MAX_DIM = 8


@lru_cache(maxsize=None)
def _space(dim: int, order: int):
    """Index tables for jets of a given dimension and order.

    Returns (indices, rank, mul_table, factorials, tensors, powers): the graded-lex
    exponent tuples, tuple -> slot, the (ia, ib, ic) arrays driving the truncated
    convolution, the multi-index factorials, per order k the (slots,
    factorials[slots]) pair that gathers the order-k tensor, and for k = 2..order
    ``mul_table`` cut to h^(k-1) * h for h(0) = 0 (deg a >= k-1, deg b >= 1).
    """
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"jet dimension must be in 1..{MAX_DIM}, got {dim}")
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
    indices = [e for e in product(range(order + 1), repeat=dim) if sum(e) <= order]
    indices.sort(key=lambda e: (sum(e), e))
    rank = {e: i for i, e in enumerate(indices)}
    pairs = np.array([(i, j, rank[tuple(x + y for x, y in zip(a, b))], sum(a), sum(b))
                      for i, a in enumerate(indices) for j, b in enumerate(indices)
                      if sum(a) + sum(b) <= order], dtype=np.intp).T
    table = tuple(pairs[:3])
    powers = tuple(tuple(t[(pairs[3] >= k - 1) & (pairs[4] >= 1)] for t in table)
                   for k in range(2, order + 1))
    factorials = np.array([math.prod(math.factorial(k) for k in e) for e in indices],
                          dtype=float)
    tensors = []
    for k in range(1, order + 1):
        slots = np.empty((dim,) * k, dtype=np.intp)
        for axes in product(range(dim), repeat=k):
            slots[axes] = rank[tuple(axes.count(i) for i in range(dim))]
        tensors.append((slots, factorials[slots]))
    return indices, rank, table, factorials, tuple(tensors), powers


def _jet(dim, order, coeffs):
    """Jet from coefficients the caller already shaped (no validation)."""
    jet = object.__new__(Jet)
    jet.dim, jet.order, jet.coeffs = dim, order, coeffs
    return jet


def affine_jets(values, gradients, order):
    """Jets of k affine functions from one coefficient block: values (k,)
    or (k, P) for a batch, gradients (k, dim)."""
    dim = gradients.shape[1]
    block = np.zeros((len(values), len(_space(dim, order)[0])) + values.shape[1:])
    block[:, 0] = values
    if order:  # graded-lex order puts the derivative along x_i in slot dim - i
        block[:, dim:0:-1] = gradients if values.ndim == 1 else gradients[..., None]
    return [_jet(dim, order, coeffs) for coeffs in block]


def _product(table, a, b):
    """Truncated convolution of two coefficient arrays through a table.
    ``bincount`` sums each slot in table order from +0.0, as ``np.add.at``
    would, also over a flattened (slot, point) index in every column of a batch."""
    ia, ib, ic = table
    terms = a[ia] * b[ib]
    if terms.ndim == 1:
        return np.bincount(ic, terms, len(a))
    flat = (ic[:, None] * a.shape[1] + np.arange(a.shape[1])).ravel()
    return np.bincount(flat, terms.ravel(), a.size).reshape(a.shape)


def _item(x):
    """A float for one point, the array as is for a batch."""
    return x if getattr(x, "ndim", 0) else float(x)


class Jet:
    """Taylor expansion of a scalar function at a point, truncated at
    total order ``order`` in ``dim`` variables."""

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim, order, coeffs):
        self.dim = int(dim)
        self.order = int(order)
        self.coeffs = np.asarray(coeffs, dtype=float)
        n = len(_space(self.dim, self.order)[0])
        if self.coeffs.shape[:1] != (n,) or self.coeffs.ndim > 2:
            raise ValueError(f"expected {n} coefficients (and an optional batch "
                             f"axis), got {self.coeffs.shape}")

    def constant_like(self, value):
        """Constant ``value`` with this jet's dimension, order and batch."""
        coeffs = np.zeros(self.coeffs.shape)
        coeffs[0] = value
        return _jet(self.dim, self.order, coeffs)

    # -- basic accessors ----------------------------------------------

    @property
    def value(self):
        return _item(self.coeffs[0])

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.dim != self.dim or other.coeffs.shape != self.coeffs.shape:
                raise ValueError("jet dim/order/batch mismatch")
            return other
        return self.constant_like(float(other))

    def __neg__(self):
        return _jet(self.dim, self.order, -self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        return _jet(self.dim, self.order, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return _jet(self.dim, self.order, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Jet):  # rounds as a product with constant_like
            return _jet(self.dim, self.order, self.coeffs * float(other) + 0.0)
        other = self._coerce(other)
        return _jet(self.dim, self.order,
                    _product(_space(self.dim, self.order)[2], self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * constant_value(_reciprocal, float(other))
        return self * _reciprocal(other)

    def __rtruediv__(self, other):
        return _reciprocal(self) * float(other)

    def __pow__(self, exponent):
        if isinstance(exponent, Jet):
            # general power: a^b = exp(b ln a), requires a > 0
            return exp(exponent * ln(self))
        return pow_const(self, float(exponent))

    # -- composition --------------------------------------------------

    def compose(self, derivs):
        """Univariate composition f(self), given f(a0), f'(a0), ...,
        f^(order)(a0) at a0 = self.value (floats or (P,) columns for a batch);
        a shorter list ends where every further term is exactly 0, as past f(a0) for h = 0.

        Implements Faa di Bruno through the truncation order by
        expanding f around a0 in powers of the non-constant part h; h^k has
        no slot below degree k, so each power skips the pairs that multiply
        those zeros (for finite h, +-0 terms that leave the sums unchanged).
        """
        h = self.coeffs.copy()
        h[0] = 0.0
        out = np.zeros(h.shape)
        out[0] = derivs[0]
        powers = _space(self.dim, self.order)[5]
        for k in range(1, len(derivs)):
            power = h if k == 1 else _product(powers[k - 2], power, h)
            out += power * (derivs[k] / math.factorial(k))
        return _jet(self.dim, self.order, out)

    # -- derivative tensors -------------------------------------------

    def _tensor(self, k):
        """Order-k derivative tensor, gathered in one fancy-index."""
        if k > self.order:
            raise ValueError(f"order-{k} tensor exceeds jet order {self.order}")
        slots, scale = _space(self.dim, self.order)[4][k - 1]
        c = self.coeffs
        return (c.T[..., slots] if c.ndim > 1 else c[slots]) * scale

    def gradient(self): return self._tensor(1)
    def hessian(self): return self._tensor(2)
    def third_tensor(self): return self._tensor(3)
    def fourth_tensor(self): return self._tensor(4)

    def __repr__(self):
        return f"Jet(dim={self.dim}, order={self.order}, value={self.value!r})"


# -- elementary functions ---------------------------------------------

def _per_point(f):
    """libm's ``f`` on each point of a batch column (numpy's own may differ)."""
    return lambda v, *a: np.array([f(x, *a) for x in v.tolist()])


_FLOAT = SimpleNamespace(any=bool, log=math.log, exp=math.exp, sqrt=math.sqrt, pow=math.pow)
# IEEE 754 rounds sqrt correctly, so numpy's equals libm's bit for bit
_COLUMN = SimpleNamespace(any=np.any, log=_per_point(math.log), exp=_per_point(math.exp),
                          sqrt=np.sqrt, pow=_per_point(math.pow))


def _derivatives(table, v, order, *args):
    """``table(v, order, lib, *args)``: leaving the float range or dividing by zero is a
    DomainError, for a batch column the error of its first failing point."""
    try:
        if isinstance(v, float):
            return table(v, order, _FLOAT, *args)
        with np.errstate(divide="raise", over="ignore"):
            return table(v, order, _COLUMN, *args)
    except (OverflowError, ZeroDivisionError, FloatingPointError, DomainError) as e:
        for x in () if isinstance(v, float) else v.tolist():
            _derivatives(table, x, order, *args)
        if isinstance(e, DomainError):
            raise
        raise DomainError(f"derivatives of {table.__name__.strip('_')} at "
                          f"{v!r} leave the float range") from None


def _elementary(table):
    """Jet function from a derivative table ``table(v, order, lib, *args)`` = [f(v),
    ..., f^(order)(v)] at a float or on a batch column (libm per point), bit for bit;
    at order 0 where no point of the argument has a nonzero derivative (a constant)."""
    @wraps(table)
    def fn(a: Jet, *args) -> Jet:
        order = a.order if np.count_nonzero(a.coeffs[1:]) else 0
        return a.compose(_derivatives(table, _item(a.coeffs[0]), order, *args))
    fn.table = table
    return fn


def constant_value(fn, v: float, *args) -> float:
    """f(v) from the order-0 table of ``fn``: a float divisor's reciprocal, a float's power."""
    return _derivatives(fn.table, v, 0, *args)[0]


def _inverse_powers(v, order, lib):
    """The derivatives of 1/v through ``order``: 1/v, -1/v^2, 2/v^3, -6/v^4, 24/v^5."""
    return [1 / v if k == 0 else (-1) ** k * math.factorial(k) / lib.pow(v, k + 1)
            for k in range(order + 1)]


@_elementary
def _reciprocal(v, order, lib):
    if lib.any(v == 0.0):
        raise DomainError("division by a jet with zero value")
    if lib.any(abs(1 / v) == math.inf):  # a subnormal v
        raise OverflowError
    return _inverse_powers(v, order, lib)


def _require_positive(name, v, lib):
    """DomainError unless v > 0 (0.0 may be a positive value that underflowed)."""
    if lib.any(v <= 0.0):
        kind = "zero or underflowed" if lib.any(v == 0.0) else "non-positive"
        raise DomainError(f"{name} of {kind} value {v}")


@_elementary
def ln(v, order, lib):
    _require_positive("ln", v, lib)
    return [lib.log(v)] + _inverse_powers(v, order - 1, lib)


@_elementary
def exp(v, order, lib):
    return [lib.exp(v)] * (order + 1)


@_elementary
def sqrt(v, order, lib):
    _require_positive("sqrt", v, lib)
    s = lib.sqrt(v)
    terms = (lambda: s, lambda: 0.5 / s, lambda: -0.25 / (s * v),
             lambda: 0.375 / (s * v * v), lambda: -0.9375 / (s * lib.pow(v, 3)))
    return [f() for f in terms[: order + 1]]


@_elementary
def pow_const(v, order, lib, p):
    """a**p for a real constant exponent.

    Integer exponents work for any nonzero base, non-negative ones also
    at zero; fractional exponents require a positive base value.  The
    derivative list of a non-negative integer power ends at its degree.
    """
    p = float(p)
    is_int = p.is_integer()
    if not is_int and lib.any(v <= 0.0):
        raise DomainError(f"fractional power {p} of non-positive value {v}")
    if is_int and p < 0 and lib.any(v == 0.0):
        raise DomainError("negative power of zero value")
    derivs = [lib.pow(v, p)]
    fac = 1.0
    for k in range(1, order + 1):
        fac *= p - (k - 1)
        if not fac:  # beyond the degree every derivative is exactly 0
            break
        derivs.append(fac * lib.pow(v, p - k))
    return derivs
