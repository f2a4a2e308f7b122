"""Truncated multivariate Taylor arithmetic (jets) up to total order 4.

A :class:`Jet` carries every partial derivative of a scalar function at a
point, up to a fixed truncation order.  Order 4 is the highest anything in
this package needs: the scalar curvature of a Hessian metric involves
fourth derivatives of the potential.

Coefficients are stored densely, in graded-lexicographic order of the
multi-indices, in Taylor form (derivative divided by the multi-index
factorial).  This makes multiplication a plain truncated convolution;
:func:`extract` multiplies the factorial back in.

A trailing batch axis, coefficients (ncoeff, P), makes one jet hold P
points; each column is computed exactly as its own unbatched jet, and
the tensors of a batch come out with a leading batch axis.  Derivative tables
take whole batch columns (libm per point, + - * / in numpy), bit for bit as
per point.  A float operand c rounds exactly as the constant jet ``constant_like(c)``.
"""

from __future__ import annotations

import math
from functools import lru_cache, partialmethod, wraps
from itertools import product
from types import SimpleNamespace

import numpy as np

from .errors import DomainError

MAX_ORDER = 4
MAX_DIM = 8


@lru_cache(maxsize=None)
def _space(dim: int, order: int):
    """Index tables for jets of a given dimension and order.

    Returns (indices, rank, mul_table, factorials, tensors): the graded-lex
    exponent tuples, tuple -> slot, the (ia, ib, ic) arrays driving the
    truncated convolution, the multi-index factorials, and per order k the
    (slots, factorials[slots]) pair that gathers the order-k tensor.
    """
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"jet dimension must be in 1..{MAX_DIM}, got {dim}")
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
    indices = [e for e in product(range(order + 1), repeat=dim) if sum(e) <= order]
    indices.sort(key=lambda e: (sum(e), e))
    rank = {e: i for i, e in enumerate(indices)}
    ia, ib, ic = [], [], []
    for i, a in enumerate(indices):
        for j, b in enumerate(indices):
            if sum(a) + sum(b) <= order:
                ia.append(i)
                ib.append(j)
                ic.append(rank[tuple(x + y for x, y in zip(a, b))])
    table = (np.asarray(ia), np.asarray(ib), np.asarray(ic))
    factorials = np.array([math.prod(math.factorial(k) for k in e) for e in indices],
                          dtype=float)
    tensors = []
    for k in range(1, order + 1):
        slots = np.empty((dim,) * k, dtype=np.intp)
        for axes in product(range(dim), repeat=k):
            slots[axes] = rank[tuple(axes.count(i) for i in range(dim))]
        tensors.append((slots, factorials[slots]))
    return indices, rank, table, factorials, tuple(tensors)


def _jet(dim, order, coeffs):
    """Jet from coefficients the caller already shaped (no validation)."""
    jet = object.__new__(Jet)
    jet.dim, jet.order, jet.coeffs = dim, order, coeffs
    return jet


def affine_jets(values, gradients, order):
    """Jets of k affine functions from one coefficient block: values (k,)
    or (k, P) for a batch, gradients (k, dim)."""
    dim = gradients.shape[1]
    indices, _, _, _, tensors = _space(dim, order)
    block = np.zeros((len(values), len(indices)) + values.shape[1:])
    block[:, 0] = values
    if order:
        block[:, tensors[0][0]] = gradients if values.ndim == 1 else gradients[..., None]
    return [_jet(dim, order, coeffs) for coeffs in block]


def _product(dim, order, a, b):
    """Truncated convolution of two coefficient arrays.  ``bincount``
    sums each slot in table order, as ``np.add.at`` would, also over a
    flattened (slot, point) index in every column of a batch."""
    ia, ib, ic = _space(dim, order)[2]
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

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, dim, order):
        """Constant jet; an array ``value`` gives a batch of constants."""
        return cls.affine(value, np.zeros(dim), order)

    def constant_like(self, value):
        """Constant ``value`` with this jet's dimension, order and batch."""
        coeffs = np.zeros(self.coeffs.shape)
        coeffs[0] = value
        return _jet(self.dim, self.order, coeffs)

    @classmethod
    def seed(cls, point, var_index, order):
        """Jet of the coordinate x^var_index at ``point``, (dim,) or (dim, P)."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        dim = point.shape[0]
        if not 0 <= var_index < dim:
            raise IndexError(f"var_index {var_index} out of range for dim {dim}")
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
        return cls.affine(point[var_index], np.eye(dim)[var_index], order)

    @classmethod
    def affine(cls, value, gradient, order):
        """Jet of an affine function with the given value(s) and gradient."""
        return affine_jets(np.asarray(value, dtype=float)[None],
                           np.asarray(gradient, dtype=float)[None], order)[0]

    # -- basic accessors ----------------------------------------------

    @property
    def value(self):
        return _item(self.coeffs[0])

    def extract(self, idx):
        """Partial derivative for the multi-index ``idx`` (a tuple of
        exponents): coefficient times the multi-index factorial."""
        idx = tuple(int(k) for k in idx)
        if len(idx) != self.dim:
            raise ValueError(f"multi-index length {len(idx)} != dim {self.dim}")
        if any(k < 0 for k in idx):
            raise ValueError("multi-index exponents must be non-negative")
        if sum(idx) > self.order:
            raise ValueError(f"multi-index order {sum(idx)} exceeds jet order {self.order}")
        _, rank, _, factorials, _ = _space(self.dim, self.order)
        r = rank[idx]
        return _item(self.coeffs[r] * factorials[r])

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
                    _product(self.dim, self.order, self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * constant_value(_reciprocal, float(other), self.order)
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
        f^(order)(a0) at a0 = self.value (floats or (P,) columns for a batch).

        Implements Faa di Bruno through the truncation order by
        expanding f around a0 in powers of the non-constant part.
        """
        h = self.coeffs.copy()
        h[0] = 0.0
        out = np.zeros_like(h)
        out[0] = derivs[0]
        for k in range(1, self.order + 1):
            power = h if k == 1 else _product(self.dim, self.order, power, h)
            out = out + power * (derivs[k] / math.factorial(k))
        return _jet(self.dim, self.order, out)

    # -- derivative tensors -------------------------------------------

    def _tensor(self, k):
        """Order-k derivative tensor, gathered in one fancy-index."""
        if k > self.order:
            raise ValueError(f"order-{k} tensor exceeds jet order {self.order}")
        slots, scale = _space(self.dim, self.order)[4][k - 1]
        c = self.coeffs
        return (c.T[..., slots] if c.ndim > 1 else c[slots]) * scale

    gradient = partialmethod(_tensor, 1)
    hessian = partialmethod(_tensor, 2)
    third_tensor = partialmethod(_tensor, 3)
    fourth_tensor = partialmethod(_tensor, 4)

    def __repr__(self):
        return f"Jet(dim={self.dim}, order={self.order}, value={self.value!r})"


# -- elementary functions ---------------------------------------------

def _per_point(f):
    """libm's ``f`` on each point of a batch column (numpy's own may differ)."""
    return lambda v, *a: np.array([f(x, *a) for x in v.tolist()])


_FLOAT = SimpleNamespace(any=bool, log=math.log, exp=math.exp, sqrt=math.sqrt, pow=math.pow)
_COLUMN = SimpleNamespace(any=np.any, log=_per_point(math.log), exp=_per_point(math.exp),
                          sqrt=_per_point(math.sqrt), pow=_per_point(math.pow))


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
    ..., f^(order)(v)] at a float or on a batch column (libm per point), bit for bit."""
    @wraps(table)
    def fn(a: Jet, *args) -> Jet:
        return a.compose(_derivatives(table, _item(a.coeffs[0]), a.order, *args))
    fn.table = table
    return fn


def constant_value(fn, v: float, order: int, *args) -> float:
    """Value of ``fn(Jet.constant(v, dim, order), *args)`` as a float: f(v)
    plus the zero terms ``compose`` adds (NaN where a derivative is not
    finite)."""
    derivs = _derivatives(fn.table, v, order, *args)
    value = derivs[0]
    for k in range(1, order + 1):
        value = value + 0.0 * (derivs[k] / math.factorial(k))
    return value


@_elementary
def _reciprocal(v, order, lib):
    if lib.any(v == 0.0):
        raise DomainError("division by a jet with zero value")
    return [1 / v, -1 / lib.pow(v, 2), 2 / lib.pow(v, 3), -6 / lib.pow(v, 4),
            24 / lib.pow(v, 5)][: order + 1]


@_elementary
def ln(v, order, lib):
    if lib.any(v <= 0.0):
        raise DomainError(f"ln of non-positive value {v}")
    return [lib.log(v), 1 / v, -1 / lib.pow(v, 2), 2 / lib.pow(v, 3),
            -6 / lib.pow(v, 4)][: order + 1]


@_elementary
def exp(v, order, lib):
    return [lib.exp(v)] * (order + 1)


@_elementary
def sqrt(v, order, lib):
    if lib.any(v <= 0.0):
        raise DomainError(f"sqrt of non-positive value {v}")
    s = lib.sqrt(v)
    return [s, 0.5 / s, -0.25 / (s * v), 0.375 / (s * v * v),
            -0.9375 / (s * lib.pow(v, 3))][: order + 1]


@_elementary
def pow_const(v, order, lib, p):
    """a**p for a real constant exponent.

    Integer exponents work for any nonzero base, non-negative ones also
    at zero; fractional exponents require a positive base value.
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
        # beyond the degree of an integer power the derivative is exactly 0
        derivs.append(fac * lib.pow(v, p - k) if fac else 0.0)
    return derivs
