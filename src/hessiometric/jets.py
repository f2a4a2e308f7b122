"""Truncated multivariate Taylor arithmetic (jets) up to total order 4.

A :class:`Jet` carries every partial derivative of a scalar function at a
point, up to a fixed truncation order.  Order 4 is the highest anything in
this package needs: the scalar curvature of a Hessian metric involves
fourth derivatives of the potential.

Coefficients are stored densely, in graded-lexicographic order of the
multi-indices, in Taylor form (derivative divided by the multi-index
factorial).  This makes multiplication a plain truncated convolution;
:func:`extract` multiplies the factorial back in.
"""

from __future__ import annotations

import math
from functools import lru_cache, partialmethod, wraps
from itertools import product

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


def _product(dim, order, a, b):
    """Truncated convolution of two coefficient vectors.  ``bincount``
    sums each slot in table order, as ``np.add.at`` would."""
    ia, ib, ic = _space(dim, order)[2]
    return np.bincount(ic, a[ia] * b[ib], len(a))


class Jet:
    """Taylor expansion of a scalar function at a point, truncated at
    total order ``order`` in ``dim`` variables."""

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim, order, coeffs):
        self.dim = int(dim)
        self.order = int(order)
        self.coeffs = np.asarray(coeffs, dtype=float)
        n = len(_space(self.dim, self.order)[0])
        if self.coeffs.shape != (n,):
            raise ValueError(f"expected {n} coefficients, got {self.coeffs.shape}")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, dim, order):
        coeffs = np.zeros(len(_space(dim, order)[0]))
        coeffs[0] = value
        return _jet(dim, order, coeffs)

    @classmethod
    def seed(cls, point, var_index, order):
        """Jet of the coordinate function x^var_index at ``point``."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        dim = point.shape[0]
        if not 0 <= var_index < dim:
            raise IndexError(f"var_index {var_index} out of range for dim {dim}")
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
        return cls.affine(point[var_index], np.eye(dim)[var_index], order)

    @classmethod
    def affine(cls, value, gradient, order):
        """Jet of an affine function with the given value and gradient."""
        gradient = np.asarray(gradient, dtype=float)
        dim = gradient.shape[0]
        indices, _, _, _, tensors = _space(dim, order)
        coeffs = np.zeros(len(indices))
        coeffs[0] = value
        coeffs[tensors[0][0]] = gradient  # first-order slots
        return _jet(dim, order, coeffs)

    # -- basic accessors ----------------------------------------------

    @property
    def value(self):
        return float(self.coeffs[0])

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
        return float(self.coeffs[r] * factorials[r])

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.dim != self.dim or other.order != self.order:
                raise ValueError("jet dim/order mismatch")
            return other
        return Jet.constant(float(other), self.dim, self.order)

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
        if not isinstance(other, Jet):
            return _jet(self.dim, self.order, self.coeffs * float(other))
        other = self._coerce(other)
        return _jet(self.dim, self.order,
                    _product(self.dim, self.order, self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return _jet(self.dim, self.order, self.coeffs / float(other))
        if other.value == 0.0:
            raise DomainError("division by a jet with zero value")
        return self * _reciprocal(other)

    def __rtruediv__(self, other):
        if self.value == 0.0:
            raise DomainError("division by a jet with zero value")
        return _reciprocal(self) * float(other)

    def __pow__(self, exponent):
        if isinstance(exponent, Jet):
            # general power: a^b = exp(b ln a), requires a > 0
            return exp(exponent * ln(self))
        return pow_const(self, float(exponent))

    # -- composition --------------------------------------------------

    def compose(self, derivs):
        """Univariate composition f(self), given the values
        f(a0), f'(a0), ..., f^(order)(a0) at a0 = self.value.

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
        return self.coeffs[slots] * scale

    gradient = partialmethod(_tensor, 1)
    hessian = partialmethod(_tensor, 2)
    third_tensor = partialmethod(_tensor, 3)
    fourth_tensor = partialmethod(_tensor, 4)

    def __repr__(self):
        return f"Jet(dim={self.dim}, order={self.order}, value={self.value!r})"


# -- elementary functions ---------------------------------------------

def _derivative_table(fn):
    """DomainError where a derivative table overflows or divides by zero."""
    @wraps(fn)
    def guarded(a, *args):
        try:
            return fn(a, *args)
        except (OverflowError, ZeroDivisionError):
            raise DomainError(f"derivatives of {fn.__name__.strip('_')} at "
                              f"{a.value!r} leave the float range") from None
    return guarded


@_derivative_table
def _reciprocal(a: Jet) -> Jet:
    v = a.value
    derivs = [1 / v, -1 / v**2, 2 / v**3, -6 / v**4, 24 / v**5]
    return a.compose(derivs[: a.order + 1])


@_derivative_table
def ln(a: Jet) -> Jet:
    v = a.value
    if v <= 0.0:
        raise DomainError(f"ln of non-positive value {v}")
    derivs = [math.log(v), 1 / v, -1 / v**2, 2 / v**3, -6 / v**4]
    return a.compose(derivs[: a.order + 1])


@_derivative_table
def exp(a: Jet) -> Jet:
    ev = math.exp(a.value)
    return a.compose([ev] * (a.order + 1))


@_derivative_table
def sqrt(a: Jet) -> Jet:
    v = a.value
    if v <= 0.0:
        raise DomainError(f"sqrt of non-positive value {v}")
    s = math.sqrt(v)
    derivs = [s, 0.5 / s, -0.25 / (s * v), 0.375 / (s * v * v), -0.9375 / (s * v**3)]
    return a.compose(derivs[: a.order + 1])


@_derivative_table
def pow_const(a: Jet, p: float) -> Jet:
    """a**p for a real constant exponent.

    Integer exponents work for any nonzero base; fractional exponents
    require a positive base value.
    """
    v = a.value
    if p == 0.0:
        return Jet.constant(1.0, a.dim, a.order)
    is_int = float(p).is_integer()
    if not is_int and v <= 0.0:
        raise DomainError(f"fractional power {p} of non-positive value {v}")
    if is_int and v == 0.0:
        if p < 0:
            raise DomainError("negative power of zero value")
        # small non-negative integer power of a zero-valued jet: multiply out
        out = Jet.constant(1.0, a.dim, a.order)
        for _ in range(int(p)):
            out = out * a
        return out
    derivs = [v**p]
    fac = 1.0
    for k in range(1, a.order + 1):
        fac *= p - (k - 1)
        derivs.append(fac * v ** (p - k))
    return a.compose(derivs)
