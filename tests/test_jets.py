import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessiometric.errors import DomainError
from hessiometric.jets import Jet, exp, ln, pow_const, sqrt


def test_seed_two_vars():
    j = Jet.seed((2.0, 3.0), 0, 2)
    assert j.value == 2.0
    assert j.extract((1, 0)) == 1.0
    assert j.extract((0, 1)) == 0.0
    for idx in [(2, 0), (1, 1), (0, 2)]:
        assert j.extract(idx) == 0.0


def test_seed_one_var_order4():
    j = Jet.seed((5.0,), 0, 4)
    assert j.value == 5.0
    assert j.extract((1,)) == 1.0
    assert all(j.extract((k,)) == 0.0 for k in (2, 3, 4))


def test_seed_three_vars():
    j = Jet.seed((1.0, 1.0, 1.0), 2, 2)
    assert j.value == 1.0
    assert np.allclose(j.gradient(), [0, 0, 1])
    assert np.allclose(j.hessian(), 0)


def test_seed_errors():
    with pytest.raises(IndexError):
        Jet.seed((1.0, 2.0), 2, 2)
    with pytest.raises(ValueError):
        Jet.seed((1.0,), 0, 5)
    with pytest.raises(ValueError):
        Jet.seed((1.0,), 0, 0)


def test_square_of_seed():
    x = Jet.seed((2.0,), 0, 2)
    sq = x * x
    assert sq.extract((0,)) == 4.0
    assert sq.extract((1,)) == 4.0
    assert sq.extract((2,)) == 2.0


def test_reciprocal():
    x = Jet.seed((2.0,), 0, 2)
    r = 1 / x
    assert r.extract((0,)) == 0.5
    assert r.extract((1,)) == -0.25
    assert r.extract((2,)) == 0.25


def test_pow_fractional():
    p = pow_const(Jet.seed((1.0,), 0, 2), 1.5)
    assert p.extract((0,)) == 1.0
    assert p.extract((1,)) == 1.5
    assert p.extract((2,)) == 0.75


def test_pow_integer_negative_base():
    p = pow_const(Jet.seed((-2.0,), 0, 3), 3)
    assert p.extract((0,)) == -8.0
    assert p.extract((1,)) == 12.0
    assert p.extract((2,)) == -12.0
    assert p.extract((3,)) == 6.0


def test_pow_zero_base_integer():
    p = pow_const(Jet.seed((0.0,), 0, 4), 2)
    assert p.value == 0.0
    assert p.extract((2,)) == 2.0


def test_ln_at_two():
    l = ln(Jet.seed((2.0,), 0, 2))
    assert l.extract((0,)) == pytest.approx(math.log(2))
    assert l.extract((1,)) == 0.5
    assert l.extract((2,)) == -0.25


def test_exp_at_zero_all_ones():
    e = exp(Jet.seed((0.0,), 0, 4))
    for k in range(5):
        assert e.extract((k,)) == pytest.approx(1.0)


def test_sqrt_at_one():
    s = sqrt(Jet.seed((1.0,), 0, 2))
    assert s.extract((0,)) == 1.0
    assert s.extract((1,)) == 0.5
    assert s.extract((2,)) == -0.25


def test_fourth_derivative_of_x4():
    p = pow_const(Jet.seed((1.0,), 0, 4), 4)
    assert p.extract((4,)) == pytest.approx(24.0)


def test_mixed_partial_of_xy():
    x = Jet.seed((3.0, 7.0), 0, 2)
    y = Jet.seed((3.0, 7.0), 1, 2)
    assert (x * y).extract((1, 1)) == 1.0


def test_domain_errors():
    with pytest.raises(DomainError):
        ln(Jet.seed((0.0,), 0, 2))
    with pytest.raises(DomainError):
        sqrt(Jet.seed((-1.0,), 0, 2))
    with pytest.raises(DomainError):
        Jet.constant(1.0, 1, 2) / Jet.seed((0.0,), 0, 2)
    with pytest.raises(DomainError):
        pow_const(Jet.seed((-1.0,), 0, 2), 0.5)
    # derivative tables that overflow or divide by zero
    with pytest.raises(DomainError):
        ln(Jet.seed((1e-100,), 0, 4))
    with pytest.raises(DomainError):
        exp(Jet.seed((1000.0,), 0, 1))
    with pytest.raises(DomainError):
        pow_const(Jet.seed((1e308,), 0, 2), 1.5)


def test_extract_order_exceeded():
    j = Jet.seed((1.0,), 0, 2)
    with pytest.raises(ValueError):
        j.extract((3,))


def _random_poly_jet(rng, dim, order):
    n = len(Jet.constant(0.0, dim, order).coeffs)
    return Jet(dim, order, rng.uniform(-1, 1, size=n))


@pytest.mark.parametrize("dim", range(1, 9))
@settings(max_examples=10, deadline=None)
@given(st.integers(0, 4), st.integers(0, 10**6))
def test_product_is_truncated_convolution(dim, order, seed):
    # brute-force convolution oracle over exponent tuples
    from hessiometric.jets import _space
    rng = np.random.default_rng(seed)
    a = _random_poly_jet(rng, dim, order)
    b = _random_poly_jet(rng, dim, order)
    prod = a * b
    indices, rank, _, _, _ = _space(dim, order)
    expected = np.zeros(len(indices))
    for ia, ea in enumerate(indices):
        for ib, eb in enumerate(indices):
            if sum(ea) + sum(eb) > order:
                break  # graded order: later eb only have higher degree
            tot = tuple(x + y for x, y in zip(ea, eb))
            expected[rank[tot]] += a.coeffs[ia] * b.coeffs[ib]
    assert np.allclose(prod.coeffs, expected, rtol=0, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 10**6))
def test_gathered_tensors_match_extract(dim, order, seed):
    a = _random_poly_jet(np.random.default_rng(seed), dim, order)
    tensors = [a.gradient, a.hessian, a.third_tensor, a.fourth_tensor]
    for k, tensor in enumerate(tensors[:order], start=1):
        t = tensor()
        assert t.shape == (dim,) * k
        for axes in product(range(dim), repeat=k):
            idx = tuple(axes.count(i) for i in range(dim))
            assert t[axes] == a.extract(idx)
    for tensor in tensors[order:]:
        with pytest.raises(ValueError):
            tensor()


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10**6))
def test_ln_exp_roundtrip(dim, seed):
    rng = np.random.default_rng(seed)
    a = _random_poly_jet(rng, dim, 4)
    back = ln(exp(a))
    assert np.max(np.abs(back.coeffs - a.coeffs)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10**6))
def test_sqrt_square_roundtrip(dim, seed):
    rng = np.random.default_rng(seed)
    a = _random_poly_jet(rng, dim, 4)
    a.coeffs[0] = rng.uniform(0.5, 3.0)
    back = sqrt(a * a)
    assert np.max(np.abs(back.coeffs - a.coeffs)) < 1e-10


def test_dim_mismatch_rejected():
    with pytest.raises(ValueError):
        Jet.seed((1.0,), 0, 2) + Jet.seed((1.0, 2.0), 0, 2)


# -- batches ---------------------------------------------------------------

def _column(jet, p):
    return Jet(jet.dim, jet.order, jet.coeffs[:, p])


def _assert_columns(op, a, b, derivs):
    """op on the batch equals op on each column, sign bits included, or
    fails with the error of the first column that fails."""
    points = a.coeffs.shape[1]
    singles = []
    for p in range(points):
        try:
            singles.append(op(_column(a, p), _column(b, p), derivs[:, p]))
        except DomainError as e:
            with pytest.raises(DomainError) as batch_error:
                op(a, b, derivs)
            assert str(batch_error.value) == str(e)
            return
    batch = op(a, b, derivs)
    assert batch.coeffs.shape == a.coeffs.shape
    for p, single in enumerate(singles):
        assert np.array_equal(batch.coeffs[:, p], single.coeffs, equal_nan=True)
        assert np.array_equal(np.signbit(batch.coeffs[:, p]), np.signbit(single.coeffs))


# values at which a table raises for one point or leans on libm: a power
# of 1e-110 underflows to 0 and divides, v**5 overflows at 1e70, and
# integer powers take negative bases
_EDGE_VALUES = [1e-110, 1e70, -1e70, 0.0, -0.0, math.nan, math.inf, -math.inf,
                -2.0, -3.5]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(0, 4), st.integers(1, 16),
       st.integers(0, 10**6))
@np.errstate(over="ignore", invalid="ignore")
def test_batched_jets_equal_their_columns(dim, order, points, seed):
    rng = np.random.default_rng(seed)
    n = len(Jet.constant(0.0, dim, order).coeffs)
    a = Jet(dim, order, rng.uniform(-1, 1, size=(n, points)))
    b = Jet(dim, order, rng.uniform(-1, 1, size=(n, points)))
    a.coeffs[0] = rng.uniform(0.5, 2.0, points)  # ln, sqrt, powers, 1/a
    b.coeffs[0] = rng.uniform(-2.0, 2.0, points)
    b.coeffs[0, 0] = 0.0  # integer powers of a zero value
    derivs = rng.uniform(-1, 1, size=(order + 1, points))
    ops = [lambda x, y, d: x * y, lambda x, y, d: y / x,
           lambda x, y, d: 2.5 / x, lambda x, y, d: x + 1.0 - y,
           lambda x, y, d: ln(x), lambda x, y, d: exp(y), lambda x, y, d: sqrt(x),
           lambda x, y, d: pow_const(x, 1.5), lambda x, y, d: pow_const(x, -2),
           lambda x, y, d: pow_const(y, 3), lambda x, y, d: pow_const(y, 0),
           lambda x, y, d: pow_const(y, 5), lambda x, y, d: pow_const(y, -3),
           lambda x, y, d: x.compose(d)]
    tensors = ["gradient", "hessian", "third_tensor", "fourth_tensor"][:order]
    for op in ops:
        _assert_columns(op, a, b, derivs)
    # the same with an edge value in the first of two columns
    for v in _EDGE_VALUES:
        edge_a, edge_b = (Jet(dim, order, x.coeffs[:, :2].copy()) for x in (a, b))
        edge_a.coeffs[0, 0] = edge_b.coeffs[0, 0] = v
        for op in ops:
            _assert_columns(op, edge_a, edge_b, derivs[:, :2])
    for name in tensors:
        t = getattr(a, name)()
        assert t.shape[0] == points
        for p in range(points):
            assert np.array_equal(t[p], getattr(_column(a, p), name)())


def test_integer_powers_of_negative_bases_match_python_pow():
    # the tables take libm's pow, for a batch as for one point; at negative
    # bases and integer exponents it equals Python's ** bit for bit
    bases = (-np.geomspace(1e-5, 1e5, 41)).tolist()
    for p in (-3, -2, 2, 3, 5):
        assert [pow_const(Jet.constant(v, 1, 4), p).value for v in bases] == \
            [v ** p for v in bases]


def test_batch_fails_where_a_point_fails():
    x = Jet(1, 2, [[1.0, -1.0], [1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DomainError):
        ln(x)
    with pytest.raises(DomainError):
        1 / Jet(1, 2, [[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        x * Jet.seed((1.0,), 0, 2)  # batched times unbatched


# -- float operands --------------------------------------------------------

_slots = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, -3e250, 0.1])
_operand = st.one_of(_slots, st.floats(-1e3, 1e3), st.sampled_from([1e70, -1e-70]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 3), st.data())
def test_float_operand_rounds_as_constant_jet(dim, order, points, data):
    # x op c must equal x op constant_like(c) bit for bit, signed zeros
    # included; x / c also fails where the reciprocal of the constant does
    n = len(Jet.constant(0.0, dim, order).coeffs)
    shape = (n, points) if points else (n,)
    coeffs = data.draw(st.lists(_slots, min_size=n * max(points, 1),
                                max_size=n * max(points, 1)))
    x = Jet(dim, order, np.reshape(coeffs, shape))
    c = data.draw(_operand)
    ops = [lambda a, b: a + b, lambda a, b: b + a, lambda a, b: a - b,
           lambda a, b: b - a, lambda a, b: a * b, lambda a, b: b * a,
           lambda a, b: a / b]
    for op in ops:
        try:
            with np.errstate(over="ignore"):
                expected = op(x, x.constant_like(c)).coeffs
        except DomainError:
            with pytest.raises(DomainError):
                op(x, c)
            continue
        with np.errstate(over="ignore"):
            got = op(x, c).coeffs
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
