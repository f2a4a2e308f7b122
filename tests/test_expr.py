import math
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hessiometric.expr as ex
from hessiometric import BUILTIN_NAMES, builtin, jets
from hessiometric.errors import DomainError, ExprSyntaxError, UnknownIdentifierError
from hessiometric.expr import BinOp, Call, Name, Neg, Num
from hessiometric.jets import Jet


IDEAL_GAS_EXPR = "N*R*ln(K*V*U^c*N^(-(c+1)))+S0"


def test_single_variable():
    assert ex.parse("x") == Name("x")


def test_precedence_mul_over_add():
    assert ex.parse("a+b*c") == ex.parse("a+(b*c)")
    assert ex.parse("a*b+c") == ex.parse("(a*b)+c")


def test_power_right_associative():
    assert ex.parse("a^b^c") == ex.parse("a^(b^c)")


def test_unary_minus_binds_between_pow_and_mul():
    assert ex.parse("-a^2") == Neg(BinOp("^", Name("a"), Num(2.0)))
    assert ex.parse("-a*b") == BinOp("*", Neg(Name("a")), Name("b"))


def test_left_associativity():
    assert ex.parse("a-b-c") == ex.parse("(a-b)-c")
    assert ex.parse("a/b/c") == ex.parse("(a/b)/c")


def test_log_alias():
    assert ex.parse("log(x)") == Call("ln", Name("x"))


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        ex.parse("2x")


def test_unbalanced_paren_offset():
    with pytest.raises(ExprSyntaxError) as err:
        ex.parse("ln(V")
    assert err.value.offset == 4


def test_dangling_operator():
    with pytest.raises(ExprSyntaxError):
        ex.parse("a+")
    with pytest.raises(ExprSyntaxError):
        ex.parse("*a")


def test_unknown_function():
    with pytest.raises(ExprSyntaxError):
        ex.parse("sin(x)")


def test_empty_expression():
    with pytest.raises(ExprSyntaxError):
        ex.parse("")
    with pytest.raises(ExprSyntaxError):
        ex.parse("   ")


def test_validate_ideal_gas():
    ast = ex.parse(IDEAL_GAS_EXPR)
    ex.validate(ast, ["U", "V", "N"], ["R", "c", "K", "S0"])


def test_validate_missing_parameter():
    ast = ex.parse(IDEAL_GAS_EXPR)
    with pytest.raises(UnknownIdentifierError) as err:
        ex.validate(ast, ["U", "V", "N"], ["R", "c", "S0"])
    assert "K" in err.value.names


def test_validate_empty_variables():
    with pytest.raises(UnknownIdentifierError):
        ex.validate(ex.parse("x"), [], [])


def test_eval_ideal_gas_hessian_of_negated_entropy():
    ast = ex.parse(IDEAL_GAS_EXPR)
    params = {"R": 1.0, "c": 1.5, "K": 1.0, "S0": 0.0}
    jet = ex.eval_jet(ast, ["U", "V", "N"], [1.0, 1.0, 1.0], params, 2)
    assert jet.value == pytest.approx(0.0, abs=1e-14)
    hess = (-jet).hessian()
    expected = np.array([[1.5, 0, -1.5], [0, 1, -1], [-1.5, -1, 2.5]])
    assert np.allclose(hess, expected, atol=1e-12)


def test_eval_constant_expression():
    jet = ex.eval_jet(ex.parse("42"), ["x"], [3.0], {}, 4)
    assert jet.value == 42.0
    assert not np.any(jet.coeffs[1:])


def test_eval_domain_violation():
    with pytest.raises(DomainError):
        ex.eval_jet(ex.parse("ln(U)"), ["U"], [0.0], {}, 2)


def test_variable_exponent_uses_exp_ln():
    # x^y at (2, 3): value 8, d/dy = 8 ln 2
    jet = ex.eval_jet(ex.parse("x^y"), ["x", "y"], [2.0, 3.0], {}, 2)
    assert jet.value == pytest.approx(8.0)
    assert jet.extract((0, 1)) == pytest.approx(8.0 * math.log(2.0))


# -- random round-trip corpus ------------------------------------------

_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=9.9).map(lambda v: Num(round(v, 3))),
    st.sampled_from(["x", "y", "z", "w1"]).map(Name),
)


def _node(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), children, children).map(
            lambda t: BinOp(*t)),
        st.tuples(st.sampled_from(["ln", "exp", "sqrt"]), children).map(
            lambda t: Call(*t)),
    )


_ast = st.recursive(_leaf, _node, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_ast)
def test_pretty_print_roundtrip(ast):
    assert ex.parse(ex.pretty(ast)) == ast


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_order_zero_matches_float_eval(seed):
    # random expressions built only from safe positive operations
    rng = np.random.default_rng(seed)
    names = ["x", "y"]
    point = rng.uniform(0.5, 2.0, size=2)

    def rand_expr(depth):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.5:
                return repr(round(rng.uniform(0.1, 3.0), 4))
            return names[rng.integers(0, 2)]
        op = rng.choice(["+", "*", "/", "ln", "sqrt", "^"])
        if op in "+*/":
            return f"({rand_expr(depth-1)}{op}{rand_expr(depth-1)})"
        if op == "^":
            return f"({rand_expr(depth-1)}^{round(rng.uniform(0.5, 2.0), 2)})"
        return f"{op}({rand_expr(depth-1)})"

    text = rand_expr(3)
    ast = ex.parse(text)
    try:
        jet = ex.eval_jet(ast, names, point, {}, 0)
    except DomainError:
        # ln of a sub-unit value can go negative and feed sqrt/ln
        assume(False)
    env = {"x": point[0], "y": point[1], "ln": math.log, "sqrt": math.sqrt,
           "exp": math.exp}
    direct = eval(text.replace("^", "**"), {"__builtins__": {}}, env)
    assert jet.value == pytest.approx(direct, rel=1e-14)


# -- constants as floats: oracle walker ----------------------------------

def _reference_walk(ast, env):
    """Jets-only walk: every Num is a constant jet, as are the parameters
    in ``env``, so every operation is a jet operation."""
    if isinstance(ast, Num):
        return next(iter(env.values())).constant_like(ast.value)
    if isinstance(ast, Name):
        return env[ast.name]
    if isinstance(ast, Neg):
        return -_reference_walk(ast.operand, env)
    if isinstance(ast, Call):
        return getattr(jets, ast.fn)(_reference_walk(ast.arg, env))
    left, right = _reference_walk(ast.left, env), _reference_walk(ast.right, env)
    if ast.op != "^":
        return {"+": operator.add, "-": operator.sub, "*": operator.mul,
                "/": operator.truediv}[ast.op](left, right)
    c = right.coeffs
    if not c[1:].any() and (c.ndim == 1 or (c[0] == c[0, 0]).all()):
        return jets.pow_const(left, c.flat[0])
    return left ** right


def _reference_jet(ast, variables, point, params, order):
    point = np.atleast_1d(np.asarray(point, dtype=float))
    gradients = np.eye(len(variables))
    env = {name: Jet.affine(point[..., i], gradients[i], order)
           for i, name in enumerate(variables)}
    for name, value in params.items():
        env[name] = env[variables[0]].constant_like(float(value))
    jet = _reference_walk(ast, env)
    if not np.isfinite(jet.coeffs).all():
        raise DomainError("not finite")
    return jet


@np.errstate(over="ignore", invalid="ignore")  # the infinite constants
def _same_outcome(ast, variables, point, params, order):
    try:
        expected = _reference_jet(ast, variables, point, params, order)
    except DomainError:
        with pytest.raises(DomainError):
            ex.eval_jet(ast, variables, point, params, order)
        return
    got = ex.eval_jet(ast, variables, point, params, order)
    assert np.array_equal(got.coeffs, expected.coeffs)
    assert np.array_equal(np.signbit(got.coeffs), np.signbit(expected.coeffs))


_EDGE_EXPRESSIONS = ["2^U", "ln(2)*U", "(-2)*U - 0*V + N/3", "3", "1",
                     "-U - -0", "-U + -(c+1)", "U/1e100", "2^-3*U + exp(-1e400)",
                     "exp(U - 1e400*2)", "(U + exp(1e400))^0", "U/1e-63",
                     "U^(V-V) - 5/3"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BUILTIN_NAMES), st.integers(0, 4), st.integers(1, 6),
       st.integers(0, 10**6))
def test_constant_operands_match_constant_jets(name, order, points, seed):
    # every builtin's entropy and domain constraints, and edge expressions
    # over the same coordinates, at points inside and outside the domain
    model = builtin(name)
    rng = np.random.default_rng(seed)
    grid = rng.choice([-1.0, -0.0, 0.0, 0.3, 0.5, 1.0, 1.7, 2.0], size=(points, 3))
    grid[: points // 2] = rng.uniform(0.05, 2.5, size=(points // 2, 3))
    asts = [model.entropy, *model.domain]
    if name == "ideal_gas":
        asts += [ex.parse(text) for text in _EDGE_EXPRESSIONS]
    for ast in asts:
        _same_outcome(ast, model.coordinates, grid, model.parameters, order)
        for point in grid:
            _same_outcome(ast, model.coordinates, point, model.parameters, order)


def test_environment_folds_a_variable_only_with_one_value():
    # a column of one value, bit for bit, is a float; signed zeros, NaN and
    # distinct values stay jets, and one point's coordinates are all floats
    values = np.array([[1.5, 1.5], [0.0, -0.0], [math.nan, math.nan], [1.0, 2.0]])
    env = ex.environment(["a", "b", "c", "d"], {"R": 2}, values, np.eye(4), 0)
    assert env["a"] == 1.5 and env["R"] == 2.0
    assert all(isinstance(env[name], Jet) for name in "bcd")
    env = ex.environment(["a", "b"], {}, np.array([1.5, -0.0]), np.eye(2), 0)
    assert env["a"] == 1.5 and math.copysign(1.0, env["b"]) == -1.0
    # with derivatives, only a one-valued column whose gradient row is +0.0
    grads = np.array([[1.0, 0.0], [0.0, 0.0], [-0.0, 0.0], [0.0, 0.0]])
    values = np.array([[1.5, 1.5], [2.0, 2.0], [3.0, 3.0], [1.0, 2.0]])
    env = ex.environment(["a", "b", "c", "d"], {}, values, grads, 1)
    assert env["b"] == 2.0
    assert all(isinstance(env[name], Jet) for name in "acd")
