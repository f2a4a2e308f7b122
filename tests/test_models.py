import json
import math
import re
from collections import Counter
from itertools import product

import numpy as np
import pytest

from helpers import ENTROPY_FNS, sample_points
from hessiometric import BUILTIN_NAMES, builtin, expr, geometry, load_model
from hessiometric.errors import DomainError, ModelSchemaError, UnknownIdentifierError

IDEAL_GAS_DOC = {
    "name": "ideal_gas",
    "coordinates": ["U", "V", "N"],
    "parameters": {"R": 1.0, "c": 1.5, "K": 1.0, "S0": 0.0},
    "entropy": "N*R*ln(K*V*U^c*N^(-(c+1))) + S0",
    "domain": ["U", "V", "N"],
}


def entropy(model, point):
    """The entropy at a point of the domain: minus the potential."""
    return -model.potential_jet(point, order=1).value


def test_load_ideal_gas_json():
    model = load_model(json.dumps(IDEAL_GAS_DOC))
    assert model.coordinates == ("U", "V", "N")
    assert entropy(model, [1, 1, 1]) == pytest.approx(0.0)


def test_load_missing_entropy():
    doc = {k: v for k, v in IDEAL_GAS_DOC.items() if k != "entropy"}
    with pytest.raises(ModelSchemaError):
        load_model(json.dumps(doc))


def test_load_unknown_identifier():
    doc = dict(IDEAL_GAS_DOC, entropy="W*R")
    with pytest.raises(UnknownIdentifierError) as err:
        load_model(json.dumps(doc))
    assert "W" in err.value.names


def test_load_unknown_key_rejected():
    doc = dict(IDEAL_GAS_DOC, extra=1)
    with pytest.raises(ModelSchemaError):
        load_model(json.dumps(doc))


def test_load_duplicate_coordinates_rejected():
    doc = dict(IDEAL_GAS_DOC, coordinates=["U", "U", "N"])
    with pytest.raises(ModelSchemaError):
        load_model(json.dumps(doc))


NINE = [f"x{i}" for i in range(9)]


@pytest.mark.parametrize("changes, message", [
    # more coordinates than a jet carries
    ({"coordinates": NINE, "entropy": "+".join(f"ln({x})" for x in NINE)},
     "at most 8 coordinates, got 9"),
    # "" is no identifier: it would collide with the walk's own environment key
    ({"coordinates": ["U", "", "N"]}, "got ''"),
    ({"parameters": {"": 1.0}}, "got ''"),
    # a parameter named like a coordinate would silently replace it
    ({"parameters": {"V": 2.0}}, "got 'V'"),
    # a name the parser cannot read would be silently dead
    ({"coordinates": ["U", "U V", "N"]}, "got 'U V'"),
    ({"parameters": {"R": 1.0, "2c": 1.5}}, "got '2c'"),
])
def test_load_rejects_names_the_expressions_cannot_mean(changes, message):
    with pytest.raises(ModelSchemaError, match=re.escape(message)):
        load_model(json.dumps(dict(IDEAL_GAS_DOC, **changes)))


def test_load_accepts_eight_coordinates_with_underscores():
    names = [f"x_{i}" for i in range(8)]
    model = load_model(json.dumps({"name": "eight", "coordinates": names,
                                   "entropy": "+".join(f"ln({x})" for x in names)}))
    assert model.dim == 8
    assert entropy(model, [1.0] * 8) == 0.0


def test_load_invalid_json():
    with pytest.raises(ModelSchemaError):
        load_model("{not json")


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
                         ids=["NaN", "Infinity", "-Infinity", "1e999", "1e400_integer"])
def test_load_rejects_a_parameter_that_is_no_finite_float(value):
    # json reads the first four as floats; the integer lies beyond the float range
    document = json.dumps(IDEAL_GAS_DOC).replace('"R": 1.0', f'"R": {value}')
    with pytest.raises(ModelSchemaError, match="'parameters' must map strings to finite numbers"):
        load_model(document)


def test_load_an_integer_of_too_many_digits_is_a_schema_error():
    # Python's json refuses to read an integer of more than 4300 digits
    with pytest.raises(ModelSchemaError):
        load_model(json.dumps(IDEAL_GAS_DOC).replace('"R": 1.0', '"R": 1' + "0" * 5000))


def test_builtin_values():
    assert entropy(builtin("ideal_gas"), [1, 1, 1]) == pytest.approx(0.0)
    assert entropy(builtin("paramagnet"), [1, 0, 1]) == pytest.approx(0.0)
    assert entropy(builtin("kerr_newman_radiant"), [1, 0, 0]) \
        == pytest.approx(0.5)


def test_entropy_value_outside_the_domain_raises():
    # the walk alone gives 0.0 at u = -1
    model = builtin("kerr_newman_radiant")
    assert entropy(model, [-1, 0, 0]) == 0.0
    with pytest.raises(DomainError):
        model.require_domain([-1, 0, 0])


def test_builtin_unknown_name():
    with pytest.raises(ModelSchemaError):
        builtin("nope")


def test_builtin_parameter_signs():
    with pytest.raises(ModelSchemaError):
        builtin("ideal_gas", R=-1.0)
    with pytest.raises(ModelSchemaError):
        builtin("paramagnet", T0=0.0)


def test_builtins_do_not_share_parameters():
    # the expressions of a builtin are parsed once; its parameters are not shared
    changed = builtin("ideal_gas")
    changed.parameters["R"] = 2.0
    fresh = builtin("ideal_gas")
    assert fresh.parameters == {"R": 1.0, "c": 1.5, "K": 1.0, "S0": 0.0}
    assert entropy(fresh, [1, 1, 1]) == pytest.approx(0.0)
    assert entropy(changed, [1, 2, 1]) == pytest.approx(2 * entropy(fresh, [1, 2, 1]))


def test_builtin_unknown_override():
    with pytest.raises(ModelSchemaError):
        builtin("ideal_gas", Z=2.0)


@pytest.mark.parametrize("override", [{"S0": float("nan")}, {"R": float("inf")}, {"R": "2"},
                                      {"c": True}, {"R": 10**400}],
                         ids=["nan", "inf", "string", "bool", "1e400_integer"])
def test_builtin_overrides_follow_the_model_file_parameter_rule(override):
    with pytest.raises(ModelSchemaError, match="'parameters' must map strings to finite numbers"):
        builtin("ideal_gas", **override)


def test_builtin_accepts_finite_int_and_float_overrides():
    model = builtin("ideal_gas", R=2, S0=-1e300)
    assert model.parameters == {"R": 2.0, "c": 1.5, "K": 1.0, "S0": -1e300}
    assert all(type(v) is float for v in model.parameters.values())


def test_domain_checks():
    ig = builtin("ideal_gas")
    assert ig.domain_check([1, 1, 1])
    assert not ig.domain_check([-1, 1, 1])
    kn = builtin("kerr_newman_radiant")
    assert not kn.domain_check([1, 0.5, 0.9])  # 1 - 0.5 - 0.81 < 0
    assert kn.domain_check([1, 0.2, 0.2])


def test_entropy_matches_float_oracle():
    rng = np.random.default_rng(7)
    for name, fn in ENTROPY_FNS.items():
        model = builtin(name)
        for p in sample_points(name, 20, rng):
            assert entropy(model, p) == pytest.approx(fn(p), rel=1e-13)


def test_paramagnet_fundamental_equation_roundtrip():
    # the builtin inverts U = N R T0 exp(S/(N R) + I^2/(N^2 I0^2))
    rng = np.random.default_rng(11)
    model = builtin("paramagnet", R=1.3, T0=0.7, I0=1.1)
    R, T0, I0 = 1.3, 0.7, 1.1
    for _ in range(100):
        U = rng.uniform(0.3, 3.0)
        I = rng.uniform(-1.0, 1.0)
        N = rng.uniform(0.3, 3.0)
        S = entropy(model, [U, I, N])
        U_back = N * R * T0 * math.exp(S / (N * R) + I**2 / (N**2 * I0**2))
        assert U_back == pytest.approx(U, rel=1e-12)


def test_domains_are_scale_closed():
    rng = np.random.default_rng(13)
    for name in ENTROPY_FNS:
        model = builtin(name)
        for p in sample_points(name, 10, rng):
            assert model.domain_check(p)
            for lam in (0.5, 2.0, 10.0):
                assert model.domain_check(lam * p)


def test_batched_domain_mask_matches_points():
    # ln(u) cannot be evaluated at u <= 0, 1/v not at v = 0: such a failure
    # marks only its own point of the batch
    model = load_model(json.dumps({"name": "m", "coordinates": ["u", "v"],
                                   "entropy": "u + v",
                                   "domain": ["ln(u) + 2", "1/v"]}))
    points = np.array([[u, v] for u in (-1.0, 0.0, 0.1, 1.0, 2.0)
                       for v in (-1.0, 0.0, 0.5)])
    mask = model.domain_check(points)
    assert mask.tolist() == [model.domain_check(p) for p in points]
    assert mask.any() and not mask.all()
    kn = builtin("kerr_newman_radiant")
    grid = np.array([[u, q, 0.25] for u in np.linspace(0.1, 2, 9)
                     for q in np.linspace(0, 0.4, 9)])
    assert kn.domain_check(grid).tolist() == [kn.domain_check(p) for p in grid]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_non_finite_points_lie_outside_every_domain(name):
    # paramagnet's constraints leave I out, "free" has none: a point with a
    # non-finite coordinate is still outside, and marks only itself
    free = load_model(json.dumps({"name": "free", "coordinates": ["x", "y", "z"],
                                  "entropy": "x + y + z"}))
    points = sample_points(name, 12, np.random.default_rng(5))
    for k, (i, v) in enumerate(product(range(3), [math.inf, -math.inf, math.nan])):
        points[k, i] = v
    for model in (builtin(name), free):
        mask = model.domain_check(points)
        assert mask.tolist() == [model.domain_check(p) for p in points]
        assert mask.tolist() == [False] * 9 + [True] * 3


def _order1_inside(model, point):
    """The domain test on order-1 jets: every constraint evaluates to a
    finite jet with a positive value."""
    try:
        return all(expr.eval_jet(c, model.coordinates, point, model.parameters,
                                 order=1).value > 0.0 for c in model.domain)
    except DomainError:
        return False


@np.errstate(over="ignore")  # x*y at 1e200 overflows on purpose
def test_value_only_domain_mask_matches_order_one():
    rng = np.random.default_rng(17)
    always = load_model(json.dumps({"name": "c", "coordinates": ["x", "y", "z"],
                                    "entropy": "3", "domain": ["1"]}))
    overflows = load_model(json.dumps({"name": "o", "coordinates": ["x", "y", "z"],
                                       "entropy": "x + y + z", "domain": ["x*y", "z"]}))
    # a negated constant (a jet with -0.0 slots), a constant that folds to inf
    # (and stays a jet), and a product that underflows to 0 at small z
    edges = load_model(json.dumps({"name": "e", "coordinates": ["x", "y", "z"],
                                   "entropy": "x + y + z",
                                   "domain": ["-(-2) - y", "1/(1e308*10) + x",
                                              "1e-160*z*1e-160"]}))
    for model in [builtin(name) for name in BUILTIN_NAMES] + [always, overflows, edges]:
        points = np.vstack([rng.uniform(-1.0, 2.5, size=(40, 3)),
                            [[0.0, 0.0, 0.0], [1.0, 0.5, 0.4], [1.0, 0.5, 0.5],
                             [1e308, 1.0, 1.0], [1e-200, 1.0, 1.0],
                             [1e200, 1e200, 1.0], [1.0, 1.0, 1e-5],
                             [-0.0, 1.0, 1.0], [1.0, -0.0, 0.5], [0.5, 0.5, -0.0]]])
        expected = [_order1_inside(model, p) for p in points]
        assert [model.domain_check(p) for p in points] == expected
        assert model.domain_check(points).tolist() == expected
        assert any(expected) and (model is always or not all(expected))


def test_a_value_only_domain_check_reads_no_derivative():
    # -1/U^2 leaves the float range at U = 1e-200, where ln(U) + 1000 is about 539
    model = load_model(json.dumps({"name": "l", "coordinates": ["U"], "entropy": "ln(U)",
                                   "domain": ["ln(U) + 1000"]}))
    assert model.domain_check([1e-200])
    assert model.domain_check(np.array([[1e-200], [2e-200]])).tolist() == [True, True]


def test_single_point_metric_makes_no_order_one_walk(monkeypatch):
    orders = Counter()

    def counted(ast, env):
        jet = eval_on(ast, env)
        orders[jet.order] += 1
        return jet

    eval_on = expr.eval_on
    monkeypatch.setattr(expr, "eval_on", counted)
    for name in BUILTIN_NAMES:
        model = builtin(name)
        orders.clear()
        geometry.hessian_metric(model, sample_points(name, 1, np.random.default_rng(3))[0])
        assert orders == {0: len(model.domain), 3: 1}
