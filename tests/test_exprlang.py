"""Expression language: parser, evaluator, printer, symbolic derivative."""

import numpy as np
import pytest

from diracsplit.exprlang import (
    BinOp,
    Call,
    ExprEvalError,
    ExprSyntaxError,
    Neg,
    Num,
    Var,
    compile_expr,
    differentiate,
    evaluate,
    free_variables,
    parse,
    to_string,
)


def ev(src, **env):
    return evaluate(parse(src), env)


def test_precedence_and_associativity():
    assert ev("2^3^2") == 512.0          # ^ right associative
    assert ev("-2^2") == -4.0            # unary minus below ^
    assert ev("2*-3") == -6.0            # unary minus above *
    assert ev("1 - 2 - 3") == -4.0       # left associative
    assert ev("6/3/2") == 1.0
    assert ev("2*x^3", x=2.0) == 16.0
    assert ev("1 + 2*3") == 7.0
    assert ev("x^-2", x=2.0) == 0.25     # unary minus allowed in exponent


def test_literals_and_functions():
    assert ev("1e-3") == 1e-3
    assert ev("2.5E2") == 250.0
    assert ev(".5") == 0.5
    assert ev("tanh(0)") == 0.0
    assert ev("sqrt(x)*sqrt(x)", x=9.0) == pytest.approx(9.0, rel=1e-15)
    # benchmark magnetic potential at (t, x) = (1, 1)
    assert ev("(t*x+1)^2/(1+t^2*x^2)", t=1.0, x=1.0) == pytest.approx(2.0, rel=1e-15)


def test_array_evaluation():
    x = np.linspace(-1.0, 1.0, 11)
    out = ev("x^2 + 1", x=x)
    assert np.allclose(out, x**2 + 1)


def test_syntax_errors_carry_offsets():
    for src, bad in (("1 +", 3), ("(x", 2), ("x~2", 1), ("sin x", 0), ("foo(2)", 0)):
        with pytest.raises(ExprSyntaxError) as err:
            parse(src)
        assert err.value.offset == bad


def test_eval_errors():
    with pytest.raises(ExprEvalError):
        ev("1/x", x=0.0)
    with pytest.raises(ExprEvalError):
        ev("sqrt(0 - x)", x=2.0)
    with pytest.raises(ExprEvalError):
        ev("x + y", x=1.0)  # y unbound
    with pytest.raises(ExprEvalError):
        ev("1/x", x=np.array([1.0, 0.0]))  # any non-finite entry


def test_compile_rejects_nodes_the_parser_cannot_make():
    for node in (Var("os"), Call("eval", Var("x")), BinOp("**", Var("x"), Num(2.0)),
                 BinOp("+", Num("__import__('os')"), Num(1.0))):
        with pytest.raises(ValueError, match="not an expression node"):
            compile_expr(node)
    # constants are bound, never printed: 1e999 is inf, not a name error
    with pytest.raises(ExprEvalError, match="non-finite"):
        compile_expr(parse("1e999 - x"))(x=1.0)


def test_compiled_program_computes_a_repeated_subtree_once(monkeypatch):
    calls = []
    sin = np.sin

    def counting_sin(arg):
        calls.append(arg)
        return sin(arg)

    monkeypatch.setattr(np, "sin", counting_sin)
    f = compile_expr(parse("sin(x) + sin(x)*cos(sin(x))"))
    x = np.linspace(-1.0, 1.0, 5)
    np.testing.assert_array_equal(f(x=x), sin(x) + sin(x) * np.cos(sin(x)))
    assert len(calls) == 1
    f(x=x)
    assert len(calls) == 2


def test_free_variables():
    assert free_variables(parse("x*t + sin(y)")) == {"x", "t", "y"}
    assert free_variables(parse("3.5")) == set()


def test_differentiate_folds_constants():
    assert differentiate(parse("2*x"), "x") == Num(2.0)
    assert differentiate(parse("t*x"), "x") == Var("t")
    assert differentiate(parse("sin(3)"), "x") == Num(0.0)
    d = differentiate(parse("x^3"), "x")
    assert d == BinOp("*", Num(3.0), BinOp("^", Var("x"), Num(2.0)))


@pytest.mark.parametrize("src", ["(1 + x*x)^(1/2)", "(1/2)^x"])
def test_variable_free_power_side_is_a_constant(src):
    d = differentiate(parse(src), "x")
    for x in (-1.7, 0.0, 0.3, 2.5):
        h = 1e-5
        fd = (ev(src, x=x + h) - ev(src, x=x - h)) / (2 * h)
        assert evaluate(d, {"x": x}) == pytest.approx(fd, rel=1e-8, abs=1e-10)


def test_power_the_rules_cannot_differentiate_is_refused():
    for src in ("(1 + x*x)^x", "(0 - 2)^x"):
        with pytest.raises(ValueError, match="differentiate"):
            differentiate(parse(src), "x")


def _random_expr(rng, depth, safe):
    """Random tree; safe mode avoids sqrt and keeps '/' denominators tame."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Num(float(rng.integers(0, 4)) + float(rng.choice([0.0, 0.5])))
        return Var(str(rng.choice(["t", "x", "y", "z"])))
    kind = rng.choice(["bin", "neg", "call"], p=[0.55, 0.15, 0.3])
    if kind == "neg":
        return Neg(_random_expr(rng, depth - 1, safe))
    if kind == "call":
        fns = ["sin", "cos", "tanh", "exp"] if safe else \
              ["sin", "cos", "tan", "tanh", "exp", "sqrt"]
        return Call(str(rng.choice(fns)), _random_expr(rng, depth - 1, safe))
    op = str(rng.choice(["+", "-", "*", "/", "^"]))
    left = _random_expr(rng, depth - 1, safe)
    if op == "^":
        right = Num(float(rng.integers(0, 4)))
    elif op == "/":
        right = BinOp("+", Num(float(rng.integers(2, 5))),
                      Call("cos", _random_expr(rng, depth - 1, safe)))
    else:
        right = _random_expr(rng, depth - 1, safe)
    return BinOp(op, left, right)


def test_print_parse_round_trip_500_random_trees():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        tree = _random_expr(rng, int(rng.integers(1, 7)), safe=False)
        assert parse(to_string(tree)) == tree


def test_derivative_against_finite_differences():
    rng = np.random.default_rng(99)
    checked = 0
    trees = 0
    while trees < 500:
        tree = _random_expr(rng, int(rng.integers(1, 6)), safe=True)
        var = str(rng.choice(sorted(free_variables(tree)) or ["x"]))
        try:
            sym = differentiate(tree, var)
        except ValueError:
            continue  # u^v with symbolic exponent is out of scope
        trees += 1
        for _ in range(10):
            env = {name: rng.uniform(-2.0, 2.0) for name in "txyz"}

            def central(h, env=env, var=var, tree=tree):
                up = evaluate(tree, {**env, var: env[var] + h})
                dn = evaluate(tree, {**env, var: env[var] - h})
                return (up - dn) / (2.0 * h)

            try:
                f0 = evaluate(tree, env)
                c0, c1, c2 = central(1e-4), central(5e-5), central(2.5e-5)
                got = evaluate(sym, env)
            except ExprEvalError:
                continue
            # two Richardson levels; keep the point only where they agree,
            # i.e. where the difference oracle itself is trustworthy
            r1 = (4.0 * c1 - c0) / 3.0
            r2 = (4.0 * c2 - c1) / 3.0
            if abs(r1 - r2) > 1e-7 * max(1.0, abs(r2)) or abs(r2) > 1e6:
                continue
            if abs(f0) > 1e4 * max(1.0, abs(r2)):
                continue  # large offset: the quotient loses the signal
            assert abs(r2 - got) <= 1e-6 * max(1.0, abs(got), abs(r2))
            checked += 1
    assert checked > 2000


def test_derivative_round_trips_through_printer():
    rng = np.random.default_rng(7)
    for _ in range(200):
        tree = _random_expr(rng, 4, safe=False)
        for var in ("x", "t"):
            try:
                d = differentiate(tree, var)
            except ValueError:
                continue
            assert parse(to_string(d)) == d
