import pytest

from mscrn import expressions
from mscrn.errors import ParseError, RateEvaluationError
from mscrn.expressions import (PolynomialError, as_polynomial, evaluate,
                               parse_expression, variables)


def ev(text, **env):
    return evaluate(parse_expression(text), env)


def test_arithmetic_and_precedence():
    assert ev("1+2*3") == 7
    assert ev("(1+2)*3") == 9
    assert ev("2^3^2") == 512           # right-associative
    assert ev("2*x/(1+x)", x=1.0) == 1.0
    assert ev("-x+4", x=1.0) == 3.0
    assert ev("2**3") == 8


def test_variables():
    assert variables(parse_expression("a*b + c/(1+a)")) == {"a", "b", "c"}


def test_unknown_symbol_and_nonfinite():
    with pytest.raises(RateEvaluationError):
        ev("x")
    with pytest.raises(RateEvaluationError):
        ev("1/x", x=0.0)


def test_parse_error_spans():
    with pytest.raises(ParseError) as err:
        parse_expression("1 + $")
    assert err.value.col == 5
    with pytest.raises(ParseError):
        parse_expression("1 + ")
    with pytest.raises(ParseError):
        parse_expression("(1 + 2")


def test_polynomial_extraction():
    node = parse_expression("2*x^2*y + 3*x - 1 + k*x")
    poly = as_polynomial(node, ["x", "y"], {"k": 10.0})
    assert poly == {(2, 1): 2.0, (1, 0): 13.0, (0, 0): -1.0}


def test_polynomial_rejects_division_by_variable():
    node = parse_expression("1/(1+x)")
    with pytest.raises(PolynomialError):
        as_polynomial(node, ["x"], {})
    # but division by a bound symbol is fine
    node = parse_expression("x/k")
    assert as_polynomial(node, ["x"], {"k": 2.0}) == {(1,): 0.5}


def test_compiled_matches_python_arithmetic_bit_for_bit():
    # the compiled closure reads symbols from a vector; its values equal
    # Python's own evaluation of the same source exactly
    index = {"a": 0, "b": 1, "c": 2}
    x = [0.7, 3.0, 1e-3]

    def reader(name):
        return (lambda v, i=index[name]: v[i]) if name in index else None

    for src in ["2*a/(1+a) - -b", "a^2^0.5 + c/b", "-a^2*b - c", "0.1+0.2+a*3.3",
                "(a + b) * (a - c) / (b ^ 3)"]:
        fn = expressions.compile_expression(parse_expression(src), reader)
        want = eval(src.replace("^", "**"), {}, dict(zip(index, x)))
        assert fn(x) == want, src
    unknown = expressions.compile_expression(parse_expression("a + z"), reader)
    with pytest.raises(RateEvaluationError, match="unknown symbol 'z'"):
        unknown(x)
    for bad in ["a/(b-3)", "(0-a)^0.5", "b^1e4"]:
        with pytest.raises(RateEvaluationError):
            expressions.compile_expression(parse_expression(bad), reader)(x)
