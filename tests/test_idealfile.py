import pytest

from gbengine import (IdealFileError, builtin_ideal, parse_ideal, poly_str,
                      print_ideal)
from gbengine.ring import MAX_VARS


def test_parse_simple():
    ring, polys = parse_ideal("101\n3\ngrevlex\nx1^2-x2\n")
    assert ring.char == 101 and ring.num_vars == 3
    assert ring.order == "grevlex"
    assert len(polys) == 1
    assert poly_str(ring, polys[0]) == "x1^2+100*x2"


def test_parse_not_prime():
    with pytest.raises(IdealFileError, match="not prime"):
        parse_ideal("4\n3\ngrevlex\nx1\n")


def test_parse_bad_variable_index():
    with pytest.raises(IdealFileError, match="line 4"):
        parse_ideal("101\n2\ngrevlex\nx3+x1\n")


def test_parse_malformed_term_reports_line():
    with pytest.raises(IdealFileError, match="line 5"):
        parse_ideal("101\n2\ngrevlex\nx1\n3**x2\n")


def test_parse_exponent_out_of_range_reports_line():
    with pytest.raises(IdealFileError, match="line 4: exponent out of range"):
        parse_ideal("101\n2\ngrevlex\nx1^70000+x2\n")
    # each factor is in range; their product is not
    with pytest.raises(IdealFileError, match="line 5: exponent out of range"):
        parse_ideal("101\n2\ngrevlex\nx2\nx1^40000*x1^40000\n")
    # past int()'s 4300-digit limit for decimal literals
    with pytest.raises(IdealFileError, match="line 5: exponent out of range"):
        parse_ideal("101\n2\ngrevlex\nx2\nx1^" + "1" * 5000 + "\n")


def test_parse_overlong_coefficient_reports_line():
    with pytest.raises(IdealFileError, match="line 5: coefficient literal"):
        parse_ideal("101\n2\ngrevlex\nx2+1\n" + "1" * 5000 + "*x1\n")


@pytest.mark.parametrize("text, line", [
    ("9" * 5000 + "\n2\ngrevlex\nx1\n", 1),
    ("x" * 5000 + "\n2\ngrevlex\nx1\n", 1),
    ("101\n" + "9" * 5000 + "\ngrevlex\nx1\n", 2),
    ("101\n" + "x" * 5000 + "\ngrevlex\nx1\n", 2),
    ("101\n2\n" + "x" * 5000 + "\nx1\n", 3),
    ("101\n2\nelim " + "9" * 5000 + "\nx1\n", 3),
    ("101\n2\nelim " + "x" * 5000 + "\nx1\n", 3),
    ("101\n2\ngrevlex\nx1*" + "y" * 5000 + "\n", 4),
    ("101\n2\ngrevlex\nx" + "9" * 4000 + "\n", 4),
], ids=["char-digits", "char-text", "nvars-digits", "nvars-text",
        "order-text", "elim-digits", "elim-text", "factor", "var-index"])
def test_parse_overlong_text_gives_short_error(text, line):
    with pytest.raises(IdealFileError) as err:
        parse_ideal(text)
    assert err.value.line == line
    assert len(str(err.value)) < 100, str(err.value)[:100]


@pytest.mark.parametrize("text, line", [
    ("1_01\n2\ngrevlex\nx1\n", 1),
    ("+101\n2\ngrevlex\nx1\n", 1),
    ("\u0661\u0660\u0661\n2\ngrevlex\nx1\n", 1),
    ("101\n0_3\ngrevlex\nx1\n", 2),
    ("101\n3\nelim \u0662\nx1\n", 3),
    ("101\n2\ngrevlex\nx\u0661^\u0662\n", 4),
    ("101\n2\ngrevlex\n\u0663*x1\n", 4),
], ids=["char-underscore", "char-sign", "char-arabic-indic",
        "nvars-underscore", "elim-arabic-indic", "factor-arabic-indic",
        "coeff-arabic-indic"])
def test_parse_accepts_ascii_decimal_literals_only(text, line):
    # int() and the regex class \d would read each of these as a number
    with pytest.raises(IdealFileError) as err:
        parse_ideal(text)
    assert err.value.line == line


def test_parse_variable_count_capped_on_line_2():
    ring, _ = parse_ideal("101\n%d\ngrevlex\nx1\n" % MAX_VARS)
    assert ring.num_vars == MAX_VARS
    with pytest.raises(IdealFileError, match="line 2: variable count"):
        parse_ideal("101\n%d\ngrevlex\nx1\n" % (MAX_VARS + 1))


def test_parse_orders():
    ring, _ = parse_ideal("101\n3\nlex\nx1\n")
    assert ring.order == "lex"
    ring, _ = parse_ideal("101\n5\nelim 2\nx1\n")
    assert ring.order == "elim" and ring.elim_block == 2
    with pytest.raises(IdealFileError, match="line 3"):
        parse_ideal("101\n3\nsnake\nx1\n")


def test_parse_coefficients_and_spacing():
    ring, polys = parse_ideal("7\n2\ngrevlex\n10*x1 - 3 + x1\n")
    assert poly_str(ring, polys[0]) == "4*x1+4"


def test_roundtrip_fixed_point():
    for name in ("katsura4", "cyclic5", "hcyclic5"):
        ring, polys = builtin_ideal(name)
        text = print_ideal(ring, polys)
        ring2, polys2 = parse_ideal(text)
        assert print_ideal(ring2, polys2) == text
        assert ring2.char == ring.char and ring2.num_vars == ring.num_vars


def test_roundtrip_negative_input():
    text = "101\n2\ngrevlex\n-x1^2+2*x2-5\n"
    ring, polys = parse_ideal(text)
    canon = print_ideal(ring, polys)
    ring2, polys2 = parse_ideal(canon)
    assert print_ideal(ring2, polys2) == canon
    assert poly_str(ring, polys[0]) == "100*x1^2+2*x2+96"


def test_zero_polynomial_prints():
    ring, polys = parse_ideal("101\n2\ngrevlex\nx1-x1\n")
    assert poly_str(ring, polys[0]) == "0"
