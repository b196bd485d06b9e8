import re
from fractions import Fraction

from hypothesis import assume, example, given, strategies as st

from fairprice.cli import main
from fairprice.rational import brief_str

BRIEF = re.compile(r"~(-?)(\d(?:\.\d+)?)e([+-]\d+)")


def test_brief_str_carries_a_rounded_up_mantissa():
    # log10(10^5001) lands just below 5001 in floats, so 10^(exp10 - e) is
    # 9.99999.. and rounds to 10 at four digits: the carry makes it 1e-5001
    assert brief_str(Fraction(1, 10**5001)) == "~1e-5001"
    assert brief_str(Fraction(-1, 10**5001)) == "~-1e-5001"
    assert brief_str(Fraction(10**5001)) == "~1e+5001"


@example(num=1, den=1, up=0, down=5001, negative=False)
@example(num=1, den=1, up=5001, down=0, negative=True)
@example(num=10**40 + 1, den=10**40, up=4000, down=4000, negative=False)
@given(
    num=st.integers(1, 10**60),
    den=st.integers(1, 10**60),
    up=st.integers(0, 6000),
    down=st.integers(0, 6000),
    negative=st.booleans(),
)
def test_brief_str_mantissa_in_range(num, den, up, down, negative):
    x = Fraction(num * 10**up, den * 10**down) * (-1 if negative else 1)
    assume(max(x.numerator.bit_length(), x.denominator.bit_length()) > 133)
    got = BRIEF.fullmatch(brief_str(x))
    assert got is not None, brief_str(x)
    sign, mantissa, exponent = got.groups()
    assert (sign == "-") == negative
    assert 1 <= Fraction(mantissa) < 10
    # four significant digits: within half a unit in the last place
    approx = Fraction(mantissa) * Fraction(10) ** int(exponent)
    assert abs(abs(x) / approx - 1) <= Fraction(1, 1000)


def test_price_prints_a_tiny_result_with_a_one_digit_mantissa(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text('{"players": ["s", "r1"], "scenario": "linear", "p": 0.5, '
                    '"delta": "1e-5000", "q": [0.2]}', encoding="utf-8")
    assert main(["price", "--game", str(path), "--method", "shapley"]) == 3
    assert capsys.readouterr().err == "error: result ~1e-5001 has too many digits to print\n"
