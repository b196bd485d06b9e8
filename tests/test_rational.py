import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from fairprice import (
    AllPolicy, EveryK, ResourceCapError, TrustParams, ValidationError, build_threshold,
    dp_optimal, every_k_reward, expected_curve, mc_simulate,
)
from fairprice.cli import main
from fairprice.rational import brief_str

BRIEF = re.compile(r"~(-?)(\d(?:\.\d+)?)e([+-]\d+)")


def test_brief_str_carries_a_rounded_up_mantissa():
    # log10(10^5001) lands just below 5001 in floats, so 10^(exp10 - e) is
    # 9.99999.. and rounds to 10 at four digits: the carry makes it 1e-5001
    assert brief_str(Fraction(1, 10**5001)) == "~1e-5001"
    assert brief_str(Fraction(-1, 10**5001)) == "~-1e-5001"
    assert brief_str(Fraction(10**5001)) == "~1e+5001"


BIG = 10**5000  # past the 4300 digits Python converts to text
TP = TrustParams("0.5", "0.66", "1.33", 1, reset=True)


REFUSALS = {  # each echoes BIG or -BIG in its message
    "every-k-fraction": (lambda: EveryK(Fraction(BIG)), ValidationError),
    "every-k-negative": (lambda: EveryK(-BIG), ValidationError),
    "expected-curve": (lambda: expected_curve(TP, AllPolicy(), BIG), ResourceCapError),
    "every-k-reward": (lambda: every_k_reward(TP, 2, BIG), ResourceCapError),
    "dp-cap": (lambda: dp_optimal(TP, BIG), ResourceCapError),
    "mc-trials": (lambda: mc_simulate(TP, AllPolicy(), 5, BIG, 0), ResourceCapError),
    "decide-state": (lambda: AllPolicy().decide(1, -BIG, 0), ValidationError),
    "dp-decide-step": (lambda: dp_optimal(TP, 5)[1].decide(BIG), ValidationError),
    "threshold-k": (lambda: build_threshold("1/2", 1, 3, BIG, "1/10"), ValidationError),
    "threshold-n": (lambda: build_threshold("1/2", 1, BIG, 1, "1/10"), ResourceCapError),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_echo_huge_numbers_briefly(case):
    call, error = REFUSALS[case]
    with pytest.raises(error, match=r"~-?1e\+5000"):
        call()


def test_refusals_echo_printable_numbers_in_full():
    with pytest.raises(ValidationError, match=r"^k must be an integer >= 1, got Fraction\(5, 2\)$"):
        EveryK(Fraction(5, 2))
    with pytest.raises(ResourceCapError, match=rf"^horizon {10**50} exceeds the DP cap of 500$"):
        dp_optimal(TP, 10**50)


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
