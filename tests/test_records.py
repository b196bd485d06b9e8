"""The result and parameter records: construction, equality, hashing and
immutability, whatever class implements them."""

import pickle
from fractions import Fraction as F

import pytest

import fairprice as fp
from fairprice import corelp, trust
from fairprice.games import ScenarioMeta
from fairprice.verification import CheckResult
from oracles import linear_system

CERT = fp.FarkasCertificate((F(-1),), (F(1), F(0)))


def records():
    """(build, hashable) per record: build() makes a fresh record, equal to
    every other build() of it."""
    return {
        "LinearConstraint": (lambda: corelp.LinearConstraint({"x": F(1)}, F(2)), False),
        "LinearSystem": (lambda: linear_system(["x"], [({"x": 1}, 2)]), False),
        "FarkasCertificate": (lambda: fp.FarkasCertificate((F(-1),), (F(1), F(0))), True),
        "FeasibilityResult": (lambda: fp.FeasibilityResult(False, None, CERT), True),
        "CoreMembership": (lambda: fp.CoreMembership(False, frozenset({"s"}), True), True),
        "CoreExistence": (lambda: fp.CoreExistence(True, {"s": F(1)}, None), False),
        "ArgumentGame": (lambda: fp.ArgumentGame.create(["a"], {"a": 1}, {"r1": ["a"]}), False),
        "BargainingProblem": (lambda: fp.BargainingProblem(F(2), {"s": F(1)}), False),
        "PriceSchedule": (lambda: fp.PriceSchedule(fp.PAY_PER_SALE, {"r1": F(1)}), False),
        "DeviationReport": (lambda: fp.DeviationReport(False, None, F(1), F(1)), True),
        "ScenarioMeta": (lambda: ScenarioMeta(F(2), F(1, 2)), True),
        "CheckResult": (lambda: CheckResult("claim", True, ""), True),
        "TrustParams": (lambda: fp.TrustParams("0.5", "0.66", 1, 1, reset=True), True),
        "RewardCurve": (lambda: fp.RewardCurve("all", (0.5, 1.0)), True),
    }


@pytest.mark.parametrize("name", sorted(records()))
def test_record_contract(name):
    build, hashable = records()[name]
    a, b = build(), build()
    assert type(a).__name__ == name and a == b and not a != b
    assert pickle.loads(pickle.dumps(a)) == a
    assert repr(a).startswith(f"{name}(")
    if hashable:
        assert hash(a) == hash(b) and len({a, b}) == 1
    field = repr(a)[len(name) + 1:].split("=", 1)[0]  # the first field
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_records_build_by_keyword_and_with_defaults():
    assert fp.FarkasCertificate(eq_multipliers=(F(1),), ineq_multipliers=()) == \
        fp.FarkasCertificate((F(1),), ())
    assert fp.TrustParams(p0="1/2", l="0.66", g=1, r=1, reset=False) == \
        fp.TrustParams("0.5", 0.66, F(1), "1", False)
    assert fp.BargainingProblem(total=F(2), disagreement={"s": F(0)}).total == F(2)
    curve = fp.RewardCurve(policy="all", values=(1.0,))
    assert curve.stderr is None and curve == fp.RewardCurve("all", (1.0,), None)
    assert curve != fp.RewardCurve("all", (1.0,), (0.0,))


def test_positional_farkas_certificate_refutes():
    # built positionally, as a JSON certificate is read back
    fixture = fp.build_general(
        0, 1,
        {frozenset({"s", "r1"}): "1/2", frozenset({"s", "r2"}): "1/2", frozenset({"s", "r1", "r2"}): 0},
        seller="s", recommenders=["r1", "r2"],
    )
    cert = fp.core_is_nonempty(fixture).certificate
    rebuilt = fp.FarkasCertificate(tuple(cert.eq_multipliers), tuple(cert.ineq_multipliers))
    assert rebuilt == cert
    assert fp.certificate_refutes(fp.core_system(fixture), rebuilt)


def test_trust_params_convert_to_fractions():
    tp = fp.TrustParams(0.5, "0.66", "133/100", 2, reset=True)
    assert (tp.p0, tp.l, tp.g, tp.r, tp.reset) == (F(1, 2), F(33, 50), F(133, 100), F(2), True)
    assert all(type(x) is F for x in (tp.p0, tp.l, tp.g, tp.r))
    assert tp._replace(g="1.5") == fp.TrustParams(0.5, "0.66", "1.5", 2, reset=True)
    with pytest.raises(fp.ValidationError, match="l must lie in"):
        tp._replace(l=1)


def test_equal_trust_params_share_one_kernel():
    a = fp.TrustParams("0.5", "0.66", "1.33", 1, reset=True)
    b = fp.TrustParams(0.5, F(33, 50), F(133, 100), F(1), True)
    assert a == b and hash(a) == hash(b)
    kernel = trust._kernel(a, 9)
    hits = trust._kernel.cache_info().hits
    assert trust._kernel(b, 9) is kernel
    assert trust._kernel.cache_info().hits == hits + 1


@pytest.mark.parametrize("args, message", [
    (("x", "0.66", 1, 1), "p0: cannot parse rational 'x'"),
    ((1, "0.66", 1, 1), "p0 must lie in (0, 1), got 1"),
    (("0.5", 1, 1, 1), "l must lie in [0, 1), got 1"),
    (("0.5", "0.66", "0.5", 1), "g must be >= 1, got 1/2"),
    (("0.5", "0.66", 1, 0), "r must be > 0 and within the float range, got 0"),
])
def test_trust_params_errors(args, message):
    with pytest.raises(fp.ValidationError) as exc:
        fp.TrustParams(*args, reset=True)
    assert str(exc.value) == message


@pytest.mark.parametrize("total, disagreement, message", [
    (F(1), {}, "a bargaining problem needs at least one player"),
    (F(1), {"s": F(-1)}, "disagreement payoffs must be nonnegative"),
    (F(1), {"s": F(2), "r": F(0)}, "infeasible disagreement point: total below its sum"),
])
def test_bargaining_problem_errors(total, disagreement, message):
    with pytest.raises(fp.ValidationError) as exc:
        fp.BargainingProblem(total, disagreement)
    assert str(exc.value) == message
    with pytest.raises(fp.ValidationError) as exc:
        fp.BargainingProblem(F(5), {"s": F(0)})._replace(total=total, disagreement=disagreement)
    assert str(exc.value) == message


def test_reward_curve_length_is_its_step_count():
    curve = fp.RewardCurve("all:mc", (0.5, 0.9, 1.2), (0.0, 0.1, 0.1))
    assert len(curve) == 3 and curve.final == 1.2 and curve.value_at(2) == 0.9
    assert len(fp.expected_curve(fp.TrustParams("0.5", "0.66", 1, 1, reset=True),
                                 fp.AllPolicy(), 17)) == 17


def test_kernel_is_immutable():
    kernel = trust._kernel(fp.TrustParams("0.5", "0.66", 1, 1, reset=False), 4)
    with pytest.raises(AttributeError):
        kernel.n = 5
    assert kernel.n == 4
