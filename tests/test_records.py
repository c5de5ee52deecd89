"""The package's record types behave as value records: construction with
defaults, field order, ``repr``, equality, hashing, immutability of the
frozen ones, positional ``match``, and ``copy`` and ``pickle`` round trips."""

import copy
import math
import pickle

import pytest

from rotsurf4.cli import _Check
from rotsurf4.expr import Binary, Constant, Interval, Profile, Unary, Variable
from rotsurf4.forms import (CircleReport, FirstForm, InvariantRecord, PointType, SecondForm,
                            SecondTensor)
from rotsurf4.geometry import Jet2, Vec4
from rotsurf4.msc import MscParams
from rotsurf4.octet import FrenetOctet
from rotsurf4.rotational import RotationalSurface

_WHOLE = "Interval(lo=-inf, hi=inf, open_lo=False)"


def _vec(k: float) -> Vec4:
    return Vec4(k, k + 1.0, k + 2.0, k + 3.0)


def _jet() -> Jet2:
    return Jet2(*[_vec(float(k)) for k in range(6)])


def _surface() -> RotationalSurface:
    return RotationalSurface(Profile(Variable(), Constant(1.0), Constant(0.0)),
                             Profile.from_text("1"), 1.0, 2.0)


# (record, its field names in order, its exact repr, frozen, slotted); each
# factory makes a fresh record
RECORDS = {
    "Constant": (lambda: Constant(2.5), ("value",), "Constant(value=2.5)", True, False),
    "Variable": (Variable, (), "Variable()", True, False),
    "Unary": (lambda: Unary("sin", Variable()), ("op", "child"),
              "Unary(op='sin', child=Variable())", True, False),
    "Binary": (lambda: Binary("+", Variable(), Constant(1.0)), ("op", "left", "right"),
               "Binary(op='+', left=Variable(), right=Constant(value=1.0))", True, False),
    "Interval": (lambda: Interval(0.0, 2.0, True), ("lo", "hi", "open_lo"),
                 "Interval(lo=0.0, hi=2.0, open_lo=True)", True, False),
    "Profile": (lambda: Profile(Variable(), Constant(1.0), Constant(0.0)),
                ("expr", "d1", "d2", "domain"),
                "Profile(expr=Variable(), d1=Constant(value=1.0), d2=Constant(value=0.0), "
                f"domain={_WHOLE})", True, False),
    "Vec4": (lambda: _vec(1.0), ("x1", "x2", "x3", "x4"),
             "Vec4(x1=1.0, x2=2.0, x3=3.0, x4=4.0)", False, True),
    "Jet2": (_jet, ("z", "z_u", "z_v", "z_uu", "z_uv", "z_vv"),
             "Jet2(" + ", ".join(f"{name}=Vec4(x1={k}.0, x2={k + 1}.0, x3={k + 2}.0, "
                                 f"x4={k + 3}.0)"
                                 for k, name in enumerate(("z", "z_u", "z_v", "z_uu", "z_uv",
                                                           "z_vv"))) + ")", False, True),
    "FirstForm": (lambda: FirstForm(1.0, 0.5, 2.0, 1.25), ("E", "F", "G", "W"),
                  "FirstForm(E=1.0, F=0.5, G=2.0, W=1.25)", False, True),
    "SecondTensor": (lambda: SecondTensor(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
                     ("c11_1", "c11_2", "c12_1", "c12_2", "c22_1", "c22_2"),
                     "SecondTensor(c11_1=1.0, c11_2=2.0, c12_1=3.0, c12_2=4.0, c22_1=5.0, "
                     "c22_2=6.0)", False, True),
    "SecondForm": (lambda: SecondForm(1.0, -0.0, 3.0), ("L", "M", "N"),
                   "SecondForm(L=1.0, M=-0.0, N=3.0)", False, True),
    "InvariantRecord": (lambda: InvariantRecord(1.0, 0.0, 2.0, 0.5, 0.0, 0.25, 0.125, -1.0,
                                                3.0, PointType.ELLIPTIC),
                        ("E", "F", "G", "L", "M", "N", "k", "kappa", "K", "point_type"),
                        "InvariantRecord(E=1.0, F=0.0, G=2.0, L=0.5, M=0.0, N=0.25, k=0.125, "
                        "kappa=-1.0, K=3.0, point_type=<PointType.ELLIPTIC: 'elliptic'>)",
                        False, True),
    "CircleReport": (lambda: CircleReport(True, False, _vec(0.0), 1.5, 1e-17),
                     ("ok", "degenerate", "center", "radius", "max_deviation"),
                     "CircleReport(ok=True, degenerate=False, center=Vec4(x1=0.0, x2=1.0, "
                     "x3=2.0, x4=3.0), radius=1.5, max_deviation=1e-17)", True, False),
    "FrenetOctet": (lambda: FrenetOctet(*[float(k) for k in range(8)]),
                    ("gamma1", "gamma2", "nu1", "nu2", "lam", "mu", "beta1", "beta2"),
                    "FrenetOctet(gamma1=0.0, gamma2=1.0, nu1=2.0, nu2=3.0, lam=4.0, mu=5.0, "
                    "beta1=6.0, beta2=7.0)", False, True),
    "MscParams": (lambda: MscParams(1.5, 1.0, 2.0, -1), ("c", "alpha", "beta", "eps"),
                  "MscParams(c=1.5, alpha=1.0, beta=2.0, eps=-1)", True, False),
    "RotationalSurface": (_surface, ("f", "g", "alpha", "beta"),
                          "RotationalSurface(f=Profile(expr=Variable(), d1=Constant(value=1.0), "
                          f"d2=Constant(value=0.0), domain={_WHOLE}), g=Profile("
                          "expr=Constant(value=1.0), d1=Constant(value=0.0), "
                          f"d2=Constant(value=0.0), domain={_WHOLE}), alpha=1.0, beta=2.0)",
                          True, False),
    "_Check": (lambda: _Check("jets", 1e-6, 2e-7, (0.5, 1.0), None),
               ("name", "tol", "dev", "worst", "note"),
               "_Check(name='jets', tol=1e-06, dev=2e-07, worst=(0.5, 1.0), note=None)",
               False, False),
}
# a valid value for each record's last field, other than its factory's
OTHER_LAST = {"Constant": 3.0, "Unary": Constant(1.0), "Binary": Variable(), "Interval": False,
              "Profile": Interval(0.0), "Vec4": 5.0, "Jet2": _vec(9.0), "FirstForm": 2.0,
              "SecondTensor": 0.0, "SecondForm": 0.0, "InvariantRecord": PointType.FLAT,
              "CircleReport": 0.0, "FrenetOctet": 0.0, "MscParams": 1, "RotationalSurface": 3.0,
              "_Check": "why"}
FROZEN = [name for name, row in RECORDS.items() if row[3]]
MUTABLE = [name for name, row in RECORDS.items() if not row[3]]
# every record but Profile and RotationalSurface, whose built closures do not pickle
PLAIN_DATA = ["Constant", "Variable", "Unary", "Binary", "Interval", "Vec4", "Jet2", "FirstForm",
              "SecondTensor", "SecondForm", "InvariantRecord", "CircleReport", "FrenetOctet",
              "MscParams", "_Check"]


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__match_args__)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_in_order_repr_and_keyword_construction(name):
    make, fields, text, _, _ = RECORDS[name]
    record = make()
    cls = type(record)
    assert cls.__name__ == name
    assert cls.__match_args__ == fields
    assert repr(record) == text
    by_keyword = cls(**dict(zip(fields, _values(record))))
    assert by_keyword == record and repr(by_keyword) == text
    assert cls(*_values(record)) == record


def test_defaults():
    assert Interval() == Interval(-math.inf, math.inf, False)
    assert repr(Interval()) == _WHOLE
    assert Interval(0.0) == Interval(lo=0.0, hi=math.inf, open_lo=False)
    assert Profile(Variable(), Constant(1.0), Constant(0.0)).domain == Interval()
    check = _Check("octet", 1e-6)
    assert (check.dev, check.worst, check.note) == (0.0, None, None)
    assert repr(check) == "_Check(name='octet', tol=1e-06, dev=0.0, worst=None, note=None)"
    assert _Check(tol=1e-3, name="n", note="why") == _Check("n", 1e-3, 0.0, None, "why")
    with pytest.raises(TypeError):
        _Check("jets")
    with pytest.raises(TypeError):
        Vec4(1.0, 2.0, 3.0)
    with pytest.raises(TypeError):
        Constant(1.0, 2.0)


@pytest.mark.parametrize("name", RECORDS)
def test_equality_is_by_class_and_field_tuple(name):
    make, fields, *_ = RECORDS[name]
    a, b = make(), make()
    assert a == b and not a != b
    assert a != _values(a) and not a == _values(a)  # not a plain tuple
    assert a.__eq__(_values(a)) is NotImplemented
    if fields:
        changed = type(a)(*_values(a)[:-1], OTHER_LAST[name])
        assert changed != a and not changed == a


def test_a_nan_field_equals_itself_by_identity():
    nan = float("nan")
    for record in (Vec4(nan, 0.0, 0.0, 0.0), Constant(nan), FirstForm(1.0, 0.0, 1.0, nan),
                   Interval(nan), _Check("jets", nan)):
        assert record == record
        assert record == type(record)(*_values(record))  # the same NaN object
        fresh = tuple(float("nan") if v is nan else v for v in _values(record))
        assert record != type(record)(*fresh)


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_hash_by_their_fields(name):
    make = RECORDS[name][0]
    a, b = make(), make()
    if name == "CircleReport":  # it hashes its fields, and its Vec4 centre does not hash
        with pytest.raises(TypeError, match="unhashable type: 'Vec4'"):
            hash(a)
        return
    assert hash(a) == hash(b) == hash(_values(a))
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_records_are_unhashable(name):
    record = RECORDS[name][0]()
    with pytest.raises(TypeError, match=f"unhashable type: '{name}'"):
        hash(record)


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment_and_deletion(name):
    make, fields, text, *_ = RECORDS[name]
    record = make()
    for field in (*fields, "other"):
        with pytest.raises(AttributeError) as assigned:
            setattr(record, field, 1.0)
        assert str(assigned.value) == f"cannot assign to field {field!r}"
        with pytest.raises(AttributeError) as deleted:
            delattr(record, field)
        assert str(deleted.value) == f"cannot delete field {field!r}"
    assert repr(record) == text and record == make()


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_records_take_assignment(name):
    make, fields, *_ = RECORDS[name]
    record = make()
    setattr(record, fields[-1], "new")
    assert getattr(record, fields[-1]) == "new" and record != make()


@pytest.mark.parametrize("name", [name for name, row in RECORDS.items() if row[4]])
def test_slotted_records_have_no_instance_dict(name):
    record = RECORDS[name][0]()
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.other = 1.0


def _pattern(record):
    match record:
        case Constant(value):
            return value
        case Variable():
            return "u"
        case Unary(op, Variable()):
            return op
        case Binary(op, Variable(), Constant(value)):
            return op, value
        case Interval(lo, hi, open_lo):
            return lo, hi, open_lo
        case Profile(Variable(), Constant(d1), Constant(d2), Interval()):
            return d1, d2
        case Vec4(x1, _, _, x4):
            return x1, x4
        case Jet2(z, _, _, _, _, Vec4(x1)):
            return z.x1, x1
        case FirstForm(e, f, g, w):
            return e, f, g, w
        case SecondTensor(c111, _, _, _, _, c222):
            return c111, c222
        case SecondForm(ll, mm, nn):
            return ll, mm, nn
        case InvariantRecord(e, _, _, _, _, _, _, _, _, PointType.ELLIPTIC):
            return e, "elliptic"
        case CircleReport(ok, degenerate, Vec4(), radius):
            return ok, degenerate, radius
        case FrenetOctet(gamma1, _, _, _, _, _, _, beta2):
            return gamma1, beta2
        case MscParams(c, alpha, beta, eps):
            return c, alpha, beta, eps
        case RotationalSurface(Profile(), Profile(), alpha, beta):
            return alpha, beta
        case _Check(name, tol, dev, worst, note):
            return name, tol, dev, worst, note
    return None


def test_positional_match_patterns():
    got = {name: _pattern(row[0]()) for name, row in RECORDS.items()}
    assert got == {
        "Constant": 2.5, "Variable": "u", "Unary": "sin", "Binary": ("+", 1.0),
        "Interval": (0.0, 2.0, True), "Profile": (1.0, 0.0), "Vec4": (1.0, 4.0),
        "Jet2": (0.0, 5.0), "FirstForm": (1.0, 0.5, 2.0, 1.25), "SecondTensor": (1.0, 6.0),
        "SecondForm": (1.0, -0.0, 3.0), "InvariantRecord": (1.0, "elliptic"),
        "CircleReport": (True, False, 1.5), "FrenetOctet": (0.0, 7.0),
        "MscParams": (1.5, 1.0, 2.0, -1), "RotationalSurface": (1.0, 2.0),
        "_Check": ("jets", 1e-6, 2e-7, (0.5, 1.0), None),
    }
    with pytest.raises(TypeError):  # one positional pattern more than the fields
        match Constant(1.0):
            case Constant(_, _):
                pass


def test_iteration_truth_and_derived_values():
    assert list(_vec(1.0)) == [1.0, 2.0, 3.0, 4.0]
    z, z_u, z_v, z_uu, z_uv, z_vv = _jet()
    assert (z, z_vv) == (_vec(0.0), _vec(5.0))
    assert bool(CircleReport(True, True, _vec(0.0), 0.0, 0.0))
    assert not CircleReport(False, False, _vec(0.0), 1.0, 0.5)
    assert MscParams(1.0, 1.0, 2.0, 1).p == 2.0 and MscParams(1.0, 4.0, 2.0, -1).p == -0.5


@pytest.mark.parametrize("args, message", [
    ((math.inf, 1.0, 2.0, 1), "power-law constant c must be finite, got inf"),
    ((math.nan, 0.0, 1.0, 1), "power-law constant c must be finite, got nan"),  # c first
    ((1.0, 0.0, 2.0, 1), "rotation speed alpha must be finite and positive, got 0.0"),
    ((1.0, 1e-200, 1.0, 1), "rotation speed alpha squared underflows: alpha=1e-200, beta=1.0"),
    ((1.0, 1.0, 1.0, 0), "rotation speeds must differ"),  # before eps
    ((1.0, 1.0, 2.0, 0), "eps must be +1 or -1"),
    ((1.0, 1e-150, 1e200, 1),
     "exponent beta/alpha must be finite and nonzero, got alpha=1e-150, beta=1e+200"),
])
def test_msc_params_validation(args, message):
    with pytest.raises(ValueError) as error:
        MscParams(*args)
    assert str(error.value) == message


@pytest.mark.parametrize("alpha, beta, message", [
    (1.0, 1.0, "equal rotation speeds are excluded (every v-line degenerates to a circle)"),
    (0.0, 0.0, "rotation speed alpha must be finite and positive, got 0.0"),  # speeds first
    (1.0, math.nan, "rotation speed beta must be finite and positive, got nan"),
    (1e-170, 1.0, "rotation speed alpha squared underflows: alpha=1e-170, beta=1.0"),
])
def test_rotational_surface_validation(alpha, beta, message):
    f = Profile.from_text("u")
    with pytest.raises(ValueError) as error:
        RotationalSurface(f, f, alpha, beta)
    assert str(error.value) == message


@pytest.mark.parametrize("name", PLAIN_DATA)
def test_copy_and_pickle_round_trips(name):
    make, _, text, *_ = RECORDS[name]
    record = make()
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record and repr(twin) == text
    if not RECORDS[name][3]:
        twin = copy.copy(record)
        setattr(twin, RECORDS[name][1][-1], "new")
        assert twin != record


def test_a_profile_without_closures_pickles_and_copies():
    # a profile that has built its closures holds lambdas, which do not pickle
    for profile, value in ((Profile.from_text("u^2"), 9.0), (RECORDS["Profile"][0](), 3.0)):
        for twin in (pickle.loads(pickle.dumps(profile)), copy.deepcopy(profile)):
            assert twin == profile and twin.value(3.0) == value
