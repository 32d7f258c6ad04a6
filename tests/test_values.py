"""The contract of the package's value classes.

Every immutable type the package hands out behaves as a frozen value: its
repr is ``Name(key=value, ...)``, it equals only an instance of its own exact
type whose keys are equal, equal values hash alike, no key can be set or
deleted after construction, and a copy or a pickle round trip gives an equal
value.  ``MomentPair`` is a named tuple, and equals the plain tuple.
"""

import copy
import inspect
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from axiclone.circuit import Gate
from axiclone.dist import (Belt, Brosseau, Delta, DeltaPair, MomentPair,
                           Tabulated, Uniform, VonMisesFisher)
from axiclone.errors import DomainError
from axiclone.optimal import ClonerParams, Regime
from axiclone.qsim import PureQubit
from axiclone import dist as dist_mod

from conftest import KIND_STRATEGIES

# The keys of each registered kind, in constructor order.
KIND_KEYS = {
    "uniform": (), "vmf": ("kappa",), "brosseau": ("P", "mu"), "hg": ("h",),
    "delta": ("theta",), "deltapair": ("theta",), "belt": ("theta1", "theta2"),
}


class Concentrated(VonMisesFisher):
    pass


def check_value(value, keys, text, twin):
    """``value`` reads ``text``, equals and hashes like ``twin``, is frozen."""
    assert repr(value) == text
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    for key in keys:
        before = getattr(value, key)
        with pytest.raises(AttributeError):
            setattr(value, key, 1.0)
        with pytest.raises(AttributeError):
            delattr(value, key)
        assert getattr(value, key) is before
    for clone in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value


def key_repr(value, keys):
    fields = ", ".join(f"{key}={getattr(value, key)!r}" for key in keys)
    return f"{type(value).__name__}({fields})"


@settings(max_examples=200, deadline=None)
@given(st.one_of(*KIND_STRATEGIES.values()))
def test_every_kind_is_a_frozen_value(d):
    keys = KIND_KEYS[d.kind]
    twin = type(d)(**{key: getattr(d, key) for key in keys})
    check_value(d, keys, key_repr(d, keys), twin)
    with pytest.raises(AttributeError):
        d.kind = "other"


@settings(max_examples=100, deadline=None)
@given(st.one_of(*KIND_STRATEGIES.values()))
def test_with_of_unchanged_keys_is_an_equal_copy(d):
    assert d.with_() == d and d.with_() is not d
    for key in d.keys:
        assert d.with_(**{key: getattr(d, key)}) == d


@pytest.mark.parametrize("cls", [*dist_mod.KINDS.values(), Tabulated,
                                 ClonerParams, Gate, PureQubit])
def test_keys_are_the_init_parameters(cls):
    # the keys repr, equality, with_ and the spec strings read are the
    # names __init__ takes, in its order
    assert cls.keys == tuple(inspect.signature(cls).parameters)
    assert cls.__slots__ == cls.keys
    if cls in dist_mod.KINDS.values():
        assert cls.keys == KIND_KEYS[cls.kind]


def test_with_validates_again():
    belt = Belt(theta1=0.5, theta2=1.2)
    assert belt.with_(theta2=2.0) == Belt(theta1=0.5, theta2=2.0)
    with pytest.raises(DomainError, match="theta1 < theta2"):
        belt.with_(theta2=belt.theta1)
    with pytest.raises(DomainError, match="P must lie in"):
        Brosseau(P=0.5, mu=0.2).with_(P=1.0)
    with pytest.raises(DomainError, match="requires an angle"):
        Gate("Ry", 3, param=0.5).with_(param=None)
    with pytest.raises(TypeError):
        belt.with_(theta=1.0)


@given(st.floats(0.0, math.pi))
def test_equality_is_type_strict(theta):
    assert Delta(theta=theta) != DeltaPair(theta=theta)
    assert DeltaPair(theta=theta) != Delta(theta=theta)
    kappa = theta - 1.0
    assert Concentrated(kappa) != VonMisesFisher(kappa)
    assert VonMisesFisher(kappa) != Concentrated(kappa)
    assert Concentrated(kappa) == Concentrated(kappa)
    assert Delta(theta=theta) != (theta,)
    assert Uniform() == Uniform() and Uniform() != Delta(theta=theta)


def test_fixed_reprs_of_the_kinds():
    assert repr(Uniform()) == "Uniform()"
    assert repr(VonMisesFisher(kappa=1.5)) == "VonMisesFisher(kappa=1.5)"
    assert repr(Concentrated(2.0)) == "Concentrated(kappa=2.0)"


def test_cloner_params():
    p = ClonerParams(0.1, 0.2, -0.5, 0.75, Regime.INTERIOR)
    check_value(p, ("alpha_plus", "alpha_minus", "gamma", "omega_value",
                    "regime"),
                "ClonerParams(alpha_plus=0.1, alpha_minus=0.2, gamma=-0.5, "
                "omega_value=0.75, regime=<Regime.INTERIOR: 'Interior'>)",
                ClonerParams(alpha_plus=0.1, alpha_minus=0.2, gamma=-0.5,
                             omega_value=0.75, regime=Regime.INTERIOR))
    assert p != ClonerParams(0.1, 0.2, -0.5, 0.75, Regime.PCC_UPPER)
    nan = ClonerParams(0.0, math.pi / 2, math.inf, math.nan, Regime.PCC_UPPER)
    assert nan == nan  # a shared NaN compares equal by identity, as in tuples


def test_gate():
    keys = ("kind", "target", "control", "param")
    check_value(Gate("CRy", 3, control=1, param=0.5), keys,
                "Gate(kind='CRy', target=3, control=1, param=0.5)",
                Gate(kind="CRy", target=3, control=1, param=0.5))
    check_value(Gate("X", 3), keys,
                "Gate(kind='X', target=3, control=None, param=None)",
                Gate("X", 3, None, None))
    assert Gate("CNOT", 3, control=1) != Gate("CNOT", 1, control=3)


def test_pure_qubit():
    check_value(PureQubit(0.7), ("theta", "phi"),
                "PureQubit(theta=0.7, phi=0.0)", PureQubit(theta=0.7, phi=0.0))
    assert PureQubit(0.7, 2.1) != PureQubit(0.7)


def test_tabulated():
    keys = ("xs", "gs", "source")
    check_value(Tabulated(xs=(-1.0, 1.0), gs=(0.5, 0.5)), keys,
                "Tabulated(xs=(-1.0, 1.0), gs=(0.5, 0.5), source=None)",
                Tabulated((-1.0, 1.0), (0.5, 0.5)))
    with pytest.warns(UserWarning, match="renormalising"):
        t = Tabulated(xs=(-1, 0, 1), gs=(0, 2, 0), source="peak.csv")
    check_value(t, keys,
                "Tabulated(xs=(-1.0, 0.0, 1.0), gs=(0.0, 1.0, 0.0), "
                "source='peak.csv')",
                Tabulated(xs=(-1.0, 0.0, 1.0), gs=(0.0, 1.0, 0.0),
                          source="peak.csv"))
    assert t != Tabulated(xs=(-1.0, 0.0, 1.0), gs=(0.0, 1.0, 0.0))


def test_moment_pair_is_a_named_tuple():
    m = MomentPair(0.5, 0.25)
    check_value(m, ("a1", "a2"), "MomentPair(a1=0.5, a2=0.25)",
                MomentPair(a1=0.5, a2=0.25))
    assert m == (0.5, 0.25) and hash(m) == hash((0.5, 0.25))
    assert tuple(m) == (m.a1, m.a2) == (0.5, 0.25)
    assert MomentPair(*[0.1, 0.2]) == MomentPair._make([0.1, 0.2])
