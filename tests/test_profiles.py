"""Radial profile evaluation, doubling metadata, and serialization."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from templevy.charexp import psi_quad
from templevy.errors import UnsupportedProfileError
from templevy.model import (_tail_table, radial_second_moment,
                            radial_tail_mass)
from templevy.profiles import (
    Constant,
    Custom,
    ExpTempered,
    PolyTempered,
    Relativistic,
    Truncated,
    doubling_constant,
    profile_from_dict,
    profile_to_dict,
    relativistic_kernel,
    tail_index,
)


def test_poly_value():
    q = PolyTempered(2.0)
    assert q(np.array([1.0]))[0] == pytest.approx(0.25, rel=1e-15)


def test_constant_value():
    q = Constant(1.0)
    assert q(np.array([17.3]))[0] == 1.0


def test_relativistic_kernel_matches_integral():
    # Oracle: K(s) = s^(d+a) int_0^inf e^{-u} e^{-s^2/(4u)} u^{(-2-d-a)/2} du
    for d, alpha, s in [(1, 1.0, 2.0), (1, 0.5, 0.7), (2, 1.5, 3.0)]:
        oracle = s ** (d + alpha) * quad(
            lambda u: math.exp(-u - s * s / (4.0 * u))
            * u ** ((-2.0 - d - alpha) / 2.0),
            0.0, np.inf, epsabs=1e-14, epsrel=1e-12, limit=400)[0]
        val = relativistic_kernel(d, alpha, np.array([s]))[0]
        assert val == pytest.approx(oracle, rel=1e-8)


def test_profiles_nonincreasing():
    s = np.logspace(-3, 2, 60)
    for q in (Constant(2.0), PolyTempered(3.0),
              ExpTempered(a=0.0, c1=1.0), Relativistic(d=1, alpha=1.0),
              Truncated(s0=5.0)):
        v = np.asarray(q(s))
        assert np.all(np.diff(v) <= 1e-15)
        assert np.all(v >= 0.0)


def test_doubling_constant_poly():
    K, eta = doubling_constant(PolyTempered(3.0), 1e-3, 1e4)
    assert 1.0 <= K <= 8.0 * (1 + 1e-6)
    assert eta == pytest.approx(math.log2(K))


def test_doubling_constant_constant():
    K, eta = doubling_constant(Constant(1.0), 0.01, 100.0)
    assert K == pytest.approx(1.0)
    assert eta == pytest.approx(0.0)


def test_doubling_constant_exponential_grows():
    s_max = 10.0
    K, _ = doubling_constant(ExpTempered(a=0.0, c1=1.0), 0.01, s_max)
    # ratio q(s)/q(2s) = e^s peaks at the right endpoint
    assert K == pytest.approx(math.exp(s_max), rel=0.05)


def test_doubling_rejected_for_truncated():
    with pytest.raises(UnsupportedProfileError):
        doubling_constant(Truncated(s0=1.0), 0.5, 10.0)


def test_doubling_flags():
    assert Constant(1.0).doubling
    assert PolyTempered(2.0).doubling
    assert not ExpTempered(a=0.0, c1=1.0).doubling
    assert not Truncated(s0=1.0).doubling
    assert not Relativistic(d=1, alpha=1.0).doubling


@pytest.mark.parametrize("q", [
    PolyTempered(2.5), ExpTempered(a=1.5, c1=0.7),
    Relativistic(1, 0.5), Relativistic(2, 1.3)], ids=repr)
def test_declared_scales(q):
    # q0 is q(0+), and q(s) s^m e^(c s) settles as s -> inf
    assert q.q0 == pytest.approx(float(q(np.array([1e-9]))[0]), rel=1e-6)
    m, c = q.tail
    s = np.array([100.0, 200.0])
    r = q(s) * s ** m * np.exp(c * s)
    assert r[1] == pytest.approx(r[0], rel=0.02)


def test_cut_and_custom_declare_no_tail():
    cut = Truncated(2.0, ExpTempered(a=0.0, c1=0.5))
    assert cut.tail is None and cut.knees() == (1.0, 2.0, 2.0)
    assert cut.q0 == pytest.approx(1.0, rel=1e-11)
    custom = Custom(lambda s: 3.0 / (1.0 + s))
    assert custom.tail is None and custom.knees() == (1.0,)
    assert custom.q0 == pytest.approx(3.0, rel=1e-11)


def test_tail_index():
    assert tail_index(Constant(1.0), 1.0) == pytest.approx(1.0)
    assert tail_index(ExpTempered(a=0.0, c1=1.0), 1.0) == pytest.approx(2.0)
    assert tail_index(Truncated(s0=1.0), 0.5) == pytest.approx(2.0)
    assert tail_index(Relativistic(d=1, alpha=1.0), 1.0) == pytest.approx(2.0)
    # polynomial: min(2, alpha + m) up to the strictness guard
    assert tail_index(PolyTempered(0.5), 1.0) == pytest.approx(1.5, abs=1e-6)
    assert tail_index(PolyTempered(5.0), 1.0) == pytest.approx(2.0)


def test_profile_serialization_roundtrip():
    for q in (Constant(2.5), PolyTempered(3.0),
              ExpTempered(a=1.0, c1=2.0), Truncated(s0=4.0),
              Relativistic(d=2, alpha=0.7)):
        back = profile_from_dict(profile_to_dict(q))
        s = np.logspace(-2, 1, 20)
        np.testing.assert_allclose(back(s), q(s), rtol=1e-14)


def test_legacy_exp_c2_key_is_ignored():
    # older files carry a "c2" that changed no output
    doc = {"kind": "exp", "a": 0.5, "c1": 0.8, "c2": 0.4}
    assert profile_from_dict(doc) == ExpTempered(0.5, 0.8)


def test_cut_serialization_keeps_its_base():
    q = Truncated(2.0, ExpTempered(a=0.5, c1=0.8))
    doc = profile_to_dict(q)
    assert doc["profile"] == profile_to_dict(q.q)
    assert profile_from_dict(json.loads(json.dumps(doc))) == q
    # a document without a base is hard truncation, q = 1
    hard = {"kind": "truncated", "s0": 2.0}
    assert profile_from_dict(hard) == Truncated(2.0)


def test_quadrature_integrands_see_floats(monkeypatch):
    seen = []
    for cls in (PolyTempered, ExpTempered):
        def recording(self, s, _value=cls.value):
            seen.append(type(s))
            return _value(self, s)
        monkeypatch.setattr(cls, "value", recording)
    for q in (PolyTempered(2.5), ExpTempered(a=0.5, c1=0.8)):
        psi_quad(q, 0.7, 3.0)
        psi_quad(Truncated(2.0, q), 0.7, 3.0)
        radial_tail_mass(q, 0.7, 1e-3)
        radial_second_moment(q, 0.7, 5.0)
    assert len(seen) > 1000
    assert all(issubclass(t, float) for t in seen)


@st.composite
def profiles(draw):
    """The five built-in profile kinds."""
    return draw(st.one_of(
        st.builds(Constant, st.floats(0.1, 10.0)),
        st.builds(PolyTempered, st.floats(0.5, 5.0)),
        st.builds(ExpTempered, st.floats(0.0, 2.0), st.floats(0.1, 2.0)),
        st.builds(Truncated, st.floats(0.01, 10.0)),
        st.builds(Relativistic, st.sampled_from([1, 2]),
                  st.floats(0.05, 1.99)),
    ))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(profiles(), st.floats(-12.0, 6.0))
def test_float_path_equals_array_path(q, log_s):
    s = 10.0 ** log_s
    value = float(q(s))
    # bitwise against a 0-d array: numpy's scalar math and Python's float
    # math both call the C library's pow and exp
    assert value == float(q(np.asarray(s)))
    # 1-d arrays may take numpy's SIMD pow, which can differ from the C
    # library's in the last bit
    assert value == pytest.approx(q(np.array([s]))[0], rel=5e-16, abs=0.0)


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_exp_tempered_is_zero_far_out(a):
    # (1+s)^a overflows past s ~ 1e154 (a = 2) while exp(-c1 s) is 0
    q = ExpTempered(a=a, c1=1.0)
    assert q(1e200) == 0.0
    np.testing.assert_array_equal(q(np.array([1e200, np.inf])), [0.0, 0.0])


def test_custom_profile_sees_arrays():
    def poly3(s):
        # an array-only formula: a float has no shape
        return np.full(s.shape, 1.0) * (1.0 + s) ** -3.0

    custom, q = Custom(poly3), PolyTempered(3.0)
    for alpha in (0.5, 1.5):
        for u in (1e-4, 0.3, 40.0, 3e3):
            for cut in (lambda p: p, lambda p: Truncated(1.0, p)):
                assert psi_quad(cut(custom), alpha, u) == pytest.approx(
                    psi_quad(cut(q), alpha, u), rel=1e-12, abs=0.0)
        r = np.logspace(-8.0, 3.0, 23)
        np.testing.assert_allclose(_tail_table(custom, alpha)(r),
                                   _tail_table(q, alpha)(r), rtol=1e-12)
