"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import functools
import math

import numpy as np
import pytest

from axiclone.choi import (build_merit, choi_fidelity, choi_from_params,
                           dual_certificate, max_sampled_fidelity)
from axiclone.circuit import build_circuit, circuit_unitary
from axiclone.dist import (Brosseau, Delta, DeltaPair, Uniform, VonMisesFisher,
                           moments)
from axiclone.optimal import (Regime, average_fidelity, optimal_angles,
                              pcc_params, single_copy_fidelity)
from axiclone.qsim import PureQubit, clone_fidelity_sim, clone_isometry

from conftest import angle_params, assert_primal_optimum, random_params
from oracles import (density, integrate_marginal, quadrature_moments,
                     vmf_kappa_threshold)

SQRT2 = math.sqrt(2.0)


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} FAIL - {label}")
                raise
            print(f"ACCEPTANCE {number:02d} PASS - {label}")
        return wrapper
    return decorate


@criterion(1, "uniform ensemble reduces to the 5/6 state-independent cloner")
def test_criterion_01_uc_reduction():
    dist = Uniform()
    m = moments(dist)
    p = optimal_angles(m)
    assert math.cos(p.alpha_plus) ** 2 == pytest.approx(2 / 3, abs=1e-10)
    assert math.cos(p.alpha_minus) ** 2 == pytest.approx(2 / 3, abs=1e-10)

    f_closed = average_fidelity(m, p)
    assert f_closed == pytest.approx(5 / 6, abs=1e-10)

    def integrand(x):
        thetas = np.arccos(np.clip(x, -1, 1))
        vals = np.array([single_copy_fidelity(float(t), p) for t in thetas])
        return density(dist, x) * vals

    f_quadrature = float(integrate_marginal(dist, integrand, tol=1e-11))
    f_simulated = clone_fidelity_sim(PureQubit(1.1, 0.3), p, 1)
    f_choi = choi_fidelity(choi_from_params(p), build_merit(dist))

    paths = (f_closed, f_quadrature, f_simulated, f_choi)
    for value in paths:
        assert value == pytest.approx(5 / 6, abs=1e-9)
    assert max(paths) - min(paths) <= 1e-9


@criterion(2, "interior/boundary threshold sits at concentration 0.3305")
def test_criterion_02_pcc_threshold():
    kappa_star = vmf_kappa_threshold()
    p = optimal_angles(moments(VonMisesFisher(kappa=kappa_star)))
    assert abs(p.gamma) == pytest.approx(1.0, abs=1e-9)
    assert kappa_star == pytest.approx(0.3305, abs=5e-4)


@criterion(3, "equatorial ring gives quarter-wave angles and F=(4+2*sqrt2)/8")
def test_criterion_03_equatorial_fidelity():
    m = moments(Delta(theta=math.pi / 2))
    p = optimal_angles(m)
    assert p.alpha_plus == pytest.approx(math.pi / 4, abs=1e-9)
    assert p.alpha_minus == pytest.approx(math.pi / 4, abs=1e-9)
    f = average_fidelity(m, p)
    assert f == pytest.approx((4 + 2 * SQRT2) / 8, abs=1e-9)
    # reference row: (5 + sqrt2 + 2 cos(theta + pi) - (sqrt2 - 1) cos 2theta)/8
    theta = math.pi / 2
    reference = (5 + SQRT2 + 2 * math.cos(theta + math.pi)
                 - (SQRT2 - 1) * math.cos(2 * theta)) / 8
    assert f == pytest.approx(reference, abs=1e-9)


@criterion(4, "mirror pairs reduce to the single-angle mirror cloner")
def test_criterion_04_mirror_reduction():
    for vartheta in (math.pi / 6, math.pi / 3, 1.2):
        m = moments(DeltaPair(theta=vartheta))
        p = optimal_angles(m)
        assert p.alpha_plus == pytest.approx(p.alpha_minus, abs=1e-10)
        lam = math.cos(p.alpha_plus)
        lbar = math.sin(p.alpha_plus)
        reference = (1 + lam ** 2) / 2 - 0.5 * math.sin(vartheta) ** 2 * (
            lam ** 2 - lam * lbar * SQRT2)
        assert average_fidelity(m, p) == pytest.approx(reference, abs=1e-9)


@criterion(5, "fidelity vs concentration has the expected shape")
def test_criterion_05_concentration_sweep_shape():
    kappas = np.linspace(0.0, 3.0, 301)
    fidelities = []
    regimes = []
    for kappa in kappas:
        m = moments(VonMisesFisher(kappa=float(kappa)))
        p = optimal_angles(m)
        fidelities.append(average_fidelity(m, p))
        regimes.append(p.regime)
    assert fidelities[0] == pytest.approx(5 / 6, abs=1e-9)
    for a, b in zip(fidelities, fidelities[1:]):
        assert b >= a - 1e-12

    kappa_star = vmf_kappa_threshold()
    switch = next(i for i, r in enumerate(regimes) if r is Regime.PCC_UPPER)
    step = float(kappas[1] - kappas[0])
    assert regimes[switch - 1] is Regime.INTERIOR
    assert kappas[switch] - step <= kappa_star <= kappas[switch] + 1e-12

    m = moments(VonMisesFisher(kappa=0.2))
    best = average_fidelity(m, optimal_angles(m))
    boundary = max(average_fidelity(m, pcc_params(True)),
                   average_fidelity(m, pcc_params(False)))
    assert best - boundary > 1e-6


@criterion(6, "polarization sweep stays below its full-polarization envelope")
def test_criterion_06_polarization_sweep_shape():
    m0 = moments(Brosseau(P=0.0, mu=0.0))
    f0 = average_fidelity(m0, optimal_angles(m0))
    assert f0 == pytest.approx(5 / 6, abs=1e-9)
    for mu in (0.2, 0.5, 0.8):
        m = moments(Brosseau(P=mu, mu=mu))
        f = average_fidelity(m, optimal_angles(m))
        m_limit = moments(Delta(theta=math.acos(mu)))
        f_limit = average_fidelity(m_limit, optimal_angles(m_limit))
        assert f <= f_limit + 1e-12


@criterion(7, "the SDP dual bound and an independent primal SDP solve over "
              "all CPTP maps close on the analytic optimum")
def test_criterion_07_optimality_certification():
    references = [
        Uniform(),
        VonMisesFisher(kappa=0.2),
        VonMisesFisher(kappa=1.0),
        Brosseau(P=0.8, mu=0.5),
        DeltaPair(theta=math.pi / 3),
    ]
    for dist in references:
        m = moments(dist)
        p_opt = optimal_angles(m)
        f_opt = average_fidelity(m, p_opt)
        merit = build_merit(dist)
        tr_y, lambda_min = dual_certificate(merit, p_opt)
        assert abs(tr_y - f_opt) <= 1e-9
        assert lambda_min >= -1e-9
        sampled = max_sampled_fidelity(merit, 10_000, seed=0, env_dims=(1, 2, 4))
        assert sampled <= f_opt + 1e-9
        assert_primal_optimum(dist)


@criterion(8, "the gate circuit reproduces the cloning isometry")
def test_criterion_08_circuit_equivalence():
    rng = np.random.default_rng(88)
    for _ in range(100):
        p = random_params(rng)
        u = circuit_unitary(build_circuit(p))
        v = clone_isometry(p)
        assert np.linalg.norm(u[:, [0b000, 0b100]] - v) <= 1e-12
    for _ in range(10):
        alpha = float(rng.uniform(0, math.pi / 2))
        p = angle_params(alpha, alpha)
        circ = build_circuit(p)
        assert circ[0].kind == "CRy" and circ[0].param == 0.0
        trimmed = circ[1:]
        du = circuit_unitary(circ)[:, [0b000, 0b100]]
        dt = circuit_unitary(trimmed)[:, [0b000, 0b100]]
        assert np.linalg.norm(du - dt) <= 1e-12


@criterion(9, "first-principles simulation matches the closed-form fidelity")
def test_criterion_09_simulation_consistency():
    rng = np.random.default_rng(99)
    thetas = np.linspace(0.0, math.pi, 50)
    for _ in range(10):
        p = random_params(rng)
        for theta in thetas:
            q = PureQubit(float(theta), 0.0)
            f1 = clone_fidelity_sim(q, p, 1)
            f2 = clone_fidelity_sim(q, p, 2)
            assert abs(f1 - f2) <= 1e-12
            assert f1 == pytest.approx(single_copy_fidelity(float(theta), p),
                                       abs=1e-12)
            for phi in (1.3, 4.9):
                f_phi = clone_fidelity_sim(PureQubit(float(theta), phi), p, 1)
                assert abs(f_phi - f1) <= 1e-12


@criterion(10, "closed-form moments agree with quadrature across concentrations")
def test_criterion_10_moment_machinery():
    for kappa in (0.1, 0.5, 1.0, 5.0, 20.0):
        dist = VonMisesFisher(kappa=kappa)
        closed = moments(dist)
        quad = quadrature_moments(dist)
        assert closed.a1 == pytest.approx(quad.a1, abs=1e-8)
        assert closed.a2 == pytest.approx(quad.a2, abs=1e-8)
