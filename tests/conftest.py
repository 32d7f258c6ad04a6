import math

import numpy as np
import pytest
from hypothesis import strategies as st

from axiclone.choi import build_merit, choi_from_params
from axiclone.dist import (Belt, Brosseau, Delta, DeltaPair, HenyeyGreenstein,
                           MomentPair, Uniform, VonMisesFisher, moments)
from axiclone.optimal import (ClonerParams, Regime, average_fidelity,
                              optimal_angles)

from oracles import partial_trace, primal_sdp_max

_POLAR = st.floats(0.0, math.pi)

# One strategy per registered kind, reaching the extreme finite floats of
# each kind's domain.
KIND_STRATEGIES = {
    "uniform": st.just(Uniform()),
    "vmf": st.builds(VonMisesFisher,
                     st.floats(allow_nan=False, allow_infinity=False)),
    "brosseau": st.floats(0.0, 1.0, exclude_max=True).flatmap(
        lambda P: st.builds(Brosseau, st.just(P), st.floats(-P, P))),
    "hg": st.builds(HenyeyGreenstein,
                    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)),
    "delta": st.builds(Delta, _POLAR),
    "deltapair": st.builds(DeltaPair, _POLAR),
    "belt": st.lists(_POLAR, min_size=2, max_size=2, unique=True).map(
        lambda thetas: Belt(*sorted(thetas))),
}


def random_feasible_moments(rng) -> MomentPair:
    """Uniform draw from the (a1, a2) feasibility region."""
    a1 = rng.uniform(-1.0, 1.0)
    a2 = rng.uniform((3 * a1 * a1 - 1) / 2, 1.0)
    return MomentPair(a1, a2)


def angle_params(alpha_plus: float, alpha_minus: float) -> ClonerParams:
    """The cloner of an arbitrary angle pair, for simulation and sampling.

    Its diagnostics are placeholders (Gamma = 0, Omega = sin(alpha+ + alpha-),
    regime Interior): no ensemble selected these angles.
    """
    return ClonerParams(alpha_plus, alpha_minus, 0.0,
                        math.sin(alpha_plus + alpha_minus), Regime.INTERIOR)


def random_params(rng) -> ClonerParams:
    """A cloner with both angles drawn uniformly from [0, pi/2]."""
    ap, am = rng.uniform(0, math.pi / 2, 2)
    return angle_params(float(ap), float(am))


def random_distribution(rng, density_only: bool = False):
    """One random instance of a built-in kind, parameters in range."""
    kinds = ["uniform", "vmf", "brosseau", "hg", "belt"]
    if not density_only:
        kinds += ["delta", "deltapair"]
    kind = kinds[rng.integers(len(kinds))]
    if kind == "uniform":
        return Uniform()
    if kind == "vmf":
        return VonMisesFisher(kappa=rng.uniform(-8.0, 8.0))
    if kind == "brosseau":
        P = rng.uniform(0.05, 0.95)
        return Brosseau(P=P, mu=rng.uniform(-P, P))
    if kind == "hg":
        return HenyeyGreenstein(h=rng.uniform(-0.9, 0.9))
    if kind == "belt":
        t1 = rng.uniform(0.0, math.pi - 0.2)
        return Belt(theta1=t1, theta2=rng.uniform(t1 + 0.1, math.pi))
    if kind == "delta":
        return Delta(theta=rng.uniform(0.0, math.pi))
    return DeltaPair(theta=rng.uniform(0.0, math.pi))


def assert_primal_optimum(dist, pinned: bool = True):
    """The primal SDP solve meets F_opt from below on a CPTP chi; (F, chi).

    ``pinned`` asserts chi = chi_opt too, where the optimum is one point.
    """
    m = moments(dist)
    p = optimal_angles(m)
    f_opt = average_fidelity(m, p)
    f, chi = primal_sdp_max(build_merit(dist))
    assert f <= f_opt + 1e-12
    assert abs(f - f_opt) <= 1e-10
    assert np.abs(chi - chi.T).max() <= 1e-12
    assert np.linalg.eigvalsh(chi).min() >= -1e-12
    assert np.abs(partial_trace(chi, {1}) - np.eye(2)).max() <= 1e-13
    if pinned:
        assert np.linalg.norm(chi - choi_from_params(p)) <= 1e-8
    return f, chi


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
