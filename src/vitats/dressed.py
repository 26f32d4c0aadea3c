"""Dressed-state analytics for each photon-number manifold.

For n photons the cavity coupling mixes |n,e> and |n+1,f> into the dressed
pair |u_n>, |v_n>:

    |u_n> = cos(theta_n)|n,e> - sin(theta_n)|n+1,f>   (lower,  -s_n/2)
    |v_n> = sin(theta_n)|n,e> + cos(theta_n)|n+1,f>   (upper,  +s_n/2)

with s_n = sqrt(delta^2 + 4 eta^2 (n+1)) and mixing angle
theta_n = (1/2) atan2(2 eta sqrt(n+1), delta). Eigenvalues are reported
relative to the manifold mean, so absolute frequencies never appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FullyDegenerate, ParameterError
from .model import SystemParams, half_widths


@dataclass(frozen=True)
class DressedManifold:
    """Dressed pair of the n-photon manifold.

    u_coefficients / v_coefficients are in the ordered basis
    (|n,e>, |n+1,f>); omega_minus/omega_plus are relative eigenvalues
    -s_n/2 and +s_n/2.
    """

    n: int
    theta_n: float
    omega_minus: float
    omega_plus: float
    u_coefficients: tuple[float, float]
    v_coefficients: tuple[float, float]

    @property
    def splitting(self) -> float:
        return self.omega_plus - self.omega_minus


@dataclass(frozen=True)
class SubspaceRates:
    """Relaxation rates of the probe-coherence subspace spanned by
    |G><u_0| and |G><v_0| (G = |0,g>).

    Gamma_Gu and Gamma_Gv are nonpositive; Gamma_c cross-couples the two
    coherences and vanishes when gamma_e = gamma_f + kappa.
    """

    Gamma_Gu: float
    Gamma_Gv: float
    Gamma_c: float


def mixing_angle(n: int, eta: float, delta: float) -> float:
    """theta_n = (1/2) atan2(2 eta sqrt(n+1), delta).

    atan2 keeps the angle continuous through delta = 0 (where it is pi/4)
    and well defined for delta < 0; only eta = delta = 0 is rejected.
    """
    if n < 0:
        raise ParameterError(f"photon index n = {n} must be >= 0")
    if eta < 0:
        raise ParameterError(f"eta = {eta} must be >= 0")
    if eta == 0.0 and delta == 0.0:
        raise FullyDegenerate("mixing angle undefined at eta = 0, delta = 0")
    return 0.5 * math.atan2(2.0 * eta * math.sqrt(n + 1.0), delta)


def manifold(n: int, params: SystemParams) -> DressedManifold:
    """Dressed pair of the n-photon manifold."""
    theta = mixing_angle(n, params.eta, params.delta)
    s_n = math.hypot(params.delta, 2.0 * params.eta * math.sqrt(n + 1.0))
    c, s = math.cos(theta), math.sin(theta)
    return DressedManifold(
        n=n,
        theta_n=theta,
        omega_minus=-0.5 * s_n,
        omega_plus=+0.5 * s_n,
        u_coefficients=(c, -s),
        v_coefficients=(s, c),
    )


def subspace_rates(theta_0: float, gamma_e: float, gamma_f: float,
                   kappa: float) -> SubspaceRates:
    """Relaxation rates of the vacuum-manifold coherences.

    Gamma_Gv = -gamma_e sin^2(theta_0) - (gamma_f+kappa) cos^2(theta_0)
    Gamma_Gu = -gamma_e cos^2(theta_0) - (gamma_f+kappa) sin^2(theta_0)
    Gamma_c  = (-gamma_e + gamma_f + kappa) sin(theta_0) cos(theta_0)

    The formulas are smooth on the closed interval [0, pi/2]; the endpoint
    limits (fully decoupled manifold) are allowed.
    """
    if not 0.0 <= theta_0 <= 0.5 * math.pi:
        raise ParameterError(f"theta_0 = {theta_0} outside [0, pi/2]")
    g = gamma_f + kappa
    c, s = math.cos(theta_0), math.sin(theta_0)
    return SubspaceRates(
        Gamma_Gu=-gamma_e * c * c - g * s * s,
        Gamma_Gv=-gamma_e * s * s - g * c * c,
        Gamma_c=(-gamma_e + g) * s * c,
    )


def vacuum_subspace_rates(params: SystemParams) -> SubspaceRates:
    """subspace_rates evaluated at theta_0 of the given params."""
    gamma_e, gamma_f = half_widths(params)
    theta = mixing_angle(0, params.eta, params.delta)
    return subspace_rates(theta, gamma_e, gamma_f, params.kappa)
