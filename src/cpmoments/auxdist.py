"""The tilted integer law behind the moment asymptotics, materialized.

For a weight model with EGF H, intensity x and tilt u in (0, u0) define

    P(Z = j) = M_j(x) u^j / ( j! G(x,u) ),      G(x,u) = exp( x (H(u) - 1) ),

so that the moments invert as M_k(x) = k! G(x,u) u^{-k} P(Z = k).  Z has
mean x u H'(u) and variance x (u H'(u) + u^2 H''(u)); choosing u so that
the mean equals k and letting k grow makes Z asymptotically normal, and the
value P(Z = k) approaches the normal density at its center.  This module
builds the law numerically from log-space moments and checks both facts:
the inversion identity (a pure floating-point identity) and the local
limit ratio p_k * sqrt(2 pi) * sigma / span -> 1, where span is the lattice
spacing of the support, ``WeightModel.span``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .asymptotics import solve_saddle
from .errors import DomainError
from .moments import log_moment_sequence, moment_sequence
from .weights import WeightModel, log_rational

_MAX_SUPPORT = 10**6
_MASS_TOLERANCE = 1e-12


@dataclass(frozen=True)
class AuxiliaryDistribution:
    """Truncated pmf of the tilted law with its analytic summaries.

    ``log_pmf[j]`` is ln P(Z = j) for j = 0 .. support_cap (-inf off the
    lattice); mass beyond support_cap is below the construction tolerance.
    """

    model: WeightModel
    x: float
    u: float
    log_G: float
    support_cap: int
    log_pmf: np.ndarray
    mean: float
    variance: float
    sigma: float

    def pmf(self, j: int) -> float:
        if not 0 <= j <= self.support_cap:
            return 0.0
        return float(math.exp(self.log_pmf[j]))

    def pmf_dict(self) -> dict[int, float]:
        return {
            j: float(math.exp(lp))
            for j, lp in enumerate(self.log_pmf)
            if lp > -math.inf
        }

    def local_limit_ratio(self, k: int) -> float:
        """r_k = P(Z = k) sqrt(2 pi) sigma / span, the local-limit ratio at k.

        It tends to 1 as k grows at fixed chi when the law is tilted so that
        E Z = k, as ``local_limit_check`` does.
        """
        self.model.check_order(k)
        if k > self.support_cap:
            raise DomainError("saddle order fell outside the retained support")
        return self.pmf(k) * math.sqrt(2.0 * math.pi) * self.sigma / self.model.span


def build_aux(model: WeightModel, x: float, u: float) -> AuxiliaryDistribution:
    """Materialize the tilted law, truncating once cumulative mass reaches
    1 - _MASS_TOLERANCE."""
    x = float(x)
    if x <= 0:
        raise DomainError("intensity x must be positive")
    if not 0.0 < u < model.radius:
        raise DomainError(f"tilt u must lie in (0, {model.radius}), got {u}")
    h, h1, h2 = model.egf(u), model.egf_d1(u), model.egf_d2(u)
    log_g = x * (h - 1.0)
    mean = x * u * h1
    variance = x * (u * h1 + u * u * h2)
    sigma = math.sqrt(variance)
    ln_u = math.log(u)

    cap_guess = int(mean + 12.0 * sigma) + 64
    while True:
        if cap_guess > _MAX_SUPPORT:
            raise DomainError(
                f"support exceeded {_MAX_SUPPORT} terms before reaching mass"
                f" 1 - {_MASS_TOLERANCE}"
            )
        ln_m = log_moment_sequence(model, cap_guess, x)
        js = np.arange(cap_guess + 1)
        lgf = np.array([math.lgamma(j + 1.0) for j in range(cap_guess + 1)])
        log_pmf = ln_m + js * ln_u - lgf - log_g
        mass = np.cumsum(np.exp(log_pmf))
        if mass[-1] >= 1.0 - _MASS_TOLERANCE:
            cap = int(np.searchsorted(mass, 1.0 - _MASS_TOLERANCE))
            cap = min(cap, cap_guess)
            return AuxiliaryDistribution(
                model=model,
                x=x,
                u=u,
                log_G=log_g,
                support_cap=cap,
                log_pmf=log_pmf[: cap + 1],
                mean=mean,
                variance=variance,
                sigma=sigma,
            )
        cap_guess *= 2


def inversion_check(aux: AuxiliaryDistribution, k: int) -> float:
    """Relative defect of M_k(x) = k! G u^{-k} P(Z = k).

    The identity is algebraic, so the returned value measures floating-point
    error only.  The reference ln M_k(x) is recomputed through the exact
    rational path when cheap, otherwise through a fresh log recurrence.
    """
    if not 0 <= k <= aux.support_cap or aux.log_pmf[k] == -math.inf:
        raise DomainError(f"order {k} is outside the retained support")
    if k <= 64:
        ref = log_rational(moment_sequence(aux.model, k, Fraction(aux.x))[k])
    else:
        ref = float(log_moment_sequence(aux.model, k, aux.x)[k])
    delta = math.lgamma(k + 1.0) + aux.log_G - k * math.log(aux.u) + float(aux.log_pmf[k]) - ref
    return abs(math.expm1(delta))


def local_limit_check(model: WeightModel, chi: float, k: int) -> float:
    """Ratio of P(Z = k) to the normal density prediction at the mean.

    The tilt is chosen so that E Z = k exactly (u H'(u) = 1/chi with
    x = chi k).  Returns r_k = p_k * sqrt(2 pi) * sigma / span, which tends
    to 1 as k grows at fixed chi.
    """
    model.check_order(k)
    sol = solve_saddle(model, chi)
    return build_aux(model, chi * k, sol.u).local_limit_ratio(k)
