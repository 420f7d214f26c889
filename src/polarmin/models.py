"""Built-in energy model catalogue addressable by name.

Positive models: ``example_paper`` (dampened Dirichlet integrand with a
Coulomb-coupled quadratic nonlocal term), ``plaplace`` (pure gradient term
b^p), ``choquard`` (b^2 with G = s^2 and V = 1/r).  Negative controls
``nonmonotone_g`` and ``nonsupermodular_f`` intentionally violate the
structural assumptions and exist for the assumption sampler.
``by_name`` passes ``m`` and ``dim`` to every catalogue entry alike; no
built-in model depends on ``dim``.
"""

from __future__ import annotations

import numpy as np

from .energy import CouplingG, EnergyModel, IntegrandJ, LocalTermF


def _dampened_dirichlet() -> IntegrandJ:
    # j(s, b) = (1 + 1/(1+|s|)) b^2
    return IntegrandJ(
        j=lambda s, b: (1.0 + 1.0 / (1.0 + np.abs(s))) * b**2,
        dj_ds=lambda s, b: -np.sign(s) * b**2 / (1.0 + np.abs(s)) ** 2,
        dj_db=lambda s, b: 2.0 * (1.0 + 1.0 / (1.0 + np.abs(s))) * b,
        a1=1.0,
        strictly_convex=True,
    )


def _power_integrand(p: float) -> IntegrandJ:
    return IntegrandJ(
        j=lambda s, b: b**p,
        dj_ds=lambda s, b: np.zeros_like(np.asarray(b, dtype=float)),
        dj_db=lambda s, b: p * b ** (p - 1.0),
        a1=1.0,
        strictly_convex=p > 1,
    )


def _sum_of_squares(m: int) -> CouplingG:
    # G(s) = sum_i s_i^2
    return CouplingG(
        g=lambda s: sum(np.abs(si) ** 2 for si in s),
        dg_ds=lambda s: [2.0 * si for si in s],
        growth_K=1.0,
        exponents_mu=(2.0,) * m,
    )


def _coulomb(r):
    """V(r) = 1/r.  One module-level function, so every model with this
    kernel shares one cached transform per grid (energy.kernel_transform)."""
    return 1.0 / r


def example_paper(m: int = 1, dim: int = 3) -> EnergyModel:
    return EnergyModel(
        p=2.0,
        js=[_dampened_dirichlet() for _ in range(m)],
        G=_sum_of_squares(m),
        V=_coulomb,
    )


def plaplace(m: int = 1, dim: int = 3, p: float = 2.0) -> EnergyModel:
    return EnergyModel(
        p=p,
        js=[_power_integrand(p) for _ in range(m)],
    )


def choquard(m: int = 1, dim: int = 3) -> EnergyModel:
    return EnergyModel(
        p=2.0,
        js=[_power_integrand(2.0) for _ in range(m)],
        G=_sum_of_squares(m),
        V=_coulomb,
    )


def nonmonotone_g(dim: int = 3) -> EnergyModel:
    """Negative control: G(s1, s2) = s1 - s2 is decreasing in s2."""
    g = CouplingG(
        g=lambda s: s[0] - s[1],
        dg_ds=lambda s: [np.ones_like(s[0]), -np.ones_like(s[1])],
        growth_K=1.0,
        exponents_mu=(2.0, 2.0),
    )
    return EnergyModel(p=2.0, js=[_power_integrand(2.0) for _ in range(2)],
                       G=g, V=_coulomb)


def nonsupermodular_f(dim: int = 3) -> EnergyModel:
    """Negative control: F(r, s1, s2) = -s1*s2 is submodular and negative."""
    f = LocalTermF(
        f=lambda r, s: -s[0] * s[1],
        df_ds=lambda r, s: [-s[1], -s[0]],
        growth_K=1.0,
        exponents_l=(1.0, 1.0),
    )
    return EnergyModel(p=2.0, js=[_power_integrand(2.0) for _ in range(2)],
                       F=f)


CATALOGUE = {
    "example_paper": example_paper,
    "plaplace": plaplace,
    "choquard": choquard,
    "nonmonotone_g": lambda m=2, dim=3: nonmonotone_g(dim),
    "nonsupermodular_f": lambda m=2, dim=3: nonsupermodular_f(dim),
}


def by_name(name: str, m: int = 1, dim: int = 3) -> EnergyModel:
    if name not in CATALOGUE:
        raise KeyError(f"unknown model {name!r}; "
                       f"choices: {sorted(CATALOGUE)}")
    return CATALOGUE[name](m=m, dim=dim)
