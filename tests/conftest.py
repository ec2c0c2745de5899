import hypothesis
import numpy as np
import pytest

from cos2phi.model import BasisTruncation, BiasPoint, CircuitParams

hypothesis.settings.register_profile(
    "default", max_examples=25, deadline=None
)
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def canonical():
    return CircuitParams(eps_J=15.0, eps_C=2.0, eps_L=1.0, x=0.02)


@pytest.fixture(scope="session")
def half_flux():
    return BiasPoint(np.pi, 0.0)


@pytest.fixture(scope="session")
def small_trunc():
    """Fast basis for structure tests; not converged for tight spectroscopy."""
    return BasisTruncation(4, 4, 14)


@pytest.fixture(scope="session")
def medium_trunc():
    return BasisTruncation(5, 5, 20)


@pytest.fixture(scope="session")
def canonical_medium(canonical, half_flux, medium_trunc):
    """Shared labeled solution at half flux on the medium basis."""
    from cos2phi.cache import SolutionCache

    return SolutionCache().get_or_solve(canonical, half_flux, medium_trunc, k=6)
