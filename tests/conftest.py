import pytest
from hypothesis import HealthCheck, settings

from qspectra.algebra import FiniteCommAlgebra

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture()
def stalled_radical_ring():
    """A 2-dim commutative table with kappa = 0 whose nilradical
    N = span(1 - x) squares to (0, 2), so N^2 = N and the radical
    filtration never reaches zero; it is not a valid ring."""
    return FiniteCommAlgebra(
        name="stalled", basis_labels=("1", "x"),
        cells=[[{0: -1, 1: -1}, {0: -1, 1: -1}], [{0: -1, 1: 1}]], den=1,
        unit=(1, 0), degrees=(0, 0), fano_index=1, anticanonical=(0, 0),
        dim_X=0)
