import json
import random

import pytest
from hypothesis import HealthCheck, note, settings
from hypothesis import strategies as st

from qspectra.algebra import FiniteCommAlgebra
from qspectra.exactlin import Matrix
from qspectra.lefschetz import collection_to_json

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def _seeded(build):
    """A strategy that draws one seed and builds its value from
    random.Random(seed), which costs far less than drawing every entry
    through hypothesis.  Seeds shrink poorly, so a failure prints the
    seed and the value."""
    def from_seed(seed):
        value = build(random.Random(seed))
        note("seed %d: %r" % (seed, value))
        return value
    return st.integers(min_value=0, max_value=2**32 - 1).map(from_seed)


def identity(n):
    """The n x n identity Matrix."""
    return Matrix([[int(i == j) for j in range(n)] for i in range(n)])


@pytest.fixture()
def collection_file(tmp_path):
    """write(c, name) puts collection c in the file form, the JSON of
    collection_to_json, at tmp_path / name and returns that path."""
    def write(c, name):
        path = tmp_path / name
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(collection_to_json(c), fh, indent=2, sort_keys=True)
        return path
    return write


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
