import pytest
from hypothesis import settings

from algly import HomogenizedLyapunov, MultiPoly, linear, parse

DISK_TEXT = "(x1-1)^2 + (x2+1)^2 - 4"
ANNULUS_TEXT = "-(x1^2 + x2^2 - 1)*(x1^2 + x2^2 - 4)"
HYPERBOLA_TEXT = "x1^2 - x2^2 - 1"

# `pytest --hypothesis-profile=ci`: the same examples on every run, and a
# failure prints the blob that replays it locally (@reproduce_failure)
settings.register_profile("ci", derandomize=True, print_blob=True)


def quadratic_form(basis, Q, nvars):
    """z^T Q z over the monomials z_i = x^basis[i]; MultiPoly sums the repeated exponents."""
    return MultiPoly(nvars, [(tuple(a + b for a, b in zip(ei, ej)), Q[i][j])
                             for i, ei in enumerate(basis) for j, ej in enumerate(basis)])


@pytest.fixture(scope="session")
def disk_poly():
    return parse(DISK_TEXT, 2)


@pytest.fixture(scope="session")
def disk_L(disk_poly):
    return HomogenizedLyapunov(disk_poly)


@pytest.fixture(scope="session")
def contraction():
    return linear([[-1.0, 0.0], [0.0, -1.0]])


@pytest.fixture(scope="session")
def expansion():
    return linear([[1.0, 0.0], [0.0, 1.0]])
