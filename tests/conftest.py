import numpy as np
import pytest

from dgsym.params import reference_points


@pytest.fixture(scope="session")
def pts():
    return reference_points()


class Junk:
    """An (r, s) evaluator that solves no equation of the family."""

    def rs(self, xs, t):
        x = np.asarray(xs[0])
        return 0.5 * np.sin(3 * x) * (1 + t), 0.4 * np.cos(2 * x)
