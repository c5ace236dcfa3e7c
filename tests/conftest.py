import sys
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# hypothesis imports this module (libcst, then mypy_extensions) only when a
# @given test fails; under -W error the DeprecationWarning of that import
# would end the whole session with an INTERNALERROR, so import it here, once
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from detcalc import BundleSpec, Instance, VirtualPair
from detcalc.chow import projective_space
from tables import table_rows


@pytest.fixture(scope="session")
def p4():
    return projective_space(4)


@pytest.fixture()
def quintic(p4):
    """Rank-4 pair whose determinant cuts a nodal quintic threefold."""
    E = BundleSpec.sum_of_line_bundles(p4, [[-1], [-1], [-1], [-2]])
    F = BundleSpec.sum_of_line_bundles(p4, [[0], [0], [0], [0]])
    return Instance(p4, VirtualPair(E, F), p4.generator(0))


@pytest.fixture()
def quartic(p4):
    """Rank-2 pair whose determinant cuts a 16-node quartic threefold."""
    E = BundleSpec.sum_of_line_bundles(p4, [[0], [0]])
    F = BundleSpec.sum_of_line_bundles(p4, [[2], [2]])
    return Instance(p4, VirtualPair(E, F), p4.generator(0))


@pytest.fixture()
def quartic_table():
    """The Table 2 instances of ``detcalc table table2``, with their ODP counts."""
    return [(inst, odps) for inst, (odps,) in table_rows("table2")]
