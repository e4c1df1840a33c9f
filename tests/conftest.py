import pathlib
import sys

import pytest

try:
    import qbf  # noqa: F401
except ImportError:
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))


@pytest.fixture
def corrupted_exponents(monkeypatch):
    """Shift every fusion-predicted exponent that the sl2 oracle sees by one."""
    from qbf import sl2_oracle

    exact = sl2_oracle.rmatrix_exponent_details

    def shifted(rs, lam, mu):
        details = exact(rs, lam, mu)
        return details._replace(table=tuple((nu, m, e + 1) for nu, m, e in details.table))

    monkeypatch.setattr(sl2_oracle, "rmatrix_exponent_details", shifted)
