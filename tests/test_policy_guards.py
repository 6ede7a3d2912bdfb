"""Guard-rail tests for tolerance policies and rank-consistency errors."""
import numpy as np
import pytest

from twogrid.errors import ShapeError
from twogrid.analysis import sigma_tg
from twogrid.linalg import TolerancePolicy, spsd_certify
from twogrid.model import (
    TwoGridHierarchy,
    WeightedJacobi,
    aggregation_prolongation,
    build_hierarchy,
    build_smoother,
    neumann_laplacian_1d,
    random_spsd,
)


class TestTolerancePolicy:
    @pytest.mark.parametrize("field,value", [
        ("rank_rel_tol", 0.0), ("rank_rel_tol", 1.0),
        ("psd_slack", -1e-10), ("match_tol", 2.0),
    ])
    def test_out_of_range_rejected(self, field, value):
        kwargs = {"rank_rel_tol": 1e-12, "psd_slack": 1e-10, "match_tol": 1e-10}
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            TolerancePolicy(**kwargs)

    def test_for_dimension_scales_with_n(self):
        small = TolerancePolicy.for_dimension(8)
        large = TolerancePolicy.for_dimension(64)
        assert large.rank_rel_tol == pytest.approx(8 * small.rank_rel_tol)

    def test_policy_threads_to_coarse_operator(self):
        h = build_hierarchy(neumann_laplacian_1d(8),
                            aggregation_prolongation(8, 2), WeightedJacobi(0.5))
        assert h.Ac.policy is h.A.policy


def test_inconsistent_ranks_rejected_by_analysis():
    # a hierarchy forged with a coarse rank above the fine rank must be
    # caught by the spectral-position guard instead of mis-indexing
    a = spsd_certify(random_spsd(6, 1, 0), TolerancePolicy.for_dimension(6))
    p = aggregation_prolongation(6, 2)
    m = build_smoother(WeightedJacobi(0.25), a)
    forged = TwoGridHierarchy(A=a, M=m, P=p,
                              Ac=spsd_certify(np.eye(3), a.policy))
    assert (forged.r, forged.s) == (1, 3)
    with pytest.raises(ShapeError, match="inconsistent"):
        sigma_tg(forged)
