from __future__ import annotations

import numpy as np
import pytest

from flowsteer.sampling import ball_points


class TestBallPoints:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_center_first_inside_distinct_and_seeded(self, d):
        center = np.linspace(-0.5, 1.0, d)
        pts = ball_points(center, 0.3, 200, seed=5)
        assert pts.shape == (200, d)
        assert np.array_equal(pts[0], center)
        assert np.all(np.linalg.norm(pts - center, axis=1) <= 0.3 * (1 + 1e-12))
        assert len(np.unique(pts, axis=0)) == 200
        assert np.array_equal(ball_points(center, 0.3, 200, seed=5), pts)
        assert not np.array_equal(ball_points(center, 0.3, 200, seed=6), pts)

    def test_one_point_is_the_center(self):
        assert np.array_equal(ball_points([1.0, 2.0, 3.0], 0.5, 1), [[1.0, 2.0, 3.0]])
