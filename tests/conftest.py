from __future__ import annotations

import numpy as np
import pytest

import flowsteer as fs


@pytest.fixture(scope="session")
def cellular():
    return fs.builtin_field("cellular")


@pytest.fixture(scope="session")
def rotation():
    return fs.builtin_field("rotation")


@pytest.fixture(scope="session")
def unit_constant():
    return fs.builtin_field("constant", c=[1.0, 0.0])


@pytest.fixture(scope="session")
def correction_nodes():
    """``nodes(V, res)``: the axes and the nodes W, stacked (n, ..., n, d), of
    the correction ``res`` of V, solved again at its chosen weight."""
    from flowsteer.correction import _grid_axes, _grid_points, _solve_correction
    from flowsteer.sampling import Box

    def nodes(V, res):
        box = Box(res.grid_meta["box_lo"], res.grid_meta["box_hi"])
        axes, _, length, lo, hi = _grid_axes(box, res.grid_meta["resolution"])
        vals = V.eval(_grid_points(axes)).T.reshape((V.dim,) + tuple(len(a) for a in axes))
        W, _, _ = _solve_correction(res.psi, box, axes, length, lo, hi, vals)
        return axes, np.stack(W, axis=-1)

    return nodes


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def write_yaml(path, text):
    path.write_text(text)
    return str(path)
