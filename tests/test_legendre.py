"""The Legendre functions on a batched pullback: each point of a batch gives
the single-point result bit for bit."""

import numpy as np
import pytest

from helpers import project, sample_points
from hessiometric import BUILTIN_NAMES, builtin
from hessiometric.submanifold import (dual_potential, legendre_invariance_residual,
                                      make_slice, pullback_metric)

SLICES = ([[0, 0, 1]], [[0, 1, 0]], [[1, 0, 0]],          # axis-aligned
          [[1, 1, 0]], [[0.3, 0.5, 1]], [[1, 2, -3]],     # oblique
          [[1, 0, 0], [0, 1, 1]])                         # two rows


def _in_index_order(a, b):
    """sum of a[i] * b[i], added term by term in index order"""
    return sum(x * y for x, y in zip(a, b))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_batch_gives_each_point_alone(name):
    # each point's sums z.grad and c.(B^+ grad) add their terms in index
    # order, alone or in a batch; BLAS's dot product may add them in another
    model, rng = builtin(name), np.random.default_rng(29)
    for B in SLICES:
        x0 = sample_points(name, 1, rng)[0]
        sl = make_slice(B, np.array(B, dtype=float) @ x0)
        xs = x0 + 0.4 * (sample_points(name, 40, rng) - x0)
        zs = np.array([project(sl, x) for x in xs])
        zs = zs[model.domain_check(sl.embed(zs))]
        assert len(zs) >= 20
        pb = pullback_metric(model, sl, zs)
        dp, residual = dual_potential(pb), legendre_invariance_residual(pb)
        assert dp.mismatch.dtype == bool and residual.shape == (len(zs),)
        for i, z in enumerate(zs):
            one = pullback_metric(model, sl, z)
            dp_one = dual_potential(one)
            assert type(dp_one.mismatch) is bool
            grad_x = model.potential_jet(one.x, order=1).gradient()
            assert dp_one.value == float(_in_index_order(z, one.gradient) - one.potential)
            assert dp_one.extensive_form == float(-_in_index_order(
                sl.constants, [_in_index_order(row, grad_x) for row in sl.trailing.T]))
            assert (dp_one.value, dp_one.extensive_form, dp_one.mismatch) == \
                (dp.value[i], dp.extensive_form[i], dp.mismatch[i])
            assert legendre_invariance_residual(one) == residual[i]
            assert one.gradient.tolist() == pb.gradient[i].tolist()
