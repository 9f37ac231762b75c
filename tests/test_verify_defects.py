"""Defects injected into ``verify.Pipeline``, each caught by a named check."""

import dataclasses

import numpy as np

from apwalks import verify


class _ScaledColumnPipeline(verify.Pipeline):
    """W_j with its heaviest column, by return weight W[j, g], scaled by 1 + 1e-9."""

    def projections(self, g, j):
        p = super().projections(g, j)
        weights = p.weights.copy()
        weights[:, int(np.argmax(p.weights[j - 1]))] *= 1.0 + 1e-9
        return dataclasses.replace(p, weights=weights)


def test_unitarity_check_sees_a_scaled_column_of_w():
    # The check reads the kernel's rows before the checks that would raise on
    # them, and the sum over modes it compares them with reads no W_j.
    assert verify.check_unitarity_stochasticity(verify.Pipeline(), 5).passed
    result = verify.check_unitarity_stochasticity(_ScaledColumnPipeline(), 5)
    assert not result.passed
    assert result.detail["max_deviation_over_tolerance"] > 1.0
