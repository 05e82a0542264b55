"""Tests for the elastic substrate: the throughput scaling models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.elastic.throughput import (
    LINEAR,
    SUBLINEAR_20,
    ScalingModel,
    get_scaling_model,
)


class TestScalingModel:
    def test_linear_is_identity(self):
        for w in (1, 2, 8, 64):
            assert LINEAR.effective_workers(w) == w

    def test_sublinear_charges_added_workers(self):
        # §7.2: each added worker brings 20 % less throughput.
        assert SUBLINEAR_20.effective_workers(1) == 1.0
        assert SUBLINEAR_20.effective_workers(2) == pytest.approx(1.8)
        assert SUBLINEAR_20.effective_workers(6) == pytest.approx(5.0)

    def test_zero_and_one_fixed_points(self):
        model = ScalingModel("m", 0.37)
        assert model.effective_workers(0) == 0.0
        assert model.effective_workers(1) == 1.0

    def test_speedup(self):
        # six workers over two: 5.0 / 1.8 of the throughput
        assert SUBLINEAR_20.effective_workers(6) / (
            SUBLINEAR_20.effective_workers(2)
        ) == pytest.approx(5.0 / 1.8)
        assert LINEAR.effective_workers(4) / LINEAR.effective_workers(1) == 4

    def test_invalid_loss_rejected(self):
        with pytest.raises(ValueError):
            ScalingModel("bad", 1.0)
        with pytest.raises(ValueError):
            ScalingModel("bad", -0.1)

    def test_negative_workers_raise(self):
        with pytest.raises(ValueError):
            LINEAR.effective_workers(-1)

    def test_registry(self):
        assert get_scaling_model("linear") is LINEAR
        assert get_scaling_model("sublinear20") is SUBLINEAR_20
        with pytest.raises(KeyError):
            get_scaling_model("quadratic")

    @given(
        loss=st.floats(0.0, 0.99),
        workers=st.integers(1, 256),
    )
    @settings(max_examples=100, deadline=None)
    def test_efficiency_bounded(self, loss, workers):
        model = ScalingModel("p", loss)
        eff = model.effective_workers(workers) / workers
        assert 0 < eff <= 1.0
        # effective workers monotone in worker count
        assert model.effective_workers(workers + 1) > model.effective_workers(
            workers
        )
