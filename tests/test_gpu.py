"""Unit tests for GPU device models."""

import pytest

from repro.cluster.gpu import A100, GPUType, T4, V100


class TestGPUType:
    def test_v100_is_reference(self):
        assert V100.relative_compute == 1.0
        assert V100.memory_gb == 32

    def test_t4_is_one_third_of_v100(self):
        # §7.5: three loaned T4 servers ~ one V100 training server.
        assert T4.relative_compute == pytest.approx(1.0 / 3.0)

    def test_a100_faster_than_v100(self):
        assert A100.relative_compute > V100.relative_compute

    def test_rejects_nonpositive_memory(self):
        with pytest.raises(ValueError):
            GPUType(name="bad", memory_gb=0, relative_compute=1.0)

    def test_rejects_nonpositive_compute(self):
        with pytest.raises(ValueError):
            GPUType(name="bad", memory_gb=16, relative_compute=0.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            V100.memory_gb = 64  # type: ignore[misc]

    def test_hashable_for_dict_keys(self):
        assert len({V100: 1, T4: 2}) == 2
