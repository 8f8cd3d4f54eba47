"""Integer-storage kernels and ``QuantizedTable`` semantics."""

import numpy as np
import pytest

from repro.device.quantize import quantize_array
from repro.quant import (
    QuantizedTable,
    codes_bytes_per_row,
    decode_rows,
    encode_rows,
    pack_int4,
    unpack_int4,
)


class TestKernels:
    def test_int4_pack_roundtrip_even_and_odd(self, rng):
        for dim in (8, 7, 1):
            codes = rng.integers(-8, 8, (5, dim)).astype(np.int8)
            packed = pack_int4(codes)
            assert packed.shape == (5, -(-dim // 2))
            assert packed.dtype == np.uint8
            np.testing.assert_array_equal(unpack_int4(packed, dim), codes)

    def test_encode_decode_error_bound(self, rng):
        w = rng.normal(0, 0.05, (40, 16)).astype(np.float32)
        for bits in (8, 4):
            codes, scales = encode_rows(w, bits)
            back = decode_rows(codes, scales, bits, 16)
            assert (np.abs(back - w) <= scales[:, None] / 2 + 1e-7).all()

    def test_zero_rows_encode_to_zero(self):
        w = np.zeros((3, 8), dtype=np.float32)
        codes, scales = encode_rows(w, 8)
        assert not codes.any() and not scales.any()
        np.testing.assert_array_equal(decode_rows(codes, scales, 8, 8), w)

    def test_percentile_clipping_saturates_outliers(self, rng):
        w = rng.normal(0, 0.01, (4, 256)).astype(np.float32)
        w[:, 0] = 5.0  # one outlier per row stretches the absmax grid
        _, scales_abs = encode_rows(w, 8)
        codes, scales_clip = encode_rows(w, 8, percentile=95.0)
        assert (scales_clip < scales_abs).all()
        back = decode_rows(codes, scales_clip, 8, 256)
        # the outlier saturates at the grid edge; the bulk gets finer steps
        assert (np.abs(back[:, 1:] - w[:, 1:]).max()
                < np.abs(w[:, 0] - back[:, 0]).min())

    def test_codes_bytes_per_row(self):
        assert codes_bytes_per_row(64, 8) == 68
        assert codes_bytes_per_row(64, 4) == 36
        assert codes_bytes_per_row(7, 4) == 8  # ceil packing
        with pytest.raises(ValueError):
            codes_bytes_per_row(64, 7)


class TestQuantizedTable:
    def test_matches_per_row_quantize_array(self, rng):
        # Storage decode must be bit-identical to the Figure-4 simulation's
        # per-row path (one shared rounding contract).
        w = rng.normal(0, 0.05, (30, 17)).astype(np.float32)
        for bits in (8, 4):
            qt = QuantizedTable.from_dense(w, bits)
            np.testing.assert_array_equal(qt.dense(), quantize_array(w, bits, axis=0))

    def test_per_tensor_matches_quantize_array(self, rng):
        w = rng.normal(0, 1, (20, 3)).astype(np.float32)
        qt = QuantizedTable.from_dense(w, 8, per_row=False)
        np.testing.assert_array_equal(qt.dense(), quantize_array(w, 8))

    @pytest.mark.parametrize("per_row", [True, False])
    def test_single_row_vs_batched_bit_identity(self, rng, per_row):
        # dense() decodes a projection weight; gather() every other table
        w = rng.normal(0, 0.05, (25, 9)).astype(np.float32)
        for bits in (8, 4):
            qt = QuantizedTable.from_dense(w, bits, per_row=per_row)
            ids = np.array([0, 24, 7, 7, 13])
            batched = qt.gather(ids)
            for k, i in enumerate(ids):
                np.testing.assert_array_equal(batched[k], qt.row(int(i)))
            np.testing.assert_array_equal(batched, qt.dense()[ids])

    def test_storage_actually_shrinks(self, rng):
        w = rng.normal(0, 1, (100, 64)).astype(np.float32)
        q8 = QuantizedTable.from_dense(w, 8)
        q4 = QuantizedTable.from_dense(w, 4)
        assert q8.nbytes == 100 * (64 + 4)
        assert q4.nbytes == 100 * (32 + 4)
        assert q4.nbytes < q8.nbytes < w.nbytes / 3.5

    def test_rejects_bad_shapes_and_bits(self):
        with pytest.raises(ValueError):
            QuantizedTable.from_dense(np.zeros(5), 8)
        with pytest.raises(ValueError):
            QuantizedTable.from_dense(np.zeros((4, 4)), 2)
