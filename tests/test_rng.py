"""Tests for the counter-based generator.

The raw 64-bit outputs are pinned to the widely published reference
vectors for this mixing function, so any port producing these words will
reproduce every dataset and every random embedding bit for bit.
"""

import numpy as np
import pytest

from branchembed.rng import SplitMix64

# reference outputs for seeds 0 and 1234567
_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
_SEED1234567 = (6457827717110365317, 3203168211198807973,
                9817491932198370423)


class TestRawStream:
    @pytest.mark.parametrize("seed,expected",
                             [(0, _SEED0), (1234567, _SEED1234567)])
    def test_reference_vectors(self, seed, expected):
        got = SplitMix64(seed).uint64(3)
        assert tuple(int(v) for v in got) == expected

    def test_scalar_path_matches_bulk(self):
        bulk = SplitMix64(42).uint64(6)
        scalar = SplitMix64(42)
        assert [scalar.next_uint64() for _ in range(6)] == list(bulk)

    def test_seed_wraps_to_64_bits(self):
        a = SplitMix64((1 << 64) + 5).uint64(4)
        b = SplitMix64(5).uint64(4)
        assert np.array_equal(a, b)

    def test_counter_continues_across_calls(self):
        g = SplitMix64(9)
        first = list(g.uint64(2)) + list(g.uint64(2))
        assert first == list(SplitMix64(9).uint64(4))


class TestUniforms:
    def test_open_closed_unit_interval(self):
        u = SplitMix64(7).uniforms(100000)
        assert u.min() > 0.0
        assert u.max() <= 1.0

    def test_mean_near_half(self):
        u = SplitMix64(11).uniforms(200000)
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.002

    def test_scalar_matches_bulk(self):
        g = SplitMix64(3)
        bulk = SplitMix64(3).uniforms(5)
        assert [g.next_uniform() for _ in range(5)] == list(bulk)


class TestNormals:
    def test_moments(self):
        z = SplitMix64(8).normals(200000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
        assert abs(np.mean(z ** 3)) < 0.03

    def test_tail_mass(self):
        z = SplitMix64(13).normals(100000)
        beyond2 = np.mean(np.abs(z) > 2.0)
        assert beyond2 == pytest.approx(0.0455, abs=0.01)

    def test_odd_count_consumes_whole_pair(self):
        # an odd request still burns both halves of its last pair
        a = SplitMix64(21)
        a.normals(3)
        b = SplitMix64(21)
        b.normals(4)
        assert a.next_uint64() == b.next_uint64()

    def test_reproducible(self):
        assert np.array_equal(SplitMix64(5).normals(17),
                              SplitMix64(5).normals(17))

    @pytest.mark.parametrize("draw", ["uint64", "normals"])
    def test_rejects_negative_count(self, draw):
        gen = SplitMix64(5)
        with pytest.raises(ValueError, match="^count must be nonnegative$"):
            getattr(gen, draw)(-1)
        # The failed call drew nothing.
        assert gen.next_uint64() == SplitMix64(5).next_uint64()
