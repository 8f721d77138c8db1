"""RMBoC configuration tests."""

import pytest

from repro.arch.rmboc import RMBoCConfig


class TestValidation:
    def test_defaults_are_the_paper_scenario(self):
        cfg = RMBoCConfig()
        assert cfg.num_modules == 4
        assert cfg.num_buses == 4
        assert cfg.width == 32

    @pytest.mark.parametrize("kw", [
        {"num_modules": 1},
        {"num_buses": 0},
        {"width": 0},
        {"xp_proc_cycles": 0},
        {"retry_backoff": 0},
        {"channel_linger": -1},
    ])
    def test_invalid_raises(self, kw):
        with pytest.raises(ValueError):
            RMBoCConfig(**kw)

    @pytest.mark.parametrize("field, value", [
        # a negative NI budget never sends a REQUEST
        ("max_channels_per_module", -1),
        # set_channel_cap, which rolls a control action back to the
        # configured cap, accepts only 1..num_buses
        ("max_channels_per_module", 9),
        # bounded_backoff would return it: an immediate re-request
        ("fault_backoff_cap", -3),
    ])
    def test_unusable_cap_raises_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            RMBoCConfig(num_buses=4, **{field: value})


class TestDerived:
    def test_segments(self):
        assert RMBoCConfig(num_modules=4).num_segments == 3
        assert RMBoCConfig(num_modules=7).num_segments == 6

    def test_dmax_is_s_times_k(self):
        """§4.2: 'RMBoC supports a theoretical upper limit of
        d_max = s x k parallel communications'."""
        cfg = RMBoCConfig(num_modules=4, num_buses=4)
        assert cfg.theoretical_dmax == 12
        assert RMBoCConfig(num_modules=5, num_buses=2).theoretical_dmax == 8

    def test_min_setup_is_8(self):
        """Table 2: minimum of 8 cycles to set up a connection."""
        assert RMBoCConfig().min_setup_latency == 8

    def test_setup_formula(self):
        cfg = RMBoCConfig()
        assert [cfg.setup_latency(d) for d in (1, 2, 3)] == [8, 10, 12]

    def test_max_setup_is_2m_plus_4(self):
        for m in (4, 6, 10):
            cfg = RMBoCConfig(num_modules=m)
            assert cfg.max_setup_latency == 2 * m + 4

    def test_setup_distance_bounds(self):
        cfg = RMBoCConfig()
        with pytest.raises(ValueError):
            cfg.setup_latency(0)
        with pytest.raises(ValueError):
            cfg.setup_latency(4)

    def test_words(self):
        cfg = RMBoCConfig(width=32)
        assert cfg.words(4) == 1
        assert cfg.words(5) == 2
        assert cfg.words(64) == 16

    def test_channels_per_module_defaults_to_buses(self):
        assert RMBoCConfig(num_buses=3).channels_per_module == 3
        assert RMBoCConfig(max_channels_per_module=2).channels_per_module == 2
