"""Configuration validation, derived quantities, serialization and presets."""

import json

import numpy as np
import pytest

from cfmcast import config
from cfmcast.config import _IS_TYPE, SystemConfig, preset
from cfmcast.errors import ConfigError
from cfmcast.evaluation import se_user

from conftest import small_config


class TestDerived:
    def test_noise_budget(self):
        # -174 dBm/Hz + 10 log10(20 MHz) + 7 dB = -93.99 dBm; the goldens pin this exact float
        assert config.NOISE_W == 3.9905246299377665e-13
        assert 10 * np.log10(config.NOISE_W) + 30 == pytest.approx(-93.99, abs=0.01)

    def test_prelog(self):
        # at SINR 1 the SE is the prelog itself
        assert config.TAU_C == 200
        for cfg in (SystemConfig(n_groups=30), small_config(tau_p=20)):
            assert se_user(np.ones(1), cfg.tau_p) == pytest.approx([0.9])

    def test_sum_convention_is_a_read_only_constant(self):
        cfg = small_config()
        assert cfg.sum_convention == "per_user"
        assert "sum_convention" not in cfg.to_dict()
        with pytest.raises(AttributeError):
            cfg.sum_convention = "per_group"


class TestValidation:
    def test_rejects_bad_frame(self):
        with pytest.raises(ConfigError, match="cannot exceed tau_c"):
            small_config(tau_p=config.TAU_C + 1)
        small_config(tau_p=config.TAU_C)

    def test_rejects_unknown_mode_and_precoder(self):
        # the service shape is n_groups alone; a config that still names a mode is rejected
        with pytest.raises(ConfigError):
            SystemConfig.from_dict({**small_config().to_dict(), "mode": "single"})
        with pytest.raises(ConfigError):
            small_config(precoder="zf")
        # every campaign samples the per-user sum SE; the former knob is an unknown key
        with pytest.raises(ConfigError, match="sum_convention"):
            SystemConfig.from_dict({**small_config().to_dict(), "sum_convention": "per_group"})
        with pytest.raises(ConfigError, match="sum_convention"):
            small_config().with_overrides(sum_convention="per_user")

    def test_subgroup_needs_count(self):
        for bad in (None, 0, 13):
            with pytest.raises(ConfigError):
                small_config(n_groups=bad)
        # the two ends are single multicast and unicast
        small_config(n_groups=1)
        small_config(n_groups=12)

    def test_clustered_consistency(self):
        for clusters in (5, 0, -3):
            with pytest.raises(ConfigError, match="must divide n_ms"):
                small_config(clusters=clusters, cluster_side_m=10.0)
        # a hotspot wider than half the area would leave no center to draw at side_m
        for side in (500.0, 0.0, -1.0):
            with pytest.raises(ConfigError, match="cluster_side_m in"):
                small_config(clusters=3, cluster_side_m=side)
        cfg = small_config(clusters=3, cluster_side_m=250.0)
        assert (cfg.clusters, cfg.cluster_side_m) == (3, 250.0)
        # the cluster size is n_ms // clusters; a config that still sets it is rejected
        data = {**small_config().to_dict(), "clusters": 3, "per_cluster": 4, "cluster_side_m": 10.0}
        with pytest.raises(ConfigError, match="per_cluster"):
            SystemConfig.from_dict(data)
        # the layout is uniform exactly when clusters is unset; each cluster field needs the other
        with pytest.raises(ConfigError, match="cluster_side_m in"):
            small_config(clusters=3)
        with pytest.raises(ConfigError, match="only with clusters"):
            small_config(cluster_side_m=10.0)

    def test_rejects_negative_seed(self):
        # SeedSequence takes only non-negative entropy; a negative seed would fail every snapshot
        for seed in (-1, -(2**40)):
            with pytest.raises(ConfigError, match="master_seed must be non-negative"):
                small_config(master_seed=seed)
        small_config(master_seed=0)
        small_config(master_seed=2**40)

    def test_every_field_annotation_has_a_type_check(self):
        # a field whose annotation _check_types cannot look up would escape the type check
        for f in SystemConfig.__dataclass_fields__.values():
            leading, _, rest = f.type.partition(" | ")
            assert leading in _IS_TYPE, f"{f.name}: {f.type}"
            assert rest in ("", "None"), f"{f.name}: {f.type}"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_groups", "4"),
            ("realizations", 8.5),
            ("n_aps", True),
            ("master_seed", 1.0),
            ("side_m", "500"),
            ("side_m", None),
            ("cluster_side_m", False),
            ("precoder", 1),
        ],
    )
    def test_rejects_wrong_types(self, field, value):
        with pytest.raises(ConfigError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize(
        "deployment",
        [
            {"clusters": 3.0, "cluster_side_m": 10.0},
            {"clusters": True, "cluster_side_m": 10.0},
            {"clusters": 3, "cluster_side_m": "10"},
            {"clusters": "3", "cluster_side_m": 10.0},
        ],
    )
    def test_rejects_wrong_deployment_types(self, deployment):
        data = {**small_config().to_dict(), **deployment}
        with pytest.raises(ConfigError, match="must be of type"):
            SystemConfig.from_dict(data)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
    @pytest.mark.parametrize("field", ["side_m", "cluster_side_m"])
    def test_rejects_non_finite_reals_in_json(self, tmp_path, field, value):
        # json writes and reads NaN, Infinity and -Infinity as floats
        data = small_config(clusters=3, cluster_side_m=10.0).to_dict()
        data[field] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            SystemConfig.from_json(path)

    def test_accepts_numpy_numbers(self):
        cfg = small_config(n_aps=np.int64(6), realizations=np.int32(40), side_m=np.float64(500.0))
        assert cfg.n_aps == 6

    def test_rejects_nonpositive_sizes(self):
        for field in ("n_aps", "n_ms", "snapshots", "realizations"):
            with pytest.raises(ConfigError):
                small_config(**{field: 0})


class TestSerialization:
    def test_round_trip(self):
        for cfg in (small_config(), small_config(clusters=3, cluster_side_m=10.0)):
            data = cfg.to_dict()
            # a flat JSON object: every value is a scalar, keyed by field name
            assert list(data) == list(SystemConfig.__dataclass_fields__)
            assert not any(isinstance(v, (dict, list)) for v in data.values())
            assert SystemConfig.from_dict(json.loads(json.dumps(data))) == cfg

    def test_unknown_key_rejected(self):
        data = small_config().to_dict()
        data["bandwith_hz"] = 1e6
        with pytest.raises(ConfigError):
            SystemConfig.from_dict(data)
        # the layout fields sit at the top level; the old nested object, or null, is an unknown key
        for deployment in ({"kind": "clustered", "clusters": 3, "cluster_side_m": 10.0}, None):
            data = {**small_config().to_dict(), "deployment": deployment}
            with pytest.raises(ConfigError, match="unknown config keys: \\['deployment'\\]"):
                SystemConfig.from_dict(data)

    @pytest.mark.parametrize(
        "key, old_default",
        [
            ("shadowing_std_db", 4.0),
            ("shadowing_decorrelation_m", 9.0),
            ("asd_deg", 15.0),
            ("ap_height_m", 10.0),
            ("ms_height_m", 1.5),
            ("noise_psd_dbm_hz", -174.0),
            ("noise_figure_db", 7.0),
            ("bandwidth_hz", 20e6),
        ],
    )
    def test_fixed_channel_model_keys_rejected(self, key, old_default):
        # the channel model is fixed in code; a config that still sets one of its values is rejected
        data = {**small_config().to_dict(), key: old_default}
        with pytest.raises(ConfigError, match=f"unknown config keys: \\['{key}'\\]"):
            SystemConfig.from_dict(data)

    @pytest.mark.parametrize(
        "key, old_default",
        [
            ("tau_c", 200),
            ("pilot_power_w", 0.1),
            ("dl_power_w", 0.2),
            ("group_power_w", 0.1),
            ("nu", None),
            ("kappa", 0.5),
        ],
    )
    def test_fixed_system_model_keys_rejected(self, key, old_default):
        # the frame length, power budgets and power-control exponents are fixed in code
        data = {**small_config().to_dict(), key: old_default}
        with pytest.raises(ConfigError, match=f"unknown config keys: \\['{key}'\\]"):
            SystemConfig.from_dict(data)

    def test_from_json(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert SystemConfig.from_json(path) == cfg

    def test_hash_tracks_semantics(self):
        a = small_config()
        b = small_config()
        c = small_config(master_seed=99)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 16

    def test_with_overrides(self):
        cfg = small_config()
        other = cfg.with_overrides(snapshots=9)
        assert other.snapshots == 9
        assert cfg.snapshots == 2

    def test_with_overrides_rejects_unknown_keys(self):
        # a key fixed in code, a read-only property and a typo, named like from_dict names them
        with pytest.raises(ConfigError, match="unknown config keys: \\['dl_power_w', 'pilot_power_w', 'snapshot'\\]"):
            small_config().with_overrides(pilot_power_w=0.1, dl_power_w=0.2, snapshot=3, realizations=9)


class TestPresets:
    def test_known_presets_construct(self):
        for name in ("fig2_100", "fig2_500", "fig3", "desk_uniform", "desk_clustered"):
            cfg = preset(name)
            assert isinstance(cfg, SystemConfig)

    def test_full_scale_preset(self):
        cfg = preset("fig2_100")
        assert cfg.n_aps == 100
        assert cfg.n_antennas == 4
        assert cfg.tau_p == 20
        assert cfg.side_m == pytest.approx(1000.0)

    def test_desk_preset_is_small(self):
        cfg = preset("desk_uniform")
        assert cfg.n_aps <= 30
        assert cfg.n_ms <= 50
        assert cfg.n_groups == cfg.n_ms

    def test_clustered_preset_layout(self):
        cfg = preset("desk_clustered")
        assert (cfg.clusters, cfg.cluster_side_m) == (4, 10.0)
        assert cfg.n_ms % cfg.clusters == 0
        assert preset("desk_uniform").clusters is None

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("fig9")
