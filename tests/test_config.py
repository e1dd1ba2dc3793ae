"""Configuration validation, derived quantities, serialization and presets."""

import json

import numpy as np
import pytest

from cfmcast.config import DeploymentSpec, SystemConfig, preset
from cfmcast.errors import ConfigError
from cfmcast.evaluation import se_user

from conftest import small_config


class TestDerived:
    def test_noise_budget(self):
        cfg = SystemConfig(n_groups=30)
        assert cfg.noise_dbm == pytest.approx(-93.99, abs=0.01)
        assert cfg.noise_w == pytest.approx(10 ** ((-93.99 - 30) / 10), rel=1e-3)

    def test_prelog(self):
        # at SINR 1 the SE is the prelog itself
        for cfg in (SystemConfig(n_groups=30), small_config(tau_p=10, tau_c=100)):
            assert se_user(np.ones(1), cfg.tau_p, cfg.tau_c) == pytest.approx([0.9])

    def test_resolved_nu_defaults(self):
        assert small_config(precoder="ipmmse").resolved_nu() == pytest.approx(-0.5)
        assert small_config(precoder="cb").resolved_nu() == pytest.approx(0.5)
        assert small_config(precoder="cb", nu=-1.0).resolved_nu() == pytest.approx(-1.0)


class TestValidation:
    def test_rejects_bad_frame(self):
        with pytest.raises(ConfigError):
            small_config(tau_p=300, tau_c=200)

    def test_rejects_unknown_mode_and_precoder(self):
        # the service shape is n_groups alone; a config that still names a mode is rejected
        with pytest.raises(ConfigError):
            SystemConfig.from_dict({**small_config().to_dict(), "mode": "single"})
        with pytest.raises(ConfigError):
            small_config(precoder="zf")
        with pytest.raises(ConfigError):
            small_config(sum_convention="per_stream")

    def test_subgroup_needs_count(self):
        for bad in (None, 0, 13):
            with pytest.raises(ConfigError):
                small_config(n_groups=bad)
        # the two ends are single multicast and unicast
        small_config(n_groups=1)
        small_config(n_groups=12)

    def test_clustered_consistency(self):
        with pytest.raises(ConfigError):
            small_config(
                deployment=DeploymentSpec(kind="clustered", clusters=5, cluster_side_m=10.0)
            )
        # a hotspot wider than half the area would leave no center to draw at side_m
        with pytest.raises(ConfigError):
            small_config(
                deployment=DeploymentSpec(kind="clustered", clusters=3, cluster_side_m=500.0)
            )
        small_config(
            deployment=DeploymentSpec(kind="clustered", clusters=3, cluster_side_m=250.0)
        )
        with pytest.raises(ConfigError):
            small_config(deployment=DeploymentSpec(kind="uniform", clusters=2))
        with pytest.raises(ConfigError):
            small_config(deployment=DeploymentSpec(kind="ring"))
        # the cluster size is n_ms // clusters; a config that still sets it is rejected
        data = small_config().to_dict()
        data["deployment"] = {"kind": "clustered", "clusters": 3, "per_cluster": 4, "cluster_side_m": 10.0}
        with pytest.raises(ConfigError):
            SystemConfig.from_dict(data)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_groups", "4"),
            ("realizations", 8.5),
            ("n_aps", True),
            ("master_seed", 1.0),
            ("dl_power_w", "0.2"),
            ("kappa", None),
            ("asd_deg", False),
            ("precoder", 1),
            ("sum_convention", None),
        ],
    )
    def test_rejects_wrong_types(self, field, value):
        with pytest.raises(ConfigError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize(
        "deployment",
        [
            {"kind": "clustered", "clusters": 3.0, "cluster_side_m": 10.0},
            {"kind": "clustered", "clusters": True, "cluster_side_m": 10.0},
            {"kind": "clustered", "clusters": 3, "cluster_side_m": "10"},
            {"kind": 1},
        ],
    )
    def test_rejects_wrong_deployment_types(self, deployment):
        data = {**small_config().to_dict(), "deployment": deployment}
        with pytest.raises(ConfigError):
            SystemConfig.from_dict(data)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
    @pytest.mark.parametrize("field", ["dl_power_w", "nu", "cluster_side_m"])
    def test_rejects_non_finite_reals_in_json(self, tmp_path, field, value):
        # json writes and reads NaN, Infinity and -Infinity as floats
        data = small_config(deployment=DeploymentSpec(kind="clustered", clusters=3, cluster_side_m=10.0)).to_dict()
        if field == "cluster_side_m":
            data["deployment"][field] = value
        else:
            data[field] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            SystemConfig.from_json(path)

    def test_accepts_numpy_numbers(self):
        cfg = small_config(n_aps=np.int64(6), realizations=np.int32(40), dl_power_w=np.float64(0.2))
        assert cfg.n_aps == 6

    def test_rejects_nonpositive_sizes(self):
        for field in ("n_aps", "n_ms", "snapshots", "realizations"):
            with pytest.raises(ConfigError):
                small_config(**{field: 0})


class TestSerialization:
    def test_round_trip(self):
        cfg = small_config(
            deployment=DeploymentSpec(kind="clustered", clusters=3, cluster_side_m=10.0)
        )
        again = SystemConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_key_rejected(self):
        data = small_config().to_dict()
        data["bandwith_hz"] = 1e6
        with pytest.raises(ConfigError):
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
        assert cfg.deployment.kind == "clustered"
        assert cfg.n_ms % cfg.deployment.clusters == 0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("fig9")
