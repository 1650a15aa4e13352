from dataclasses import FrozenInstanceError, fields, replace

import pytest

from relsim.engine import MAX_NODES
from relsim.errors import ConfigError
from relsim.scenario import ScenarioConfig, parse_config, parse_config_file


def test_empty_file_gives_all_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = parse_config(path)
    assert cfg == ScenarioConfig().validate()
    assert cfg.nodes == 50
    assert cfg.radio_range == 250.0
    assert cfg.flows == 10
    assert cfg.packet_rate == 4.0
    assert cfg.duration == 100.0


def test_ten_holes_among_fifty_nodes_accepted():
    cfg = parse_config(overrides={"blackholes": 10, "nodes": 50})
    assert cfg.blackholes == 10


def test_node_count_is_capped_below_the_other_rng_streams():
    """Node i draws from stream i, so a larger run would share a stream
    with a collusion group or the set-up."""
    assert ScenarioConfig(nodes=MAX_NODES).validate().nodes == MAX_NODES
    with pytest.raises(ConfigError, match=f"^nodes: at most {MAX_NODES}$"):
        ScenarioConfig(nodes=MAX_NODES + 1).validate()


def test_endpoints_must_stay_honest():
    with pytest.raises(ConfigError, match="blackholes"):
        parse_config(overrides={"blackholes": 49, "nodes": 50})


def test_colluding_pairs_count_toward_the_bound():
    parse_config(overrides={"nodes": 10, "blackholes": 2, "colluding_pairs": 3})
    with pytest.raises(ConfigError):
        parse_config(overrides={"nodes": 10, "blackholes": 3, "colluding_pairs": 3})


def test_seed_must_fit_in_64_bits():
    assert parse_config(overrides={"seed": 0}).seed == 0
    assert parse_config(overrides={"seed": 2**64 - 1}).seed == 2**64 - 1
    for seed in (2**64, -(2**64), -1):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(overrides={"seed": seed})


@pytest.mark.parametrize(
    "key", [f.name for f in fields(ScenarioConfig) if f.type == "float"]
)
def test_non_finite_floats_rejected(key):
    for raw in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match=f"^{key}: must be finite$"):
            parse_config(overrides={key: raw})
        with pytest.raises(ConfigError, match=f"^{key}: must be finite$"):
            ScenarioConfig(**{key: float(raw)}).validate()
    with pytest.raises(ConfigError, match=f"^{key}: must be finite$"):
        ScenarioConfig(**{key: 10**400}).validate()  # an int past the float range


@pytest.mark.parametrize(
    "key", [f.name for f in fields(ScenarioConfig) if f.type == "int"]
)
def test_non_integer_values_for_integer_fields_rejected(key):
    for value in (1.5, 2.0, True):
        with pytest.raises(ConfigError, match=f"^{key}: must be an integer$"):
            ScenarioConfig(**{key: value}).validate()


@pytest.mark.parametrize(
    "key", [f.name for f in fields(ScenarioConfig) if f.type == "float"]
)
def test_non_number_values_for_float_fields_rejected(key):
    for value in ("1", None, True):
        with pytest.raises(ConfigError, match=f"^{key}: must be a number$"):
            ScenarioConfig(**{key: value}).validate()


@pytest.mark.parametrize("key, overrides", [
    ("duration", {"duration": 1e303, "packet_rate": 1e-300}),
    ("packet_rate", {"duration": 1e300, "packet_rate": 1e10}),
    ("duration", {"duration": 10**308}),  # an int product past the float range
])
def test_finite_floats_whose_run_values_overflow_rejected(key, overrides):
    with pytest.raises(ConfigError, match=f"^{key}: must be finite "):
        ScenarioConfig(**overrides).validate()


def test_link_delay_below_one_microsecond_rejected():
    """A run rounds the delay and the jitter to the nearest microsecond, so
    0.4 us would simulate a 0 us link or a jitter-free one; zero jitter
    stays a legal setting."""
    assert ScenarioConfig(link_delay_ms=0.001).validate().link_delay_ms == 0.001
    for value in (0.0004, 0.000999, 0.0, -2.0):
        with pytest.raises(ConfigError, match="^link_delay_ms: must be at least 1 microsecond$"):
            ScenarioConfig(link_delay_ms=value).validate()
    for value in (0.0, 0.001, 0.0015):
        assert ScenarioConfig(link_jitter_ms=value).validate().link_jitter_ms == value
    for value in (0.0004, 0.000999, 1e-12):
        with pytest.raises(
            ConfigError, match="^link_jitter_ms: must be 0 or at least 1 microsecond$"
        ):
            ScenarioConfig(link_jitter_ms=value).validate()


def test_config_is_frozen():
    """A run reads its config as it goes, so no field may change under it;
    ``replace`` makes a changed copy."""
    cfg = ScenarioConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.k_r = 5
    assert (replace(cfg, k_r=5).k_r, cfg.k_r) == (5, 3)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("warp_speed = 9\n")
    with pytest.raises(ConfigError, match="warp_speed"):
        parse_config(path)


def test_error_names_the_offending_field():
    with pytest.raises(ConfigError, match="packet_rate"):
        parse_config(overrides={"packet_rate": 0})
    with pytest.raises(ConfigError, match="scheme"):
        parse_config(overrides={"scheme": "magic"})
    with pytest.raises(ConfigError, match="link_loss"):
        parse_config(overrides={"link_loss": 1.5})


@pytest.mark.parametrize("value", [["proposed"], {}, None])
def test_non_string_scheme_rejected(value):
    with pytest.raises(ConfigError, match="^scheme: must be one of "):
        ScenarioConfig(scheme=value).validate()


def test_file_format_comments_and_spacing(tmp_path):
    path = tmp_path / "full.cfg"
    path.write_text(
        """
        # comparison scenario
        nodes = 30
        scheme = baseline   # trailing comment
        colluding_pairs=2
        duration = 25.5
        """
    )
    cfg = parse_config(path)
    assert (cfg.nodes, cfg.scheme, cfg.colluding_pairs, cfg.duration) == (
        30, "baseline", 2, 25.5
    )


def test_flag_overrides_beat_file_values(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text("nodes = 30\nseed = 5\n")
    cfg = parse_config(path, overrides={"seed": "9"})
    assert (cfg.nodes, cfg.seed) == (30, 9)


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nodes = 30\njust words\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_file(path)


def test_unparseable_value_names_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nodes = plenty\n")
    with pytest.raises(ConfigError, match="nodes"):
        parse_config_file(path)
