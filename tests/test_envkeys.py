"""The ``REPRO_*`` surface: one registry, one reader, one README table."""

import re
from pathlib import Path

import pytest

from repro.core import AegaeonConfig, RunSettings, SystemSpec
from repro.envkeys import (
    BUILD_KEYS,
    ENV_KEYS,
    FLEET_KEYS,
    RUN_KEYS,
    WORKLOAD_KEYS,
    format_env_table,
)
from repro.fleet import FleetConfig
from repro.policy import Tunables
from repro.workload.agentic import AgenticConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def small_spec() -> SystemSpec:
    return SystemSpec(
        config=AegaeonConfig(
            prefill_instances=1, decode_instances=1, cluster="h800-pair"
        )
    )


def test_readme_table_matches_registry():
    text = README.read_text()
    block = re.search(r"^\| Variable .*?(?=\n(?!\|))", text, re.M | re.S)
    assert block is not None, "README has no REPRO_* table"
    assert block.group(0) == format_env_table()


@pytest.mark.parametrize(
    "from_env, environ, key",
    [
        (FleetConfig.from_env, {"REPRO_FLEET_SHARDS": "four"}, "REPRO_FLEET_SHARDS"),
        (Tunables.from_env, {"REPRO_TUNE_QMAX": "x"}, "REPRO_TUNE_QMAX"),
        (RunSettings.from_env, {"REPRO_TUNE_QMAX": "x"}, "REPRO_TUNE_QMAX"),
        (RunSettings.from_env, {"REPRO_BENCH_SEED": "1.5"}, "REPRO_BENCH_SEED"),
        (AgenticConfig.from_env, {"REPRO_WORKLOAD_AGENTS": "many"}, "REPRO_WORKLOAD_AGENTS"),
        (FleetConfig.from_env, {"REPRO_FLEET_TICK": "2.5"}, "REPRO_FLEET_TICK"),
        (FleetConfig.from_env, {"REPRO_FLEET_SPILL_HOPS": "3"}, "REPRO_FLEET_SPILL_HOPS"),
        (
            FleetConfig.from_env,
            {"REPRO_FLEET_CONTROLLER": "off", "REPRO_FLEET_TICK": "2.5"},
            "REPRO_FLEET_TICK",
        ),
    ],
)
def test_bad_value_fails_at_from_env_naming_its_key(from_env, environ, key):
    with pytest.raises(ValueError, match=key):
        from_env(environ)


class TestInvariantsFlag:
    def test_one_arms_the_checker(self, monkeypatch):
        monkeypatch.setenv("REPRO_INVARIANTS", "1")
        assert small_spec().build().invariant_checker is not None

    @pytest.mark.parametrize("value", ["0", ""])
    def test_zero_or_empty_leaves_it_off(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_INVARIANTS", value)
        assert small_spec().build().invariant_checker is None

    def test_junk_value_raises_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_INVARIANTS", "yes")
        with pytest.raises(ValueError, match="REPRO_INVARIANTS"):
            small_spec().build()


def test_every_key_belongs_to_one_family():
    families = [RUN_KEYS, BUILD_KEYS, FLEET_KEYS, WORKLOAD_KEYS]
    keys = [key for family in families for key in family]
    assert sorted(keys) == sorted(ENV_KEYS)
