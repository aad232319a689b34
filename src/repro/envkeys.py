"""The unified ``REPRO_*`` environment-variable surface.

Every knob the harness reads from the environment is declared here, and
every value is parsed here: each key maps to the config field it sets
and the parser that casts and validates it, grouped into one family per
consumer (:class:`~repro.core.RunSettings`, :class:`~repro.fleet.FleetConfig`,
:class:`~repro.workload.agentic.AgenticConfig`,
:class:`~repro.policy.Tunables`).  :func:`read_env` is the one reader: a
malformed value raises :class:`ValueError` naming its key when the
config is resolved, never mid-run.  An unrecognized ``REPRO_*`` key is
flagged with the *nearest* valid key (a typo'd knob silently doing
nothing is worse than noise), and the README's key table is generated
rather than hand-maintained::

    PYTHONPATH=src python -m repro.envkeys   # prints the markdown table

The ``REPRO_TUNE_<FIELD>`` family is derived from the fields of
:class:`repro.policy.tunables.Tunables`, so new tunables are covered
automatically.
"""

from __future__ import annotations

import difflib
import os
import warnings
from dataclasses import fields
from typing import Any, Callable, Mapping, Optional

from .obs.config import ObsConfig
from .policy.tunables import Tunables

__all__ = [
    "ENV_KEYS",
    "OBS_KEYS",
    "RUN_KEYS",
    "BUILD_KEYS",
    "FLEET_KEYS",
    "WORKLOAD_KEYS",
    "TUNE_KEYS",
    "read_env",
    "known_env_keys",
    "suggest_env_key",
    "warn_unknown_env_keys",
    "format_env_table",
]

#: Every exact REPRO_* key the harness understands, with the one-line
#: description the generated README table carries.
ENV_KEYS: dict[str, str] = {
    "REPRO_BENCH_HORIZON": "Simulated seconds of trace per bench run (default 150).",
    "REPRO_BENCH_SCALE": "Multiplier on benchmark parameter grids (default 1.0).",
    "REPRO_BENCH_SEED": "Workload seed for benches and smoke runs (default 2025).",
    "REPRO_OBS": "Observability level: `off`, `metrics`, or `full`.",
    "REPRO_POLICIES": "Policy bundle name steering builds (e.g. `aegaeon-slo-admission`).",
    "REPRO_INVARIANTS": "Set to `1` to arm the runtime InvariantChecker in every build.",
    "REPRO_FLEET_SHARDS": "Shard count for `FleetConfig.from_env` (default 4).",
    "REPRO_FLEET_VIRTUAL_NODES": "Consistent-hash vnodes per shard (default 64).",
    "REPRO_FLEET_CONTROLLER": "Fleet control policy: `static`, `forecast`, or empty/`off`.",
    "REPRO_FLEET_TICK": "Fleet controller tick interval in simulated seconds (default 5).",
    "REPRO_FLEET_SPILL_HOPS": "Max cross-shard spillover hops per rejected request (default 2).",
    "REPRO_WORKLOAD_SESSION_RATE": "Agentic session arrivals per second (default 0.2).",
    "REPRO_WORKLOAD_HORIZON": "Seconds of agentic session arrivals (default 120).",
    "REPRO_WORKLOAD_SEED": "Seed of the agentic DAG generator (default 0).",
    "REPRO_WORKLOAD_AGENTS": "Distinct agent variant groups in the workload (default 4).",
    "REPRO_WORKLOAD_MAX_STAGES": "Max stages per agentic session DAG (default 5).",
    "REPRO_WORKLOAD_MAX_FANOUT": "Max direct children of any DAG stage (default 2).",
    "REPRO_WORKLOAD_THINK_TIME": "Mean think time between dependent stages, seconds (default 0.2).",
}

_TUNE_DESCRIPTION = (
    "Override one `Tunables` field (e.g. `REPRO_TUNE_QMAX=2.0`); "
    "one key per field of `repro.policy.Tunables`."
)


# -- parsers: raw string -> typed value, ValueError on a bad one ---------------
#: ``REPRO_OBS`` level -> (metrics, full_trace).
_OBS_LEVELS = {
    "": (False, False),
    "off": (False, False),
    "metrics": (True, False),
    "trace": (True, True),
    "full": (True, True),
}


def _obs_level(raw: str) -> ObsConfig:
    level = raw.strip().lower()
    if level not in _OBS_LEVELS:
        raise ValueError(f"not one of {sorted(k for k in _OBS_LEVELS if k)}")
    metrics, full_trace = _OBS_LEVELS[level]
    return ObsConfig(metrics=metrics, full_trace=full_trace)


def _name_or_none(raw: str) -> Optional[str]:
    return raw.strip() or None


def _controller_policy(raw: str) -> Optional[str]:
    policy = raw.strip().lower()
    return None if policy in ("", "off") else policy


def _flag(raw: str) -> bool:
    value = raw.strip()
    if value not in ("", "0", "1"):
        raise ValueError("expected 1, 0 or empty")
    return value == "1"


# -- families: key -> (field, parser), one per consumer ------------------------
Family = Mapping[str, tuple[str, Callable[[str], Any]]]

#: ``REPRO_OBS`` alone (:meth:`repro.obs.ObsConfig.from_env`).
OBS_KEYS: Family = {"REPRO_OBS": ("obs", _obs_level)}

#: :class:`repro.core.RunSettings` (its ``tunables`` come from TUNE_KEYS).
RUN_KEYS: Family = {
    "REPRO_BENCH_HORIZON": ("horizon", float),
    "REPRO_BENCH_SCALE": ("scale", float),
    "REPRO_BENCH_SEED": ("seed", int),
    **OBS_KEYS,
    "REPRO_POLICIES": ("policies", _name_or_none),
}

#: Read by every serving-system build.
BUILD_KEYS: Family = {"REPRO_INVARIANTS": ("invariants", _flag)}

#: :class:`repro.fleet.FleetConfig` plus its controller's knobs.
FLEET_KEYS: Family = {
    "REPRO_FLEET_SHARDS": ("shards", int),
    "REPRO_FLEET_VIRTUAL_NODES": ("virtual_nodes", int),
    "REPRO_FLEET_CONTROLLER": ("controller", _controller_policy),
    "REPRO_FLEET_TICK": ("tick", float),
    "REPRO_FLEET_SPILL_HOPS": ("max_spill_hops", int),
}

#: :class:`repro.workload.agentic.AgenticConfig`.
WORKLOAD_KEYS: Family = {
    "REPRO_WORKLOAD_SESSION_RATE": ("session_rate", float),
    "REPRO_WORKLOAD_HORIZON": ("horizon", float),
    "REPRO_WORKLOAD_SEED": ("seed", int),
    "REPRO_WORKLOAD_AGENTS": ("agents", int),
    "REPRO_WORKLOAD_MAX_STAGES": ("max_stages", int),
    "REPRO_WORKLOAD_MAX_FANOUT": ("max_fanout", int),
    "REPRO_WORKLOAD_THINK_TIME": ("think_time", float),
}

#: :class:`repro.policy.Tunables`, one ``REPRO_TUNE_<FIELD>`` per field.
TUNE_KEYS: Family = {
    f"REPRO_TUNE_{spec.name.upper()}": (
        spec.name,
        int if spec.type in (int, "int") else float,
    )
    for spec in fields(Tunables)
}


# -- the reader ------------------------------------------------------------------
def read_env(
    family: Family, environ: Optional[Mapping[str, str]] = None
) -> dict[str, Any]:
    """``{field: parsed value}`` for every key of ``family`` set in ``environ``.

    ``environ`` defaults to ``os.environ``; unset keys are left out so
    the consuming config keeps its defaults.  A value its parser rejects
    raises :class:`ValueError` naming the key.
    """
    environ = os.environ if environ is None else environ
    values: dict[str, Any] = {}
    for key, (name, parse) in family.items():
        raw = environ.get(key)
        if raw is None:
            continue
        try:
            values[name] = parse(raw)
        except ValueError as exc:
            raise ValueError(f"{key}={raw!r}: {exc}") from None
    return values


def known_env_keys() -> dict[str, str]:
    """All recognized keys: the exact registry plus ``REPRO_TUNE_*``."""
    return {**ENV_KEYS, **dict.fromkeys(TUNE_KEYS, _TUNE_DESCRIPTION)}


def suggest_env_key(key: str) -> Optional[str]:
    """The nearest recognized key to a mistyped one, if any is close."""
    matches = difflib.get_close_matches(key, sorted(known_env_keys()), n=1)
    return matches[0] if matches else None


def warn_unknown_env_keys(
    environ: Optional[Mapping[str, str]] = None, *, stacklevel: int = 3
) -> None:
    """Flag every unrecognized ``REPRO_*`` key in ``environ``.

    Each warning names the nearest valid key when one is plausible, and
    points at this module's table for the full surface.
    """
    environ = os.environ if environ is None else environ
    known = known_env_keys()
    for key in environ:
        if not key.startswith("REPRO_") or key in known:
            continue
        suggestion = suggest_env_key(key)
        hint = f"; did you mean {suggestion!r}?" if suggestion else ""
        warnings.warn(
            f"unrecognized environment variable {key!r}{hint} "
            f"(run `python -m repro.envkeys` for the full REPRO_* table)",
            RuntimeWarning,
            stacklevel=stacklevel,
        )


def format_env_table() -> str:
    """The README's markdown table of every ``REPRO_*`` key."""
    rows = dict(ENV_KEYS)
    rows["REPRO_TUNE_<FIELD>"] = _TUNE_DESCRIPTION
    width = max(len(key) for key in rows)
    lines = [
        f"| {'Variable'.ljust(width)} | Meaning |",
        f"| {'-' * width} | ------- |",
    ]
    for key, description in rows.items():
        lines.append(f"| `{key}`".ljust(width + 4) + f" | {description} |")
    return "\n".join(lines)


if __name__ == "__main__":
    print(format_env_table())
