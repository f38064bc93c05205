"""Wire format of sweep cells: JSON dicts <-> :class:`RunSpec`.

A submitted cell is a JSON object::

    {
      "workload": ["kernel", "tatas", "counter", [120, 0.02, false], [], true],
      "protocol": "MESI",
      "config":   {... every SystemConfig field ...},   # or "cores": 16
      "seed":     1,
      "max_events": 40000000
    }

``workload`` is the same nested-tuple descriptor
:func:`repro.harness.parallel.kernel_cell` / ``app_cell`` produce (JSON
coerces tuples to lists; :func:`spec_from_dict` coerces them back, and the
cache key is insensitive to the difference because ``json.dumps``
serializes tuples and lists identically).  ``config`` may be omitted in
favour of a bare ``cores`` count, in which case the paper configuration
for that core count is used — handy for handwritten ``curl`` payloads.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.config import (
    BackoffConfig,
    LatencyRange,
    ProtocolTuning,
    SystemConfig,
    config_for_cores,
)
from repro.harness.parallel import RunSpec, materialize_workload
from repro.harness.runner import DEFAULT_MAX_EVENTS
from repro.protocols.registry import protocol_names, unknown_protocol_error


def tuplify(value):
    """Recursively coerce JSON lists back into the tuples descriptors use."""
    if isinstance(value, (list, tuple)):
        return tuple(tuplify(item) for item in value)
    return value


def config_from_dict(payload: dict) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from its ``dataclasses.asdict`` form."""
    data = dict(payload)
    for name in ("l2_hit_latency", "remote_l1_latency", "memory_latency"):
        if isinstance(data.get(name), dict):
            data[name] = LatencyRange(**data[name])
    if isinstance(data.get("backoff"), dict):
        data["backoff"] = BackoffConfig(**data["backoff"])
    if isinstance(data.get("tuning"), dict):
        data["tuning"] = ProtocolTuning(**data["tuning"])
    return SystemConfig(**data)


def spec_from_dict(payload: dict) -> RunSpec:
    """Parse one submitted cell; raises ``ValueError`` on a malformed one."""
    if not isinstance(payload, dict):
        raise ValueError(f"cell must be an object, got {type(payload).__name__}")
    try:
        workload = tuplify(payload["workload"])
        protocol = payload["protocol"]
    except KeyError as exc:
        raise ValueError(f"cell is missing required field {exc.args[0]!r}") from None
    if not isinstance(workload, tuple) or not workload:
        raise ValueError("cell 'workload' must be a non-empty descriptor list")
    try:
        # Materialize now (nothing is built yet, so it is cheap): an
        # unknown kernel/app or a malformed descriptor is then a 400
        # instead of a cell that raises in the worker on every retry.
        materialize_workload(workload)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise ValueError(
            f"cell 'workload' {workload!r} is not runnable: "
            f"{type(exc).__name__}: {exc}"
        ) from None
    if not isinstance(protocol, str):
        raise ValueError("cell 'protocol' must be a string")
    if protocol not in protocol_names():
        raise unknown_protocol_error(protocol)
    try:
        if payload.get("config") is not None:
            config = config_from_dict(payload["config"])
        else:
            config = config_for_cores(int(payload.get("cores", 16)))
        seed = int(payload.get("seed", 0))
        max_events = payload.get("max_events", DEFAULT_MAX_EVENTS)
        if max_events is not None:
            max_events = int(max_events)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed cell: {exc}") from None
    if max_events is not None and max_events < 1:
        raise ValueError(f"cell 'max_events' must be >= 1, got {max_events}")
    return RunSpec(workload, protocol, config, seed=seed, max_events=max_events)


def spec_to_dict(spec: RunSpec) -> dict:
    """The JSON form of one cell (inverse of :func:`spec_from_dict`)."""
    return {
        "workload": spec.workload,
        "protocol": spec.protocol,
        "config": asdict(spec.config),
        "seed": spec.seed,
        "max_events": spec.max_events,
    }


def describe_workload(descriptor: tuple) -> str:
    """Short human label for a workload descriptor (job-status payloads)."""
    kind = descriptor[0] if descriptor else "?"
    if kind == "kernel" and len(descriptor) >= 3:
        return f"{descriptor[1]}/{descriptor[2]}"
    if kind in ("app", "app_selfinv") and len(descriptor) >= 2:
        return f"app/{descriptor[1]}"
    return "/".join(str(part) for part in descriptor[:3])
