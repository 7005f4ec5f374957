"""Named backend fleets for the CLI, chaos harness and benchmarks.

``serve --backends <name>`` accepts either a JSON spec file or one of the
presets below — small, heterogeneous fleets built around the paper's
fitted MTurk model (``mturk_car_latency``: L(q) = 239 + 0.06 q) so the
routing tradeoffs are visible at workload scale:

* ``solo`` — one MTurk-shaped backend, unbounded, no faults: the same
  crowd a scheduler without ``--backends`` posts to.
* ``duo`` — a fast boutique platform with a small worker pool next to a
  slow bulk platform with a large one.
* ``trio`` — fast/balanced/cheap, each with its own capacity and price;
  the default fleet of ``benchmarks/bench_routing.py``.
* ``outage-trio`` — ``trio`` with circuit breakers armed and a sustained
  mid-run outage window on one backend: the failover demo (and the
  ``multibackend-outage`` chaos scenario's fleet).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.latency import LinearLatency, PowerLawLatency, mturk_car_latency
from repro.crowd.breaker import CircuitBreakerConfig
from repro.crowd.faults import FaultProfile
from repro.crowd.multibackend.spec import BackendSpec
from repro.errors import InvalidParameterError


def _solo() -> Tuple[BackendSpec, ...]:
    return (
        BackendSpec(name="mturk", latency=mturk_car_latency()),
    )


def _duo() -> Tuple[BackendSpec, ...]:
    return (
        BackendSpec(
            name="boutique",
            latency=LinearLatency(delta=120.0, alpha=0.25),
            capacity=120,
            price_per_question=0.04,
        ),
        BackendSpec(
            name="bulk",
            latency=LinearLatency(delta=400.0, alpha=0.02),
            capacity=2000,
            price_per_question=0.01,
        ),
    )


def _trio() -> Tuple[BackendSpec, ...]:
    return (
        BackendSpec(
            name="fast",
            latency=LinearLatency(delta=150.0, alpha=0.20),
            capacity=200,
            price_per_question=0.05,
        ),
        BackendSpec(
            name="balanced",
            latency=mturk_car_latency(),
            capacity=800,
            price_per_question=0.02,
        ),
        BackendSpec(
            name="cheap",
            latency=PowerLawLatency(delta=320.0, alpha=0.5, p=0.8),
            capacity=1500,
            price_per_question=0.005,
        ),
    )


def _outage_trio() -> Tuple[BackendSpec, ...]:
    breaker = CircuitBreakerConfig(
        failure_threshold=2, cooldown_seconds=3000.0, probe_successes=1
    )
    fast, balanced, cheap = _trio()
    # The balanced (default-route) backend goes dark mid-run: its breaker
    # trips and the router reroutes its share to the survivors.
    import dataclasses

    return (
        dataclasses.replace(fast, breaker=breaker),
        dataclasses.replace(
            balanced,
            breaker=breaker,
            fault_profile=FaultProfile(
                outage_window=(2000.0, 14000.0),
                outage_detection_time=300.0,
            ),
        ),
        dataclasses.replace(cheap, breaker=breaker),
    )


_PRESETS: Dict[str, object] = {
    "solo": _solo,
    "duo": _duo,
    "trio": _trio,
    "outage-trio": _outage_trio,
}


def available_backend_presets() -> List[str]:
    """Names accepted by :func:`backend_preset_by_name` (``--backends``)."""
    return sorted(_PRESETS)


def backend_preset_by_name(name: str) -> List[BackendSpec]:
    """Instantiate a named fleet preset.

    Raises:
        InvalidParameterError: for unknown names (the message lists the
            available ones).
    """
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown backend preset {name!r}; available: "
            f"{', '.join(available_backend_presets())}"
        ) from None
    return list(factory())


def resolve_backends(spec: str) -> List[BackendSpec]:
    """Resolve a ``--backends`` argument: preset name or JSON file path.

    Anything containing a path separator or ending in ``.json`` is
    treated as a file; everything else is a preset name.
    """
    from repro.crowd.multibackend.spec import load_backend_specs

    if spec.endswith(".json") or "/" in spec or "\\" in spec:
        return load_backend_specs(spec)
    return backend_preset_by_name(spec)
