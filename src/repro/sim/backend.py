"""Pluggable simulation backends.

The event core that advances a simulation is a *backend*: an object with
the same contract as :class:`~repro.sim.simulator.Simulator` (``run()``
plus a ``processed_events`` attribute), selected by name at
:meth:`System.run <repro.sim.system.System.run>` time.  Two backends ship
with the repository:

* ``"python"`` — the reference event loop in :mod:`repro.sim.simulator`
  (the default; unchanged behaviour).
* ``"turbo"`` — the accelerated core in :mod:`repro.sim.turbo`: one
  batch-stepped, fused event loop, precompiled flat timing tables, and
  request freelists.  Bit-identical results, substantially faster.

Selection precedence: an explicit ``SystemConfig.backend`` wins; otherwise
the ``REPRO_SIM_BACKEND`` environment variable; otherwise
:data:`DEFAULT_BACKEND`.  The environment hook exists so whole test and CI
runs can be flipped to another backend without touching configs — and it
propagates to the experiment engine's worker processes for free.

Backends are *physics-neutral* by contract: every backend must produce
bit-identical :meth:`SimulationResult.to_dict` output for the same
configuration and traces (enforced by ``tests/test_backend.py`` against
the pinned golden fixtures).  Because the backend never changes simulated
results, it is deliberately **excluded** from
:func:`repro.sim.config.config_digest` — the experiment engine's cache key
— so results computed by one backend are valid cache hits for another.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

#: Environment variable consulted when ``SystemConfig.backend`` is unset.
BACKEND_ENV_VAR = "REPRO_SIM_BACKEND"

#: Backend used when neither the config nor the environment selects one.
DEFAULT_BACKEND = "python"


@dataclass(frozen=True)
class SimulationBackend:
    """One registered simulation backend.

    ``factory(cores, controller, limits, telemetry)`` builds a simulator
    object exposing ``run() -> int`` (final core finish cycle) and an
    integer ``processed_events`` attribute, exactly like
    :class:`~repro.sim.simulator.Simulator`.
    """

    name: str
    factory: Callable
    description: str = ""

    def create(self, cores, controller, limits=None, telemetry=None):
        """Instantiate this backend's simulator for one run."""
        return self.factory(cores, controller, limits, telemetry=telemetry)


#: Registered backends by name, in registration order.
BACKEND_REGISTRY: dict[str, SimulationBackend] = {}


def register_backend(name: str, factory: Callable,
                     description: str = "") -> SimulationBackend:
    """Register a simulation backend (extension point).

    Mirrors :func:`repro.sim.config.register_configuration`: after
    registration the backend is selectable by name through
    ``SystemConfig.backend`` or :data:`BACKEND_ENV_VAR`.  Re-registering
    an existing name is rejected so backend identities stay stable.
    """
    if name in BACKEND_REGISTRY:
        raise ValueError(f"backend {name!r} is already registered")
    spec = SimulationBackend(name=name, factory=factory,
                             description=description)
    BACKEND_REGISTRY[name] = spec
    return spec


def backend_names() -> tuple[str, ...]:
    """Every registered backend name, in registration order."""
    return tuple(BACKEND_REGISTRY)


def resolve_backend(name: str | None = None) -> SimulationBackend:
    """Resolve a backend by name, environment, or default (in that order).

    ``name=None`` consults :data:`BACKEND_ENV_VAR`; an empty environment
    value falls through to :data:`DEFAULT_BACKEND`.  Unknown names raise a
    ``ValueError`` listing the registered choices.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    spec = BACKEND_REGISTRY.get(name)
    if spec is None:
        raise ValueError(f"unknown simulation backend {name!r}; choose one "
                         f"of {backend_names()}")
    return spec


def backend_build_info(name: str | None = None) -> dict:
    """How the resolved backend's code executes: interpreted or compiled.

    ``compiled`` is True when the turbo backend's module was imported
    from a compiled extension module instead of its Python source; the
    repository ships Python source only, so it reports False unless such
    an extension was built and installed separately.  The reference
    backend always reports False.  Bench reports record this flag so
    pinned numbers are attributable to a build mode.
    """
    spec = resolve_backend(name)
    compiled = False
    if spec.name == "turbo":
        from repro.sim import turbo
        compiled = turbo.__file__.endswith((".so", ".pyd"))
    return {"backend": spec.name, "compiled": compiled}


# ----------------------------------------------------------------------
# Built-in backends.
# ----------------------------------------------------------------------
def _python_factory(cores, controller, limits=None, telemetry=None):
    from repro.sim.simulator import Simulator
    return Simulator(cores, controller, limits, telemetry=telemetry)


def _turbo_factory(cores, controller, limits=None, telemetry=None):
    from repro.sim.turbo import TurboSimulator
    return TurboSimulator(cores, controller, limits, telemetry=telemetry)


register_backend(
    "python", _python_factory,
    description="reference event loop (repro.sim.simulator)")
register_backend(
    "turbo", _turbo_factory,
    description="batch-stepped, fused event core with precompiled "
                "timing tables (repro.sim.turbo); bit-identical, faster")
