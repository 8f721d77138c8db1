"""The four surveyed communication architectures.

Each subpackage implements one architecture behind the common
:class:`~repro.arch.base.CommArchitecture` interface, so workloads,
metrics, and the comparison framework are architecture-agnostic.
"""

from typing import Any, Dict

from repro.arch.base import ArchPort, CommArchitecture, Message, MessageLog

ARCHITECTURES = ("rmboc", "buscom", "dynoc", "conochi")
#: static §2.2 baselines (no reconfiguration support; experiment E10)
BASELINES = ("sharedbus", "staticmesh")


def build_architecture(
    name: str,
    num_modules: int = 4,
    width: int = 32,
    seed: int = 1,
    engine: str = None,
    **kwargs: Any,
) -> CommArchitecture:
    """Construct an architecture with its own simulator and ``num_modules``
    attached hardware modules named ``m0`` .. ``m{n-1}``.

    ``engine`` selects the simulation backend (``"object"`` or
    ``"vec"``) — see :func:`repro.sim.vec.make_simulator`.  Without it
    the architecture's builder makes its own default Simulator (and
    its descriptive name).  Extra keyword arguments are forwarded to
    the architecture's config (e.g. ``num_buses`` for the bus systems,
    ``mesh`` for DyNoC, ``grid`` for CoNoChi).
    """
    key = name.lower().replace("-", "").replace("_", "")
    if engine is not None:
        if "sim" in kwargs:
            raise ValueError("pass either engine= or sim=, not both")
        from repro.sim.vec.engine import make_simulator

        kwargs["sim"] = make_simulator(name=key, engine=engine)
    if key == "rmboc":
        from repro.arch.rmboc import build_rmboc

        return build_rmboc(num_modules=num_modules, width=width, seed=seed, **kwargs)
    if key == "buscom":
        from repro.arch.buscom import build_buscom

        return build_buscom(num_modules=num_modules, width=width, seed=seed, **kwargs)
    if key == "dynoc":
        from repro.arch.dynoc import build_dynoc

        return build_dynoc(num_modules=num_modules, width=width, seed=seed, **kwargs)
    if key == "conochi":
        from repro.arch.conochi import build_conochi

        return build_conochi(num_modules=num_modules, width=width, seed=seed, **kwargs)
    if key == "sharedbus":
        from repro.arch.baselines import build_sharedbus

        return build_sharedbus(num_modules=num_modules, width=width,
                               seed=seed, **kwargs)
    if key == "staticmesh":
        from repro.arch.baselines import build_staticmesh

        return build_staticmesh(num_modules=num_modules, width=width,
                                seed=seed, **kwargs)
    raise KeyError(
        f"unknown architecture {name!r}; known: "
        f"{ARCHITECTURES + BASELINES}"
    )


def build_all(num_modules: int = 4, width: int = 32, seed: int = 1) -> Dict[str, CommArchitecture]:
    """One instance of each architecture under identical top-level config."""
    return {
        name: build_architecture(name, num_modules=num_modules, width=width, seed=seed)
        for name in ARCHITECTURES
    }


__all__ = [
    "ARCHITECTURES",
    "BASELINES",
    "ArchPort",
    "CommArchitecture",
    "Message",
    "MessageLog",
    "build_all",
    "build_architecture",
]
