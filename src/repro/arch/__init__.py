"""The four surveyed communication architectures.

Each subpackage implements one architecture behind the common
:class:`~repro.arch.base.CommArchitecture` interface, so workloads,
metrics, and the comparison framework are architecture-agnostic.
"""

from typing import Any, Dict

from repro.arch.base import ArchPort, CommArchitecture, Message, MessageLog
from repro.sim.engine import SimError, Simulator

ARCHITECTURES = ("rmboc", "buscom", "dynoc", "conochi")
#: static §2.2 baselines (no reconfiguration support; experiment E10)
BASELINES = ("sharedbus", "staticmesh")


class VecSimulator(Simulator):
    """A :class:`Simulator` flagged ``vectorized``: the same kernel
    under the ``vec`` name that ``build_architecture(engine="vec")``
    still accepts."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.vectorized = True


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

    The architecture's builder makes its own Simulator (and its
    descriptive name) unless ``sim=`` passes one.  Extra keyword
    arguments are forwarded to the architecture's config (e.g.
    ``num_buses`` for the bus systems, ``mesh`` for DyNoC, ``grid``
    for CoNoChi).
    """
    key = name.lower().replace("-", "").replace("_", "")
    # ``engine`` ("object" or "vec": the same kernel either way) is kept
    # only for the benchmark: perfbench/workloads.py and
    # perfbench/test_perfbench.py are its only callers.
    if engine is not None:
        if "sim" in kwargs:
            raise ValueError("pass either engine= or sim=, not both")
        kind = engine.strip().lower()
        if kind not in ("object", "vec"):
            raise SimError(f"unknown engine {engine!r}: expected one of "
                           f"object, vec")
        kwargs["sim"] = (VecSimulator if kind == "vec" else Simulator)(
            name=key)
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
