"""Analysis layer: experiment harnesses (E1-E7) and figure renderers.

Every table and figure of the paper, plus every quantitative claim of
its §3/§4 discussion, has a harness here; the benchmark suite under
``benchmarks/`` is a thin wrapper that runs these and prints the rows.
"""

from repro.analysis.batch import (
    FleetResult,
    SeedResult,
    render_fleet,
    run_seed,
    run_seed_fleet,
)
from repro.analysis.chaos import (
    CHAOS_SCHEMA,
    run_chaos_scenario,
    run_chaos_sweep,
    validate_chaos,
)
from repro.analysis.render import (
    render_buscom_figure,
    render_conochi_figure,
    render_dynoc_figure,
    render_rmboc_figure,
)

__all__ = [
    "CHAOS_SCHEMA",
    "FleetResult",
    "SeedResult",
    "render_fleet",
    "run_seed",
    "run_seed_fleet",
    "run_chaos_scenario",
    "run_chaos_sweep",
    "validate_chaos",
    "render_buscom_figure",
    "render_conochi_figure",
    "render_dynoc_figure",
    "render_rmboc_figure",
]
