"""duffinglab: numerical laboratory for resonant Duffing oscillators."""

__version__ = "0.1.0"

from .functions import (  # noqa: F401
    AlgebraicTail,
    Arctan,
    Constant,
    DuffingSystem,
    Rational1,
    Scaled,
    Sum,
    TrigPoly,
    make_system,
    system_from_config,
    system_to_config,
)
from .actionangle import PhaseState  # noqa: F401
from .conditions import lazer_leach_report, classify_theorem  # noqa: F401
from .dynamics import (  # noqa: F401
    classify_orbit,
    integrate,
    orbit,
    sweep,
)
from .harness import (  # noqa: F401
    ExperimentConfig,
    list_scenarios,
    parse_config,
    run,
    run_scenario,
)
