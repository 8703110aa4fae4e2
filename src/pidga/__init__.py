"""pidga: GA-based PID auto-tuning for first-order-lag-plus-delay plants.

Closed-loop simulation runs on a second-order all-pass rational delay
approximation; the true delay validates it, through a closed-loop step
response with the delay as an exact sample shift and the exact loop-gain
margin of the delayed loop.  A real-coded genetic algorithm searches
(kd, kp, ki) inside bounds derived from the Ziegler-Nichols baseline,
minimizing one of five error-integral objectives.
"""

from .delay import DelayApprox, delayed_step_sim, dfr_delay, true_margin
from .experiment import (DEFAULT_DELAYS, ExperimentConfig, SweepReport,
                         SweepRow, derive_seed, emit_csv, evaluate_objective,
                         run_sweep, simulate_gains)
from .ga import (Chromosome, GaConfig, GaResult, arithmetic_crossover,
                 geometric_selection_probs, mutate, run_ga)
from .lti import (StepResponse, TransferFunction, closed_loop, open_loop,
                  pid_tf, poly_add, poly_mul, step_response)
from .metrics import (OBJECTIVES, PerformanceIndices, StandardMeasures,
                      fitness, indices, routh_stable, stability_margin,
                      standard_measures)
from .plots import emit_plots
from .tuners import (GeneBounds, PidGains, PlantFolpd, bounds_from_baseline,
                     ziegler_nichols)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_DELAYS", "Chromosome", "DelayApprox", "ExperimentConfig",
    "GaConfig", "GaResult", "GeneBounds", "OBJECTIVES", "PerformanceIndices",
    "PidGains", "PlantFolpd", "StandardMeasures", "StepResponse",
    "SweepReport", "SweepRow", "TransferFunction", "arithmetic_crossover",
    "bounds_from_baseline", "closed_loop", "delayed_step_sim", "derive_seed",
    "dfr_delay", "emit_csv", "emit_plots", "evaluate_objective", "fitness",
    "geometric_selection_probs", "indices", "mutate", "open_loop", "pid_tf",
    "poly_add", "poly_mul", "routh_stable", "run_ga", "run_sweep",
    "simulate_gains", "stability_margin", "standard_measures", "step_response",
    "true_margin", "ziegler_nichols",
]
