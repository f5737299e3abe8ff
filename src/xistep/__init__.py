"""xistep: a two-colony generalized stepping stone toolkit built on the
coalescent dual — jump-chain simulation with migration and mutation, exact
rational moment systems, complete-monotonicity checks, and a machine
verification that the stationary process is not reversible."""

__version__ = "0.1.0"

from .moments import (HausdorffReport, MomentPolynomial, ScalarParams,
                      generator_on_monomial, hausdorff_check, order_indices,
                      solve_stationary, stationary_system)
from .partitions import (COLONY_1, COLONY_2, LabeledPartition,
                         enumerate_partitions, profile_of)
from .rationals import format_rational, parse_rational
from .reversibility import (F1_PROBE, F2_PROBE, S1_PROBE, T1_PROBE,
                            ReversibilityProbe, final_contradiction,
                            residual, residual_with_denominator,
                            verify_paper_factorizations)
from .setfun import (BaseMeasure, DyadicSet, MutationSpec, SetFunction,
                     TensorFunction)
from .simplex import (CollisionProfile, RateTable, SimplexAtom, XiMeasure,
                      build_rate_table, check_consistency, collision_rate)
# The Monte Carlo engine loads on first use (PEP 562), so that the exact
# commands never import it; `xistep.<name>` is the simulator's own object.
_SIMULATOR_EXPORTS = ("DualState", "McEstimate", "ModelParams", "StopRule",
                      "Trajectory", "estimate_Qt", "estimate_stationary",
                      "evaluate_dual", "genealogical_evaluate",
                      "initial_state", "replay", "run_until")


def __getattr__(name):
    if name in _SIMULATOR_EXPORTS:
        from . import simulator
        return getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SIMULATOR_EXPORTS))
