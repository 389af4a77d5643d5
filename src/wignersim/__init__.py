"""Exact simulation and consistency checking of encapsulated-observer experiments.

The package has three layers:

* dense labeled linear algebra (:mod:`wignersim.states`,
  :mod:`wignersim.registry`) and memory-entangling measurement channels
  (:mod:`wignersim.channels`),
* experiments and their exact outcome distributions under pluggable collapse
  models (:mod:`wignersim.experiment`, :mod:`wignersim.presets`,
  :mod:`wignersim.serialize`),
* the event/plot formalism and multi-agent deduction scenarios
  (:mod:`wignersim.storyplot`, :mod:`wignersim.deduction`).

The attribute ``wignersim.presets`` is the function :func:`presets` (the
name-to-builder map), which shadows the submodule of the same name; reach the
module with ``importlib.import_module("wignersim.presets")``.
"""

from .channels import (
    NO_COLLAPSE,
    OBJECTIVE_COLLAPSE,
    CollapseModel,
    Isometry,
    apply_isometry,
    branch_decomposition,
    build_measurement_isometry,
    build_preparation_isometry,
    collapse,
)
from .deduction import (
    ChainCycleError,
    ContradictionReport,
    DeductionChain,
    DeductionRule,
    build_deutsch_scenario,
    build_fr_scenario,
    certainty_deductions,
    chain,
)
from .experiment import (
    ConditionalTable,
    ExperimentSpec,
    JointDistribution,
    OutcomeAssignment,
    Step,
    conditional,
    conditional_table,
    conditional_via_renormalized_state,
    evolve,
    evolved_density,
    marginal,
    memory_state,
    post_select,
)
from .presets import deutsch_variant, frauchiger_renner, presets, wigner_friend
from .registry import Subsystem, SubsystemRegistry
from .serialize import (
    document_to_experiment,
    dumps_canonical,
    experiment_to_document,
    load_experiment,
)
from .states import (
    DensityMatrix,
    Projector,
    StateVector,
    ZeroProbabilityError,
    born_probability,
    partial_trace,
    projector_from_basis_vector,
    tensor,
)
from .storyplot import (
    CompatibilityVerdict,
    Deduced,
    Event,
    EventSetSchema,
    Plot,
    Slot,
    Value,
    WILDCARD,
    check_compatibility,
    make_event,
    plot_from_distribution,
)

__version__ = "0.1.0"
