"""Single-shot thermodynamic transition checks for block-diagonal states.

Energies in kT units, entropies in nats, zero probabilities kept. The
public surface re-exports the state algebra, the entropy/free-energy
family, curve-based transition decisions, the uniform-reference embedding,
catalyst construction and search, and explicit stochastic witnesses.
"""

from .catalysis import (
    SearchConfig,
    SearchResult,
    SmoothingRecord,
    TransitionVerdict,
    WorkQuantities,
    catalytic_possible,
    correlating_catalytic_possible,
    ctrump_possible,
    qubit_pair_catalyst,
    search_correlating_catalyst,
    shrinking_epsilon_demo,
    smooth_toward_gibbs,
    verify_correlating_transition,
    work_quantities,
)
from .embedding import (
    EmbeddingSpec,
    embed,
    embedding_identity_check,
    rational_gibbs,
    unembed,
)
from .entropies import (
    ALPHA_0,
    ALPHA_1,
    ALPHA_INF,
    ALPHA_NEG_INF,
    Alpha,
    AlphaProfile,
    default_alpha_grid,
    delta_f_sweep,
    free_energy_alpha,
    free_energy_gap,
    mutual_info_bound,
    renyi_divergence,
    renyi_entropy,
    total_correlation,
    work_bit_delta_f,
)
from .majorization import (
    ABOVE,
    BELOW,
    CROSSING,
    EQUAL,
    CurveComparison,
    LorenzCurve,
    lorenz,
    majorizes,
    thermal_lorenz,
    thermomajorizes,
)
from .states import (
    BlockState,
    Hamiltonian,
    JointCatalyst,
    gibbs_state,
    load_joint,
    load_state,
    marginal,
    product_joint,
    tensor,
    tensor_all,
)
from .witness import (
    StochasticWitness,
    find_witness,
    identity_witness,
    random_gibbs_stochastic,
)

__version__ = "0.1.0"
