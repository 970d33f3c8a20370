"""Minimax rate-distortion bounds and coding simulation for remote sources
observed through an adversarially jammed two-output channel."""

__version__ = "0.1.0"

from .errors import (
    AvrsError,
    ConfigurationError,
    EnumerationTooLargeError,
    InfeasibleDistortionError,
    NumericError,
    UsageError,
)
from .probability import entropy_bits, mutual_information_bits
from .mtypes import (
    TypeTable,
    is_typical,
    valid_jammer_types,
)
from .model import (
    AuxiliaryPolicy,
    ProblemSpec,
    load_policy,
    load_problem_spec,
)
from .games import BilinearGame, GameResult, solve_bilinear_game
from .bounds import (
    BoundReport,
    GridConfig,
    PerTypeRates,
    RateBoundSolver,
    compute_bound_report,
    per_type_rates,
)
from .adversary import (
    Jammer,
    deterministic_jammer,
    deterministic_jammer_family,
    sample_jamming,
    worst_case_search,
)
from .coding import (
    Codebook,
    CodebookFamily,
    CodingParams,
    SessionConfig,
    decode,
    encode,
    reconstruct,
    simulate_session,
    simulate_sessions,
)
from .derandomize import (
    Ensemble,
    certify_ensemble,
    sample_ensemble,
)
