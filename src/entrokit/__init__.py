"""entrokit: enumerative type-class codec and entropy-concentration lab.

The codec realizes a constructive upper bound on description length: its
codeword length is the computable surrogate used everywhere a "shortest
program length" appears in the bounds.  True shortest-program length is
incomputable; this package never claims to compute it.
"""

from .coder import Bitstream, CodecParams, c_prime, codelength, decode, encode, log_star, paper_upper_bound
from .errors import EntrokitError, ValidationError
from .models import (
    Alphabet,
    BlockwiseModel,
    HMMModel,
    MarkovModel,
    SymbolSequence,
    conditional_law,
    load_model,
    model_from_dict,
    sample,
    sample_blockwise,
    sample_paths,
    stationary_distribution,
)
from .typeclass import BlockFrequencyVector, block_frequencies, rank_in_type_class, type_class_size, unrank

__version__ = "0.1.0"

from .analytics import (  # noqa: E402  (depends on models)
    alpha_mixing_bounds,
    check_clt_conditions,
    entropy_rate,
    mixing_profile,
    nu_delta,
    phi_bruteforce,
    phi_mixing,
    phi_sequence,
    sigma_squared,
)
from .stability import (  # noqa: E402
    bound_concentration1,
    bound_concentration2,
    compute_constants,
    delta_coefficients,
    m_stability,
    phi_prime_matrix,
)
from .experiments import (  # noqa: E402
    empirical_entropy,
    ks_statistic,
    run_clt,
    run_concentration,
    run_example1,
)
