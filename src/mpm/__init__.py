"""lp-distances on finitely presented 1- and 2-parameter persistence modules.

Exact p-Wasserstein distances on barcodes, certified approximation of
the p-matching distance, label-distance upper bounds for the
p-presentation distance, and the cellular homology-presentation
pipeline (kernel bases, grade injections, the lifting construction).
"""

from .barcode import Bar, Barcode, parse_barcode, serialize_barcode
from .cellular import (FilteredComplex, KernelBasis, boundary_morphism,
                       grade_injections, homology_presentation, kernel_basis,
                       lift_presentations, parse_complex, serialize_complex)
from .errors import (ChainError, ComputationError, DataError, PairingError,
                     ParseError, SubdivisionLimitError)
from .field import F2, ColumnEchelon, PrimeField, column_rank, is_prime
from .fpm import parse_presentation, serialize_presentation
from .grades import (INF, Extended, Grade, PExp, as_pexp, format_rat,
                     grade_join, grade_leq, parse_pexp, rat,
                     vec_pnorm, vec_pnorm_power)
from .lines import (AdmissibleLine, LimitLine, barcode_along_line,
                    parse_line, push, restrict_presentation)
from .matchdist import (DistanceReport, LineParam, ParamBox,
                        approx_matching_distance, label_deviation,
                        line_of_param, local_bound, sampled_lower_bound)
from .onepar import NormalForm, barcode_of, reduce_to_normal_form
from .presentation import (Presentation, free_presentation, hilbert_dim,
                           labels, rank_invariant)
from .presdist import (BoundsReport, PairedPresentations, bounds,
                       chain_upper_bound, hilbert_spot_grid, label_distance,
                       label_distance_power, modules_agree, pad_and_pair)
from .wasserstein import (Matching, WassersteinResult, matching_cost,
                          matching_cost_power, wasserstein, wasserstein_full,
                          wasserstein_power)

__version__ = "0.1.0"
