"""Power-basis indices, obstruction certificates, and density experiments
for pure and trinomial number fields.

The public surface is re-exported here; the modules group as follows:

- `arith`: primes, factorization, valuations, power-residue tests
- `orders`: exact equation-order arithmetic and saturation
- `purefield`: x^n - m specializations and the index g(m)
- `obstruction`: obstruction primes P_g, certificates, local coset checks
- `experiments`: density scans, Mertens sums, log-power fits
- `families`: trinomial, twisted, thin, and general scaled families
"""

import os
import sys

# numpy's OpenBLAS starts a worker thread at import, which busy-waits, and the
# library does no float linear algebra that a second thread would speed up; a
# value set by the caller, or a numpy imported first, is left alone
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .arith import (
    Factorization,
    factorize,
    is_nth_power_residue,
    is_squarefree,
    mod_pow,
    perfect_power_decompose,
    prime_sieve,
    vp,
)
from .errors import (
    AmbiguousSnapError,
    ConsistencyError,
    ContainmentError,
    FactorizationError,
    NotClosedError,
)
from .experiments import (
    AlphaDensityReport,
    Checkpoints,
    ExceptionalScanReport,
    FitResult,
    MertensReport,
    alpha_density,
    exceptional_scan,
    logpower_fit,
    mertens_sum,
    pg_free_counts,
)
from .families import (
    ScaledFamily,
    TrinomialData,
    eisenstein_at,
    euler_product_S,
    in_T_hsf,
    in_Tn,
    rho_ell2,
    scaled_family_scan,
    thin_Pn_member,
    thin_family_check,
    trinomial_data,
    trinomial_monogenic_check,
    twist_index_check,
)
from .obstruction import (
    KummerData,
    ObstructionCertificate,
    obstruction_certificate,
    enumerate_Pg,
    estimate_delta,
    in_Pg,
    kummer_data,
    local_coset_check,
)
from .orders import (
    EquationOrder,
    MonicPolynomial,
    equation_order_index,
    index_form_value,
    multiplication_table,
    order_disc,
    order_index,
    p_saturate,
    poly_disc_resultant,
)
from .purefield import (
    PureFieldInvariants,
    PureFieldParams,
    alpha_monogenic,
    binomial_irreducible,
    pure_index,
    pure_maximal_order,
    pure_power_disc,
)

__version__ = "0.1.0"
