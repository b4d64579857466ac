"""Geometric Fourier transforms over Clifford algebras Cl(p,q).

The package provides a dense real-coefficient multivector type, closed
form exponentials of imaginary multivectors, commutativity splits, a
configurable two-sided discrete transform, and executable checks for
its algebraic identities.
"""

from .algebra import (
    MAX_DIMENSION,
    Multivector,
    NotInvertible,
    Signature,
    gp_many,
    pseudoscalar,
    square_scalar_signs,
)
from .commsplit import (
    MAX_GENERATORS,
    SplitIndex,
    shift_exponential_terms,
    split_multi,
)
from .exponential import (
    NotImaginary,
    exp_imag,
    exp_neg_many,
)
from .fileio import (
    FileFormatError,
    GridFile,
    format_multivector_expr,
    parse_multivector_expr,
    read_grid_file,
    read_kernels,
    read_ppm,
    write_field,
    write_kernels,
    write_spectrum,
)
from .kernels import (
    GftSpec,
    KernelMatrix,
    NotSeparable,
    UnsupportedSignature,
    is_separable,
    negate,
    parse_preset,
    preset,
    side_directions,
)
from .theorems import (
    OffGridShift,
    TheoremReport,
    UnsupportedScale,
    check_existence_bound,
    check_left_product,
    check_linearity,
    check_right_product,
    check_scaling,
    check_shift,
)
from .transform import (
    FreqGrid,
    Plan,
    SampledField,
    Spectrum,
    default_freqs,
    dft_complex_oracle,
    gft,
    gft_at,
    gft_direct,
    plan,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_DIMENSION",
    "MAX_GENERATORS",
    "FileFormatError",
    "FreqGrid",
    "GftSpec",
    "GridFile",
    "KernelMatrix",
    "Multivector",
    "NotImaginary",
    "NotInvertible",
    "NotSeparable",
    "OffGridShift",
    "Plan",
    "SampledField",
    "Signature",
    "Spectrum",
    "SplitIndex",
    "TheoremReport",
    "UnsupportedScale",
    "UnsupportedSignature",
    "check_existence_bound",
    "check_left_product",
    "check_linearity",
    "check_right_product",
    "check_scaling",
    "check_shift",
    "default_freqs",
    "dft_complex_oracle",
    "exp_imag",
    "exp_neg_many",
    "format_multivector_expr",
    "gft",
    "gft_at",
    "gft_direct",
    "gp_many",
    "is_separable",
    "negate",
    "parse_multivector_expr",
    "parse_preset",
    "plan",
    "preset",
    "pseudoscalar",
    "read_grid_file",
    "read_kernels",
    "read_ppm",
    "shift_exponential_terms",
    "side_directions",
    "split_multi",
    "square_scalar_signs",
    "write_field",
    "write_kernels",
    "write_spectrum",
    "__version__",
]
