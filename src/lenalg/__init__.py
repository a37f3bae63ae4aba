"""lenalg: exact structure-constant algebras and length-one certificates.

The package decides, over Q and small finite fields, whether a
finite-dimensional unital (not necessarily associative) algebra has length
one, producing certificates that re-verify independently; it also computes
lengths of generating sets, exact lengths of small finite-field algebras by
complete enumeration, and exact identity checks (associative, flexible,
Jordan, power-associative).
"""

__version__ = "0.1.0"

from .algebra import (
    Algebra,
    algebra,
    change_basis,
    complete_to_basis_with_one,
    find_identity,
    unital_hull,
)
from .constructors import (
    FIXTURES,
    fixture_names,
    make_bilinear_jordan,
    make_direct_sum_of_fields,
    make_fixture,
    make_matrix_algebra,
    symmetrized,
)
from .decide import (
    CharTwoWitness,
    LengthReport,
    OracleResult,
    SpecialBasisWitness,
    StepFail,
    ViolationWitness,
    canonicalize,
    char2_decide,
    decide_length_one,
    oracle_length_one,
    special_step,
    square_step,
    verify_certificate,
    verify_char2_witness,
    verify_special_witness,
    verify_violation,
)
from .documents import (
    AlgebraDocument,
    parse_document,
    render_document,
    render_report,
    report_to_dict,
    verify_report_dict,
)
from .fields import (
    ExtensionField,
    Field,
    PrimeField,
    Rationals,
    make_field,
)
from .generate import (
    char2_table_from_params,
    generate_length_one,
    special_table_from_params,
)
from .identities import (
    IdentityVerdict,
    associative_law_holds,
    flexible_law_holds,
    is_associative,
    is_commutative,
    is_flexible,
    is_jordan,
    is_power_associative_upto,
    jordan_law_holds,
)
from .length import (
    AlgebraLengthResult,
    WordSpanSequence,
    enumerate_subspaces,
    gaussian_binomial,
    length_of_algebra,
    length_of_set,
    subalgebra_generated_by,
    word_spans,
)
from .linalg import BasisChange, Subspace, span
