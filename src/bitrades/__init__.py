"""Latin bitrades from finite groups and permutation triples."""

from .core import (
    Bitrade,
    GroupTriple,
    PartialLatinSquare,
    PermutationTriple,
    from_group,
    from_permutations,
    make_bitrade,
    roundtrip_check,
    separation_witness,
    triple_permutations,
)
from .errors import (
    BitradesError,
    ConsistencyError,
    GroupError,
    ParseError,
    ResourceCapError,
    ValidationError,
)
from .families import (
    FamilyInstance,
    FamilySpec,
    family_alt,
    family_from_spec,
    family_p3,
    family_pq,
    family_zp2,
    find_r,
    predicted_table,
)
from .groups import (
    AlternatingGroup,
    CyclicGroup,
    DirectProductGroup,
    Group,
    HeisenbergGroup,
    MetacyclicGroup,
    PermClosureGroup,
    Subgroup,
    SymmetricGroup,
    group_from_spec,
    parse_permutation,
)
from .properties import (
    PropertyResult,
    compute_report,
    group_orthogonal_criterion,
    group_thin_criterion,
    homogeneity,
    is_minimal,
    is_orthogonal,
    is_primary,
    is_separated,
    is_thin,
    pq_thin_predicate,
    pq_thin_solutions,
)
from .search import SearchRecord, bitrade_signature, search_triples
from .serialize import (
    bitrade_to_json,
    read_bitrade,
    render_bitrade,
    write_bitrade,
)

__version__ = "0.1.0"
