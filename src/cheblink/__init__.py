"""Decomposition types of loops in finite covers, and Chebotarev-style
density statistics for periodic orbits of labeled shifts of finite type."""

from .permgroup import (
    ConjugacyClass,
    CosetAction,
    FiniteGroup,
    Permutation,
    Subgroup,
    all_subgroups,
    class_index,
    class_types,
    compose,
    conjugacy_classes,
    conjugates,
    cycle_type,
    generate_group,
    generated_set,
    group_file_data,
    load_group_file,
    parse_group_data,
    permutation_character,
    power_classes,
    powers,
)
from .freewords import (
    BraidWord,
    CyclicWord,
    GroupHom,
    Presentation,
    Word,
    abelianized_matrix,
    braid_presentation,
    cyclic_reduce,
    evaluate,
    load_hom_file,
    parse_braid,
    parse_hom_data,
    parse_word,
    reduce,
)
from .covers import (
    ArtinReport,
    BijectionReport,
    CoveringGraph,
    LiftResult,
    build_cover,
    decompose_loop,
    verify_artin,
    verify_component_bijection,
)
from .sft import (
    DensityReport,
    LabeledSFT,
    Orbit,
    RealizationReport,
    SftEdge,
    bundled_a5,
    chebotarev_report,
    enumerate_orbits,
    exact_counts,
    load_sft_file,
    orbit_list,
    parse_sft_data,
    primitive_counts,
    realization_check,
)
from .quotients import (
    GenericityResult,
    IntMatrix,
    SmithForm,
    generic_check,
    load_matrix_file,
    quotient_search,
    smith_normal_form,
)

__version__ = "0.1.0"
