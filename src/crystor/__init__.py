"""Exact computation of maximal 1-crystalline torsion submodules, Néron
component groups, and the finite-level comparison identities for totally
degenerate semistable abelian varieties over a p-adic field, starting
from a symmetric positive-definite monodromy-pairing matrix with
symbolic unit parts."""

from .abelian import (
    FinAbGroup,
    GroupHom,
    IntMatrix,
    SnfResult,
    cokernel,
    enumerate_subgroups,
    is_exact,
    kernel_mod_n,
    n_torsion,
    p_primary_part,
    smith_normal_form,
)
from .crys import (
    Crys1Report,
    LesReport,
    TateReport,
    component_group,
    crys1_tate_module,
    crys1_torsion,
    les_report,
    oracle_crys1,
    phi_formula_check,
    phi_n,
    r1crys1_tors,
    tate_closed_form,
)
from .degen import (
    DegenerationData,
    monodromy_map,
    raynaud_decompose,
    torsion_module,
)
from .kummer import (
    ExtClass,
    KummerClass,
    baer_neg,
    baer_sum,
    is_one_crystalline,
    raynaud_split,
)
from .pushout import (
    ExtNuMorphism,
    ExtNuObject,
    check_mp_exactness,
    degeneration_object,
    mp_pushout,
    star_pullback,
)

__all__ = [
    "Crys1Report",
    "DegenerationData",
    "ExtClass",
    "ExtNuMorphism",
    "ExtNuObject",
    "FinAbGroup",
    "GroupHom",
    "IntMatrix",
    "KummerClass",
    "LesReport",
    "SnfResult",
    "TateReport",
    "baer_neg",
    "baer_sum",
    "check_mp_exactness",
    "cokernel",
    "component_group",
    "crys1_tate_module",
    "crys1_torsion",
    "degeneration_object",
    "enumerate_subgroups",
    "is_exact",
    "is_one_crystalline",
    "kernel_mod_n",
    "les_report",
    "monodromy_map",
    "mp_pushout",
    "n_torsion",
    "oracle_crys1",
    "p_primary_part",
    "phi_formula_check",
    "phi_n",
    "r1crys1_tors",
    "raynaud_decompose",
    "raynaud_split",
    "smith_normal_form",
    "star_pullback",
    "tate_closed_form",
    "torsion_module",
]
