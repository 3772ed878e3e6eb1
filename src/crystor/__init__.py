"""Exact computation of maximal 1-crystalline torsion submodules, Néron
component groups, and the finite-level comparison identities for totally
degenerate semistable abelian varieties over a p-adic field, starting
from a symmetric positive-definite monodromy-pairing matrix with
symbolic unit parts."""

from importlib import import_module

from .abelian import (
    FinAbGroup,
    GroupHom,
    IntMatrix,
    SnfResult,
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

# the extension-class and pushout layers serve ``verify`` alone, so their
# names and modules load on first use (PEP 562), not with the package
_HOMES = {
    **dict.fromkeys(("ExtClass", "KummerClass", "baer_neg", "baer_sum",
                     "is_one_crystalline", "raynaud_split"), "kummer"),
    **dict.fromkeys(("ExtNuMorphism", "ExtNuObject", "check_mp_exactness",
                     "degeneration_object", "mp_pushout", "star_pullback"),
                    "pushout"),
}
_SUBMODULES = ("kummer", "pushout", "verify")


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    elif name in _HOMES:
        value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


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
