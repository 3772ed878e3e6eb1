"""The invariant suite behind ``crystor verify``.

Each check compares two or more independent routes to the same answer
for one input file: kernels and torsion of the monodromy pairing, the
component-group formula, the order law, the star pullback against the
crys1 group and lattice, the oracle and the rank-one closed form where
they are affordable, the level tower, and the monodromy pushout's
functoriality and exactness on one level object.  Only ``verify``
reads the extension-class and pushout layers, so the command line
loads this module, and through it those layers, for that subcommand
alone.
"""

from __future__ import annotations

import random

from .abelian import IntMatrix, n_torsion, p_valuation
from .crys import (
    component_group,
    crys1_tate_module,
    crys1_torsion,
    les_report,
    oracle_crys1,
    phi_formula_check,
    tate_closed_form,
)
from .degen import DegenerationData
from .errors import ArtifactError, BadLevel
from .pushout import (
    ExtNuMorphism,
    check_mp_exactness,
    degeneration_object,
    middle_term_group,
    mp_hom,
    mp_presentation,
    star_pullback,
    sum_first_projection,
    sum_inclusion,
    sum_projection,
)
from .presentation import enum_budget, hnf_rows


def _matrix_poly(mat: IntMatrix, coeffs: list[int], n: int) -> IntMatrix:
    power = IntMatrix.identity(mat.rows)
    acc = (0,) * len(power.entries)
    for k, c in enumerate(coeffs):
        if k:
            power = power.mul(mat)
        acc = tuple((x + c * y) % n for x, y in zip(acc, power.entries))
    return IntMatrix(mat.rows, mat.cols, acc)


def _poly_endomorphism(obj, rng: random.Random) -> ExtNuMorphism:
    # polynomials in the monodromy matrix commute with it, so the same
    # matrix on both parts always satisfies the morphism square
    coeffs = [rng.randrange(obj.n) for _ in range(3)]
    mat = _matrix_poly(obj.nu.matrix, coeffs, obj.n)
    return ExtNuMorphism(obj, obj, mat, mat)


def _verify_checks(data: DegenerationData, max_m: int,
                   seed: int) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, detail: str = ""):
        checks.append((name, ok, detail if not ok else ""))

    if max_m < 1:
        raise BadLevel("torsion level exponent must be at least 1")
    p, t, mu = data.p, data.t, data.mu
    coker = component_group(data)
    oracle_space = min(1 << 12, enum_budget())

    for m in range(1, max_m + 1):
        n = p ** m
        level_obj = degeneration_object(data, m)
        if m == min(max_m, 2):
            obj = level_obj  # the pushout checks below reuse it
        sub, gens = star_pullback(level_obj)
        # three routes: the generic Smith form of mu mod p^m (the star
        # pullback's etale part), the local Smith form of mu and the
        # invariant factors of mu
        kernel_route = sub.etale_group
        local_route = data.local.kernel(m)[0]
        torsion_route = n_torsion(coker, n)
        add(f"kernel vs torsion routes at m={m}",
            kernel_route == local_route == torsion_route,
            f"{kernel_route} vs {local_route} vs {torsion_route}")
        quotient, agrees = phi_formula_check(data, m)
        add(f"component formula at m={m}", agrees,
            f"quotient {quotient}")
        rep = crys1_torsion(data, m)
        expected = n**t * torsion_route.order
        add(f"order law at m={m}", rep.group.order == expected,
            f"order {rep.group.order}, expected {expected}")
        # the paper's construction: the level object's presented and
        # class-route middle terms, the pulled-back object's presented
        # middle term, its class-route middle term and the crys1 group,
        # and the x-basis plus the lifted pullback generators as a lattice
        level_presented = mp_presentation(level_obj).group
        level_by_class = middle_term_group(level_obj)
        presented = mp_presentation(sub).group
        by_class = middle_term_group(sub)
        rows = [(0,) * t + g for g in gens]
        same_lattice = hnf_rows(rows, (1,) * t + (n,) * t) == rep.lattice()
        add(f"star pullback at m={m}",
            level_presented == level_by_class
            and presented == by_class == rep.group and same_lattice,
            f"level object presented {level_presented} vs class route "
            f"{level_by_class}, pullback presented {presented} vs class "
            f"route {by_class} vs crys1 {rep.group}, lattices "
            f"{'agree' if same_lattice else 'differ'}")
        if n ** t <= oracle_space:
            ora = oracle_crys1(data, m)
            add(f"oracle agreement at m={m}",
                ora.group == rep.group and ora.lattice() == rep.lattice(),
                f"oracle {ora.group} vs {rep.group}")
        if t == 1:
            closed = tate_closed_form(mu.entry(0, 0), p, m)
            add(f"closed form at m={m}",
                closed.group == rep.group
                and closed.lattice() == rep.lattice(),
                f"closed {closed.group} vs {rep.group}")

    cap = max(12, p_valuation(coker.exponent(), p) + 2)
    les = les_report(data, cap=cap)
    # the stable group (local Smith form), the p-primary part (invariant
    # factors) and the crys1-route quotient one level past the stable
    # group's exponent, which is Phi[p^top] and so the whole p-part
    stable = les.colimit_torsion
    top = p_valuation(stable.exponent(), p) + 1
    target = phi_formula_check(data, top)[0]
    add("r1 stabilization", stable == les.r1_torsion == target,
        f"local route {stable} vs p-primary part {les.r1_torsion} "
        f"vs crys1 quotient {target} at m={top}")
    add("long exact sequence", les.exact,
        f"flags {[lv.ok() for lv in les.levels]}")
    tate_rep = crys1_tate_module(data)
    add("tate module coherence", tate_rep.y_part_vanishes,
        f"a y-part survives at m={tate_rep.levels_checked}")

    def add_pushout(name: str, check) -> None:
        # a fault in the presentations raises inside the pushout layer;
        # it fails this check instead of aborting the report
        try:
            ok, detail = check()
        except ArtifactError as e:
            ok, detail = False, f"{e.identifier}: {e}"
        add(name, ok, detail)

    def functorial() -> tuple[bool, str]:
        rng = random.Random(seed)
        for _ in range(5):
            f = _poly_endomorphism(obj, rng)
            g = _poly_endomorphism(obj, rng)
            if mp_hom(g.compose(f)) != mp_hom(g).compose(mp_hom(f)):
                return False, "composite presentation map mismatch"
        return True, ""

    add_pushout(f"pushout functoriality (seed {seed})", functorial)
    inclusion = sum_inclusion(obj, obj)
    add_pushout("split triple exact", lambda: (
        check_mp_exactness(inclusion, sum_projection(obj, obj)), ""))
    add_pushout("broken triple rejected", lambda: (
        not check_mp_exactness(inclusion, sum_first_projection(obj, obj)), ""))
    return checks
