"""Acceptance gate: the eight shipping criteria, zero tolerance.

Each test prints exactly one PASS/FAIL line (written past pytest's
capture so the line always lands in the log), checks structural
equality of invariant factors and generator spans, and enforces the
wall-clock budget.
"""

import random
import time

import pytest

from crystor.abelian import FinAbGroup, IntMatrix, n_torsion, p_primary_part
from crystor.crys import (
    component_group,
    crys1_torsion,
    oracle_crys1,
    phi_formula_check,
    r1crys1_tors,
    tate_closed_form,
)
from crystor.degen import DegenerationData
from crystor.errors import NotStabilized
from crystor.kummer import (
    ExtClass,
    KummerClass,
    baer_neg,
    baer_sum,
    is_one_crystalline,
    raynaud_split,
)
from crystor.presentation import GroupHom, kernel_mod_n
from crystor.pushout import (
    ExtNuObject,
    check_mp_exactness,
    degeneration_object,
    middle_term_group,
    mp_presentation,
    mp_pushout,
    sum_first_projection,
    sum_inclusion,
    sum_projection,
)

ORACLE_SPACE = 1 << 12


def _emit(capsys, num: int, name: str, ok: bool, elapsed: float,
          budget: float):
    line = (f"{'PASS' if ok and elapsed < budget else 'FAIL'} "
            f"criterion {num}: {name} ({elapsed:.2f}s, budget {budget:g}s)")
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line
    assert elapsed < budget, line


def _vp(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _levels(p: int, bound: int = 64):
    m = 1
    while p ** m <= bound:
        yield m, p ** m
        m += 1


def test_criterion_1_tate_closed_form(capsys):
    start = time.perf_counter()
    cases = 0
    ok = True
    for p in (2, 3, 5):
        for v in range(1, 13):
            data = DegenerationData(p, IntMatrix.from_rows([[v]]))
            for m in range(1, 7):
                direct = crys1_torsion(data, m)
                closed = tate_closed_form(v, p, m)
                cases += 1
                if (direct.group != closed.group
                        or direct.lattice() != closed.lattice()):
                    ok = False
    ok = ok and cases >= 216
    _emit(capsys, 1, f"tate closed form, {cases} cases",
          ok, time.perf_counter() - start, 1.0)


def test_criterion_2_kernel_vs_torsion(capsys, matrix_corpus):
    start = time.perf_counter()
    checked = 0
    ok = len(matrix_corpus) >= 200
    for data in matrix_corpus:
        coker = component_group(data)
        for m, n in _levels(data.p):
            kernel_route = kernel_mod_n(data.mu.mod(n), n)[0]
            local_route = data.local.kernel(m)[0]
            if not kernel_route == local_route == n_torsion(coker, n):
                ok = False
            checked += 1
    _emit(capsys, 2, f"kernel vs torsion routes, {checked} checks on "
             f"{len(matrix_corpus)} matrices",
          ok, time.perf_counter() - start, 10.0)


def test_criterion_3_finite_level_comparison(capsys, matrix_corpus):
    start = time.perf_counter()
    checked = 0
    ok = len(matrix_corpus) >= 200
    for data in matrix_corpus:
        for m, _ in _levels(data.p):
            if not phi_formula_check(data, m)[1]:
                ok = False
            checked += 1
    _emit(capsys, 3, f"finite-level comparison, {checked} checks",
          ok, time.perf_counter() - start, 10.0)


def test_criterion_4_oracle_equivalence(capsys, matrix_corpus):
    start = time.perf_counter()
    checked = 0
    ok = True
    for data in matrix_corpus:
        for m, n in _levels(data.p):
            if n ** data.t > ORACLE_SPACE:
                continue
            direct = crys1_torsion(data, m)
            oracle = oracle_crys1(data, m)
            if (direct.group != oracle.group
                    or direct.lattice() != oracle.lattice()):
                ok = False
            checked += 1
    ok = ok and checked > 0
    _emit(capsys, 4, f"oracle equivalence, {checked} checks",
          ok, time.perf_counter() - start, 60.0)


def test_criterion_5_stable_torsion(capsys, matrix_corpus):
    start = time.perf_counter()
    ok = len(matrix_corpus) >= 200
    for data in matrix_corpus:
        coker = component_group(data)
        cap = max(12, _vp(coker.exponent(), data.p) + 2)
        try:
            stable = r1crys1_tors(data, cap=cap)
        except NotStabilized:
            ok = False
            continue
        if stable != p_primary_part(coker, data.p):
            ok = False
    _emit(capsys, 5, f"stable torsion on {len(matrix_corpus)} matrices",
          ok, time.perf_counter() - start, 5.0)


def test_criterion_6_pushout_exactness(capsys, matrix_corpus):
    start = time.perf_counter()
    exact_count = 0
    broken_count = 0
    ok = True
    for data in matrix_corpus[:110]:
        obj = degeneration_object(data, 1)
        if check_mp_exactness(sum_inclusion(obj, obj),
                              sum_projection(obj, obj)):
            exact_count += 1
        else:
            ok = False
    for data in matrix_corpus[:12]:
        obj = degeneration_object(data, 1)
        # projecting back onto the first block makes the composite the
        # identity, so the middle kernel cannot match the image
        if not check_mp_exactness(sum_inclusion(obj, obj),
                                  sum_first_projection(obj, obj)):
            broken_count += 1
        else:
            ok = False
    ok = ok and exact_count >= 100 and broken_count >= 10
    _emit(capsys, 6, f"pushout exactness, {exact_count} exact + "
             f"{broken_count} broken triples",
          ok, time.perf_counter() - start, 10.0)


def _random_class(rng: random.Random, n: int, s: int, r: int) -> ExtClass:
    symbols = ("u", "w", "z")
    rows = []
    for _ in range(s):
        row = []
        for _ in range(r):
            units = tuple(
                (sym, rng.randrange(n))
                for sym in symbols if rng.random() < 0.5
            )
            row.append(KummerClass(n, rng.randrange(n), units))
        rows.append(tuple(row))
    return ExtClass(n, s, r, tuple(rows))


def test_criterion_7_baer_raynaud_algebra(capsys):
    start = time.perf_counter()
    rng = random.Random(7)
    classes = 0
    ok = True
    for _ in range(170):
        n = rng.choice((2, 3, 4, 5, 8, 9, 16, 25, 27))
        s, r = rng.randint(1, 3), rng.randint(1, 3)
        c = _random_class(rng, n, s, r)
        d = _random_class(rng, n, s, r)
        e = _random_class(rng, n, s, r)
        classes += 3
        zero = ExtClass.split(n, s, r)
        unit_part, val_part = raynaud_split(c)
        if baer_sum(unit_part, val_part) != c:
            ok = False
        if not is_one_crystalline(unit_part):
            ok = False
        if any(x.units for row in val_part.kappa for x in row):
            ok = False
        if baer_sum(c, zero) != c:
            ok = False
        if baer_sum(c, baer_neg(c)) != zero:
            ok = False
        if baer_sum(c, d) != baer_sum(d, c):
            ok = False
        if baer_sum(baer_sum(c, d), e) != baer_sum(c, baer_sum(d, e)):
            ok = False
    ok = ok and classes >= 500
    _emit(capsys, 7, f"baer/raynaud algebra on {classes} classes",
          ok, time.perf_counter() - start, 2.0)


def test_criterion_8_presentation_vs_class(capsys):
    start = time.perf_counter()
    rng = random.Random(8)
    objects = 0
    ok = True
    for _ in range(110):
        n = rng.randint(2, 27)
        t = rng.randint(1, 3)
        free = FinAbGroup.of_orders([n] * t)
        nu = GroupHom(free, free, IntMatrix.from_rows(
            [[rng.randrange(n) for _ in range(t)] for _ in range(t)]))
        eta = _random_class(rng, n, t, t)
        eta_units = ExtClass(n, t, t, tuple(
            tuple(x.unit_part() for x in row) for row in eta.kappa))
        obj = ExtNuObject(n, eta_units, nu)
        objects += 1
        presented = mp_presentation(obj).group
        if presented != middle_term_group(obj):
            ok = False
        pushed = mp_pushout(obj)
        if pushed.val_matrix() != nu.matrix.mod(n):
            ok = False
    ok = ok and objects >= 100
    _emit(capsys, 8, f"presentation vs class on {objects} objects",
          ok, time.perf_counter() - start, 10.0)
