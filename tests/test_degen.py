"""Degeneration data: validation, torsion extension class, Raynaud
decomposition."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from crystor.abelian import IntMatrix
from crystor.degen import (
    DegenerationData,
    leading_minors,
    monodromy_map,
    raynaud_decompose,
    torsion_module,
)
from crystor.errors import (
    BadInput,
    BadLevel,
    NotPositiveDefinite,
    NotPrime,
    NotSymmetric,
    ShapeMismatch,
)
from crystor.kummer import ExtClass, baer_sum, is_one_crystalline


def data_of(p, rows, units=None):
    return DegenerationData(p, IntMatrix.from_rows(rows), units)


def spd_matrices(t, bound=9):
    """Diagonally dominant symmetric draws; dominance forces positive
    definiteness."""

    def build(diag_extra, off):
        rows = [[0] * t for _ in range(t)]
        for i in range(t):
            for j in range(i):
                rows[i][j] = rows[j][i] = off[i * (i - 1) // 2 + j]
        for i in range(t):
            rows[i][i] = sum(abs(x) for x in rows[i]) + diag_extra[i]
        return rows

    k = t * (t - 1) // 2
    return st.builds(
        build,
        st.lists(st.integers(1, bound), min_size=t, max_size=t),
        st.lists(st.integers(-bound, bound), min_size=k, max_size=k),
    )


def test_validate_tate_curve():
    assert data_of(5, [[5]]).determinant == 5


def test_validate_rejects_zero_valuation():
    with pytest.raises(NotPositiveDefinite) as exc:
        data_of(5, [[0]])
    assert exc.value.minor_index == 1
    assert exc.value.minor_value == 0


def test_validate_reports_failing_minor():
    with pytest.raises(NotPositiveDefinite) as exc:
        data_of(3, [[1, 2], [2, 1]])
    assert exc.value.minor_index == 2
    assert exc.value.minor_value == -3
    assert "minor 2 is -3" in str(exc.value)


def test_validate_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        data_of(3, [[2, 1], [0, 2]])


def test_validate_rejects_composite_p():
    with pytest.raises(NotPrime):
        data_of(6, [[1]])


def test_validate_runs_its_checks_once(monkeypatch):
    import crystor.degen
    from crystor.crys import (
        component_group,
        crys1_torsion,
        les_report,
        phi_formula_check,
        r1crys1_tors,
    )

    dets = []
    passes = []
    primes = []
    real_det = IntMatrix.det
    real_minors = crystor.degen.leading_minors
    real_prime = crystor.degen.require_prime
    monkeypatch.setattr(IntMatrix, "det", lambda m: dets.append(m) or real_det(m))
    monkeypatch.setattr(crystor.degen, "leading_minors",
                        lambda m: passes.append(m) or real_minors(m))
    monkeypatch.setattr(crystor.degen, "require_prime",
                        lambda p: primes.append(p) or real_prime(p))
    rows = [[4, 1, 0], [1, 4, 1], [0, 1, 4]]
    data = data_of(3, rows)
    component_group(data)
    r1crys1_tors(data)
    les_report(data)
    for m in (1, 2, 3):
        crys1_torsion(data, m)
    phi_formula_check(data, 1)
    assert len(passes) == 1  # one Bareiss pass yields every leading minor
    assert dets == []
    assert primes == [3]
    assert data.determinant == 56
    # a fresh equal instance validates afresh
    data_of(3, rows)
    assert len(passes) == 2


def _minors_by_det(rows):
    """Leading minors by one det() per order, up to the first that is
    not positive."""
    out = []
    for k in range(1, len(rows) + 1):
        out.append(IntMatrix.from_rows([r[:k] for r in rows[:k]]).det())
        if out[-1] <= 0:
            break
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda t: st.lists(st.integers(-6, 6), min_size=t * t, max_size=t * t)
    .map(lambda xs: (t, xs))))
def test_leading_minors_match_determinants(shape):
    # symmetric draws: indefinite ones, zero leading minors and,
    # through the diagonal shift, positive-definite ones
    t, xs = shape
    rows = [[0] * t for _ in range(t)]
    for i in range(t):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = xs[i * t + j]
    for shift in (0, 40):
        shifted = [[x + (shift if i == j else 0) for j, x in enumerate(r)]
                   for i, r in enumerate(rows)]
        assert list(leading_minors(IntMatrix.from_rows(shifted))) \
            == _minors_by_det(shifted)


def test_leading_minors_stop_at_a_zero_minor():
    assert list(leading_minors(IntMatrix.from_rows([[0, 1], [1, 0]]))) == [0]
    assert list(leading_minors(IntMatrix.from_rows(
        [[1, 1, 0], [1, 1, 0], [0, 0, 1]]))) == [1, 0]
    with pytest.raises(NotPositiveDefinite) as exc:
        data_of(3, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert (exc.value.minor_index, exc.value.minor_value) == (2, 0)


def test_invalid_instance_raises_on_every_call():
    builds = [
        (NotPrime, lambda: data_of(4, [[1]])),
        (BadInput, lambda: DegenerationData(3, IntMatrix(0, 0, ()))),
        (NotSymmetric, lambda: data_of(3, [[2, 1], [0, 2]])),
        (NotPositiveDefinite, lambda: data_of(3, [[1, 2], [2, 1]])),
        (ShapeMismatch, lambda: data_of(2, [[1, 0], [0, 1]], (("a",), ("b",)))),
    ]
    for error, build in builds:
        for _ in range(3):
            with pytest.raises(error) as exc:
                build()
            if error is NotPositiveDefinite:
                assert (exc.value.minor_index, exc.value.minor_value) == (2, -3)


def test_rebuilds_validate_again():
    data = data_of(3, [[2, 1], [1, 2]])
    with pytest.raises(NotPrime):
        data.replace(p=4)
    with pytest.raises(NotPositiveDefinite) as exc:
        data.replace(mu=IntMatrix.from_rows([[1, 2], [2, 1]]))
    assert (exc.value.minor_index, exc.value.minor_value) == (2, -3)
    copy = pickle.loads(pickle.dumps(data))
    assert copy == data and copy.determinant == data.determinant == 3


def test_smith_form_is_cached_outside_equality():
    data = data_of(3, [[2, 1], [1, 2]])
    twin = data_of(3, [[2, 1], [1, 2]])
    assert data.invariants is data.invariants
    assert data.invariants == (1, 3)
    assert data.local is data.local
    assert data.local.valuations == (0, 1)
    assert data == twin and hash(data) == hash(twin)
    assert repr(data) == repr(twin)


def test_validate_rejects_bad_symbol_grid():
    with pytest.raises(ShapeMismatch):
        data_of(2, [[1, 0], [0, 1]], (("a",), ("b",)))


def test_default_symbols_symmetric():
    data = data_of(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    grid = [[data.symbol(i, j) for j in range(3)] for i in range(3)]
    assert grid[0][1] == grid[1][0] == "u1_2"
    assert grid[2][2] == "u3_3"
    flat = {s for row in grid for s in row}
    assert len(flat) == 6  # t(t+1)/2 fresh names


def test_torsion_module_tate_curve():
    tors = torsion_module(data_of(5, [[5]]), 2)
    assert tors.n == 25
    assert (tors.mult_rank, tors.etale_rank) == (1, 1)
    c = tors.entry(0, 0)
    assert c.val == 5
    assert c.units == (("u1_1", 1),)


def test_torsion_module_val_vanishes_at_matching_level():
    tors = torsion_module(data_of(2, [[8]]), 3)
    assert tors.entry(0, 0).val == 0
    assert not tors.entry(0, 0).is_zero()  # unit symbol survives


def test_torsion_module_rank_two_vals():
    tors = torsion_module(data_of(3, [[2, 1], [1, 2]]), 1)
    assert tors.val_matrix().as_rows() == ((2, 1), (1, 2))


def test_torsion_module_rejects_bad_level():
    with pytest.raises(BadLevel):
        torsion_module(data_of(5, [[5]]), 0)


def test_monodromy_of_torsion_class_is_mu_mod_level():
    data = data_of(2, [[6, 1], [1, 3]])
    tors = torsion_module(data, 2)
    assert tors.val_matrix() == data.mu.mod(4)


def test_raynaud_tate_curve():
    eta1, nu = raynaud_decompose(data_of(5, [[5]]), 2)
    assert is_one_crystalline(eta1)
    assert eta1.entry(0, 0).units == (("u1_1", 1),)
    assert nu.matrix.as_rows() == ((5,),)
    assert nu.source.invariant_factors == (25,)


def test_raynaud_identity_matrix_kills_monodromy():
    eta1, nu = raynaud_decompose(data_of(2, [[2, 0], [0, 2]]), 1)
    assert nu.is_zero()


@settings(max_examples=40)
@given(st.data())
def test_recombination_identity(data):
    t = data.draw(st.integers(1, 3))
    p = data.draw(st.sampled_from([2, 3, 5]))
    m = data.draw(st.integers(1, 6))
    # a grid with w{i}{j} != w{j}{i} tells the two symbols of a pair apart
    units = data.draw(st.sampled_from([
        None, tuple(tuple(f"w{i}{j}" for j in range(t)) for i in range(t))]))
    d = data_of(p, data.draw(spd_matrices(t)), units)
    eta1, nu = raynaud_decompose(d, m)
    recombined = baer_sum(eta1, ExtClass.from_val_matrix(eta1.n, nu.matrix))
    assert recombined == torsion_module(d, m)


@given(spd_matrices(3, bound=6))
def test_spd_strategy_actually_validates(rows):
    data_of(2, rows)
