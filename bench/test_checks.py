"""Tests of the benchmark's checkers: each accepts a correct answer and
rejects every corrupted copy of it; and today's crystor passes the
workloads' checks on a few ops of each.

    python3 -m pytest bench/test_checks.py -q
"""

import copy
import hashlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import reference  # noqa: E402
import workloads  # noqa: E402
from reference import CheckFailed, Reference  # noqa: E402

# p = 3, mu = [[2, 1], [1, 2]]: det 3, invariant factors (1, 3)
HILBERT = Reference.of(3, [[2, 1], [1, 2]])
# p = 2, mu = [[2, 0], [0, 4]]: invariant factors (2, 4), stabilizes at m = 2
DIAG = Reference.of(2, [[2, 0], [0, 4]])

CRYS1_HILBERT_M1 = {
    "n": 3, "t": 2, "invariant_factors": [3, 3, 3], "order": 27,
    "generators": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]],
    "generator_orders": [3, 3, 3], "is_full": False,
}
LES_DIAG = {
    "cap": 12, "stabilized_at": 2, "tate_rank": 2, "rational_rank": 2,
    "divisible_rank": 2, "colimit_torsion": [2, 4], "r1_torsion": [2, 4],
    "levels": [{"m": 1, "ok": True}, {"m": 2, "ok": True}, {"m": 3, "ok": True}],
    "exact": True,
}
COMPONENT_DIAG = {
    "invariant_factors": [2, 4], "order": 8, "group": "Z/2 ⊕ Z/4",
    "p_primary": {"invariant_factors": [2, 4], "order": 8, "group": "Z/2 ⊕ Z/4"},
}
PHI_DIAG_M1 = {
    "n": 2, "quotient_invariant_factors": [2, 2],
    "kernel_invariant_factors": [2, 2], "agrees": True,
}
TORSION_HILBERT_M1 = {
    "m": 1, "n": 3, "t": 2, "val_matrix": [[2, 1], [1, 2]],
    "unit_symbols": [["u1_1", "u1_2"], ["u1_2", "u2_2"]],
    "generators": ["x1", "x2", "y1", "y2"], "orders": [3, 3, 3, 3],
    "ambient_order": 81,
}
# v = 5, p = 5, m = 2: w = 1, so y-part p^(m-w) = 5 of order 5
TATE_5_5_2 = {
    "n": 25, "t": 1, "generators": [[1, 0], [0, 5]], "generator_orders": [25, 5],
    "invariant_factors": [5, 25], "order": 125, "is_full": False,
    "ambient_order": 625, "description": "Z/25 ⊕ Z/5",
}
VERIFY_OK = {
    "checks": [{"name": "a", "ok": True, "detail": ""},
               {"name": "b", "ok": True, "detail": ""}],
    "passed": 2, "total": 2,
}


def corrupt(doc, path, value):
    out = copy.deepcopy(doc)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


def test_reference_values():
    assert HILBERT.ds == (1, 3)
    assert DIAG.component_group() == [2, 4]
    assert DIAG.phi(1) == [2, 2] and DIAG.stabilized_at() == 2
    assert reference.galois_number(2, 2) == 5
    assert reference.galois_number(3, 3) == 28
    assert reference.subgroup_order([[1, 1]], 3, 2) == 3
    assert reference.read_input_file(b"p = 5 # c\nt = 1\nmu = [[5]]\n") == (5, [[5]], None)
    assert reference.read_input_file(
        b"p = 5\nt = 2\nmu = [[5, 1],\n [1, 5]]\nunits = [[q1, s], [s, q2]]\n"
    ) == (5, [[5, 1], [1, 5]], [["q1", "s"], ["s", "q2"]])


@pytest.mark.parametrize("check, good, bad", [
    (lambda d: reference.check_crys1(HILBERT, 1, d), CRYS1_HILBERT_M1, [
        (("invariant_factors",), [3, 9]),
        (("order",), 81),
        (("generators", 0), [2, 0, 0, 0]),
        (("generators", 2), [0, 0, 1, 2]),        # not killed by mu mod 3
        (("generators", 2), [1, 0, 1, 1]),        # y-generator with an x-part
        (("generators",), [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 2, 2]]),
        (("generator_orders", 2), 9),
        (("is_full",), True),
        (("n",), 9),
    ]),
    (lambda d: reference.check_crys1(HILBERT, 1, d),
     corrupt(CRYS1_HILBERT_M1, ("generators",), [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1],
                                                  [0, 0, 2, 2]])
     | {"generator_orders": [3, 3, 3, 3]}, None),   # a redundant generator is fine
    (lambda d: reference.check_les(DIAG, 12, d), LES_DIAG, [
        (("stabilized_at",), 3),
        (("colimit_torsion",), [2, 2]),
        (("r1_torsion",), [4]),
        (("tate_rank",), 1),
        (("levels",), LES_DIAG["levels"][:2]),
        (("levels", 1, "ok"), False),
        (("exact",), False),
        (("cap",), 20),
    ]),
    (lambda d: reference.check_component_group(DIAG, d), COMPONENT_DIAG, [
        (("invariant_factors",), [8]),
        (("order",), 4),
        (("group",), "Z/8"),
        (("p_primary", "invariant_factors"), [4]),
    ]),
    (lambda d: reference.check_phi(DIAG, 1, d), PHI_DIAG_M1, [
        (("quotient_invariant_factors",), [2]),
        (("kernel_invariant_factors",), [2, 4]),
        (("agrees",), False),
        (("n",), 4),
    ]),
    (lambda d: reference.check_r1(DIAG, d["factors"]), {"factors": [2, 4]}, [
        (("factors",), [2, 2]),
    ]),
    (lambda d: reference.check_torsion(HILBERT, 1, None, d), TORSION_HILBERT_M1, [
        (("val_matrix",), [[2, 1], [1, 5]]),
        (("unit_symbols", 1, 0), "u2_1"),
        (("generators",), ["x1", "x2", "y1"]),
        (("orders",), [3, 3, 3, 9]),
        (("ambient_order",), 27),
        (("m",), 2),
    ]),
    (lambda d: reference.check_tate(5, 5, 2, d), TATE_5_5_2, [
        (("generators", 1), [0, 1]),
        (("generator_orders",), [25, 25]),
        (("invariant_factors",), [125]),
        (("is_full",), True),
        (("description",), "Z/25"),
    ]),
    (reference.check_verify, VERIFY_OK, [
        (("checks", 1, "ok"), False),
        (("passed",), 1),
        (("total",), 3),
    ]),
])
def test_checker_rejects_corruption(check, good, bad):
    check(good)
    for path, value in bad or ():
        with pytest.raises(CheckFailed):
            check(corrupt(good, path, value))


def test_digest_and_subgroup_count():
    raw = b"p = 5\nt = 1\nmu = [[5]]\n"
    reference.check_digest(raw, hashlib.sha256(raw).hexdigest())
    with pytest.raises(CheckFailed):
        reference.check_digest(raw + b"\n", hashlib.sha256(raw).hexdigest())
    reference.check_subgroup_count(3, 3, 28)
    with pytest.raises(CheckFailed):
        reference.check_subgroup_count(3, 3, 27)


def test_tate_closed_form_edges():
    assert reference.tate_closed_form(7, 5, 2)["generators"] == [[1, 0]]
    assert reference.tate_closed_form(50, 5, 2)["is_full"] is True
    assert reference.tate_closed_form(250, 5, 2)["generators"] == [[1, 0], [0, 1]]


def run_ops(workload, indices):
    for index in indices:
        _, result = workload.op(index)
        workload.check(index, result)


def test_growth_sweep_ops_pass_and_corruption_fails():
    w = workloads.GrowthSweep(seed=7)
    run_ops(w, [0, 2])
    _, (group, r1, les) = w.op(0)
    with pytest.raises(CheckFailed):
        w.check(0, (group.direct_sum(group), r1, les))
    with pytest.raises(CheckFailed):
        w.check(1, (group, r1, les))  # another input's answer


def test_oracle_enum_ops_pass_and_disagreement_fails():
    w = workloads.OracleEnum(seed=7)
    small = [w.KEYS.index(key) for key in w.SMALL]
    run_ops(w, small)
    _, (oracle, direct, _) = w.op(small[0])
    with pytest.raises(CheckFailed):
        w.check(small[0], (oracle, direct, False))


def test_cli_corpus_round_passes_and_corruption_fails():
    w = workloads.CliCorpus(seed=7)
    run_ops(w, range(w.round_size))
    _, proc = w.op(0)
    proc.stdout = proc.stdout.replace(b'"input_sha256":"', b'"input_sha256":"0')
    with pytest.raises(CheckFailed):
        w.check(0, proc)


def test_cli_nonzero_exit_is_a_failed_op():
    w = workloads.CliCorpus(seed=7)
    w.command = lambda index: ("r1", ROOT / "corpus" / "missing.txt", [])
    with pytest.raises(RuntimeError, match="exit 1"):
        w.op(0)
