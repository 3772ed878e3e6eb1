"""Independent reference values, and the checkers that hold crystor's
answers against them.

Nothing here imports crystor.  Smith forms come from sympy; everything
else is recomputed from the definitions: p-adic valuations, gcds, the
rank-one closed form, Galois numbers, direct matrix-vector products and
sha256 of the input bytes.  sympy is imported on first use only, so a
benchmark process that measures memory can read its high-water mark
before any reference is computed.

Every checker takes plain data (the shape of the CLI's ``--json``
payload) and raises ``CheckFailed`` on the first disagreement.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass
from math import gcd, prod


class CheckFailed(Exception):
    """An answer disagrees with the independent reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# reference values


def vp(x: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def sympy_invariant_factors(rows) -> tuple[int, ...]:
    """Invariant factors (1s included) of an integer matrix, by sympy."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    return tuple(int(d) for d in invariant_factors(Matrix(rows), domain=ZZ))


def chain(orders) -> list[int]:
    """Invariant factors of a direct sum of cyclic groups of prime-power
    order for one prime: the nontrivial orders in ascending order."""
    return sorted(o for o in orders if o > 1)


def galois_number(q: int, t: int) -> int:
    """Number of subspaces of F_q^t: the sum of Gaussian binomials."""
    total = 0
    for k in range(t + 1):
        num = prod(q ** (t - i) - 1 for i in range(k))
        den = prod(q ** (i + 1) - 1 for i in range(k))
        total += num // den
    return total


def element_order(vec, n: int) -> int:
    g = n
    for x in vec:
        g = gcd(g, x)
    return n // g


def subgroup_order(gens, n: int, t: int) -> int:
    """Order of the subgroup of (Z/n)^t spanned by ``gens``: n^t over
    the index of the lattice spanned by gens and n Z^t."""
    rows = [list(g) for g in gens] + [
        [n if j == i else 0 for j in range(t)] for i in range(t)
    ]
    index = prod(sympy_invariant_factors(rows))
    return n**t // index


def default_units(t: int) -> list[list[str]]:
    return [[f"u{min(i, j) + 1}_{max(i, j) + 1}" for j in range(t)]
            for i in range(t)]


def tate_closed_form(v: int, p: int, m: int) -> dict:
    """Rank-one crys1 from the definition: the y-part is the kernel of
    multiplication by v on Z/p^m, spanned by p^(m - min(w, m)) with
    w = v_p(v)."""
    n = p**m
    w = min(vp(v, p), m)
    gens = [[1, 0]]
    orders = [n]
    if w:
        gens.append([0, p ** (m - w)])
        orders.append(p**w)
    return {
        "n": n,
        "t": 1,
        "generators": gens,
        "generator_orders": orders,
        "invariant_factors": chain(orders),
        "order": prod(orders),
        "is_full": w == m,
        "ambient_order": n * n,
        "description": " ⊕ ".join(f"Z/{d}" for d in orders),
    }


@dataclass(frozen=True)
class Reference:
    """One input and its Smith invariants, computed outside crystor."""

    p: int
    mu: tuple[tuple[int, ...], ...]
    ds: tuple[int, ...]

    @classmethod
    def of(cls, p: int, mu) -> "Reference":
        mu = tuple(tuple(int(x) for x in row) for row in mu)
        return cls(p, mu, sympy_invariant_factors(mu))

    @property
    def t(self) -> int:
        return len(self.mu)

    def component_group(self) -> list[int]:
        return [d for d in self.ds if d > 1]

    def p_part(self) -> list[int]:
        return chain(self.p ** vp(d, self.p) for d in self.ds)

    def phi(self, m: int) -> list[int]:
        """Invariant factors of Phi[p^m]: gcd(d_i, p^m)."""
        return chain(gcd(d, self.p**m) for d in self.ds)

    def crys1(self, m: int) -> list[int]:
        """Invariant factors of crys1 at level m: (Z/p^m)^t + Phi[p^m]."""
        n = self.p**m
        return chain([n] * self.t + [gcd(d, n) for d in self.ds])

    def stabilized_at(self) -> int:
        return max(1, max(vp(d, self.p) for d in self.ds))

    def kills(self, y, n: int) -> bool:
        """Whether mu y = 0 mod n, by direct multiplication."""
        return all(sum(a * b for a, b in zip(row, y)) % n == 0
                   for row in self.mu)


# ---------------------------------------------------------------------------
# corpus files, read without the crystor parser


def read_input_file(raw: bytes) -> tuple[int, list[list[int]], list[list[str]] | None]:
    """(p, mu, units) of a corpus file: ``key = value`` lines, ``#``
    comments, bracketed matrices that may span lines."""
    text = "\n".join(line.split("#", 1)[0] for line in raw.decode().split("\n"))
    fields = dict(re.findall(r"(\w+)\s*=\s*(\[[^=]*\]|-?\d+)", text))
    p = int(fields["p"])
    mu = ast.literal_eval(fields["mu"])
    units = None
    if "units" in fields:
        units = [re.findall(r"\w+", row)
                 for row in re.findall(r"\[([^\[\]]*)\]", fields["units"])]
    expect(len(mu) == int(fields["t"]), "corpus file: t disagrees with mu")
    return p, mu, units


# ---------------------------------------------------------------------------
# checkers


def check_digest(raw: bytes, digest: str) -> None:
    expect(hashlib.sha256(raw).hexdigest() == digest,
           "input_sha256 does not match the input bytes")


def check_group_doc(doc: dict, factors: list[int], what: str) -> None:
    expect(doc["invariant_factors"] == factors,
           f"{what}: invariant factors {doc['invariant_factors']}, "
           f"expected {factors}")
    expect(doc["order"] == prod(factors), f"{what}: wrong order")
    expected_str = " ⊕ ".join(f"Z/{d}" for d in factors) or "trivial"
    expect(doc["group"] == expected_str, f"{what}: wrong group string")


def check_component_group(ref: Reference, doc: dict) -> None:
    check_group_doc(doc, ref.component_group(), "component group")
    if "p_primary" in doc:
        check_group_doc(doc["p_primary"], ref.p_part(), "p-primary part")


def check_r1(ref: Reference, factors: list[int]) -> None:
    expect(list(factors) == ref.p_part(),
           f"r1 torsion {list(factors)}, expected p-part {ref.p_part()}")


def check_phi(ref: Reference, m: int, doc: dict) -> None:
    want = ref.phi(m)
    expect(doc["quotient_invariant_factors"] == want,
           f"crys1 quotient {doc['quotient_invariant_factors']}, expected {want}")
    expect(doc["kernel_invariant_factors"] == want,
           f"Phi[p^m] {doc['kernel_invariant_factors']}, expected {want}")
    expect(doc["agrees"] is True, "phi-check reports disagreement")
    expect(doc["n"] == ref.p**m, "phi-check: wrong modulus")


def check_crys1(ref: Reference, m: int, doc: dict) -> None:
    """Structure, order law, x-basis, killed y-generators, generator
    orders and the order of the span, each recomputed."""
    n, t = ref.p**m, ref.t
    want = ref.crys1(m)
    expect(doc["n"] == n and doc["t"] == t, "crys1: wrong n or t")
    expect(doc["invariant_factors"] == want,
           f"crys1 invariant factors {doc['invariant_factors']}, expected {want}")
    expect(doc["order"] == prod(want), "crys1: order law fails")
    gens = doc["generators"]
    expect(len(gens) == len(doc["generator_orders"]),
           "crys1: generator orders do not align with generators")
    unit = [[1 if j == i else 0 for j in range(2 * t)] for i in range(t)]
    expect([list(g) for g in gens[:t]] == unit,
           "crys1: the first t generators are not the x-basis")
    ys = []
    for g in gens[t:]:
        expect(len(g) == 2 * t and not any(g[:t]),
               "crys1: a y-generator has an x-part")
        expect(ref.kills(g[t:], n), f"crys1: mu mod {n} does not kill {list(g)}")
        ys.append(g[t:])
    for g, o in zip(gens, doc["generator_orders"]):
        expect(element_order(g, n) == o, f"crys1: {list(g)} does not have order {o}")
    expect(n**t * subgroup_order(ys, n, t) == prod(want),
           "crys1: generators do not span a group of the expected order")
    full = all(x % n == 0 for row in ref.mu for x in row)
    expect(doc["is_full"] is full, "crys1: wrong is_full flag")


def check_les(ref: Reference, cap: int, doc: dict) -> None:
    stab = ref.stabilized_at()
    expect(doc["stabilized_at"] == stab,
           f"les: stabilized_at {doc['stabilized_at']}, expected {stab}")
    expect(doc["cap"] == cap, "les: wrong cap")
    for key in ("tate_rank", "rational_rank", "divisible_rank"):
        expect(doc[key] == ref.t, f"les: {key} is not t")
    expect(doc["colimit_torsion"] == ref.p_part(), "les: wrong colimit torsion")
    expect(doc["r1_torsion"] == ref.p_part(), "les: wrong r1 torsion")
    expect([lv["m"] for lv in doc["levels"]]
           == list(range(1, min(stab + 1, cap) + 1)), "les: wrong levels")
    expect(all(lv["ok"] for lv in doc["levels"]) and doc["exact"] is True,
           "les: a level is reported not exact")


def check_torsion(ref: Reference, m: int, units, doc: dict) -> None:
    n, t = ref.p**m, ref.t
    expect(doc["n"] == n and doc["t"] == t and doc["m"] == m,
           "torsion: wrong n, t or m")
    expect(doc["val_matrix"] == [[x % n for x in row] for row in ref.mu],
           "torsion: valuation matrix is not mu mod p^m")
    expect(doc["unit_symbols"] == (units or default_units(t)),
           "torsion: wrong unit symbols")
    expect(doc["generators"] == [f"x{i + 1}" for i in range(t)]
           + [f"y{i + 1}" for i in range(t)], "torsion: wrong generator labels")
    expect(doc["orders"] == [n] * (2 * t) and doc["ambient_order"] == n ** (2 * t),
           "torsion: wrong orders")


def check_tate(v: int, p: int, m: int, doc: dict) -> None:
    for key, value in tate_closed_form(v, p, m).items():
        expect(doc[key] == value, f"tate: {key} is {doc[key]!r}, expected {value!r}")


def check_verify(doc: dict) -> None:
    expect(doc["total"] > 0 and len(doc["checks"]) == doc["total"],
           "verify: check list does not match its total")
    failed = [c["name"] for c in doc["checks"] if not c["ok"]]
    expect(not failed and doc["passed"] == doc["total"],
           f"verify: failed checks {failed}")


def check_subgroup_count(n: int, t: int, count: int) -> None:
    want = galois_number(n, t)
    expect(count == want, f"{count} subgroups of (Z/{n})^{t}, expected {want}")
