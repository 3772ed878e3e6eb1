"""The three workloads: seeded inputs, one timed op each, and its check.

Each workload is a closed loop with one caller.  ``op(index)`` runs
operation number ``index`` and returns ``({"cpu": s, "wall": s},
result)``; the metrics use the clock named by ``CLOCK``, and the run's
detail file keeps both.  ``RUSAGE`` names the processes whose
high-water RSS is the workload's memory figure.  ``check(index, result)`` raises ``CheckFailed``
unless the result agrees with the independent reference.  Inputs depend
only on the seed and the index, and ops come in rounds of
``round_size`` that the run always completes.

crystor's functions are looked up on their modules at call time, so a
tracer that rebinds them sees every call.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import reference
from reference import Reference, expect

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
CHILD_TIMEOUT_S = 120


def child_env() -> dict[str, str]:
    """Environment for crystor child processes: the package from src/,
    and the default enumeration budget."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CRYSTOR_ENUM_BUDGET", None)
    return env


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_child(argv: list[str]) -> tuple[dict[str, float], subprocess.CompletedProcess]:
    """Run one child process to its end; its CPU time is its user +
    system time, its wall time is measured around the spawn and wait."""
    cpu0 = _children_cpu()
    wall0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - wall0
    return {"cpu": _children_cpu() - cpu0, "wall": wall}, proc


class _Clocks:
    """Process CPU time and wall time of one in-process op."""

    def __enter__(self):
        self.cpu = time.process_time()
        self.wall = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.times = {"cpu": time.process_time() - self.cpu,
                      "wall": time.perf_counter() - self.wall}


def _crys1_doc(rep) -> dict:
    return {
        "n": rep.n,
        "t": rep.t,
        "invariant_factors": list(rep.group.invariant_factors),
        "order": rep.group.order,
        "generators": [list(g) for g in rep.generators],
        "generator_orders": list(rep.generator_orders),
        "is_full": rep.is_full,
    }


def _les_doc(rep) -> dict:
    return {
        "cap": rep.cap,
        "stabilized_at": rep.stabilized_at,
        "tate_rank": rep.tate_rank,
        "rational_rank": rep.rational_rank,
        "divisible_rank": rep.divisible_rank,
        "colimit_torsion": list(rep.colimit_torsion.invariant_factors),
        "r1_torsion": list(rep.r1_torsion.invariant_factors),
        "levels": [{"m": lv.m, "ok": lv.ok()} for lv in rep.levels],
        "exact": rep.exact,
    }


def spd_matrix(rng: random.Random, t: int, off: int, slack: int) -> list[list[int]]:
    """Symmetric, strictly diagonally dominant with positive diagonal,
    hence positive definite: off-diagonal entries in [-off, off], each
    diagonal entry its row's absolute sum plus 1..slack."""
    a = [[0] * t for _ in range(t)]
    for i in range(t):
        for j in range(i):
            a[i][j] = a[j][i] = rng.randint(-off, off)
    for i in range(t):
        a[i][i] = sum(abs(x) for x in a[i]) + rng.randint(1, slack)
    return a


# ---------------------------------------------------------------------------


class GrowthSweep:
    """One input's full pipeline per op: component group, stable torsion
    and the les report, on a seeded positive-definite mu at p = 3.

    Every round runs the ranks in RANKS once, each with a fresh matrix.
    Ranks stop at 16: from t = 18 on, the unreduced Smith form blows up
    10-100x on a few percent of seeds, and throughput over a run then
    spreads by 15-45 % between seeds.
    """

    name = "growth-sweep"
    P = 3
    CAP = 40
    RANKS = (8, 8, 10, 10, 12, 12, 14, 14, 16)
    round_size = len(RANKS)
    trace_rounds = 10
    CLOCK = "cpu"
    RUSAGE = resource.RUSAGE_SELF

    def __init__(self, seed: int):
        self.seed = seed
        import crystor
        self.crystor = crystor

    def input(self, index: int) -> tuple[int, list[list[int]]]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        t = self.RANKS[index % self.round_size]
        return self.P, spd_matrix(rng, t, off=50, slack=50)

    def op(self, index: int):
        p, mu = self.input(index)
        c = self.crystor
        with _Clocks() as clocks:
            data = c.DegenerationData(p, c.IntMatrix.from_rows(mu))
            group = c.crys.component_group(data)
            r1 = c.crys.r1crys1_tors(data, cap=self.CAP)
            les = c.crys.les_report(data, cap=self.CAP)
        return clocks.times, (group, r1, les)

    def probe_input(self) -> tuple[int, list[list[int]]]:
        return self.input(0)

    def check(self, index: int, result) -> None:
        group, r1, les = result
        ref = Reference.of(*self.input(index))
        reference.check_component_group(
            ref, {"invariant_factors": list(group.invariant_factors),
                  "order": group.order, "group": str(group)})
        reference.check_r1(ref, list(r1.invariant_factors))
        reference.check_les(ref, self.CAP, _les_doc(les))

    def finish(self) -> None:
        pass


class OracleEnum:
    """One oracle check per op: ``oracle_crys1`` (exhaustive subgroup
    enumeration) next to ``crys1_torsion`` on the same small input, and
    their comparison, as ``crystor crys1 --oracle`` does.

    Keys are (p, m, t) with p^(m t) <= 4096, verify's oracle space, and
    each op gets a fresh matrix.  A round runs each of the four keys with
    42k to 57k subgroups four times and three small keys for other primes
    once, so keys recur and later calls reuse the subgroup lists of
    earlier ones.  Once their lists exist, the large keys' calls cost
    0.05-0.07 s each and make 16 of the 19 ops; the three cheap ops move
    the median only to about the 40th percentile of that band, away
    from its sparse edges.  No key has p = 2 and t >= 8: (Z/2)^8 already
    has 417,199 subgroups.
    """

    name = "oracle-enum"
    LARGE = ((2, 2, 5), (2, 3, 4), (3, 1, 6), (5, 1, 5))
    SMALL = ((7, 1, 4), (11, 1, 3), (13, 1, 3))
    KEYS = LARGE * 4 + SMALL
    round_size = len(KEYS)
    trace_rounds = 4
    CLOCK = "cpu"
    RUSAGE = resource.RUSAGE_SELF

    def __init__(self, seed: int):
        self.seed = seed
        import crystor
        self.crystor = crystor

    def input(self, index: int) -> tuple[int, int, list[list[int]]]:
        """mu = U^T diag(s) U with U unimodular, so coker(mu) is the sum
        of the Z/s_i, s_i = p^e c with e in 0..m and c prime to p."""
        p, m, t = self.KEYS[index % len(self.KEYS)]
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        units = (1, 3) if p == 2 else (1, 2)
        s = [p ** rng.randint(0, m) * rng.choice(units) for _ in range(t)]
        u = [[int(i == j) for j in range(t)] for i in range(t)]
        for _ in range(t):
            i, j = rng.sample(range(t), 2)
            sign = rng.choice((-1, 1))
            u[i] = [a + sign * b for a, b in zip(u[i], u[j])]
        mu = [[sum(u[k][i] * s[k] * u[k][j] for k in range(t)) for j in range(t)]
              for i in range(t)]
        return p, m, mu

    def op(self, index: int):
        p, m, mu = self.input(index)
        c = self.crystor
        with _Clocks() as clocks:
            data = c.DegenerationData(p, c.IntMatrix.from_rows(mu))
            oracle = c.crys.oracle_crys1(data, m)
            direct = c.crys.crys1_torsion(data, m)
            agrees = (oracle.group == direct.group
                      and oracle.lattice() == direct.lattice())
        return clocks.times, (oracle, direct, agrees)

    def probe_input(self) -> tuple[int, list[list[int]]]:
        p, _, mu = self.input(0)
        return p, mu

    def check(self, index: int, result) -> None:
        oracle, direct, agrees = result
        p, m, mu = self.input(index)
        ref = Reference.of(p, mu)
        reference.check_crys1(ref, m, _crys1_doc(direct))
        reference.check_crys1(ref, m, _crys1_doc(oracle))
        expect(agrees, "oracle and crys1_torsion disagree")

    def finish(self) -> None:
        """Subgroup counts of every prime modulus against the Galois
        numbers; runs after the memory high-water mark is read."""
        for p, m, t in sorted(set(self.KEYS)):
            if m == 1:
                subgroups = self.crystor.abelian.enumerate_subgroups(p, t)
                reference.check_subgroup_count(p, t, len(subgroups))


class CliCorpus:
    """One fresh ``python -m crystor SUB ... --json`` process per op.

    A round runs the eight subcommands once each, in SUBCOMMANDS order;
    the files walk a seeded permutation of ``corpus/``, and the levels,
    caps and tate parameters are seeded.
    """

    name = "cli-corpus"
    SUBCOMMANDS = ("component-group", "torsion", "crys1", "phi-check", "r1",
                   "les", "tate", "verify")
    round_size = len(SUBCOMMANDS)
    trace_rounds = 2
    CLOCK = "cpu"
    RUSAGE = resource.RUSAGE_CHILDREN  # the largest over the CLI children

    def __init__(self, seed: int, spans_dir: Path | None = None):
        self.seed = seed
        self.spans_dir = spans_dir
        self.files = sorted((ROOT / "corpus").glob("*.txt"))
        expect(len(self.files) == 22, "corpus/ does not hold the 22 input files")
        order = list(range(len(self.files)))
        random.Random(f"{self.name}:{self.seed}").shuffle(order)
        self.order = order
        self.span_files: list[Path] = []
        self._refs: dict[Path, tuple[Reference, list | None]] = {}

    def command(self, index: int) -> tuple[str, Path | None, list[str]]:
        """(subcommand, input file or None, options)."""
        sub = self.SUBCOMMANDS[index % self.round_size]
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        if sub == "tate":
            v, p, m = rng.randint(1, 60), rng.choice((2, 3, 5, 7)), rng.randint(1, 4)
            return sub, None, ["--v", str(v), "--p", str(p), "--m", str(m)]
        path = self.files[self.order[index % len(self.files)]]
        opts = []
        if sub == "component-group" and rng.random() < 0.5:
            opts = ["--p-part"]
        elif sub in ("torsion", "crys1", "phi-check"):
            opts = ["--m", str(rng.randint(1, 3))]
        elif sub in ("r1", "les"):
            opts = ["--cap", str(rng.choice((12, 20)))]
        elif sub == "verify":
            opts = ["--max-m", str(rng.randint(1, 3)), "--seed", str(rng.randint(0, 99))]
        return sub, path, opts

    def probe_input(self) -> tuple[int, list[list[int]]]:
        path = next(p for i in range(self.round_size)
                    if (p := self.command(i)[1]) is not None)
        p, mu, _ = reference.read_input_file(path.read_bytes())
        return p, mu

    def op(self, index: int):
        sub, path, opts = self.command(index)
        args = [sub, *([str(path.relative_to(ROOT))] if path else []), *opts, "--json"]
        if self.spans_dir is None:
            argv = [sys.executable, "-m", "crystor", *args]
        else:
            spans = self.spans_dir / f"op{index}.json"
            self.span_files.append(spans)
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *args]
        times, proc = run_child(argv)
        if proc.returncode != 0:
            raise RuntimeError(f"crystor {' '.join(args)}: exit {proc.returncode}: "
                               f"{proc.stderr.decode().strip()}")
        return times, proc

    def check(self, index: int, proc) -> None:
        sub, path, opts = self.command(index)
        doc = json.loads(proc.stdout)
        echo = " ".join([sub, *opts])
        expect(doc["command"] == echo,
               f"command echo {doc['command']!r}, expected {echo!r}")
        result = doc["result"]
        value = dict(zip(opts[::2], opts[1::2]))
        if path is None:
            v, p, m = (int(value[k]) for k in ("--v", "--p", "--m"))
            reference.check_digest(f"v={v} p={p} m={m}".encode(), doc["input_sha256"])
            reference.check_tate(v, p, m, result)
            return
        raw = path.read_bytes()
        reference.check_digest(raw, doc["input_sha256"])
        if path not in self._refs:
            p, mu, units = reference.read_input_file(raw)
            self._refs[path] = (Reference.of(p, mu), units)
        ref, units = self._refs[path]
        m = int(value.get("--m", 0))
        if sub == "component-group":
            reference.check_component_group(ref, result)
        elif sub == "torsion":
            reference.check_torsion(ref, m, units, result)
        elif sub == "crys1":
            reference.check_crys1(ref, m, result)
        elif sub == "phi-check":
            reference.check_phi(ref, m, result)
        elif sub == "r1":
            reference.check_r1(ref, result["invariant_factors"])
        elif sub == "les":
            reference.check_les(ref, int(value["--cap"]), result)
        elif sub == "verify":
            reference.check_verify(result)

    def finish(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (CliCorpus, GrowthSweep, OracleEnum)}
