#!/usr/bin/env python3
"""Compare the command line's output with another checkout's.

    python scripts/compare_outputs.py OTHER_TREE

Runs one fixed list of ``crystor`` argument lists twice: against this
tree's ``src/`` and against ``OTHER_TREE/src``, with one child
interpreter each that calls ``crystor.cli.main`` in-process per run.
Both children work in this tree's root, so the corpus paths, and any
error message naming them, are the same.  The list covers every
subcommand over ``corpus/`` at m = 1..3, ``crys1 --oracle``, r1 and
les at caps 1, 2, 12 and 20 and at their default, ``verify --max-m
1..3 --seed 7``, ``les``, ``phi-check --m 3``, ``r1`` and
``component-group`` on seeded positive-definite inputs with a 3-part
at t = 8, 16 and 32, ``crys1 --oracle`` and ``verify --max-m 1`` on two
seeded inputs at each large key (p, m, t) of the oracle-enum benchmark
workload, ``crys1 --oracle`` with mu = 2I on (Z/2)^16,
``component-group``, ``crys1 --m 2`` and ``verify --max-m 2`` on the
cycle pairings of the complete graphs K_5, K_6 and K_9 at p = 5, 2 and
3, ``component-group`` on malformed inputs: every parse-error text of
``tests/parse_errors.json``, a non-prime p, an asymmetric mu, a mu that
is not positive definite, a ragged units grid and a file that is not
UTF-8 (all written to a temporary directory), 18 tate cases,
``tate --v 5 --m 1`` at five values of p that reach both branches of
the prime test (strong pseudoprimes included), three levels whose
modulus has more than 4,300 digits and a set of error cases, each with
and without ``--json``.  So every error message and its position is
compared too.  Last come ``--help`` for the program and for each
subcommand, whose ``SystemExit`` the child catches and records as the
exit code.

A second pass runs ``python -m crystor`` itself, one process per run
with buffered stdout, so the process's own exit path is compared too:
every subcommand once, an exit of 1 and of 3 (exit 2 needs a faulty
route), and ``--help``.

Prints every run whose stdout, stderr or exit code differ, then the
number of differing runs per subcommand and the number of runs, and
exits 1 if any differ.  Stdlib only.
"""

import argparse
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TATE_CASES = [
    (1, 2, 1), (1, 5, 2), (2, 2, 1), (2, 2, 3), (3, 3, 1), (3, 3, 2),
    (4, 2, 2), (4, 2, 3), (5, 5, 1), (5, 5, 2), (6, 2, 2), (6, 3, 2),
    (8, 2, 4), (9, 3, 2), (9, 3, 3), (12, 2, 3), (25, 5, 3), (27, 3, 2),
]

# 1, strong pseudoprimes to the first 4, 11 and 13 prime bases, and 2^127 - 1
PRIME_TEST_CASES = [
    1, 3215031751, 3825123056546413051, 3317044064679887385961981,
    170141183460469231731687303715884105727,
]

# each one's --help is compared
SUBCOMMANDS = ("component-group", "torsion", "crys1", "phi-check", "r1", "les",
               "tate", "verify")

# ranks of the seeded inputs: the corpus stops at t = 3
SWEEP_RANKS = (8, 16, 32)

# (p, m, t) of the seeded oracle inputs: the large keys of the oracle-enum
# benchmark workload, each with p^(m t) <= 4096
ORACLE_KEYS = ((2, 2, 5), (2, 3, 4), (3, 1, 6), (5, 1, 5))


def seeded_mu(rng: random.Random, p: int, t: int, top: int) -> list[list[int]]:
    """mu = U^T diag(s) U with s_i = p^e c (e in 0..top, c in 1, 2, or
    1, 3 at p = 2) and U the identity after t seeded steps that each add
    one row to another, with a random sign per entry."""
    units = (1, 3) if p == 2 else (1, 2)
    s = [p ** rng.randint(0, top) * rng.choice(units) for _ in range(t)]
    u = [[int(i == j) for j in range(t)] for i in range(t)]
    for _ in range(t):
        i, j = rng.sample(range(t), 2)
        u[i] = [a + rng.choice((-1, 1)) * b for a, b in zip(u[i], u[j])]
    return [[sum(u[k][i] * s[k] * u[k][j] for k in range(t)) for j in range(t)]
            for i in range(t)]


def write_input(path: Path, p: int, mu) -> str:
    path.write_text(f"p = {p}\nt = {len(mu)}\nmu = {mu}\n")
    return str(path)


def write_sweep_inputs(directory: Path) -> list[str]:
    """Seeded inputs at p = 3, one file per rank in SWEEP_RANKS, with
    e in 0..3, so the levels m = 1..3 differ."""
    return [write_input(directory / f"spd_t{t}_p3.txt", 3,
                        seeded_mu(random.Random(f"compare-outputs:{t}"), 3, t, 3))
            for t in SWEEP_RANKS]


def write_oracle_inputs(directory: Path) -> list[tuple[str, int]]:
    """(file, m): two seeded inputs per key of ORACLE_KEYS, with e in 0..m."""
    runs = []
    for p, m, t in ORACLE_KEYS:
        for seed in (0, 1):
            rng = random.Random(f"compare-outputs:oracle:{p}:{m}:{t}:{seed}")
            path = directory / f"oracle_p{p}_m{m}_t{t}_{seed}.txt"
            runs.append((write_input(path, p, seeded_mu(rng, p, t, m)), m))
    return runs


def write_budget_input(directory: Path) -> str:
    """mu = 2I on (Z/2)^16: at m = 1 all 65,536 etale vectors are killed,
    which fills the default enumeration budget."""
    two = [[2 * int(i == j) for j in range(16)] for i in range(16)]
    return write_input(directory / "twice_identity_t16_p2.txt", 2, two)


# (n, p) of the complete-graph inputs, whose p-parts are (Z/5)^3, (Z/2)^4
# and (Z/9)^7
COMPLETE_GRAPHS = ((5, 5), (6, 2), (9, 3))


def complete_graph_pairing(n: int) -> list[list[int]]:
    """mu of K_n with unit edge lengths, on the fundamental cycles of the
    star spanning tree at vertex 0: chord {i, j} closes 0 -> i -> j -> 0."""
    cycles = [{(0, i): 1, (i, j): 1, (0, j): -1}
              for i in range(1, n) for j in range(i + 1, n)]
    return [[sum(c.get(e, 0) * x for e, x in d.items()) for d in cycles]
            for c in cycles]


def write_complete_graph_inputs(directory: Path) -> list[str]:
    return [write_input(directory / f"complete_k{n}_p{p}.txt", p,
                        complete_graph_pairing(n))
            for n, p in COMPLETE_GRAPHS]


# rejected inputs beyond the parse-error texts: by validation, by the
# units grid's shape, and before parsing, by UTF-8 decoding
MALFORMED_INPUTS = {
    "nonprime_p": b"p = 4\nt = 1\nmu = [[5]]\n",
    "asymmetric_mu": b"p = 3\nt = 2\nmu = [[2, 1], [0, 2]]\n",
    "indefinite_mu": b"p = 3\nt = 2\nmu = [[1, 2], [2, 1]]\n",
    "ragged_units": b"p = 3\nt = 2\nmu = [[2, 1], [1, 2]]\nunits = [[a, b], [c]]\n",
    "not_utf8": b"p = 3\nt = 1\nmu = [[\xff]]\n",
}


def write_malformed_inputs(directory: Path) -> list[str]:
    """The parse-error texts that tests/test_cli.py checks, then
    MALFORMED_INPUTS, one file each."""
    cases = json.loads((ROOT / "tests" / "parse_errors.json").read_text())
    blobs = {f"parse_error_{k}": text.encode() for k, (text, *_) in enumerate(cases)}
    blobs.update(MALFORMED_INPUTS)
    paths = []
    for name, blob in blobs.items():
        path = directory / f"{name}.txt"
        path.write_bytes(blob)
        paths.append(str(path))
    return paths


def argument_lists(sweep_paths, oracle_inputs, budget_path, graph_paths,
                   malformed_paths) -> list[tuple[list[str], dict]]:
    """(argv, environment overrides) for every run, without --json."""
    runs = []
    for path in sorted((ROOT / "corpus").glob("*.txt")):
        f = f"corpus/{path.name}"
        runs.append((["component-group", f], {}))
        runs.append((["component-group", f, "--p-part"], {}))
        for m in ("1", "2", "3"):
            for sub in ("torsion", "crys1", "phi-check"):
                runs.append(([sub, f, "--m", m], {}))
            runs.append((["crys1", f, "--m", m, "--oracle"], {}))
            runs.append((["verify", f, "--max-m", m, "--seed", "7"], {}))
        for sub in ("r1", "les"):
            runs.append(([sub, f], {}))
            for cap in ("1", "2", "12", "20"):
                runs.append(([sub, f, "--cap", cap], {}))
    for f in sweep_paths:
        runs += [(["les", f], {}), (["phi-check", f, "--m", "3"], {}),
                 (["r1", f], {}), (["component-group", f], {})]
    for f, m in oracle_inputs:
        runs.append((["crys1", f, "--m", str(m), "--oracle"], {}))
        runs.append((["verify", f, "--max-m", "1", "--seed", "7"], {}))
    runs.append((["crys1", budget_path, "--m", "1", "--oracle"], {}))
    for f in graph_paths:
        runs += [(["component-group", f], {}), (["crys1", f, "--m", "2"], {}),
                 (["verify", f, "--max-m", "2"], {})]
    runs += [(["component-group", f], {}) for f in malformed_paths]
    for v, p, m in TATE_CASES:
        runs.append((["tate", "--v", str(v), "--p", str(p), "--m", str(m)], {}))
    for p in PRIME_TEST_CASES:
        runs.append((["tate", "--v", "5", "--p", str(p), "--m", "1"], {}))
    ident = "corpus/t2_identity_p3.txt"
    runs += [
        (["crys1", ident, "--m", "9000"], {}),
        (["tate", "--v", "5", "--p", "5", "--m", "7000"], {}),
        (["torsion", ident, "--m", "9000"], {}),
        (["r1", ident, "--cap", "0"], {}),
        (["r1", ident, "--cap", "-5"], {}),
        (["les", ident, "--cap", "0"], {}),
        (["les", ident, "--cap", "-5"], {}),
        (["crys1", ident, "--m", "0"], {}),
        (["torsion", ident, "--m", "-1"], {}),
        (["r1", "corpus/no_such_file.txt"], {}),
        (["tate", "--v", "0", "--p", "5", "--m", "1"], {}),
        (["tate", "--v", "5", "--p", "4", "--m", "1"], {}),
        (["crys1", ident, "--m", "2", "--oracle"], {"CRYSTOR_ENUM_BUDGET": "10"}),
        (["crys1", ident, "--m", "1", "--oracle"], {"CRYSTOR_ENUM_BUDGET": "abc"}),
        (["component-group"], {}),
    ]
    return runs


# (argv, environment overrides) of the process-level pass
PROCESS_RUNS = [
    (["component-group", "corpus/t3_dense_p5.txt", "--p-part"], {}),
    (["torsion", "corpus/t3_dense_p5.txt", "--m", "2"], {}),
    (["crys1", "corpus/t3_dense_p5.txt", "--m", "2", "--oracle"], {}),
    (["phi-check", "corpus/t3_dense_p5.txt", "--m", "2", "--json"], {}),
    (["r1", "corpus/t3_dense_p5.txt"], {}),
    (["les", "corpus/t3_dense_p5.txt", "--json"], {}),
    (["tate", "--v", "5", "--p", "5", "--m", "2"], {}),
    (["verify", "corpus/t3_dense_p5.txt", "--max-m", "1"], {}),
    (["tate", "--v", "5", "--p", "6", "--m", "2"], {}),
    (["crys1", "corpus/tate_v05_p5.txt", "--m", "1", "--oracle"],
     {"CRYSTOR_ENUM_BUDGET": "1"}),
    (["--help"], {}),
]


def child(src: str) -> int:
    """Run every argument list read from stdin; write the results to stdout."""
    sys.path.insert(0, src)
    import crystor.cli

    if not Path(crystor.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported crystor from {crystor.cli.__file__}, not {src}")
    results = []
    for argv, env in json.load(sys.stdin):
        saved = {k: os.environ.get(k) for k in env}
        os.environ.update(env)
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = crystor.cli.main(argv)
        except SystemExit as e:  # argparse exits once it has printed help
            code = e.code
        except Exception as e:  # the command line would show a traceback
            err.write(f"uncaught {type(e).__name__}: {e}\n")
            code = 1
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        results.append((out.getvalue(), err.getvalue(), code))
    json.dump(results, sys.stdout)
    return 0


def run_tree(tree: Path, runs) -> list:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         str(tree / "src")],
        input=json.dumps(runs), capture_output=True, text=True, cwd=ROOT,
        check=False,
    )
    if proc.returncode:
        raise SystemExit(f"child for {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def run_processes(tree: Path) -> list:
    """(stdout, stderr, exit code) of ``python -m crystor`` per
    PROCESS_RUNS entry, importing crystor from ``tree``'s src/."""
    results = []
    for argv, env in PROCESS_RUNS:
        child_env = dict(os.environ, PYTHONPATH=str(tree / "src"), **env)
        child_env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run([sys.executable, "-m", "crystor", *argv],
                              capture_output=True, text=True, cwd=ROOT,
                              env=child_env, check=False)
        results.append((proc.stdout, proc.stderr, proc.returncode))
    return results


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("other", nargs="?", metavar="OTHER_TREE",
                    help="root of the checkout to compare against")
    ap.add_argument("--child", metavar="SRC", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        return child(args.child)
    if not args.other:
        ap.error("OTHER_TREE is required")
    other = Path(args.other).resolve()
    if not (other / "src" / "crystor").is_dir():
        ap.error(f"{other} has no src/crystor")

    with tempfile.TemporaryDirectory() as tmp:
        runs = [(argv + extra, env)
                for argv, env in argument_lists(write_sweep_inputs(Path(tmp)),
                                                write_oracle_inputs(Path(tmp)),
                                                write_budget_input(Path(tmp)),
                                                write_complete_graph_inputs(Path(tmp)),
                                                write_malformed_inputs(Path(tmp)))
                for extra in ([], ["--json"])]
        runs += [(["--help"], {})] + [([sub, "--help"], {}) for sub in SUBCOMMANDS]
        mine, theirs = run_tree(ROOT, runs), run_tree(other, runs)
    labels = [("crystor", argv, env) for argv, env in runs]
    labels += [("python -m crystor", argv, env) for argv, env in PROCESS_RUNS]
    mine += run_processes(ROOT)
    theirs += run_processes(other)
    differ = Counter()
    for (program, argv, env), a, b in zip(labels, mine, theirs):
        if a == b:
            continue
        differ[argv[0] if program == "crystor" else program] += 1
        prefix = " ".join(f"{k}={v}" for k, v in env.items())
        print(f"DIFF {prefix + ' ' if prefix else ''}{program} {' '.join(argv)}")
        for name, x, y in zip(("stdout", "stderr", "exit"), a, b):
            if x != y:
                print(f"  {name} here:  {x!r}")
                print(f"  {name} other: {y!r}")
    if differ:
        print("differing runs by subcommand: "
              + ", ".join(f"{sub} {k}" for sub, k in sorted(differ.items())))
    print(f"{len(labels)} runs, {differ.total()} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
