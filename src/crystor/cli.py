"""Command-line front end.

Input files are plain key/value text with bracketed matrices:

    # Tate curve with q of valuation 5
    p = 5
    t = 1
    mu = [[5]]

Keys: ``p`` (prime), ``t`` (toric rank), ``mu`` (t x t symmetric integer
matrix), ``units`` (optional t x t grid of symbol names).  A ``#``
starts a comment anywhere on a line; matrices may span lines.

Every subcommand prints a human report by default and the canonical
machine report with ``--json``.  Exit codes: 0 success, 1 input error,
2 invariant-suite failure or route disagreement, 3 enumeration budget
exceeded.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# CPython's built-in SHA-256 where it has its own module (3.10, 3.11),
# as the random module takes its SHA-512: hashlib would load OpenSSL
# first, about 6 ms of CPU on every start, for the same digest
try:
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .abelian import FinAbGroup, IntMatrix, p_primary_part
from .crys import (
    component_group,
    crys1_torsion,
    les_report,
    oracle_crys1,
    phi_formula_check,
    phi_n,
    r1crys1_tors,
    tate_closed_form,
)
from .degen import DegenerationData, level_modulus
from .errors import ArtifactError, BadInput, ParseError
from .record import Record

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[+-]?[0-9]+")
_TOKEN_RE = re.compile(
    rf"\s*(?:([][,])|({_INT_RE.pattern})|({_IDENT_RE.pattern})|(\S))")
# each input key and the kind of its matrix entries; None for a single integer
_KEYS = {"p": None, "t": None, "mu": "int", "units": "name"}


# ---------------------------------------------------------------------------
# input parsing


def _tokens(lines: list[str], i: int, j: int):
    """(kind, text, 1-based (line, col)) per token of the comment-stripped
    lines from 0-based (i, j) on; a bracket or comma is its own kind.
    Newlines count as whitespace, so a matrix continues onto following
    lines until its brackets balance.  Any other character raises."""
    for i in range(i, len(lines)):
        for tok in _TOKEN_RE.finditer(lines[i], j):
            group = tok.lastindex  # 1 bracket or comma, 2 int, 3 name, 4 other
            text = tok[group]
            pos = (i + 1, tok.start(group) + 1)
            if group == 4:
                raise ParseError(f"unexpected character {text!r}", *pos)
            yield (text, "int", "name")[group - 1], text, pos
        j = 0


def _parse_matrix(lines: list[str], i: int, j: int, kind: str, key: str):
    """Parse a bracketed matrix of ``kind`` ("int" or "name") entries
    starting at 0-based (i, j); returns the row lists and the line index
    where parsing should resume."""
    tokens = _tokens(lines, i, j)

    def take(open_pos: tuple[int, int]) -> tuple[str, str, tuple[int, int]]:
        token = next(tokens, None)
        if token is None:
            raise ParseError("unclosed '[' in matrix", *open_pos)
        return token

    def items(open_pos, empty: str, after: str, item) -> tuple[list, tuple[int, int]]:
        """A comma-separated list closed by ']', its '[' at open_pos:
        item(typ, text, pos) reads each entry from its first token.
        Returns the entries and the position of the ']'."""
        typ, text, pos = take(open_pos)
        if typ == "]":
            raise ParseError(empty, *pos)
        entries = []
        while True:
            entries.append(item(typ, text, pos))
            typ, text, pos = take(open_pos)
            if typ == "]":
                return entries, pos
            if typ != ",":
                raise ParseError(f"expected ',' or ']' {after}, found {text!r}", *pos)
            typ, text, pos = take(open_pos)

    what, convert = ("an integer", int) if kind == "int" else ("a symbol name", str)

    def entry(typ: str, text: str, pos: tuple[int, int]):
        if typ != kind:
            raise ParseError(f"expected {what} in {key}, found {text!r}", *pos)
        return convert(text)

    def row(typ: str, text: str, pos: tuple[int, int]) -> tuple[list, tuple[int, int]]:
        if typ != "[":
            raise ParseError(
                f"expected '[' to start a row of {key}, found {text!r}", *pos)
        return items(pos, f"a row of {key} needs at least one entry",
                     f"in a row of {key}", entry)[0], pos

    _, _, open_pos = take((i + 1, j + 1))
    rows, pos = items(open_pos, f"{key} needs at least one row",
                      f"after a row of {key}", row)
    width = len(rows[0][0])
    for k, (entries, row_open) in enumerate(rows, 1):
        if len(entries) != width:
            raise ParseError(
                f"row {k} of {key} has {len(entries)} entries, expected {width}",
                *row_open,
            )
    # the rest of the closing bracket's line
    line, col = pos
    rest = lines[line - 1][col:]
    if rest.strip():
        pad = len(rest) - len(rest.lstrip())
        raise ParseError(f"unexpected text after {key}", line, col + pad + 1)
    return [entries for entries, _ in rows], line


def parse_input(text: str) -> DegenerationData:
    """Parse and validate a degeneration-data file.

    Parse errors carry a 1-based line and column; validation errors name
    the offending field.
    """
    # cut each comment suffix only, so columns before the '#' keep their
    # positions
    lines = [raw.split("#", 1)[0] for raw in text.split("\n")]
    entries: dict[str, tuple] = {}
    i = 0
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        lineno = i + 1
        col = len(line) - len(line.lstrip()) + 1
        eq = line.find("=")
        if eq < 0:
            raise ParseError("expected 'key = value'", lineno, col)
        key = line[:eq].strip()
        if not _IDENT_RE.fullmatch(key):
            raise ParseError("expected a key name before '='", lineno, col)
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}", lineno, col)
        kind = _KEYS[key]
        if key in entries:
            raise ParseError(f"duplicate key {key!r}", lineno, col)
        rest = line[eq + 1:]
        value_text = rest.strip()
        if not value_text:
            raise ParseError(f"missing value for {key!r}", lineno, eq + 2)
        vcol = eq + 1 + (len(rest) - len(rest.lstrip()))
        if value_text[0] == "[":
            if kind is None:
                raise ParseError(f"{key} must be a single integer",
                                 lineno, vcol + 1)
            rows, i = _parse_matrix(lines, i, vcol, kind, key)
            entries[key] = (rows, lineno, vcol + 1)
        else:
            if kind is not None:
                raise ParseError(f"{key} must be a bracketed matrix",
                                 lineno, vcol + 1)
            if not _INT_RE.fullmatch(value_text):
                raise ParseError(f"expected an integer value for {key!r}",
                                 lineno, vcol + 1)
            entries[key] = (int(value_text), lineno, vcol + 1)
            i += 1
    for key in ("p", "t", "mu"):
        if key not in entries:
            raise ParseError(f"missing key {key!r}")
    p_val = entries["p"][0]
    t_val, t_line, t_col = entries["t"]
    if t_val < 1:
        raise ParseError("t must be at least 1", t_line, t_col)
    for key in ("mu", "units"):
        if key in entries:
            rows, line, col = entries[key]
            if len(rows) != t_val or len(rows[0]) != t_val:
                raise ParseError(
                    f"{key} is {len(rows)}x{len(rows[0])}, "
                    f"expected {t_val}x{t_val}",
                    line, col,
                )
    units = None
    if "units" in entries:
        units = tuple(tuple(row) for row in entries["units"][0])
    return DegenerationData(p_val, IntMatrix.from_rows(entries["mu"][0]), units)


def _load(path: str) -> tuple[DegenerationData, str]:
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise BadInput(f"cannot read {path}: {e.strerror or e}") from None
    digest = sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not valid UTF-8: {e}") from None
    try:
        return parse_input(text), digest
    except ParseError as e:
        # keep the embedded position, add the file name
        raise ParseError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# reports


class Report(Record):
    """One command's result: echo, input digest, payload, and the human
    rendering."""

    __slots__ = _fields = ("command", "digest", "payload", "human")

    def machine(self) -> str:
        # imported here, so runs with human output never load json
        import json

        doc = {
            "command": self.command,
            "input_sha256": self.digest,
            "result": self.payload,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _group_doc(g: FinAbGroup) -> dict:
    return {
        "invariant_factors": list(g.invariant_factors),
        "order": g.order,
        "group": str(g),
    }


def _matrix_lines(rows) -> list[str]:
    return ["  [" + ", ".join(str(x) for x in row) + "]" for row in rows]


def _yn(flag: bool) -> str:
    return "yes" if flag else "NO"


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed arguments and the loaded input, and
# returns its payload, its human lines and its exit code


def _cmd_component_group(args, data):
    phi = component_group(data)
    payload = _group_doc(phi)
    lines = [f"component group: {phi} (order {phi.order})"]
    if args.p_part:
        pp = p_primary_part(phi, data.p)
        payload["p_primary"] = _group_doc(pp)
        lines.append(f"p-primary part (p = {data.p}): {pp}")
    return payload, lines, 0


def _cmd_torsion(args, data):
    n = level_modulus(data.p, args.m)
    t = data.t
    vals = [list(row) for row in data.mu.mod(n).as_rows()]
    symbols = [[data.symbol(i, j) for j in range(t)] for i in range(t)]
    labels = [f"x{i + 1}" for i in range(t)] + [f"y{i + 1}" for i in range(t)]
    ambient = n ** (2 * t)
    payload = {
        "m": args.m,
        "n": n,
        "t": t,
        "val_matrix": vals,
        "unit_symbols": symbols,
        "generators": labels,
        "orders": [n] * (2 * t),
        "ambient_order": ambient,
    }
    lines = [f"torsion at level m = {args.m} (n = {n}), rank t = {t}"]
    lines.append(f"valuations mod {n}:")
    lines += _matrix_lines(vals)
    lines.append("unit symbols:")
    lines += _matrix_lines(symbols)
    lines.append(f"generators {', '.join(labels)}, each of order {n}; "
                 f"ambient order {ambient}")
    return payload, lines, 0


def _crys1_payload(rep) -> dict:
    return {
        "n": rep.n,
        "t": rep.t,
        "invariant_factors": list(rep.group.invariant_factors),
        "order": rep.group.order,
        "group": str(rep.group),
        "generators": [list(g) for g in rep.generators],
        "generator_orders": list(rep.generator_orders),
        "is_full": rep.is_full,
        "ambient_order": rep.ambient_order,
    }


def _generator_lines(rep) -> list[str]:
    lines = ["generators (x coordinates first, then y):"]
    for gen, order in zip(rep.generators, rep.generator_orders):
        vec = ", ".join(str(x) for x in gen)
        lines.append(f"  ({vec}) of order {order}")
    lines.append(f"spans the full module: {'yes' if rep.is_full else 'no'}")
    return lines


def _cmd_crys1(args, data):
    rep = crys1_torsion(data, args.m)
    payload = {"m": args.m}
    payload.update(_crys1_payload(rep))
    lines = [f"crys1 at level m = {args.m} (n = {rep.n}): "
             f"{rep.describe()} (order {rep.group.order})"]
    lines += _generator_lines(rep)
    code = 0
    if args.oracle:
        ora = oracle_crys1(data, args.m)
        agrees = ora.group == rep.group and ora.lattice() == rep.lattice()
        payload["oracle"] = {
            "invariant_factors": list(ora.group.invariant_factors),
            "order": ora.group.order,
            "agrees": agrees,
        }
        lines.append(f"oracle: {ora.group} (order {ora.group.order}), "
                     f"agreement: {_yn(agrees)}")
        if not agrees:
            code = 2
    return payload, lines, code


def _cmd_phi_check(args, data):
    quotient, agrees = phi_formula_check(data, args.m)
    kernel_side = phi_n(data, args.m)
    payload = {
        "m": args.m,
        "n": data.p ** args.m,
        "quotient_invariant_factors": list(quotient.invariant_factors),
        "kernel_invariant_factors": list(kernel_side.invariant_factors),
        "agrees": agrees,
    }
    lines = [
        f"crys1 / toric part at level m = {args.m}: {quotient}",
        f"component-group {data.p}^{args.m}-torsion: {kernel_side}",
        f"agreement: {_yn(agrees)}",
    ]
    return payload, lines, 0 if agrees else 2


def _cmd_r1(args, data):
    g = r1crys1_tors(data, cap=args.cap)
    payload = {"cap": args.cap}
    payload.update(_group_doc(g))
    return payload, [f"stable torsion (p = {data.p}): {g} (order {g.order})"], 0


def _cmd_les(args, data):
    rep = les_report(data, cap=args.cap)
    payload = {
        "cap": rep.cap,
        "stabilized_at": rep.stabilized_at,
        "tate_rank": rep.tate_rank,
        "rational_rank": rep.rational_rank,
        "divisible_rank": rep.divisible_rank,
        "colimit_torsion": list(rep.colimit_torsion.invariant_factors),
        "r1_torsion": list(rep.r1_torsion.invariant_factors),
        "levels": [
            {
                "m": lv.m,
                "orders_match": lv.orders_match,
                "surjective": lv.surjective,
                "ok": lv.ok(),
            }
            for lv in rep.levels
        ],
        "exact": rep.exact,
    }
    lines = [
        f"long exact sequence, cap {rep.cap}:",
        f"  torsion stabilizes at m = {rep.stabilized_at}",
        f"  tate rank {rep.tate_rank}, rational rank {rep.rational_rank}, "
        f"divisible rank {rep.divisible_rank}",
        f"  colimit torsion: {rep.colimit_torsion}",
        f"  stable torsion: {rep.r1_torsion}",
    ]
    for lv in rep.levels:
        lines.append(f"  level m = {lv.m}: {'ok' if lv.ok() else 'FAIL'}")
    lines.append(f"exact: {_yn(rep.exact)}")
    return payload, lines, 0 if rep.exact else 2


def _cmd_tate(args, data):
    rep = tate_closed_form(args.v, args.p, args.m)
    payload = {"v": args.v, "p": args.p, "m": args.m,
               "description": rep.describe()}
    payload.update(_crys1_payload(rep))
    lines = [f"tate curve v = {args.v}, p = {args.p}, m = {args.m}: "
             f"{rep.describe()}"]
    lines += _generator_lines(rep)
    return payload, lines, 0


def _cmd_verify(args, data):
    # the suite, and the pushout layer under it, load for this command alone
    from .verify import _verify_checks

    checks = _verify_checks(data, args.max_m, args.seed)
    passed = sum(1 for _, ok, _ in checks if ok)
    payload = {
        "max_m": args.max_m,
        "seed": args.seed,
        "checks": [
            {"name": name, "ok": ok, "detail": detail}
            for name, ok, detail in checks
        ],
        "passed": passed,
        "total": len(checks),
    }
    lines = []
    for name, ok, detail in checks:
        if ok:
            lines.append(f"ok {name}")
        elif detail:
            lines.append(f"FAIL {name}: {detail}")
        else:
            lines.append(f"FAIL {name}")
    lines.append(f"passed {passed}/{len(checks)}")
    return payload, lines, 0 if passed == len(checks) else 2


# ---------------------------------------------------------------------------
# dispatch

_M = ("--m", {"type": int, "required": True,
              "help": "level exponent; the modulus is p^m"})
_CAP = ("--cap", {"type": int, "default": 12,
                  "help": "largest level to test for stabilization"})

# name -> (help text, handler, reads FILE, options in echo order); the
# echo is the name, then each switch only when set and every other
# option with its value
_SUBCOMMANDS = {
    "component-group": (
        "invariant factors of the component group", _cmd_component_group, True,
        [("--p-part", {"action": "store_true",
                       "help": "also print the p-primary part"})]),
    "torsion": ("valuations and unit symbols of the level-m torsion",
                _cmd_torsion, True, [_M]),
    "crys1": (
        "maximal 1-crystalline submodule at level m", _cmd_crys1, True,
        [_M, ("--oracle", {"action": "store_true",
                           "help": "cross-check by evaluating mu mod p^m on "
                                   "every etale vector"})]),
    "phi-check": ("compare the crys1 quotient with component-group torsion",
                  _cmd_phi_check, True, [_M]),
    "r1": ("stable torsion of the level tower", _cmd_r1, True, [_CAP]),
    "les": ("finite-level long-exact-sequence report", _cmd_les, True, [_CAP]),
    "tate": (
        "closed form for a rank-one lattice", _cmd_tate, False,
        [("--v", {"type": int, "required": True,
                  "help": "valuation of the period q"}),
         ("--p", {"type": int, "required": True, "help": "residue prime"}), _M]),
    "verify": (
        "run the full invariant suite on an input file", _cmd_verify, True,
        [("--max-m", {"type": int, "default": 3,
                      "help": "largest level for the per-level checks"}),
         ("--seed", {"type": int, "default": 0,
                     "help": "seed for the randomized checks"})]),
}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise BadInput(message)


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand's name and help.  When ``argv``
    starts with a subcommand's name, only that subcommand gets its
    arguments, since parsing reaches no other; else every one does, so
    the program's help and its usage errors read the same either way."""
    parser = _ArgumentParser(
        prog="crystor",
        description="Maximal 1-crystalline torsion of totally degenerate "
                    "semistable degeneration data.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="SUBCOMMAND")
    named = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    for name, (help_text, _, reads_file, options) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text, description=help_text)
        if named not in (None, name):
            continue
        sp.add_argument("--json", action="store_true",
                        help="emit the canonical machine report")
        if reads_file:
            sp.add_argument("input", metavar="FILE",
                            help="degeneration-data input file")
        for flag, keywords in options:
            sp.add_argument(flag, **keywords)
    return parser


def _run(args) -> tuple[Report, int]:
    _, handler, reads_file, options = _SUBCOMMANDS[args.command]
    if reads_file:
        data, digest = _load(args.input)
    else:  # tate: the digest of its parameters
        data = None
        digest = sha256(f"v={args.v} p={args.p} m={args.m}".encode()).hexdigest()
    payload, lines, code = handler(args, data)
    echo = [args.command]
    for flag, keywords in options:
        value = getattr(args, flag[2:].replace("-", "_"))
        if keywords.get("action") != "store_true":
            echo += [flag, str(value)]
        elif value:
            echo.append(flag)
    return Report(" ".join(echo), digest, payload, "\n".join(lines)), code


def run_command(argv: list[str]) -> tuple[Report, int]:
    """Parse argv and run the subcommand; returns the report and exit
    code, raising ArtifactError subclasses on bad input."""
    return _run(build_parser(argv).parse_args(argv))


def main(argv: list[str] | None = None) -> int:
    # answers are exact, so a large level or entry prints all its digits
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv).parse_args(argv)
        report, code = _run(args)
    except ArtifactError as e:
        print(f"error: {e.identifier}: {e}", file=sys.stderr)
        return e.exit_code
    sys.stdout.write(report.machine() if args.json else report.human + "\n")
    return code
