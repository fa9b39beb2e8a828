"""Batch command line: constants, potentials, and verification suites.

All numeric output is exact (rational strings or cyclotomic coefficient
vectors); floating approximations appear only under --approx.  Randomised
suites draw from CPython's seeded Mersenne Twister and echo seed and
configuration into the report, so reruns are byte-identical.

Exit codes: 0 all checks pass, 1 verification failure or internal
consistency error, 2 usage error.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import random
import sys
from itertools import product as iproduct

from .combinatorics import (
    c_bracket,
    c_const,
    sym_c,
    verify_cbracket_generating,
    verify_remove_n,
    verify_symc_generating,
)
from .exactnum import NotRationalError, rat_str
from .genus0 import Profile, WellFoundednessError, euler_check, solve, wdvv_check
from .recursion import ConsistencyError, solve_recursion, wconstraint_report
from .reporting import CheckReport, SuiteReport
from .rootsys import RootData, cbracket_state, elem_sym_state, vandermonde_coeff

PRNG_NAME = "mersenne-twister (CPython random module)"


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _emit(payload: dict, args) -> None:
    payload = dict(payload)
    payload["content_hash"] = hashlib.sha256(
        _canonical_json(payload).encode()).hexdigest()
    text = (json.dumps(payload, indent=2, sort_keys=True)
            if args.format == "json" else _as_text(payload))
    _write(text, args)


def _write(text: str, args) -> None:
    if not args.out:
        print(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise _Usage(f"cannot write --out {args.out}: {exc.strerror or exc}") from None


def _check_out(path: str) -> None:
    """Fail an --out that cannot be opened for writing before any work runs.

    Only the path and its folder are inspected, so no file is created; the
    message is the one :func:`_write` would give after the work.
    """
    folder = os.path.dirname(path) or "."
    try:
        if not os.path.isdir(folder):
            os.stat(folder)  # a missing folder raises open()'s error
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not os.access(path if os.path.exists(path) else folder, os.W_OK):
            code = errno.EROFS if os.statvfs(folder).f_flag & os.ST_RDONLY else errno.EACCES
            raise OSError(code, os.strerror(code))
    except OSError as exc:
        raise _Usage(f"cannot write --out {path}: {exc.strerror}") from None


def _as_text(payload: dict) -> str:
    lines = []
    for k, v in payload.items():
        if k in ("results",):
            for r in v:
                mark = "ok" if r.get("pass") else "FAIL"
                lines.append(f"  [{mark}] {r.get('claim', '')}")
        else:
            lines.append(f"{k}: {json.dumps(v) if isinstance(v, (dict, list)) else v}")
    return "\n".join(lines)


def _scalar_text(s) -> str:
    try:
        return rat_str(s.to_rational())
    except NotRationalError:
        return str(s)


def cmd_constants(args) -> int:
    if args.h is None:
        raise _Usage("constants requires --h")
    rd = _rank(args.h - 1)
    try:
        tup = _parse_tuple(args.tuple)
        for a in tup:
            if not 1 <= a <= rd.h - 1:
                raise ValueError(f"entry {a} out of range 1..{rd.h - 1}")
    except ValueError as exc:
        raise _Usage(f"bad tuple: {exc}") from None
    label = ",".join(str(a) for a in tup)
    c = c_const(rd, tup)
    # (payload key, text label, value), computed once for either format
    rows = [("c", f"C({label})", c)]
    if tup:
        rows.append(("symc", f"SymC({label})", sym_c(rd, tup)))
        if all(a <= rd.N for a in tup):
            rows.append(("cbracket", f"C[{label}]", c_bracket(rd, tuple(sorted(tup)))))
    if args.format == "json":
        payload = {"h": rd.h, "tuple": list(tup)}
        payload.update((key, value.to_json()) for key, _, value in rows)
        _emit(payload, args)
        return 0
    lines = [f"{name} = {_scalar_text(value)}" for _, name, value in rows]
    if args.approx:
        lines.append(f"approx C = {c.approx(10):.10g}")
    _write("\n".join(lines), args)
    return 0


def cmd_potential(args) -> int:
    if args.n is None:
        raise _Usage("potential requires --n")
    rd = _rank(args.n)
    try:
        if args.genus == 0:
            profile = Profile(N=args.n, m_in=args.m_in, D=args.degree)
            pot = solve(rd, profile, m_out=args.m_in)
            payload = pot.to_json()
        else:
            table = solve_recursion(rd, args.genus, args.degree, m_in=args.m_in)
            payload = table.to_json()
    except (ConsistencyError, WellFoundednessError, NotRationalError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1
    _emit(payload, args)
    return 0


def _parse_tuple(text: str) -> tuple[int, ...]:
    text = (text or "").strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def _random_remove_n_cases(rd: RootData, trials: int, rng: random.Random):
    for _ in range(trials):
        blen = rng.randint(1, min(3, max(1, rd.N - 1)))
        b = tuple(sorted(rng.randint(1, rd.N - 1) for _ in range(blen)))
        bound = sum(b) % rd.h
        # cover the interior, the boundary m = bound, and the vanishing regime
        m = rng.choice([rng.randint(0, max(bound, 1)), bound, bound + rng.randint(1, 2)])
        yield b, m


# the option that carries each suite's rank: --h is the Coxeter number N + 1
_RANK_OPTION = {"remove-n": "h", "symstate": "h", "vandermonde": "h",
                "symc-gen": "h", "cbracket-gen": "h",
                "wdvv": "n", "euler": "n", "wconstraint": "n"}


def cmd_verify(args) -> int:
    suite = args.suite
    option = _RANK_OPTION.get(suite)
    if option is None:
        raise _Usage(f"unknown suite: {suite}")
    value = getattr(args, option)
    if value is None:
        raise _Usage(f"{suite} requires --{option}")
    rd = _rank(value - 1 if option == "h" else value)
    rng = random.Random(args.seed)
    config = {"suite": suite, "seed": args.seed, "trials": args.trials,
              "prng": PRNG_NAME, option: value}
    results = []
    if suite == "remove-n":
        if rd.N < 2:
            raise _Usage("remove-n requires h >= 3")
        for b, m in _random_remove_n_cases(rd, args.trials, rng):
            results.append(verify_remove_n(rd, b, m))
    elif suite == "symstate":
        e1 = elem_sym_state(rd, 1)
        results.append(CheckReport(claim=f"e1 state vanishes h={rd.h}",
                                   passed=e1.is_zero()))
        for r in range(2, rd.h + 1):
            same = cbracket_state(rd, r) == elem_sym_state(rd, r)
            results.append(CheckReport(
                claim=f"bracket state equals elementary state h={rd.h} r={r}",
                passed=same))
    elif suite == "vandermonde":
        for _ in range(args.trials):
            r = rng.randint(1, rd.h)
            idx = tuple(sorted(rng.sample(range(1, rd.h + 1), r)))
            val = vandermonde_coeff(rd, idx)
            results.append(CheckReport(
                claim=f"vandermonde h={rd.h} idx={list(idx)}",
                passed=val == rd.ctx.one, lhs=val.to_json()))
    elif suite == "symc-gen":
        for tup in _all_small_tuples(rd, 3):
            results.append(verify_symc_generating(rd, tup))
    elif suite == "cbracket-gen":
        for tup in _all_small_tuples(rd, 3):
            results.append(verify_cbracket_generating(rd, tup))
    elif suite == "wdvv":
        config["degree"] = args.degree
        # no index quadruple below rank 2, no third-derivative product below degree 3
        if rd.N >= 2 and args.degree >= 3:
            pot = solve(rd, Profile(N=args.n, m_in=0, D=args.degree))
            results.append(wdvv_check(args.n, pot.F, args.degree))
    elif suite == "euler":
        config["degree"] = args.degree
        # the potential starts cubic: below degree 3 there is no monomial to weigh
        if args.degree >= 3:
            pot = solve(rd, Profile(N=args.n, m_in=0, D=args.degree))
            results.append(euler_check(args.n, pot.F))
    elif suite == "wconstraint":
        config.update({"degree": args.degree, "genus": args.genus, "cap": args.cap})
        table = solve_recursion(rd, args.genus, args.degree, m_in=args.m_in)
        for a in range(1, args.n + 1):
            for m in range(args.m_max + 1):
                rep = wconstraint_report(table, a, m, args.cap)
                results.append(CheckReport(
                    claim=f"constraint residual a={a} m={m}",
                    passed=rep["pass"], witness=rep["residual_terms"] or None))
    if not results:
        raise _Usage(f"suite {suite} has no checks to run for this configuration")
    report = SuiteReport(suite=suite, config=config, results=results)
    _emit(report.to_json(), args)
    return 0 if report.passed else 1


def _all_small_tuples(rd: RootData, max_len: int):
    if rd.N < 2:
        return
    for r in range(1, max_len + 1):
        for tup in iproduct(range(1, rd.N), repeat=r):
            yield tup


class _Usage(Exception):
    """A usage error: :func:`main` prints the message and exits with 2."""


def _rank(n: int) -> RootData:
    try:
        return RootData(n)
    except ValueError as exc:
        raise _Usage(f"bad rank: {exc}") from None


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="anrec",
                                 description="exact residue recursion toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", default=None)

    p = sub.add_parser("constants", help="tuple constants C, SymC, C[.]")
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--tuple", default="")
    p.add_argument("--approx", action="store_true")
    common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("potential", help="solve the recursion and print the table")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--genus", type=_nonneg, default=0)
    p.add_argument("--degree", type=_nonneg, default=5)
    p.add_argument("--m-in", dest="m_in", type=_nonneg, default=0)
    common(p)
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--degree", type=_nonneg, default=5)
    p.add_argument("--genus", type=_nonneg, default=1)
    p.add_argument("--cap", type=_nonneg, default=3)
    p.add_argument("--m-max", dest="m_max", type=_nonneg, default=1)
    p.add_argument("--m-in", dest="m_in", type=_nonneg, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except _Usage as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
