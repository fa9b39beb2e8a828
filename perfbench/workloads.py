"""Job lists of the four benchmark workloads and what each one must produce.

Every job goes through a public entry point: ``anrec.cli.main`` with
``--format json``, or, for the negative control that the CLI cannot
express, library calls on the ``anrec`` package.  A workload's seed only
reaches the randomised suites and the negative control; the deterministic
ladders ignore it.  Seeds are folded onto ``VARIANTS`` input variants
(``seed % VARIANTS``) so that every seeded job has a golden digest recorded
at the commit that defined the benchmark.

Why each workload exists, and the frontier walls kept out of the timed
ladder, are written up in README.md next to this file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

VARIANTS = 16


@dataclass(frozen=True)
class Job:
    """One unit of work and the number of verdicts its output must carry."""

    name: str
    argv: tuple[str, ...] = ()   # CLI arguments; empty for the negative control
    verdicts: int = 0            # expected CheckReports in the output
    seeded: bool = False


def _g0(n: int, d: int, m_in: int) -> Job:
    # primary windows carry exactness, WDVV and Euler stamps; descendant
    # windows carry exactness only
    return Job(f"potential-n{n}-g0-d{d}-m{m_in}",
               ("potential", "--n", str(n), "--genus", "0", "--degree", str(d),
                "--m-in", str(m_in)),
               verdicts=3 if m_in == 0 else 1)


def _hg(n: int, g: int, d: int, m_in: int) -> Job:
    return Job(f"potential-n{n}-g{g}-d{d}-m{m_in}",
               ("potential", "--n", str(n), "--genus", str(g), "--degree", str(d),
                "--m-in", str(m_in)))


def _wc(n: int, d: int, g: int, cap: int, m_max: int, m_in: int) -> Job:
    return Job(f"wconstraint-n{n}-d{d}-g{g}-cap{cap}-mmax{m_max}-m{m_in}",
               ("verify", "wconstraint", "--n", str(n), "--degree", str(d),
                "--genus", str(g), "--cap", str(cap), "--m-max", str(m_max),
                "--m-in", str(m_in)),
               verdicts=n * (m_max + 1))


def _small_tuples(h: int) -> int:
    # the CLI's generating-identity suites check every tuple of length 1..3
    # over 1..h-2
    return sum((h - 2) ** r for r in range(1, 4))


def _suite(suite: str, h: int, verdicts: int, trials: int | None = None,
           seed: int | None = None, seeded: bool = False) -> Job:
    argv = ["verify", suite, "--h", str(h)]
    name = f"{suite}-h{h}"
    if trials is not None:
        argv += ["--trials", str(trials), "--seed", str(seed)]
        name += f"-t{trials}" if seeded else f"-t{trials}-s{seed}"
    return Job(name, tuple(argv), verdicts=verdicts, seeded=seeded)


CONTROL = Job("negative-control-n2", verdicts=1, seeded=True)

# RootData ranks that set-up builds for each workload, before any job runs.
RANKS = {
    "g0-tables": (2, 3, 5),
    "hg-solve": (1, 2, 3),
    "wconstraint-sweep": (2, 3),
    "identity-suites": (3, 5, 6, 11),
}

WORKLOADS = tuple(RANKS)


def jobs(workload: str, variant: int) -> list[Job]:
    """The ordered job list of one workload for one input variant."""
    if workload == "g0-tables":
        return [_g0(5, 7, 0), _g0(3, 6, 1), _g0(2, 7, 2)]
    if workload == "hg-solve":
        return [_hg(1, 4, 10, 3), _hg(2, 3, 7, 1), _hg(3, 2, 5, 0)]
    if workload == "wconstraint-sweep":
        return [_wc(3, 5, 1, 2, 0, 0), _wc(2, 5, 1, 3, 2, 1), CONTROL]
    if workload == "identity-suites":
        return [
            _suite("symc-gen", 4, _small_tuples(4)),
            _suite("cbracket-gen", 6, _small_tuples(6)),
            _suite("symstate", 6, 6),
            _suite("remove-n", 6, 300, trials=300, seed=variant, seeded=True),
            _suite("vandermonde", 12, 100, trials=100, seed=variant, seeded=True),
            # phi(7) = 6; a fixed seed, since the cost of remove-n at h=7
            # depends on the seed far more than the runs of one seed spread
            _suite("remove-n", 7, 12, trials=12, seed=0),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# Per-layer metrics (see layertrace.py) that each workload must drive above
# zero, and those it must leave at zero; a traced run that breaks either
# list is reported as incorrect, since its layer numbers would not measure
# what the workload was chosen for.
_EXACT = ("exactnum.mul_calls", "exactnum.add_calls", "exactnum.inv_calls",
          "exactnum.self_s")
PREDICTED_NONZERO = {
    "g0-tables": _EXACT + (
        "series.poly_mul_calls", "series.poly_mul_terms_out", "series.poly_mul_self_s",
        "series.lambda_mul_calls", "series.lambda_mul_self_s",
        "combinatorics.c_const_calls", "combinatorics.c_const_misses",
        "combinatorics.c_const_calls.genus0", "combinatorics.c_const_misses.genus0",
        "genus0.p_slice_calls", "genus0.p_slice_misses", "genus0.solve_self_s",
        "genus0.checks_s", "cli.emit_s", "cli.output_bytes", "reporting.verdicts"),
    "hg-solve": _EXACT + (
        "series.poly_mul_calls", "series.poly_mul_terms_out", "series.poly_mul_self_s",
        "recursion.w_slice_calls", "recursion.w_slice_misses", "recursion.w_hit_ratio",
        "recursion.solve_self_s", "genus0.p_slice_calls", "cli.emit_s",
        "cli.output_bytes"),
    "wconstraint-sweep": _EXACT + (
        "recursion.w_slice_calls", "recursion.w_slice_misses", "recursion.w_hit_ratio",
        "recursion.solve_self_s", "recursion.residual_s", "reporting.verdicts",
        "cli.emit_s", "cli.output_bytes"),
    "identity-suites": _EXACT + (
        "series.ypoly_mul_calls", "combinatorics.c_const_calls",
        "combinatorics.c_const_calls.combinatorics", "combinatorics.c_const_misses",
        "combinatorics.sym_c_calls",
        "combinatorics.c_bracket_calls", "combinatorics.verify_self_s",
        "rootsys.state_calls", "rootsys.vandermonde_calls", "rootsys.self_s",
        "reporting.verdicts", "cli.emit_s", "cli.output_bytes"),
}
PREDICTED_ZERO = {
    "g0-tables": ("recursion.w_slice_calls", "recursion.residual_s",
                  "rootsys.state_calls", "rootsys.vandermonde_calls"),
    "hg-solve": ("recursion.residual_s", "rootsys.state_calls"),
    "wconstraint-sweep": ("rootsys.state_calls", "rootsys.vandermonde_calls"),
    "identity-suites": ("genus0.p_slice_calls", "recursion.w_slice_calls",
                        "series.lambda_mul_calls"),
}


def golden_key(workload: str, job: Job, variant: int) -> str:
    key = f"{workload}/{job.name}"
    return f"{key}/v{variant}" if job.seeded else key


def negative_control(anrec, variant: int) -> tuple[bytes, int, int]:
    """Corrupt one genus-zero slice of a solved A_2 table; residuals must appear.

    The variant picks the one-point direction, the degree-2 monomial and the
    rational size of the corruption.  Returns the canonical JSON of the
    perturbation and of every residual, the number of verdicts (one) and the
    number of failed verdicts (one if every residual vanished).
    """
    from anrec.series import SparsePoly, Var

    rng = random.Random(variant)
    a = rng.randint(1, 2)
    monos = [((Var(0, 1), 2),), ((Var(0, 1), 1), (Var(0, 2), 1)), ((Var(0, 2), 2),)]
    mono = rng.choice(monos)
    coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    table = anrec.solve_recursion(anrec.RootData(2), 1, 5)
    table.solver.perturb(0, (Var(0, a),), 2, SparsePoly(None, {mono: coeff}))
    residuals = {b: anrec.w_residual(table, b, 0, cap=3, genus_cap=1) for b in (1, 2)}
    seen = any(not p.is_zero() for res in residuals.values() for p in res.values())
    payload = {
        "perturb": {"direction": [0, a], "monomial": [[list(v), e] for v, e in mono],
                    "coeff": str(coeff)},
        "residuals": {str(b): {str(g): p.to_json() for g, p in sorted(res.items())}
                      for b, res in residuals.items()},
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return text.encode(), 1, 0 if seen else 1
