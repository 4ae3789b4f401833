"""Seeded request lists for the benchmark workloads.

Each workload is a fixed design of cells.  A cell fixes the properties
that set a request's cost: kind, derivative order, an eighth of one
log-band of Im(s), an eighth of the Re(s) range, the modulus of l and
the lambda of lerch.
The pool holds CANDIDATES concrete requests per cell, drawn from the
cell's ranges by a fixed pool seed.  The run seed picks one candidate
per cell (a traced run takes two distinct ones) and shuffles the order.
So every seed runs other inputs with the same composition, which keeps
the figures of two seeds comparable, and every pool request has a
precomputed reference value (perfbench/oracle_values.json), so no run
waits on mpmath.  No request is filtered on whether the current code
handles it.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

VALUES_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_values.json")
POOL_SEED = "zetalab-perfbench-1"
CANDIDATES = 4
SLOTS = 8  # a cell's candidates share one eighth of its log-band
T_MIN, T_MAX = 0.5, 1000.0  # Im(s) range, log-spread
KINDS = ("hurwitz", "z", "l", "lerch")


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    oracle: bool  # compared with a reference value (else checked structurally)
    rounds: int = 1  # timed this many times in a phase; the median time counts

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _num(x: float) -> str:
    return repr(round(x, 6))


def _log_band(rng: random.Random, lo: float, hi: float, band: int, bands: int, slot: int) -> float:
    """A point in eighth `slot % SLOTS` of log-band `band` of [lo, hi]."""
    width = (math.log(hi) - math.log(lo)) / bands
    return math.exp(math.log(lo) + width * (band + (slot % SLOTS + rng.random()) / SLOTS))


def _alpha(rng: random.Random) -> float:
    return max(round(1.0 - rng.random(), 6), 1e-6)  # (0, 1]


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


# the moduli 3..30 of l, banded by phi(q)
PHI_EDGES = (4, 8, 12, 20, 30)
L_MODULI = tuple(
    tuple(q for q in range(3, 31) if lo < euler_phi(q) <= hi) for lo, hi in zip((0,) + PHI_EDGES, PHI_EDGES)
)


def _eval_argv(rng: random.Random, kind: str, t: float, r: int, k: int) -> list[str]:
    """`k`, the cell's index in its (kind, r) column, fixes what else sets the cost:
    an eighth of (0, 3] for Re(s), the modulus of l (about phi(q) tails), and
    lambda = p/16 of lerch (the oscillatory tails cost about lambda; a dyadic
    lambda keeps the oracle exact)."""
    sigma = max(round(3.0 * ((5 * k + 3 * r) % SLOTS + rng.random()) / SLOTS, 6), 1e-6)
    argv = ["eval", "--kind", kind, "--s", f"{_num(sigma)},{_num(t)}", "--r", str(r)]
    if kind == "hurwitz":
        argv += ["--alpha", _num(_alpha(rng))]
    elif kind == "z":
        q = rng.randint(2, 30)
        argv += ["--q", str(q), "--a", str(rng.randint(1, q))]
    elif kind == "l":
        moduli = L_MODULI[(r + k) % len(L_MODULI)]
        q = moduli[(k + 2 * r) % len(moduli)]
        argv += ["--q", str(q), "--label", str(rng.randrange(1, euler_phi(q)))]
    else:
        argv += ["--lambda", repr((1 + (3 * k + r) % 15) / 16), "--alpha", _num(_alpha(rng))]
    return argv


# ---------------------------------------------------------------------------
# cell designs: each cell is a builder(rng, candidate index) -> Job; the
# cell's candidates share every property that sets the cost
# ---------------------------------------------------------------------------


def _eval_default_cells():
    bands = 12
    for kind in KINDS:
        for r in range(5):
            for tb in range(bands):

                def build(rng, c, kind=kind, r=r, tb=tb):
                    t = _log_band(rng, T_MIN, T_MAX, tb, bands, tb + 3 * r)
                    return Job(tuple(_eval_argv(rng, kind, t, r, tb) + ["--json"]), True)

                yield build


def _eval_fixed_split_cells():
    bands = 9
    for kind in KINDS:
        for r in range(5):
            for tb in range(bands):

                def build(rng, c, kind=kind, r=r, tb=tb):
                    t = _log_band(rng, T_MIN, T_MAX, tb, bands, tb + 3 * r)
                    x = _log_band(rng, 1.0, 60.0, (tb + 2 * r) % bands, bands, 3 * tb + r)
                    return Job(tuple(_eval_argv(rng, kind, t, r, tb) + ["--x", _num(x), "--json"]), True)

                yield build
    # hybrid route at the balanced split x = sqrt(q t / 2 pi), strip 0 < Re(s) < 1
    for kind, bands in (("hurwitz", 12), ("l", 9)):
        for r in range(3):
            for tb in range(bands):

                def build(rng, c, kind=kind, r=r, tb=tb, bands=bands):
                    t = _log_band(rng, T_MIN, T_MAX, tb, bands, tb + 3 * r)
                    # Re(s) in an eighth of (0.02, 0.98): where gamma overflows depends on it
                    sigma = round(0.02 + 0.12 * ((3 * tb + 5 * r) % SLOTS + rng.random()), 6)
                    argv = ["afe", "--kind", kind, "--s", f"{_num(sigma)},{_num(t)}", "--r", str(r)]
                    if kind == "hurwitz":
                        q = 1
                        argv += ["--alpha", _num(_alpha(rng))]
                    else:
                        # phi(q) = 2: each extra class multiplies the dual-sum panels
                        q = 3 + (tb + r) % 2
                        argv += ["--q", str(q), "--label", "1"]
                    x = math.sqrt(q * t / (2.0 * math.pi))
                    return Job(tuple(argv + ["--x", _num(x), "--json"]), True)

                yield build


def _primes(lo: int, hi: int, count: int, tag: str) -> list[int]:
    ok = [q for q in range(lo, hi + 1) if euler_phi(q) == q - 1]
    return sorted(random.Random(f"{POOL_SEED}:{tag}").sample(ok, count))


# Moduli "a few hundred" and "about 1000".  Primes in narrow windows: the
# character enumeration costs about phi(q)^2 and its divisor scans, so
# candidates of one band cost the same and the job order stays put.
LOW_MODULI = _primes(307, 337, CANDIDATES, "low")
HIGH_MODULI = _primes(967, 997, CANDIDATES, "high")
CERTIFY_BOUNDS = ("t2-ib", "t2-iib", "t2-iiib", "t3", "polya")
# The median job of a sweep pass sits in the cluster of mid-cost jobs
# (about 0.3-0.6 s at the defining commit): certify t2-ib, t2-iib and
# polya, the characters tables and L(1) at the low modulus.  Eight cheap
# tables below and seven costlier jobs above put it in the middle of that
# cluster, not on its edge, and each of its jobs is timed MID_ROUNDS times.
MID_ROUNDS = 3
MID_BOUNDS = ("t2-ib", "t2-iib", "polya")


def _cheap_cells():
    for kind in ("gamma", "beta", "gamma-aq", "lerch"):

        def build(rng, c, kind=kind):
            argv = ["coeff", "--kind", kind, "--r-max", "8"]
            if kind == "gamma-aq":
                q = rng.randint(2, 30)
                argv += ["--q", str(q), "--a", str(rng.randint(1, q))]
            else:
                argv += ["--alpha", _num(_alpha(rng))]
            if kind == "lerch":
                argv += ["--lambda", repr(rng.randint(1, 15) / 16)]
            return Job(tuple(argv + ["--json"]), True)

        yield build


def _sweep_cells():
    for bound in CERTIFY_BOUNDS:
        rounds = MID_ROUNDS if bound in MID_BOUNDS else 1
        yield lambda rng, c, bound=bound, rounds=rounds: Job(("certify", "--bound", bound, "--json"), False, rounds)
    yield from _cheap_cells()
    for moduli in (LOW_MODULI, HIGH_MODULI):
        for what in ("gamma-chi", "l-zero", "eval-l"):

            def build(rng, c, what=what, moduli=moduli):
                q = moduli[c]
                label = str(rng.randrange(1, euler_phi(q)))
                if what == "eval-l":
                    # r = 1 in every candidate: its cost grows by about a quarter from r = 0 to 2
                    argv = ["eval", "--kind", "l", "--s", "1,0", "--q", str(q), "--label", label, "--r", "1"]
                    rounds = MID_ROUNDS if moduli is LOW_MODULI else 1
                else:
                    r_max = "2" if what == "gamma-chi" else "3"
                    argv = ["coeff", "--kind", what, "--q", str(q), "--label", label, "--r-max", r_max]
                    rounds = 1
                return Job(tuple(argv + ["--json"]), True, rounds)

            yield build
    for i in range(3):
        yield lambda rng, c, i=i: Job(
            ("characters", "--q", str(LOW_MODULI[(c + i) % CANDIDATES]), "--json"), False, MID_ROUNDS
        )
    yield from _cheap_cells()  # a second table of each kind


WORKLOADS = {
    "eval-default": _eval_default_cells,
    "eval-fixed-split": _eval_fixed_split_cells,
    "sweep": _sweep_cells,
}


def load_values(path: str = VALUES_FILE) -> dict:
    """Reference values by request key, as oracle.py stores them."""
    with open(path) as fh:
        return json.load(fh)


def pool(workload: str) -> list[list[Job]]:
    """CANDIDATES jobs for every cell of the workload, independent of the run seed."""
    return [
        [build(random.Random(f"{POOL_SEED}:{workload}:{i}:{c}"), c) for c in range(CANDIDATES)]
        for i, build in enumerate(WORKLOADS[workload]())
    ]


def jobs(workload: str, seed: int, phase: int = 0) -> list[Job]:
    """The seeded request list of one phase: one candidate per cell, shuffled.

    Phases 0..CANDIDATES-1 of one seed take distinct candidates of every cell.
    """
    rng = random.Random(f"{workload}:{seed}")
    out = [cell[(rng.randrange(CANDIDATES) + phase) % CANDIDATES] for cell in pool(workload)]
    random.Random(f"{workload}:{seed}:{phase}").shuffle(out)
    return out
