"""In-process timings of the ROADMAP Baseline rows that serve as "done when"
targets: the best of N calls of each, timed with time.perf_counter.

    l_deriv q=1009            l_deriv at q = 1009, label 1, s = 0.5+1000i, r = 1
    l_deriv q=1009 r=3        the same at r = 3: the finite sum's (-log p)^r
                              beyond the square
    l_deriv q=1009 X=4036     l_deriv at q = 1009, label 1, s = 0.5+100i, r = 1,
                              split X = 4q: one plain-tail batch of 1008 rows
    L2(1,chi) all chi 1009    L^{(2)}(1, chi) for every non-principal chi mod
                              1009 in one batch (characters built beforehand)
    gauss_sum all chi 1009    gauss_sum(chi, 1) for every chi mod 1009, the
                              characters built beforehand and their cached
                              values cleared before each call
    certify_T3 101 103 107    certify_T3(q_set=(101, 103, 107))
    enumerate_characters 2003 enumerate_characters(2003), its unit group cached
    coeff l-zero q=971 r_max=3
                              coefficient_table("l_deriv_at_zero", 3) at
                              q = 971, label 1: the finite sums at real s = 0
    stieltjes_gamma_all 20    stieltjes_gamma_all(20, 0.3)
    certify_T2_Ib             certify_T2_Ib() at its default grid
    hurwitz_deriv t=1e4       hurwitz_deriv at alpha = 0.3, s = 0.5+10^4 i, r = 1
    hurwitz_deriv t=1e5       the same at s = 0.5+10^5 i and s = 0.5+10^6 i:
    hurwitz_deriv t=1e6       the cutoff searches and far tails at large |b|
    afe_hurwitz t=200         afe_hurwitz at alpha = 1, s = 0.5+200i, r = 0, the
                              balanced split x = sqrt(t/2 pi)
    afe_hurwitz t=450 r=1     afe_hurwitz at alpha = 0.871613,
                              s = 0.484462+449.835876i, r = 1, x = 8.4613
    afe_l q=3 t=450           afe_l at q = 3, label 1, s = 0.135785+449.699845i,
                              r = 0, X = 14.653186
    afe_l q=4 t=100 r=2       afe_l at q = 4, label 1, s = 0.5+100i, r = 2, the
                              balanced split X = sqrt(q t/2 pi)
    lerch_deriv x=3           lerch_deriv at lambda = 0.3, alpha = 0.7,
                              s = 0.5+300i, r = 2, split x = 3
    lerch_deriv 0.3 x=5000    the same at split x = 5000: a finite sum of 5000
                              terms at a lambda with more than 26 fractional bits
    tail lambda=15/16 t=300 r=4
                              psi_osc_tail_powers at nu = 15/16, alpha = 0.7,
                              b = -1.5+300i, r = 4, x = 3: a sawtooth-weighted
                              panel walk to its cutoff near 1700

and the far-tail expansion layer alone, each call with the caches that a
new request fills (the derivative tables, the shift sums) cleared first:

    deriv table r=20          sawtooth._deriv_table(-1.5-30i, 20, 16, -1): the
                              derivative table of every order r <= 20
    _tail_cutoff s=0.5+30i    sawtooth._tail_cutoff at one class, alpha = 0.3,
    _tail_cutoff r=20         b = -s-1, s = 0.5+30i, r = 2 and r = 20: the
                              plain tail's cutoff search and its far tails
    shift sums nu=1/16        sawtooth._psi_fourier_shift_sums(16, 123.3, nu)
    shift sums nu=12/16
    shift sums nu=15/16
    lerch_deriv 15/16 t=30    lerch_deriv at the default split, lambda = 15/16,
                              alpha = 0.7, s = 0.5+30i, r = 1

and whole CLI requests, zetalab.cli.run in process with its report captured
(so the parse and the JSON rendering count; only the public run is read, so
the rows time any checkout):

    cli eval hurwitz s=2      eval --kind hurwitz --s 2,0 --json
    cli eval lerch t=52.8     eval --kind lerch --s 2.470582,52.843021 --r 1
                              --lambda 0.5 --alpha 0.964238 --json (an
                              eval-default pool request)
    cli characters q=307      characters --q 307 --json (a sweep pool request)
    cli certify polya         certify --bound polya --json (a sweep pool request)
    cli certify t3            certify --bound t3 --json: 504 cases through the
                              JSON writer
    cli characters q=2003     characters --q 2003 --json: the 179 MB listing
    cli eval lerch x=31.6 t=716 r=4
                              eval --kind lerch --s 1.825026,716.331486 --r 4
                              --lambda 0.875 --alpha 0.727297 --x 31.605887
                              --json (the slowest eval-fixed-split pool request)

Run it from the root of a checkout, or give the root of another checkout
to time that one (so that two commits are timed in the same window):

    python3 tools/baseline_times.py                    # this checkout, best of 5
    python3 tools/baseline_times.py ../other --repeat 10
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys
import time


def _best(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))

    from zetalab.afe import afe_hurwitz, afe_l
    from zetalab.bounds import certify_T2_Ib, certify_T3
    from zetalab.cli import run
    from zetalab.characters import character, enumerate_characters, gauss_sum
    from zetalab.coefficients import coefficient_table, l_deriv_at_1_exact_all, stieltjes_gamma_all
    from zetalab.evaluate import HurwitzArgs, LerchArgs, hurwitz_deriv, l_deriv, lerch_deriv
    from zetalab.sawtooth import _deriv_table, _psi_fourier_shift_sums, _tail_cutoff, psi_osc_tail_powers

    def fresh(fn):
        """fn with the caches a new request fills cleared before each call."""

        def call():
            _deriv_table.cache_clear()
            _psi_fourier_shift_sums.cache_clear()
            return fn()

        return call

    def request(*argv):
        """cli.run on argv, its report captured."""

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return run(list(argv))

        return call

    chi, chi3, chi4, chi971 = character(1009, 1), character(3, 1), character(4, 1), character(971, 1)
    chars = [c for c in enumerate_characters(1009) if not c.is_principal]
    chars1009 = enumerate_characters(1009)

    def gauss_sums():
        for c in chars1009:
            vars(c).pop("values", None)
            vars(c).pop("value_logs", None)
        return [gauss_sum(c, 1) for c in chars1009]

    rows = [
        ("l_deriv q=1009", lambda: l_deriv(complex(0.5, 1000.0), chi, 1)),
        ("l_deriv q=1009 r=3", lambda: l_deriv(complex(0.5, 1000.0), chi, 3)),
        ("l_deriv q=1009 X=4036", lambda: l_deriv(complex(0.5, 100.0), chi, 1, 4036.0)),
        ("L2(1,chi) all chi 1009", lambda: l_deriv_at_1_exact_all(2, chars)),
        ("gauss_sum all chi 1009", gauss_sums),
        ("certify_T3 101 103 107", lambda: certify_T3(q_set=(101, 103, 107))),
        ("enumerate_characters 2003", lambda: enumerate_characters(2003)),
        ("coeff l-zero q=971 r_max=3", lambda: coefficient_table("l_deriv_at_zero", 3, chi=chi971)),
        ("stieltjes_gamma_all 20", lambda: stieltjes_gamma_all(20, 0.3)),
        ("certify_T2_Ib", certify_T2_Ib),
        ("hurwitz_deriv t=1e4", lambda: hurwitz_deriv(HurwitzArgs(s=complex(0.5, 1e4), alpha=0.3, order=1))),
        ("hurwitz_deriv t=1e5", lambda: hurwitz_deriv(HurwitzArgs(s=complex(0.5, 1e5), alpha=0.3, order=1))),
        ("hurwitz_deriv t=1e6", lambda: hurwitz_deriv(HurwitzArgs(s=complex(0.5, 1e6), alpha=0.3, order=1))),
        ("afe_hurwitz t=200", lambda: afe_hurwitz(complex(0.5, 200.0), 1.0, 0, math.sqrt(200.0 / (2.0 * math.pi)))),
        ("afe_hurwitz t=450 r=1", lambda: afe_hurwitz(complex(0.484462, 449.835876), 0.871613, 1, 8.4613)),
        ("afe_l q=3 t=450", lambda: afe_l(complex(0.135785, 449.699845), chi3, 0, 14.653186)),
        ("afe_l q=4 t=100 r=2", lambda: afe_l(complex(0.5, 100.0), chi4, 2, math.sqrt(400.0 / (2.0 * math.pi)))),
        ("lerch_deriv x=3", lambda: lerch_deriv(LerchArgs(lam=0.3, alpha=0.7, s=complex(0.5, 300.0), order=2, split=3.0))),
        ("lerch_deriv 0.3 x=5000", lambda: lerch_deriv(LerchArgs(lam=0.3, alpha=0.7, s=complex(0.5, 300.0), order=2, split=5000.0))),
        ("tail lambda=15/16 t=300 r=4", lambda: psi_osc_tail_powers(15.0 / 16.0, 0.7, complex(-1.5, 300.0), 4, 3.0)),
        ("deriv table r=20", fresh(lambda: _deriv_table(complex(-1.5, -30.0), 20, 16, -1.0))),
        ("_tail_cutoff s=0.5+30i", fresh(lambda: _tail_cutoff([0.3], complex(-1.5, -30.0), 2))),
        ("_tail_cutoff r=20", fresh(lambda: _tail_cutoff([0.3], complex(-1.5, -30.0), 20))),
        ("shift sums nu=1/16", fresh(lambda: _psi_fourier_shift_sums(16, 123.3, 1.0 / 16.0))),
        ("shift sums nu=12/16", fresh(lambda: _psi_fourier_shift_sums(16, 123.3, 12.0 / 16.0))),
        ("shift sums nu=15/16", fresh(lambda: _psi_fourier_shift_sums(16, 123.3, 15.0 / 16.0))),
        ("lerch_deriv 15/16 t=30", fresh(lambda: lerch_deriv(LerchArgs(lam=15.0 / 16.0, alpha=0.7, s=complex(0.5, 30.0), order=1)))),
        ("cli eval hurwitz s=2", request("eval", "--kind", "hurwitz", "--s", "2,0", "--json")),
        (
            "cli eval lerch t=52.8",
            request("eval", "--kind", "lerch", "--s", "2.470582,52.843021", "--r", "1", "--lambda", "0.5", "--alpha", "0.964238", "--json"),
        ),
        ("cli characters q=307", request("characters", "--q", "307", "--json")),
        ("cli certify polya", request("certify", "--bound", "polya", "--json")),
        ("cli certify t3", request("certify", "--bound", "t3", "--json")),
        ("cli characters q=2003", request("characters", "--q", "2003", "--json")),
        (
            "cli eval lerch x=31.6 t=716 r=4",
            request("eval", "--kind", "lerch", "--s", "1.825026,716.331486", "--r", "4", "--lambda", "0.875", "--alpha", "0.727297", "--x", "31.605887", "--json"),
        ),
    ]
    for name, fn in rows:
        print(f"{name:32s} {_best(fn, args.repeat) * 1e3:9.2f} ms", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
