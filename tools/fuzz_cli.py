"""The CLI contract under generated requests, at length: the long form of
tests/test_cli_generated.py.

Draws derandomized argvs (10 000 by default) from that module's strategies
(requests), runs each through zetalab.cli.run in process under a 15 s alarm
with warnings recorded, and checks it with the module's own assertions
(contract_defects).  It prints one line per defect, the defect and then the
argv, and nothing else: no output means every request kept the contract.

Run it from the root of a checkout:

    python3 tools/fuzz_cli.py            # 10 000 requests
    python3 tools/fuzz_cli.py 500        # a shorter run
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from hypothesis import HealthCheck, Phase, given, settings  # noqa: E402

from tests.test_cli_generated import contract_defects, requests  # noqa: E402


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 10_000

    @settings(max_examples=count, derandomize=True, database=None, deadline=None, phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(requests())
    def check(request):
        for defect in contract_defects(request):
            print(f"{defect}: {' '.join(request)}", flush=True)

    check()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
