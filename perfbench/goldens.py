"""Check, or write, the committed golden stdout of every default-seed
invocation against routes that share no code with the library.

    python3 perfbench/goldens.py            # check the goldens against oracle.py
    python3 perfbench/goldens.py --brute    # also recount with tests/oracles.py
    python3 perfbench/goldens.py --write    # run the CLI and write goldens that pass

``--brute`` recounts the ``visible`` and ``exp-p`` goldens point by point
with the test suite's brute-force oracle, which takes a few minutes.  The
other goldens are too large for it: the row count rests on Euler's
criterion, the bad sets on the hand derivations in oracle.py, and exp-a on
the row-by-row histogram, whose level counts must total X * Y.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import oracle
import run
import workloads

sys.path.insert(0, str(run.ROOT / "tests"))
import oracles  # noqa: E402  (the test suite's brute-force oracle)

E_TERMS = {(0, 2): 1, (3, 0): -1, (1, 0): -1, (0, 0): -1}


def brute_check(inv: workloads.Invocation, doc: dict) -> bool | None:
    """Recount a golden document by brute force; None when too large."""
    cmd = inv.argv[0]
    if cmd == "visible":
        n = oracles.count_visible_brute(E_TERMS, doc["p"], doc["a"], doc["X"], doc["Y"])
        return n == doc["visible_direct"] == doc["visible_mobius"]
    if cmd == "exp-p":
        rec = doc["records"][0]
        T, X, Y = rec["T"], rec["X"], rec["Y"]
        devs = [abs(oracles.count_visible_brute(E_TERMS, q, 0, X, Y)
                    - 6.0 / (math.pi * math.pi) * (X * Y) / q)
                for q in oracles.primes_brute(math.ceil(T / 2), math.floor(T))]
        return math.fsum(devs) == rec["sum_abs_dev"] and rec["skipped_primes"] == []
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true")
    ap.add_argument("--brute", action="store_true")
    args = ap.parse_args(argv)
    bad = 0
    for w in workloads.WORKLOADS:
        for inv in workloads.invocations(w, workloads.DEFAULT_SEED):
            path = workloads.golden_path(inv)
            if args.write:
                o = run.run_child(run.cli_command(inv))
                if o.returncode != 0:
                    raise SystemExit(f"{inv.name}: exit {o.returncode}")
                golden = o.stdout
            else:
                golden = path.read_bytes()
            doc = json.loads(golden)
            verdict = "ok" if doc == inv.oracle() else "MISMATCH"
            if verdict == "ok" and args.brute:
                brute = brute_check(inv, doc)
                verdict = {None: "ok", True: "ok (brute)", False: "MISMATCH (brute)"}[brute]
            print(f"{inv.name}: {verdict}")
            if verdict.startswith("MISMATCH"):
                bad += 1
            elif args.write:
                path.parent.mkdir(exist_ok=True)
                path.write_bytes(golden)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
