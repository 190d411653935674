"""Seeded fuzzer of the CLI's accepted-input contract: every argv either
ends with a typed exit code or runs its exact answer to the end.

It draws random subcommands with extreme parameters: primes from 2 to
2^89 - 1 (psi_12, a strong pseudoprime to the bases 2 to 37, among them),
sides and T from 0.5 to 1e300 and nan, inf and -3, and thirteen fixture
polynomials.  Each argv runs alone in a child interpreter with
``RLIMIT_AS`` at 2 GiB, set in the child, and a 10 s timeout.  It flags an
exit code outside {0, 2, 3, 4, 5} and a traceback on stderr.  A run still
going at the timeout is listed apart, since time may grow with the box.

Not part of the tier-1 suite (pytest collects only ``test_*.py``).  Run
from the repository root:

    PYTHONPATH=src python tests/fuzz_argv.py --seed 1 --count 150

It prints one line per flagged or timed-out argv, then a JSON summary,
and exits 1 if any argv was flagged.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the exit codes of the CLI's contract (cli module docstring)
TYPED_EXITS = {0, 2, 3, 4, 5}
CAP_BYTES = 2 << 30
TIMEOUT_S = 10

PSI12 = 318665857834031151167461
PRIMES = (2, 3, 5, 7, 13, 101, 1009, 4003, 10007, 100003, 1000003, 2**31 - 1,
          3037000493, 10000000019, 2**61 - 1, 2**89 - 1, PSI12)
FIXTURES = (
    "V^2 - U^3 - U - 1",
    "V^3 - U^3 - 1",
    "U^3*V^3 + U + V",
    "U",
    "V^2",
    "U^2",
    "U^2*V^2 + U*V + 3",
    "V^2 + U*V - U^3 - 1",
    "U^19 + V^2 - 4*U^3 - 1",
    "V^3 + U*V^2 + 3*U^2*V + U^5 + 7",
    "V^4 + U^4 + U*V + 1",
    "V^2 - U^3",
    "31*V^2 - U^3 - U - 1",
)


def _real(rng: random.Random) -> str:
    """A side or a T: nan, inf or -3, or log-uniform on [0.5, 10^e] for e
    drawn from 1, 4, 12 and 300, so that small boxes, which the primes
    above 10^4 accept, come up as often as huge ones."""
    if rng.random() < 0.1:
        return rng.choice(("nan", "inf", "-3"))
    top = rng.choice((1, 4, 12, 300))
    return repr(float(f"{10 ** rng.uniform(math.log10(0.5), top):.3g}"))


def _level(rng: random.Random, p: int) -> str:
    return str(rng.choice((0, 1, p - 1, p, -1, rng.randrange(p))))


def draw_argv(rng: random.Random) -> list[str]:
    cmd = rng.choice(("count", "visible", "irred", "badset", "zeros", "exp-a", "exp-p",
                      "sweep"))
    f, p = rng.choice(FIXTURES), rng.choice(PRIMES)
    if cmd == "sweep":
        if rng.random() < 0.5:
            grid = ",".join(str(rng.choice(PRIMES)) for _ in range(2))
            box = ["--box-eq-p"] if rng.random() < 0.5 else ["-X", _real(rng), "-Y", _real(rng)]
            return ["sweep", "-f", f, "--mode", "levels", "--grid", grid, *box]
        grid = ",".join(_real(rng) for _ in range(2))
        return ["sweep", "-f", f, "--mode", "primes", "--grid", grid,
                "-X", _real(rng), "-Y", _real(rng)]
    argv = [cmd, "-f", f]
    if cmd == "exp-p":
        argv += ["-T", _real(rng)]
    elif cmd != "zeros":
        argv += ["-p", str(p)]
    if cmd in ("count", "visible"):
        argv += ["-a", _level(rng, p)]
    if cmd not in ("irred", "badset"):
        argv += ["-X", _real(rng), "-Y", _real(rng)]
    if cmd in ("zeros", "exp-a", "exp-p"):
        argv += ["--format", rng.choice(("table", "json", "csv"))]
    else:
        argv += ["--format", rng.choice(("table", "json"))]
    return argv


def _capped() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))


def run(argv: list[str]) -> tuple[str | None, str]:
    """("exit N", "traceback", "timeout" or None, the stderr's last line)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # native thread pools reserve address space per thread
    try:
        proc = subprocess.run([sys.executable, "-m", "visiblepoints.cli", *argv],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
                              preexec_fn=_capped, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    err = proc.stderr.decode(errors="replace")
    last = err.strip().splitlines()[-1] if err.strip() else ""
    if "Traceback" in err:
        return "traceback", last
    if proc.returncode not in TYPED_EXITS:
        return f"exit {proc.returncode}", last
    return None, last


def main(args: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="seeded fuzzer of the CLI's argv")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=150)
    opts = ap.parse_args(args)
    rng = random.Random(opts.seed)
    flagged, slow = [], []
    for i in range(opts.count):
        argv = draw_argv(rng)
        finding, last = run(argv)
        if finding is None:
            continue
        (slow if finding == "timeout" else flagged).append(argv)
        print(f"{i:4d} {finding:9s} {shlex.join(argv)}  {last}", flush=True)
    print(json.dumps({"seed": opts.seed, "count": opts.count,
                      "flagged": len(flagged), "timeouts": len(slow)}))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
