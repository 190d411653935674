"""The benchmark's workloads: the CLI invocations each one runs, and the
stdout each invocation must print.

Every invocation's expected stdout is its committed golden file when one
exists (byte-equal), and otherwise the JSON document the independent
oracle computes.  Goldens are keyed by what the invocation computes, so a
seed that picks the default seed's level also reuses its goldens.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import oracle
from oracle import CUBES, E

WORKLOADS = ("levels", "primes", "curves")
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
#: the seed whose outputs are committed as goldens
DEFAULT_SEED = 0

# "smoke" keeps each workload's shape at sizes the brute-force oracles of
# the test suite can check in seconds.
SCALES = {
    "full": {"levels_p": 4003, "primes_T": 1000, "primes_box": 500,
             "curve_p": 10007, "visible_box": 2000, "badsets": ((E, 307), (CUBES, 97))},
    "smoke": {"levels_p": 31, "primes_T": 60, "primes_box": 20,
              "curve_p": 31, "visible_box": 10, "badsets": ((E, 11), (CUBES, 7))},
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``python -m visiblepoints.cli *argv``."""

    name: str
    argv: tuple[str, ...]
    oracle: Callable[[], dict]


def level_for_seed(seed: int, p: int) -> int:
    """The level A the curves workload queries."""
    return random.Random(seed).randrange(p)


def invocations(workload: str, seed: int, scale: str = "full") -> list[Invocation]:
    s = SCALES[scale]
    if workload == "levels":
        p = str(s["levels_p"])
        return [Invocation(
            f"exp-a-p{p}",
            ("exp-a", "-f", E, "-p", p, "-X", p, "-Y", p, "--workers", "2", "--format", "json"),
            partial(oracle.exp_a_doc, s["levels_p"], s["levels_p"], s["levels_p"]),
        )]
    if workload == "primes":
        T, b = s["primes_T"], s["primes_box"]
        return [Invocation(
            f"exp-p-T{T}-X{b}",
            ("exp-p", "-f", E, "-T", str(T), "-X", str(b), "-Y", str(b),
             "--workers", "2", "--format", "json"),
            partial(oracle.exp_p_doc, T, b, b),
        )]
    if workload == "curves":
        p, b = s["curve_p"], s["visible_box"]
        a = level_for_seed(seed, p)
        out = [
            Invocation(
                f"count-p{p}-a{a}",
                ("count", "-f", E, "-p", str(p), "-a", str(a), "-X", str(p), "-Y", str(p),
                 "--strategy", "rows", "--format", "json"),
                partial(oracle.count_doc, p, a, p, p),
            ),
            Invocation(
                f"visible-p{p}-a{a}-X{b}",
                ("visible", "-f", E, "-p", str(p), "-a", str(a), "-X", str(b), "-Y", str(b),
                 "--format", "json"),
                partial(oracle.visible_doc, p, a, b, b),
            ),
        ]
        for poly, q in s["badsets"]:
            tag = "E" if poly == E else "cubes"
            out.append(Invocation(
                f"badset-{tag}-p{q}",
                ("badset", "-f", poly, "-p", str(q), "--format", "json"),
                partial(oracle.badset_doc, poly, q),
            ))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def golden_path(inv: Invocation) -> Path:
    return GOLDEN_DIR / f"{inv.name}.json"


def expected(inv: Invocation) -> bytes | dict:
    """The golden bytes when committed, else the oracle's document."""
    path = golden_path(inv)
    return path.read_bytes() if path.exists() else inv.oracle()


def output_ok(expect: bytes | dict, returncode: int, stdout: bytes) -> bool:
    if returncode != 0:
        return False
    if isinstance(expect, bytes):
        return stdout == expect
    try:
        return json.loads(stdout) == expect
    except ValueError:
        return False
