"""Expected CLI outputs, computed by routes that share no code with
``visiblepoints``.

* Row counts of E = a on the full box [1, p]^2 come from Euler's
  criterion: each x contributes 1 + (x^3 + x + 1 + a | p) values of y.
* Level and visible histograms of E come from a row-by-row numpy sweep
  that squares y directly, so they share no evaluator with the library.
  Every point lands in exactly one level, which is asserted.
* Primes come from trial division.
* Bad sets are derived by hand: V^2 minus a cubic is absolutely
  irreducible at every odd prime (a cubic is never a square), and
  V^3 - U^3 - a is smooth for a != 0 and splits off V - U for a = 0
  when p != 3.

Each function returns the JSON document the CLI prints with
``--format json``.  Only the two polynomials the workloads use are known.
"""

from __future__ import annotations

import math

import numpy as np

E = "V^2 - U^3 - U - 1"
CUBES = "V^3 - U^3"
#: the CLI's canonical spelling of each input polynomial
CANONICAL = {E: "-U^3 + V^2 - U - 1", CUBES: "-U^3 + V^3"}
#: version tag of the CLI's JSON documents
SCHEMA = 1
#: the CLI's default concentration thresholds for exp-a
DELTAS = (0.1, 0.25, 0.5)
DENSITY = 6.0 / (math.pi * math.pi)


def _expected_visible(X: float, Y: float, p: int) -> float:
    return DENSITY * (X * Y) / p


def primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(2, lo), hi + 1)
            if all(n % d for d in range(2, math.isqrt(n) + 1))]


def e_histograms(p: int, nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-level point counts of E on [1, nx] x [1, ny] modulo p, over all
    points and over coprime points; level a sits at index a."""
    if p >= 2**20:
        raise ValueError("x^3 must stay exact in int64")
    ys = np.arange(1, ny + 1, dtype=np.int64)
    ysq = ys * ys % p
    level = np.zeros(p, dtype=np.int64)
    visible = np.zeros(p, dtype=np.int64)
    for x in range(1, nx + 1):
        vals = (ysq - (x**3 + x + 1)) % p
        level += np.bincount(vals, minlength=p)
        visible += np.bincount(vals[np.gcd(ys, x) == 1], minlength=p)
    if int(level.sum()) != nx * ny:
        raise AssertionError("level counts do not cover the box")
    return level, visible


def e_full_box_count(p: int, a: int) -> int:
    """Points of E = a on [1, p]^2, which is all of F_p^2."""
    total = 0
    for x in range(p):
        r = (x**3 + x + 1 + a) % p
        if r == 0:
            total += 1
        elif pow(r, (p - 1) // 2, p) == 1:
            total += 2
    return total


def count_doc(p: int, a: int, X: float, Y: float) -> dict:
    if not X == Y == p:
        raise ValueError("the row-count oracle covers the full box only")
    return {
        "f": CANONICAL[E], "p": p, "a": a % p, "X": float(X), "Y": float(Y),
        "floor_X": p, "floor_Y": p, "count": e_full_box_count(p, a),
        "main_term": float(X) * float(Y) / p, "in_theorem_scope": True,
    }


def visible_doc(p: int, a: int, X: float, Y: float) -> dict:
    n = int(e_histograms(p, math.floor(X), math.floor(Y))[1][a % p])
    return {
        "f": CANONICAL[E], "p": p, "a": a % p, "X": float(X), "Y": float(Y),
        "visible_direct": n, "visible_mobius": n,
        "expected": _expected_visible(float(X), float(Y), p),
    }


def badset_doc(poly: str, p: int) -> dict:
    if p == 3 and poly == CUBES:
        raise ValueError("V^3 - U^3 - a is inseparable at p = 3")
    bad = [0] if poly == CUBES else []
    return {"f": CANONICAL[poly], "p": p, "bad_levels": bad, "size": len(bad)}


def _record(kind, p, T, a, X, Y, sum_abs_dev, bound, nontrivial) -> dict:
    return {
        "kind": kind, "f": CANONICAL[E], "p": p, "T": T, "a": a,
        "X": float(X), "Y": float(Y), "sum_abs_dev": sum_abs_dev,
        "bound_value": bound, "ratio": sum_abs_dev / bound,
        "skipped_primes": [], "box_nontrivial": nontrivial,
    }


def exp_a_doc(p: int, X: float, Y: float) -> dict:
    """exp-a for E: the absolute deviations of every level's visible count
    from (6/pi^2) X Y / p, summed, against X^(1/2) Y^(1/2) p^(3/4) log p."""
    X, Y = float(X), float(Y)
    visible = e_histograms(p, math.floor(X), math.floor(Y))[1]
    main = _expected_visible(X, Y, p)
    devs = [abs(int(c) - main) for c in visible]
    bound = math.sqrt(X) * math.sqrt(Y) * p**0.75 * math.log(p)
    rec = _record("levels", p, None, None, X, Y, math.fsum(devs), bound, X * Y >= p**1.5)
    return {
        "schema": SCHEMA,
        "records": [rec],
        "concentration": [
            {"delta": d, "fraction_within": sum(dev <= d * main for dev in devs) / p}
            for d in DELTAS
        ],
    }


def exp_p_doc(T: float, X: float, Y: float) -> dict:
    """exp-p for E at level 0 over the primes in [T/2, T]; none is skipped
    because E is absolutely irreducible at every odd prime."""
    T, X, Y = float(T), float(X), float(Y)
    devs = []
    for q in primes_between(math.ceil(T / 2), math.floor(T)):
        n = int(e_histograms(q, math.floor(X), math.floor(Y))[1][0])
        devs.append(abs(n - _expected_visible(X, Y, q)))
    bound = math.sqrt(X) * math.sqrt(Y) * T**0.75
    rec = _record("primes", None, T, 0, X, Y, math.fsum(devs), bound, X * Y >= T**1.5)
    return {"schema": SCHEMA, "records": [rec]}
