"""Correctness gate: goldens recorded from the library, plus invariants
that hold for every input.

Every function returns a list of failure messages; an empty list means
the output passed.  The workloads count an operation as failed when any
check on it fails.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDENS = Path(__file__).with_name("goldens.json")

# The tolerance curvecone's own verify suites allow on distance sums
# (``verify._TRI_TOL``); the exact solver is accurate far below it.
TOL = 1e-7


def digest(text: str) -> str:
    return hashlib.sha256(text.rstrip("\n").encode()).hexdigest()


def load_goldens(path: Path = GOLDENS) -> dict:
    with open(path) as handle:
        return json.load(handle)


def complex_failures(label: str, payload: str, orbit_counts: dict, transits: int | None,
                     goldens: dict) -> list[str]:
    """Compare a serialized complex, its orbit counts per dimension and
    (when warmed) its number of top-pair transits with the goldens."""
    want = goldens["complexes"][label]
    out = []
    if digest(payload) != want["sha256"]:
        out.append(f"{label}: complex_to_json digest differs from golden")
    counts = {str(d): c for d, c in orbit_counts.items()}
    if counts != want["orbit_counts"]:
        out.append(f"{label}: orbit counts {counts} != golden {want['orbit_counts']}")
    if transits is not None and transits != want["transits"]:
        out.append(f"{label}: {transits} top-pair transits != golden {want['transits']}")
    return out


def distance_failures(p_max: float, q_max: float, value: float, segments,
                      payload: str | None = None, golden: str | None = None) -> list[str]:
    """Invariants of one geodesic between points whose largest
    coordinates are ``p_max`` and ``q_max``:

    - the route through the apex, ``(p_max + q_max) / 2``, bounds it above;
    - the top coordinate is 2-Lipschitz, so ``|p_max - q_max| / 2`` bounds
      it below;
    - the per-segment lengths sum to the distance;
    - on the default seed, the payload matches its recorded digest.
    """
    out = []
    upper = 0.5 * (p_max + q_max)
    lower = 0.5 * abs(p_max - q_max)
    if not value <= upper + TOL:
        out.append(f"distance {value!r} above the apex route {upper!r}")
    if not value >= lower - TOL:
        out.append(f"distance {value!r} below the top-coordinate bound {lower!r}")
    if segments and not abs(sum(segments) - value) <= TOL:
        out.append(f"segment lengths sum to {sum(segments)!r}, not {value!r}")
    if golden is not None and digest(payload) != golden:
        out.append("geodesic payload differs from golden")
    return out


def cli_failures(command: str, returncode: int, stdout: str = "",
                 expected: str | None = None, golden: str | None = None) -> list[str]:
    """A CLI command must exit 0; ``dist`` must print exactly the
    in-process payload (and, on the default seed, its golden);
    ``verify`` must report ``passed: true``."""
    out = []
    if returncode != 0:
        out.append(f"curvecone {command} exited with {returncode}")
        return out
    if expected is not None and stdout.rstrip("\n") != expected:
        out.append(f"curvecone {command} output differs from the in-process value")
    if golden is not None and digest(stdout) != golden:
        out.append(f"curvecone {command} output differs from golden")
    if command == "verify":
        try:
            passed = json.loads(stdout).get("passed")
        except json.JSONDecodeError:
            passed = None
        if passed is not True:
            out.append("curvecone verify did not report passed: true")
    return out
