"""Batch command-line interface: complex export, distances, verification.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Only errors raised while reading, parsing and validating the inputs map
to exit 2; an exception from the computation itself is an internal fault
and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from .fenchel_nielsen import ModelConfig
from .metric import distance, point_from_dict
from .quotient import (
    build_complex,
    complex_from_json,
    complex_to_dot,
    complex_to_json,
)
from .surfaces import Surface
from .verify import GRID_BOX, run_verification


class InputError(Exception):
    """A command's input could not be read, parsed or validated."""


@contextmanager
def _reading_input():
    # Every input error the library raises is a ValueError (the typed
    # ones subclass it), a KeyError (unknown orbit id) or an OSError.
    try:
        yield
    except (ValueError, KeyError, OSError) as exc:
        raise InputError(str(exc)) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvecone",
        description="Curve-system quotient complexes and their cone metric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_complex = sub.add_parser(
        "complex", help="enumerate the orbit complex of a surface"
    )
    p_complex.add_argument("-g", "--genus", type=int, required=True)
    p_complex.add_argument("-n", "--marked", type=int, required=True)
    p_complex.add_argument("--format", choices=("json", "dot"), default="json")
    p_complex.add_argument(
        "--out",
        help="write the serialized complex here ('-' for stdout; "
        "omitted: summary only)",
    )

    p_dist = sub.add_parser("dist", help="distance between two cone points")
    p_dist.add_argument("complex_file")
    p_dist.add_argument("point_p")
    p_dist.add_argument("point_q")
    p_dist.add_argument("--out", help="write the geodesic JSON here (default stdout)")

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument("-g", "--genus", type=int, required=True)
    p_verify.add_argument("-n", "--marked", type=int, required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=int, default=200)
    p_verify.add_argument("--epsilon0", type=float, default=0.1)
    p_verify.add_argument(
        "--mesh", type=float, default=None, help="also run the grid oracle suite"
    )
    p_verify.add_argument("--out", help="write the report JSON here (default stdout)")
    return parser


def _summary_lines(cx) -> list[str]:
    counts = cx.orbit_counts()
    plural = lambda n: "orbit" if n == 1 else "orbits"  # noqa: E731
    return [f"dim {d}: {counts[d]} {plural(counts[d])}" for d in sorted(counts)]


def _write(path: str, text: str) -> None:
    with _reading_input():
        handle = open(path, "w")
    with handle:
        handle.write(text if text.endswith("\n") else text + "\n")


def _cmd_complex(args) -> int:
    with _reading_input():
        surface = Surface(args.genus, args.marked)
    cx = build_complex(surface)
    payload = complex_to_json(cx) if args.format == "json" else complex_to_dot(cx)
    summary = "\n".join(_summary_lines(cx))
    if args.out is None:
        print(summary)
    elif args.out == "-":
        print(summary, file=sys.stderr)
        sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")
    else:
        _write(args.out, payload)
        print(summary)
    return 0


def _emit(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text + "\n")
    else:
        _write(out, text)


def _cmd_dist(args) -> int:
    with _reading_input():
        with open(args.complex_file) as handle:
            cx = complex_from_json(handle.read())
        points = []
        for path in (args.point_p, args.point_q):
            with open(path) as handle:
                points.append(point_from_dict(cx, json.load(handle)))
    result = distance(points[0], points[1])
    _emit(result.to_json(), args.out)
    return 0


def _cmd_verify(args) -> int:
    with _reading_input():
        surface = Surface(args.genus, args.marked)
        ModelConfig(args.epsilon0)  # raises on an epsilon0 outside (0, 1)
        if args.seed < 0 or args.samples < 1:
            raise ValueError(
                f"--seed must be >= 0 and --samples >= 1, got {args.seed} and {args.samples}"
            )
    cx = build_complex(surface)
    if args.mesh is not None:
        from .gridgraph import grid_units

        with _reading_input():
            grid_units(cx, args.mesh, GRID_BOX)
    report = run_verification(
        cx,
        seed=args.seed,
        samples=args.samples,
        epsilon0=args.epsilon0,
        mesh=args.mesh,
    )
    _emit(report.to_json(), args.out)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {"complex": _cmd_complex, "dist": _cmd_dist, "verify": _cmd_verify}
    try:
        return handlers[args.command](args)
    except InputError as exc:
        print(f"curvecone: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
