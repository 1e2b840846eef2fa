"""Batch command-line interface: complex export, distances, verification.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Only errors raised while reading, parsing and validating the inputs map
to exit 2; an exception from the computation itself is an internal fault
and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from .metric import distance, point_from_dict
from .quotient import (
    build_complex,
    complex_from_json,
    complex_to_dot,
    complex_to_json,
)
from .surfaces import Surface, read_payload
from .verify import run_verification, verification_config


class InputError(Exception):
    """A command's input could not be read, parsed or validated."""


@contextmanager
def _reading_input(what: str | None = None):
    # Every input error the library raises is a ValueError (the typed
    # ones subclass it), a KeyError (unknown orbit id) or an OSError.
    # ``what`` names the input in the message, where the error does not.
    try:
        yield
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        raise InputError(message if what is None else f"{what}: {message}") from exc


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
    p_verify.add_argument(
        "--mesh", type=float, default=None, help="also run the grid oracle suite"
    )
    p_verify.add_argument("--out", help="write the report JSON here (default stdout)")
    return parser


def _summary_lines(cx) -> list[str]:
    counts = cx.orbit_counts()
    return [f"dim {d}: {counts[d]} orbit{'' if counts[d] == 1 else 's'}" for d in sorted(counts)]


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to stdout (``out`` None or '-') or to the file
    ``out``, ending it with one newline if it has none."""
    text = text if text.endswith("\n") else text + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
        return
    with _reading_input():
        handle = open(out, "w")
    with handle:
        handle.write(text)


def _cmd_complex(args) -> int:
    with _reading_input():
        surface = Surface(args.genus, args.marked)
    cx = build_complex(surface)
    if args.out is not None:
        payload = complex_to_json(cx) if args.format == "json" else complex_to_dot(cx)
        _emit(payload, args.out)
    # The summary moves to stderr when the payload takes stdout.
    print("\n".join(_summary_lines(cx)), file=sys.stderr if args.out == "-" else sys.stdout)
    return 0


def _cmd_dist(args) -> int:
    with _reading_input():
        with open(args.complex_file, "rb") as handle:
            cx = complex_from_json(handle.read(), f"complex file {args.complex_file}")
        points = []
        for path in (args.point_p, args.point_q):
            # Opening and decoding errors name the file already.
            with open(path, "rb") as handle:
                payload = read_payload(handle.read(), f"point file {path}")
            with _reading_input(f"point file {path}"):
                points.append(point_from_dict(cx, payload))
    result = distance(points[0], points[1])
    _emit(result.to_json(), args.out)
    return 0


def _cmd_verify(args) -> int:
    with _reading_input():
        surface = Surface(args.genus, args.marked)
    cx = build_complex(surface)
    with _reading_input():
        verification_config(cx, args.seed, args.samples, args.mesh)
    report = run_verification(cx, seed=args.seed, samples=args.samples, mesh=args.mesh)
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
