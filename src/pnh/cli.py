"""Command-line front end.

Subcommands: ``build`` (H/V-representation JSON), ``fvector`` (face-count
table), ``verify`` (pass/fail report per structural check), ``export``
(JSON or rank-3 OFF mesh), ``poset`` (face-poset JSON).

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import __version__
from .errors import PnhError
# perfbench/spans.py wraps build_document, poset_document, to_json_bytes and
# enumerate_group under these names, so all four stay importable from here
from .exports import (  # noqa: F401
    build_document,
    fvector_table,
    json_chunks,
    load_building_set,
    off_text,
    parse_rat,
    poset_document,
    rat_str,
    to_json_bytes,
)
from .flats import build_maximal, build_minimal, interval_building_set
from .model import build_model
from .roots import build_root_system, parse_type_spec
from .weyl import DEFAULT_GROUP_CAP, check_group_cap, enumerate_group  # noqa: F401

_BUILDING_CHOICES = "minimal, maximal, interval, or file:<path>"


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--type",
        required=True,
        metavar="SPEC",
        help="root-system type, e.g. A3, B2, D4, A1^3, A2xA1",
    )
    p.add_argument(
        "--building",
        default="minimal",
        metavar="FAMILY",
        help=f"building set: {_BUILDING_CHOICES} (default minimal)",
    )
    p.add_argument(
        "--a",
        default="1",
        metavar="RAT",
        help='right-hand side of the outer inequality, a rational like "1" or "3/2"',
    )
    p.add_argument(
        "--epsilons",
        default=None,
        metavar="R1,R2,...",
        help="comma-separated rational list; omitted = generated deterministically",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the JSON config; no check samples today")
    p.add_argument(
        "--group-cap",
        type=int,
        default=DEFAULT_GROUP_CAP,
        help="abort if the reflection group exceeds this order",
    )
    p.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write to PATH instead of stdout",
    )


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: argparse keeps no state between
    ``parse_args`` calls, each of which fills a new Namespace."""
    parser = argparse.ArgumentParser(
        prog="pnh",
        description="Exact-arithmetic permutonestohedra: construction, "
        "verification, and export.",
    )
    parser.add_argument("--version", action="version", version=f"pnh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser(
        "build", help="construct the polytope and emit H/V-representation JSON"
    )
    _add_common(p_build)
    p_build.add_argument(
        "--verify",
        choices=("none", "fast", "full"),
        default="none",
        help="verification level to run before emitting (default none)",
    )

    p_fvec = sub.add_parser("fvector", help="face counts by dimension, as a table")
    _add_common(p_fvec)

    p_verify = sub.add_parser(
        "verify", help="run the verification battery and report pass/fail"
    )
    _add_common(p_verify)
    p_verify.add_argument(
        "--level",
        choices=("fast", "full"),
        default="full",
        help="fast skips the incidence, nestohedron and face checks (default full)",
    )

    p_export = sub.add_parser("export", help="emit JSON or a rank-3 OFF mesh")
    _add_common(p_export)
    p_export.add_argument(
        "--format",
        choices=("json", "off"),
        default="json",
        help="output format (default json)",
    )
    p_export.add_argument(
        "--precision",
        type=int,
        default=12,
        help="significant digits for OFF coordinates (default 12)",
    )

    p_poset = sub.add_parser("poset", help="emit the face poset as JSON")
    _add_common(p_poset)
    p_poset.add_argument(
        "--edges",
        choices=("auto", "yes", "no"),
        default="auto",
        help="include covering edges (auto = only up to rank 3)",
    )
    return parser


def _make_model(args):
    # a type over the cap is refused by its rank or by |W|, before any building set
    components = parse_type_spec(args.type, args.group_cap)
    rs = build_root_system(args.type)
    check_group_cap(rs, args.group_cap)
    spec = args.building
    if spec == "interval":
        if any(c != ("A", 1) for c in components):
            raise ValueError("--building interval needs --type A1^n")
        # the building set carries its own A1^n root system
        building = interval_building_set(len(components))
    elif spec == "minimal":
        building = build_minimal(rs)
    elif spec == "maximal":
        building = build_maximal(rs)
    elif spec.startswith("file:"):
        building = load_building_set(rs, spec[5:])
    else:
        raise ValueError(f"--building must be {_BUILDING_CHOICES}, got {spec!r}")
    a = parse_rat(args.a)
    if a <= 0:
        raise ValueError("--a must be positive")
    epsilons = None
    if args.epsilons is not None:
        epsilons = [parse_rat(t) for t in args.epsilons.split(",")]
    return build_model(building, a=a, epsilons=epsilons, group_cap=args.group_cap)


def _job_config(args, **extra) -> dict:
    cfg = {
        "type": args.type,
        "building": args.building,
        "a": rat_str(parse_rat(args.a)),
        "epsilons": None
        if args.epsilons is None
        else [rat_str(parse_rat(t)) for t in args.epsilons.split(",")],
        "seed": args.seed,
    }
    cfg.update(extra)
    return cfg


def _emit(args, pieces) -> None:
    """Write the bytes ``pieces`` to ``--output`` or to stdout as they come."""
    if args.output:
        with open(args.output, "wb") as fh:
            fh.writelines(pieces)
        return
    out = sys.stdout.buffer
    try:
        for piece in pieces:
            out.write(piece)
        out.flush()
    except BrokenPipeError:
        # the reader has closed the pipe (``pnh build ... | head``): it has
        # read all it wanted, so stop quietly
        pass


def _run_verification(model, level: str, stream) -> int:
    reports = model.verify(level=level)
    for r in reports:
        print(r.line(), file=stream)
    return 0 if all(r.passed for r in reports) else 1


def _dispatch(args) -> int:
    model = _make_model(args)
    if args.command == "build":
        if args.verify != "none":
            # report on stderr so the JSON on stdout stays parseable
            code = _run_verification(model, args.verify, sys.stderr)
            if code != 0:
                return code
        doc = build_document(model, _job_config(args, verify=args.verify))
        _emit(args, json_chunks(doc))
        return 0
    if args.command == "fvector":
        _emit(args, [fvector_table(model).encode("utf-8")])
        return 0
    if args.command == "verify":
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                return _run_verification(model, args.level, fh)
        return _run_verification(model, args.level, sys.stdout)
    if args.command == "export":
        if args.format == "off":
            _emit(args, [off_text(model, precision=args.precision).encode("utf-8")])
        else:
            doc = build_document(model, _job_config(args, format="json"))
            _emit(args, json_chunks(doc))
        return 0
    if args.command == "poset":
        include = {"auto": None, "yes": True, "no": False}[args.edges]
        doc = poset_document(
            model, _job_config(args, edges=args.edges), include_edges=include
        )
        _emit(args, json_chunks(doc))
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


def run(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (PnhError, ValueError, OSError, ZeroDivisionError) as exc:
        print(f"pnh: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
