"""Command-line interface: points, rotate, check-sep, render, demo.

Exit codes: 0 on success, 2 for malformed input or flags, 3 when the root
finder cannot converge. All output is deterministic; running a command twice
on the same input yields byte-identical bytes.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .altsep import alt_constellation, decide_separability
from .majorana import majorana_constellation
from .polyroots import RootFindingError
from .render import RenderSpec, render_svg
from .rotations import EulerAngles, rotate_qubits, rotate_qubits_uniform, rotate_spin
from .serialize import (
    InputFormatError,
    constellation_from_json,
    constellation_to_json,
    state_from_json,
    state_to_json,
    verdict_to_json,
)
from .states import PureState, qubits_from_spin, spin_from_qubits

__all__ = ["main"]

_DEG = math.pi / 180.0


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _parse_triple(text: str, degrees: bool) -> EulerAngles:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputFormatError(f"expected three comma-separated angles, got {text!r}")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise InputFormatError(f"bad angle in {text!r}: {exc}") from exc
    if not all(map(math.isfinite, vals)):
        raise InputFormatError(f"angles must be finite, got {text!r}")
    if degrees:
        vals = [v * _DEG for v in vals]
    return EulerAngles(*vals)


def _check_tol(tol: float) -> float:
    if not 0.0 <= tol < math.inf:
        raise InputFormatError(f"--tol must be finite and >= 0, got {tol!r}")
    return tol


def _constellation_for(state: PureState, encoding: str, tol: float):
    if encoding == "majorana":
        return majorana_constellation(spin_from_qubits(state), tol)
    return alt_constellation(state, tol)


def cmd_points(args) -> int:
    tol = _check_tol(args.tol)
    state = state_from_json(_read_text(args.state))
    constellation = _constellation_for(state, args.encoding, tol)
    sys.stdout.write(constellation_to_json(constellation))
    return 0


def cmd_rotate(args) -> int:
    state = state_from_json(_read_text(args.state))
    if args.mode == "spin":
        if args.angles is None:
            raise InputFormatError("--mode spin requires --angles a,b,g")
        if args.angles_per_qubit is not None:
            raise InputFormatError("--angles-per-qubit only applies to --mode qubits")
        triple = _parse_triple(args.angles, args.degrees)
        rotated = qubits_from_spin(rotate_spin(spin_from_qubits(state), triple))
    else:
        if (args.angles is None) == (args.angles_per_qubit is None):
            raise InputFormatError(
                "--mode qubits requires exactly one of --angles or --angles-per-qubit"
            )
        if args.angles is not None:
            rotated = rotate_qubits_uniform(state, _parse_triple(args.angles, args.degrees))
        else:
            triples = [
                _parse_triple(part, args.degrees)
                for part in args.angles_per_qubit.split(";")
            ]
            if len(triples) != state.n_qubits:
                raise InputFormatError(
                    f"got {len(triples)} angle triples for {state.n_qubits} qubits"
                )
            rotated = rotate_qubits(state, triples)
    sys.stdout.write(state_to_json(rotated))
    return 0


def cmd_check_sep(args) -> int:
    tol = _check_tol(args.tol)
    verdict = decide_separability(state_from_json(_read_text(args.state)), tol)
    sys.stdout.write(verdict_to_json(verdict))
    return 0


def cmd_render(args) -> int:
    constellation = constellation_from_json(_read_text(args.constellation))
    spec = RenderSpec(
        projection=args.projection,
        size_px=args.size,
        show_axes=args.axes,
        point_radius_px=args.point_radius,
    )
    sys.stdout.write(render_svg(constellation, spec))
    return 0


def _demo_states() -> list[tuple[str, str, PureState]]:
    rt3 = math.sqrt(3.0)
    ent = PureState(2, np.array([rt3, 1.0, 1.0, rt3], dtype=complex))
    sep = PureState(2, np.array([1.0, 1.0, 1.0, 1.0], dtype=complex))
    quarter = EulerAngles(0.0, math.pi / 2.0, 0.0)
    spin_rot = lambda s: qubits_from_spin(rotate_spin(spin_from_qubits(s), quarter))
    return [
        ("a", "entangled reference state", ent),
        ("b", "collective spin rotation of (a)", spin_rot(ent)),
        ("c", "per-qubit rotation of (a)", rotate_qubits_uniform(ent, quarter)),
        ("d", "balanced product state", sep),
        ("e", "collective spin rotation of (d)", spin_rot(sep)),
        ("f", "per-qubit rotation of (d)", rotate_qubits_uniform(sep, quarter)),
    ]


def cmd_demo(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = RenderSpec(projection="front", size_px=480, show_axes=True)
    summary: list[str] = []
    verdicts: dict[str, bool] = {}
    states = _demo_states()
    for label, describing, state in states:
        verdicts[label] = decide_separability(state).separable
        for row, encoding in (("1", "majorana"), ("2", "alt")):
            constellation = _constellation_for(state, encoding, 1e-12)
            name = f"figure-{row}{label}.svg"
            (out / name).write_text(render_svg(constellation, spec))
            pts = ", ".join(
                f"(theta={p.theta:.6f}, phi={p.phi:.6f})" for p in constellation.points
            )
            summary.append(f"{name}: {encoding} points of ({label}) {describing}")
            summary.append(f"    {pts}")
    summary.append("")
    for label, describing, _state in states:
        word = "separable" if verdicts[label] else "entangled"
        summary.append(f"({label}) {describing}: {word}")
    sep_labels = sorted(k for k, v in verdicts.items() if v)
    ent_labels = sorted(k for k, v in verdicts.items() if not v)
    summary.append(
        f"separable states: ({'), ('.join(sep_labels)}); "
        f"entangled states: ({'), ('.join(ent_labels)})"
    )
    text = "\n".join(summary) + "\n"
    (out / "summary.txt").write_text(text)
    sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stellar",
        description="Bloch-sphere point constellations for multiqubit pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("points", help="constellation of a state (JSON to stdout)")
    p.add_argument("state", help="state JSON path, or - for stdin")
    p.add_argument("--encoding", choices=("majorana", "alt"), default="majorana")
    p.add_argument("--tol", type=float, default=1e-12, help="root-finder tolerance")
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("rotate", help="rotate a state (state JSON to stdout)")
    p.add_argument("state", help="state JSON path, or - for stdin")
    p.add_argument("--mode", choices=("spin", "qubits"), required=True)
    p.add_argument("--angles", help="Euler triple a,b,g")
    p.add_argument(
        "--angles-per-qubit",
        help="semicolon-separated Euler triples, one per qubit (qubits mode)",
    )
    p.add_argument("--degrees", action="store_true", help="angles are in degrees")
    p.set_defaults(func=cmd_rotate)

    p = sub.add_parser("check-sep", help="tensor-product test (verdict JSON to stdout)")
    p.add_argument("state", help="state JSON path, or - for stdin")
    p.add_argument("--tol", type=float, default=1e-8, help="singular-value ratio bound")
    p.set_defaults(func=cmd_check_sep)

    p = sub.add_parser("render", help="render a constellation to SVG on stdout")
    p.add_argument("constellation", help="constellation JSON path, or - for stdin")
    p.add_argument("--projection", choices=("front", "top"), default="front")
    p.add_argument("--size", type=int, default=512, help="canvas size in pixels")
    p.add_argument("--axes", action="store_true", help="draw great-circle hints")
    p.add_argument("--point-radius", type=float, default=6.0)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("demo", help="write the twelve reference panels and a summary")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RootFindingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # InputFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
