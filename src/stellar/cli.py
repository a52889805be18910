"""Command-line interface: points, rotate, check-sep, render, demo.

Exit codes: 0 on success, 2 for malformed input or flags, 3 when the root
finder cannot converge. All output is deterministic; running a command twice
on the same input yields byte-identical bytes. Each cmd_* returns its stdout
document, and main is the one writer of stdout.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .altsep import DEFAULT_SEPARABILITY_TOL, alt_constellation, decide_separability
from .majorana import majorana_constellation
from .polyroots import DEFAULT_ROOT_TOL, RootFindingError
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
    if degrees:
        vals = [math.radians(v) for v in vals]
    return EulerAngles(*vals)


def _check_tol(tol: float) -> float:
    if not 0.0 <= tol < math.inf:
        raise InputFormatError(f"--tol must be finite and >= 0, got {tol!r}")
    return tol


def _constellation_for(state: PureState, encoding: str, tol: float):
    if encoding == "majorana":
        return majorana_constellation(spin_from_qubits(state), tol)
    return alt_constellation(state, tol)


def cmd_points(args) -> str:
    tol = _check_tol(args.tol)
    state = state_from_json(_read_text(args.state))
    return constellation_to_json(_constellation_for(state, args.encoding, tol))


def cmd_rotate(args) -> str:
    state = state_from_json(_read_text(args.state))
    if args.mode == "spin" and args.angles_per_qubit is not None:
        raise InputFormatError("--angles-per-qubit only applies to --mode qubits")
    if (args.angles is None) == (args.angles_per_qubit is None):
        raise InputFormatError(
            "give --angles, or --angles-per-qubit in qubits mode, but not both"
        )
    if args.mode == "spin":
        triple = _parse_triple(args.angles, args.degrees)
        return state_to_json(qubits_from_spin(rotate_spin(spin_from_qubits(state), triple)))
    texts = [args.angles] * state.n_qubits
    if args.angles_per_qubit is not None:
        texts = args.angles_per_qubit.split(";")
    return state_to_json(rotate_qubits(state, [_parse_triple(t, args.degrees) for t in texts]))


def cmd_check_sep(args) -> str:
    tol = _check_tol(args.tol)
    return verdict_to_json(decide_separability(state_from_json(_read_text(args.state)), tol))


def cmd_render(args) -> str:
    constellation = constellation_from_json(_read_text(args.constellation))
    spec = RenderSpec(
        projection=args.projection,
        size_px=args.size,
        show_axes=args.axes,
        point_radius_px=args.point_radius,
    )
    return render_svg(constellation, spec)


def _demo_states() -> list[tuple[str, str, PureState]]:
    rt3 = math.sqrt(3.0)
    ent = PureState(2, [rt3, 1.0, 1.0, rt3])
    sep = PureState(2, [1.0, 1.0, 1.0, 1.0])
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


def cmd_demo(args) -> str:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = RenderSpec(projection="front", size_px=480, show_axes=True)
    summary: list[str] = []
    words: dict[str, str] = {}
    states = _demo_states()
    for label, describing, state in states:
        words[label] = "separable" if decide_separability(state).separable else "entangled"
        for row, encoding in (("1", "majorana"), ("2", "alt")):
            constellation = _constellation_for(state, encoding, DEFAULT_ROOT_TOL)
            name = f"figure-{row}{label}.svg"
            (out / name).write_text(render_svg(constellation, spec))
            pts = ", ".join(
                f"(theta={t:.6f}, phi={p:.6f})"
                for t, p in zip(constellation.thetas.tolist(), constellation.phis.tolist())
            )
            summary.append(f"{name}: {encoding} points of ({label}) {describing}")
            summary.append(f"    {pts}")
    summary.append("")
    for label, describing, _state in states:
        summary.append(f"({label}) {describing}: {words[label]}")
    summary.append(
        "; ".join(
            f"{word} states: ({'), ('.join(k for k in sorted(words) if words[k] == word)})"
            for word in ("separable", "entangled")
        )
    )
    text = "\n".join(summary) + "\n"
    (out / "summary.txt").write_text(text)
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stellar",
        description="Bloch-sphere point constellations for multiqubit pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("points", help="constellation of a state (JSON to stdout)")
    p.add_argument("state", help="state JSON path, or - for stdin")
    p.add_argument("--encoding", choices=("majorana", "alt"), default="majorana")
    p.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_ROOT_TOL,
        help="bound on the roots' relative backward error in the amplitudes",
    )
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
    p.add_argument(
        "--tol", type=float, default=DEFAULT_SEPARABILITY_TOL, help="singular-value ratio bound"
    )
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
        sys.stdout.write(args.func(args))
        return 0
    except (RootFindingError, ValueError, OSError) as exc:  # InputFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, RootFindingError) else 2


if __name__ == "__main__":
    sys.exit(main())
