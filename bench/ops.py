"""Calls into stellar for each op kind, as the worker process runs them.

prepare() builds the program's input objects outside the timed region and
returns a zero-argument callable (the op) plus a function that turns the
op's return value into a JSON-able output for the checker.
"""

from __future__ import annotations

import io
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import stellar
from stellar import cli as stellar_cli
from workloads import as_cvec, cvec, product_amplitudes


def _constellation(points: dict) -> stellar.Constellation:
    pts = tuple(stellar.BlochPoint(t, p) for t, p in zip(points["theta"], points["phi"]))
    return stellar.Constellation(pts, len(pts))


def constellation_out(c: stellar.Constellation) -> dict:
    return {"theta": [p.theta for p in c.points], "phi": [p.phi for p in c.points]}


def _verdict_out(v: stellar.SeparabilityVerdict) -> dict:
    out = {"separable": v.separable, "residual": v.worst_bipartite_residual}
    if v.factorization is not None:
        f = v.factorization
        out["factors"] = [[a.real, a.imag, b.real, b.imag] for a, b in f.factors]
        out["scale"] = [f.scale.real, f.scale.imag]
    return out


_SPEC = stellar.RenderSpec(projection="front", size_px=512, show_axes=True)


def prepare(op: dict, in_process_cli: bool = False):
    """(run, to_output) for one op; run() is the only thing that gets timed."""
    kind = op["kind"]
    if kind == "cli":
        if in_process_cli:
            def run():
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    rc = stellar_cli.main(op["argv"])
                return rc, out.getvalue(), err.getvalue()
        else:
            cmd = [sys.executable, "-m", "stellar.cli", *op["argv"]]

            def run():
                done = subprocess.run(cmd, capture_output=True, text=True)
                return done.returncode, done.stdout, done.stderr
        return run, lambda r: {"rc": r[0], "out": r[1], "err": r[2][-400:]}

    if kind in ("majorana", "alt"):
        state = stellar.make_pure_state(op["n"], cvec(op["state"]))
        if kind == "majorana":
            run = lambda: stellar.majorana_constellation(stellar.spin_from_qubits(state))
        else:
            run = lambda: stellar.alt_constellation(state)
        return run, constellation_out

    if kind == "spin_rot":
        spin = stellar.spin_from_qubits(stellar.make_pure_state(op["n"], cvec(op["state"])))
        angles = stellar.EulerAngles(*op["angles"])
        return lambda: stellar.rotate_spin(spin, angles), lambda r: as_cvec(r.amplitudes)

    if kind == "qubit_sep":
        state = stellar.make_pure_state(op["n"], cvec(op["state"]))
        triples = [stellar.EulerAngles(*a) for a in op["angles"]]

        def run():
            rotated = stellar.rotate_qubits(state, triples)
            return rotated, stellar.decide_separability(rotated)
        return run, lambda r: {"state": as_cvec(r[0].amplitudes), "verdict": _verdict_out(r[1])}

    if kind == "alt_product":
        factors = [tuple(cvec(f)) for f in op["factors"]]
        state = stellar.PureState(op["n"], product_amplitudes(factors))
        fact = stellar.SeparableFactorization(tuple((complex(a), complex(b)) for a, b in factors), 1.0)

        def run():
            return stellar.alt_constellation(state), stellar.separable_constellation(fact)
        return run, lambda r: {"alt": constellation_out(r[0]), "closed": constellation_out(r[1])}

    if kind == "match":
        source = _constellation(op["points"])
        matrix = stellar.so3_matrix(stellar.EulerAngles(*op["angles"]))
        target = _constellation(op["target"])

        def run():
            moved = stellar.rotate_constellation(source, matrix)
            return moved, stellar.matching_max_distance(moved, target)
        return run, lambda r: {"moved": constellation_out(r[0]), "max_distance": r[1]}

    if kind == "inverse":
        c = _constellation(op["points"])
        return lambda: stellar.state_from_constellation(c), lambda r: as_cvec(r.amplitudes)

    if kind == "emit":
        c = _constellation(op["points"])
        return (lambda: (stellar.constellation_to_json(c), stellar.render_svg(c, _SPEC)),
                lambda r: {"json": r[0], "svg": r[1]})

    raise ValueError(f"unknown op kind {kind!r}")

