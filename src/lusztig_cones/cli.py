"""Command-line interface.

Words and points are given as comma-separated integers; points are in
position coordinates (matching the word as typed) and printed in both
coordinate systems.  Output defaults to stdout; ``--out FILE`` writes to
a file, opened before the command runs.  Exit status: 0 on success, 1 on
a domain error or an unwritable file (structured JSON on stderr) or on
mismatches, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import cone, pquiver, spanning, wiring
from .cone import RootVector, SimpleRootLabel
from .words import ReducedWord, enumerate_reduced_words, root_ordering


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _word(args) -> ReducedWord:
    return ReducedWord(args.n, _parse_ints(args.word))


def _label_text(label) -> str:
    if isinstance(label, SimpleRootLabel):
        return f"simple({label.j})"
    return f"chamber({label.left},{label.right})"


def _emit_json(payload, out) -> None:
    out.write(json.dumps(payload, indent=2) + "\n")


def cmd_roots(args) -> int:
    word = _word(args)
    roots = root_ordering(word)
    if args.format == "json":
        _emit_json({**word.to_json(), "roots": [list(r) for r in roots]}, args.out)
    else:
        args.out.write("".join(f"{j} ({p},{q})\n" for j, (p, q) in enumerate(roots, 1)))
    return 0


def cmd_chambers(args) -> int:
    word = _word(args)
    diagram = wiring.build_wiring(word)
    if args.format == "json":
        _emit_json(wiring.diagram_json(diagram), args.out)
    else:
        lines = []
        for c in wiring.chambers(diagram):
            label = wiring.format_chamber_set(c.chamber_set, word.n)
            lines.append(f"pair=({c.left_pos},{c.right_pos}) level={c.level} set={label}\n")
        args.out.write("".join(lines))
    return 0


def cmd_render(args) -> int:
    word = _word(args)
    fmt = "ascii" if args.format == "text" else args.format
    args.out.write(wiring.render(wiring.build_wiring(word), fmt))
    return 0


def cmd_cone_matrix(args) -> int:
    M = cone.cone_matrix(_word(args))
    if args.format == "json":
        _emit_json(cone.matrix_json(M), args.out)
    else:
        lines = [
            f"{_label_text(lab):>14}  {' '.join(f'{x:>2}' for x in row)}\n"
            for lab, row in zip(M.labels, M.rows)
        ]
        args.out.write("".join(lines))
    return 0


def cmd_spanning(args) -> int:
    word = _word(args)
    report = spanning.verify_theorem(word)
    if args.format == "json":
        payload = {
            **word.to_json(),
            "overall": report.overall,
            "vectors": [
                {
                    "label": v.label.to_json(),
                    "coords": "root",
                    "root": v.inverse.to_json(),
                    "position": list(v.inverse.to_positions(word)),
                    "matches_formula": v.equal,
                }
                for v in report.verdicts
            ],
        }
        _emit_json(payload, args.out)
    else:
        lines = []
        for v in report.verdicts:
            pos = ",".join(str(x) for x in v.inverse.to_positions(word))
            mark = "ok" if v.equal else "MISMATCH"
            lines.append(f"{_label_text(v.label):>14}  position=({pos})  {mark}\n")
        args.out.write("".join(lines))
    return 0 if report.overall else 1


def cmd_verify(args) -> int:
    report = spanning.verify_all(
        args.n, mode=args.mode, count=args.count, seed=args.seed, jobs=args.jobs
    )
    if args.format == "json":
        _emit_json(report.to_json(), args.out)
    else:
        args.out.write(f"{report.checked} words, {len(report.mismatches)} mismatches\n")
    return 0 if report.ok else 1


def cmd_member(args) -> int:
    word = _word(args)
    coords = _parse_ints(args.point)
    point = RootVector.from_positions(word, coords)
    violated = cone.violated_rows(word, point)
    negative = [j for j, x in enumerate(coords, 1) if x < 0]
    inside = not violated and not negative
    if args.format == "json":
        payload = {
            **word.to_json(),
            "point": {"coords": "position", "values": list(coords)},
            "root": point.to_json(),
            "member": inside,
            "violated": [lab.to_json() for lab in violated],
            "negative_positions": negative,
        }
        _emit_json(payload, args.out)
    else:
        lines = [f"{'true' if inside else 'false'}\n"]
        for lab in violated:
            lines.append(f"violated: {_label_text(lab)}\n")
        for j in negative:
            lines.append(f"negative coordinate at position {j}\n")
        args.out.write("".join(lines))
    return 0


def cmd_decompose(args) -> int:
    word = _word(args)
    point = RootVector.from_positions(word, _parse_ints(args.point))
    coeffs = cone.decompose(word, point)
    if args.format == "json":
        payload = {
            **word.to_json(),
            "point": list(point.to_positions(word)),
            "coefficients": [
                {"label": lab.to_json(), "coefficient": c} for lab, c in coeffs.items()
            ],
        }
        _emit_json(payload, args.out)
    else:
        args.out.write("".join(f"{_label_text(lab):>14}  {c}\n" for lab, c in coeffs.items()))
    return 0


def cmd_enumerate(args) -> int:
    words = enumerate_reduced_words(args.n)
    if args.format == "json":
        _emit_json({"n": args.n, "words": [list(w.letters) for w in words]}, args.out)
    else:
        args.out.write("".join(",".join(map(str, w.letters)) + "\n" for w in words))
    return 0


def cmd_bfz_word(args) -> int:
    Q = pquiver.Quiver.from_string(args.quiver)
    word = pquiver.bfz_word(Q)
    if args.format == "json":
        _emit_json({"quiver": str(Q), **word.to_json()}, args.out)
    else:
        args.out.write(",".join(map(str, word.letters)) + "\n")
    return 0


def cmd_pq(args) -> int:
    if (args.set is None) == (args.pq is None):
        raise ValueError("give exactly one of --set or --pq")
    if args.set is not None:
        members = _parse_ints(args.set)
        P = pquiver.partial_quiver_of(members, args.n)
    else:
        P = pquiver.PartialQuiver.from_string(args.pq, args.n)
    members = sorted(pquiver.chamber_set_of(P))
    comps = pquiver.chamber_components(members, P.n)
    vec = spanning.chamber_column(members, P.n)
    if args.format == "json":
        payload = {
            "n": P.n,
            "pq": str(P),
            "set": members,
            "components": [{"type": c.type, "a": c.a, "b": c.b} for c in comps],
            "vector": vec.to_json(),
        }
        _emit_json(payload, args.out)
    else:
        comp_text = " ".join(f"({c.type},{c.a},{c.b})" for c in comps)
        label = wiring.format_chamber_set(members, P.n)
        args.out.write(f"pq={P}\nset={label}\ncomponents={comp_text}\n")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lusztig-cones",
        description="Lusztig cones of type A: diagrams, matrices, spanning vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, *required, options=(), rank=True, formats=("text", "json")):
        p = sub.add_parser(name)
        if rank:
            p.add_argument("--n", type=int, required=True)
        for flag in required:
            p.add_argument(flag, required=True)
        for flag in options:
            p.add_argument(flag)
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out")
        p.set_defaults(func=func)
        return p

    add("roots", cmd_roots, "--word")
    add("chambers", cmd_chambers, "--word")
    add("render", cmd_render, "--word", formats=("text", "svg"))
    add("cone-matrix", cmd_cone_matrix, "--word")
    add("spanning", cmd_spanning, "--word")
    p = add("verify", cmd_verify)
    p.add_argument(
        "--mode",
        choices=["exhaustive", "sample"],
        default="exhaustive",
        help="exhaustive: every reduced word; sample: --count words drawn "
        "uniformly, with replacement, by hook walk and Edelman–Greene",
    )
    p.add_argument("--count", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="processes, this one included; each checks its own stride of the words",
    )
    add("member", cmd_member, "--word", "--point")
    add("decompose", cmd_decompose, "--word", "--point")
    add("enumerate", cmd_enumerate)
    add("bfz-word", cmd_bfz_word, "--quiver", rank=False)
    add("pq", cmd_pq, options=("--set", "--pq"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # open --out before the command runs, so an unwritable path fails at once
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as args.out:
            return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
