"""Command-line front end.

Builds groups and automorphisms from compact descriptors or JSON files,
runs the growth/entropy/tower/distortion experiments, and emits CSV
tables, JSON reports, and two-column plot data.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .autom import (
    Endomorphism,
    abelianization_matrix,
    builtin_automorphism,
    is_automorphism,
    is_homologically_trivial,
    spectral_report,
)
from .constructions import (
    free_nilpotent,
    semidirect_unipotent,
    surface_quotient,
    upper_central_lengths,
)
from .growth import (
    _length_text,
    abelian_comparison,
    growth_series,
    quotient_tower,
    distortion_profile,
    series_to_csv,
)
from .hall import HallBasis
from .nilgroup import (
    SpecFormatError,
    _json_array,
    eval_word,
    geodesic_length,
    karidi_length,
    multiply,
    spec_from_json,
    spec_to_json,
    vector_from_json,
    vector_to_json,
)


# ---------------------------------------------------------------------------
# argument decoding


def _json(text, what):
    """``text`` decoded as JSON; a decode error is a :class:`SpecFormatError`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{what} is not valid JSON: {exc}") from None


def _load_group(text):
    kind, sep, counts = text.partition(":")
    if sep and kind in ("free", "surface"):
        try:
            a, b = map(int, counts.split(","))
        except ValueError:
            raise SpecFormatError(
                f"bad group {text!r}: expected free:m,c, surface:g,c or a spec JSON file"
            ) from None
        return free_nilpotent(a, b) if kind == "free" else surface_quotient(a, b)
    return spec_from_json(_json(Path(text).read_text(), f"file {text!r}"))


def _load_automorphism(text, spec):
    if text.startswith("builtin:"):
        return builtin_automorphism(text[len("builtin:"):], spec)
    data = _json(Path(text).read_text(), f"file {text!r}")
    if not isinstance(data, dict) or "images" not in data:
        raise SpecFormatError('automorphism file needs an "images" list')
    images = _json_array(data["images"], "images")
    if len(images) != spec.rank:
        raise SpecFormatError(
            f"automorphism file needs {spec.rank} images, one per generator, got {len(images)}"
        )
    return Endomorphism(spec, [vector_from_json(row, spec) for row in images])


def _parse_element(text, spec):
    text = text.strip()
    if text.startswith("["):
        return vector_from_json(_json(text, f"element {text!r}"), spec)
    return eval_word(text, spec)


def _fmt_vector(g):
    return "(" + ",".join(str(v) for v in g) + ")"


def _emit_json(payload, out_path=None):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if out_path:
        Path(out_path).write_text(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_hall(args):
    basis = HallBasis(args.rank, args.nil_class)
    for k, entry in enumerate(basis.entries):
        print(f"{k}\t{entry!r}\t{entry.weight}")
    return 0


def cmd_eval(args):
    spec = _load_group(args.group)
    print(_fmt_vector(eval_word(args.word, spec)))
    return 0


def cmd_mul(args):
    spec = _load_group(args.group)
    a = _parse_element(args.left, spec)
    b = _parse_element(args.right, spec)
    print(_fmt_vector(multiply(a, b, spec)))
    return 0


def cmd_len(args):
    spec = _load_group(args.group)
    g = _parse_element(args.element, spec)
    exact = geodesic_length(g, spec, radius_cap=args.radius_cap)
    _emit_json({
        "karidi": karidi_length(g, spec).value,
        "geodesic": exact,
    })
    return 0


def cmd_aut_check(args):
    spec = _load_group(args.group)
    phi = _load_automorphism(args.aut, spec)
    report = spectral_report(abelianization_matrix(phi))
    _emit_json({
        "is_automorphism": is_automorphism(phi),
        "homologically_trivial": is_homologically_trivial(phi),
        "unipotent": report.unipotent,
        "quasi_unipotent": report.quasi_unipotent,
        "spectral_radius": report.spectral_radius,
        "radius_error": report.radius_error,
        "charpoly": list(report.charpoly),
    }, args.out)
    return 0


def cmd_grow(args):
    spec = _load_group(args.group)
    phi = _load_automorphism(args.aut, spec)
    g = _parse_element(args.subject, spec)
    series = growth_series(phi, g, args.n, mode=args.mode)
    series_to_csv(series, args.out or sys.stdout)
    return 0


def cmd_entropy(args):
    spec = _load_group(args.group)
    phi = _load_automorphism(args.aut, spec)
    if args.subject:
        subjects = [_parse_element(s, spec) for s in args.subject]
    else:
        subjects = [spec.indicator(k) for k in range(spec.rank)]
    _emit_json(abelian_comparison(phi, generators=subjects, n_max=args.n,
                                  mode=args.mode), args.out)
    if args.plot:
        modes = [m.strip() for m in args.plot_modes.split(",") if m.strip()]
        for mode in modes:
            series = growth_series(phi, subjects[0], args.n, mode=mode)
            Path(f"{args.plot}-{mode}.dat").write_text(
                "".join(f"{entry.n} {_length_text(entry)}\n" for entry in series.entries))
    return 0


def cmd_tower(args):
    spec = _load_group(args.group)
    phi = _load_automorphism(args.aut, spec)
    g = _parse_element(args.subject, spec)
    classes = sorted({int(x) for x in args.classes.split(",")})

    rows = quotient_tower(phi, g, classes, n_max=args.n, mode=args.mode)
    for row in rows:
        print(f"{row['class']}\t{row['entropy']:.6f}\t{row['residual']:.3g}")
    if args.out:
        Path(args.out).write_text(json.dumps(rows, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_distortion(args):
    spec = _load_group(args.group)
    fit = distortion_profile(spec, args.weight, radius=args.radius)
    _emit_json({
        "weight": args.weight,
        "degree": fit.degree,
        "correlation": fit.correlation,
    }, args.out)
    return 0


def cmd_semidirect(args):
    spec = _load_group(args.group)
    phi = _load_automorphism(args.aut, spec)
    sd = semidirect_unipotent(spec, phi)
    _emit_json({
        "base": spec_to_json(spec),
        "monodromy": [vector_to_json(img) for img in phi.images],
        "class": sd.nilpotency_class,
        "hirsch": sd.hirsch_length,
        "upper_central_length": upper_central_lengths(sd),
    }, args.out)
    return 0


def cmd_surface(args):
    spec = surface_quotient(args.genus, args.nil_class)
    ranks = [spec.graded_rank(d) for d in range(1, args.nil_class + 1)]
    _emit_json({
        "genus": args.genus,
        "class": args.nil_class,
        "ranks": ranks,
        "hirsch": spec.hirsch_length,
    })
    if args.out:
        Path(args.out).write_text(json.dumps(spec_to_json(spec), sort_keys=True, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_group_flag(p):
    p.add_argument(
        "--group", required=True,
        help="free:m,c | surface:g,c | path to a spec JSON file",
    )


def _add_aut_flag(p):
    p.add_argument(
        "--aut", required=True,
        help="builtin:fib | builtin:unipotent-shear | builtin:central-shear "
             "| path to an images JSON file",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nilentropy",
        description="Exact arithmetic and growth experiments in finitely "
                    "generated torsion-free nilpotent groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hall", help="list the commutator basis")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--class", dest="nil_class", type=int, required=True)
    p.set_defaults(func=cmd_hall)

    p = sub.add_parser("eval", help="evaluate a word into coordinates")
    _add_group_flag(p)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mul", help="multiply two elements")
    _add_group_flag(p)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("len", help="karidi and (small) geodesic lengths")
    _add_group_flag(p)
    p.add_argument("--element", required=True)
    p.add_argument("--radius-cap", type=int, default=10)
    p.set_defaults(func=cmd_len)

    p = sub.add_parser("aut-check", help="automorphism and spectral report")
    _add_group_flag(p)
    _add_aut_flag(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_aut_check)

    p = sub.add_parser("grow", help="growth series as CSV")
    _add_group_flag(p)
    _add_aut_flag(p)
    p.add_argument("--subject", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", default="karidi")
    p.add_argument("--out")
    p.set_defaults(func=cmd_grow)

    p = sub.add_parser("entropy", help="entropy vs spectral radius report")
    _add_group_flag(p)
    _add_aut_flag(p)
    p.add_argument("--subject", action="append",
                   help="repeatable; defaults to the generators")
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--mode", default="karidi")
    p.add_argument("--out")
    p.add_argument("--plot", help="prefix for per-mode two-column .dat files")
    p.add_argument("--plot-modes", default="karidi")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("tower", help="entropy per truncation level")
    _add_group_flag(p)
    _add_aut_flag(p)
    p.add_argument("--subject", default="x1")
    p.add_argument("--classes", required=True, help="comma list, e.g. 2,3,4")
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--mode", default="karidi")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("distortion", help="subgroup distortion degree")
    _add_group_flag(p)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--radius", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_distortion)

    p = sub.add_parser("semidirect", help="extension by a unipotent map")
    _add_group_flag(p)
    _add_aut_flag(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_semidirect)

    p = sub.add_parser("surface", help="surface-relator nilpotent quotient")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--class", dest="nil_class", type=int, required=True)
    p.add_argument("--out", help="write the spec JSON here")
    p.set_defaults(func=cmd_surface)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
