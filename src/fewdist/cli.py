"""Command-line interface: JSON on stdout, diagnostics on stderr.

Exit codes: 0 success, including a proof that a ratio tuple given to
`invert` has no preimage; 1 a theorem check failed although the cardinality
hypothesis was met; 2 usage or input error; 3 numerical failure, such as a
tuple `invert` leaves undecided.
"""

from __future__ import annotations

import argparse
import sys

from .bounds import FAMILIES, SETTINGS, theorem_context
from .defaults import DEFAULT_BOX_CAP, DEFAULT_MAX_ITER, DEFAULT_TOL, DEFAULT_TOL_INT
from .defaults import DEFAULT_TOL_PSD, DEFAULT_TOL_RANK, DEFAULT_TOL_RES, NAMED_CONSTRUCTIONS
from .errors import FewdistError, InputError, NumericalError, ParameterError, PointFileError
from .jsonio import dumps

# Each handler imports the modules it runs, so a command loads no more of
# the package than it needs.


def _nonnegative(convert):
    """An argparse type: convert, then refuse NaN, infinities and negatives."""
    def parse(text):
        value = convert(text)
        if not 0 <= value < float("inf"):
            raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid float value: ..."
    return parse


def build_parser() -> argparse.ArgumentParser:
    # The global flags accept both positions (before and after a subcommand).
    # Subparsers re-parse into a fresh namespace and copy every attribute
    # back, so a concrete default here would clobber a value parsed by the
    # main parser; SUPPRESS keeps unset flags out of that copy, and run()
    # fills the real defaults after parsing. set_defaults is unusable for
    # this: it rewrites the shared actions' defaults in place.
    tolerance = _nonnegative(float)
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument(
        "--tol-int", type=tolerance, default=argparse.SUPPRESS, help="integrality tolerance"
    )
    common.add_argument(
        "--tol-rank", type=tolerance, default=argparse.SUPPRESS, help="numeric rank tolerance"
    )
    common.add_argument(
        "--json-pretty", action="store_true", default=argparse.SUPPRESS, help="indent JSON output"
    )
    parser = argparse.ArgumentParser(
        prog="fewdist",
        description="Certify ratio integrality of few-distance sets, invert ratio "
        "tuples to distances, and enumerate admissible distance systems.",
        allow_abbrev=False,
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[common], help="emit a named point configuration")
    p.add_argument("name", choices=("johnson",) + NAMED_CONSTRUCTIONS)
    p.add_argument("-d", type=int, default=None)
    p.add_argument("-s", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("profile", parents=[common], help="distance / inner-product class profile")
    p.add_argument("pointfile")
    p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("ratios", parents=[common], help="ratio integrality report")
    p.add_argument("pointfile")
    p.add_argument("--setting", choices=("auto", *FAMILIES), default="auto")
    p.add_argument("--all", action="store_true", help="report every applicable setting")
    p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    p.add_argument(
        "-d", "--dimension", type=int, default=None, help="override the effective dimension"
    )
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_ratios)

    p = sub.add_parser("certify", parents=[common], help="spectral certificate per distance class")
    p.add_argument("pointfile")
    p.add_argument("--setting", choices=("auto", "all", *FAMILIES), default="auto")
    p.add_argument("--class", dest="class_index", default="all", help="1-based index or 'all'")
    p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("invert", parents=[common], help="invert a ratio tuple to normalized distances")
    p.add_argument("-s", type=int, required=True)
    p.add_argument("-k", required=True, help="comma-separated k_1..k_{s-1}")
    p.add_argument("--tol-res", type=tolerance, default=DEFAULT_TOL_RES)
    p.add_argument("--max-iter", type=_nonnegative(int), default=DEFAULT_MAX_ITER)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("enumerate", parents=[common], help="catalog admissible integer ratio tuples")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-s", type=int, required=True)
    p.add_argument("--realize", action="store_true", help="invert each tuple")
    p.add_argument("--cap", type=int, default=DEFAULT_BOX_CAP)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("embed-check", parents=[common], help="realizability of a distance or Gram matrix")
    p.add_argument("matrixfile")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--tol-psd", type=tolerance, default=DEFAULT_TOL_PSD)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_embed_check)

    p = sub.add_parser("bounds", parents=[common], help="theorem context for a setting and (d, s)")
    p.add_argument("--setting", choices=SETTINGS, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-s", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_bounds)

    return parser


def _emit(payload, args) -> None:
    text = dumps(payload, pretty=args.json_pretty)
    if getattr(args, "output", None):
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text + "\n")


def _cmd_construct(args) -> int:
    from .pointset import construct_johnson, construct_named

    if args.name == "johnson":
        if args.d is None or args.s is None:
            raise ParameterError("construct johnson needs -d and -s")
        ps = construct_johnson(args.d, args.s)
    else:
        ps = construct_named(args.name, args.d)
    _emit(ps.to_dict(), args)
    return 0


def _cmd_profile(args) -> int:
    from .pointset import distance_profile, inner_product_profile, load_points, on_unit_sphere

    ps = load_points(args.pointfile)
    payload = {
        "n": ps.n,
        "dimension": ps.dimension,
        "distance": distance_profile(ps, args.tol).to_dict(),
        "inner_product": (
            inner_product_profile(ps, args.tol).to_dict() if on_unit_sphere(ps, args.tol) else None
        ),
    }
    _emit(payload, args)
    return 0


def _cmd_ratios(args) -> int:
    from .pointset import load_points
    from .ratios import analyze

    ps = load_points(args.pointfile)
    report = analyze(
        ps,
        setting=args.setting,
        all_settings=args.all,
        tol=args.tol,
        tol_int=args.tol_int,
        tol_rank=args.tol_rank,
        d_override=args.dimension,
    )
    _emit(report.to_dict(), args)
    failed = any(
        r.hypothesis_met and not (r.all_integral and r.all_within_bound) for r in report.reports
    )
    return 1 if failed else 0


def _cmd_certify(args) -> int:
    from .certificate import class_index_range, indicator_matrix, verify_key_lemmas
    from .pointset import load_points
    from .ratios import applicable_settings, choose_settings

    ps = load_points(args.pointfile)
    settings = choose_settings(applicable_settings(ps, args.tol, args.tol_rank), args.setting)
    indices = {setting: class_index_range(ps, setting, args.tol) for setting in settings}
    if args.class_index != "all":
        try:
            chosen = int(args.class_index)
        except ValueError as exc:
            raise InputError(f"--class must be an integer or 'all': {exc}") from exc
        ranges = ", ".join(f"[{r.start}, {r.stop - 1}] for {name}" for name, r in indices.items())
        # The class is certified in each chosen setting that has it.
        indices = {name: [chosen] for name, r in indices.items() if chosen in r}
        if not indices:
            raise ParameterError(f"class index {chosen} out of range {ranges}")
    verdicts = []
    for setting, chosen_indices in indices.items():
        # A setting's classes together: B's view reads each strip of pair values once for them all.
        ims = [indicator_matrix(ps, index, setting, args.tol, tol_rank=args.tol_rank) for index in chosen_indices]
        verdicts += verify_key_lemmas(ims, tol_int=args.tol_int, tol_rank=args.tol_rank)
    payload = {
        "n": ps.n,
        "settings": list(indices),
        "verdicts": [v.to_dict() for v in verdicts],
        "all_passed": all(v.all_passed for v in verdicts),
    }
    _emit(payload, args)
    failed = any(v.hypothesis_met and not v.all_passed for v in verdicts)
    return 1 if failed else 0


def _cmd_invert(args) -> int:
    from .inverse import invert_auto

    try:
        target = [float(x) for x in args.k.split(",") if x.strip()]
    except ValueError as exc:
        raise InputError(f"-k must be a comma-separated number list: {exc}") from exc
    if len(target) != args.s - 1:
        raise InputError(f"-k needs s-1 = {args.s - 1} values, got {len(target)}")
    result = invert_auto(target, tol_res=args.tol_res, max_iter=args.max_iter)
    _emit(result.to_dict(), args)
    return 0 if result.success or result.method == "no_preimage" else 3


def _cmd_enumerate(args) -> int:
    from .search import catalog_report, enumerate_tuples, realize_catalog

    catalog = enumerate_tuples(args.d, args.s, cap=args.cap)
    if args.realize:
        catalog = realize_catalog(catalog)
    payload = catalog.to_dict()
    payload["report"] = catalog_report(catalog)
    _emit(payload, args)
    return 0


def _cmd_embed_check(args) -> int:
    import numpy as np

    from .embed import euclidean_embeddable, spherical_embeddable
    from .pointset import _json_value, _read_source

    payload = _json_value(_read_source(args.matrixfile)[0])
    if not isinstance(payload, dict) or "matrix" not in payload:
        raise PointFileError('matrix JSON must be an object with a "matrix" array')
    kind = payload.get("kind", "squared_distance")
    try:
        matrix = np.asarray(payload["matrix"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise PointFileError(f"non-numeric matrix entry: {exc}") from exc
    if kind == "squared_distance":
        verdict = euclidean_embeddable(matrix, args.d, tol_psd=args.tol_psd)
    elif kind == "gram":
        verdict = spherical_embeddable(matrix, args.d, tol_psd=args.tol_psd)
    else:
        raise PointFileError(f'unknown matrix kind {kind!r}; use "squared_distance" or "gram"')
    _emit(verdict.to_dict(), args)
    return 0


def _cmd_bounds(args) -> int:
    _emit(theorem_context(args.setting, args.d, args.s).to_dict(), args)
    return 0


GLOBAL_DEFAULTS = {"tol_int": DEFAULT_TOL_INT, "tol_rank": DEFAULT_TOL_RANK, "json_pretty": False}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    for dest, value in GLOBAL_DEFAULTS.items():
        if not hasattr(args, dest):
            setattr(args, dest, value)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except FewdistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
