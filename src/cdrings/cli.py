"""Command line surface: build towers, analyze algebras, verify, search.

Exit codes: 0 success, 1 a verification suite failed, 2 usage or
construction errors, 141 (128 + SIGPIPE) the reader closed standard output
early, as `cdrings search ... | head` does; that exit prints nothing. The
enumeration budget can be overridden with --budget, before or after the
subcommand, or the CDRINGS_ENUM_BUDGET environment variable. Malformed
integers, moduli below 2, negative depths, non-positive budgets and flags
a suite does not take are usage errors.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import inspect
import json
import os
import sys

from .algebra import identity_flags
from .analysis import center, essentiality_data
from .document import algebra_to_document, dumps_document, load_algebra
from .doubling import TowerSpec, build_tower, unit_towers
from .errors import AlgebraError, EnumerationBudgetExceeded
from .essentiality import (
    is_centrally_essential,
    is_left_n_essential,
    is_right_n_essential,
)
from .residue import DEFAULT_ENUMERATION_BUDGET
from .suites import SUITES, run_suite

SEARCH_FLAGS = (
    "associative",
    "commutative",
    "alternative",
    "right_alternative",
    "centrally_essential",
    "left_n_essential",
    "right_n_essential",
)


def _int_at_least(low: int, what: str):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be >= {low}, got {value}")
        return value

    parse.__name__ = what  # argparse names the type in its "invalid value" message
    return parse


_budget = _int_at_least(1, "budget")
_modulus = _int_at_least(2, "modulus")
_depth = _int_at_least(0, "depth")


def _budget_from(args) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("CDRINGS_ENUM_BUDGET")
    if env:
        try:
            return _budget(env)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise argparse.ArgumentTypeError(f"CDRINGS_ENUM_BUDGET={env!r}: {exc}") from None
    return DEFAULT_ENUMERATION_BUDGET


def _parse_params(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(p) for p in text.split(","))


def _parse_range(text: str) -> range | list[int]:
    """Accept '2..9' (kept a lazy range) or a comma list '2,3,4' of moduli."""
    if ".." in text:
        lo, hi = (_modulus(p) for p in text.split("..", 1))
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return range(lo, hi + 1)
    return [_modulus(p) for p in text.split(",")]


def _essentiality_checks():
    """(search flag, label, check) of the three essentiality checks, looked
    up in this module's namespace at each call rather than held in a table."""
    return (
        ("centrally_essential", "centrally essential", is_centrally_essential),
        ("left_n_essential", "left N-essential", is_left_n_essential),
        ("right_n_essential", "right N-essential", is_right_n_essential),
    )


def cmd_build(args) -> int:
    budget = _budget_from(args)
    try:
        stages = build_tower(TowerSpec(args.base, args.params))
    except AlgebraError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 2
    wanted = stages if args.all_stages else [stages[-1]]
    paths = [args.out] if len(wanted) == 1 else [f"{args.out}.stage{i}" for i in range(len(wanted))]
    try:
        with contextlib.ExitStack() as files:
            # Every output is opened before any scan, so a bad path costs nothing.
            outs = [args.out and files.enter_context(open(p, "w")) for p in paths]
            for alg, out in zip(wanted, outs):
                flags = identity_flags(alg)
                size = alg.modulus**alg.rank
                flag_text = ", ".join(k for k, v in flags.items() if v) or "none"
                print(f"{alg.name}: rank {alg.rank}, |R| = {size}, flags: {flag_text}")
                try:
                    ce = is_centrally_essential(alg, budget=budget)
                    print(f"  centrally essential: {ce.verdict} ({ce.method})")
                except EnumerationBudgetExceeded:
                    print("  centrally essential: skipped (over enumeration budget)")
                if out:
                    provenance = {
                        "kind": "tower",
                        "base": args.base,
                        "params": list(args.params)[: alg.rank.bit_length() - 1],
                        "name": alg.name,
                    }
                    out.write(dumps_document(algebra_to_document(alg, provenance)))
                    print(f"  wrote {out.name}")
    except OSError as exc:
        print(f"cannot write document: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_analyze(args) -> int:
    budget = _budget_from(args)
    try:
        alg = load_algebra(args.document)
    except (AlgebraError, ValueError, OverflowError, OSError) as exc:
        print(f"cannot load document: {exc}", file=sys.stderr)
        return 2
    rep = center(alg)
    data = essentiality_data(alg)
    print(f"{alg.name}: rank {alg.rank} over Z{alg.modulus}")
    sizes = rep.sizes()
    print(f"  |N| = {sizes['N']}, |K| = {sizes['K']}, |Z| = {sizes['Z']}")
    dsz = data.sizes()
    print(
        f"  |C| = {dsz['C']}, |[A,A]| = {dsz['[A,A]']}, |I| = {dsz['I']},"
        f" |B| = {dsz['B']}, |J| = {dsz['J']}"
    )
    for key, value in identity_flags(alg).items():
        print(f"  {key}: {value}")
    for _, label, check in _essentiality_checks():
        try:
            verdict = check(alg, budget=budget)
            line = f"  {label}: {verdict.verdict} [{verdict.method}]"
            if verdict.witness is not None and not verdict.verdict:
                line += f" witness {verdict.witness}"
            print(line)
        except EnumerationBudgetExceeded as exc:
            print(f"  {label}: skipped ({exc})")
    return 0


def cmd_verify(args) -> int:
    takes = inspect.signature(SUITES[args.suite]).parameters
    given = {name: getattr(args, name) for name in ("n_range", "bases", "depth", "budget")}
    extra = [name for name, value in given.items() if value is not None and name not in takes]
    if extra:
        flags = ", ".join("--" + name.replace("_", "-") for name in extra)
        raise argparse.ArgumentTypeError(f"suite {args.suite} does not take {flags}")
    kwargs = {name: value for name, value in given.items() if value is not None}
    if "budget" in takes:
        kwargs["budget"] = _budget_from(args)
    report = run_suite(args.suite, **kwargs)
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True, indent=1))
    else:
        print(report.render())
    return 0 if report.passed else 1


class _FlagExpression:
    """Boolean filter over search flags: names, !, &, |, parentheses."""

    def __init__(self, text: str):
        self.text = text
        source = text.replace("!", " not ").replace("&", " and ").replace("|", " or ")
        try:
            tree = ast.parse(source, mode="eval")
        except SyntaxError as exc:
            raise ValueError(f"bad filter expression {text!r}: {exc}") from exc
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if node.id not in SEARCH_FLAGS:
                    raise ValueError(
                        f"unknown flag {node.id!r}; choose from {', '.join(SEARCH_FLAGS)}"
                    )
            elif not isinstance(
                node, (ast.Expression, ast.BoolOp, ast.UnaryOp, ast.Not, ast.And, ast.Or, ast.Load)
            ):
                raise ValueError(f"unsupported syntax in filter {text!r}")
        self.code = compile(tree, "<filter>", "eval")
        self.names = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        }

    def evaluate(self, flags: dict[str, bool]) -> bool:
        return bool(eval(self.code, {"__builtins__": {}}, dict(flags)))


def _search_flags(algebra, budget: int) -> tuple[dict[str, bool], list[str]]:
    flags = identity_flags(algebra)
    skipped = []
    for name, _, check in _essentiality_checks():
        try:
            flags[name] = check(algebra, budget=budget).verdict
        except EnumerationBudgetExceeded:
            skipped.append(name)
    return flags, skipped


def cmd_search(args) -> int:
    budget = _budget_from(args)
    try:
        expr = _FlagExpression(args.filter) if args.filter else None
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        out = open(args.out, "w") if args.out else sys.stdout
    except OSError as exc:
        print(f"cannot write search rows: {exc}", file=sys.stderr)
        return 2
    try:
        for base in args.bases:
            for params, stages in unit_towers(base, args.depth):
                row = {"base": base, "params": list(params)}
                if isinstance(stages, AlgebraError):
                    row.update(skipped=True, reason=f"construction failed: {stages}")
                    print(json.dumps(row, sort_keys=True), file=out)
                    continue
                flags, skipped = _search_flags(stages[-1], budget)
                row.update(rank=stages[-1].rank, flags=flags)
                blocked = expr.names & set(skipped) if expr is not None else set()
                if blocked:
                    row["skipped"] = True
                    row["reason"] = (
                        "filter needs "
                        + ",".join(sorted(blocked))
                        + " but deciding it exceeds the enumeration budget"
                    )
                elif skipped:
                    row["flags_skipped"] = skipped
                if blocked or expr is None or expr.evaluate(flags):
                    print(json.dumps(row, sort_keys=True), file=out)
    finally:
        if args.out:
            out.close()
    return 0


def _budget_parser(default) -> argparse.ArgumentParser:
    """A parent parser that holds --budget alone, with the given default."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--budget",
        type=_budget,
        default=default,
        help="enumeration budget (elements); default 2**20 or CDRINGS_ENUM_BUDGET",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdrings",
        description="Finite doubling towers over Z/nZ: construction and analysis",
        parents=[_budget_parser(None)],
    )
    # A subcommand's --budget sets the value only when given after it, so it
    # never overwrites one given before the subcommand.
    budget = _budget_parser(argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a doubling tower", parents=[budget])
    p_build.add_argument("--base", type=_modulus, required=True, help="base modulus n")
    p_build.add_argument(
        "--params",
        type=_parse_params,
        default="",
        help="comma-separated doubling parameters, e.g. 1,1,1",
    )
    p_build.add_argument("--out", default=None, help="write the algebra document here")
    p_build.add_argument(
        "--all-stages", action="store_true", help="emit every stage, not just the last"
    )
    p_build.set_defaults(func=cmd_build)

    p_analyze = sub.add_parser(
        "analyze", help="analyze a saved algebra document", parents=[budget]
    )
    p_analyze.add_argument("document", help="path to an algebra document")
    p_analyze.set_defaults(func=cmd_analyze)

    p_verify = sub.add_parser(
        "verify", help="run a named verification suite", parents=[budget]
    )
    p_verify.add_argument("suite", choices=sorted(SUITES), help="suite name")
    p_verify.add_argument(
        "--n-range", type=_parse_range, default=None, help="modulus sweep, e.g. 2..9"
    )
    p_verify.add_argument(
        "--bases", type=_parse_range, default=None, help="tower bases, e.g. 2,3,4"
    )
    p_verify.add_argument("--depth", type=_depth, default=None, help="tower depth")
    p_verify.add_argument("--json", action="store_true", help="emit a JSON report")
    p_verify.set_defaults(func=cmd_verify)

    p_search = sub.add_parser(
        "search", help="sweep unit-parameter towers and filter by property flags", parents=[budget]
    )
    p_search.add_argument(
        "--bases", type=_parse_range, required=True, help="bases, e.g. 2..5 or 2,3,4"
    )
    p_search.add_argument("--depth", type=_depth, default=3, help="maximum tower depth")
    p_search.add_argument(
        "--filter",
        default=None,
        help="boolean flag expression, e.g. 'centrally_essential & !associative'",
    )
    p_search.add_argument("--out", default=None, help="write JSONL rows here")
    p_search.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here rather than at exit
        return status
    except BrokenPipeError:
        # The rest of the buffered output goes nowhere, so the flush at exit
        # cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    except AlgebraError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
