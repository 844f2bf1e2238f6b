"""Command-line front end: sample, exact, rmt, verify, rsk, hammersley.

Model specs come in as JSON files.  This module is the one writer: the
library's records hold Fractions and floats, and `_emit` prints rationals as
decimal-free "p/q" strings of any length and floats with 17 significant
digits, stamping every JSON payload with the schema, so a fixed config and
seed reproduce byte-identical output.  Exit status: 0 on success / PASS,
1 on a FAIL verdict, 2 on usage errors and core.InputError, 3 on any other
exception (each reported as a JSON object on stdout), and 141 (128 + SIGPIPE)
when the reader of stdout goes away first, as in `symlpp sample ... | head -3`;
then nothing more is written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from fractions import Fraction
from itertools import chain

from .core import DistributionTable, InputError, ModelSpec, matrix_from_rows_top_to_bottom
from .harness import hammersley_check, verify_model
from .lpp import mc_distribution, sample_chunks
from .rsk import check_rsk_budget, rsk
from .variants import exact_table, model_rmt_table, variant_of

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------


def format_rational(value: Fraction) -> str:
    """Render a Fraction as a decimal-free string, "p/q" or "p", of any length:
    Python's limit on the digits of an int-to-str conversion is lifted for this
    conversion only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def dump_json(obj, indent: int = 0) -> str:
    """JSON with Fractions as "p/q" strings and floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {dump_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is int for v in obj):
            items = map(str, obj)
        else:
            items = (dump_json(v, indent + 1) for v in obj)
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    if isinstance(obj, Fraction):
        return json.dumps(format_rational(obj))
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return json.dumps(str(obj))
        return format(obj, ".17g")
    if isinstance(obj, (int, str)):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _flatten_csv_value(v) -> str:
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, bool) or v is None:
        return "" if v is None else str(v).lower()
    return str(v)


def rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_flatten_csv_value(row.get(k)) for k in header))
    return "\n".join(lines) + "\n"


def _write_error(message: str, field: str | None, **extra):
    error = {"schema": SCHEMA_VERSION, "error": {"message": message, "field": field, **extra}}
    sys.stdout.write(dump_json(error) + "\n")


class _Parser(argparse.ArgumentParser):
    """Usage errors print the JSON error on stdout too, its field the dest of the
    one option the message names, else null."""

    def error(self, message):
        words = set(message.replace(",", " ").replace(":", " ").split())
        named = {a.dest for a in self._actions if words & set(a.option_strings)}
        _write_error(message, named.pop() if len(named) == 1 else None)
        super().error(message)


def _read_json(path: str, field: str):
    """The JSON in the file at `path`; a file that cannot be read or parsed is an
    error of `field`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{field} file not found: {path}", field=field)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {field} file: {exc}", field=field)
    except (ValueError, RecursionError) as exc:
        # bad syntax, an integer of more than sys.get_int_max_str_digits()
        # digits, or nesting deeper than the recursion limit
        raise InputError(f"malformed {field} JSON: {exc}", field=field)


def _load_model(path: str) -> ModelSpec:
    data = _read_json(path, "model")
    try:
        return ModelSpec.from_json_dict(data)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(str(exc), field="model")


def _seed_from(seed: int | None) -> int:
    """--seed, else LPP_SEED, else 0; numpy's seed sequences take no negative seed."""
    source = "--seed"
    if seed is None:
        source, env = "LPP_SEED", os.environ.get("LPP_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise InputError(f"LPP_SEED is not an integer: {env!r}", field="seed")
    if seed < 0:
        raise InputError(f"{source} must be nonnegative, got {seed}", field="seed")
    return seed


def _emit(args, payload: dict, rows: list[dict] | None = None):
    """`rows` as CSV under --format csv, else `payload` as JSON, "schema" first."""
    if args.format == "csv":
        text = rows_to_csv(rows)
    else:
        text = dump_json({"schema": SCHEMA_VERSION, **payload})
    _emit_pieces((text,), args.out)


def _emit_pieces(pieces, out_path: str | None):
    """Writes each piece of the output as it comes; on stdout the output ends
    with a newline.  An --out that cannot be opened is an error of `out`."""
    last = ""
    try:
        out = open(out_path, "w", encoding="utf-8") if out_path else \
            contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise InputError(f"cannot open output file: {exc}", field="out")
    with out as fh:
        for piece in pieces:
            fh.write(piece)
            last = piece or last
        if not out_path and not last.endswith("\n"):
            fh.write("\n")


def _emit_table(args, table: DistributionTable, extra: dict) -> int:
    rows = table.to_rows()
    _emit(args, {"model": args.model.to_json_dict(), **extra, "distribution": rows}, rows)
    return 0


def _emit_report(args, report) -> int:
    """A verification report's rows (csv) or the whole report (json); exit 1 on FAIL."""
    payload = report.to_json_dict()
    _emit(args, payload, payload["rows"])
    return 0 if report.passed() else 1


def _matrix_payload(n_rows: int, n_cols: int, rows_top_to_bottom: list) -> dict:
    return {
        "n_rows": n_rows,
        "n_cols": n_cols,
        "row_labels_top_to_bottom": [f"i={i}" for i in range(n_rows, 0, -1)],
        "rows_top_to_bottom": rows_top_to_bottom,
    }


# A placeholder string that the `sample` writer cuts dump_json output at.
_HOLE = "?"


def _sample_pieces(model: ModelSpec, count: int, seed: int):
    """The `sample` payload as dump_json prints it, one chunk of matrices at a
    time.  Each matrix fills a %-template that dump_json printed with a hole
    for every entry, so the chunks hold no JSON tree."""
    n_rows, n_cols = model.matrix_shape
    holes = [[_HOLE] * n_cols] * n_rows
    template = dump_json(_matrix_payload(n_rows, n_cols, holes), 2).replace(
        "%", "%%").replace(json.dumps(_HOLE), "%d")
    payload = {"schema": SCHEMA_VERSION, "model": model.to_json_dict(), "seed": seed,
               "count": count, "matrices": [_HOLE]}
    head, _, tail = dump_json(payload).rpartition(json.dumps(_HOLE))
    separator = ",\n    "  # between the items of a list at indent 1
    chunks = sample_chunks(model, count, seed)
    yield head
    for index, chunk in enumerate(chunks):
        text = separator.join([template] * len(chunk)) % tuple(
            chain.from_iterable(chain.from_iterable(chunk)))
        yield separator + text if index else text
    yield tail


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_sample(args) -> int:
    pieces = _sample_pieces(args.model, args.count, args.seed)
    head = next(pieces)  # checks the site plan before --out is opened
    _emit_pieces(chain((head,), pieces), args.out)
    return 0


def _cmd_exact(args) -> int:
    probs = dict(enumerate(exact_table(args.model, args.lmax)))
    return _emit_table(args, DistributionTable(probs, exact=True), {"kind": "exact"})


def _cmd_rmt(args) -> int:
    row = {"l": args.l, "method": variant_of(args.model).method,
           "value": model_rmt_table(args.model, args.l)[args.l], "exactness": "rational"}
    _emit(args, {"model": args.model.to_json_dict(), **row}, [row])
    return 0


def _cmd_verify(args) -> int:
    return _emit_report(args, verify_model(args.model, args.lmax, args.samples, args.seed,
                                           z_max=args.zmax))


def _cmd_rsk(args) -> int:
    data = _read_json(args.matrix, "matrix")
    if not isinstance(data, dict):
        raise InputError("matrix JSON must be an object", field="matrix")
    if "rows_top_to_bottom" not in data:
        raise InputError("matrix JSON is missing required field 'rows_top_to_bottom'",
                         field="rows_top_to_bottom")
    rows = data["rows_top_to_bottom"]
    # bool is a subclass of int, and int() would truncate a float or parse a string
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows) and all(
            type(x) is int and x >= 0 for x in chain.from_iterable(rows))):
        raise InputError("rows_top_to_bottom must be a list of rows of nonnegative integers",
                         field="rows_top_to_bottom")
    if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        raise InputError("rows_top_to_bottom must hold rows of one nonzero length",
                         field="rows_top_to_bottom")
    check_rsk_budget(rows)
    matrix = matrix_from_rows_top_to_bottom(rows)
    pair = rsk(matrix)
    _emit(args, {
        "matrix": _matrix_payload(matrix.n_rows, matrix.n_cols, matrix.rows_top_to_bottom()),
        "shape": list(pair.p.shape.parts),
        "p_rows": [list(r) for r in pair.p.rows],
        "q_rows": [list(r) for r in pair.q.rows],
    })
    return 0


def _cmd_hammersley(args) -> int:
    return _emit_report(args, hammersley_check(args.lam, args.lmax, args.samples, args.seed,
                                               z_max=args.zmax))


def _cmd_mc(args) -> int:
    table = mc_distribution(args.model, args.lmax, args.samples, args.seed)
    return _emit_table(args, table, {"kind": "mc", "seed": args.seed, "samples": args.samples})


def _at_least(least: int):
    return least - 1, f"at least {least}"  # an integer is at least least if above least - 1


# Each option once: its add_argument keywords, then its range as (an exclusive
# lower bound, the text that names it), or None.  Ranges are checked in this order.
_OPTIONS = {
    "lmax": ({"type": int, "required": True}, _at_least(0)),
    "l": ({"type": int, "required": True}, _at_least(0)),
    "count": ({"type": int, "default": 1}, _at_least(1)),
    "samples": ({"type": int, "default": 100_000}, _at_least(1)),
    "threads": ({"type": int, "default": 1, "help": "accepted for compatibility (at least 1); "
                 "it has no effect"}, _at_least(1)),
    "zmax": ({"type": float, "default": 4.0}, (0, "positive and finite")),
    "lam": ({"type": float, "required": True}, (0, "positive and finite")),
    "model": ({"required": True, "help": "model spec JSON file"}, None),
    "matrix": ({"required": True, "help": "JSON file with field rows_top_to_bottom"}, None),
    "seed": ({"type": int, "help": "RNG seed (fallback: env LPP_SEED, then 0)"}, None),
    "out": ({"help": "output path (default stdout)"}, None),
    "format": ({"choices": ("json", "csv"), "default": "json"}, None),
}

# Each subcommand: its function, its help, its options in usage order, and the
# formats it writes.
_COMMANDS = {
    "sample": (_cmd_sample, "draw matrices from a model", "model seed out format count", "json"),
    "exact": (_cmd_exact, "exact cumulative law Pr(L <= l)", "model out format lmax", "json csv"),
    "rmt": (_cmd_rmt, "matrix-average formula at one bound", "model out format l", "json csv"),
    "mc": (_cmd_mc, "Monte Carlo cumulative law", "model seed out format lmax samples threads",
           "json csv"),
    "verify": (_cmd_verify, "Monte Carlo vs exact vs matrix average",
               "model seed out format lmax samples zmax threads", "json csv"),
    "rsk": (_cmd_rsk, "insertion pair of a matrix", "matrix out format", "json"),
    "hammersley": (_cmd_hammersley, "Poisson chain-length law vs Toeplitz formula",
                   "seed out format lam lmax samples zmax", "json csv"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, from _COMMANDS and _OPTIONS; built once."""
    parser = _Parser(prog="symlpp", description="Symmetrized last-passage percolation: exact "
                     "laws, matrix averages, and Monte Carlo cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, options, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in options.split():
            p.add_argument(f"--{name}", **_OPTIONS[name][0])
    return parser


def _check_arguments(args, formats):
    """The input errors that need no file: each option's range, then --out, then
    a --format the command does not write."""
    for name, (_, bounds) in _OPTIONS.items():
        value = getattr(args, name, None)
        if bounds and value is not None and not bounds[0] < value < math.inf:
            raise InputError(f"--{name} must be {bounds[1]}, got {value}", field=name)
    out = args.out and os.path.abspath(args.out)  # not opened: a refused run keeps the file
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out))):
        raise InputError(f"--out must name a file in an existing directory: {args.out}",
                         field="out")
    if args.format not in formats.split():
        raise InputError(f"{args.command} writes JSON only, not {args.format}", field="format")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout is gone: write nothing more, and point stdout
        # at devnull so that the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


def _run(args) -> int:
    """Checks the arguments, reads --model and resolves --seed in place, then runs
    the command."""
    func, _, _, formats = _COMMANDS[args.command]
    try:
        _check_arguments(args, formats)
        if hasattr(args, "model"):
            args.model = _load_model(args.model)
        if hasattr(args, "seed"):
            args.seed = _seed_from(args.seed)
        return func(args)
    except BrokenPipeError:
        raise
    except InputError as exc:
        # a budget raiser that does not know the argument at fault means the
        # bound: --l of rmt, --lmax of the others
        _write_error(str(exc), exc.field or ("l" if args.command == "rmt" else "lmax"))
        return 2
    except Exception as exc:
        # any other failure is a fault of symlpp, not of the input or the verdict
        _write_error(type(exc).__name__ + (f": {exc}" if str(exc) else ""), None,
                     internal=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
