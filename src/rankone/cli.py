"""Command-line front end.

Loads a construction from a JSON spec file, runs one certificate or query,
and emits a deterministic report: same spec file, same arguments, same
bytes.  JSON is the primary format; ``--format csv`` emits just the row
table and ``--format text`` a human summary.

Exit codes: 0 when a result or verdict was computed (including refuting
verdicts), 2 for spec-file or schema problems, 3 when a resource budget
was exceeded, 4 when a certificate's precondition failed, 1 for anything
unexpected.  A reader that closes stdout early, as ``| head`` does, ends
the run with exit code 1 and nothing on stderr.

Each handler imports the modules it runs, so ``describe``, ``heights`` and
``descendants`` never load :mod:`rankone.analysis`, :mod:`rankone.tower` or
:mod:`rankone.oracle`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import warnings
from fractions import Fraction
from itertools import count, repeat
from operator import eq, itemgetter

from rankone import gallery
from rankone.core import (
    Budget,
    BudgetExceeded,
    PreconditionError,
    RankOneError,
    RankOneSpec,
    _check_int,
    _exact,
    descendant_set,
)


class SpecFileError(RankOneError):
    """The spec file is missing, malformed, or violates the schema."""


# -- spec files ----------------------------------------------------------------

# Budget fields a run may set, each also a flag of the same name: the stage
# limit at the top of a spec file, the others in its "budget" object.
_STAGE_FIELD = "max_stage"
_BUDGET_KEYS = ("max_descendants", "max_pairs", "max_height_bits")
_TOP_KEYS = {"name", "builder", "budget", _STAGE_FIELD}
_BAD_NAME = re.compile(r"[\x00-\x1f\x7f-\x9f\ud800-\udfff]")  # C0, DEL, C1; surrogates


def _require_keys(mapping: dict, allowed, where: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise SpecFileError(f"unknown {where} fields: {sorted(unknown)}")


def load_spec(path: str, args: argparse.Namespace) -> RankOneSpec:
    """Build a RankOneSpec from a JSON file plus CLI budget overrides.

    The builder kinds and their fields are those of :data:`rankone.gallery.BUILDERS`.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise SpecFileError(f"cannot read spec file {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # nesting past the parser's depth
        raise SpecFileError(f"spec file {path} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise SpecFileError("spec file must contain a JSON object")
    _require_keys(data, _TOP_KEYS, "spec")
    if "builder" not in data or not isinstance(data["builder"], dict):
        raise SpecFileError('spec file needs a "builder" object')
    builder = dict(data["builder"])
    kind = builder.pop("kind", None)
    if not isinstance(kind, str) or kind not in gallery.BUILDERS:
        raise SpecFileError(
            f"unknown builder kind {kind!r}; expected one of {sorted(gallery.BUILDERS)}"
        )
    make, fields = gallery.BUILDERS[kind]
    _require_keys(builder, fields, f"builder[{kind}]")

    budget_fields = data.get("budget", {})
    if not isinstance(budget_fields, dict):
        raise SpecFileError('"budget" must be an object')
    budget_fields = dict(budget_fields)
    _require_keys(budget_fields, _BUDGET_KEYS, "budget")
    if _STAGE_FIELD in data:
        budget_fields[_STAGE_FIELD] = data[_STAGE_FIELD]
    for field in (_STAGE_FIELD, *_BUDGET_KEYS):
        v = getattr(args, field, None)
        if v is not None:
            budget_fields[field] = v
    try:
        budget = Budget(**budget_fields)
    except (TypeError, ValueError) as e:
        raise SpecFileError(f"bad budget: {e}") from e

    kwargs = {"budget": budget}
    if "name" in data:  # otherwise the constructor's default name applies
        if not isinstance(data["name"], str):
            raise SpecFileError(f'"name" must be a string, got {data["name"]!r}')
        if _BAD_NAME.search(data["name"]):  # no UTF-8, or a newline forging a text summary line
            what = "control character or lone surrogate"
            raise SpecFileError(f'"name" must hold no {what}, got {data["name"]!r}')
        kwargs["name"] = data["name"]
    try:
        for field, value in builder.items():
            keyword, convert = fields[field]
            kwargs[keyword] = value if convert is None else convert(value)
        return make(**kwargs)
    except (ValueError, TypeError) as e:
        raise SpecFileError(f"bad builder parameters: {e}") from e


# -- serialization ---------------------------------------------------------------


_JSON_INT_LIMIT = 1 << 53
_BRANCH = object()  # what _leaf returns for a dict, list or tuple (a record too)
_BATCH = 4096  # list items per batch


def _leaf(v):
    """The exact JSON image of a scalar: a rational as a 'p/q' string, an
    integer beyond the 53-bit float-safe range as a decimal string, any other
    scalar as it is; ``_BRANCH`` for a container."""
    if isinstance(v, (str, float, bool)) or v is None:
        return v
    if isinstance(v, int):
        return v if -_JSON_INT_LIMIT < v < _JSON_INT_LIMIT else str(v)
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (dict, list, tuple)):
        return _BRANCH
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _sorted_items(v) -> list:
    """The (key, value) pairs of a dict or record as the JSON image orders them."""
    if not isinstance(v, dict):
        return sorted(zip(v._fields, v))
    if not all(type(k) is str for k in v):
        v = {str(k): x for k, x in v.items()}  # keys equal after str() keep the last value
    return sorted(v.items())


def _texts(column) -> list[str] | None:
    """The JSON texts of a column of scalars, or ``None`` if it holds a
    container.  Integers inside the 53-bit range take one C-level pass by
    ``int.__repr__``, rationals one text per distinct object, and any other
    column ``json.dumps`` item by item."""
    kinds = set(map(type, column))
    if kinds == {int} and -_JSON_INT_LIMIT < min(column) and max(column) < _JSON_INT_LIMIT:
        return list(map(int.__repr__, column))
    if kinds == {Fraction}:
        ids = list(map(id, column))
        text = {i: json.dumps(str(x)) for i, x in dict(zip(ids, column)).items()}
        return list(map(text.__getitem__, ids))
    images = list(map(_leaf, column))
    return None if _BRANCH in images else list(map(json.dumps, images))


def _batch_text(batch, nl: str) -> str | None:
    """The texts of a batch of list items at indent ``nl``, joined; ``None``
    unless every item is a scalar, or every item a dict with the first item's
    str keys, or a record of the first item's type, with scalar values."""
    sep = "," + nl
    first = batch[0]
    if isinstance(first, dict):
        if (
            not first
            or any(type(k) is not str for k in first)
            or not all(map(isinstance, batch, repeat(dict)))
            or not all(map(eq, map(dict.keys, batch), repeat(first.keys())))
        ):
            return None
        slots = sorted(zip(first, first))  # (key, what itemgetter reads it by)
    elif hasattr(first, "_fields"):
        if not first or set(map(type, batch)) != {type(first)}:
            return None
        slots = sorted(zip(first._fields, count()))
    else:
        texts = _texts(batch)
        return None if texts is None else sep.join(texts)
    texts = [_texts(list(map(itemgetter(at), batch))) for _, at in slots]
    if None in texts:
        return None
    # one join of labels and values, interleaved row by row
    n, width = len(batch), 2 * len(slots)
    labels = ["," + nl + "  " + json.dumps(k) + ": " for k, _ in slots]
    head = "{" + labels[0][1:]
    labels[0] = nl + "}" + sep + head
    pieces = [None] * (n * width)
    for j, (label, column) in enumerate(zip(labels, texts)):
        pieces[2 * j :: width] = [label] * n
        pieces[2 * j + 1 :: width] = column
    pieces[0] = head
    return "".join(pieces) + nl + "}"


def _write_json(v, out) -> None:
    """Write ``json.dumps`` of the JSON image of ``v`` (every scalar by
    :func:`_leaf`, records as dicts of their fields, other tuples as lists),
    indented by 2 with sorted keys, and a newline to ``out`` in one pass over
    the raw values.

    Every scalar and every key is written as ``json.dumps`` of its image; the
    writer adds only key order, indentation and batching.  A list goes out in batches of ``_BATCH`` items, each one join where
    :func:`_batch_text` can and piece by piece where not.  Each piece is
    written to ``out`` as it is made, so the document is never held whole.
    """
    put = out.write

    def node(v, nl: str) -> None:
        x = _leaf(v)
        if x is not _BRANCH:
            put(json.dumps(x))
            return
        inner = nl + "  "
        if isinstance(v, dict) or hasattr(v, "_fields"):  # a record is a tuple too
            items = _sorted_items(v)
            if not items:
                put("{}")
                return
            sep = "{" + inner
            for k, x in items:
                put(sep + json.dumps(k) + ": ")
                node(x, inner)
                sep = "," + inner
            put(nl + "}")
            return
        if not v:
            put("[]")
            return
        sep = "," + inner
        put("[" + inner)
        for start in range(0, len(v), _BATCH):
            batch = v[start : start + _BATCH]
            if start:
                put(sep)
            text = _batch_text(batch, inner)
            if text is not None:
                put(text)
            else:
                for i, x in enumerate(batch):
                    if i:
                        put(sep)
                    node(x, inner)
        put(nl + "]")

    node(v, "\n")
    put("\n")


def _spec_block(spec: RankOneSpec) -> dict:
    return {
        "name": spec.name,
        "fingerprint": spec.fingerprint(),
        "builder": spec.params,
        "budget": spec.budget._asdict(),
        "declared_properties": sorted(spec.declared_properties),
        "notes": list(spec.notes),
    }


def _emit(payload: dict, fmt: str, out) -> None:
    """Write a payload of raw values in ``fmt``, every integer in full."""
    int_digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            _write_json(payload, out)
        else:
            _write_table(payload, fmt, out)
    finally:
        sys.set_int_max_str_digits(int_digits)


def _write_table(payload: dict, fmt: str, out) -> None:
    """Write the csv row table or the text summary of a raw payload, every
    scalar by :func:`_leaf`."""
    rep = payload.get("report")
    rows = (rep.rows if rep else ()) or payload.get("rows") or ()
    if fmt == "csv":
        if not rows:
            return
        import csv

        writer = csv.writer(out, lineterminator="\n")
        # a record's fields, or every key of the dict rows in first-seen order
        header = getattr(rows[0], "_fields", None) or [*dict.fromkeys(k for r in rows for k in r)]
        writer.writerow(header)
        for row in rows:
            writer.writerow(map(_cell, map(row.get, header) if isinstance(row, dict) else row))
        return
    # text: a report's kind, verdict and summary, or the result; then the row
    # count of any payload with rows, and the notes
    out.write(f"command: {payload['command']}\n")
    out.write(f"spec: {payload['spec']['name']} ({payload['spec']['fingerprint'][:12]})\n")
    if rep:
        out.write(f"kind: {rep.kind}\nverdict: {rep.verdict}\n")
    for k, v in (rep.summary if rep else payload.get("result", {})).items():
        out.write(f"{k}: {_cell(v)}\n")
    if rows:
        out.write(f"rows: {len(rows)}\n")
    for note in rep.notes if rep else ():
        out.write(f"note: {note}\n")
    for note in payload["spec"]["notes"]:
        out.write(f"spec note: {note}\n")


def _cell(v):
    """A scalar by :func:`_leaf`; a list as its items joined by spaces, a
    record item as its values joined by ': '."""
    if isinstance(v, (list, tuple)):
        items = (x if isinstance(x, tuple) else (x,) for x in v)
        return " ".join(": ".join(str(_leaf(y)) for y in item) for item in items)
    return _leaf(v)


# -- argument plumbing ------------------------------------------------------------


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from e


def _fraction(text: str) -> Fraction:
    try:
        return _exact("rational", text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"expected a rational like 1/2: {text!r}") from e


# Every subcommand by its words on the command line ("oracle mc" for an oracle
# one), in the order the help lists them: its handler, its help and the
# arguments it takes besides --spec, --format and the budget flags.
_COMMANDS: dict[tuple[str, ...], tuple] = {}


def _arg(*flags, **kwargs) -> tuple:
    """One argument of a subcommand, as ``add_argument`` takes it."""
    return flags, kwargs


def _command(words: str, help_: str, *arguments):
    """Declare the decorated handler as the subcommand ``words``."""

    def declare(handler):
        _COMMANDS[tuple(words.split())] = handler, help_, arguments
        return handler

    return declare


# -- handlers ----------------------------------------------------------------------


@_command(
    "describe",
    "stage table: r, h, height-set size, descendant spread",
    _arg("-n", "--stages", type=int, default=8),
)
def _h_describe(args, spec):
    _check_int("stage count", args.stages, 0)
    rows = []
    for n in range(args.stages):
        st = spec.stage(n)
        rows.append(
            {
                "stage": n,
                "r": st.r,
                "h": spec.height(n),
                "height_set_size": st.r,
                "max_descendant": spec.max_descendant(n),
            }
        )
    return {"rows": rows}


@_command("heights", "height set of one stage", _arg("-n", "--stage", type=int, required=True))
def _h_heights(args, spec):
    H = spec.height_set(args.stage)
    return {
        "result": {"h": spec.height(args.stage), "heights": list(H)},
        "rows": [{"index": i, "height": h} for i, h in enumerate(H)],
    }


@_command(
    "descendants",
    "descendant heights of a level",
    _arg("--i", type=int, required=True),
    _arg("--j", type=int, required=True),
    _arg("--b", type=int, default=0),
)
def _h_descendants(args, spec):
    D = descendant_set(spec, args.i, args.j, args.b)
    return {
        "result": {"size": len(D), "descendants": list(D)},
        "rows": [{"index": i, "height": d} for i, d in enumerate(D)],
    }


@_command(
    "measure",
    "exact overlap measure under a shift",
    _arg("--stage", type=int, required=True),
    _arg("--levels", type=_int_list, required=True),
    _arg("--k", type=int, required=True),
    _arg("--other-stage", type=int, dest="other_stage"),
    _arg("--other-levels", type=_int_list, dest="other_levels"),
)
def _h_measure(args, spec):
    from rankone import tower

    if args.other_stage is not None and args.other_levels is None:
        raise ValueError("--other-stage needs --other-levels")
    B = tower.level_set(spec, args.stage, args.levels)
    other = B
    if args.other_levels is not None:
        other_stage = args.other_stage if args.other_stage is not None else args.stage
        other = tower.level_set(spec, other_stage, args.other_levels)
    return {
        "result": {
            "quantity": "self-overlap" if args.other_levels is None else "shifted-intersection",
            "measure": tower.intersection_measure(spec, B, other, args.k),
            "set_measure": tower.measure(spec, B),
        },
    }


@_command(
    "check-cons",
    "sufficient condition for a conservative power",
    _arg("--k", type=int, required=True),
    _arg("--horizon", type=int, required=True),
    _arg("--threshold", type=_fraction, default=Fraction(1, 1000)),
)
def _h_check_cons(args, spec):
    from rankone import analysis

    rep = analysis.conservativity_sufficient(spec, args.k, args.horizon, args.threshold)
    return {"report": rep}


@_command(
    "check-noncons",
    "finite-horizon non-conservativity certificate",
    _arg("--k", type=int, required=True),
    _arg("--horizon", type=int, required=True),
    _arg("--floor", type=_fraction, default=Fraction(1, 2)),
)
def _h_check_noncons(args, spec):
    from rankone import analysis

    rep = analysis.nonconservativity_check(spec, args.k, args.horizon, args.floor)
    return {"report": rep}


@_command(
    "check-nonerg",
    "pair-realignment certificate against ergodicity",
    _arg("--b", type=int, required=True),
    _arg("--horizon", type=int, required=True),
)
def _h_check_nonerg(args, spec):
    from rankone import analysis

    rep = analysis.nonergodicity_certificate(spec, args.b, args.horizon)
    return {"report": rep}


@_command(
    "rigidity",
    "best rigidity shift of one stage",
    _arg("-n", "--stage", type=int, required=True),
)
def _h_rigidity(args, spec):
    from rankone import analysis

    a, ratio = analysis.rigidity_scan(spec, args.stage)
    return {
        "result": {"best_shift": a, "ratio": ratio, "height_set_size": spec.stage(args.stage).r},
    }


@_command(
    "alpha",
    "partial-rigidity profile of a level set",
    _arg("--stage", type=int, required=True),
    _arg("--levels", type=_int_list, default=(0,)),
    _arg("--kmax", type=int, required=True),
    _arg("--threshold", type=_fraction, default=Fraction(1, 2)),
    _arg("--dump", action="store_true", help="include every (k, ratio) row"),
)
def _h_alpha(args, spec):
    from rankone import analysis, tower

    B = tower.level_set(spec, args.stage, args.levels)
    prof = analysis.alpha_type_profile(
        spec, B, args.kmax, args.threshold, store_ratios=args.dump
    )
    payload = {
        "result": {
            "refined_stage": prof.stage,
            "base_size": prof.base_size,
            "exceptions": prof.exceptions,
            "sup_outside": prof.sup_outside,
            "sup_outside_at": prof.sup_outside_at,
        },
    }
    if prof.ratios is not None:
        payload["rows"] = prof.ratios  # (k, ratio) records, written as objects
    return payload


@_command(
    "arithmetic",
    "recurring staircase-pattern report",
    _arg("--horizon", type=int, required=True),
    _arg("--tau", type=_fraction, default=Fraction(1, 2)),
    _arg("--min-k", type=int, dest="min_k", default=-1),
)
def _h_arithmetic(args, spec):
    from rankone import analysis

    rep = analysis.arithmetic_report(spec, args.horizon, args.tau, args.min_k)
    return {"report": rep}


@_command("divisibility", "gcd of height-set elements", _arg("--horizon", type=int, required=True))
def _h_divisibility(args, spec):
    from rankone import analysis

    g, verdict = analysis.divisibility_gcd(spec, args.horizon)
    return {"result": {"gcd": g, "verdict": verdict}}


@_command(
    "wde",
    "first shift moving one set across itself and another",
    _arg("--a-stage", type=int, required=True),
    _arg("--a-levels", type=_int_list, required=True),
    _arg("--b-stage", type=int, required=True),
    _arg("--b-levels", type=_int_list, required=True),
    _arg("--nmax", type=int, required=True),
)
def _h_wde(args, spec):
    from rankone import analysis, tower

    A = tower.level_set(spec, args.a_stage, args.a_levels)
    B = tower.level_set(spec, args.b_stage, args.b_levels)
    n = analysis.wde_probe(spec, A, B, args.nmax)
    return {"result": {"first_shift": n, "found": n is not None}}


@_command(
    "koopman",
    "overlap-decay window check for the doubling family",
    _arg("--stage", type=int, required=True),
    _arg("--levels", type=_int_list, default=(0,)),
    _arg("--k", type=_int_list, default=()),
    _arg("--samples", type=int, default=200),
    _arg("--kmin", type=int),
    _arg("--kmax", type=int),
    _arg("--seed", type=int, default=0),
)
def _h_koopman(args, spec):
    from rankone import analysis, tower

    if args.k:
        ks = args.k
    else:
        if args.kmin is None or args.kmax is None:
            raise ValueError("need either --k or --samples with --kmin/--kmax")
        from rankone.oracle import SplitMix64

        rng = SplitMix64(args.seed)
        span = args.kmax - args.kmin
        if span <= 0:
            raise ValueError("need kmin < kmax")
        _check_int("samples", args.samples, 1)
        spec.budget.check("max_iterate", args.samples, "{} samples")
        ks = [args.kmin + rng.next_below(span) for _ in range(args.samples)]
    B = tower.level_set(spec, args.stage, args.levels)
    rep = analysis.koopman_decay_check(spec, B, ks)
    # the shifts drawn are the input, not the options that drew them
    inputs = {"stage": args.stage, "levels": args.levels, "shifts": len(ks), "seed": args.seed}
    return {"inputs": inputs, "report": rep}


@_command(
    "oracle descendants",
    "descendants by literal unfolding",
    _arg("--i", type=int, required=True),
    _arg("--j", type=int, required=True),
    _arg("--b", type=int, default=0),
)
def _h_oracle_descendants(args, spec):
    from rankone import oracle

    D = oracle.brute_descendants(spec, args.i, args.j, args.b)
    agrees = D == descendant_set(spec, args.i, args.j, args.b)
    return {"result": {"size": len(D), "descendants": list(D), "agrees_with_exact": agrees}}


@_command(
    "oracle tuples",
    "tuple fraction by exhaustive scan",
    _arg("--i", type=int, required=True),
    _arg("--j", type=int, required=True),
    _arg("--k", type=int, required=True),
)
def _h_oracle_tuples(args, spec):
    from rankone import analysis, oracle

    brute = oracle.brute_tuple_fraction(spec, args.i, args.j, args.k)
    exact = analysis.cons_fraction_exact(spec, args.i, args.j, args.k)
    return {"result": {"brute": brute, "exact": exact, "agrees": brute == exact}}


@_command(
    "oracle mc",
    "overlap measure by seeded sampling",
    _arg("--stage", type=int, required=True),
    _arg("--levels", type=_int_list, default=(0,)),
    _arg("--k", type=int, required=True),
    _arg("--samples", type=int, default=10_000),
    _arg("--seed", type=int, default=0),
)
def _h_oracle_mc(args, spec):
    from rankone import oracle, tower

    B = tower.level_set(spec, args.stage, args.levels)
    est, err = oracle.monte_carlo_measure(spec, B, args.k, args.samples, args.seed)
    exact = tower.translate_intersection_measure(spec, B, args.k)
    return {
        "result": {
            "estimate": est,
            "stderr": err,
            "exact": exact,
            "abs_error": abs(est - exact),
        },
    }


@_command(
    "oracle orbit",
    "pointwise map vs single steps",
    _arg("--stage", type=int, required=True),
    _arg("--height", type=int, required=True),
    _arg("--offset", type=_fraction, default=Fraction(0)),
    _arg("--k", type=int, required=True),
)
def _h_oracle_orbit(args, spec):
    from rankone import oracle, tower

    p = tower.point(spec, args.stage, args.height, args.offset)
    agrees = oracle.stepwise_orbit_check(spec, p, args.k)
    q = tower.apply_pointwise(spec, p, args.k)
    return {
        "result": {
            "agrees": agrees,
            "image_stage": q.stage,
            "image_height": q.height,
            "image_offset": q.offset,
        },
    }


# -- parser -------------------------------------------------------------------------


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The ``rankone`` argument parser.

    When ``argv`` starts with the words of one subcommand, the parser holds
    that subcommand alone, which parses ``argv`` as the whole parser does;
    otherwise it holds them all, as it must to print help, usage and errors.
    """
    top = argparse.ArgumentParser(
        prog="rankone",
        description="Exact certificates for rank-one constructions, of finite or infinite measure.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    oracle = None
    for words in [w for w in _COMMANDS if argv and tuple(argv[: len(w)]) == w] or _COMMANDS:
        handler, help_, arguments = _COMMANDS[words]
        if len(words) == 2 and oracle is None:
            po = sub.add_parser("oracle", help="independent brute-force cross-checks")
            oracle = po.add_subparsers(dest="oracle_command", required=True)
        p = (oracle if len(words) == 2 else sub).add_parser(words[-1], help=help_)
        p.add_argument("--spec", required=True, help="path to a JSON spec file")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        for field in (_STAGE_FIELD, *_BUDGET_KEYS):
            p.add_argument("--" + field.replace("_", "-"), type=int, dest=field)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(handler=handler)
    return top


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


# Parsed arguments that are not echoed as "inputs": the command itself, the
# spec file and its budget overrides, and the flags that only choose what is
# printed.
_NOT_INPUTS = {"command", "oracle_command", "handler", "spec", "format", "dump",
               _STAGE_FIELD, *_BUDGET_KEYS}


def main(argv=None) -> int:
    showwarning = warnings.showwarning
    warnings.showwarning = _print_warning
    try:
        return _run(sys.argv[1:] if argv is None else argv)
    finally:
        warnings.showwarning = showwarning


def _run(argv) -> int:
    args, unknown = build_parser(argv).parse_known_args(argv)
    if unknown:  # the whole parser refuses them, with its own usage line
        build_parser().parse_args(argv)
    int_digits = sys.get_int_max_str_digits()
    try:
        spec = load_spec(args.spec, args)
        # The spec file is read under the interpreter's digit limit; heights
        # derived from it print in full.
        sys.set_int_max_str_digits(0)
        # The handler runs before the spec block is built: stages it
        # materializes add to the spec's notes.
        payload = args.handler(args, spec)
        command = args.command if args.command != "oracle" else f"oracle-{args.oracle_command}"
        inputs = {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS}
        payload = {"command": command, "spec": _spec_block(spec), "inputs": inputs, **payload}
    except SpecFileError as e:
        print(f"spec error: {e}", file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except (PreconditionError, ValueError) as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return 4
    except Exception:  # pragma: no cover - defensive
        import traceback

        traceback.print_exc()
        return 1
    finally:
        sys.set_int_max_str_digits(int_digits)
    try:
        _emit(payload, args.format, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  What is left to flush at exit goes
        # to devnull, so Python prints no second error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
