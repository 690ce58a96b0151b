"""Command-line driver.

Subcommands: ``chase`` (canonical solution), ``core`` (core solution),
``blocks`` (block partition and packedness report), ``minrep`` (per-block
minimal-world representatives), ``eval`` (query answers under a chosen
semantics), ``compare`` (fast path against the oracle paths).

Exit codes: 0 success, 1 usage or parse error, 2 precondition violation,
3 budget exceeded.  Identical inputs produce byte-identical outputs; timings
are only emitted with ``--timings``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from typing import Optional

from . import chase as chase_mod
from . import gcwa, oracle, randgen
from .corelib import atom_blocks, blocks_packed, core_solution
from .errors import BudgetExceeded, DxError, ParseError, PreconditionViolated
from .logic import FOQuery, is_ucq, is_universal
from .minrep import BlockReps, enum_min_c
from .model import Const, Instance, SchemaMapping
from .textio import (
    SourceText,
    answers_json,
    parse_instance,
    parse_mapping,
    parse_query,
    serialize_instance,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3


def _load_mapping(path: str) -> SchemaMapping:
    return parse_mapping(SourceText.from_file(path))


def _load_instance(path: str, mapping: SchemaMapping, schema: str) -> Instance:
    sch = {
        "source": mapping.source,
        "target": mapping.target,
        "combined": mapping.combined_schema(),
    }[schema]
    return parse_instance(SourceText.from_file(path), sch)


def _load_query(path: str, mapping: SchemaMapping) -> FOQuery:
    return parse_query(SourceText.from_file(path), mapping.combined_schema())


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _budget(args) -> oracle.Budget:
    return oracle.Budget(
        fresh_constants=args.budget_fresh,
        max_atoms=args.budget_atoms,
        max_fixpoint_rounds=args.budget_rounds,
    )


@functools.cache  # argparse takes about 1 ms to build it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dx", description="relational data-exchange engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, needs_source=True):
        p.add_argument("-m", "--mapping", required=True, help="mapping file")
        if needs_source:
            p.add_argument("-s", "--source", required=True, help="source instance file")
        p.add_argument("-o", "--output", help="output file (default: stdout)")

    p = sub.add_parser("chase", help="emit the canonical universal solution")
    add_io(p)

    p = sub.add_parser("core", help="emit the core of the universal solutions")
    add_io(p)

    p = sub.add_parser("blocks", help="emit the atom-block partition report")
    p.add_argument("-m", "--mapping", required=True)
    p.add_argument("-i", "--instance", required=True, help="target instance file")
    p.add_argument("-o", "--output")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("minrep", help="emit minimal-world representatives")
    p.add_argument("-m", "--mapping", required=True)
    p.add_argument("-i", "--instance", required=True, help="target instance file")
    p.add_argument("--constants", default="", help="comma-separated constant pool")
    p.add_argument("--whole", action="store_true", help="whole-instance enumeration (exponential)")
    p.add_argument("-o", "--output")

    p = sub.add_parser("eval", help="answer a query under a semantics")
    add_io(p)
    p.add_argument("-q", "--query", required=True, action="append", help="query file (repeatable)")
    p.add_argument(
        "--semantics",
        default="gcwa-star",
        choices=sorted(oracle.SEMANTICS),
    )
    p.add_argument("--oracle", "--force-oracle", action="store_true",
                   help="use the brute-force oracle even when a fast path applies")
    p.add_argument("--budget-fresh", type=int, default=4)
    p.add_argument("--budget-atoms", type=int, default=12)
    p.add_argument("--budget-rounds", type=int, default=3)
    p.add_argument("--empty-cert", choices=("none", "all"), default="none")
    p.add_argument("--timings", action="store_true", help="include timings in meta")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("compare", help="fast path vs oracle agreement report")
    p.add_argument("-m", "--mapping")
    p.add_argument("-s", "--source")
    p.add_argument("-q", "--query")
    p.add_argument("--random", type=int, default=0, metavar="N", help="compare N random triples")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget-fresh", type=int, default=2)
    p.add_argument("--budget-atoms", type=int, default=8)
    p.add_argument("--budget-rounds", type=int, default=2)
    p.add_argument("-o", "--output")
    return parser


def _cmd_chase(args) -> int:
    mapping = _load_mapping(args.mapping)
    source = _load_instance(args.source, mapping, "source")
    _emit(serialize_instance(chase_mod.canonical_solution(mapping, source)), args.output)
    return EXIT_OK


def _cmd_core(args) -> int:
    mapping = _load_mapping(args.mapping)
    source = _load_instance(args.source, mapping, "source")
    _emit(serialize_instance(core_solution(mapping, source)), args.output)
    return EXIT_OK


def _cmd_blocks(args) -> int:
    mapping = _load_mapping(args.mapping)
    inst = _load_instance(args.instance, mapping, "combined")
    partition = atom_blocks(inst)
    rows = []
    for idx, block in enumerate(partition.blocks):
        packed = blocks_packed(block)
        rows.append(
            {
                "block": idx,
                "atoms": serialize_instance(block).strip().splitlines(),
                "nulls": len(block.nulls()),
                "packed": packed,
            }
        )
    if args.format == "json":
        _emit(json.dumps({"blocks": rows, "all_packed": blocks_packed(inst)},
                         indent=2, sort_keys=True) + "\n", args.output)
    else:
        lines = []
        for row in rows:
            lines.append(
                f"# block {row['block']}: nulls={row['nulls']} packed={row['packed']}"
            )
            lines.extend(row["atoms"])
        lines.append(f"# all blocks packed: {blocks_packed(inst)}")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_minrep(args) -> int:
    mapping = _load_mapping(args.mapping)
    inst = _load_instance(args.instance, mapping, "combined")
    names = (name.strip() for name in args.constants.split(","))
    constants = tuple(Const(name) for name in names if name)
    chunks = []
    if args.whole:
        for i, rep in enumerate(enum_min_c(inst, constants)):
            chunks.append(f"# rep {i} (whole instance)\n" + serialize_instance(rep))
    else:
        blocks = BlockReps(inst, constants)
        for b in range(len(blocks.partition.blocks)):
            for i, rep in enumerate(blocks.instances(b)):
                chunks.append(f"# rep {i} (block {b})\n" + serialize_instance(rep))
    _emit("\n".join(chunks) if chunks else "", args.output)
    return EXIT_OK


def _answers_for_query(args, mapping, source, q):
    """Route one query: returns (answers, meta)."""
    budget = _budget(args)
    warnings = []
    semantics = args.semantics
    if semantics != "gcwa-star" or args.oracle:
        res = oracle.answers_semantics(
            mapping, source, q, semantics, budget, empty_policy=args.empty_cert
        )
        meta = dict(res.meta)
        meta["warnings"] = warnings
        return res.answers, meta

    # gcwa-star without --oracle: pick the fastest sound path
    if is_universal(q):
        if not mapping.is_st_only():
            raise PreconditionViolated(
                "TargetConstraints",
                "the fast path needs an st-tgd-only mapping; rerun with --oracle",
            )
        core = core_solution(mapping, source)
        try:
            answers = gcwa.answers_gcwa_star_universal(core, q)
            return answers, {"path": "fast-core", "warnings": warnings}
        except PreconditionViolated as exc:
            warnings.append(f"fast path rejected ({exc.reason}); using the general evaluator")
            answers = gcwa.answers_gcwa_star_universal_general(mapping, source, q)
            return answers, {"path": "general", "warnings": warnings}
    if is_ucq(q):
        if not mapping.is_st_only():
            raise PreconditionViolated(
                "TargetConstraints",
                "the monotonic fast path needs an st-tgd-only mapping; rerun with --oracle",
            )
        core = core_solution(mapping, source)
        answers = gcwa.answers_owa_homclosed(core, q)
        return answers, {"path": "ucq-core", "warnings": warnings}
    raise DxError(
        f"query {q.name} is neither universal nor positive-existential; "
        "rerun with --oracle"
    )


def _cmd_eval(args) -> int:
    mapping = _load_mapping(args.mapping)
    source = _load_instance(args.source, mapping, "source")
    documents = []
    for qpath in args.query:
        q = _load_query(qpath, mapping)
        t0 = time.monotonic()
        answers, meta = _answers_for_query(args, mapping, source, q)
        if args.timings:
            meta["elapsed_ms"] = round((time.monotonic() - t0) * 1000.0, 3)
        meta.setdefault("budget", _budget(args).as_dict())
        documents.append(answers_json(q.name, args.semantics, answers, meta))
    if args.format == "text":
        out_lines = []
        for doc in documents:
            parsed = json.loads(doc)
            out_lines.append(f"{parsed['query']} [{parsed['semantics']}]:")
            for row in parsed["answers"]:
                out_lines.append("  (" + ",".join(row) + ")")
            if not parsed["answers"]:
                out_lines.append("  (no certain answers)")
        _emit("\n".join(out_lines) + "\n", args.output)
    else:
        _emit("".join(documents), args.output)
    return EXIT_OK


def _cmd_compare(args) -> int:
    budget = _budget(args)

    def answer_lists(result: randgen.Agreement) -> dict:
        return {name: sorted([v.name for v in t] for t in getattr(result, name))
                for name in ("fast", "general", "oracle")}

    if args.random < 0:
        raise DxError(f"compare --random needs a nonnegative count, not {args.random}")
    if args.random:
        seed = args.seed if args.seed is not None else int(os.environ.get("DX_SEED", "0"))
        triples = randgen.random_triples(random.Random(seed))
        disagreements, skip_reasons, done = [], [], 0
        while done < args.random:
            result = randgen.three_way(*next(triples), budget)
            if result.skipped:
                evaluator, exc = result.skipped
                skip_reasons.append(f"{evaluator}: {exc}")
                continue
            done += 1
            if not result.agree:
                disagreements.append({"trial": done, **answer_lists(result)})
        doc = {"agree": not disagreements, "trials": done, "skipped": len(skip_reasons),
               "skip_reasons": skip_reasons, "seed": seed, "disagreements": disagreements}
    else:
        if not (args.mapping and args.source and args.query):
            raise DxError("compare needs -m, -s and -q (or --random N)")
        mapping = _load_mapping(args.mapping)
        source = _load_instance(args.source, mapping, "source")
        result = randgen.three_way(mapping, source, _load_query(args.query, mapping), budget)
        if result.skipped:
            raise result.skipped[1]
        doc = {**answer_lists(result), "agree": result.agree}
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.output)
    return EXIT_OK if doc["agree"] else EXIT_USAGE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    handlers = {
        "chase": _cmd_chase,
        "core": _cmd_core,
        "blocks": _cmd_blocks,
        "minrep": _cmd_minrep,
        "eval": _cmd_eval,
        "compare": _cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionViolated as exc:
        print(f"error: precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BudgetExceeded as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
