"""Command line interface.

Subcommands: ``learn`` (induce entries and fit weights), ``parse``
(best logical form for a token string), ``reason`` (run a detector
sequence through parsing, event assertion, and forward chaining),
``eval`` (score sequences against gold consequence files), and
``gen-corpus`` (synthesize a training corpus from the base annotations).
Output is plain text by default; ``--format tsv`` emits one record per
line for scripting.  All output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from . import corpus as corpus_io
from .chart import argmax_parse, parse_all
from .errors import ActionCCGError
from .grammar import N
from .learning import TrainConfig, fit, induce_corpus_entries, inject_templates
from .reasoning import FactBase, assert_event, forward_chain, report
from .terms import Const, canonical, render


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.handler(args)
        except (ActionCCGError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except RecursionError:
            # a logical form, say a loaded entry's reduct, too deep to walk
            print("error: logical form nested too deeply to process",
                  file=sys.stderr)
            return 1


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """One ``warning:`` line per warning, without Python's source quote."""
    print(f"warning: {message}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actionccg",
        description="Semantic parsing and consequence reasoning for "
                    "manipulation-action triplets.")
    sub = parser.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", help="induce entries and fit weights")
    learn.add_argument("--corpus", required=True, help="annotated triplets")
    learn.add_argument("--seed", required=True, help="seed lexicon")
    learn.add_argument("--out", required=True, help="path for the learned lexicon")
    learn.add_argument("--iters", type=int, default=100)
    learn.add_argument("--lr", type=float, default=0.1)
    learn.add_argument("--l2", type=float, default=0.0)
    learn.set_defaults(handler=_cmd_learn)

    parse = sub.add_parser("parse", help="best logical form for a sentence")
    parse.add_argument("--lexicon", required=True)
    parse.add_argument("sentence", help="whitespace-separated tokens, quoted")
    parse.add_argument("--all-derivations", action="store_true",
                       help="also print the chosen logical form's derivations")
    parse.set_defaults(handler=_cmd_parse)

    reason = sub.add_parser("reason", help="deduce consequences of a sequence")
    reason.add_argument("--lexicon", required=True)
    reason.add_argument("--sequence", required=True)
    reason.add_argument("--axioms", required=True)
    reason.add_argument("--chain-per-event", action="store_true",
                        help="run the rules after every event instead of once")
    reason.add_argument("--format", choices=("text", "tsv"), default="text")
    reason.set_defaults(handler=_cmd_reason)

    evaluate = sub.add_parser("eval", help="score sequences against gold files")
    evaluate.add_argument("--lexicon", required=True)
    evaluate.add_argument("--sequences", required=True, help="directory of .seq files")
    evaluate.add_argument("--gold", required=True, help="directory of .gold files")
    evaluate.add_argument("--axioms", required=True)
    evaluate.add_argument("--format", choices=("text", "tsv"), default="text")
    evaluate.set_defaults(handler=_cmd_eval)

    gen = sub.add_parser("gen-corpus", help="synthesize a training corpus")
    gen.add_argument("--out", required=True)
    gen.add_argument("--base", default=None,
                     help="base annotated corpus (default: shipped annotations)")
    gen.add_argument("--objects", default=None,
                     help="lexicon supplying object names (default: shipped seed)")
    gen.add_argument("--replicas", type=int, default=15)
    gen.add_argument("--rng-seed", type=int, default=0)
    gen.set_defaults(handler=_cmd_gen_corpus)
    return parser


def _cmd_learn(args) -> int:
    config = TrainConfig(iterations=args.iters, learning_rate=args.lr, l2=args.l2)
    samples = corpus_io.load_corpus(args.corpus)
    lexicon = corpus_io.load_lexicon(args.seed)
    before = len(lexicon)
    lexicon = induce_corpus_entries(samples, lexicon)
    lexicon, final = fit(samples, lexicon, config)
    corpus_io.save_lexicon(lexicon, args.out)
    print(f"entries: {len(lexicon)} ({len(lexicon) - before} learned)")
    print(f"log-likelihood: {final:.6f}")
    print(f"wrote: {args.out}")
    return 0


def _cmd_parse(args) -> int:
    lexicon = corpus_io.load_lexicon(args.lexicon)
    tokens = args.sentence.split()
    lexicon = inject_templates(tokens, lexicon)
    result = argmax_parse(tokens, lexicon)
    print(f"{render(result.logical_form)}  p={result.probability:.3f}")
    if args.all_derivations:
        key = canonical(result.logical_form)
        for derivation in parse_all(tokens, lexicon):
            if canonical(derivation.semantics) == key:
                print(f"derivation: {derivation.tree()}")
    return 0


def _run_sequence(sequence, lexicon, rules, chain_per_event: bool):
    """Parse and assert each triplet; returns (parsed forms, before, after)."""
    tokens = [t for triplet in sequence.triplets for t in triplet]
    lexicon = inject_templates(tokens, lexicon)
    parsed = []
    observed = FactBase()
    chained = FactBase()
    for triplet in sequence.triplets:
        form = argmax_parse(triplet, lexicon).logical_form
        parsed.append(form)
        observed = assert_event(form, observed)
        if chain_per_event:
            chained = forward_chain(assert_event(form, chained), rules)
    if not chain_per_event:
        chained = forward_chain(observed, rules)
    return parsed, observed, chained


def _cmd_reason(args) -> int:
    lexicon = corpus_io.load_lexicon(args.lexicon)
    sequence = corpus_io.load_sequence(args.sequence)
    rules = corpus_io.load_axioms(args.axioms)
    parsed, observed, chained = _run_sequence(sequence, lexicon, rules,
                                              args.chain_per_event)
    result = report(observed, chained)
    if args.format == "tsv":
        for line in result.tsv_lines():
            print(line)
        return 0
    print(f"sequence: {sequence.name}")
    for form in parsed:
        print(f"parsed: {render(form)}")
    for label, literals in (("observed", result.observed),
                            ("deduced", result.deduced),
                            ("retracted", result.retracted)):
        print(f"{label}:")
        if literals:
            for literal in literals:
                print(f"  {literal}")
        else:
            print("  (none)")
    return 0


def _cmd_eval(args) -> int:
    lexicon = corpus_io.load_lexicon(args.lexicon)
    rules = corpus_io.load_axioms(args.axioms)
    sequence_paths = sorted(Path(args.sequences).glob("*.seq"))
    if not sequence_paths:
        print(f"error: no .seq files in {args.sequences}", file=sys.stderr)
        return 1
    rows = []
    for path in sequence_paths:
        sequence = corpus_io.load_sequence(path)
        gold = corpus_io.load_gold(Path(args.gold) / f"{sequence.name}.gold")
        _, observed, chained = _run_sequence(sequence, lexicon, rules, False)
        plain = set(observed.literals)
        closed = set(chained.literals)
        rows.append((sequence.name, len(gold),
                     sum(1 for l in gold if l in plain),
                     sum(1 for l in gold if l in closed)))
    total = ("total", sum(r[1] for r in rows), sum(r[2] for r in rows),
             sum(r[3] for r in rows))
    if not total[1]:
        print(f"error: no gold literals under {args.gold}", file=sys.stderr)
        return 1
    if args.format == "tsv":
        for row in rows + [total]:
            print("\t".join(str(v) for v in row))
        return 0
    width = max(len(r[0]) for r in rows + [total])
    print(f"{'sequence':<{width}}  gold  matched  matched+rules")
    for name, gold_n, plain_n, closed_n in rows + [total]:
        print(f"{name:<{width}}  {gold_n:>4}  {plain_n:>7}  {closed_n:>13}")
    print(f"rate without rules: {total[2] / total[1]:.3f}")
    print(f"rate with rules: {total[3] / total[1]:.3f}")
    return 0


def _cmd_gen_corpus(args) -> int:
    base_path = args.base or corpus_io.data_path("table1.corpus")
    objects_path = args.objects or corpus_io.data_path("seed.lex")
    base = corpus_io.load_corpus(base_path)
    inventory = [entry.semantics.name
                 for entry in corpus_io.load_lexicon(objects_path)
                 if entry.category == N and isinstance(entry.semantics, Const)]
    samples = corpus_io.synthesize_corpus(base, inventory,
                                          replicas=args.replicas,
                                          seed=args.rng_seed)
    corpus_io.save_corpus(samples, args.out,
                          header="synthetic corpus generated from the base "
                                 "annotations by object substitution")
    print(f"wrote: {args.out} ({len(samples)} samples)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
