"""Command-line interface.

Subcommands: ``ontogen`` (write the generated ontology and extracted module),
``module`` (module only), ``classify`` (write inferred named subsumptions),
``rewrite`` (query text to CQL XML candidates plus a provenance sidecar),
``metrics`` (path metrics report) and ``bench`` (per-stage timing report).
Each command is a ``cmd_*`` function that receives the parsed argparse
namespace; ``build_parser`` binds it to its subparser as ``run``.

Exit codes follow from three kinds of failure: 1 for an ``InputError`` (a
document, option or answer that cannot be used) or an ``OSError``, 2 for a
``PipelineError`` (a query the pipeline rejects, named by its stage), and 3
with a traceback for anything else, which is a fault of the program. 0 is
success.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from .cql import to_xml
from .metrics import (
    path_metrics,
    render_metrics_csv,
    render_metrics_table,
    render_timing_csv,
    render_timing_table,
    stage_timings,
)
from .model import InputError, Thesaurus, UMLModel, load_model, load_thesaurus
from .ontology import generate_ontology, model_prefixes, serialize_axioms, subclass_axioms
from .pipeline import (
    PipelineError,
    Provenance,
    RewriteOptions,
    RewriteResult,
    prepare_context,
    rewrite_prepared,
    thesaurus_module,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECTED = 2
EXIT_INTERNAL = 3


def _read_text(path: str | None, what: str) -> str:
    """The text of the file at ``path``, or of stdin when ``path`` is None."""
    if path is not None and not Path(path).is_file():
        raise FileNotFoundError(f"{what} file not found: {path}")
    try:
        return sys.stdin.read() if path is None else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as error:
        raise InputError(f"{what} from {path or 'stdin'} is not UTF-8: {error}") from None


def _write(out_dir: str, name: str, content: str) -> Path:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / name
    target.write_text(content, encoding="utf-8")
    return target


def _journey(source: str, target: str, props: tuple[str, ...]) -> str:
    return f"{source} -> {target} via {', '.join(props)}"


def _prompt_selection(results: tuple[RewriteResult, ...]) -> RewriteResult:
    print("multiple rewritings found:")
    for i, result in enumerate(results, start=1):
        journeys = "; ".join(_journey(*choice) for choice in result.provenance.path_choices)
        print(f"  {i}) {journeys or 'no association traversal'}")
    sys.stdout.write(f"select a rewriting [1-{len(results)}]: ")
    sys.stdout.flush()
    try:
        line = sys.stdin.readline()
        choice = int(line.strip())
    except UnicodeDecodeError as error:
        raise InputError(f"selection from stdin is not UTF-8: {error}") from None
    except ValueError:
        raise InputError(f"invalid selection '{line.strip()}'") from None
    if not 1 <= choice <= len(results):
        raise InputError(f"selection {choice} out of range 1-{len(results)}")
    return results[choice - 1]


def _load(args: argparse.Namespace) -> tuple[UMLModel, Thesaurus]:
    """The documents named by ``--model`` and ``--thesaurus``, in that order."""
    model = load_model(_read_text(args.model, "model"))
    return model, load_thesaurus(_read_text(args.thesaurus, "thesaurus"))


def _emit(args: argparse.Namespace, stem: str, content: str) -> None:
    """Write a report to stdout, or to ``<stem>.csv`` or ``<stem>.txt`` under ``--out``."""
    if args.out:
        name = f"{stem}.csv" if args.format == "csv" else f"{stem}.txt"
        print(f"wrote {_write(args.out, name, content)}")
    else:
        sys.stdout.write(content)


def cmd_ontogen(args: argparse.Namespace) -> int:
    model, thesaurus = _load(args)
    module_axioms = thesaurus_module(model, thesaurus)
    ontology = generate_ontology(model)
    ontology_path = _write(args.out, "ontology.axioms", serialize_axioms(ontology))
    module_path = _write(args.out, "module.axioms", serialize_axioms(module_axioms))
    print(f"wrote {ontology_path}")
    print(f"wrote {module_path}")
    return EXIT_OK


def cmd_module(args: argparse.Namespace) -> int:
    module = thesaurus_module(*_load(args))
    module_path = _write(args.out, "module.axioms", serialize_axioms(module))
    print(f"wrote {module_path}")
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    context = prepare_context(*_load(args))
    subsumers = context.index.subsumers
    inferred = (
        (sub, sup) for sub in sorted(subsumers) for sup in sorted(subsumers[sub]) if sub != sup
    )
    content = serialize_axioms(subclass_axioms(inferred, model_prefixes(context.model)))
    inferred_path = _write(args.out, "inferred.axioms", content)
    print(f"wrote {inferred_path}")
    return EXIT_OK


def _render_provenance(query_text: str, provenances: list[Provenance]) -> str:
    lines = [f"# provenance for query: {query_text}"]
    for i, provenance in enumerate(provenances, start=1):
        lines.append(f"candidate {i:03d}")
        for concept, chosen in provenance.concept_choices:
            lines.append(f"  concept {concept} -> {chosen}")
        for choice in provenance.path_choices:
            lines.append(f"  journey {_journey(*choice)}")
        if not provenance.path_choices:
            lines.append("  journey none (no association traversal)")
    return "\n".join(lines) + "\n"


def cmd_rewrite(args: argparse.Namespace) -> int:
    query_text = args.query
    if query_text is None:
        query_text = _read_text(args.queryfile, "query").strip()
    if not query_text.strip():
        raise InputError("empty query")
    interactive = args.selection == "interactive"
    options = RewriteOptions(
        max_nodes=args.max_nodes,
        candidate_limit=args.candidate_limit,
        selection="all" if interactive else args.selection,
    )
    results = rewrite_prepared(prepare_context(*_load(args)), query_text, options).results
    if interactive and len(results) > 1:
        results = (_prompt_selection(results),)
    documents = [to_xml(result.cql) for result in results]
    provenance_text = _render_provenance(query_text, [result.provenance for result in results])
    if args.out:
        for i, document in enumerate(documents, start=1):
            path = _write(args.out, f"candidate_{i:03d}.xml", document)
            print(f"wrote {path}")
        _write(args.out, "provenance.txt", provenance_text)
    else:
        for document in documents:
            sys.stdout.write(document)
        sys.stderr.write(provenance_text)
    return EXIT_OK


def cmd_metrics(args: argparse.Namespace) -> int:
    model = load_model(_read_text(args.model, "model"))
    metrics = path_metrics(model, max_nodes=args.max_nodes)
    render = render_metrics_csv if args.format == "csv" else render_metrics_table
    _emit(args, "metrics", render(metrics))
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    suite_text = _read_text(args.suite, "query suite")
    queries = [
        line.strip()
        for line in suite_text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if not queries:
        raise InputError("query suite is empty")
    options = RewriteOptions(max_nodes=args.max_nodes)
    report = stage_timings(queries, *_load(args), repetitions=args.repetitions, options=options)
    render = render_timing_csv if args.format == "csv" else render_timing_table
    _emit(args, "bench", render(report))
    return EXIT_OK


def _positive_int(text: str) -> int:
    """argparse type for counts and bounds: anything but an int above zero
    is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onco-rewriter",
        description="Rewrite concept-level queries over annotated UML models into CQL.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--model", required=True, help="model document (JSON)")
        p.add_argument("--thesaurus", required=True, help="thesaurus document (line format)")

    for name, help_text, run in (
        ("ontogen", "generate ontology and module files", cmd_ontogen),
        ("module", "extract the thesaurus module only", cmd_module),
        ("classify", "write inferred named subsumptions", cmd_classify),
    ):
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(run=run)

    p_rewrite = sub.add_parser("rewrite", help="rewrite a query into CQL XML")
    add_common(p_rewrite)
    p_rewrite.add_argument("--max-nodes", type=_positive_int, default=16, help="path node budget")
    p_rewrite.add_argument("--query", help="query text")
    p_rewrite.add_argument("queryfile", nargs="?", help="file holding the query text")
    p_rewrite.add_argument("--candidate-limit", type=_positive_int, default=64)
    p_rewrite.add_argument(
        "--selection", choices=("all", "first", "interactive"), default="all"
    )
    p_rewrite.add_argument("--out", help="output directory (default: stdout)")
    p_rewrite.set_defaults(run=cmd_rewrite)

    p_metrics = sub.add_parser(
        "metrics",
        help="path-complexity metrics for a model",
        description="Enumerate every simple association path of the model within the node "
        "budget. No candidate bound applies, so a densely associated model takes time "
        "exponential in the budget.",
    )
    p_metrics.add_argument("--model", required=True)
    p_metrics.add_argument(
        "--max-nodes", type=_positive_int, default=16, help="path node budget (no other bound)"
    )
    p_metrics.add_argument("--format", choices=("table", "csv"), default="table")
    p_metrics.add_argument("--out", help="output directory (default: stdout)")
    p_metrics.set_defaults(run=cmd_metrics)

    p_bench = sub.add_parser("bench", help="per-stage timing over a query suite")
    add_common(p_bench)
    p_bench.add_argument("--max-nodes", type=_positive_int, default=16, help="path node budget")
    p_bench.add_argument("--suite", required=True, help="file with one query per line")
    p_bench.add_argument("--repetitions", type=_positive_int, default=5)
    p_bench.add_argument("--format", choices=("table", "csv"), default="csv")
    p_bench.add_argument("--out", help="output directory (default: stdout)")
    p_bench.set_defaults(run=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.run(args)
    except PipelineError as error:
        print(f"error: stage {error.stage}: {error}", file=sys.stderr)
        return EXIT_REJECTED
    except (InputError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:  # noqa: BLE001 - anything else is an internal failure
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
