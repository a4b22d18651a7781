"""Command-line interface.

Subcommands: ``ontogen`` (write the generated ontology and extracted module),
``module`` (module only), ``classify`` (write inferred named subsumptions),
``rewrite`` (query text to CQL XML candidates plus a provenance sidecar),
``metrics`` (path metrics report) and ``bench`` (per-stage timing report).

Exit codes: 0 success, 1 usage or I/O failure, 2 pipeline rejection,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import dataclass
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
from .model import (
    Thesaurus,
    UMLModel,
    load_model,
    load_thesaurus,
)
from .ontology import (
    AxiomSet,
    Named,
    SubClassOf,
    generate_ontology,
    serialize_axioms,
)
from .pipeline import (
    PipelineError,
    Provenance,
    RewriteOptions,
    prepare_context,
    rewrite_prepared,
    thesaurus_module,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECTED = 2
EXIT_INTERNAL = 3


@dataclass(frozen=True)
class Config:
    model_path: str
    thesaurus_path: str | None = None
    max_nodes: int = 16
    candidate_limit: int = 64
    selection: str = "all"
    out_dir: str | None = None
    format: str = "table"

    def __post_init__(self):
        if self.max_nodes <= 0:
            raise ValueError("--max-nodes must be positive")
        if self.candidate_limit <= 0:
            raise ValueError("--candidate-limit must be positive")

    def load_model(self) -> UMLModel:
        return load_model(_read_text(self.model_path, "model"))

    def load_thesaurus(self) -> Thesaurus:
        assert self.thesaurus_path is not None
        return load_thesaurus(_read_text(self.thesaurus_path, "thesaurus"))

    def rewrite_options(self) -> RewriteOptions:
        chooser = _prompt_selection if self.selection == "interactive" else None
        return RewriteOptions(
            max_nodes=self.max_nodes,
            candidate_limit=self.candidate_limit,
            selection=self.selection,
            chooser=chooser,
        )


def _read_text(path: str, what: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"{what} file not found: {path}")
    return p.read_text(encoding="utf-8")


def _write(out_dir: str, name: str, content: str) -> Path:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / name
    target.write_text(content, encoding="utf-8")
    return target


def _prompt_selection(summaries: list[str]) -> int:
    print("multiple rewritings found:")
    for i, summary in enumerate(summaries, start=1):
        print(f"  {i}) {summary}")
    sys.stdout.write(f"select a rewriting [1-{len(summaries)}]: ")
    sys.stdout.flush()
    line = sys.stdin.readline()
    try:
        return int(line.strip()) - 1
    except ValueError:
        raise PipelineError("pathFind", f"invalid selection '{line.strip()}'") from None


def cmd_ontogen(config: Config) -> int:
    model = config.load_model()
    module_axioms = thesaurus_module(model, config.load_thesaurus()).to_axiom_set()
    ontology = generate_ontology(model, module_axioms)
    assert config.out_dir is not None
    ontology_path = _write(config.out_dir, "ontology.axioms", serialize_axioms(ontology))
    module_path = _write(config.out_dir, "module.axioms", serialize_axioms(module_axioms))
    print(f"wrote {ontology_path}")
    print(f"wrote {module_path}")
    return EXIT_OK


def cmd_module(config: Config) -> int:
    model = config.load_model()
    module = thesaurus_module(model, config.load_thesaurus())
    assert config.out_dir is not None
    module_path = _write(config.out_dir, "module.axioms", serialize_axioms(module.to_axiom_set()))
    print(f"wrote {module_path}")
    return EXIT_OK


def cmd_classify(config: Config) -> int:
    context = prepare_context(config.load_model(), config.load_thesaurus())
    inferred = [
        SubClassOf(Named(sub), Named(sup))
        for sub in sorted(context.index.subsumers)
        for sup in sorted(context.index.subsumers[sub])
        if sub != sup
    ]
    content = serialize_axioms(
        AxiomSet(axioms=tuple(inferred), prefixes=context.ontology.prefixes)
    )
    assert config.out_dir is not None
    inferred_path = _write(config.out_dir, "inferred.axioms", content)
    print(f"wrote {inferred_path}")
    return EXIT_OK


def _render_provenance(query_text: str, provenances: list[Provenance]) -> str:
    lines = [f"# provenance for query: {query_text}"]
    for i, provenance in enumerate(provenances, start=1):
        lines.append(f"candidate {i:03d}")
        for concept, chosen in provenance.concept_choices:
            lines.append(f"  concept {concept} -> {chosen}")
        for source, target, props in provenance.path_choices:
            lines.append(f"  journey {source} -> {target} via {', '.join(props)}")
        if not provenance.path_choices:
            lines.append("  journey none (no association traversal)")
    return "\n".join(lines) + "\n"


def cmd_rewrite(config: Config, query_text: str) -> int:
    context = prepare_context(config.load_model(), config.load_thesaurus())
    outcome = rewrite_prepared(context, query_text, config.rewrite_options())
    documents = [to_xml(result.cql) for result in outcome.results]
    provenance_text = _render_provenance(
        query_text, [result.provenance for result in outcome.results]
    )
    if config.out_dir:
        for i, document in enumerate(documents, start=1):
            path = _write(config.out_dir, f"candidate_{i:03d}.xml", document)
            print(f"wrote {path}")
        _write(config.out_dir, "provenance.txt", provenance_text)
    else:
        for document in documents:
            sys.stdout.write(document)
        sys.stderr.write(provenance_text)
    return EXIT_OK


def cmd_metrics(config: Config) -> int:
    metrics = path_metrics(config.load_model(), max_nodes=config.max_nodes)
    content = (
        render_metrics_csv(metrics) if config.format == "csv" else render_metrics_table(metrics)
    )
    if config.out_dir:
        name = "metrics.csv" if config.format == "csv" else "metrics.txt"
        print(f"wrote {_write(config.out_dir, name, content)}")
    else:
        sys.stdout.write(content)
    return EXIT_OK


def cmd_bench(config: Config, suite_path: str, repetitions: int) -> int:
    suite_text = _read_text(suite_path, "query suite")
    queries = [
        line.strip()
        for line in suite_text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if not queries:
        print("error: query suite is empty", file=sys.stderr)
        return EXIT_USAGE
    report = stage_timings(
        queries,
        config.load_model(),
        config.load_thesaurus(),
        repetitions=repetitions,
        options=RewriteOptions(max_nodes=config.max_nodes),
    )
    content = (
        render_timing_csv(report) if config.format == "csv" else render_timing_table(report)
    )
    if config.out_dir:
        name = "bench.csv" if config.format == "csv" else "bench.txt"
        print(f"wrote {_write(config.out_dir, name, content)}")
    else:
        sys.stdout.write(content)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onco-rewriter",
        description="Rewrite concept-level queries over annotated UML models into CQL.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--model", required=True, help="model document (JSON)")
        p.add_argument("--thesaurus", required=True, help="thesaurus document (line format)")

    p_ontogen = sub.add_parser("ontogen", help="generate ontology and module files")
    add_common(p_ontogen)
    p_ontogen.add_argument("--out", required=True, help="output directory")

    p_module = sub.add_parser("module", help="extract the thesaurus module only")
    add_common(p_module)
    p_module.add_argument("--out", required=True, help="output directory")

    p_classify = sub.add_parser("classify", help="write inferred named subsumptions")
    add_common(p_classify)
    p_classify.add_argument("--out", required=True, help="output directory")

    p_rewrite = sub.add_parser("rewrite", help="rewrite a query into CQL XML")
    add_common(p_rewrite)
    p_rewrite.add_argument("--max-nodes", type=int, default=16, help="path node budget")
    p_rewrite.add_argument("--query", help="query text")
    p_rewrite.add_argument("queryfile", nargs="?", help="file holding the query text")
    p_rewrite.add_argument("--candidate-limit", type=int, default=64)
    p_rewrite.add_argument(
        "--selection", choices=("all", "first", "interactive"), default="all"
    )
    p_rewrite.add_argument("--out", help="output directory (default: stdout)")

    p_metrics = sub.add_parser("metrics", help="path-complexity metrics for a model")
    p_metrics.add_argument("--model", required=True)
    p_metrics.add_argument("--max-nodes", type=int, default=16)
    p_metrics.add_argument("--format", choices=("table", "csv"), default="table")
    p_metrics.add_argument("--out", help="output directory (default: stdout)")

    p_bench = sub.add_parser("bench", help="per-stage timing over a query suite")
    add_common(p_bench)
    p_bench.add_argument("--max-nodes", type=int, default=16, help="path node budget")
    p_bench.add_argument("--suite", required=True, help="file with one query per line")
    p_bench.add_argument("--repetitions", type=int, default=5)
    p_bench.add_argument("--format", choices=("table", "csv"), default="csv")
    p_bench.add_argument("--out", help="output directory (default: stdout)")

    return parser


def _config_from(args) -> Config:
    return Config(
        model_path=args.model,
        thesaurus_path=getattr(args, "thesaurus", None),
        max_nodes=getattr(args, "max_nodes", 16),
        candidate_limit=getattr(args, "candidate_limit", 64),
        selection=getattr(args, "selection", "all"),
        out_dir=getattr(args, "out", None),
        format=getattr(args, "format", "table"),
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        config = _config_from(args)
        if args.command == "ontogen":
            return cmd_ontogen(config)
        if args.command == "module":
            return cmd_module(config)
        if args.command == "classify":
            return cmd_classify(config)
        if args.command == "rewrite":
            if args.query is not None:
                query_text = args.query
            elif args.queryfile is not None:
                query_text = _read_text(args.queryfile, "query").strip()
            else:
                query_text = sys.stdin.read().strip()
            if not query_text:
                print("error: empty query", file=sys.stderr)
                return EXIT_USAGE
            return cmd_rewrite(config, query_text)
        if args.command == "metrics":
            return cmd_metrics(config)
        if args.command == "bench":
            return cmd_bench(config, args.suite, args.repetitions)
        raise AssertionError(f"unhandled command {args.command}")
    except PipelineError as error:
        print(f"error: stage {error.stage}: {error}", file=sys.stderr)
        return EXIT_REJECTED
    except (ValueError, FileNotFoundError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:  # noqa: BLE001 - anything else is an internal failure
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
