"""Any document the CLI reads makes it exit 0, 1 or 2, never 3.

``rewrite``, ``classify``, ``metrics``, ``ontogen``, ``module`` and ``bench``
(one repetition over a drawn query suite) run in-process through
``cli.main`` on three kinds of input: small model JSON (at most twelve
classes, as the candidate limit stops every path walk) with fields swapped
for an int, null, string, list, object or a deeply nested array, or
dropped; thesaurus text of random lines over the keywords, the model's
concept names and junk; and files whose bytes are not UTF-8. Exit 3 is a
fault of the program, whatever the input, and each example must finish
within the deadline. On every drawn
document, ``ontogen`` and ``classify`` also give the same exit code and the
same ``error:`` line: ``ontogen`` renders the model's axioms, while
``classify`` prepares the index from the model's facts, so the two reach the
model by different paths.

``parse_xml`` on arbitrary or CQL-shaped text returns a ``CqlQuery`` or
raises ``CqlXmlError``, and nothing else.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from onco_rewriter.cli import main
from onco_rewriter.cql import CQL_NAMESPACE, CqlQuery, CqlXmlError, parse_xml

CONCEPTS = ("Ca", "Cb", "Cc", "Cd")
# names whose generated names can collide: class A_r and attribute A.r, or
# associations A_r.s and A.r_s to one target
CLASS_NAMES = ("A", "B", "C", "A_r", "D", "E", "F", "G", "B_s", "H", "I", "J")
MEMBER_NAMES = ("x", "r", "r_s", "s")
DEEP = "@@deep@@"
DROP = object()

concepts = st.sampled_from(CONCEPTS)
annotations = st.builds(
    lambda primary, qualifiers: {"primary": primary, "qualifiers": qualifiers},
    concepts,
    st.lists(concepts, max_size=2),
)
attributes = st.builds(
    lambda name, datatype, note: {"name": name, "datatype": datatype, "annotation": note},
    st.sampled_from(MEMBER_NAMES),
    st.sampled_from(("string", "integer", "date")),
    annotations | st.none(),
)
junk = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.none(),
    st.text(max_size=4),
    st.lists(st.integers(max_value=9) | st.text(max_size=2), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(max_value=9), max_size=2),
    st.just(DEEP),
    st.just(DROP),
)


@st.composite
def models(draw) -> dict:
    names = draw(st.lists(st.sampled_from(CLASS_NAMES), min_size=1, max_size=12, unique=True))
    classes = []
    for i, name in enumerate(names):
        members = st.lists(attributes, max_size=2, unique_by=lambda a: a["name"])
        entry = {"name": name, "attributes": draw(members), "annotation": draw(annotations)}
        if i and draw(st.booleans()):
            entry["superclasses"] = [draw(st.sampled_from(names[:i]))]
        classes.append(entry)
    ends = st.sampled_from(names)
    associations = st.builds(
        lambda source, role, target: {"source": source, "roleName": role, "target": target},
        ends,
        st.sampled_from(MEMBER_NAMES),
        ends,
    )
    return {
        "project": "fuzz",
        "version": "1",
        "packagePrefix": draw(st.sampled_from(("org.example", ""))),
        "classes": classes,
        "associations": draw(
            st.lists(associations, max_size=6, unique_by=lambda a: (a["source"], a["roleName"]))
        ),
    }


def _slots(value, path=()):
    """The path of every value in a JSON tree, the root's included."""
    yield path
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from _slots(child, (*path, key))


@st.composite
def model_texts(draw) -> str:
    document = draw(models())
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        path = draw(st.sampled_from(list(_slots(document))))
        value = draw(junk)
        if not path:
            document = [] if value is DROP else value
            continue
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    depth = draw(st.sampled_from((3, 900, 100_000)))
    return json.dumps(document).replace(json.dumps(DEEP), "[" * depth + "]" * depth)


axiom_lines = st.one_of(
    st.builds(lambda name: f"CONCEPT {name}", concepts),
    st.builds(lambda a, b: f"SUB {a} {b}", concepts, concepts),
    st.builds(lambda a, b: f"DISJOINT {a} {b}", concepts, concepts),
)
names = st.sampled_from(CONCEPTS + CLASS_NAMES + ("Unknown",))
junk_lines = st.text(max_size=8) | st.lists(
    st.sampled_from(("CONCEPT", "SUB", "DISJOINT", "#", "(")) | names, max_size=4
).map(" ".join)
thesaurus_texts = st.builds(
    lambda declared, lines, junk: "\n".join([*declared, *lines, *junk]),
    st.sampled_from(([f"CONCEPT {c}" for c in CONCEPTS],) * 3 + ([],)),
    st.lists(axiom_lines, max_size=5),
    st.sampled_from(((),) * 3) | st.lists(junk_lines, min_size=1, max_size=2),
)
query_texts = st.one_of(
    st.builds(lambda a, b: f"{a} and hasAssociation some ({b})", concepts, concepts),
    st.builds(
        lambda a, b: f'{a} and hasAttribute some ({b} and hasValue value "v%")', concepts, concepts
    ),
    concepts,
    st.text(max_size=10),
)
suite_texts = st.lists(query_texts | st.sampled_from(("# a comment", "", "  ")), max_size=4).map(
    "\n".join
)
NOT_UTF8 = (b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf5\x80\x80\x80")


@st.composite
def runs(draw) -> tuple[str, dict[str, bytes]]:
    files = {
        "model": draw(model_texts()).encode("utf-8"),
        "thesaurus": draw(thesaurus_texts).encode("utf-8"),
        "query": draw(query_texts).encode("utf-8"),
        "suite": draw(suite_texts).encode("utf-8"),
    }
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        which = draw(st.sampled_from(sorted(files)))
        at = draw(st.integers(min_value=0, max_value=len(files[which])))
        files[which] = files[which][:at] + draw(st.sampled_from(NOT_UTF8)) + files[which][at:]
    commands = ("rewrite", "classify", "metrics", "ontogen", "module", "bench")
    return draw(st.sampled_from(commands)), files


def run_cli(command: str, files: dict[str, bytes]) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as directory:
        paths = {}
        for which, content in files.items():
            paths[which] = Path(directory) / which
            paths[which].write_bytes(content)
        argv = [command, "--model", str(paths["model"])]
        if command != "metrics":
            argv += ["--thesaurus", str(paths["thesaurus"]), "--out", f"{directory}/out"]
        if command == "rewrite":
            argv.append(str(paths["query"]))
        if command == "bench":
            argv += ["--suite", str(paths["suite"]), "--repetitions", "1"]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
    # without the temporary directory, so that two runs' messages compare
    return code, stderr.getvalue().replace(directory, "<tmp>")


def _model_with(**fields) -> bytes:
    model = {
        "project": "fuzz",
        "version": "1",
        "packagePrefix": "org.example",
        "classes": [{"name": "A", "annotation": {"primary": "Ca"}, **fields}],
    }
    return json.dumps(model).encode("utf-8")


def _files(
    model: bytes, query: bytes = b"Ca", thesaurus: bytes = b"CONCEPT Ca\n"
) -> dict[str, bytes]:
    return {"model": model, "thesaurus": thesaurus, "query": query, "suite": query}


EMPTY_ATTRIBUTE = [{"name": "", "datatype": "string", "annotation": {"primary": "Ca"}}]


@settings(max_examples=200, deadline=5000)
@given(run=runs())
# documents that exited 3, or exited 1 only because a builtin happened to
# subclass ValueError, before exit codes followed from the error kinds
@example(run=("rewrite", _files(_model_with(attributes=5))))
@example(run=("metrics", _files(_model_with(attributes=None))))
@example(run=("classify", _files(b"[" * 100_000 + b"]" * 100_000)))
@example(run=("metrics", _files(b"\xff" + _model_with())))
@example(run=("rewrite", _files(b'{"project": ' + b"1" * 5000 + b"}")))
@example(run=("rewrite", _files(_model_with(name=""))))
@example(
    run=(
        "rewrite",
        _files(
            _model_with(attributes=EMPTY_ATTRIBUTE),
            b'Ca and hasAttribute some (Ca and hasValue value "v")',
        ),
    )
)
# names that the ontology text cannot carry, which loading rejects
@example(run=("module", _files(_model_with(), thesaurus=b"CONCEPT Ca\nCONCEPT A(\n")))
@example(run=("ontogen", _files(_model_with(name="K L"))))
@example(run=("bench", _files(_model_with(name="K("))))
@example(
    run=("rewrite", _files(_model_with(attributes=[{"name": "a b", "datatype": "string"}])))
)
@example(run=("classify", _files(_model_with(annotation={"primary": "Ca)"}))))
@example(
    run=(
        "ontogen",
        _files(
            json.dumps(
                {
                    "project": "fuzz",
                    "version": "1",
                    "packagePrefix": "",
                    "classes": [{"name": "A"}],
                    "associations": [{"source": "A", "roleName": "r\u2028", "target": "A"}],
                }
            ).encode("utf-8")
        ),
    )
)
def test_documents_never_exit_three(run):
    command, files = run
    code, stderr = run_cli(command, files)
    assert code in (0, 1, 2), stderr
    assert "Traceback" not in stderr
    outcomes = {
        other: (code, stderr) if other == command else run_cli(other, files)
        for other in ("ontogen", "classify")
    }
    assert outcomes["ontogen"][0] == outcomes["classify"][0], outcomes
    assert error_lines(outcomes["ontogen"][1]) == error_lines(outcomes["classify"][1]), outcomes


def error_lines(stderr: str) -> list[str]:
    return [line for line in stderr.splitlines() if line.startswith("error:")]


xml_names = st.sampled_from(
    ("CQLQuery", "Target", "Attribute", "Association", "Group")
    + ("QueryModifier", "AttributeNames", "x")
)
xml_attributes = st.dictionaries(
    st.sampled_from(("name", "predicate", "value", "roleName", "logicalOp", "distinctAttribute")),
    st.sampled_from(("", "A", "EQUAL_TO", "AND", "IS_NULL", "&amp;", "<")),
    max_size=3,
)


def _element(tag: str, attributes: dict[str, str], children: list[str], qualified: bool) -> str:
    name = f"ns1:{tag}" if qualified else tag
    pairs = "".join(f' {key}="{value}"' for key, value in attributes.items())
    return f"<{name}{pairs}>{''.join(children)}</{name}>"


def _elements(children):
    return st.builds(_element, xml_names, xml_attributes, children, st.booleans())


cql_shaped = st.recursive(
    _elements(st.just([])),
    lambda inner: _elements(st.lists(inner, max_size=3)),
    max_leaves=12,
).map(lambda body: f'<ns1:CQLQuery xmlns:ns1="{CQL_NAMESPACE}">{body}</ns1:CQLQuery>')


@settings(max_examples=300, deadline=None)
@given(text=st.text(max_size=80) | cql_shaped)
@example(text=f'<ns1:CQLQuery xmlns:ns1="{CQL_NAMESPACE}"><ns1:Target name="A"/></ns1:CQLQuery>')
def test_parse_xml_returns_a_query_or_raises_cql_xml_error(text):
    try:
        assert isinstance(parse_xml(text), CqlQuery)
    except CqlXmlError:
        pass
