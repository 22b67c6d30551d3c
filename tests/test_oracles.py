"""The oracles share no code with the library they check."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")

# the only library names the oracles import, each with the reason it is safe
ALLOWED = {
    ("posetdecomp.errors", "ScatteringError"): (
        "the error type that induced_by_chain_sets raises and "
        "embedding_by_label_maps catches, so their failures compare with the library's"
    ),
    ("posetdecomp.hcd", "EmbeddingReport"): (
        "the record embedding_by_label_maps fills in, so it compares with the "
        "library's report field by field"
    ),
    ("posetdecomp.poset", "automorphism_group"): (
        "the symmetry searches of embedding_by_label_maps, on purpose: "
        "brute_embedding lists every group by its own search and pins their orders"
    ),
}


def library_imports(source: str) -> set:
    """(module, name) for every import of posetdecomp in `source`; a plain
    `import posetdecomp...` gives (module, None)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "posetdecomp":
            found |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {(a.name, None) for a in node.names if a.name.split(".")[0] == "posetdecomp"}
    return found


def test_oracles_import_only_the_allowed_library_names():
    assert library_imports(ORACLES.read_text()) <= set(ALLOWED)


def test_guard_sees_every_form_of_import():
    source = (
        "import posetdecomp.cut\n"
        "def f():\n"
        "    from posetdecomp.poset import _exact_dtypes\n"
        "    from posetdecomp import hcd\n"
    )
    assert library_imports(source) == {
        ("posetdecomp.cut", None),
        ("posetdecomp.poset", "_exact_dtypes"),
        ("posetdecomp", "hcd"),
    }
