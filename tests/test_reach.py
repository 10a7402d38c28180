"""Every name the package defines is reached by package code, or says why not.

This reads each module under ``src/crowdstream`` with ``ast`` and lists
each top-level function and class, and each method, that no package code
reaches. A name is reached by a ``Name`` or an attribute that reads it, or
by a ``from`` import, outside its own definition. A method with a dunder
name is reached, as Python calls it; a module's ``__getattr__`` is not
exempt.

An attribute reaches every method of its name, except on a parameter
annotated with a package class: ``instance.encountered(...)`` on
``instance: SlottedInstance`` reaches only ``SlottedInstance.encountered``.
So ``EncounterTrace.encountered``, which shares the name, is listed.
"""
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "crowdstream"

# each name no package code reaches, with the reason it stays
ALLOWED = {
    "model.validate_sequences": "test oracle: the sequence validator of the simulator tests",
    "offline.slotted_walk": "test oracle: checks and values slotted schedules beside model",
    "sim.gap_vs_upper_bound": "benchmark span in perfbench/spans.py",
    "traces.CapacityTrace.rate_at": "benchmark span in perfbench/spans.py",
    "online.lyapunov_drift": "benchmark span in perfbench/spans.py",
    "traces.EncounterTrace.encountered": "benchmark span in perfbench/spans.py",
    "offline.__getattr__": "module hook: Python calls it for a missing attribute",
    "traces.CapacityTrace.constant": "test constructor of constant-rate traces",
}


def definitions(modules: dict[str, ast.Module]) -> dict[str, str]:
    """Each top-level function, class and non-dunder method, as
    ``module.name`` or ``module.Class.method``, mapped to its bare name."""
    found = {}
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found[f"{mod}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                        found[f"{mod}.{node.name}.{sub.name}"] = sub.name
    return found


class Reads(ast.NodeVisitor):
    """The names a module reads: (name, its class when the receiver's
    annotation gives one, the definitions the read sits in)."""

    def __init__(self, mod: str, classes: set[str]):
        self.mod, self.classes = mod, classes
        self.found: list[tuple[str, str | None, tuple[str, ...]]] = []
        self.within: tuple[str, ...] = ()
        self.typed: dict[str, str] = {}

    def _define(self, node, typed):
        outer = self.within, self.typed
        qual = f"{self.within[-1]}.{node.name}" if self.within else f"{self.mod}.{node.name}"
        self.within, self.typed = (*self.within, qual), typed
        self.generic_visit(node)
        self.within, self.typed = outer

    def visit_ClassDef(self, node):
        self._define(node, self.typed)

    def visit_FunctionDef(self, node):
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        self._define(node, {**self.typed, **{
            a.arg: a.annotation.id for a in args
            if isinstance(a.annotation, ast.Name) and a.annotation.id in self.classes}})

    def visit_Name(self, node):
        self.found.append((node.id, None, self.within))

    def visit_alias(self, node):
        self.found.append((node.name, None, self.within))

    def visit_Attribute(self, node):
        receiver = node.value.id if isinstance(node.value, ast.Name) else None
        self.found.append((node.attr, self.typed.get(receiver), self.within))
        self.generic_visit(node)


def unreached(sources: dict[str, str]) -> list[str]:
    """The definitions in ``sources`` (module name to code) that no read reaches."""
    modules = {mod: ast.parse(code) for mod, code in sources.items()}
    defined = definitions(modules)
    methods = {(q.split(".")[1], bare) for q, bare in defined.items() if q.count(".") == 2}
    reached = set()
    for mod, tree in modules.items():
        reads = Reads(mod, {cls for cls, _ in methods})
        reads.visit(tree)
        for name, cls, within in reads.found:
            if (cls, name) not in methods:  # a field, or a method of every class
                cls = None
            reached.update(q for q, bare in defined.items()
                           if bare == name and q not in within
                           and (cls is None or q.split(".")[1] == cls))
    return sorted(set(defined) - reached)


def test_finds_unreached_names():
    """An unannotated receiver reaches every ``shared``; an annotated one
    only its class's; a call of ``g`` inside ``g`` does not reach it."""
    source = ("class A:\n    def shared(self):\n        pass\n\n\n"
              "class B:\n    def shared(self):\n        pass\n\n\n"
              "def f(x: A):\n    return x.shared()\n\n\n"
              "def g():\n    return g()\n")
    assert unreached({"m": source}) == ["m.B", "m.B.shared", "m.f", "m.g"]
    assert unreached({"m": source.replace("x: A", "x")}) == ["m.A", "m.B", "m.f", "m.g"]


def test_every_unreached_name_is_allowed():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreached(sources) == sorted(ALLOWED)


def test_each_allowed_name_gives_a_reason():
    assert all(reason.strip() for reason in ALLOWED.values())
