"""Options guards: every settable model parameter has a caller, and no value carries a constant.

A dataclass field with a default in the hardware, accelerator, serving,
cluster and data models is an option.  An option that no call sets is a
constant with extra surface (a parameter, a range check, a line of docs), so
each one must be set by some call in the repository's code, tests,
benchmarks, examples, perfbench or tools.  A fixed parameter is a
``ClassVar`` or a module constant instead, and a new option arrives together
with its first caller.

A dataclass with no ``__init__`` field (a model whose parameters are all
constants) has one value, so a parameter or field that carries it passes a
constant around: the code that needs the model references it instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODEL_PACKAGES = ("hardware", "accel", "serving", "cluster", "data")
CALLER_DIRS = ("src", "tests", "benchmarks", "examples", "perfbench", "tools")


def _name(node: ast.AST | None) -> str | None:
    """The last dotted component a node names (``ClassVar[int]``, ``st.builds(...)``)."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "id", getattr(node, "attr", None))


def _field_keywords(value: ast.AST | None) -> dict[str, ast.AST] | None:
    """The keywords of a ``field(...)`` default, or ``None`` for any other default."""
    if isinstance(value, ast.Call) and _name(value) == "field":
        return {kw.arg: kw.value for kw in value.keywords}
    return None


def dataclass_fields(paths) -> dict[str, tuple[list[str], list[tuple[str, bool]]]]:
    """``{class: (base names, [(field, has a default), ...])}`` for every dataclass.

    Only ``__init__`` fields count: ``ClassVar`` annotations and
    ``field(init=False)`` are not parameters.
    """
    classes = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(_name(decorator) == "dataclass" for decorator in node.decorator_list):
                continue
            fields = []
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign) or _name(stmt.annotation) == "ClassVar":
                    continue
                keywords = _field_keywords(stmt.value)
                if keywords is None:
                    fields.append((stmt.target.id, stmt.value is not None))
                    continue
                init = keywords.get("init")
                if isinstance(init, ast.Constant) and init.value is False:
                    continue
                has_default = {"default", "default_factory"} & set(keywords)
                fields.append((stmt.target.id, bool(has_default)))
            classes[node.name] = ([_name(base) for base in node.bases], fields)
    return classes


def init_order(classes, name: str) -> list[tuple[str, str]]:
    """``[(declaring class, field), ...]`` in ``__init__`` order, base fields first."""
    bases, fields = classes[name]
    order = [item for base in bases if base in classes for item in init_order(classes, base)]
    inherited = {field for _, field in order}
    return order + [(name, field) for field, _ in fields if field not in inherited]


def options(classes) -> set[tuple[str, str]]:
    """Every ``(declaring class, field)`` with a default."""
    return {
        (cls, field) for cls, (_, fields) in classes.items() for field, default in fields if default
    }


def set_by_calls(classes, paths) -> set[tuple[str, str]]:
    """Every ``(declaring class, field)`` that some call in ``paths`` sets.

    A call sets a field through a keyword, a positional argument (a starred
    one sets them all), or a ``**`` expansion, which counts for every string
    key of a dict literal in the same module.  The callee is the class by
    name, ``cls`` inside the class's body, or the first argument of
    hypothesis' ``st.builds``; ``dataclasses.replace`` sets its keywords on
    every class with a field of that name.
    """
    by_field = {}
    for owner, field in options(classes):
        by_field.setdefault(field, set()).add((owner, field))
    found = set()

    def mark(cls, args, keywords, dict_keys):
        order = init_order(classes, cls)
        starred = any(isinstance(arg, ast.Starred) for arg in args)
        found.update(order if starred else order[: len(args)])
        owners = {field: owner for owner, field in order}
        for kw in keywords:
            for name in dict_keys if kw.arg is None else {kw.arg}:
                if name in owners:
                    found.add((owners[name], name))

    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        dict_keys = {
            key.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Dict)
            for key in node.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }
        enclosing = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for inner in ast.walk(node):
                    enclosing[id(inner)] = node.name  # the innermost class wins
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _name(node)
            if callee == "cls":
                callee = enclosing.get(id(node))
            if callee == "builds" and node.args and _name(node.args[0]) in classes:
                mark(_name(node.args[0]), node.args[1:], node.keywords, dict_keys)
            elif callee == "replace":
                for kw in node.keywords:
                    found.update(by_field.get(kw.arg, ()))
            elif callee in classes:
                mark(callee, node.args, node.keywords, dict_keys)
    return found


def _mentions(annotation: ast.AST | None) -> set[str]:
    """Every name an annotation mentions (``X``, ``X | None``, ``mod.X``, ``"X"``)."""
    if annotation is None:
        return set()
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= _mentions(ast.parse(node.value, mode="eval"))
        elif isinstance(node, (ast.Name, ast.Attribute)):
            names.add(_name(node))
    return names


def values_carrying_fieldless_models(paths) -> list[str]:
    """Every parameter and dataclass init field annotated with a dataclass that has no field.

    Entries read ``function(parameter)``, ``Class.method(parameter)`` or
    ``Class.field``.
    """
    classes = dataclass_fields(paths)
    fieldless = {name for name in classes if not init_order(classes, name)}
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        enclosing = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    enclosing[id(stmt)] = node.name
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = f"{enclosing[id(node)]}." if id(node) in enclosing else ""
                arguments = node.args
                for arg in (
                    *arguments.posonlyargs,
                    *arguments.args,
                    *arguments.kwonlyargs,
                    arguments.vararg,
                    arguments.kwarg,
                ):
                    if arg is not None and _mentions(arg.annotation) & fieldless:
                        found.append(f"{owner}{node.name}({arg.arg})")
            elif isinstance(node, ast.ClassDef) and node.name in classes:
                init_fields = {field for field, _ in classes[node.name][1]}
                for stmt in node.body:
                    if (
                        isinstance(stmt, ast.AnnAssign)
                        and stmt.target.id in init_fields
                        and _mentions(stmt.annotation) & fieldless
                    ):
                        found.append(f"{node.name}.{stmt.target.id}")
    return sorted(found)


def python_files(*tops: Path) -> list[Path]:
    return sorted(path for top in tops for path in top.rglob("*.py"))


def test_every_model_option_is_set_by_some_call():
    models = python_files(*(ROOT / "src" / "repro" / package for package in MODEL_PACKAGES))
    classes = dataclass_fields(models)
    callers = python_files(*(ROOT / top for top in CALLER_DIRS))
    unset = sorted(options(classes) - set_by_calls(classes, callers))
    names = [f"{cls}.{field}" for cls, field in unset]
    assert names == [], "make each a ClassVar or a module constant, or give it a caller"


def test_no_value_carries_a_fieldless_model():
    carried = values_carrying_fieldless_models(python_files(ROOT / "src" / "repro"))
    assert carried == [], "reference the model (a ClassVar or a module constant) instead"


def test_the_scan_sees_every_value_that_carries_a_fieldless_model(tmp_path):
    module = tmp_path / "models.py"
    module.write_text(
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n"
        "@dataclass\n"
        "class Model:\n"
        "    constant: ClassVar[int] = 1\n"
        "@dataclass\n"
        "class Derived(Model):\n"
        "    pass\n"
        "@dataclass\n"
        "class Config:\n"
        "    size: int = 1\n"
        "@dataclass\n"
        "class Holder:\n"
        "    config: Config\n"
        "    model: Model = field(default_factory=Model)\n"
        "    optional: 'Derived | None' = None\n"
        "    shared: ClassVar[Model] = Model()\n"
        "    cached: Model = field(default=Model(), init=False)\n"
        "    def run(self, model: Model, config: Config, count: int) -> Model:\n"
        "        return model\n"
        "def build(config: Config, *models: Model, fallback: Derived | None = None):\n"
        "    return config\n"
    )
    assert values_carrying_fieldless_models([module]) == [
        "Holder.model",
        "Holder.optional",
        "Holder.run(model)",
        "build(fallback)",
        "build(models)",
    ]


def test_the_scan_sees_every_way_a_call_sets_a_field(tmp_path):
    models = tmp_path / "models.py"
    models.write_text(
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n"
        "@dataclass\n"
        "class Base:\n"
        "    required: int\n"
        "    inherited: int = 0\n"
        "@dataclass\n"
        "class Model(Base):\n"
        "    by_position: int = 1\n"
        "    by_keyword: int = 2\n"
        "    by_expansion: int = 3\n"
        "    by_classmethod: int = 4\n"
        "    by_replace: int = 5\n"
        "    by_builds: int = 6\n"
        "    unset: list = field(default_factory=list)\n"
        "    constant: ClassVar[int] = 7\n"
        "    derived: int = field(default=0, init=False)\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls(0, by_classmethod=1)\n"
    )
    callers = tmp_path / "callers.py"
    callers.write_text(
        "import dataclasses\n"
        "from hypothesis import strategies as st\n"
        "Model(0, 1, 2)\n"
        "models.Model(0, by_keyword=1)\n"
        "CASES = [{'by_expansion': 1}]\n"
        "Model(0, **CASES[0])\n"
        "dataclasses.replace(Model(0), by_replace=1)\n"
        "st.builds(Model, st.just(0), by_builds=st.just(1))\n"
    )
    classes = dataclass_fields([models])
    assert init_order(classes, "Model")[:3] == [
        ("Base", "required"),
        ("Base", "inherited"),
        ("Model", "by_position"),
    ]
    assert {"required", "constant", "derived"}.isdisjoint(field for _, field in options(classes))
    assert ("Model", "by_classmethod") in set_by_calls(classes, [models])
    assert options(classes) - set_by_calls(classes, [models, callers]) == {("Model", "unset")}
