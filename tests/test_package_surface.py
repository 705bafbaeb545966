"""Every name the package defines is used by the package itself.

Helpers that only tests call belong in ``tests/_reference.py``, and code that
nothing calls is deleted.  This parses each module of the package and checks
that every top-level function is used by the package: imported by name
(re-exports in ``__init__`` count), read as an attribute of its module
(``lattice.children``), or loaded in its own module where no local of the
same name shadows it.  A same-named attribute of some other object or a
local variable does not count.  Every class and method must be referenced
by name somewhere in the package: a call, an attribute access, or an import.
Dunder methods are called by the interpreter and are exempt.

It also checks that every defaulted parameter of a package function is
passed by some call inside the package, by keyword or positionally at its
index: a default that no caller overrides is a constant, not an option.  The
entry points that only outside callers configure are listed with a reason.
"""

import ast
import pathlib

import dyadlab

PACKAGE = pathlib.Path(dyadlab.__file__).parent


def _parse_package():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _local_names(func) -> set:
    """Names a function or lambda binds in its own scope: its parameters and
    what its body stores or imports, nested functions and lambdas excluded
    (comprehension targets are counted, which only ever hides a use)."""
    args = func.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    free = set()
    stack = list(func.body) if isinstance(func.body, list) else [func.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            free |= set(node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        elif isinstance(node, ast.Lambda):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return names - free


def _unshadowed_loads(tree) -> set:
    """Names loaded somewhere in ``tree`` where no enclosing function binds
    them, so that the load reads the module's own name."""
    found = set()

    def visit(node, shadowed):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            outer = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
            outer += getattr(node, "decorator_list", [])
            for child in outer:
                visit(child, shadowed)
            inner = shadowed | _local_names(node)
            for child in node.body if isinstance(node.body, list) else [node.body]:
                visit(child, inner)
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in shadowed:
            found.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed)

    visit(tree, frozenset())
    return found


def _function_uses(trees: dict) -> set:
    """``(module, name)`` for every use of a module's top-level name: imported
    by name, read as an attribute of the module, or loaded in the module
    itself without a shadowing local."""
    uses = set()
    for module, tree in trees.items():
        uses |= {(module, name) for name in _unshadowed_loads(tree)}
        aliases = {}  # local name -> package module, from ``from . import m``
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is not None:
                        uses.add((node.module, alias.name))
                    elif alias.name in trees:
                        aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                uses.add((aliases[node.value.id], node.attr))
    return uses


def _unused_names() -> list:
    trees = dict(_parse_package())
    defined, used = [], set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined.append((module, node.name, node.name))
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defined.append((module, f"{node.name}.{item.name}", item.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    functions = [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    ]
    assert len(defined) + len(functions) > 100
    uses = _function_uses(trees)
    unused = [f"{module}.{name}" for module, name in functions if (module, name) not in uses]
    unused += [
        f"{module}.{qualname}"
        for module, qualname, name in defined
        if not (name.startswith("__") and name.endswith("__")) and name not in used
    ]
    return unused


def test_every_package_name_is_used_by_the_package():
    assert _unused_names() == []


# Defaulted parameters that no call inside the package passes, and why they stay.
UNPASSED_DEFAULTS = {
    "cli.main(argv)": "console entry point; tests and scripts pass an argument list",
    "stopping.build_ratio_family(A)": "tests build families at non-default constants",
}


def _defaulted_parameters():
    """Per defaulted parameter: its label ``module.function(param)``, the
    function name, the parameter name, and the index a call passes it at
    positionally (None for keyword-only)."""
    for module, tree in _parse_package():
        methods = {
            id(item)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            # callers of a method do not pass self or cls
            bound = id(node) in methods and positional and positional[0].arg in ("self", "cls")
            shift = 1 if bound else 0
            first = len(positional) - len(args.defaults)
            for index, arg in enumerate(positional[first:], start=first):
                yield f"{module}.{node.name}({arg.arg})", node.name, arg.arg, index - shift
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{module}.{node.name}({arg.arg})", node.name, arg.arg, None


def _passed_arguments():
    """Per called name: the keywords passed and the most positional arguments
    any call passes (``**`` and ``*`` pass everything)."""
    keywords, positional = {}, {}
    for _, tree in _parse_package():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            count = len(node.args)
            if any(isinstance(a, ast.Starred) for a in node.args):
                count = float("inf")
            positional[name] = max(positional.get(name, 0), count)
            passed = keywords.setdefault(name, set())
            passed.update(k.arg if k.arg is not None else "**" for k in node.keywords)
    return keywords, positional


def test_every_defaulted_parameter_is_passed_by_the_package():
    keywords, positional = _passed_arguments()
    unpassed = []
    for label, name, arg, index in _defaulted_parameters():
        passed = keywords.get(name, set())
        by_position = index is not None and positional.get(name, 0) > index
        if not (arg in passed or "**" in passed or by_position):
            unpassed.append(label)
    assert sorted(unpassed) == sorted(UNPASSED_DEFAULTS)


def test_tree_aggregations_live_in_lattice():
    # ``lattice.level_sums`` is the one sum up the tree and
    # ``lattice.level_cumsum`` the one running sum down it: no other module
    # calls bincount or cumsum, and chain_total stays gone
    calls, defined = [], set()
    for module, tree in _parse_package():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("bincount", "cumsum") and module != "lattice":
                    calls.append(f"{module}:{node.lineno} {name}")
            if isinstance(node, ast.FunctionDef) and module == "lattice":
                defined.add(node.name)
    assert calls == []
    assert "chain_total" not in defined


def test_stopping_subtrees_sum_with_lattice_subtree_sums():
    # a stopping subtree's total is one ``lattice.subtree_sums`` pass over
    # the family's per-cube arrays: no function walks the members backwards
    calls, walks = set(), []
    for module, tree in _parse_package():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (module, node.name) == ("stopping", "subtree_totals"):
                inner = [n.func for n in ast.walk(node) if isinstance(n, ast.Call)]
                calls = {getattr(f, "attr", getattr(f, "id", None)) for f in inner}
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "reversed"
                and any(isinstance(a, ast.Attribute) and a.attr == "members" for a in node.args)
            ):
                walks.append(f"{module}:{node.lineno}")
    assert "subtree_sums" in calls
    assert walks == []


SOLVER_NORMS = {"lp_norms", "lp_norming", "mixed_norming", "_normed"}


def test_exact_sums_stay_out_of_the_solvers_norms():
    # exact sums sit where a number is reported: the norming maps, which the
    # ascents call every half-step, sum with numpy and call no exact sum,
    # and row_ksums stays gone
    calls, defined, checked = [], set(), set()
    for module, tree in _parse_package():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            defined.add(node.name)
            if module == "measures" and node.name in SOLVER_NORMS:
                checked.add(node.name)
                for call in ast.walk(node):
                    if isinstance(call, ast.Call):
                        func = call.func
                        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                        if name in ("ksum", "group_ksum", "fsum"):
                            calls.append(f"{node.name}:{call.lineno} {name}")
    assert checked == SOLVER_NORMS
    assert calls == []
    assert "row_ksums" not in defined


def test_no_module_reaches_into_another_modules_private_names():
    # an underscore name belongs to its module: a name another module needs
    # is public, imported by name or read off the module (``lattice.children``)
    reached = []
    for module, tree in _parse_package():
        aliases = set()  # package modules bound by ``from . import m``
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    aliases |= {a.asname or a.name for a in node.names}
                reached += [f"{module}: {a.name}" for a in node.names if a.name.startswith("_")]
        reached += [
            f"{module}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr.startswith("_")
        ]
    assert reached == []


def test_only_cli_opens_files():
    # ``cli._open`` is the one opener, for --in and --out alike
    opened = [
        module
        for module, tree in _parse_package()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"
    ]
    assert opened == ["cli"]


def _calls_in(tree, function: str) -> set:
    """Names called anywhere in the top-level function ``function``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            funcs = [n.func for n in ast.walk(node) if isinstance(n, ast.Call)]
            return {getattr(f, "attr", getattr(f, "id", None)) for f in funcs}
    raise AssertionError(f"no function {function}")


def test_each_table_and_rule_has_one_copy():
    # the stopping tree is ``projection`` and the breadth-first ``members``
    # order, a cube's index is its linear id, and "largest num / den over
    # den > 0" and "finite and nonnegative" each have one body in ``measures``
    trees = dict(_parse_package())
    fields = [
        item.target.id
        for node in trees["stopping"].body
        if isinstance(node, ast.ClassDef) and node.name == "StoppingFamily"
        for item in node.body
        if isinstance(item, ast.AnnAssign)
    ]
    assert "members" in fields and "children" not in fields
    reads = [
        f"{module}:{node.lineno} .{node.attr}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (
            node.attr in ("ancestor_local", "level_sizes")
            or node.attr == "children" and not (isinstance(node.value, ast.Name) and node.value.id == "lattice")
        )
    ]
    assert reads == []
    for module, function in (
        ("embedding", "carleson_condition_constant"),
        ("stopping", "largest_subtree_ratio"),
        ("stopping", "child_mass_bound"),
        ("normest", "grid_oracle"),
    ):
        assert "largest_ratio" in _calls_in(trees[module], function), function
    checks = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Attribute) and n.attr == "isfinite" for n in ast.walk(node))
        and any(
            isinstance(n, ast.Compare)
            and isinstance(n.ops[0], ast.Lt)
            and isinstance(n.comparators[0], ast.Constant)
            and n.comparators[0].value == 0
            for n in ast.walk(node)
        )
    ]
    assert checks == ["measures.finite_nonnegative"]
