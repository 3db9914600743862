"""Checks on the package source itself, for lack of a linter."""

import ast
from pathlib import Path

import pytest

import ffnet

PACKAGE = sorted(Path(ffnet.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names a module binds by import but never reads. ``__init__.py`` is left
    out: its imports are the package's exports."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import collections.abc\n"
        "import os, sys as system\n"
        "from .ff import fit, train as run\n"
        "x: collections.abc.Sequence = [fit, system]\n"
    )
    assert unused_imports(source) == ["os (line 3)", "run (line 4)"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level names with a leading underscore (dunders aside) that no
    module of ``sources`` (file name -> source) reads, by name, as an
    attribute or by import."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name, node.lineno) for name in names]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [
        f"{module}: {name} (line {line})"
        for module, name, line in defined
        if name.startswith("_") and not name.endswith("__") and name not in read
    ]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert unread_private_names(sources) == []


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a.py": (
            "__all__ = ['LIMIT']\n"
            "_LIMIT, _SPARE = 3, 4\n"
            "_unread: int = 5\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "class _Stats:\n"
            "    pass\n"
        ),
        "b.py": "from . import a\nfrom .a import _Stats\nx = a._helper(), a._SPARE, _Stats\n",
    }
    assert unread_private_names(sources) == ["a.py: _unread (line 3)"]


def private_reads(source: str) -> list[str]:
    """Reads of another package module's private name: ``mod._x`` on a module
    bound by ``from . import mod``, and ``from .mod import _x``."""
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module is None
        for alias in node.names
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.level > 0 and node.module:
            found += [(node.lineno, f"{node.module}.{alias.name}") for alias in node.names]
    return [
        f"{name} (line {line})"
        for line, name in sorted(found)
        if name.split(".")[-1].startswith("_") and not name.endswith("__")
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_module_reads_another_modules_private_name(path):
    assert private_reads(path.read_text()) == []


def test_the_check_finds_a_private_read():
    source = (
        "from . import ff, nn as network\n"
        "from .ff import fit, _floor\n"
        "from .analysis import __doc__\n"
        "stats = ff._EpochStats, ff.fit, network._P, fit.__name__, _floor\n"
        "def _own():\n"
        "    return _own.__doc__\n"
    )
    assert private_reads(source) == [
        "ff._floor (line 2)", "ff._EpochStats (line 4)", "network._P (line 4)",
    ]


def function_package_imports(source: str) -> list[str]:
    """Functions whose body imports from the package (a relative import). A
    module's package imports belong at its top, where an import cycle shows
    when the module loads; a lazy standard-library import is allowed."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.ImportFrom) and inner.level > 0:
                    found.append(f"{node.name} (line {inner.lineno})")
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_function_imports_from_the_package(path):
    assert function_package_imports(path.read_text()) == []


def test_the_check_finds_a_package_import_in_a_function():
    source = (
        "from .ff import fit\n"
        "def run():\n"
        "    import urllib.request\n"
        "    from concurrent.futures import ProcessPoolExecutor\n"
        "    return fit\n"
        "def report():\n"
        "    from .analysis import subset_label\n"
        "    return subset_label\n"
    )
    assert function_package_imports(source) == ["report (line 7)"]


def owned_nodes(source: str):
    """Every node of ``source`` below the module, depth first, with the name of
    its innermost enclosing function ("the module" outside any)."""

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            yield owner, child
            yield from visit(child, owner)

    return visit(ast.parse(source), "the module")


def reads_outside(source: str, names, owner: str) -> list[str]:
    """Reads of ``names`` (by name or as an attribute) outside the function
    ``owner``; a read is owned by its innermost enclosing function."""
    found = []
    for current, node in owned_nodes(source):
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name in names and current != owner:
            found.append(f"{name} in {current} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_only_goodness_loss_reads_the_loss_cores(path):
    """``goodness_loss`` is the one function that picks a layer's loss."""
    cores = ("ff_loss", "entropy_objective")
    assert reads_outside(path.read_text(), cores, "goodness_loss") == []


def test_the_check_finds_a_loss_read_outside_goodness_loss():
    source = (
        "from . import ff\n"
        "def ff_loss(g):\n"
        "    return g\n"
        "def goodness_loss(g, kind):\n"
        "    return ff_loss(g) if kind else entropy_objective(g)\n"
        "def layer_losses(g):\n"
        "    pick = ff.entropy_objective\n"
        "    def inner():\n"
        "        return ff_loss(g)\n"
        "    return pick(g), inner()\n"
        "DEFAULT = ff_loss\n"
    )
    assert reads_outside(source, ("ff_loss", "entropy_objective"), "goodness_loss") == [
        "entropy_objective in layer_losses (line 7)",
        "ff_loss in inner (line 9)",
        "ff_loss in the module (line 11)",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_only_the_forward_loop_computes_goodness(path):
    """Goodness is ``row_sumsq`` of a layer's activities, and only
    ``nn.forward_from_pre`` takes it, as it computes the layer: every other
    reader (``ff.goodness_table``, the losses, the baselines) reads the
    trace's recorded values, which stay when the trace drops the
    activities."""
    assert reads_outside(path.read_text(), ("row_sumsq",), "forward_from_pre") == []


def test_the_check_finds_goodness_computed_outside_the_forward_loop():
    source = (
        "from .linalg import row_sumsq\n"
        "from . import linalg\n"
        "def forward_from_pre(net, act):\n"
        "    return row_sumsq(act)\n"
        "def layer_goodness(trace, layer):\n"
        "    return linalg.row_sumsq(trace.act[layer])\n"
        "def row_sumsq_of(a):\n"
        "    return a\n"
    )
    assert reads_outside(source, ("row_sumsq",), "forward_from_pre") == [
        "row_sumsq in layer_goodness (line 6)",
    ]


def warning_calls(source: str) -> list[str]:
    """Calls of ``warnings.warn`` in ``source``, through the module or a name
    imported from it: a bad input is an error, never a warning."""
    tree = ast.parse(source)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names, wanted = modules, "warnings"
        elif isinstance(node, ast.ImportFrom) and node.module == "warnings":
            names, wanted = functions, "warn"
        else:
            continue
        names |= {alias.asname or alias.name for alias in node.names if alias.name == wanted}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute) and func.attr == "warn"
            and isinstance(func.value, ast.Name) and func.value.id in modules
        ) or (isinstance(func, ast.Name) and func.id in functions):
            found.append(f"{ast.unparse(func)} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_module_warns(path):
    assert warning_calls(path.read_text()) == []


def test_the_check_finds_a_warning():
    source = (
        "import warnings\n"
        "import warnings as w\n"
        "from warnings import warn, warn as say\n"
        "def load(path, log):\n"
        "    warnings.warn(f'{path} is empty')\n"
        "    w.warn('twice')\n"
        "    warn('thrice')\n"
        "    say('again')\n"
        "    log.warn('not the warnings module')\n"
        "    warnings.showwarning = print\n"
    )
    assert warning_calls(source) == [
        "warnings.warn (line 5)",
        "w.warn (line 6)",
        "warn (line 7)",
        "say (line 8)",
    ]


CONCURRENCY = ("concurrent.futures", "multiprocessing", "threading")


def concurrency_imports(source: str) -> list[str]:
    """Absolute imports from a module of ``CONCURRENCY`` (or a submodule),
    anywhere in ``source``: ffnet runs every computation in the calling
    thread of one process."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [
            f"{name} (line {node.lineno})"
            for name in names
            if any((name + ".").startswith(module + ".") for module in CONCURRENCY)
        ]
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_module_imports_a_concurrency_module(path):
    assert concurrency_imports(path.read_text()) == []


def test_the_check_finds_a_concurrency_import():
    source = (
        "import os, threading\n"
        "from concurrent import futures\n"
        "import multiprocessing.pool as mp\n"
        "from .threading import lock\n"
        "import threadpoolctl\n"
        "def run():\n"
        "    from concurrent.futures import ProcessPoolExecutor\n"
        "    return ProcessPoolExecutor\n"
    )
    assert concurrency_imports(source) == [
        "threading (line 1)",
        "concurrent.futures (line 2)",
        "multiprocessing.pool (line 3)",
        "concurrent.futures.ProcessPoolExecutor (line 7)",
    ]


TRAINERS = ("ff.train", "baselines.train_pairwise", "baselines.train_classic")


def trainer_reads(source: str) -> list[str]:
    """Reads of a trainer of ``TRAINERS``, as a module attribute or imported by
    name, outside the ``METHOD_TABLE`` assignment: a method names its trainer
    in its row alone, so no branch on the method picks one."""
    tree = ast.parse(source)
    table = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "METHOD_TABLE" for t in targets):
            table.update(map(id, ast.walk(node)))
    found = []
    for node in ast.walk(tree):
        if id(node) in table:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.split(".")[-1]
            found += [(node.lineno, f"{module}.{alias.name}") for alias in node.names]
    return [f"{name} (line {line})" for line, name in sorted(found) if name in TRAINERS]


def test_only_the_method_table_names_a_trainer():
    runner_source = (Path(ffnet.__file__).parent / "runner.py").read_text()
    assert trainer_reads(runner_source) == []


def test_the_check_finds_a_trainer_read_outside_the_method_table():
    source = (
        "from . import baselines, ff\n"
        "from .baselines import train_classic\n"
        "METHOD_TABLE = {'ff': Method(ff.train), 'bp': Method(baselines.train_pairwise)}\n"
        "def run_training(method):\n"
        "    if method == 'ff':\n"
        "        return ff.train()\n"
        "    return baselines.train_pairwise, ff.train_layerwise, ff.fit\n"
    )
    assert trainer_reads(source) == [
        "baselines.train_classic (line 2)",
        "ff.train (line 6)",
        "baselines.train_pairwise (line 7)",
    ]


def numpy_prods(source: str) -> list[str]:
    """Reads of NumPy's ``prod``: ``np.prod``, ``numpy.prod``, or ``prod``
    imported from numpy. Every product the package takes is of shape or
    header integers, which ``math.prod`` computes exactly; NumPy's wraps
    around past int64 without a warning."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.attr == "prod" and node.value.id in ("np", "numpy"):
                found.append((node.lineno, f"{node.value.id}.prod"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, "numpy.prod") for alias in node.names if alias.name == "prod"]
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_module_takes_a_numpy_product(path):
    assert numpy_prods(path.read_text()) == []


def test_the_check_finds_a_numpy_product():
    source = (
        "import math\n"
        "import numpy as np\n"
        "from numpy import prod, sum as total\n"
        "size = np.prod(shape) * math.prod(shape)\n"
        "rows = numpy.prod(dims), array.prod(), prod, np.product\n"
    )
    assert numpy_prods(source) == [
        "numpy.prod (line 3)", "np.prod (line 4)", "numpy.prod (line 5)",
    ]


def byte_scalings(source: str) -> list[str]:
    """Numeric constants equal to 255 (``255``, ``255.0``, ``0xFF``), each named
    by its innermost enclosing function. A uint8 pixel's value is byte / 255,
    and ``data`` states that scaling (``unit_floats``) for every reader."""
    return [
        f"{owner} (line {node.lineno})"
        for owner, node in owned_nodes(source)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and node.value == 255
    ]


@pytest.mark.parametrize(
    "path", [path for path in PACKAGE if path.name != "data.py"], ids=lambda path: path.name
)
def test_only_data_scales_a_byte(path):
    assert byte_scalings(path.read_text()) == []


def test_the_check_finds_a_byte_scaling():
    source = (
        "import numpy as np\n"
        "def score(pixels):\n"
        "    block = np.divide(pixels, 255.0)\n"
        "    return block * 255, -255, pixels & 0xFF, pixels / 256, True\n"
        "RANGE = '0..255'\n"
        "SCALE = 1 / 255\n"
    )
    assert byte_scalings(source) == [
        "score (line 3)",
        "score (line 4)",
        "score (line 4)",
        "score (line 4)",
        "the module (line 6)",
    ]


def membership_messages(source: str, phrase="must be one of") -> list[str]:
    """String constants holding ``phrase`` (f-string parts included) outside
    ``check_choice``, the one membership rule; a string is owned by its
    innermost enclosing function."""
    return [
        f"{owner} (line {node.lineno})"
        for owner, node in owned_nodes(source)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and phrase in node.value
        and owner != "check_choice"
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_only_check_choice_states_a_membership_rule(path):
    assert membership_messages(path.read_text()) == []


def test_the_check_finds_a_membership_message_outside_check_choice():
    source = (
        "def check_choice(field, value, choices):\n"
        "    if value not in choices:\n"
        "        raise ConfigError(f'{field} must be one of {choices}, got {value!r}')\n"
        "def compute_gamma(mode):\n"
        "    raise ConfigError(f'gamma_mode must be one of {MODES}, got {mode!r}')\n"
        "class FfConfig:\n"
        "    def __post_init__(self):\n"
        "        raise ConfigError('schedule must be one of (layerwise, alternating)')\n"
        "HELP = 'dataset must be one of ' + str(NAMES)\n"
    )
    assert membership_messages(source) == [
        "compute_gamma (line 5)",
        "__post_init__ (line 8)",
        "the module (line 9)",
    ]


SUBSET_RULE_PHRASES = ("names no layer", "names layer")


def subset_rule_messages(source: str) -> list[str]:
    """String constants (f-string parts included) stating the subset rule, a
    subset that names no layer or a layer the network lacks, each named by
    its innermost enclosing function."""
    return [
        f"{owner} (line {node.lineno})"
        for owner, node in owned_nodes(source)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and any(phrase in node.value for phrase in SUBSET_RULE_PHRASES)
    ]


def test_only_analysis_states_the_subset_rule():
    """A layer subset is checked in ``analysis.check_subset_family`` alone;
    ``ff`` votes every layer and knows no subset."""
    found = {
        f"{path.name}: {site.split(' (line')[0]}"
        for path in PACKAGE
        for site in subset_rule_messages(path.read_text())
    }
    assert found == {"analysis.py: check_subset_family"}


def test_the_check_finds_a_subset_rule_outside_analysis():
    source = (
        "def voting_layers(mask, depth):\n"
        "    if not mask:\n"
        "        raise ConfigError('a requested subset names no layer')\n"
        "    raise ConfigError(f'subset {label} names layer {j}; the net has {depth}')\n"
        "HELP = 'a subset names ' + 'layers, 1-based'\n"
        "RULE = 'subset 1+3 names layer 3'\n"
    )
    assert subset_rule_messages(source) == [
        "voting_layers (line 3)",
        "voting_layers (line 4)",
        "the module (line 6)",
    ]


def relu_mask_multiplies(source: str) -> list[str]:
    """``*`` and ``*=`` whose right operand is a ``> 0`` comparison, a ReLU
    mask, each named by its innermost enclosing function."""
    found = []
    for owner, node in owned_nodes(source):
        if isinstance(node, ast.BinOp):
            right = node.right
        elif isinstance(node, ast.AugAssign):
            right = node.value
        else:
            continue
        if (
            isinstance(node.op, ast.Mult)
            and isinstance(right, ast.Compare)
            and [type(op) for op in right.ops] == [ast.Gt]
            and isinstance(right.comparators[0], ast.Constant)
            and right.comparators[0].value == 0
        ):
            found.append(f"{owner} (line {node.lineno})")
    return found


def test_only_the_backward_pass_below_the_top_applies_a_relu_mask():
    """Every gradient handed to ``nn`` is a pre-activation gradient, so the one
    ReLU mask the package multiplies by is ``backprop_updates``' gate of the
    gradient flowing into a layer below the top."""
    found = [
        f"{path.name}: {site.split(' (line')[0]}"
        for path in PACKAGE
        for site in relu_mask_multiplies(path.read_text())
    ]
    assert found == ["nn.py: backprop_updates"]


def test_the_check_finds_a_relu_mask_multiply():
    source = (
        "def layer_local_grad(d, act):\n"
        "    d *= act > 0.0\n"
        "    return d * (act > 0)\n"
        "def backprop_updates(d, top, below):\n"
        "    d = d * (top >= 0.0) + d * (top > 1.0) + (top > 0.0) * d\n"
        "    d *= below > 0.0\n"
        "    return d * np.where(below > 0.0, 1.0, 0.0)\n"
        "GATE = relu * (pre > 0.0)\n"
    )
    assert relu_mask_multiplies(source) == [
        "layer_local_grad (line 2)",
        "layer_local_grad (line 3)",
        "backprop_updates (line 6)",
        "the module (line 8)",
    ]


def epsilon_sites(source: str) -> list[str]:
    """Parameters named ``epsilon`` (of a function or a lambda) and stores to
    ``NORM_EPSILON`` (by name or as an attribute), each named by its
    innermost enclosing function."""
    found = []
    for owner, node in owned_nodes(source):
        if isinstance(node, ast.arg) and node.arg == "epsilon":
            found.append(f"epsilon parameter of {owner} (line {node.lineno})")
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name == "NORM_EPSILON":
                found.append(f"NORM_EPSILON stored in {owner} (line {node.lineno})")
    return found


def test_the_normalization_has_one_epsilon():
    """The map between layers is a / (||a|| + NORM_EPSILON), forward and
    backward: ``linalg`` sets the constant once, and no function takes
    another epsilon."""
    found = [
        f"{path.name}: {site.split(' (line')[0]}"
        for path in PACKAGE
        for site in epsilon_sites(path.read_text())
    ]
    assert found == ["linalg.py: NORM_EPSILON stored in the module"]


def test_the_check_finds_an_epsilon_parameter_or_store():
    source = (
        "from .linalg import NORM_EPSILON, NORM_EPSILON as eps\n"
        "NORM_EPSILON = 1e-8\n"
        "def l2_row_normalize(a, epsilon=NORM_EPSILON):\n"
        "    scale = lambda *, epsilon: a / epsilon\n"
        "    return scale(epsilon=eps)\n"
        "def vjp(act, eps_value=1e-8):\n"
        "    global NORM_EPSILON\n"
        "    NORM_EPSILON += 1.0\n"
        "    linalg.NORM_EPSILON = eps_value\n"
        "    return act / (linalg.NORM_EPSILON + NORM_EPSILON)\n"
    )
    assert epsilon_sites(source) == [
        "NORM_EPSILON stored in the module (line 2)",
        "epsilon parameter of l2_row_normalize (line 3)",
        "epsilon parameter of l2_row_normalize (line 4)",
        "NORM_EPSILON stored in vjp (line 8)",
        "NORM_EPSILON stored in vjp (line 9)",
    ]
