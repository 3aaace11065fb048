"""Checks on the package source itself."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import hypergeo

SRC = pathlib.Path(hypergeo.__file__).parent

# Asserts allowed in the package: none, so no check vanishes under -O.
ALLOWED = set()

# The calls that draw or reduce for a Monte-Carlo estimate.
SHARD_CALLS = ("draw_ball", "draw_haar", "mc_run")


def _asserts(path):
    """(file name, enclosing function) for every assert in one file."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                found.append((path.name, func))
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(ast.parse(path.read_text(), str(path)), None)
    return found


def _shard_calls(path):
    """(file name, top-level definition, callee) for every call of a
    SHARD_CALLS name in one file."""
    found = []
    for top in ast.parse(path.read_text(), str(path)).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.attr if isinstance(func, ast.Attribute) \
                    else getattr(func, "id", None)
                if callee in SHARD_CALLS:
                    found.append((path.name, owner, callee))
    return found


def test_no_asserts_guard_input():
    """Input checks raise, so they survive python -O."""
    found = [a for path in sorted(SRC.glob("*.py")) for a in _asserts(path)]
    assert [a for a in found if a not in ALLOWED] == []


def test_import_loads_no_scipy():
    """scipy.special is most of an import's cost and only the Gamma,
    Beta and Jacobi-root helpers need it, so they import it themselves."""
    code = ("import sys, hypergeo; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert out.stdout == "[]\n"


def test_one_kernel_draws_and_reduces():
    """hyper_bc._mc_pairs is the one caller of each drawing and reducing
    function; evaluators and experiments supply integrand columns."""
    found = sorted(c for path in sorted(SRC.glob("*.py"))
                   for c in _shard_calls(path))
    assert found == [("hyper_bc.py", "_mc_pairs", name)
                     for name in SHARD_CALLS]


def test_mc_pairs_runs_only_its_columns_parameter():
    """_mc_pairs names no integrand of its own outside its parameter
    default: every triple runs the column function it was given."""
    tree = ast.parse((SRC / "hyper_bc.py").read_text())
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "_mc_pairs")
    named = [getattr(node, "id", None) or getattr(node, "attr", None)
             for stmt in func.body for node in ast.walk(stmt)
             if isinstance(node, (ast.Name, ast.Attribute))]
    assert [n for n in named if n.endswith("_columns")] == []


def test_bessel_does_not_import_sampling():
    tree = ast.parse((SRC / "bessel.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    modules = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)}
    assert "sampling" not in imported | modules


def _names(node):
    """Every name and attribute read inside one AST node."""
    return [getattr(n, "id", None) or getattr(n, "attr", None)
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def test_experiments_do_not_branch_on_the_field():
    """Every evaluator takes the field as an argument, so no if test,
    conditional expression or comprehension filter in experiments.py,
    bessel.py or hyper_bc.py reads d or field: a per-field fork does not
    grow back, and the quaternion layout that the Bessel phase once
    branched on stays with the samplers and the kernels in algebra."""
    found = []
    for module in ("experiments.py", "bessel.py", "hyper_bc.py"):
        tree = ast.parse((SRC / module).read_text())
        tests = [node.test for node in ast.walk(tree)
                 if isinstance(node, (ast.If, ast.IfExp, ast.While))]
        tests += [cond for node in ast.walk(tree)
                  if isinstance(node, ast.comprehension) for cond in node.ifs]
        found += [(module, ast.unparse(test)) for test in tests
                  if {"d", "field"} & set(_names(test))]
    assert found == []


def test_only_algebra_forms_odd_rows():
    """Over H the shard keeps only the even rows of each chi matrix.  The
    conj/negate shuffle that forms an odd row, `_odd_rows`, is named in
    algebra.py alone: no other module imports it or reads it."""
    def named(path):
        tree = ast.parse(path.read_text(), str(path))
        return _names(tree) + [alias.name for node in ast.walk(tree)
                               if isinstance(node, ast.ImportFrom)
                               for alias in node.names]

    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "_odd_rows" in named(path)] == ["algebra.py"]


def test_bessel_series_runs_on_shell_tables():
    """The series reads each shell's cached table: it calls no jack_C
    per partition, and the one permutation walk is the cached shell
    builder's, so none runs when a point is evaluated."""
    tree = ast.parse((SRC / "bessel.py").read_text())
    tops = [(getattr(top, "name", None), top) for top in tree.body]
    funcs = dict(tops)
    called = [name for node in ast.walk(funcs["bessel_series"])
              if isinstance(node, ast.Call) for name in _names(node.func)]
    assert "jack_C" not in called and "permutations" not in called
    assert [name for name, top in tops
            if "permutations" in _names(top)] == ["_shell"]
    assert "lru_cache" in _names(funcs["_shell"].decorator_list[0])


def _loop_depth(node):
    """The deepest nest of for loops in one AST node, each clause of a
    comprehension counting as one loop."""
    here = isinstance(node, ast.For) + len(getattr(node, "generators", ()))
    return here + max((_loop_depth(child)
                       for child in ast.iter_child_nodes(node)), default=0)


def test_shell_is_the_one_jack_table_builder():
    """bessel.py has one cache, the shell table's (the test above checks
    it is on _shell), and the raising-operator loop (for j, for r, for
    i, inside the column loop) runs only in _shell: no second table
    format or cache grows back beside it."""
    tree = ast.parse((SRC / "bessel.py").read_text())
    assert [name for name in _names(tree)
            if name in ("lru_cache", "cache")] == ["lru_cache"]
    assert [top.name for top in tree.body
            if isinstance(top, ast.FunctionDef)
            and _loop_depth(top) >= 3] == ["_shell"]


# The samplers and the shard kernels after the draws, which run as
# length-n vector operations on batch-last memory.
VECTOR_KERNELS = (("sampling.py", "_haar_batch"),
                  ("sampling.py", "_ball_rows"),
                  ("sampling.py", "_p_map_batch"),
                  ("algebra.py", "_build_g_embedded"),
                  ("algebra.py", "_log_minors_embedded"),
                  ("algebra.py", "_phase_trace"))


def _per_matrix_calls(func):
    """`@` products, matmul and np.linalg calls inside one function."""
    found = []
    for node in ast.walk(func):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.MatMult):
            found.append("@")
        elif isinstance(node, ast.Attribute) and (
                node.attr in ("matmul", "linalg")):
            found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id == "matmul":
            found.append(node.id)
    return found


@pytest.mark.parametrize("module,name", VECTOR_KERNELS)
def test_kernels_dispatch_no_per_matrix_products(module, name):
    """No batched BLAS or LAPACK call creeps back into the kernels or the
    module's own helpers they call."""
    tree = ast.parse((SRC / module).read_text())
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    todo, seen = [name], set()
    while todo:
        func = funcs[todo.pop()]
        seen.add(func.name)
        assert _per_matrix_calls(func) == [], func.name
        todo += [node.func.id for node in ast.walk(func)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)
                 and node.func.id in funcs and node.func.id not in seen]


def test_p_map_allocates_no_second_w():
    """`_p_map_batch` turns the ball rows' one array into w in place: it
    allocates or copies no second w array."""
    func = _functions("sampling.py")["_p_map_batch"]
    called = [ast.unparse(node.func) for node in ast.walk(func)
              if isinstance(node, ast.Call)]
    assert [name for name in called
            if name in ("np.empty", "np.zeros", "np.empty_like")
            or name.endswith(".copy")] == []


ACCEPTANCE = pathlib.Path(__file__).with_name("test_acceptance.py")
TRACER = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"

# Hooks the benchmark still lists for code already gone; the tracer reports
# them as absent, and only a change to the benchmark may drop them.
ABSENT_HOOKS = {("bessel", "_jack_tables")}


def test_benchmark_hooks_resolve():
    """Every (module, attribute) the benchmark's tracer patches names a
    definition in the package, so a refactor that renames or deletes a
    traced kernel cannot leave its layer silently reading 0."""
    tree = ast.parse(TRACER.read_text(), str(TRACER))
    spans = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [ast.unparse(t) for t in node.targets] == ["SPANS"])
    hooks = [(entry.elts[0].id, entry.elts[1].value) for entry in spans.elts]
    assert len(hooks) > len(ABSENT_HOOKS)
    missing = {(module, name) for module, name in hooks
               if not hasattr(getattr(hypergeo, module), name)}
    assert missing == ABSENT_HOOKS


def _origins(tree, modules):
    """Where each name bound by a package import in tree comes from:
    (module, None) for a package module, (module, name) for a name taken
    from one."""
    origin = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and (node.level or node.module == "hypergeo"):
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module not in (None, "hypergeo"):
                    origin[bound] = (node.module, alias.name)
                elif alias.name in modules:  # `from . import sampling`
                    origin[bound] = (alias.name, None)
    return origin


def _package_reads(node, module, origin):
    """(module, name) for every name read inside node: a bare name
    resolves to this module or to the one it was imported from, and
    `alias.name` counts only when alias is a package module, so np.matmul
    is not a read of algebra.matmul."""
    reads = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads.add(origin.get(sub.id, (module, sub.id)))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            owner, name = origin.get(sub.value.id, (None, None))
            if owner and name is None:
                reads.add((owner, sub.attr))
    return reads


def test_package_defines_only_what_it_runs_or_exports():
    """Every top-level function and class in the package is read by
    another definition in it, exported in __all__, or read as
    module.name by the fixed acceptance suite; test references live in
    the tests."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = {(getattr(hypergeo, name).__module__.split(".")[-1], name)
            for name in hypergeo.__all__}
    for module, tree in trees.items():
        origin = _origins(tree, trees)
        for top in tree.body:
            own = (module, getattr(top, "name", None))
            used |= _package_reads(top, module, origin) - {own}
    acceptance = ast.parse(ACCEPTANCE.read_text())
    used |= _package_reads(acceptance, None, _origins(acceptance, trees))
    defined = [(module, top.name) for module, tree in trees.items()
               for top in tree.body
               if isinstance(top, (ast.FunctionDef, ast.ClassDef))]
    assert [d for d in defined if d not in used] == []


def _q_tests(func):
    """The if tests (other than an input check that raises), conditional
    expressions and comprehension filters in func that read q."""
    nodes = list(ast.walk(func))
    tests = [node.test for node in nodes
             if isinstance(node, ast.IfExp) or isinstance(node, ast.If)
             and not (len(node.body) == 1
                      and isinstance(node.body[0], ast.Raise))]
    tests += [cond for node in nodes
              if isinstance(node, ast.comprehension) for cond in node.ifs]
    return [ast.unparse(test) for test in tests if "q" in _names(test)]


def _functions(module):
    return {top.name: top for top in ast.parse((SRC / module).read_text()).body
            if isinstance(top, ast.FunctionDef)}


def test_rate_experiments_do_not_fork_on_rank():
    """The exact rank-one means are chosen in one place,
    `hyper_bc._phi_means`: rate-p, contraction and eval_psi run one path,
    with no q test, experiments.py names none of the rank-one pieces
    (the quadrature, eval_psi, the count check of the paths that draw
    nothing, psi's half-sum), and only `_phi_means` calls the quadrature
    in hyper_bc.py."""
    experiments = _functions("experiments.py")
    hyper_bc = _functions("hyper_bc.py")
    for name in ("rate_p_experiment", "contraction_experiment"):
        assert _q_tests(experiments[name]) == [], name
    assert _q_tests(hyper_bc["eval_psi"]) == []
    rank_one = {"eval_phi_bc_quadrature_q1", "eval_psi", "_check_run",
                "rho_a"}
    assert [(name, sorted(rank_one & set(_names(func))))
            for name, func in experiments.items()
            if rank_one & set(_names(func))] == []
    assert [name for name, func in hyper_bc.items()
            if any(isinstance(node, ast.Call) and _names(node.func)
                   == ["eval_phi_bc_quadrature_q1"]
                   for node in ast.walk(func))] == ["_phi_means"]


def _int_of_own_parameter(func):
    """The parameters of func that it passes to int() itself."""
    args = func.args
    own = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    return [node.args[0].id for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "int" and node.args
            and getattr(node.args[0], "id", None) in own]


def _own_finiteness_raises(func):
    """The parameters p of func that it tests with a bare
    `not np.all(np.isfinite(p))` or `not np.isfinite(p)` before a raise."""
    args = func.args
    own = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    return [p for node in ast.walk(func)
            if isinstance(node, ast.If)
            and any(isinstance(stmt, ast.Raise) for stmt in node.body)
            for p in own
            if ast.unparse(node.test) in ("not np.all(np.isfinite(%s))" % p,
                                          "not np.isfinite(%s)" % p)]


def test_finiteness_is_checked_in_one_place():
    """power_function, _check_matrix and c_function each wrote their own
    finiteness test, each with its own message: a parameter's entries
    are checked finite only by `algebra._check_finite`, which names the
    first bad entry.  A test that also asks for a positive value is a
    different check and is not matched."""
    found = [(path.name, func.name, arg)
             for path in sorted(SRC.glob("*.py"))
             for func in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(func, ast.FunctionDef)
             for arg in _own_finiteness_raises(func)]
    assert found == []


def test_counts_are_checked_not_truncated():
    """int(seed) drew seed 1's numbers for seed 1.9, and int(n_exponent)
    ran 1.5 as 1: outside the CLI's own parsing, a count or seed is
    converted only by `algebra._check_count`, which rejects a fraction."""
    found = [(path.name, func.name, arg)
             for path in sorted(SRC.glob("*.py")) if path.name != "cli.py"
             for func in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(func, ast.FunctionDef)
             for arg in _int_of_own_parameter(func)]
    assert found == [("algebra.py", "_check_count", "value")]


# The modules whose evaluators and experiments read a cone point t.
CONE_MODULES = ("hyper_bc.py", "bessel.py", "experiments.py")


def _is_size_of_t(node):
    return ast.unparse(node) in ("t.size", "np.size(t)", "len(t)", "q")


def _cone_reads(func):
    """(does func call _cone, its parses of t, chamber tests, p >= 2q - 1
    tests and emptiness tests): a parse is a _check_finite of "t", a
    chamber test an np.diff of t, a boundary test a non-strict comparison
    with 2 * ... - 1, and an emptiness test a `not` of t's size (or q) or
    a comparison of it with 0."""
    calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)]
    parses = [ast.unparse(node) for node in calls
              if _names(node.func) == ["_check_finite"] and node.args
              and getattr(node.args[0], "value", None) == "t"]
    chamber = [ast.unparse(node) for node in calls
               if getattr(node.func, "attr", None) == "diff"
               and node.args and "t" in _names(node.args[0])]
    boundary = [ast.unparse(node) for node in ast.walk(func)
                if isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.GtE, ast.Lt)) for op in node.ops)
                and any(ast.unparse(side).startswith("2 * ")
                        and ast.unparse(side).endswith(" - 1")
                        for side in node.comparators)]
    empty = [ast.unparse(node) for node in ast.walk(func)
             if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)
             and _is_size_of_t(node.operand)
             or isinstance(node, ast.Compare) and _is_size_of_t(node.left)
             and any(getattr(side, "value", None) == 0
                     for side in node.comparators)]
    gated = any("_cone" in _names(node.func) for node in calls)
    return gated, parses, chamber, boundary, empty


def test_one_gate_for_a_cone_point():
    """The chamber check was added one evaluator at a time, and psi,
    phi-tilde, contraction and rate-p's t-grid never got it.  Every
    exported function of these modules that takes t or t_grid calls
    hyper_bc._cone, and no other function in them parses t or tests the
    chamber, p >= 2q - 1 or whether t is empty.  The rank-one quadrature
    is exempt: its t broadcasts over rank-one points, and it takes every
    p >= 1."""
    ungated, parses, chambers, boundaries, empties = [], [], [], [], []
    for module in CONE_MODULES:
        tree = ast.parse((SRC / module).read_text())
        for func in tree.body:
            if not isinstance(func, ast.FunctionDef):
                continue
            params = {a.arg for a in func.args.args + func.args.kwonlyargs}
            gated, parse, chamber, boundary, empty = _cone_reads(func)
            if func.name in hypergeo.__all__ and params & {"t", "t_grid"} \
                    and func.name != "eval_phi_bc_quadrature_q1" \
                    and not gated:
                ungated.append(func.name)
            parses += [func.name for _ in parse]
            chambers += [func.name for _ in chamber]
            boundaries += [func.name for _ in boundary]
            empties += [func.name for _ in empty]
    assert ungated == []
    assert parses == ["_cone", "eval_phi_bc_quadrature_q1"]
    assert chambers == boundaries == empties == ["_cone"]


def _is_interior_bound(node):
    """An order comparison with 2 * ... - 1 on either side."""
    return isinstance(node, ast.Compare) \
        and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                for op in node.ops) \
        and any(ast.unparse(side).startswith("2 * ")
                and ast.unparse(side).endswith(" - 1")
                for side in [node.left] + node.comparators)


def test_one_gate_for_the_open_bound():
    """p > 2q - 1, where the ball law has a density, was tested by hand in
    eval_ho_polynomial, boundedness_sweep, rate_p_experiment,
    moment_decay_experiment and kappa, with five messages.  An order
    comparison with 2q - 1 now appears only in `hyper_bc._cone`, the
    closed bound of the boundary law, and `sampling._check_interior`, the
    open one; the samplers' choice of law by `!=` is no bound."""
    found = [(module, func.name)
             for module in CONE_MODULES + ("sampling.py",)
             for func in _functions(module).values()
             for node in ast.walk(func) if _is_interior_bound(node)]
    assert found == [("hyper_bc.py", "_cone"),
                     ("sampling.py", "_check_interior")]


def _spectral_reads(func):
    """func's parses of lam (a _check_finite of "lam") and its tests of
    lam's length (a comparison that reads lam's size, shape or len and
    q)."""
    nodes = list(ast.walk(func))
    parses = [ast.unparse(node) for node in nodes
              if isinstance(node, ast.Call)
              and _names(node.func) == ["_check_finite"] and node.args
              and getattr(node.args[0], "value", None) == "lam"]
    lengths = [ast.unparse(node) for node in nodes
               if isinstance(node, ast.Compare)
               and {"lam", "q"} <= set(_names(node))
               and {"size", "shape", "len"} & set(_names(node))]
    return parses + lengths


def test_one_gate_for_a_spectral_point():
    """lam was parsed in six places, each with its own length message.
    Every exported function of these modules that takes lam calls
    hyper_bc._spectral, and no other function in them parses lam or
    tests its length.  The rank-one quadrature is exempt: its lam
    broadcasts over rank-one points."""
    ungated, reads = [], []
    for module in CONE_MODULES:
        for name, func in _functions(module).items():
            gated = any(isinstance(node, ast.Call)
                        and _names(node.func) == ["_spectral"]
                        for node in ast.walk(func))
            if name in hypergeo.__all__ and not gated \
                    and "lam" in {a.arg for a in func.args.args} \
                    and name != "eval_phi_bc_quadrature_q1":
                ungated.append(name)
            reads += [(name, read) for read in _spectral_reads(func)]
    assert ungated == []
    assert [name for name, _ in reads] == [
        "_spectral", "_spectral", "eval_phi_bc_quadrature_q1"], reads
