"""CFG construction edge cases plus a generative structural property.

BEES109 only sees the program through :mod:`repro.lint.cfg`, so every
control construct the codebase uses gets a shape test here: branches,
loop ``else`` clauses, ``try`` funnels, nested ``with`` regions, and
the early-``return``-under-lock pattern BEES109 leans on.  The
hypothesis suite then pins what BEES109 assumes for *arbitrary*
functions: the published graph is connected from the entry and its
edges are symmetric.
"""

import ast

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.cfg import build_cfg, evaluated_nodes


def cfg_of(source):
    """The CFG of the first function defined in *source*."""
    tree = ast.parse(source)
    func = next(
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    )
    return build_cfg(func)


def stmt_types(block):
    return [type(stmt).__name__ for stmt in block.statements]


def find_stmt(cfg, predicate):
    """The (block, stmt) pair of the unique statement matching *predicate*."""
    matches = [
        (block, stmt)
        for block, stmt in cfg.statements()
        if predicate(stmt)
    ]
    assert len(matches) == 1, matches
    return matches[0]


class TestBranches:
    def test_if_else_diamond(self):
        cfg = cfg_of(
            "def f(x):\n"
            "    if x:\n"
            "        a = 1\n"
            "    else:\n"
            "        a = 2\n"
            "    return a\n"
        )
        test_block, _ = find_stmt(cfg, lambda s: isinstance(s, ast.If))
        assert len(test_block.successors) == 2
        return_block, _ = find_stmt(cfg, lambda s: isinstance(s, ast.Return))
        assert len(return_block.predecessors) == 2

    def test_code_after_return_is_pruned(self):
        cfg = cfg_of(
            "def f():\n"
            "    return 1\n"
            "    dead = 2\n"
        )
        tree = cfg.func
        dead = tree.body[1]
        assert isinstance(dead, ast.Assign)
        assert cfg.block_of(dead) is None
        live = [stmt for _, stmt in cfg.statements()]
        assert dead not in live

    def test_raise_edges_to_exit(self):
        cfg = cfg_of(
            "def f():\n"
            "    raise ValueError('no')\n"
        )
        block, _ = find_stmt(cfg, lambda s: isinstance(s, ast.Raise))
        assert cfg.exit in block.successors


class TestLoops:
    def test_while_else_runs_only_on_normal_exit(self):
        cfg = cfg_of(
            "def f(n):\n"
            "    while n:\n"
            "        if n == 3:\n"
            "            break\n"
            "        n -= 1\n"
            "    else:\n"
            "        n = -1\n"
            "    return n\n"
        )
        header, _ = find_stmt(cfg, lambda s: isinstance(s, ast.While))
        else_block, _ = find_stmt(
            cfg,
            lambda s: isinstance(s, ast.Assign)
            and ast.unparse(s) == "n = -1",
        )
        break_block, _ = find_stmt(cfg, lambda s: isinstance(s, ast.Break))
        return_block, _ = find_stmt(cfg, lambda s: isinstance(s, ast.Return))
        # Normal exit goes through the else clause; break skips it.
        assert else_block.block_id in header.successors
        assert else_block.block_id not in break_block.successors
        reaches_return = set(return_block.predecessors)
        assert else_block.block_id in reaches_return
        assert not (break_block.successors & {else_block.block_id})

    def test_for_else_and_continue(self):
        cfg = cfg_of(
            "def f(items):\n"
            "    for item in items:\n"
            "        if item:\n"
            "            continue\n"
            "        use(item)\n"
            "    else:\n"
            "        done()\n"
        )
        header, _ = find_stmt(cfg, lambda s: isinstance(s, ast.For))
        continue_block, _ = find_stmt(
            cfg, lambda s: isinstance(s, ast.Continue)
        )
        assert header.block_id in continue_block.successors


class TestTry:
    def test_try_except_else_finally_edges(self):
        cfg = cfg_of(
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    except ValueError:\n"
            "        handle()\n"
            "    else:\n"
            "        celebrate()\n"
            "    finally:\n"
            "        cleanup()\n"
            "    return 0\n"
        )
        body_block, _ = find_stmt(
            cfg,
            lambda s: isinstance(s, ast.Expr)
            and ast.unparse(s) == "risky()",
        )
        handler_block, _ = find_stmt(
            cfg,
            lambda s: isinstance(s, ast.Expr)
            and ast.unparse(s) == "handle()",
        )
        else_block, _ = find_stmt(
            cfg,
            lambda s: isinstance(s, ast.Expr)
            and ast.unparse(s) == "celebrate()",
        )
        final_block, _ = find_stmt(
            cfg,
            lambda s: isinstance(s, ast.Expr)
            and ast.unparse(s) == "cleanup()",
        )
        # Any try-body statement may raise into the handler.
        assert handler_block.block_id in body_block.successors
        # The else clause runs after a clean body.
        assert else_block.block_id in body_block.successors
        # Both the handler and the else path funnel through finally.
        assert final_block.block_id in handler_block.successors
        assert final_block.block_id in else_block.successors
        # finally is the only way into the code after the statement.
        return_block, _ = find_stmt(cfg, lambda s: isinstance(s, ast.Return))
        assert return_block.predecessors == {final_block.block_id}

    def test_bare_try_finally_with_terminating_body(self):
        cfg = cfg_of(
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    finally:\n"
            "        cleanup()\n"
        )
        final_block, _ = find_stmt(
            cfg,
            lambda s: isinstance(s, ast.Expr)
            and ast.unparse(s) == "cleanup()",
        )
        assert final_block.predecessors  # the finally still runs


class TestWithRegions:
    def test_nested_with_contexts_accumulate(self):
        cfg = cfg_of(
            "def f(self):\n"
            "    with self._lock:\n"
            "        with open(path) as fh:\n"
            "            data = fh.read()\n"
            "    after = 1\n"
        )
        inner, _ = find_stmt(
            cfg,
            lambda s: isinstance(s, ast.Assign)
            and ast.unparse(s.targets[0]) == "data",
        )
        assert inner.with_contexts == frozenset(
            {"self._lock", "open(path)"}
        )
        outside, _ = find_stmt(
            cfg,
            lambda s: isinstance(s, ast.Assign)
            and ast.unparse(s.targets[0]) == "after",
        )
        assert outside.with_contexts == frozenset()

    def test_early_return_keeps_locked_region(self):
        # The BEES109 load-bearing shape: a return *inside* the with
        # body stays in the held region even though control leaves the
        # function, while the fall-through after the with does not.
        cfg = cfg_of(
            "def f(self, key):\n"
            "    with self._lock:\n"
            "        if key in self._entries:\n"
            "            return self._entries[key]\n"
            "    return None\n"
        )
        inner_return, inner_stmt = find_stmt(
            cfg,
            lambda s: isinstance(s, ast.Return) and s.value is not None
            and not isinstance(s.value, ast.Constant),
        )
        assert "self._lock" in inner_return.with_contexts
        assert cfg.exit in inner_return.successors
        outer_return, _ = find_stmt(
            cfg,
            lambda s: isinstance(s, ast.Return)
            and isinstance(s.value, ast.Constant),
        )
        assert outer_return.with_contexts == frozenset()

    def test_multi_item_with(self):
        cfg = cfg_of(
            "def f(a, b):\n"
            "    with a.lock, b.lock:\n"
            "        x = 1\n"
        )
        inner, _ = find_stmt(cfg, lambda s: isinstance(s, ast.Assign))
        assert inner.with_contexts == frozenset({"a.lock", "b.lock"})


class TestEvaluatedNodes:
    def names(self, stmt):
        return {
            node.id
            for node in evaluated_nodes(stmt)
            if isinstance(node, ast.Name)
        }

    def test_if_contributes_only_its_test(self):
        stmt = ast.parse("if cond:\n    body_name = 1\n").body[0]
        assert self.names(stmt) == {"cond"}

    def test_for_contributes_target_and_iter(self):
        stmt = ast.parse("for item in items:\n    use(item)\n").body[0]
        assert self.names(stmt) == {"item", "items"}

    def test_lambda_body_is_not_evaluated(self):
        stmt = ast.parse("fn = lambda v: hidden(v)\n").body[0]
        assert "hidden" not in self.names(stmt)

    def test_lambda_defaults_are_evaluated(self):
        stmt = ast.parse("fn = lambda v=default: hidden(v)\n").body[0]
        names = self.names(stmt)
        assert "default" in names
        assert "hidden" not in names

    def test_comprehension_is_evaluated_inline(self):
        stmt = ast.parse("sizes = [len(p) for p in paths]\n").body[0]
        names = self.names(stmt)
        assert {"len", "p", "paths"} <= names

    def test_nested_def_body_is_opaque(self):
        stmt = ast.parse(
            "def outer():\n    secret()\n"
        ).body[0]
        assert self.names(stmt) == set()

    def test_nested_scopes_get_their_own_cfgs(self):
        outer = ast.parse(
            "def outer():\n"
            "    def inner():\n"
            "        return 1\n"
            "    return inner\n"
        ).body[0]
        inner = outer.body[0]
        outer_stmts = [stmt for _, stmt in build_cfg(outer).statements()]
        assert inner in outer_stmts
        assert inner.body[0] not in outer_stmts
        inner_stmts = [stmt for _, stmt in build_cfg(inner).statements()]
        assert inner_stmts == [inner.body[0]]


# -- generative properties ----------------------------------------------------

_simple = st.sampled_from(
    ["x = x + 1", "use(x)", "pass", "return x", "break", "continue", "raise"]
)


def _render(structure, depth=0):
    """Render a nested statement structure into function-body lines."""
    pad = "    " * depth
    lines = []
    for node in structure:
        if isinstance(node, str):
            if depth == 0 and node in ("break", "continue"):
                node = "pass"  # only legal inside a loop
            lines.append(pad + node)
        else:
            kind, children = node
            if kind == "if":
                lines.append(pad + "if x:")
            elif kind == "while":
                lines.append(pad + "while x:")
            elif kind == "for":
                lines.append(pad + "for x in xs:")
            elif kind == "with":
                lines.append(pad + "with lock:")
            else:  # try
                lines.append(pad + "try:")
            lines.extend(_render(children, depth + 1) or [pad + "    pass"])
            if kind == "try":
                lines.append(pad + "except Exception:")
                lines.append(pad + "    pass")
            elif kind == "if":
                lines.append(pad + "else:")
                lines.append(pad + "    pass")
    return lines


_structures = st.recursive(
    st.lists(_simple, min_size=1, max_size=3),
    lambda children: st.lists(
        st.one_of(
            _simple,
            st.tuples(
                st.sampled_from(["if", "while", "for", "with", "try"]),
                children,
            ),
        ),
        min_size=1,
        max_size=3,
    ),
    max_leaves=12,
)


@settings(max_examples=60, deadline=None)
@given(_structures)
def test_generated_cfgs_are_connected(structure):
    body = _render(structure) or ["pass"]
    source = "def f(x, xs, lock):\n" + "\n".join(
        "    " + line for line in body
    )
    try:
        tree = ast.parse(source)
    except SyntaxError:
        # break/continue can land outside a loop at nested depth; the
        # generator is permissive by design, skip those shapes.
        return
    cfg = build_cfg(tree.body[0])
    # Property 1: every published block is reachable from the entry
    # (pruning keeps only the connected component, plus the exit).
    reachable = {cfg.entry}
    stack = [cfg.entry]
    while stack:
        for succ in cfg.blocks[stack.pop()].successors:
            if succ not in reachable:
                reachable.add(succ)
                stack.append(succ)
    assert set(cfg.blocks) <= reachable | {cfg.exit}
    # Property 2: edges are symmetric (succ/pred views agree).
    for block_id, block in cfg.blocks.items():
        for succ in block.successors:
            assert block_id in cfg.blocks[succ].predecessors
        for pred in block.predecessors:
            assert block_id in cfg.blocks[pred].successors
