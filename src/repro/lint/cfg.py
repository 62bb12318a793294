"""Per-function control-flow graphs for BEES109 ``lock-discipline``.

One :class:`CFG` per function: basic blocks of statements joined by
edges for branches, loops (``while``/``for`` with their ``else``
clauses and ``break``/``continue``), ``try``/``except``/``else``/
``finally``, and early ``return``/``raise``.  Every block carries
``with_contexts`` — the unparsed context-manager expressions of every
enclosing ``with`` statement.  A block never spans a ``with``
boundary, so the set is uniform over the block; BEES109 reads lock
regions straight off it, and because the region is carried through
the CFG (not recomputed lexically) an early ``return`` inside a locked
body keeps its held set while the fall-through after the ``with`` does
not.

Exception edges are approximated the standard way: every block of a
``try`` body may jump to every handler (any statement can raise), and
``finally`` is a join block all normal and handler exits pass through.
``return`` inside ``try``/``finally`` edges straight to the exit block
— coarse, but it only *adds* paths.

Unreachable blocks (code after a terminator) are pruned so the
published graph is connected from the entry block — the property the
hypothesis suite pins for arbitrary generated functions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: Statement types that end a block and never fall through.
_TERMINATORS = (ast.Return, ast.Raise, ast.Break, ast.Continue)

_FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class Block:
    """One basic block: straight-line statements plus CFG edges."""

    block_id: int
    statements: "list[ast.stmt]" = field(default_factory=list)
    successors: "set[int]" = field(default_factory=set)
    predecessors: "set[int]" = field(default_factory=set)
    #: Unparsed context-manager expressions of enclosing ``with``s.
    with_contexts: "frozenset[str]" = frozenset()


@dataclass
class CFG:
    """The control-flow graph of one function body."""

    func: "ast.FunctionDef | ast.AsyncFunctionDef"
    blocks: "dict[int, Block]"
    entry: int
    exit: int
    #: ``id(stmt)`` -> block id, for reachable statements only.
    _stmt_blocks: "dict[int, int]" = field(default_factory=dict)

    def block_of(self, stmt: ast.stmt) -> "Block | None":
        """The block holding *stmt*, or None for unreachable code."""
        block_id = self._stmt_blocks.get(id(stmt))
        return None if block_id is None else self.blocks[block_id]

    def statements(self) -> "list[tuple[Block, ast.stmt]]":
        """Every reachable (block, statement) pair, in block id order."""
        pairs = []
        for block_id in sorted(self.blocks):
            for stmt in self.blocks[block_id].statements:
                pairs.append((self.blocks[block_id], stmt))
        return pairs


class _Builder:
    """Single-use recursive CFG builder for one function."""

    def __init__(self, func: "ast.FunctionDef | ast.AsyncFunctionDef") -> None:
        self.func = func
        self.blocks: "dict[int, Block]" = {}
        self.next_id = 0
        self.with_stack: "list[str]" = []
        self.loop_stack: "list[tuple[int, int]]" = []
        self.stmt_blocks: "dict[int, int]" = {}

    # -- plumbing ------------------------------------------------------------

    def new_block(self) -> int:
        block = Block(
            block_id=self.next_id,
            with_contexts=frozenset(self.with_stack),
        )
        self.blocks[block.block_id] = block
        self.next_id += 1
        return block.block_id

    def edge(self, src: int, dst: int) -> None:
        self.blocks[src].successors.add(dst)
        self.blocks[dst].predecessors.add(src)

    def place(self, stmt: ast.stmt, block_id: int) -> None:
        self.blocks[block_id].statements.append(stmt)
        self.stmt_blocks[id(stmt)] = block_id

    # -- construction --------------------------------------------------------

    def build(self) -> CFG:
        entry = self.new_block()
        self.exit_id = self.new_block()
        end = self.visit_body(self.func.body, entry)
        if end is not None:
            self.edge(end, self.exit_id)
        cfg = CFG(
            func=self.func,
            blocks=self.blocks,
            entry=entry,
            exit=self.exit_id,
            _stmt_blocks=self.stmt_blocks,
        )
        _prune_unreachable(cfg)
        return cfg

    def visit_body(
        self, body: "list[ast.stmt]", current: "int | None"
    ) -> "int | None":
        """Thread *body* through the graph; returns the fall-through
        block, or None when every path terminated."""
        for stmt in body:
            if current is None:
                # Code after a terminator: build it (so nested
                # structures stay well-formed) in an orphan block that
                # pruning removes.
                current = self.new_block()
            current = self.visit_stmt(stmt, current)
        return current

    def visit_stmt(self, stmt: ast.stmt, current: int) -> "int | None":
        if isinstance(stmt, ast.If):
            return self._visit_if(stmt, current)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._visit_loop(stmt, current)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._visit_with(stmt, current)
        if isinstance(stmt, ast.Try):
            return self._visit_try(stmt, current)
        if isinstance(stmt, _TERMINATORS):
            self.place(stmt, current)
            if isinstance(stmt, (ast.Return, ast.Raise)) or not self.loop_stack:
                # break/continue outside a loop parses (ast.parse does
                # not reject it) but can never run; edge to the exit.
                self.edge(current, self.exit_id)
            elif isinstance(stmt, ast.Break):
                self.edge(current, self.loop_stack[-1][1])
            else:  # Continue
                self.edge(current, self.loop_stack[-1][0])
            return None
        # Simple statements — including nested function/class
        # definitions, whose bodies are separate scopes with their own
        # CFGs.
        self.place(stmt, current)
        return current

    def _visit_if(self, stmt: ast.If, current: int) -> "int | None":
        self.place(stmt, current)  # the test expression evaluates here
        after = self.new_block()
        then_entry = self.new_block()
        self.edge(current, then_entry)
        then_end = self.visit_body(stmt.body, then_entry)
        if then_end is not None:
            self.edge(then_end, after)
        if stmt.orelse:
            else_entry = self.new_block()
            self.edge(current, else_entry)
            else_end = self.visit_body(stmt.orelse, else_entry)
            if else_end is not None:
                self.edge(else_end, after)
        else:
            self.edge(current, after)
        return after

    def _visit_loop(
        self, stmt: "ast.While | ast.For | ast.AsyncFor", current: int
    ) -> "int | None":
        header = self.new_block()
        self.edge(current, header)
        # The while test, or the for iterator advance + target bind,
        # runs again on every trip.
        self.place(stmt, header)
        after = self.new_block()
        self.loop_stack.append((header, after))
        body_entry = self.new_block()
        body_end = self.visit_body(stmt.body, body_entry)
        self.loop_stack.pop()
        self.edge(header, body_entry)
        if body_end is not None:
            self.edge(body_end, header)
        # The loop's ``else`` clause runs on normal exit and ``break``
        # skips it — hence else hangs off the header while break edges
        # target ``after`` directly.
        if stmt.orelse:
            else_entry = self.new_block()
            self.edge(header, else_entry)
            else_end = self.visit_body(stmt.orelse, else_entry)
            if else_end is not None:
                self.edge(else_end, after)
        else:
            self.edge(header, after)
        return after

    def _visit_with(
        self, stmt: "ast.With | ast.AsyncWith", current: int
    ) -> "int | None":
        self.place(stmt, current)  # context expressions evaluate here
        contexts = [ast.unparse(item.context_expr) for item in stmt.items]
        self.with_stack.extend(contexts)
        body_entry = self.new_block()
        body_end = self.visit_body(stmt.body, body_entry)
        del self.with_stack[len(self.with_stack) - len(contexts):]
        self.edge(current, body_entry)
        after = self.new_block()
        if body_end is not None:
            self.edge(body_end, after)
        return after

    def _visit_try(self, stmt: ast.Try, current: int) -> "int | None":
        self.place(stmt, current)
        body_entry = self.new_block()
        self.edge(current, body_entry)
        before = set(self.blocks)
        body_end = self.visit_body(stmt.body, body_entry)
        body_blocks = [
            block_id
            for block_id in self.blocks
            if block_id not in before or block_id == body_entry
        ]
        after = self.new_block()
        # The block every normal/handler path funnels through: the
        # ``finally`` body when present, else the plain after block.
        if stmt.finalbody:
            final_entry = self.new_block()
            final_end = self.visit_body(stmt.finalbody, final_entry)
            if final_end is not None:
                self.edge(final_end, after)
            join = final_entry
        else:
            join = after
        handler_entries = []
        for handler in stmt.handlers:
            handler_entry = self.new_block()
            handler_entries.append(handler_entry)
            handler_end = self.visit_body(handler.body, handler_entry)
            if handler_end is not None:
                self.edge(handler_end, join)
        # Any statement of the try body may raise into any handler.
        for block_id in body_blocks:
            for handler_entry in handler_entries:
                self.edge(block_id, handler_entry)
        if body_end is not None:
            if stmt.orelse:
                else_entry = self.new_block()
                self.edge(body_end, else_entry)
                else_end = self.visit_body(stmt.orelse, else_entry)
                if else_end is not None:
                    self.edge(else_end, join)
            else:
                self.edge(body_end, join)
        elif not stmt.handlers and not stmt.orelse and stmt.finalbody:
            # try/finally whose body always terminates: the finally
            # still runs; approximate with an edge into the join.
            self.edge(body_entry, join)
        return after


def _prune_unreachable(cfg: CFG) -> None:
    """Drop blocks unreachable from the entry (dead code)."""
    reachable = {cfg.entry}
    stack = [cfg.entry]
    while stack:
        for succ in cfg.blocks[stack.pop()].successors:
            if succ not in reachable:
                reachable.add(succ)
                stack.append(succ)
    reachable.add(cfg.exit)  # keep the exit even for infinite loops
    for block_id in list(cfg.blocks):
        if block_id in reachable:
            cfg.blocks[block_id].predecessors &= reachable
            continue
        for stmt in cfg.blocks[block_id].statements:
            cfg._stmt_blocks.pop(id(stmt), None)
        del cfg.blocks[block_id]


def build_cfg(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> CFG:
    """Build the CFG of one function definition."""
    return _Builder(func).build()


def evaluated_nodes(stmt: ast.stmt) -> "list[ast.AST]":
    """The AST nodes that *execute in the block holding stmt*.

    Compound statements are placed in the block where their control
    expression evaluates (the ``if``/``while`` test, the ``for``
    iterator, the ``with`` context managers); their bodies live in
    other blocks with their own annotations, so walking the whole
    subtree from the placement block would attribute body code to the
    wrong path.  Nested ``def``/``class``/``lambda`` bodies are skipped
    too — defining them evaluates nothing inside them.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        roots: "list[ast.AST]" = [stmt.test]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        roots = [stmt.target, stmt.iter]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        roots = [item.context_expr for item in stmt.items]
        roots.extend(
            item.optional_vars
            for item in stmt.items
            if item.optional_vars is not None
        )
    elif isinstance(stmt, (ast.Try, *_FunctionNode, ast.ClassDef)):
        roots = []
    else:
        roots = [stmt]
    nodes: "list[ast.AST]" = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        nodes.append(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(node, ast.Lambda) and child is node.body:
                continue
            if isinstance(child, (*_FunctionNode, ast.ClassDef)):
                continue
            stack.append(child)
    return nodes

