"""BEES109 ``lock-discipline``: seeded races flagged, real code clean.

The acceptance shape from the issue: an unguarded access to an
attribute the class writes under its lock is a finding; a lock-free
read on the fall-through path *around* a ``with`` block is a finding;
and the real lock-holding classes (the decision journal and the
metrics registry) produce zero findings.
"""

import os

import pytest

from repro.lint import lint_source, resolve_rules

RULE = "lock-discipline"


def findings_for(source, path="pkg/module.py"):
    report = lint_source(source, path=path, rules=resolve_rules(select=[RULE]))
    assert report.error is None, report.error
    return report.findings


GUARDED_CLASS = """\
import threading

class Journal:
    def __init__(self):
        self._lock = threading.Lock()
        self._events = []

    def emit(self, event):
        with self._lock:
            self._events.append(event)
            self._count = len(self._events)
"""


class TestSeededRaces:
    def test_unguarded_read_of_guarded_attr_is_flagged(self):
        source = GUARDED_CLASS + (
            "\n"
            "    def snapshot(self):\n"
            "        return list(self._count for _ in range(1))\n"
        )
        findings = findings_for(source)
        assert len(findings) == 1
        assert "_count" in findings[0].message
        assert "self._lock" in findings[0].message

    def test_unguarded_write_is_flagged(self):
        source = GUARDED_CLASS + (
            "\n"
            "    def reset(self):\n"
            "        self._count = 0\n"
        )
        findings = findings_for(source)
        assert len(findings) == 1
        assert findings[0].rule == RULE

    def test_read_reachable_around_the_with_block_is_flagged(self):
        # The path-sensitivity case: the *fall-through after* the with
        # block is outside the held region even though the method does
        # acquire the lock elsewhere in its body.
        source = GUARDED_CLASS + (
            "\n"
            "    def drain(self):\n"
            "        with self._lock:\n"
            "            batch = list(self._events)\n"
            "        return self._count\n"
        )
        findings = findings_for(source)
        assert len(findings) == 1
        assert findings[0].line == source.splitlines().index(
            "        return self._count"
        ) + 1

    def test_early_return_inside_the_lock_is_clean(self):
        source = GUARDED_CLASS + (
            "\n"
            "    def first(self):\n"
            "        with self._lock:\n"
            "            if self._events:\n"
            "                return self._count\n"
            "        return 0\n"
        )
        assert not findings_for(source)


class TestConventions:
    def test_constructor_writes_are_exempt(self):
        # GUARDED_CLASS itself writes self._events in __init__ without
        # the lock; no concurrent peer exists yet.
        assert not findings_for(GUARDED_CLASS)

    def test_locked_helper_is_assumed_held(self):
        source = GUARDED_CLASS + (
            "\n"
            "    def _compact_locked(self):\n"
            "        self._events = self._events[-10:]\n"
            "        self._count = len(self._events)\n"
        )
        assert not findings_for(source)

    def test_calling_locked_helper_without_lock_is_flagged(self):
        source = GUARDED_CLASS + (
            "\n"
            "    def _compact_locked(self):\n"
            "        self._count = 0\n"
            "\n"
            "    def compact(self):\n"
            "        self._compact_locked()\n"
        )
        findings = findings_for(source)
        assert len(findings) == 1
        assert "_compact_locked" in findings[0].message

    def test_calling_locked_helper_with_lock_is_clean(self):
        source = GUARDED_CLASS + (
            "\n"
            "    def _compact_locked(self):\n"
            "        self._count = 0\n"
            "\n"
            "    def compact(self):\n"
            "        with self._lock:\n"
            "            self._compact_locked()\n"
        )
        assert not findings_for(source)

    def test_manual_acquire_methods_opt_out(self):
        source = GUARDED_CLASS + (
            "\n"
            "    def try_emit(self, event):\n"
            "        if not self._lock.acquire(blocking=False):\n"
            "            return False\n"
            "        try:\n"
            "            self._events.append(event)\n"
            "            self._count = len(self._events)\n"
            "        finally:\n"
            "            self._lock.release()\n"
            "        return True\n"
        )
        assert not findings_for(source)

    def test_lock_collections_match_subscripted_with(self):
        source = """\
import threading

class Sharded:
    def __init__(self, n):
        self._locks = [threading.Lock() for _ in range(n)]
        self._tables = [{} for _ in range(n)]

    def put(self, shard, key, value):
        with self._locks[shard]:
            self._tables[shard][key] = value

    def peek(self, shard, key):
        return self._tables[shard].get(key)
"""
        findings = findings_for(source)
        assert len(findings) == 1
        assert "_tables" in findings[0].message

    def test_lockless_class_is_ignored(self):
        source = """\
class Plain:
    def __init__(self):
        self._items = []

    def add(self, item):
        self._items.append(item)
"""
        assert not findings_for(source)

    def test_inline_suppression_silences_a_deliberate_race(self):
        source = GUARDED_CLASS + (
            "\n"
            "    def racy_len(self):\n"
            "        return self._count  "
            "# beeslint: disable=lock-discipline (GIL-atomic snapshot)\n"
        )
        assert not findings_for(source)


class TestRealCode:
    def repo_file(self, *parts):
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        path = os.path.join(root, *parts)
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read(), path

    @pytest.mark.parametrize("module", ["journal.py", "metrics.py"])
    def test_observability_locks_have_zero_findings(self, module):
        # The decision journal's and the metrics registry's locks are
        # the concurrent fleet's shared state: no false positives.
        source, path = self.repo_file("src", "repro", "obs", module)
        assert findings_for(source, path=path) == ()

    def test_kernel_cache_has_zero_findings_after_fix(self):
        source, path = self.repo_file("src", "repro", "kernels", "cache.py")
        assert findings_for(source, path=path) == ()
