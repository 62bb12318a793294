"""Tests for the bench-case registry."""

import pytest

from repro.bench import CASE_SPECS, case_ids, find_benchmarks_dir, load_cases
from repro.errors import BenchError


class TestCaseIds:
    def test_registered_case_count(self):
        ids = case_ids()
        assert len(ids) == 19
        assert len(set(ids)) == len(ids)

    def test_each_module_hosts_one_case(self):
        modules = [module for _, module, *_ in CASE_SPECS]
        assert len(set(modules)) == len(modules)


class TestFindBenchmarksDir:
    def test_resolves_from_repo_layout(self):
        found = find_benchmarks_dir()
        assert (found / "common.py").is_file()
        assert (found / "bench_table1_space_overhead.py").is_file()

    def test_env_override_wins(self, tmp_path, monkeypatch):
        (tmp_path / "common.py").write_text("")
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        assert find_benchmarks_dir() == tmp_path

    def test_bad_override_falls_back_to_repo(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "nope"))
        assert (find_benchmarks_dir() / "common.py").is_file()


class TestLoadCases:
    def test_unknown_case_rejected_by_name(self):
        with pytest.raises(BenchError) as excinfo:
            load_cases(["nope"])
        assert "nope" in str(excinfo.value)

    def test_subset_preserves_registry_order(self):
        cases = load_cases(["table1_space_overhead", "fig5_compression_bandwidth"])
        assert [case.case_id for case in cases] == [
            "fig5_compression_bandwidth",
            "table1_space_overhead",
        ]

    def test_loaded_case_shape(self):
        (case,) = load_cases(["table1_space_overhead"])
        assert callable(case.run)
        assert case.figure == "Table I"
        assert case.params == {"sample_images": 10}
        assert case.quick_params == {"sample_images": 4}
        assert case.parameters() == case.params
        assert case.parameters(quick=True) == {"sample_images": 4}

    def test_every_registered_module_loads(self):
        cases = load_cases()
        assert [case.case_id for case in cases] == case_ids()
        for case in cases:
            assert callable(case.run), case.case_id
            assert case.params, case.case_id
            assert case.quick_params, case.case_id
            # quick must actually reduce something, not alias the full set
            assert case.parameters(quick=True) != case.params, case.case_id
