#!/usr/bin/env python3
"""Tests for scripts/fsim_lint.py: every rule fires on a seeded violation
(exit 1), the allow-escape and the baseline suppress, and clean input passes.

Runs under pytest, or standalone (`python3 tests/test_fsim_lint.py`) on
machines without pytest — the __main__ block discovers test_* functions.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
LINT = REPO_ROOT / "scripts" / "fsim_lint.py"


def run_lint(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINT), "--no-baseline", *args],
        capture_output=True, text=True)


def write(tree: Path, rel: str, content: str) -> Path:
    path = tree / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content)
    return path


GUARD = "#ifndef FSIM_TMP_H_\n#define FSIM_TMP_H_\n"
GUARD_END = "#endif  // FSIM_TMP_H_\n"


def test_sync_comment_violation_fails():
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "src") as d:
        path = write(Path(d), "bad_sync.h", GUARD + (
            "#include <atomic>\n"
            "class C {\n"
            "  std::atomic<int> counter_{0};\n"
            "};\n") + GUARD_END)
        proc = run_lint(str(path))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "sync-comment" in proc.stdout


def test_sync_comment_with_comment_passes():
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "src") as d:
        path = write(Path(d), "good_sync.h", GUARD + (
            "#include <atomic>\n"
            "class C {\n"
            "  std::atomic<int> counter_{0};  // ordering: relaxed telemetry\n"
            "  // guards: the queue below\n"
            "  std::mutex mu_;\n"
            "};\n") + GUARD_END)
        proc = run_lint(str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_allow_escape_suppresses():
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "src") as d:
        path = write(Path(d), "allowed.h", GUARD + (
            "#include <atomic>\n"
            "class C {\n"
            "  // fsim-lint: allow(sync-comment)\n"
            "  std::atomic<int> counter_{0};\n"
            "};\n") + GUARD_END)
        proc = run_lint(str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_parallel_hot_lock_in_lambda_fails():
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "src" / "core") as d:
        path = write(Path(d), "hot.cc", (
            '#include "core/hot.h"\n'
            "void F(ThreadPool& pool) {\n"
            "  pool.ParallelFor(100, [&](size_t i) {\n"
            "    std::lock_guard<std::mutex> lock(mu_);\n"
            "    Work(i);\n"
            "  });\n"
            "}\n"))
        proc = run_lint(str(path))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "parallel-hot" in proc.stdout


def test_parallel_hot_outside_hot_dirs_ignored():
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "tests") as d:
        path = write(Path(d), "hot_test.cc", (
            "void F(ThreadPool& pool) {\n"
            "  pool.ParallelFor(100, [&](size_t i) {\n"
            "    std::lock_guard<std::mutex> lock(mu_);\n"
            "  });\n"
            "}\n"))
        proc = run_lint(str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_metrics_hot_lookup_in_lambda_fails():
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "src" / "serve") as d:
        path = write(Path(d), "metrics_hot.cc", (
            '#include "serve/metrics_hot.h"\n'
            "void F(ThreadPool& pool) {\n"
            "  pool.ParallelFor(100, [&](size_t i) {\n"
            "    obs::Registry::Default()\n"
            '        .GetCounter("fsim_work_total")->Inc();\n'
            "    Work(i);\n"
            "  });\n"
            "}\n"))
        proc = run_lint(str(path))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "metrics-hot" in proc.stdout


def test_metrics_hot_preresolved_handle_passes():
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "src" / "serve") as d:
        path = write(Path(d), "metrics_ok.cc", (
            '#include "serve/metrics_ok.h"\n'
            "void F(ThreadPool& pool) {\n"
            "  obs::Counter* work =\n"
            '      obs::Registry::Default().GetCounter("fsim_work_total");\n'
            "  pool.ParallelFor(100, [&](size_t i) {\n"
            "    work->Inc();\n"
            "    Work(i);\n"
            "  });\n"
            "}\n"))
        proc = run_lint(str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_metrics_hot_allow_escape_suppresses():
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "src" / "serve") as d:
        path = write(Path(d), "metrics_allowed.cc", (
            '#include "serve/metrics_allowed.h"\n'
            "void F(ThreadPool& pool) {\n"
            "  pool.ParallelFor(100, [&](size_t i) {\n"
            "    // fsim-lint: allow(metrics-hot)\n"
            '    obs::Registry::Default().GetGauge("fsim_depth")->Set(1.0);\n'
            "  });\n"
            "}\n"))
        proc = run_lint(str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_metrics_hot_ignored_outside_src():
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "bench") as d:
        path = write(Path(d), "metrics_bench.cc", (
            "void F(ThreadPool& pool) {\n"
            "  pool.ParallelFor(100, [&](size_t i) {\n"
            '    obs::Registry::Default().GetCounter("fsim_x")->Inc();\n'
            "  });\n"
            "}\n"))
        proc = run_lint(str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_banned_rand_fails():
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "src") as d:
        path = write(Path(d), "r.cc", (
            '#include "common/r.h"\n'
            "int Noise() { return rand() % 7; }\n"))
        proc = run_lint(str(path))
        assert proc.returncode == 1
        assert "banned" in proc.stdout


def test_banned_in_string_literal_ignored():
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "src") as d:
        path = write(Path(d), "s.cc", (
            '#include "common/s.h"\n'
            'const char* kMsg = "call rand( for chaos";\n'))
        proc = run_lint(str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_header_guard_missing_fails():
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "src") as d:
        path = write(Path(d), "unguarded.h", "struct S {};\n")
        proc = run_lint(str(path))
        assert proc.returncode == 1
        assert "header-guard" in proc.stdout


def test_pragma_once_passes():
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "src") as d:
        path = write(Path(d), "pragma.h", "#pragma once\nstruct S {};\n")
        proc = run_lint(str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_naked_new_fails():
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "src") as d:
        path = write(Path(d), "n.cc", (
            '#include "common/n.h"\n'
            "int* Leak() { return new int(7); }\n"))
        proc = run_lint(str(path))
        assert proc.returncode == 1
        assert "naked-new" in proc.stdout


def test_durability_uncommented_fsync_fails():
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "src") as d:
        path = write(Path(d), "d.cc", (
            '#include "common/d.h"\n'
            "#include <unistd.h>\n"
            "int Sync(int fd) { return fsync(fd); }\n"))
        proc = run_lint(str(path))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "durability" in proc.stdout


def test_durability_comment_within_lookback_passes():
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "src") as d:
        path = write(Path(d), "d.cc", (
            '#include "common/d.h"\n'
            "#include <unistd.h>\n"
            "int SyncNear(int fd) {\n"
            "  // durability: ack barrier — callers rely on it.\n"
            "  return fsync(fd);\n"
            "}\n"
            "int SyncFar(int fd) {\n"
            "  // durability: the comment may sit a few lines up,\n"
            "  // above the error-handling preamble.\n"
            "  if (fd < 0) {\n"
            "    return -1;\n"
            "  }\n"
            "  return fdatasync(fd);\n"
            "}\n"))
        proc = run_lint(str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_durability_ignored_outside_src():
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "tests") as d:
        path = write(Path(d), "d.cc", (
            "#include <unistd.h>\n"
            "int Sync(int fd) { return fsync(fd); }\n"))
        proc = run_lint(str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_simd_isolation_intrinsic_outside_simd_dir_fails():
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "src") as d:
        path = write(Path(d), "vec.cc", (
            '#include "core/vec.h"\n'
            "#include <immintrin.h>\n"
            "double Sum(const double* p) {\n"
            "  __m256d v = _mm256_loadu_pd(p);\n"
            "  return _mm256_cvtsd_f64(v);\n"
            "}\n"))
        proc = run_lint(str(path))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "simd-isolation" in proc.stdout
        # Both the include and the intrinsic lines fire.
        assert proc.stdout.count("simd-isolation") >= 3


def test_simd_isolation_allow_escape_suppresses():
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "bench") as d:
        path = write(Path(d), "t.cc", (
            '#include "bench/t.h"\n'
            "#include <x86intrin.h>  // fsim-lint: allow(simd-isolation)\n"
            "unsigned long long Now() {\n"
            "  return __rdtsc();\n"
            "}\n"))
        proc = run_lint(str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_baseline_suppresses_then_stays_pinned():
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "src") as d:
        path = write(Path(d), "b.cc", (
            '#include "common/b.h"\n'
            "int Noise() { return rand() % 7; }\n"))
        # Without the baseline the violation fails...
        assert run_lint(str(path)).returncode == 1
        # ...with a freshly seeded baseline (run WITHOUT --no-baseline) the
        # same finding is grandfathered.
        baseline = REPO_ROOT / "scripts" / "fsim_lint_baseline.json"
        saved = baseline.read_text() if baseline.exists() else None
        try:
            subprocess.run(
                [sys.executable, str(LINT), "--update-baseline", str(path)],
                capture_output=True, text=True, check=True)
            proc = subprocess.run(
                [sys.executable, str(LINT), str(path)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            assert "baselined" in proc.stdout
        finally:
            if saved is None:
                baseline.unlink(missing_ok=True)
            else:
                baseline.write_text(saved)


def test_repo_tree_is_clean_under_baseline():
    proc = subprocess.run([sys.executable, str(LINT)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def main() -> int:
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as e:
                failures += 1
                print(f"FAIL {name}: {e}")
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
