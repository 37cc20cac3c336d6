// The linter's own tests: each rule fires on a minimal fixture, each allow
// directive suppresses exactly its rule, and — the point of the exercise —
// the real tree is clean (every exception in src/ carries an explicit,
// reasoned allow directive).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/lint/lint.h"

namespace prism::lint {
namespace {

std::vector<std::string> Rules(const std::vector<Violation>& violations) {
  std::vector<std::string> rules;
  rules.reserve(violations.size());
  for (const Violation& v : violations) {
    rules.push_back(v.rule);
  }
  return rules;
}

bool HasRule(const std::vector<Violation>& violations, const std::string& rule) {
  const auto rules = Rules(violations);
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

// --- Rule 1: include-layering. -------------------------------------------

TEST(LintLayering, UpwardIncludeFires) {
  // storage (rank 2) including core (rank 6): a back-edge in the DAG.
  const auto v = LintFile("src/storage/ssd.cc", "#include \"src/core/engine.h\"\n");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "layering");
  EXPECT_EQ(v[0].line, 1u);
}

TEST(LintLayering, SiblingIncludeFires) {
  // retrieval and runtime share a rank: neither may include the other.
  EXPECT_TRUE(HasRule(LintFile("src/retrieval/bm25.cc", "#include \"src/runtime/runner.h\"\n"),
                      "layering"));
  EXPECT_TRUE(
      HasRule(LintFile("src/apps/file_search.cc", "#include \"src/core/engine.h\"\n"),
              "layering"));
}

TEST(LintLayering, DownwardAndSameLayerIncludesAreClean) {
  EXPECT_TRUE(LintFile("src/core/engine.cc", "#include \"src/common/check.h\"\n").empty());
  EXPECT_TRUE(LintFile("src/core/engine.cc", "#include \"src/core/stages.h\"\n").empty());
  // serving is the sink: it may include apps.
  EXPECT_TRUE(
      LintFile("src/serving/workload.cc", "#include \"src/apps/agent_memory.h\"\n").empty());
}

TEST(LintLayering, CommentedOutIncludeDoesNotCount) {
  EXPECT_TRUE(LintFile("src/storage/ssd.cc", "// #include \"src/core/engine.h\"\n").empty());
}

// --- Rule 2: wall-clock discipline. --------------------------------------

TEST(LintWallClock, RawClockReadFires) {
  const auto v = LintFile("src/core/engine.cc",
                          "int64_t t = std::chrono::steady_clock::now().time_since_epoch();\n");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "wall-clock");
}

TEST(LintWallClock, SleepAndRawCondVarFire) {
  EXPECT_TRUE(HasRule(
      LintFile("src/storage/ssd.cc", "std::this_thread::sleep_for(d);\n"), "wall-clock"));
  EXPECT_TRUE(HasRule(
      LintFile("src/model/embedding.h", "std::condition_variable cv_;\n"), "wall-clock"));
}

TEST(LintWallClock, ClockSeamItselfIsExempt) {
  EXPECT_TRUE(
      LintFile("src/common/clock.cc", "cv_.wait_until(lock, steady_clock::now());\n").empty());
}

TEST(LintWallClock, AllowDirectiveOnSameLineSuppresses) {
  EXPECT_TRUE(LintFile("src/common/timer.h",
                       "auto t = std::chrono::steady_clock::now();  "
                       "// prism-lint: allow(wall-clock): the measurement clock\n")
                  .empty());
}

TEST(LintWallClock, AllowDirectiveAboveCoversNextCodeLine) {
  const std::string content =
      "// prism-lint: allow(wall-clock): device-domain throttle, wall by design\n"
      "// (continued rationale on a second comment line)\n"
      "std::this_thread::sleep_for(d);\n"
      "std::this_thread::sleep_for(d);\n";  // NOT covered: only the first code line is.
  const auto v = LintFile("src/storage/ssd.cc", content);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].line, 4u);
}

TEST(LintWallClock, DirectiveWithoutReasonIsItselfAViolation) {
  const auto v = LintFile("src/storage/ssd.cc",
                          "// prism-lint: allow(wall-clock):\n"
                          "std::this_thread::sleep_for(d);\n");
  // The empty-reason directive both fails and fails to suppress.
  EXPECT_TRUE(HasRule(v, "directive"));
  EXPECT_TRUE(HasRule(v, "wall-clock"));
}

TEST(LintWallClock, TokenInsideCommentOrStringDoesNotCount) {
  EXPECT_TRUE(LintFile("src/core/engine.cc", "// uses steady_clock under the hood\n").empty());
  EXPECT_TRUE(
      LintFile("src/core/engine.cc", "const char* k = \"steady_clock\";\n").empty());
}

// --- Rule 3: atomics hygiene. --------------------------------------------

TEST(LintAtomics, ImplicitSeqCstFiresInScope) {
  const auto v = LintFile("src/core/scheduler.cc", "size_t n = staged_count_.load();\n");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "atomics");
}

TEST(LintAtomics, ExplicitOrderIsClean) {
  EXPECT_TRUE(LintFile("src/core/scheduler.cc",
                       "size_t n = staged_count_.load(std::memory_order_seq_cst);\n")
                  .empty());
  EXPECT_TRUE(LintFile("src/serving/result_cache.cc",
                       "counter.fetch_add(1, std::memory_order_relaxed);\n")
                  .empty());
  // Multi-line argument lists are scanned to the balancing paren.
  EXPECT_TRUE(LintFile("src/core/scheduler.cc",
                       "staged_count_.store(\n    0,\n    std::memory_order_seq_cst);\n")
                  .empty());
}

TEST(LintAtomics, OutOfScopeLayersAreNotChecked) {
  // The rule targets the concurrency-dense layers only.
  EXPECT_TRUE(LintFile("src/storage/ssd.cc", "counter.fetch_add(1);\n").empty());
  EXPECT_TRUE(LintFile("src/common/flags.cc", "level_.load();\n").empty());
}

TEST(LintAtomics, NonMemberIdentifierDoesNotCount) {
  // `load` as a free function or part of a longer name must not fire.
  EXPECT_TRUE(LintFile("src/core/engine.cc", "LoadCheckpoint(path); reload(x);\n").empty());
  EXPECT_TRUE(LintFile("src/core/engine.cc", "size_t payload(int);\n").empty());
}

// --- Rule 4: raw mutexes. ------------------------------------------------

TEST(LintRawMutex, RawMutexAndGuardsFire) {
  EXPECT_TRUE(HasRule(LintFile("src/core/service.cc", "std::mutex mu_;\n"), "raw-mutex"));
  EXPECT_TRUE(HasRule(
      LintFile("src/model/embedding.cc", "std::lock_guard<std::mutex> lock(mu_);\n"),
      "raw-mutex"));
  EXPECT_TRUE(HasRule(
      LintFile("src/storage/ssd.cc", "std::unique_lock<std::mutex> lock(mu_);\n"), "raw-mutex"));
  EXPECT_TRUE(
      HasRule(LintFile("src/core/service.cc", "std::scoped_lock lock(a, b);\n"), "raw-mutex"));
}

TEST(LintRawMutex, WrapperHeaderIsExempt) {
  EXPECT_TRUE(LintFile("src/common/mutex.h", "using NativeMutex = std::mutex;\n").empty());
}

TEST(LintRawMutex, PrismMutexIsClean) {
  EXPECT_TRUE(LintFile("src/core/service.cc", "Mutex mu_;\nMutexLock lock(mu_);\n").empty());
}

TEST(LintRawMutex, TestsAndToolsAreOutOfScope) {
  EXPECT_TRUE(LintFile("tests/foo_test.cc", "std::mutex mu;\n").empty());
  EXPECT_TRUE(LintFile("tools/lint/lint.cc", "std::mutex mu;\n").empty());
}

// --- The real tree. -------------------------------------------------------

#ifndef PRISM_SOURCE_ROOT
#error "PRISM_SOURCE_ROOT must point at the repository root"
#endif

TEST(LintTreeTest, RealTreeIsClean) {
  const std::vector<Violation> violations = LintTree(PRISM_SOURCE_ROOT);
  for (const Violation& v : violations) {
    ADD_FAILURE() << v.ToString();
  }
  EXPECT_TRUE(violations.empty());
}

}  // namespace
}  // namespace prism::lint
