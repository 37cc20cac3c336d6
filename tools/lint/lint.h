// prism_lint: the project-invariant linter (see ARCHITECTURE.md, "Static
// analysis & concurrency contracts").
//
// Four invariants of this codebase are structural — they hold across files
// and cannot be expressed to the compiler — so they are enforced here, as a
// test and a CI step, instead of by convention:
//
//   1. include-layering — src/ is a DAG of layers
//      (common → tensor → storage → model → data → {retrieval, runtime} →
//      {core, apps} → serving); an include that points up the DAG, or
//      sideways between sibling layers, is a violation.
//   2. wall-clock — all scheduling time flows through the Clock seam
//      (src/common/clock.h). Raw std::chrono clock reads, sleep_for /
//      sleep_until, and raw std::condition_variable are banned outside
//      clock.{h,cc}; the audited exceptions (the measurement clock, the
//      device-domain throttles) carry an explicit
//      `// prism-lint: allow(wall-clock): <reason>` directive.
//   3. atomics — in the concurrency-dense targets (src/core, src/serving)
//      every std::atomic access spells its memory order; an implicit-seq_cst
//      `.load()` / `.store(x)` / `.fetch_add(1)` is a violation. Where
//      seq_cst is the point, it is written out, which is exactly what the
//      rule wants.
//   4. raw-mutex — src/ uses the annotated prism::Mutex / MutexLock wrapper
//      (src/common/mutex.h) so clang's thread-safety analysis sees every
//      lock; spelling std::mutex / std::lock_guard / std::unique_lock /
//      std::scoped_lock outside the wrapper itself is a violation.
//
// Allow directives: `// prism-lint: allow(<rule>): <reason>` suppresses the
// named rule on the directive's own line and on the first code line after
// the directive's contiguous comment block. The reason is mandatory — an
// empty reason is itself a violation.
#ifndef PRISM_TOOLS_LINT_LINT_H_
#define PRISM_TOOLS_LINT_LINT_H_

#include <string>
#include <vector>

namespace prism::lint {

struct Violation {
  std::string file;   // As given to LintFile (repo-relative by convention).
  size_t line = 0;    // 1-based.
  std::string rule;   // "layering" | "wall-clock" | "atomics" | "raw-mutex" | "directive".
  std::string message;

  std::string ToString() const;
};

// Lints one file's content. `path` is the repo-relative path (e.g.
// "src/core/engine.cc"); rule applicability (layer rank, exemptions, the
// atomics scope) is derived from it. Non-src/ paths get no layering,
// wall-clock, or raw-mutex checks but are accepted (the fixture tests pass
// synthetic src/ paths).
std::vector<Violation> LintFile(const std::string& path, const std::string& content);

// Walks `root`/src recursively, linting every .h/.cc/.cpp file. Paths in
// the returned violations are relative to `root`.
std::vector<Violation> LintTree(const std::string& root);

}  // namespace prism::lint

#endif  // PRISM_TOOLS_LINT_LINT_H_
