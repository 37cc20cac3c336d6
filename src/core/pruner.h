// Progressive cluster pruning (paper §4.1).
//
// Between layers, candidates' provisional scores are checked for dispersion
// (coefficient of variation). Once the CV exceeds the dispersion threshold, a
// 1-D k-means partitions the scores; the boundary cluster — the one holding
// the K-th ranked candidate — splits the pool three ways:
//   selected  clusters above the boundary → finalised into the top-K,
//   dropped   clusters below the boundary → pruned,
//   deferred  the boundary cluster itself → keeps computing.
// Inference terminates when the deferred set exactly fills (or no slots
// remain for) the remaining top-K positions.
#ifndef PRISM_SRC_CORE_PRUNER_H_
#define PRISM_SRC_CORE_PRUNER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/cluster.h"

namespace prism {

// The range the threshold calibrators search and nudge within: from the
// aggressive end (prunes at the first sign of dispersion) to the
// conservative end (close to full inference).
inline constexpr float kMinDispersionThreshold = 0.02f;
inline constexpr float kMaxDispersionThreshold = 1.5f;

struct PrunerOptions {
  float dispersion_threshold = 0.35f;
  // When false, only hopeless candidates are dropped; winners keep computing
  // to the final layer (exact-rank mode, Discussion §7).
  bool prune_winners = true;
  int kmeans_max_k = 4;
  uint64_t seed = 0x5eed;
};

struct PruneDecision {
  bool triggered = false;   // CV crossed the threshold → clustering ran.
  bool terminate = false;   // Forward pass can stop entirely.
  double cv = 0.0;
  Clustering clustering;    // Valid iff triggered.
  // Index lists refer to positions within the *active* score vector passed in.
  std::vector<size_t> selected;
  std::vector<size_t> dropped;
  std::vector<size_t> deferred;
};

// Decides the fate of the active candidates given their provisional scores
// and the number of top-K slots still unfilled. Postconditions (checked):
// selected/dropped/deferred partition [0, scores.size()); |selected| ≤
// remaining_k; the candidate ranked `remaining_k`-th is never in `dropped`.
PruneDecision DecidePrune(const std::vector<float>& scores, size_t remaining_k,
                          const PrunerOptions& options);

}  // namespace prism

#endif  // PRISM_SRC_CORE_PRUNER_H_
