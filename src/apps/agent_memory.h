// Agent-memory application (paper §6.3, Figs 12–13; MobiAgent-style).
//
// A GUI agent caches past successful action trajectories keyed by task
// description. For each step of a task, the agent either (a) asks the VLM to
// decide the next action — expensive — or (b) retrieves candidate
// trajectories from memory and lets the reranker pick the most semantically
// relevant one to replay — cheap when the pick is right. Task success fails
// only when a wrong trajectory is replayed (the VLM path is assumed correct).
#ifndef PRISM_SRC_APPS_AGENT_MEMORY_H_
#define PRISM_SRC_APPS_AGENT_MEMORY_H_

#include <string>
#include <vector>

#include "src/apps/sim_llm.h"
#include "src/common/clock.h"
#include "src/data/dataset.h"
#include "src/retrieval/bm25.h"
#include "src/runtime/runner.h"

namespace prism {

struct AgentWorkloadProfile {
  std::string name;          // "video" | "community"
  size_t n_tasks = 6;
  size_t steps_per_task = 4;
  size_t memory_entries = 48;   // Cached trajectories.
  double env_step_ms = 280.0;   // UI action execution time.
  // A VLM decision ingests a screenshot + instruction (~3.5k tokens here) and
  // decodes an action plan — substantially costlier than one rerank, which is
  // the premise of caching trajectories at all.
  size_t vlm_prompt_tokens = 3500;
  size_t vlm_new_tokens = 30;
  DatasetProfile text;          // Token statistics of task descriptions.
};

AgentWorkloadProfile VideoWorkload();
AgentWorkloadProfile CommunityWorkload();

struct AgentRunResult {
  double avg_task_latency_ms = 0.0;
  double success_rate = 0.0;
  double rerank_ms = 0.0;     // Mean per task.
  double inference_ms = 0.0;  // Mean per task (VLM).
  double env_ms = 0.0;        // Mean per task.
};

// One task driven end to end (the serving-layer request unit: a workload
// client replays whole tasks, not isolated reranks).
struct AgentTaskResult {
  bool success = true;     // False only when a wrong trajectory was replayed.
  bool rerank_ok = true;   // Every rerank this task issued was served.
  double task_ms = 0.0;
  double rerank_ms = 0.0;
  double inference_ms = 0.0;  // VLM decisions (fallback or memory-disabled).
  double env_ms = 0.0;
  // Per-step decision signature: the picked memory entry, or SIZE_MAX when
  // the step fell back to the VLM. Deterministic in (seed, task) for served
  // reranks, which is what the scenario mismatch checks compare.
  std::vector<size_t> picks;
};

class AgentMemoryApp {
 public:
  // `clock` is the time source for the modelled VLM and environment-step
  // latencies. nullptr (default) = the shared wall clock — identical to the
  // old sleep_for behaviour; a SimClock charges those stages on virtual
  // time. The pointee must outlive the app.
  AgentMemoryApp(AgentWorkloadProfile profile, const ModelConfig& model, uint64_t seed,
                 Clock* clock = nullptr);

  size_t n_tasks() const { return tasks_.size(); }

  // Replays one task. Thread-safe: memory, index, and ground truth are
  // immutable after construction and the per-step relevance noise is seeded
  // by (seed, doc, task, step), so concurrent clients can replay tasks
  // against one shared (thread-safe) runner. `runner` == nullptr sends
  // every step to the VLM.
  AgentTaskResult RunTask(size_t task_idx, Runner* runner) const;

  // `runner` == nullptr disables agent memory (every step goes to the VLM).
  AgentRunResult Run(Runner* runner) const;

 private:
  struct Trajectory {
    std::vector<uint32_t> description;
    size_t task_type = 0;
  };

  AgentWorkloadProfile profile_;
  uint64_t seed_;
  std::vector<Trajectory> memory_;
  std::vector<Trajectory> tasks_;  // task_type is the ground truth.
  Bm25Index index_;                // Over memory descriptions; built once.
  Clock* clock_;
  SimulatedLlm vlm_;
};

}  // namespace prism

#endif  // PRISM_SRC_APPS_AGENT_MEMORY_H_
