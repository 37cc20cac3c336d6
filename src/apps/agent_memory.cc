#include "src/apps/agent_memory.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/timer.h"
#include "src/common/zipf.h"
#include "src/model/pair_encoder.h"
#include "src/retrieval/bm25.h"

namespace prism {

namespace {

// Memory entries retrieved per step for reranking.
constexpr size_t kCandidatesPerStep = 20;

SimLlmConfig VlmConfig() {
  // 7B VLM served on A800s: fast server-side generation, but each decision
  // still costs a network + prefill + decode round trip.
  SimLlmConfig config;
  config.prefill_tokens_per_sec = 2500.0;
  config.decode_tokens_per_sec = 60.0;
  return config;
}

}  // namespace

AgentWorkloadProfile VideoWorkload() {
  AgentWorkloadProfile p;
  p.name = "video";
  p.n_tasks = 6;
  p.steps_per_task = 4;
  p.memory_entries = 48;
  p.env_step_ms = 280.0;
  p.text = DatasetByName("lotte");
  p.text.doc_terms = 18;
  p.text.query_terms = 10;
  return p;
}

AgentWorkloadProfile CommunityWorkload() {
  AgentWorkloadProfile p;
  p.name = "community";
  p.n_tasks = 6;
  p.steps_per_task = 5;
  p.memory_entries = 64;
  p.env_step_ms = 320.0;
  p.text = DatasetByName("beir-cqadupstack");
  p.text.doc_terms = 20;
  p.text.query_terms = 10;
  // Community tasks are more ambiguous: noisier relevance, smaller gaps.
  p.text.grade_noise = 0.16;
  p.text.grade_gap = 0.34;
  return p;
}

AgentMemoryApp::AgentMemoryApp(AgentWorkloadProfile profile, const ModelConfig& model,
                               uint64_t seed, Clock* clock)
    : profile_(std::move(profile)),
      seed_(seed),
      clock_(ResolveClock(clock)),
      vlm_(VlmConfig(), &MemoryTracker::Global(), clock_) {
  const ZipfSampler zipf(model.vocab_size - kFirstWordToken, profile_.text.vocab_skew);
  Rng rng(MixSeed(seed, 0xA6));
  auto draw = [&](size_t n) {
    std::vector<uint32_t> tokens;
    tokens.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      tokens.push_back(kFirstWordToken + static_cast<uint32_t>(zipf.Sample(rng)));
    }
    return tokens;
  };

  // One canonical description per task type; memory holds paraphrases (high
  // token overlap) of each type plus unrelated distractors.
  std::vector<std::vector<uint32_t>> type_desc;
  for (size_t t = 0; t < profile_.n_tasks; ++t) {
    type_desc.push_back(draw(profile_.text.query_terms));
    Trajectory task;
    task.description = type_desc.back();
    task.task_type = t;
    tasks_.push_back(std::move(task));
  }
  const size_t per_type = std::max<size_t>(2, profile_.memory_entries / (2 * profile_.n_tasks));
  for (size_t t = 0; t < profile_.n_tasks; ++t) {
    for (size_t e = 0; e < per_type; ++e) {
      Trajectory traj;
      traj.task_type = t;
      traj.description = draw(profile_.text.doc_terms);
      // ~60% of tokens copied from the canonical description.
      const size_t overlap = traj.description.size() * 3 / 5;
      for (size_t i = 0; i < overlap; ++i) {
        traj.description[rng.NextBelow(traj.description.size())] =
            type_desc[t][rng.NextBelow(type_desc[t].size())];
      }
      memory_.push_back(std::move(traj));
    }
  }
  while (memory_.size() < profile_.memory_entries) {
    Trajectory traj;
    traj.task_type = SIZE_MAX;  // Distractor.
    traj.description = draw(profile_.text.doc_terms);
    memory_.push_back(std::move(traj));
  }
  // Retrieval index over memory descriptions. Built once: memory is
  // immutable for the app's lifetime, and a shared read-only index is what
  // lets concurrent clients replay tasks without synchronization.
  for (const Trajectory& traj : memory_) {
    index_.Add(traj.description);
  }
}

AgentTaskResult AgentMemoryApp::RunTask(size_t task_idx, Runner* runner) const {
  PRISM_CHECK_LT(task_idx, tasks_.size());
  const Trajectory& task = tasks_[task_idx];
  AgentTaskResult result;
  const WallTimer task_timer;
  for (size_t step = 0; step < profile_.steps_per_task; ++step) {
    if (runner == nullptr) {
      // Memory disabled: every step is a VLM decision.
      const WallTimer timer;
      vlm_.Generate(profile_.vlm_prompt_tokens, profile_.vlm_new_tokens);
      result.inference_ms += timer.ElapsedMillis();
      result.picks.push_back(SIZE_MAX);
    } else {
      const WallTimer timer;
      std::vector<RetrievalHit> hits = index_.Search(task.description, kCandidatesPerStep);
      RerankRequest request;
      request.query = task.description;
      request.k = 1;
      std::vector<size_t> candidate_ids;
      for (const RetrievalHit& hit : hits) {
        const Trajectory& traj = memory_[hit.doc_id];
        candidate_ids.push_back(hit.doc_id);
        request.docs.push_back(traj.description);
        const float grade = traj.task_type == task.task_type ? 0.85f : 0.15f;
        Rng noise(MixSeed(seed_, MixSeed(hit.doc_id, task.task_type + step)));
        const double r = grade + profile_.text.grade_noise * noise.NextGaussian();
        request.planted_r.push_back(static_cast<float>(std::clamp(r, 0.0, 1.0)));
      }
      const RerankResult reranked = runner->Rerank(request);
      result.rerank_ms += timer.ElapsedMillis();
      result.rerank_ok = result.rerank_ok && reranked.status.ok();
      const bool have_pick = !reranked.topk.empty();
      const Trajectory* pick =
          have_pick ? &memory_[candidate_ids[reranked.topk[0]]] : nullptr;
      result.picks.push_back(have_pick ? candidate_ids[reranked.topk[0]] : SIZE_MAX);
      if (pick != nullptr && pick->task_type == task.task_type) {
        // Cache hit: replay the cached action (env step only, below).
      } else if (pick != nullptr && pick->task_type != SIZE_MAX &&
                 pick->task_type != task.task_type) {
        result.success = false;  // Replayed a wrong trajectory.
      } else {
        // No usable trajectory (including a shed rerank): fall back to the
        // VLM.
        const WallTimer vlm_timer;
        vlm_.Generate(profile_.vlm_prompt_tokens, profile_.vlm_new_tokens);
        result.inference_ms += vlm_timer.ElapsedMillis();
      }
    }
    // Environment action (UI click etc.) — charged through the Clock seam,
    // so a SimClock run models the step without stalling the host.
    {
      const double env_start_ms = clock_->NowMs();
      MemClaim env_claim(&MemoryTracker::Global(), MemCategory::kScratch, 600 * 1024);
      clock_->SleepFor(profile_.env_step_ms);
      result.env_ms += clock_->NowMs() - env_start_ms;
    }
  }
  result.task_ms = task_timer.ElapsedMillis();
  return result;
}

AgentRunResult AgentMemoryApp::Run(Runner* runner) const {
  AgentRunResult result;
  size_t successes = 0;
  double total_ms = 0.0;
  for (size_t t = 0; t < tasks_.size(); ++t) {
    const AgentTaskResult task = RunTask(t, runner);
    successes += task.success ? 1 : 0;
    total_ms += task.task_ms;
    result.rerank_ms += task.rerank_ms;
    result.inference_ms += task.inference_ms;
    result.env_ms += task.env_ms;
  }
  const auto n = static_cast<double>(tasks_.size());
  result.avg_task_latency_ms = total_ms / n;
  result.success_rate = static_cast<double>(successes) / n;
  result.rerank_ms /= n;
  result.inference_ms /= n;
  result.env_ms /= n;
  return result;
}

}  // namespace prism
