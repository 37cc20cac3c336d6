#include "src/runtime/runner.h"

#include <bit>
#include <string>

#include "src/common/rng.h"

namespace prism {

namespace {

// kInvalidArgument for the first token id outside the vocabulary, if any.
Status CheckVocab(const std::vector<uint32_t>& tokens, size_t vocab_size, const char* what) {
  for (const uint32_t token : tokens) {
    if (token >= vocab_size) {
      return Status::InvalidArgument(std::string(what) + " token id " + std::to_string(token) +
                                     " is not below the vocab size " +
                                     std::to_string(vocab_size));
    }
  }
  return Status::Ok();
}

}  // namespace

RerankRequest RerankRequest::FromQuery(const RerankQuery& q, size_t k) {
  RerankRequest request;
  request.query = q.tokens;
  for (const CandidateDoc& c : q.candidates) {
    request.docs.push_back(c.tokens);
    request.planted_r.push_back(c.planted_r);
  }
  request.k = k;
  return request;
}

RequestKey::RequestKey(const RerankRequest& request)
    : query(request.query), docs(request.docs), k(request.k) {
  planted_r_bits.reserve(request.planted_r.size());
  for (const float r : request.planted_r) {
    planted_r_bits.push_back(std::bit_cast<uint32_t>(r));
  }
}

uint64_t RequestKey::Hash() const {
  uint64_t hash = 0x9E3779B97F4A7C15ULL;
  for (const uint32_t token : query) {
    hash = MixSeed(hash, token);
  }
  return hash;
}

Status ValidateRequest(const ModelConfig& config, const RerankRequest& request) {
  if (request.k == 0) {
    return Status::InvalidArgument("k must be at least 1");
  }
  if (request.planted_r.size() != request.docs.size()) {
    return Status::InvalidArgument(std::to_string(request.planted_r.size()) +
                                   " planted_r values for " +
                                   std::to_string(request.docs.size()) + " docs");
  }
  PRISM_RETURN_IF_ERROR(CheckVocab(request.query, config.vocab_size, "query"));
  for (size_t i = 0; i < request.docs.size(); ++i) {
    if (request.docs[i].empty()) {
      return Status::InvalidArgument("doc " + std::to_string(i) + " is empty");
    }
    PRISM_RETURN_IF_ERROR(CheckVocab(request.docs[i], config.vocab_size, "doc"));
  }
  return Status::Ok();
}

}  // namespace prism
