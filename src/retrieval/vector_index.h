// Vector indexes for dense retrieval.
//
// FlatIndex is exact brute-force cosine search; IvfIndex is an inverted-file
// ANN index (k-means coarse quantiser + nprobe), the stand-in for the
// DiskANN-based Milvus deployment in the paper's RAG pipeline (§6.3).
#ifndef PRISM_SRC_RETRIEVAL_VECTOR_INDEX_H_
#define PRISM_SRC_RETRIEVAL_VECTOR_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/retrieval/bm25.h"  // RetrievalHit

namespace prism {

class FlatIndex {
 public:
  explicit FlatIndex(size_t dim) : dim_(dim) {}

  size_t Add(std::vector<float> embedding);
  std::vector<RetrievalHit> Search(const std::vector<float>& query, size_t n) const;
  size_t size() const { return vectors_.size(); }

 private:
  size_t dim_;
  std::vector<std::vector<float>> vectors_;
};

class IvfIndex {
 public:
  // `nlist` coarse centroids, `nprobe` lists scanned per query. Train() must
  // be called after all Adds and before Search.
  IvfIndex(size_t dim, size_t nlist, size_t nprobe, uint64_t seed = 0x1f);

  size_t Add(std::vector<float> embedding);
  void Train();
  std::vector<RetrievalHit> Search(const std::vector<float>& query, size_t n) const;
  size_t size() const { return vectors_.size(); }
  bool trained() const { return trained_; }

 private:
  size_t dim_;
  size_t nlist_;
  size_t nprobe_;
  uint64_t seed_;
  bool trained_ = false;
  std::vector<std::vector<float>> vectors_;
  std::vector<std::vector<float>> centroids_;
  std::vector<std::vector<size_t>> lists_;  // centroid → member doc ids
};

}  // namespace prism

#endif  // PRISM_SRC_RETRIEVAL_VECTOR_INDEX_H_
