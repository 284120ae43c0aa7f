// Global-context embeddings of input sets (Section 4): input set q is
// embedded as the vector of its similarities to every input set,
// E(q)_i = S(q, q_i); the Perfect-Recall variant uses the mean of precision
// and recall. Rows are stored sparsely — disjoint sets contribute zeros —
// and pairwise Euclidean distances are evaluated through dot products.

#ifndef OCT_CCT_EMBEDDING_H_
#define OCT_CCT_EMBEDDING_H_

#include <cstdint>
#include <vector>

#include "core/input.h"
#include "core/similarity.h"
#include "kernel/pairwise.h"

namespace oct {
namespace cct {

/// Sparse row-major matrix of the set embeddings.
class Embeddings {
 public:
  /// Shared with the kernel distance-matrix driver so rows hand over
  /// without conversion.
  using Entry = kernel::SparseVecEntry;

  size_t num_rows() const { return rows_.size(); }
  const std::vector<Entry>& row(size_t r) const { return rows_[r]; }

  /// All rows (the layout CondensedEuclideanDistances consumes).
  const std::vector<std::vector<Entry>>& rows() const { return rows_; }

  /// Squared Euclidean norm of a row.
  double SquaredNorm(size_t r) const { return norms_[r]; }
  const std::vector<double>& squared_norms() const { return norms_; }

  /// Euclidean distance between two rows.
  double Distance(size_t a, size_t b) const;

  /// Dense copy of a row (for tests).
  std::vector<float> Dense(size_t r, size_t dims) const;

  friend Embeddings EmbedInputSets(const kernel::ItemSetIndex& index,
                                   const Similarity& sim);

 private:
  std::vector<std::vector<Entry>> rows_;
  std::vector<double> norms_;
};

/// Builds the embedding matrix of the input `index` was built over, for
/// the given variant. For Jaccard and F1 variants entry i is the raw
/// (un-thresholded) similarity; for Perfect-Recall it is (recall +
/// precision) / 2; for Exact it is the Jaccard similarity (the natural
/// graded proxy, since the 0/1 Exact function embeds every distinct set at
/// distance sqrt(2) from every other).
Embeddings EmbedInputSets(const kernel::ItemSetIndex& index,
                          const Similarity& sim);

}  // namespace cct
}  // namespace oct

#endif  // OCT_CCT_EMBEDDING_H_
