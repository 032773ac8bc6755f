#ifndef HYBRIDGNN_GRAPH_FRONTIER_H_
#define HYBRIDGNN_GRAPH_FRONTIER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hybridgnn {

/// CSR layout over one minibatch flow's sampled neighbor lists: segment s
/// covers `indices[indptr[s] .. indptr[s+1])`, where each index is a row of
/// whatever embedding table the frontier is gathered from. One gather of
/// the flat index list plus one segment reduction replaces the per-level /
/// per-relation gather+mean walk the aggregation API used before.
///
/// `indptr` always has num_segments()+1 entries with indptr[0] == 0 and
/// indptr.back() == indices.size(). The segment ops in nn/sparse.h consult
/// only `indptr` (they reduce an already-gathered [m, dim] block);
/// `indices` is read by GatherRowsSegmented and may be left empty for
/// frontiers that only ever describe segmentation.
///
/// Producers (sampling/neighbor_sampler.h) fill a frontier once per flow
/// and reuse the buffers across minibatches; the autograd ops copy what
/// they need into their backward closures, so a thread_local scratch
/// frontier is safe to rebuild per flow.
struct MinibatchFrontier {
  std::vector<size_t> indptr{0};
  std::vector<int32_t> indices;

  size_t num_segments() const { return indptr.size() - 1; }
  size_t num_indices() const { return indices.size(); }
  size_t segment_size(size_t s) const { return indptr[s + 1] - indptr[s]; }

  /// Resets to zero segments, keeping buffer capacity.
  void Clear() {
    indptr.assign(1, 0);
    indices.clear();
  }

  /// Ends the current segment at the current index count. Build frontiers
  /// by pushing a segment's indices, then closing it.
  void CloseSegment() { indptr.push_back(indices.size()); }

  /// True when every segment holds exactly one row — reducing such a
  /// frontier is the identity, which lets consumers skip the reduce op.
  bool AllSingleton() const {
    for (size_t s = 0; s + 1 < indptr.size(); ++s) {
      if (indptr[s + 1] - indptr[s] != 1) return false;
    }
    return true;
  }

  /// Shared trivial frontier: one segment covering one row. Used where an
  /// already-reduced [1, dim] representation is fed back through the
  /// frontier-first aggregator API (the Eq. 3 fold).
  static const MinibatchFrontier& IdentityRow() {
    static const MinibatchFrontier f{{0, 1}, {0}};
    return f;
  }
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_GRAPH_FRONTIER_H_
