#include "serve/ann/ann_index.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/parallel.h"
#include "common/rng.h"
#include "kernels/kernels.h"

namespace hybridgnn {

namespace {

/// Search-frontier entry: a scored row. "Better" means higher similarity,
/// ties resolved toward the smaller row id — the same rule the exact
/// scanner's heap uses, so ANN ordering is deterministic for equal scores.
struct Scored {
  double sim;
  uint32_t row;
};

bool Better(const Scored& a, const Scored& b) {
  if (a.sim != b.sim) return a.sim > b.sim;
  return a.row < b.row;
}

/// priority_queue comparator whose top() is the *best* entry (expansion
/// beam).
struct BestOnTop {
  bool operator()(const Scored& a, const Scored& b) const {
    return Better(b, a);
  }
};

/// priority_queue comparator whose top() is the *worst* entry (bounded
/// result set).
struct WorstOnTop {
  bool operator()(const Scored& a, const Scored& b) const {
    return Better(a, b);
  }
};

/// Per-search visited bitmap (query path: one allocation per search keeps
/// const Search safe from any number of threads).
class BitmapVisited {
 public:
  explicit BitmapVisited(size_t n) : bits_((n + 63) / 64, 0) {}
  bool TestAndSet(uint32_t i) {
    uint64_t& word = bits_[i >> 6];
    const uint64_t mask = 1ull << (i & 63);
    if (word & mask) return true;
    word |= mask;
    return false;
  }

 private:
  std::vector<uint64_t> bits_;
};

/// Epoch-stamped visited set (build path: reused across the O(rows)
/// insertions without per-insert clearing).
class StampVisited {
 public:
  explicit StampVisited(size_t n) : stamp_(n, 0) {}
  void NextEpoch() {
    if (++epoch_ == 0) {  // wrapped: reset lazily
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }
  bool TestAndSet(uint32_t i) {
    if (stamp_[i] == epoch_) return true;
    stamp_[i] = epoch_;
    return false;
  }
  void Grow(size_t n) { stamp_.resize(n, 0); }

 private:
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
};

/// Deterministic per-row level draw: a pure function of (seed, row), so a
/// row keeps its level whether it arrives during Build or a later Patched
/// append. Geometric with ratio 1/M (the HNSW paper's mL = 1/ln(M)).
int LevelFor(uint64_t seed, uint32_t row, size_t M) {
  double u = Rng(seed).Fork(row).UniformDouble();
  if (u < 1e-300) u = 1e-300;
  const double ml = 1.0 / std::log(static_cast<double>(std::max<size_t>(2, M)));
  const int level = static_cast<int>(-std::log(u) * ml);
  return std::min(level, 32);
}

void HashBytes(uint64_t& h, const void* data, size_t bytes) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
}

}  // namespace

/// Mutable view of an index under construction plus the scoring state the
/// insertion algorithm needs: an fp32 copy of the table (borrowed straight
/// from a non-cosine kF32 store, materialized otherwise) and per-worker
/// search scratch. The batch-parallel build runs PlanInsert (read-only
/// searches) concurrently, one Scratch per worker, then ApplyInsert
/// serially in ascending row order — so the produced bytes never depend on
/// the thread count.
struct AnnIndex::Builder {
  /// Per-worker search state: visited stamps plus reusable buffers.
  struct Scratch {
    StampVisited visited;
    std::vector<Scored> pool;
    std::vector<uint32_t> batch;
    std::vector<double> scores;

    explicit Scratch(size_t rows) : visited(rows) {}
  };

  /// The candidate pools one row's insertion needs, computed against the
  /// graph as frozen at its batch boundary: cand[l] is the best-first,
  /// self-excluded pool for level l (empty above the row's insertion
  /// levels).
  struct InsertPlan {
    std::vector<std::vector<Scored>> cand;
  };

  AnnIndex* idx;
  const float* vecs = nullptr;       // num_rows x dim
  std::vector<float> owned_vecs;     // backing unless borrowed
  Scratch serial;                    // scratch of the serial (apply) phase
  std::vector<uint32_t> selected;
  std::vector<uint32_t> frontier;

  explicit Builder(AnnIndex* idx) : idx(idx), serial(idx->num_rows_) {}

  const float* Vec(uint32_t row) const {
    return vecs + static_cast<size_t>(row) * idx->dim_;
  }

  /// out[i] = dot(q, vec(rows[i])) in one indexed kernel call — the build
  /// hot path expands whole adjacency lists at a time, and one ScoreBlock
  /// over them beats a kernel dispatch per neighbor.
  void SimMany(const float* q, const uint32_t* rows, size_t n,
               double* out) const {
    kernels::ScoreBlock(q, vecs, rows, n, idx->dim_, out);
  }

  /// Materializes (or borrows) the fp32 vector matrix from `store`.
  void LoadVectors(const EmbeddingStore& store, RelationId rel) {
    const size_t dim = idx->dim_;
    const size_t rows = store.NumRows(rel);
    if (store.dtype() == StoreDType::kF32 && !idx->options_.cosine) {
      vecs = store.Table(rel).data();
      return;
    }
    owned_vecs.resize(rows * dim);
    for (size_t i = 0; i < rows; ++i) {
      store.DequantizeRow(rel, static_cast<uint32_t>(i),
                          owned_vecs.data() + i * dim);
    }
    if (idx->options_.cosine) {
      // Build in the space the recommender ranks in: traversal compares
      // normalized dots, so normalize the construction copies once.
      for (size_t i = 0; i < rows; ++i) {
        float* v = owned_vecs.data() + i * dim;
        double n2 = 0.0;
        for (size_t j = 0; j < dim; ++j) n2 += static_cast<double>(v[j]) * v[j];
        const float inv =
            n2 == 0.0 ? 1.0f : static_cast<float>(1.0 / std::sqrt(n2));
        for (size_t j = 0; j < dim; ++j) v[j] *= inv;
      }
    }
    vecs = owned_vecs.data();
  }

  std::span<const uint32_t> Links(uint32_t row, int level) const {
    if (level == 0) {
      return {idx->links0_.data() + static_cast<size_t>(row) * idx->M0_,
              idx->counts0_[row]};
    }
    const uint32_t* slab = idx->UpperSlab(row, level);
    return {slab + 1, slab[0]};
  }

  void SetLinks(uint32_t row, int level, std::span<const uint32_t> nbrs) {
    if (level == 0) {
      std::copy(nbrs.begin(), nbrs.end(),
                idx->links0_.begin() + static_cast<size_t>(row) * idx->M0_);
      idx->counts0_[row] = static_cast<uint32_t>(nbrs.size());
      return;
    }
    uint32_t* slab = idx->UpperSlab(row, level);
    slab[0] = static_cast<uint32_t>(nbrs.size());
    std::copy(nbrs.begin(), nbrs.end(), slab + 1);
  }

  /// Best-first beam search on one level over the construction vectors;
  /// leaves `s.pool` sorted best-first. Read-only on the index — safe to
  /// run concurrently from many workers with distinct scratch.
  void SearchLayer(const float* q, uint32_t ep, size_t ef, int level,
                   Scratch& s) const {
    s.visited.NextEpoch();
    std::priority_queue<Scored, std::vector<Scored>, BestOnTop> beam;
    std::priority_queue<Scored, std::vector<Scored>, WorstOnTop> results;
    const Scored first{kernels::DotDouble(q, Vec(ep), idx->dim_), ep};
    s.visited.TestAndSet(ep);
    beam.push(first);
    results.push(first);
    while (!beam.empty()) {
      const Scored c = beam.top();
      beam.pop();
      if (results.size() >= ef && !Better(c, results.top())) break;
      s.batch.clear();
      for (uint32_t n : Links(c.row, level)) {
        if (!s.visited.TestAndSet(n)) s.batch.push_back(n);
      }
      if (s.batch.empty()) continue;
      s.scores.resize(s.batch.size());
      SimMany(q, s.batch.data(), s.batch.size(), s.scores.data());
      for (size_t i = 0; i < s.batch.size(); ++i) {
        const Scored cand{s.scores[i], s.batch[i]};
        if (results.size() < ef || Better(cand, results.top())) {
          beam.push(cand);
          results.push(cand);
          if (results.size() > ef) results.pop();
        }
      }
    }
    s.pool.resize(results.size());
    for (size_t i = results.size(); i-- > 0;) {
      s.pool[i] = results.top();
      results.pop();
    }
  }

  /// Greedy descent on one upper level: walk to the strictly best neighbor
  /// until no neighbor improves. Returns the local optimum. Read-only.
  Scored GreedyStep(const float* q, Scored ep, int level, Scratch& s) const {
    for (;;) {
      auto links = Links(ep.row, level);
      if (links.empty()) return ep;
      s.scores.resize(links.size());
      SimMany(q, links.data(), links.size(), s.scores.data());
      Scored best = ep;
      for (size_t i = 0; i < links.size(); ++i) {
        const Scored cand{s.scores[i], links[i]};
        if (Better(cand, best)) best = cand;
      }
      if (best.row == ep.row) return ep;
      ep = best;
    }
  }

  /// HNSW neighbor-selection heuristic (paper Algorithm 4) over the
  /// best-first `cand` list: keep c only when it is closer to q than to any
  /// already-kept neighbor (diversifies the graph around clusters), then
  /// backfill with pruned candidates so every node keeps up to `m` links.
  void SelectNeighbors(const float* q, const std::vector<Scored>& cand,
                       size_t m) {
    (void)q;
    selected.clear();
    std::vector<uint32_t> pruned;
    for (const Scored& c : cand) {
      if (selected.size() >= m) break;
      bool keep = true;
      if (!selected.empty()) {
        // One indexed kernel call for c-vs-every-kept, instead of a
        // dispatch per kept neighbor (the early-exit saved less than the
        // per-call overhead cost).
        serial.scores.resize(selected.size());
        SimMany(Vec(c.row), selected.data(), selected.size(),
                serial.scores.data());
        for (double between : serial.scores) {
          if (between > c.sim) {
            keep = false;
            break;
          }
        }
      }
      if (keep) {
        selected.push_back(c.row);
      } else {
        pruned.push_back(c.row);
      }
    }
    for (uint32_t p : pruned) {
      if (selected.size() >= m) break;
      selected.push_back(p);
    }
  }

  /// Adds `to` to `from`'s list at `level`, shrinking by the selection
  /// heuristic when the list overflows its cap. No-op when the link already
  /// exists (a re-linked row can still be pointed at by stale reverse
  /// links).
  void Link(uint32_t from, uint32_t to, int level) {
    const size_t cap = level == 0 ? idx->M0_ : idx->M_;
    auto links = Links(from, level);
    if (std::find(links.begin(), links.end(), to) != links.end()) return;
    if (links.size() < cap) {
      if (level == 0) {
        idx->links0_[static_cast<size_t>(from) * idx->M0_ + links.size()] = to;
        ++idx->counts0_[from];
      } else {
        uint32_t* slab = idx->UpperSlab(from, level);
        slab[1 + slab[0]] = to;
        ++slab[0];
      }
      return;
    }
    // Overflow: rescore existing + new against `from`, reselect.
    const float* fv = Vec(from);
    serial.batch.assign(links.begin(), links.end());
    serial.batch.push_back(to);
    serial.scores.resize(serial.batch.size());
    SimMany(fv, serial.batch.data(), serial.batch.size(),
            serial.scores.data());
    std::vector<Scored> cand;
    cand.reserve(serial.batch.size());
    for (size_t i = 0; i < serial.batch.size(); ++i) {
      cand.push_back({serial.scores[i], serial.batch[i]});
    }
    std::sort(cand.begin(), cand.end(), Better);
    SelectNeighbors(fv, cand, cap);
    SetLinks(from, level, selected);
  }

  /// Phase A — read-only: computes the per-level candidate pools for
  /// inserting `row`, descending from `start` (the entry point — except
  /// when re-linking the entry row itself, whose cleared links would strand
  /// a self-start; the caller then substitutes any other row and the
  /// descent begins at that row's top level). Safe to run concurrently for
  /// distinct rows with distinct scratch: it never touches the adjacency.
  InsertPlan PlanInsert(uint32_t row, uint32_t start, Scratch& s) const {
    InsertPlan plan;
    const int level = idx->levels_[row];
    const int start_level =
        start == idx->entry_ ? idx->max_level_ : idx->levels_[start];
    const float* q = Vec(row);
    Scored ep{kernels::DotDouble(q, Vec(start), idx->dim_), start};
    for (int l = start_level; l > level; --l) {
      ep = GreedyStep(q, ep, l, s);
    }
    const int top = std::min(level, start_level);
    plan.cand.resize(static_cast<size_t>(top) + 1);
    for (int l = top; l >= 0; --l) {
      SearchLayer(q, ep.row, idx->options_.ef_construction, l, s);
      // The query row itself can be in the pool on a re-link: never link a
      // node to itself.
      auto& cand = plan.cand[l];
      cand.reserve(s.pool.size());
      for (const Scored& c : s.pool) {
        if (c.row != row) cand.push_back(c);
      }
      if (!cand.empty()) ep = cand.front();
    }
    return plan;
  }

  /// Phase B — serial: wires `row` into the graph from its plan's pools
  /// (forward links via the selection heuristic, then reverse links), and
  /// promotes it to entry point when its level tops the index.
  void ApplyInsert(uint32_t row, const InsertPlan& plan) {
    const float* q = Vec(row);
    for (int l = static_cast<int>(plan.cand.size()) - 1; l >= 0; --l) {
      const size_t cap = l == 0 ? idx->M0_ : idx->M_;
      SelectNeighbors(q, plan.cand[l], std::min(cap, idx->M_));
      SetLinks(row, l, selected);
      // Reverse links (selection may mutate `selected` via Link's reuse of
      // the scratch, so iterate over a copy).
      frontier.assign(selected.begin(), selected.end());
      for (uint32_t n : frontier) Link(n, row, l);
    }
    const int level = idx->levels_[row];
    if (level > idx->max_level_) {
      idx->max_level_ = level;
      idx->entry_ = row;
    }
  }

  /// Serial insert (warmup prefix, Patched re-links/appends).
  void Insert(uint32_t row, uint32_t start) {
    ApplyInsert(row, PlanInsert(row, start, serial));
  }
};

uint32_t* AnnIndex::UpperSlab(uint32_t row, int level) {
  return upper_.data() +
         (static_cast<size_t>(upper_offset_[row]) + (level - 1)) * (1 + M_);
}

const uint32_t* AnnIndex::UpperSlab(uint32_t row, int level) const {
  return upper_.data() +
         (static_cast<size_t>(upper_offset_[row]) + (level - 1)) * (1 + M_);
}

StatusOr<std::shared_ptr<const AnnIndex>> AnnIndex::Build(
    const EmbeddingStore& store, RelationId rel,
    const AnnBuildOptions& options) {
  if (rel >= store.num_relations()) {
    return Status::InvalidArgument("unknown relation id " +
                                   std::to_string(rel));
  }
  const size_t rows = store.NumRows(rel);
  if (rows == 0) {
    return Status::InvalidArgument("cannot build an ANN index over relation '" +
                                   store.relation_name(rel) +
                                   "': empty table");
  }
  if (options.M < 2 || options.ef_construction < options.M) {
    return Status::InvalidArgument(
        "AnnBuildOptions: need M >= 2 and ef_construction >= M");
  }
  std::shared_ptr<AnnIndex> idx(new AnnIndex());
  idx->options_ = options;
  idx->dim_ = store.dim();
  idx->num_rows_ = rows;
  idx->M_ = options.M;
  idx->M0_ = 2 * options.M;
  idx->levels_.resize(rows);
  idx->counts0_.assign(rows, 0);
  idx->links0_.assign(rows * idx->M0_, 0);
  idx->upper_offset_.assign(rows, kNoSlab);
  size_t slabs = 0;
  for (size_t i = 0; i < rows; ++i) {
    const int level = LevelFor(options.seed, static_cast<uint32_t>(i),
                               options.M);
    idx->levels_[i] = static_cast<uint8_t>(level);
    if (level > 0) {
      idx->upper_offset_[i] = static_cast<uint32_t>(slabs);
      slabs += static_cast<size_t>(level);
    }
  }
  idx->upper_.assign(slabs * (1 + idx->M_), 0);
  idx->entry_ = 0;
  idx->max_level_ = idx->levels_[0];

  Builder builder(idx.get());
  builder.LoadVectors(store, rel);
  // Serial warmup: the first few hundred rows form the graph's skeleton, and
  // batching them would blind too large a fraction of each batch to its
  // contemporaries.
  const size_t batch = std::max<size_t>(1, options.insert_batch);
  const size_t warmup = std::min(rows, std::max<size_t>(2 * batch, 256));
  for (size_t i = 1; i < warmup; ++i) {
    builder.Insert(static_cast<uint32_t>(i), idx->entry_);
  }
  // Batch-parallel phase. Per batch: Phase A plans every insert concurrently
  // against the adjacency as frozen at the batch boundary (read-only), then
  // Phase B applies links serially in ascending row order. The produced
  // bytes depend on `insert_batch` (rows inside one batch cannot see each
  // other) but never on the thread count — chunk c always plans rows
  // c, c+chunks, c+2*chunks, ... regardless of which worker runs it.
  const size_t threads = ResolveNumThreads(options.build_threads);
  std::vector<Builder::Scratch> scratch;
  std::vector<Builder::InsertPlan> plans(batch);
  for (size_t base = warmup; base < rows; base += batch) {
    const size_t count = std::min(batch, rows - base);
    const size_t chunks = std::min(threads, count);
    while (scratch.size() < chunks) scratch.emplace_back(rows);
    RunParallel(threads, chunks, [&](size_t c) {
      for (size_t j = c; j < count; j += chunks) {
        plans[j] = builder.PlanInsert(static_cast<uint32_t>(base + j),
                                      idx->entry_, scratch[c]);
      }
    });
    for (size_t j = 0; j < count; ++j) {
      builder.ApplyInsert(static_cast<uint32_t>(base + j), plans[j]);
    }
  }
  return std::shared_ptr<const AnnIndex>(std::move(idx));
}

StatusOr<std::shared_ptr<const AnnIndex>> AnnIndex::Patched(
    const AnnIndex& prev, const EmbeddingStore& store, RelationId rel,
    std::span<const uint32_t> dirty_rows) {
  if (rel >= store.num_relations()) {
    return Status::InvalidArgument("unknown relation id " +
                                   std::to_string(rel));
  }
  const size_t rows = store.NumRows(rel);
  if (rows < prev.num_rows_ || store.dim() != prev.dim_) {
    return Status::InvalidArgument(
        "AnnIndex::Patched: store shape regressed vs the previous index "
        "(rows " +
        std::to_string(rows) + " < " + std::to_string(prev.num_rows_) +
        " or dim mismatch); rebuild instead");
  }
  std::shared_ptr<AnnIndex> idx(new AnnIndex(prev));  // copy-on-write
  idx->num_rows_ = rows;
  idx->levels_.resize(rows);
  idx->counts0_.resize(rows, 0);
  idx->links0_.resize(rows * idx->M0_, 0);
  idx->upper_offset_.resize(rows, kNoSlab);
  size_t slabs = idx->upper_.size() / (1 + idx->M_);
  for (size_t i = prev.num_rows_; i < rows; ++i) {
    const int level = LevelFor(idx->options_.seed, static_cast<uint32_t>(i),
                               idx->M_);
    idx->levels_[i] = static_cast<uint8_t>(level);
    if (level > 0) {
      idx->upper_offset_[i] = static_cast<uint32_t>(slabs);
      slabs += static_cast<size_t>(level);
    }
  }
  idx->upper_.resize(slabs * (1 + idx->M_), 0);

  Builder builder(idx.get());
  builder.serial.visited.Grow(rows);
  builder.LoadVectors(store, rel);
  // Re-link changed rows (out-links rebuilt; stale incoming links keep
  // pointing at the moved vector, costing recall, not correctness), then
  // insert the appended rows. Both passes run in ascending row order so a
  // patch is as deterministic as a build.
  for (uint32_t r : dirty_rows) {
    if (r >= prev.num_rows_) continue;   // appended rows insert below
    if (idx->num_rows_ < 2) continue;    // single row: nothing to link to
    idx->counts0_[r] = 0;
    for (int l = 1; l <= idx->levels_[r]; ++l) idx->UpperSlab(r, l)[0] = 0;
    uint32_t start = idx->entry_;
    if (start == r) start = r == 0 ? 1 : 0;  // num_rows_ >= 2 here
    builder.Insert(r, start);
  }
  for (size_t i = prev.num_rows_; i < rows; ++i) {
    builder.Insert(static_cast<uint32_t>(i), idx->entry_);
  }
  return std::shared_ptr<const AnnIndex>(std::move(idx));
}

void AnnIndex::Search(const BlockScorer& scorer, size_t ef,
                      std::span<const float> row_norms,
                      std::vector<uint32_t>* out, SearchStats* stats) const {
  out->clear();
  if (ef == 0 || num_rows_ == 0) return;
  // Batched, dtype-dispatched scoring of scattered rows; cosine mode
  // divides by the precomputed row norms so traversal ranks in the space
  // the index was built in.
  std::vector<uint32_t> batch_rows;
  std::vector<double> batch_scores;
  auto score_many = [&](const uint32_t* rows, size_t n, double* sims) {
    scorer.ScoreRows(rows, n, sims);
    if (!row_norms.empty()) {
      for (size_t i = 0; i < n; ++i) {
        const float norm = row_norms[rows[i]];
        sims[i] /= norm == 0.0f ? 1.0f : norm;
      }
    }
  };
  auto score_one = [&](uint32_t row) {
    double s = 0.0;
    score_many(&row, 1, &s);
    return s;
  };

  Scored ep{score_one(entry_), entry_};
  // Greedy descent through the upper levels.
  for (int l = max_level_; l >= 1; --l) {
    for (;;) {
      const uint32_t* slab = UpperSlab(ep.row, l);
      const size_t n = slab[0];
      if (n == 0) break;
      batch_rows.assign(slab + 1, slab + 1 + n);
      batch_scores.resize(n);
      score_many(batch_rows.data(), n, batch_scores.data());
      if (stats != nullptr) ++stats->hops;
      Scored best = ep;
      for (size_t i = 0; i < n; ++i) {
        const Scored s{batch_scores[i], batch_rows[i]};
        if (Better(s, best)) best = s;
      }
      if (best.row == ep.row) break;
      ep = best;
    }
  }

  // ef-wide best-first search on the base layer.
  BitmapVisited visited(num_rows_);
  std::priority_queue<Scored, std::vector<Scored>, BestOnTop> beam;
  std::priority_queue<Scored, std::vector<Scored>, WorstOnTop> results;
  visited.TestAndSet(ep.row);
  beam.push(ep);
  results.push(ep);
  while (!beam.empty()) {
    const Scored c = beam.top();
    beam.pop();
    if (results.size() >= ef && !Better(c, results.top())) break;
    if (stats != nullptr) ++stats->hops;
    const uint32_t* links = links0_.data() + static_cast<size_t>(c.row) * M0_;
    batch_rows.clear();
    for (uint32_t i = 0; i < counts0_[c.row]; ++i) {
      if (!visited.TestAndSet(links[i])) batch_rows.push_back(links[i]);
    }
    if (batch_rows.empty()) continue;
    batch_scores.resize(batch_rows.size());
    score_many(batch_rows.data(), batch_rows.size(), batch_scores.data());
    for (size_t i = 0; i < batch_rows.size(); ++i) {
      const Scored s{batch_scores[i], batch_rows[i]};
      if (results.size() < ef || Better(s, results.top())) {
        beam.push(s);
        results.push(s);
        if (results.size() > ef) results.pop();
      }
    }
  }
  out->resize(results.size());
  for (size_t i = results.size(); i-- > 0;) {
    (*out)[i] = results.top().row;
    results.pop();
  }
}

uint64_t AnnIndex::ContentHash() const {
  uint64_t h = 1469598103934665603ull;
  const uint64_t header[] = {num_rows_,
                             dim_,
                             M_,
                             static_cast<uint64_t>(max_level_),
                             entry_,
                             options_.seed};
  HashBytes(h, header, sizeof(header));
  HashBytes(h, levels_.data(), levels_.size() * sizeof(levels_[0]));
  HashBytes(h, counts0_.data(), counts0_.size() * sizeof(counts0_[0]));
  // Hash only the valid prefix of each adjacency list: slack slots are
  // zero-initialized but may hold stale ids after an overflow reselect.
  for (size_t i = 0; i < num_rows_; ++i) {
    HashBytes(h, links0_.data() + i * M0_, counts0_[i] * sizeof(uint32_t));
  }
  for (size_t i = 0; i < num_rows_; ++i) {
    for (int l = 1; l <= levels_[i]; ++l) {
      const uint32_t* slab = UpperSlab(static_cast<uint32_t>(i), l);
      HashBytes(h, slab, (1 + slab[0]) * sizeof(uint32_t));
    }
  }
  return h;
}

size_t AnnIndex::MemoryBytes() const {
  return levels_.size() * sizeof(levels_[0]) +
         counts0_.size() * sizeof(counts0_[0]) +
         links0_.size() * sizeof(links0_[0]) +
         upper_offset_.size() * sizeof(upper_offset_[0]) +
         upper_.size() * sizeof(upper_[0]);
}

}  // namespace hybridgnn
