#ifndef HYBRIDGNN_SERVE_CHECKPOINT_H_
#define HYBRIDGNN_SERVE_CHECKPOINT_H_

#include <string>

#include "common/statusor.h"
#include "eval/embedding_model.h"
#include "graph/graph.h"
#include "serve/embedding_store.h"

namespace hybridgnn {

/// The `.hgc` (HybridGnn Checkpoint) binary format, versions 1 and 2.
///
/// Layout (all integers little-or-big endian as written; the endian tag
/// lets a reader on the other byte order reject the file cleanly):
///
///   [ 64-byte header ]
///     0   u8[4]  magic "HGC1"
///     4   u16    endian tag 0xFEFF (reads as 0xFFFE on a foreign-endian host)
///     6   u16    format version (1 = fp32, 2 = int8)
///     8   u64    num_relations
///     16  u64    num_nodes (size of the node-id space)
///     24  u64    dim
///     32  u64    meta_bytes (size of the metadata blob)
///     40  u64    payload_bytes (everything after the header == file size - 64)
///     48  u64    payload checksum (FNV-1a 64 over the payload bytes)
///     56  u64    header checksum  (FNV-1a 64 over header bytes [0, 56))
///   [ metadata blob, meta_bytes bytes ]
///     v2 only: u8 dtype (StoreDType; always 2 = int8 — any other code,
///     including 1, which once meant fp16, is rejected as corrupt)
///     u32 model-name length + bytes, then per relation:
///     u32 name length + bytes, u64 num_rows, num_rows * u32 row->node ids,
///     and (v2 int8 only) num_rows f32 scales + num_rows f32 zero points
///   [ zero padding to the next 64-byte file offset ]
///   [ per relation, in id order: num_rows * dim element table
///     (f32 in v1; u8 codes in v2),
///     each table start padded to a 64-byte file offset ]
///
/// A version-1 file written today is byte-identical to one written before
/// quantization existed — fp32 stores always serialize as v1, so old
/// readers keep working and the round-trip goldens stay pinned. Version 2
/// is only emitted for stores built by EmbeddingStore::Quantized.
///
/// The 64-byte table alignment is what makes zero-copy mmap loading valid:
/// every table pointer handed out by EmbeddingStore is at least 64-byte
/// aligned, so float/SIMD access is safe straight off the map.
inline constexpr char kCheckpointMagic[4] = {'H', 'G', 'C', '1'};
inline constexpr uint16_t kCheckpointEndianTag = 0xFEFF;
inline constexpr uint16_t kCheckpointVersion = 1;
inline constexpr uint16_t kCheckpointVersionQuantized = 2;
inline constexpr size_t kCheckpointHeaderBytes = 64;

/// How LoadCheckpoint materializes the tables.
enum class LoadMode : int {
  /// Read the file and copy tables into owned heap memory. The file can be
  /// deleted afterwards; costs one full copy.
  kCopy = 0,
  /// Map the file read-only and point the store's tables straight into the
  /// mapping (zero-copy). The mapping lives exactly as long as the returned
  /// EmbeddingStore; deleting the file while the store is alive is safe on
  /// POSIX (the mapping keeps the inode), truncating it is not.
  kMmap = 1,
};

/// Serializes an in-memory store to `path` in the `.hgc` format — version 1
/// for fp32 stores (bit-identical to the pre-quantization writer), version
/// 2 for int8 stores. Writes to `path` directly; on error the file may
/// be left partially written (callers that need atomicity should write to a
/// temp path and rename).
Status WriteCheckpoint(const EmbeddingStore& store, const std::string& path);

/// Parses "fp32" / "int8" (the StoreDTypeName spellings) into a
/// StoreDType — the flag-parsing helper for CLI / bench quantize options.
StatusOr<StoreDType> ParseStoreDType(const std::string& name);

/// Materializes a fitted model's per-relationship embedding tables into an
/// owning EmbeddingStore: for every relation of `graph` one
/// num_nodes x dim table (row v = model.Embedding(v, r)), built through the
/// batched EmbeddingsFor export hook, chunked across `num_threads` workers
/// (0 defers to HYBRIDGNN_THREADS). Output is independent of the thread
/// count.
StatusOr<EmbeddingStore> BuildStore(const EmbeddingModel& model,
                                    const MultiplexHeteroGraph& graph,
                                    size_t num_threads = 0);

/// BuildStore + WriteCheckpoint: the one-call "freeze this model" path.
Status SaveCheckpoint(const EmbeddingModel& model,
                      const MultiplexHeteroGraph& graph,
                      const std::string& path, size_t num_threads = 0);

/// Loads a `.hgc` file. Every integrity violation — short file, bad magic,
/// foreign endianness, version skew, size inconsistencies, checksum
/// mismatch — comes back as a non-OK Status; no partial store is ever
/// returned.
StatusOr<EmbeddingStore> LoadCheckpoint(const std::string& path,
                                        LoadMode mode = LoadMode::kCopy);

/// FNV-1a 64-bit hash, the checksum used by the `.hgc` header. Exposed for
/// tests that craft corrupted files.
uint64_t Fnv1a64(const void* data, size_t length);

}  // namespace hybridgnn

#endif  // HYBRIDGNN_SERVE_CHECKPOINT_H_
