// Tests for the quantized serving tier: EmbeddingStore::Quantized (int8),
// the `.hgc` v2 checkpoint round trip in both load modes, v2 corruption
// rejection (including every dtype code other than int8), the
// fp32-stays-v1 compatibility guard, and the recall@K differential between
// int8 and exact fp32 retrieval that scripts/ci_check.sh gates on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/rng.h"
#include "serve/checkpoint.h"
#include "serve/topk.h"

namespace hybridgnn {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

/// Random two-relation fp32 store; relation 1 covers only even node ids.
EmbeddingStore MakeRandomStore(size_t num_nodes, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<EmbeddingStore::TableInit> tables;
  for (int which : {0, 1}) {
    EmbeddingStore::TableInit t;
    t.name = which == 0 ? "view" : "buy";
    for (NodeId v = 0; v < num_nodes; ++v) {
      if (which == 1 && v % 2 != 0) continue;
      t.row_to_node.push_back(v);
    }
    t.data = Tensor(t.row_to_node.size(), dim);
    for (size_t i = 0; i < t.data.size(); ++i) {
      t.data.data()[i] = rng.UniformFloat(-1.0f, 1.0f);
    }
    tables.push_back(std::move(t));
  }
  auto store =
      EmbeddingStore::FromTables("random", num_nodes, std::move(tables));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

std::vector<char> ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f.is_open()) << path;
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Flips one byte of a file in place.
void CorruptByte(const std::string& path, size_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c ^= 0x5A;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

/// Structural + bitwise equality of two quantized stores (payload bytes,
/// affine rows, mappings).
void ExpectQuantizedStoresEqual(const EmbeddingStore& a,
                                const EmbeddingStore& b) {
  ASSERT_EQ(a.dtype(), b.dtype());
  ASSERT_EQ(a.model_name(), b.model_name());
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.dim(), b.dim());
  ASSERT_EQ(a.num_relations(), b.num_relations());
  for (RelationId r = 0; r < a.num_relations(); ++r) {
    ASSERT_EQ(a.relation_name(r), b.relation_name(r));
    ASSERT_EQ(a.NumRows(r), b.NumRows(r));
    for (size_t row = 0; row < a.NumRows(r); ++row) {
      ASSERT_EQ(a.RowNode(r, row), b.RowNode(r, row));
    }
    const auto qa = a.RawTable(r);
    const auto qb = b.RawTable(r);
    ASSERT_EQ(qa.size(), qb.size());
    ASSERT_EQ(std::memcmp(qa.data(), qb.data(), qa.size()), 0)
        << "payload mismatch, relation " << r;
    const auto sa = a.RowScales(r);
    const auto sb = b.RowScales(r);
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i) ASSERT_EQ(sa[i], sb[i]);
    const auto za = a.RowZeros(r);
    const auto zb = b.RowZeros(r);
    ASSERT_EQ(za.size(), zb.size());
    for (size_t i = 0; i < za.size(); ++i) ASSERT_EQ(za[i], zb[i]);
  }
}

TEST(QuantizedStoreTest, RejectsBadArguments) {
  EmbeddingStore src = MakeRandomStore(10, 8, 1);
  auto i8 = EmbeddingStore::Quantized(src);
  ASSERT_TRUE(i8.ok());
  // Re-quantizing an already-quantized store is refused.
  EXPECT_FALSE(EmbeddingStore::Quantized(*i8).ok());
}

TEST(QuantizedStoreTest, I8DequantErrorIsBoundedByHalfStep) {
  EmbeddingStore src = MakeRandomStore(30, 16, 9);
  auto q = EmbeddingStore::Quantized(src);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->dtype(), StoreDType::kI8);
  EXPECT_TRUE(q->Table(0).empty());       // fp32 view gone
  EXPECT_EQ(q->Lookup(0, 0), nullptr);    // quantized stores have no rows
  std::vector<float> dequant(src.dim());
  for (RelationId r = 0; r < src.num_relations(); ++r) {
    ASSERT_EQ(q->RowScales(r).size(), src.NumRows(r));
    for (size_t row = 0; row < src.NumRows(r); ++row) {
      q->DequantizeRow(r, static_cast<uint32_t>(row), dequant.data());
      const float* orig = src.Table(r).data() + row * src.dim();
      const float scale = q->RowScales(r)[row];
      for (size_t j = 0; j < src.dim(); ++j) {
        // Affine rounding puts every element within half a quantization
        // step (plus float rounding slack).
        EXPECT_NEAR(dequant[j], orig[j], 0.5f * scale + 1e-6f)
            << "relation " << r << " row " << row << " col " << j;
      }
    }
  }
}

TEST(QuantizedStoreTest, I8ConstantRowUsesZeroScale) {
  std::vector<EmbeddingStore::TableInit> tables(1);
  tables[0].name = "r";
  tables[0].row_to_node = {0, 1};
  tables[0].data = Tensor(2, 4);
  for (size_t j = 0; j < 4; ++j) {
    tables[0].data.data()[j] = 0.75f;       // constant row
    tables[0].data.data()[4 + j] = static_cast<float>(j);
  }
  auto src = EmbeddingStore::FromTables("m", 2, std::move(tables));
  ASSERT_TRUE(src.ok());
  auto q = EmbeddingStore::Quantized(*src);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->RowScales(0)[0], 0.0f);
  EXPECT_EQ(q->RowZeros(0)[0], 0.75f);
  std::vector<float> dequant(4);
  q->DequantizeRow(0, 0, dequant.data());
  for (float v : dequant) EXPECT_EQ(v, 0.75f);
}

TEST(CheckpointV2Test, RoundTripBothModes) {
  EmbeddingStore src = MakeRandomStore(40, 24, 11);
  auto q = EmbeddingStore::Quantized(src);
  ASSERT_TRUE(q.ok());
  const std::string path = TempPath("v2_roundtrip_int8.hgc");
  ASSERT_TRUE(WriteCheckpoint(*q, path).ok());
  // Version byte in the header says v2.
  std::ifstream in(path, std::ios::binary);
  char header[8] = {};
  in.read(header, 8);
  uint16_t version = 0;
  std::memcpy(&version, header + 6, 2);
  EXPECT_EQ(version, kCheckpointVersionQuantized);
  for (LoadMode mode : {LoadMode::kCopy, LoadMode::kMmap}) {
    auto loaded = LoadCheckpoint(path, mode);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->mmapped(), mode == LoadMode::kMmap);
    ExpectQuantizedStoresEqual(*q, *loaded);
    // Dequantization (the scoring view) survives the round trip exactly.
    std::vector<float> a(src.dim()), b(src.dim());
    for (RelationId r = 0; r < q->num_relations(); ++r) {
      for (size_t row = 0; row < q->NumRows(r); ++row) {
        q->DequantizeRow(r, static_cast<uint32_t>(row), a.data());
        loaded->DequantizeRow(r, static_cast<uint32_t>(row), b.data());
        for (size_t j = 0; j < src.dim(); ++j) {
          ASSERT_EQ(a[j], b[j]) << "relation " << r << " row " << row;
        }
      }
    }
  }
  fs::remove(path);
}

TEST(CheckpointV2Test, Fp32StoresStillWriteV1) {
  // The compatibility contract: quantization support must not change a
  // single byte of fp32 checkpoints. Two writes of the same store are
  // byte-identical and carry version 1.
  EmbeddingStore src = MakeRandomStore(15, 8, 3);
  const std::string p1 = TempPath("v1_guard_a.hgc");
  const std::string p2 = TempPath("v1_guard_b.hgc");
  ASSERT_TRUE(WriteCheckpoint(src, p1).ok());
  ASSERT_TRUE(WriteCheckpoint(src, p2).ok());
  std::ifstream f1(p1, std::ios::binary), f2(p2, std::ios::binary);
  std::vector<char> b1((std::istreambuf_iterator<char>(f1)),
                       std::istreambuf_iterator<char>());
  std::vector<char> b2((std::istreambuf_iterator<char>(f2)),
                       std::istreambuf_iterator<char>());
  ASSERT_EQ(b1.size(), b2.size());
  EXPECT_EQ(b1, b2);
  uint16_t version = 0;
  std::memcpy(&version, b1.data() + 6, 2);
  EXPECT_EQ(version, kCheckpointVersion);
  auto loaded = LoadCheckpoint(p1, LoadMode::kCopy);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dtype(), StoreDType::kF32);
  fs::remove(p1);
  fs::remove(p2);
}

TEST(CheckpointV2Test, CorruptionIsRejected) {
  EmbeddingStore src = MakeRandomStore(25, 16, 5);
  auto q = EmbeddingStore::Quantized(src);
  ASSERT_TRUE(q.ok());
  const std::string path = TempPath("v2_corrupt.hgc");
  ASSERT_TRUE(WriteCheckpoint(*q, path).ok());
  const size_t file_size = fs::file_size(path);
  // The dtype byte (first metadata byte), an affine float somewhere in the
  // metadata, and a payload byte near the end: every one must trip the
  // checksum (or a structural check) and refuse the load.
  for (size_t offset :
       {size_t{64}, size_t{200}, file_size - 3}) {
    const std::string copy = TempPath("v2_corrupt_case.hgc");
    fs::copy_file(path, copy, fs::copy_options::overwrite_existing);
    CorruptByte(copy, offset);
    for (LoadMode mode : {LoadMode::kCopy, LoadMode::kMmap}) {
      auto loaded = LoadCheckpoint(copy, mode);
      EXPECT_FALSE(loaded.ok()) << "offset " << offset << " survived";
    }
    fs::remove(copy);
  }
  // Truncation below the declared size.
  const std::string trunc = TempPath("v2_trunc.hgc");
  fs::copy_file(path, trunc, fs::copy_options::overwrite_existing);
  fs::resize_file(trunc, file_size - 8);
  EXPECT_FALSE(LoadCheckpoint(trunc, LoadMode::kCopy).ok());
  fs::remove(trunc);
  fs::remove(path);
}

TEST(CheckpointV2Test, ParseStoreDTypeSpellings) {
  auto fp32 = ParseStoreDType("fp32");
  ASSERT_TRUE(fp32.ok());
  EXPECT_EQ(*fp32, StoreDType::kF32);
  auto i8 = ParseStoreDType("int8");
  ASSERT_TRUE(i8.ok());
  EXPECT_EQ(*i8, StoreDType::kI8);
  EXPECT_FALSE(ParseStoreDType("int4").ok());
  EXPECT_FALSE(ParseStoreDType("").ok());
}

TEST(CheckpointV2Test, ParseStoreDTypeRejectsFp16) {
  // fp16 is not a store dtype; the error names the ones that are.
  auto fp16 = ParseStoreDType("fp16");
  ASSERT_FALSE(fp16.ok());
  EXPECT_EQ(fp16.status().code(), StatusCode::kInvalidArgument);
  const std::string& msg = fp16.status().message();
  EXPECT_NE(msg.find("fp32"), std::string::npos) << msg;
  EXPECT_NE(msg.find("int8"), std::string::npos) << msg;
}

TEST(CheckpointV2Test, DtypeCodesOtherThanInt8AreRejected) {
  // int8 (code 2) is the only v2 dtype. Rewrite the dtype byte (the first
  // metadata byte) and reseal both checksums, so the dtype check itself —
  // not a checksum — must refuse the file. Code 1 once meant fp16.
  EmbeddingStore src = MakeRandomStore(25, 16, 5);
  auto q = EmbeddingStore::Quantized(src);
  ASSERT_TRUE(q.ok());
  const std::string path = TempPath("v2_dtype.hgc");
  ASSERT_TRUE(WriteCheckpoint(*q, path).ok());
  const std::vector<char> pristine = ReadFile(path);
  ASSERT_EQ(pristine[kCheckpointHeaderBytes],
            static_cast<char>(StoreDType::kI8));
  for (uint8_t code : {uint8_t{1}, uint8_t{0}, uint8_t{3}}) {
    std::vector<char> bytes = pristine;
    bytes[kCheckpointHeaderBytes] = static_cast<char>(code);
    const uint64_t payload =
        Fnv1a64(bytes.data() + kCheckpointHeaderBytes,
                bytes.size() - kCheckpointHeaderBytes);
    std::memcpy(bytes.data() + 48, &payload, 8);
    const uint64_t header = Fnv1a64(bytes.data(), 56);
    std::memcpy(bytes.data() + 56, &header, 8);
    const std::string copy = TempPath("v2_dtype_case.hgc");
    WriteFile(copy, bytes);
    for (LoadMode mode : {LoadMode::kCopy, LoadMode::kMmap}) {
      auto loaded = LoadCheckpoint(copy, mode);
      ASSERT_FALSE(loaded.ok()) << "dtype code " << int{code} << " accepted";
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
          << "dtype code " << int{code} << ": "
          << loaded.status().ToString();
      EXPECT_NE(loaded.status().message().find("dtype"), std::string::npos)
          << loaded.status().ToString();
    }
    fs::remove(copy);
  }
  fs::remove(path);
}

/// recall@k of `got` against the exact top-k `want` (fraction of the exact
/// set the quantized scan recovered).
double RecallAtK(const std::vector<Recommendation>& want,
                 const std::vector<Recommendation>& got) {
  if (want.empty()) return 1.0;
  size_t hit = 0;
  for (const auto& w : want) {
    for (const auto& g : got) {
      if (g.node == w.node) {
        ++hit;
        break;
      }
    }
  }
  return static_cast<double>(hit) / want.size();
}

TEST(QuantizedRecallTest, RecallAtTenBeatsTheGate) {
  // The CI gate's contract in unit-test form: int8 retrieval recovers >=
  // 0.95 of the exact fp32 top-10 on a realistic random store.
  const size_t num_nodes = 600, dim = 48, k = 10, num_queries = 64;
  EmbeddingStore exact = MakeRandomStore(num_nodes, dim, 13);
  auto i8 = EmbeddingStore::Quantized(exact);
  ASSERT_TRUE(i8.ok());
  TopKOptions options;
  options.num_threads = 1;
  TopKRecommender ref(&exact, nullptr, options);
  TopKRecommender rec_i8(&*i8, nullptr, options);
  double recall_i8 = 0.0;
  for (size_t qi = 0; qi < num_queries; ++qi) {
    TopKQuery q;
    q.node = static_cast<NodeId>((qi * 37) % num_nodes);
    q.rel = 0;
    q.k = k;
    auto want = ref.Recommend(q);
    auto got8 = rec_i8.Recommend(q);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got8.ok());
    recall_i8 += RecallAtK(*want, *got8);
  }
  recall_i8 /= num_queries;
  EXPECT_GE(recall_i8, 0.95) << "int8 recall@10 below the serving gate";
}

TEST(QuantizedRecallTest, CosineModeWorksOnQuantizedStores) {
  // Norms are computed through DequantizeRow; the cosine ranking must stay
  // close to the fp32 one (and must not crash on the null Table view).
  const size_t num_nodes = 200, dim = 32, k = 10;
  EmbeddingStore exact = MakeRandomStore(num_nodes, dim, 21);
  auto i8 = EmbeddingStore::Quantized(exact);
  ASSERT_TRUE(i8.ok());
  TopKOptions options;
  options.num_threads = 1;
  options.cosine = true;
  TopKRecommender ref(&exact, nullptr, options);
  TopKRecommender rec(&*i8, nullptr, options);
  double recall = 0.0;
  const size_t num_queries = 32;
  for (size_t qi = 0; qi < num_queries; ++qi) {
    TopKQuery q;
    q.node = static_cast<NodeId>(qi * 5 % num_nodes);
    q.rel = 0;
    q.k = k;
    auto want = ref.Recommend(q);
    auto got = rec.Recommend(q);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    recall += RecallAtK(*want, *got);
  }
  EXPECT_GE(recall / num_queries, 0.9);
}

}  // namespace
}  // namespace hybridgnn
