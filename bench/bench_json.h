// Machine-readable baselines for the hand-rolled micro benches: collects
// per-stage timings/throughput and writes bench-out/BENCH_<name>.json
// under the binary's working directory, so successive runs can be diffed
// by tooling (see README "Bench baselines") without the files littering
// the repo root. The google-benchmark micro benches emit the same path
// through benchmark's own JSONReporter instead (gbench_json_main.h).
#ifndef HYBRIDGNN_BENCH_BENCH_JSON_H_
#define HYBRIDGNN_BENCH_BENCH_JSON_H_

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

namespace hybridgnn::bench {

class BenchReport {
 public:
  explicit BenchReport(std::string bench_name)
      : name_(std::move(bench_name)) {}

  /// One timed stage at a given worker-thread count. `throughput` is
  /// items/s in whatever unit the stage reports (walks, pairs, queries);
  /// pass 0 when a rate is not meaningful.
  void AddStage(const std::string& stage, size_t threads, double ms,
                double throughput) {
    stages_.push_back(StageRow{stage, threads, ms, throughput});
  }

  /// FNV-style content hash of the bench's result. Stored as hex so a
  /// baseline diff shows thread-count invariance at a glance.
  void set_result_hash(uint64_t h) { AddHash("result_hash", h); }

  /// A further named content hash, written as a hex field beside
  /// result_hash (e.g. the bits of a table the bench produced).
  void AddHash(const std::string& key, uint64_t h) {
    hashes_.emplace_back(key, h);
  }

  /// Writes bench-out/BENCH_<name>.json (creating the directory).
  /// Best-effort: bench binaries must not fail their run over an
  /// unwritable baseline file.
  void Write() const {
    std::error_code ec;
    std::filesystem::create_directories("bench-out", ec);
    const std::string path = "bench-out/BENCH_" + name_ + ".json";
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    out << "{\n";
    out << "  \"bench\": \"" << name_ << "\",\n";
    out << "  \"hardware_threads\": "
        << std::thread::hardware_concurrency() << ",\n";
    for (const auto& [key, h] : hashes_) {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "%016" PRIx64, h);
      out << "  \"" << key << "\": \"" << hex << "\",\n";
    }
    out << "  \"stages\": [\n";
    for (size_t i = 0; i < stages_.size(); ++i) {
      const StageRow& s = stages_[i];
      char row[256];
      std::snprintf(row, sizeof(row),
                    "    {\"stage\": \"%s\", \"threads\": %zu, "
                    "\"ms\": %.6g, \"throughput\": %.6g}",
                    s.stage.c_str(), s.threads, s.ms, s.throughput);
      out << row << (i + 1 < stages_.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    std::printf("wrote %s (%zu stage rows)\n", path.c_str(), stages_.size());
  }

 private:
  struct StageRow {
    std::string stage;
    size_t threads;
    double ms;
    double throughput;
  };

  std::string name_;
  std::vector<StageRow> stages_;
  std::vector<std::pair<std::string, uint64_t>> hashes_;
};

}  // namespace hybridgnn::bench

#endif  // HYBRIDGNN_BENCH_BENCH_JSON_H_
