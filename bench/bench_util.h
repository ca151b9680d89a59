// Shared helpers for the figure-reproduction benches: testbed-shaped system
// construction, synthetic data, table printing in the same units the paper
// reports (MB/s, seconds, GB), and machine-readable JSON output.
//
// Every bench accepts three scale/output flags:
//   --full         the paper's original scale (2 GB files, 147-day trace)
//   --smoke        tiny CI scale: same series shapes, seconds of wall time
//                  (what BENCH_baseline.json and the bench-smoke CI job use)
//   --json <path>  write every recorded series as JSON for
//                  tools/ci/bench_compare.py, alongside the human table
// The default scale finishes on a laptop core in minutes and preserves every
// reported *shape*.
#pragma once

#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/reed_system.h"
#include "crypto/random.h"
#include "util/stopwatch.h"

namespace reed::bench {

inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

// Value-carrying flag: returns the argument after `flag`, or nullptr.
inline const char* FlagValue(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

// Collects (series, row) data points and writes them as one JSON document on
// destruction when --json <path> was passed; a no-op otherwise. The scale
// tag ("smoke" | "default" | "full") rides along so bench_compare.py can
// refuse to diff runs taken at different scales.
//
//   {"bench": "fig5_keygen", "scale": "default",
//    "series": {"keygen_vs_chunk": [{"chunk_kb": 8, "speed_mbps": 3.1}, ...]}}
class JsonReporter {
 public:
  JsonReporter(std::string bench_name, int argc, char** argv)
      : bench_name_(std::move(bench_name)) {
    if (const char* path = FlagValue(argc, argv, "--json")) path_ = path;
    if (HasFlag(argc, argv, "--full")) {
      scale_ = "full";
    } else if (HasFlag(argc, argv, "--smoke")) {
      scale_ = "smoke";
    } else {
      scale_ = "default";
    }
  }

  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  ~JsonReporter() {
    if (!path_.empty()) Write();
  }

  void Add(const std::string& series,
           std::initializer_list<std::pair<const char*, double>> fields) {
    AddRow(series, fields);
  }
  void AddRow(const std::string& series,
              std::span<const std::pair<const char*, double>> fields) {
    if (path_.empty()) return;
    Row row;
    for (const auto& [name, value] : fields) row.emplace_back(name, value);
    SeriesFor(series).push_back(std::move(row));
  }

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

 private:
  using Row = std::vector<std::pair<std::string, double>>;

  std::vector<Row>& SeriesFor(const std::string& name) {
    for (auto& [existing, rows] : series_) {
      if (existing == name) return rows;
    }
    series_.emplace_back(name, std::vector<Row>{});
    return series_.back().second;
  }

  void Write() const {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"scale\": \"%s\",\n"
                 "  \"series\": {", bench_name_.c_str(), scale_.c_str());
    for (std::size_t s = 0; s < series_.size(); ++s) {
      std::fprintf(f, "%s\n    \"%s\": [", s == 0 ? "" : ",",
                   series_[s].first.c_str());
      const auto& rows = series_[s].second;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        std::fprintf(f, "%s\n      {", r == 0 ? "" : ",");
        for (std::size_t c = 0; c < rows[r].size(); ++c) {
          std::fprintf(f, "%s\"%s\": %.17g", c == 0 ? "" : ", ",
                       rows[r][c].first.c_str(), rows[r][c].second);
        }
        std::fprintf(f, "}");
      }
      std::fprintf(f, "\n    ]");
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    std::printf("json written: %s\n", path_.c_str());
  }

  std::string bench_name_;
  std::string path_;
  std::string scale_;
  std::vector<std::pair<std::string, std::vector<Row>>> series_;
};

// The paper's LAN testbed: 1 Gb/s switch; per-message latency folded into
// the link RTT (includes protocol/TLS overhead, which is why it is larger
// than a raw ping).
inline core::SystemOptions PaperSystem(std::uint64_t seed = 2016) {
  core::SystemOptions opts;
  opts.key_manager.rsa_bits = 1024;  // §V: 1024-bit RSA OPRF
  opts.num_data_servers = 4;         // §VI: 4 data + 1 key server
  opts.derivation_key_bits = 1024;
  opts.bandwidth_bps = 1e9;
  opts.rtt_seconds = 1e-3;
  opts.rng_seed = seed;
  return opts;
}

// Globally-unique-chunk synthetic data (paper §VI-A), deterministic.
inline Bytes UniqueData(std::size_t size, std::uint64_t seed) {
  crypto::DeterministicRng rng(seed);
  return rng.Generate(size);
}

// Table printer: fixed-width columns, matching row/series structure of the
// paper's figures so outputs diff cleanly against EXPERIMENTS.md.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    for (const auto& h : headers_) std::printf("%14s", h.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < headers_.size(); ++i) std::printf("%14s", "------------");
    std::printf("\n");
  }

  void Row(const std::vector<std::string>& cells) {
    for (const auto& c : cells) std::printf("%14s", c.c_str());
    std::printf("\n");
    std::fflush(stdout);
  }

 private:
  std::vector<std::string> headers_;
};

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace reed::bench
