// reed_bench: one workload of the REED benchmark (README.md).
//
//   reed_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--work-dir <dir>] [--trace-dir <dir>]
//   reed_bench --workload <name> --seed <n> --inputs-digest
//
// Prints each metric by name with its unit, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1 when
// an operation failed or an oracle was violated, 2 on bad arguments.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "cluster.h"
#include "layers.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace reed;
using Clock = std::chrono::steady_clock;

// setup_s is the median of at least kMinSetups set-ups; short set-ups are
// repeated, up to kMaxSetups, until they add up to kSetupSeconds.
constexpr std::size_t kMinSetups = 7;
constexpr std::size_t kMaxSetups = 9;
constexpr double kSetupSeconds = 2.0;
// Before the measured phase the workload runs untimed for kWarmupSeconds
// (at most a quarter of --seconds), so that the measured phase starts with
// warm key caches, connections and stores.
constexpr double kWarmupSeconds = 5.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool inputs_digest = false;
  std::string work_dir = ".bench_build/runs";
  std::string trace_dir = ".bench_build/traces";
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--inputs-digest") {
      a.inputs_digest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v) != 0;
      else if (flag == "--work-dir") a.work_dir = v;
      else if (flag == "--trace-dir") a.trace_dir = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

// Nearest-rank percentile: an exact order statistic of the samples.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample count or basis, printed beside the value
};

// One measured phase of a workload.
struct Phase {
  OpLog log;
  double wall_s = 0;
  double cpu_s = 0;
  obs::Snapshot before, after;
  StoredBytes stored_before, stored_after;
  std::vector<Span> spans;

  double Counter(const std::string& name) const {
    auto v = [&](const obs::Snapshot& s) {
      const obs::Snapshot::CounterValue* c = s.FindCounter(name);
      return c == nullptr ? 0.0 : static_cast<double>(c->value);
    };
    return v(after) - v(before);
  }
  double HistogramMs(const std::string& name) const {
    auto v = [&](const obs::Snapshot& s) {
      const obs::Snapshot::HistogramValue* h = s.FindHistogram(name);
      return h == nullptr ? 0.0 : static_cast<double>(h->sum);
    };
    return (v(after) - v(before)) / 1e3;
  }
};

Phase RunPhase(Workload& w, Cluster& cluster, Tracer& tracer, double seconds,
               bool traced) {
  Phase p;
  p.stored_before = cluster.Stored();
  p.before = obs::Registry::Global().TakeSnapshot();
  const double cpu0 = CpuSeconds();
  const auto start = Clock::now();
  tracer.Enable(traced);
  w.Run(seconds, p.log);
  tracer.Enable(false);
  p.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  p.cpu_s = CpuSeconds() - cpu0;
  p.after = obs::Registry::Global().TakeSnapshot();
  p.stored_after = cluster.Stored();
  p.spans = tracer.Take();
  return p;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The workload's input properties: how much of its work repeats.
struct InputShares {
  double key_cache_hit_ratio = 0;
  double cache_lookups = 0;
  double dedup_ratio = 0;
  double chunks_uploaded = 0;
  double new_bytes_share = 0;
};

InputShares Shares(const Phase& p) {
  InputShares s;
  double hits = p.Counter("oprf.client.cache_hits");
  s.cache_lookups = hits + p.Counter("oprf.client.cache_misses");
  s.key_cache_hit_ratio = Ratio(hits, s.cache_lookups);
  s.chunks_uploaded = p.Counter("server.dedup.logical_chunks");
  s.dedup_ratio =
      Ratio(p.Counter("server.dedup.duplicate_chunks"), s.chunks_uploaded);
  s.new_bytes_share = Ratio(static_cast<double>(p.log.new_package_bytes),
                            static_cast<double>(p.log.upload_bytes));
  return s;
}

// End-to-end metrics of one phase.
std::vector<Metric> EndToEnd(const Phase& p) {
  const OpLog& log = p.log;
  const auto n = [](std::size_t k, const char* what) {
    return "n=" + std::to_string(k) + " " + what;
  };
  std::vector<double> rekeys = log.rekey_lazy_ms;
  rekeys.insert(rekeys.end(), log.rekey_active_ms.begin(),
                log.rekey_active_ms.end());
  const double stored = static_cast<double>(p.stored_after.total()) -
                        static_cast<double>(p.stored_before.total());
  return {
      {"upload_mbps",
       Ratio(static_cast<double>(log.upload_bytes) / 1e6, log.upload_s),
       "MB/s", "logical MB per upload second"},
      {"download_mbps",
       Ratio(static_cast<double>(log.download_bytes) / 1e6, log.download_s),
       "MB/s", "logical MB per download second"},
      {"rekey_lazy_p50_ms", Percentile(log.rekey_lazy_ms, 50), "ms",
       n(log.rekey_lazy_ms.size(), "lazy rekeys")},
      {"rekey_active_p50_ms", Percentile(log.rekey_active_ms, 50), "ms",
       n(log.rekey_active_ms.size(), "active rekeys")},
      {"rekey_p90_ms", Percentile(rekeys, 90), "ms",
       n(rekeys.size(), "rekeys")},
      {"ops_per_s", Ratio(static_cast<double>(log.op_ms.size()), p.wall_s),
       "1/s", n(log.op_ms.size(), "ops")},
      {"op_p50_ms", Percentile(log.op_ms, 50), "ms",
       n(log.op_ms.size(), "ops")},
      {"op_p99_ms", Percentile(log.op_ms, 99), "ms",
       n(log.op_ms.size(), "ops")},
      {"bytes_stored_per_byte",
       Ratio(stored, static_cast<double>(log.upload_bytes)), "ratio",
       "bytes added per byte uploaded"},
  };
}

// Per-layer numbers from the traced phase's spans.
struct SpanTotals {
  std::map<std::string, double> rpc_ms;     // by "keymanager"/"server.<op>"
  std::map<std::string, double> handle_ms;  // same labels
  double self_ms = 0;     // op spans minus the union of their rpc children
  double outside_ms = 0;  // rpc time not inside its op's span
};

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

SpanTotals AnalyzeSpans(const std::vector<Span>& spans) {
  SpanTotals t;
  std::map<std::uint64_t, const Span*> ops;
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    if (EndsWith(s.name, ".rpc")) {
      t.rpc_ms[s.name.substr(0, s.name.size() - 4)] += ms;
      children[s.parent].push_back(&s);
    } else if (EndsWith(s.name, ".handle")) {
      t.handle_ms[s.name.substr(0, s.name.size() - 7)] += ms;
    } else {
      ops[s.id] = &s;
    }
  }
  for (const auto& [parent, kids] : children) {
    auto op = ops.find(parent);
    if (op == ops.end()) {
      for (const Span* k : kids) {
        t.outside_ms += static_cast<double>(k->end_ns - k->start_ns) / 1e6;
      }
      continue;
    }
    const Span& o = *op->second;
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const Span* k : kids) {
      std::int64_t a = std::max(k->start_ns, o.start_ns);
      std::int64_t b = std::min(k->end_ns, o.end_ns);
      t.outside_ms += static_cast<double>((k->end_ns - k->start_ns) -
                                          std::max<std::int64_t>(0, b - a)) /
                      1e6;
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, end = o.start_ns;
    for (auto [a, b] : iv) {
      if (b <= end) continue;
      covered += b - std::max(a, end);
      end = b;
    }
    t.self_ms -= static_cast<double>(covered) / 1e6;
  }
  for (const auto& [id, o] : ops) {
    t.self_ms += static_cast<double>(o->end_ns - o->start_ns) / 1e6;
  }
  return t;
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  std::int64_t t0 = 0;
  for (const Span& s : spans) {
    if (t0 == 0 || s.start_ns < t0) t0 = s.start_ns;
  }
  for (const Span& s : spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_us\":" << (s.start_ns - t0) / 1000
        << ",\"dur_us\":" << (s.end_ns - s.start_ns) / 1000 << "}\n";
  }
}

const char* const kServerOps[] = {"put_chunks", "get_chunks", "put_object",
                                  "get_object"};

std::vector<Metric> PerLayer(const Phase& p, const SpanTotals& spans,
                             const Cluster& cluster, const InputShares& shares,
                             const std::vector<LayerMetric>& replays) {
  std::vector<Metric> m;
  auto add = [&](std::string name, double v, std::string unit) {
    m.push_back({std::move(name), v, std::move(unit), ""});
  };
  auto lookup = [](const std::map<std::string, double>& map,
                   const std::string& k) {
    auto it = map.find(k);
    return it == map.end() ? 0.0 : it->second;
  };

  add("keymanager.rpc_ms", lookup(spans.rpc_ms, "keymanager"), "ms");
  add("keymanager.handle_ms", lookup(spans.handle_ms, "keymanager"), "ms");
  add("keymanager.keys_signed", p.Counter("oprf.server.signatures"), "count");
  add("keymanager.cache_hit_ratio", shares.key_cache_hit_ratio, "ratio");
  for (const LayerMetric& r : replays) add(r.name, r.value, r.unit);

  for (const char* stage : {"chunking", "fingerprint", "keygen", "encode",
                            "store", "wrap", "metadata"}) {
    add(std::string("client.") + stage + "_ms",
        p.HistogramMs(std::string("client.upload.") + stage + "_us"), "ms");
  }
  for (const char* stage : {"unwrap", "recipe", "fetch", "decode"}) {
    add(std::string("client.") + stage + "_ms",
        p.HistogramMs(std::string("client.download.") + stage + "_us"), "ms");
  }
  add("client.self_ms", spans.self_ms, "ms");

  double rpc_total = 0, handle_total = 0;
  for (const auto& [k, v] : spans.rpc_ms) rpc_total += v;
  for (const auto& [k, v] : spans.handle_ms) handle_total += v;
  for (const char* op : kServerOps) {
    add(std::string("server.rpc_ms.") + op,
        lookup(spans.rpc_ms, std::string("server.") + op), "ms");
  }
  for (const char* op : kServerOps) {
    add(std::string("server.handle_ms.") + op,
        lookup(spans.handle_ms, std::string("server.") + op), "ms");
  }
  for (const char* op : kServerOps) {
    add(std::string("server.calls.") + op,
        p.Counter(std::string("server.rpc.") + op + ".calls"), "count");
  }
  add("server.dedup_ratio", shares.dedup_ratio, "ratio");

  add("net.overhead_ms", rpc_total - handle_total, "ms");
  add("net.bytes_out", static_cast<double>(cluster.bytes_out.load()), "bytes");
  add("net.bytes_in", static_cast<double>(cluster.bytes_in.load()), "bytes");

  for (const char* c : {"store.wal.syncs", "store.wal.group_rides",
                        "store.wal.append_bytes", "store.container.bytes",
                        "store.index.lookups", "store.index.hits"}) {
    add(c, p.Counter(c), EndsWith(c, "bytes") ? "bytes" : "count");
  }
  // Bytes the store wrote (WAL plus containers) per byte the servers were
  // asked to store.
  add("store.write_amp",
      Ratio(p.Counter("store.wal.append_bytes") +
                p.Counter("store.container.bytes"),
            p.Counter("server.rpc.put_chunks.bytes_in") +
                p.Counter("server.rpc.put_object.bytes_in")),
      "ratio");

  add("process.cpu_s", p.cpu_s, "s");
  add("process.cpu_util", Ratio(p.cpu_s, p.wall_s), "cores");
  add("input.new_bytes_share", shares.new_bytes_share, "ratio");
  return m;
}

void PrintMetric(const Metric& m) {
  std::printf("  %-36s %14.4f %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.c_str());
}

std::string Json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args) || !MakeWorkload(args.workload, 1)) {
    std::fprintf(stderr,
                 "usage: reed_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir d] [--trace-dir d]\n"
                 "       reed_bench --workload <name> --seed <n> "
                 "--inputs-digest\nworkloads:");
    for (const std::string& w : WorkloadNames()) {
      std::fprintf(stderr, " %s", w.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (args.inputs_digest) {
    std::printf("%s\n",
                MakeWorkload(args.workload, args.seed)->InputDigest(8).c_str());
    return 0;
  }

  Tracer tracer;
  OpLog setups;
  std::vector<double> setup_s;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Workload> workload;
  const std::string run_dir =
      args.work_dir + "/" + args.workload + "-" + std::to_string(getpid());
  double setup_total = 0;
  for (std::size_t k = 0; k < kMaxSetups; ++k) {
    if (k >= kMinSetups && setup_total >= kSetupSeconds) break;
    workload.reset();  // clients go before the cluster they connect to
    cluster.reset();
    const auto start = Clock::now();
    cluster = std::make_unique<Cluster>(run_dir + "/setup-" + std::to_string(k),
                                        tracer);
    workload = MakeWorkload(args.workload, args.seed);
    workload->Setup(*cluster, tracer, setups);
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    setup_total += setup_s.back();
  }

  std::vector<Metric> e2e;
  std::vector<Metric> report;
  OpLog total = setups;
  // The probe counts the warm-up's operations, so peak_rss_mb stays set-up
  // plus kRssOps operations whatever the warm-up's length.
  ArmRssProbe();
  OpLog warmup;
  workload->Run(std::min(kWarmupSeconds, args.seconds / 4), warmup);
  total.Merge(warmup);
  Phase untraced = RunPhase(*workload, *cluster, tracer, args.seconds, false);
  bool rss_reached = false;
  const double peak_rss_mb = ProbedPeakRssMb(rss_reached);
  total.Merge(untraced.log);
  const InputShares shares = Shares(untraced);
  e2e = EndToEnd(untraced);

  if (args.trace) {
    cluster->bytes_out = 0;
    cluster->bytes_in = 0;
    Phase traced = RunPhase(*workload, *cluster, tracer, args.seconds, true);
    total.Merge(traced.log);
    const SpanTotals spans = AnalyzeSpans(traced.spans);
    ++total.attempted;
    if (spans.outside_ms > 0) {
      total.Fail("trace: " + std::to_string(spans.outside_ms) +
                 " ms of rpc time lies outside its client op");
    }
    WriteSpans(traced.spans, args.trace_dir + "/" + args.workload + "-seed" +
                                 std::to_string(args.seed) + ".jsonl");
    report = PerLayer(traced, spans, *cluster, Shares(traced),
                      ReplayLayers(workload->Inputs()));
    std::vector<Metric> traced_e2e = EndToEnd(traced);
    for (std::size_t i = 0; i < e2e.size(); ++i) {
      report.push_back({"trace.overhead." + e2e[i].name,
                        Ratio(traced_e2e[i].value, e2e[i].value), "x",
                        "traced / untraced"});
    }
    report.push_back({"trace.rpc_outside_op_ms", spans.outside_ms, "ms", ""});
  }

  workload->Finish(*cluster, total);
  ++total.attempted;
  std::string problem = cluster->ConsistencyProblem();
  if (!problem.empty()) total.Fail("CheckConsistency: " + problem);
  for (const Metric& m : e2e) {
    if (m.value <= 0) total.Fail("no samples for " + m.name);
  }
  workload.reset();
  cluster.reset();
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);

  e2e.insert(e2e.begin(),
             {"setup_s", Percentile(setup_s, 50), "s",
              "median of " + std::to_string(setup_s.size()) + " set-ups"});
  e2e.push_back({"peak_rss_mb", peak_rss_mb, "MB",
                 rss_reached ? "VmHWM after set-up + " +
                                   std::to_string(kRssOps) + " ops"
                             : "VmHWM at the end: fewer than " +
                                   std::to_string(kRssOps) + " ops ran"});

  std::printf("workload %s seed %llu: %.1f s measured\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), untraced.wall_s);
  std::printf("end-to-end metrics:\n");
  for (const Metric& m : e2e) PrintMetric(m);
  std::printf("  %-36s %14.4f %-6s n=%llu attempted\n", "failed_frac",
              Ratio(static_cast<double>(total.failed),
                    static_cast<double>(total.attempted)),
              "ratio", static_cast<unsigned long long>(total.attempted));
  std::printf(
      "inputs: key_cache_hit_ratio %.4f (%.0f lookups), dedup_ratio %.4f "
      "(%.0f chunks), new_bytes_share %.4f\n",
      shares.key_cache_hit_ratio, shares.cache_lookups, shares.dedup_ratio,
      shares.chunks_uploaded, shares.new_bytes_share);
  if (args.trace) {
    std::printf("per-layer metrics (traced phase):\n");
    for (const Metric& m : report) PrintMetric(m);
  }
  for (const std::string& p : total.problems) {
    std::printf("FAILED: %s\n", p.c_str());
  }
  const bool correct = total.failed == 0;
  std::printf("%s\n", Json(correct, total.attempted, total.failed,
                           args.trace ? report : e2e)
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reed_bench: %s\n", e.what());
    return 3;
  }
}
