// Ablation microbenchmarks (google-benchmark) for the design choices
// DESIGN.md §6 calls out:
//   * crypto substrate throughput (SHA-256, AES-256-CTR, Rabin window)
//   * OPRF cost split (client blind/unblind vs manager sign)
//   * pairing / CP-ABE primitive costs (what Fig 8 is made of)
//   * REED scheme costs: basic vs enhanced, encrypt vs decrypt
//   * self-XOR tail vs hash tail (the enhanced scheme's §IV-B trick)
//   * stub-size sweep: rekey payload vs storage overhead trade-off
//
//   ./bench_ablation_primitives [--benchmark_filter=...] [--smoke]
//                               [--json out.json]
//   --smoke caps iteration time. --json writes the layer rows below in the
//   bench_fig* JSON shape (bench_util.h JsonReporter), for
//   tools/ci/bench_smoke.sh and BENCH_baseline.json:
//     ablation_primitives/layers_pairing: tate_pairing_us, g1_scalar_mul_us,
//                                         abe_encrypt_1_us, abe_decrypt_1_us
//     ablation_primitives/layers_oprf: oprf_client_blind_us,
//         oprf_manager_sign_us, oprf_client_unblind_us,
//         key_regression_wind_us, key_regression_unwind_us
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "abe/cpabe.h"
#include "aont/reed_cipher.h"
#include "bench/bench_util.h"
#include "chunk/chunker.h"
#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "crypto/random.h"
#include "crypto/sha256.h"
#include "keymanager/key_manager.h"
#include "pairing/bls.h"
#include "rsa/blind_signature.h"
#include "rsa/key_regression.h"

namespace {

using namespace reed;

Bytes FixedData(std::size_t size, std::uint64_t seed = 1) {
  crypto::DeterministicRng rng(seed);
  return rng.Generate(size);
}

// --------------------------- crypto substrate ---------------------------

void BM_Sha256(benchmark::State& state) {
  Bytes data = FixedData(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(crypto::Sha256::UsingHardware() ? "sha-ni" : "portable");
}
BENCHMARK(BM_Sha256)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_AesCtr(benchmark::State& state) {
  Bytes key = FixedData(32, 2), iv = FixedData(16, 3);
  Bytes data = FixedData(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::AesCtrEncrypt(key, iv, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(crypto::Aes256::UsingHardware() ? "aes-ni" : "portable");
}
BENCHMARK(BM_AesCtr)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key = FixedData(32, 5);
  Bytes data = FixedData(static_cast<std::size_t>(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::HmacSha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(4096)->Arg(65536);

void BM_RabinChunking(benchmark::State& state) {
  Bytes data = FixedData(4 << 20, 7);
  chunk::RabinChunker chunker(chunk::PaperChunking(8192));
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.Split(data));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_RabinChunking);

// --------------------------- OPRF split ---------------------------

struct OprfFixture {
  rsa::RsaKeyPair keys;
  OprfFixture() {
    crypto::DeterministicRng rng(10);
    keys = rsa::GenerateKeyPair(1024, rng);
  }
};
OprfFixture& Oprf() {
  static OprfFixture f;
  return f;
}

void BM_OprfClientBlind(benchmark::State& state) {
  rsa::BlindSignatureClient client(Oprf().keys.pub);
  crypto::DeterministicRng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.Blind(ToBytes("fingerprint"), rng));
  }
}
BENCHMARK(BM_OprfClientBlind);

void BM_OprfManagerSign(benchmark::State& state) {
  rsa::BlindSignatureServer server(Oprf().keys.priv);
  rsa::BlindSignatureClient client(Oprf().keys.pub);
  crypto::DeterministicRng rng(12);
  auto req = client.Blind(ToBytes("fp"), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.Sign(req.blinded));
  }
  // This per-signature cost is what saturates Fig 5(b) at large batches.
}
BENCHMARK(BM_OprfManagerSign);

void BM_OprfClientUnblind(benchmark::State& state) {
  rsa::BlindSignatureServer server(Oprf().keys.priv);
  rsa::BlindSignatureClient client(Oprf().keys.pub);
  crypto::DeterministicRng rng(13);
  auto req = client.Blind(ToBytes("fp"), rng);
  auto sig = server.Sign(req.blinded);
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.Unblind(req, sig));
  }
}
BENCHMARK(BM_OprfClientUnblind);

void BM_KeyRegressionWind(benchmark::State& state) {
  crypto::DeterministicRng rng(14);
  rsa::KeyRegressionOwner owner(Oprf().keys);
  rsa::KeyState st = owner.GenesisState(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(st = owner.Wind(st));
  }
}
BENCHMARK(BM_KeyRegressionWind);

void BM_KeyRegressionUnwind(benchmark::State& state) {
  crypto::DeterministicRng rng(15);
  rsa::KeyRegressionOwner owner(Oprf().keys);
  rsa::KeyRegressionMember member(Oprf().keys.pub);
  rsa::KeyState st = owner.Wind(owner.GenesisState(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(member.Unwind(st));
  }
}
BENCHMARK(BM_KeyRegressionUnwind);

// ------------------- BLS alternative (paper §V names it) -------------------

void BM_BlsManagerSign(benchmark::State& state) {
  auto pairing = std::make_shared<const pairing::TypeAPairing>(
      pairing::TypeAParams::Default());
  crypto::DeterministicRng rng(16);
  pairing::BlsKeyPair kp = pairing::BlsGenerateKeyPair(*pairing, rng);
  pairing::BlsBlindSigner signer(pairing, kp.secret);
  pairing::BlsBlindClient client(pairing, kp.public_key);
  auto req = client.Blind(ToBytes("fp"), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer.Sign(req.blinded));
  }
  // Compare with BM_OprfManagerSign: the manager-side cost decides the
  // Fig 5(b) saturation plateau under either instantiation.
}
BENCHMARK(BM_BlsManagerSign);

void BM_BlsClientUnblind(benchmark::State& state) {
  auto pairing = std::make_shared<const pairing::TypeAPairing>(
      pairing::TypeAParams::Default());
  crypto::DeterministicRng rng(17);
  pairing::BlsKeyPair kp = pairing::BlsGenerateKeyPair(*pairing, rng);
  pairing::BlsBlindSigner signer(pairing, kp.secret);
  pairing::BlsBlindClient client(pairing, kp.public_key);
  auto req = client.Blind(ToBytes("fp"), rng);
  pairing::G1Point sig = signer.Sign(req.blinded);
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.Unblind(req, sig));
  }
  // Unblind pays two pairings — this is why the prototype (and the paper)
  // default to the RSA OPRF despite BLS's cheaper signing.
}
BENCHMARK(BM_BlsClientUnblind);

// --------------------------- pairing / CP-ABE ---------------------------

struct AbeFixture {
  std::shared_ptr<const pairing::TypeAPairing> pairing;
  std::unique_ptr<abe::CpAbe> cpabe;
  abe::CpAbe::SetupResult setup;
  AbeFixture() {
    pairing = std::make_shared<const pairing::TypeAPairing>(
        pairing::TypeAParams::Default());
    cpabe = std::make_unique<abe::CpAbe>(pairing);
    crypto::DeterministicRng rng(20);
    setup = cpabe->Setup(rng);
  }
};
AbeFixture& Abe() {
  static AbeFixture f;
  return f;
}

void BM_TatePairing(benchmark::State& state) {
  const auto& e = *Abe().pairing;
  pairing::G1Point p = e.HashToGroup(ToBytes("P"));
  pairing::G1Point q = e.HashToGroup(ToBytes("Q"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.Pair(p, q));
  }
}
BENCHMARK(BM_TatePairing);

void BM_G1ScalarMul(benchmark::State& state) {
  const auto& e = *Abe().pairing;
  pairing::G1Point p = e.HashToGroup(ToBytes("P"));
  crypto::DeterministicRng rng(21);
  bigint::BigInt k = e.RandomScalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.ScalarMul(k));
  }
}
BENCHMARK(BM_G1ScalarMul);

void BM_AbeEncrypt(benchmark::State& state) {
  auto& f = Abe();
  crypto::DeterministicRng rng(22);
  std::vector<std::string> users;
  for (int i = 0; i < state.range(0); ++i) {
    users.push_back("u" + std::to_string(i));
  }
  abe::PolicyNode policy = abe::PolicyNode::OrOfUsers(users);
  Secret payload(FixedData(200, 23));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.cpabe->EncryptBytes(f.setup.pk, policy, payload, rng));
  }
  // Linear in #users: the dominant term of the Fig 8(a) curve.
}
BENCHMARK(BM_AbeEncrypt)->Arg(1)->Arg(10)->Arg(50)->Arg(100);

void BM_AbeDecrypt(benchmark::State& state) {
  auto& f = Abe();
  crypto::DeterministicRng rng(24);
  std::vector<std::string> users;
  for (int i = 0; i < state.range(0); ++i) {
    users.push_back("u" + std::to_string(i));
  }
  abe::PolicyNode policy = abe::PolicyNode::OrOfUsers(users);
  Secret payload(FixedData(200, 25));
  Bytes ct = Declassify(f.cpabe->EncryptBytes(f.setup.pk, policy, payload, rng),
                        "bench: ABE ciphertext for the decrypt loop");
  abe::PrivateKey sk = f.cpabe->KeyGen(f.setup.pk, f.setup.mk, {"user:u0"}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.cpabe->DecryptBytes(sk, ct));
  }
  // ~Constant in #users for OR policies — why Fig 8 rekey decrypt is flat.
}
BENCHMARK(BM_AbeDecrypt)->Arg(1)->Arg(10)->Arg(50)->Arg(100);

// --------------------------- REED schemes ---------------------------

void BM_ReedEncrypt(benchmark::State& state) {
  auto scheme = static_cast<aont::Scheme>(state.range(0));
  std::size_t chunk_size = static_cast<std::size_t>(state.range(1));
  aont::ReedCipher cipher(scheme);
  Bytes chunk = FixedData(chunk_size, 30);
  Secret key(FixedData(32, 31));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cipher.Encrypt(chunk, key));
  }
  state.SetBytesProcessed(state.iterations() * state.range(1));
  state.SetLabel(aont::SchemeName(scheme));
}
BENCHMARK(BM_ReedEncrypt)
    ->Args({0, 8192})
    ->Args({1, 8192})
    ->Args({0, 16384})
    ->Args({1, 16384});

void BM_ReedDecrypt(benchmark::State& state) {
  auto scheme = static_cast<aont::Scheme>(state.range(0));
  aont::ReedCipher cipher(scheme);
  Bytes chunk = FixedData(8192, 32);
  Secret key(FixedData(32, 33));
  aont::SealedChunk sealed = cipher.Encrypt(chunk, key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cipher.Decrypt(sealed.trimmed_package, sealed.stub));
  }
  state.SetBytesProcessed(state.iterations() * 8192);
  state.SetLabel(aont::SchemeName(scheme));
}
BENCHMARK(BM_ReedDecrypt)->Arg(0)->Arg(1);

void BM_SelfXorVsHashTail(benchmark::State& state) {
  // The enhanced scheme's tail: SelfXor(C2) vs a second SHA-256 pass.
  Bytes data = FixedData(8192 + 32, 34);
  bool use_hash = state.range(0) != 0;
  for (auto _ : state) {
    if (use_hash) {
      benchmark::DoNotOptimize(crypto::Sha256::Hash(data));
    } else {
      benchmark::DoNotOptimize(aont::SelfXor(data));
    }
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(data.size()));
  state.SetLabel(use_hash ? "hash-tail" : "self-xor-tail");
}
BENCHMARK(BM_SelfXorVsHashTail)->Arg(0)->Arg(1);

// --------------------------- stub-size ablation ---------------------------

void BM_StubSizeSweep(benchmark::State& state) {
  // Cost side of the stub-size trade-off: encryption throughput is nearly
  // independent of stub size (the split is free); what changes is storage
  // overhead (stub bytes per chunk) and rekey payload — reported as
  // counters so the trade-off is visible in one table.
  std::size_t stub_size = static_cast<std::size_t>(state.range(0));
  aont::ReedCipher cipher(aont::Scheme::kEnhanced, stub_size);
  Bytes chunk = FixedData(8192, 35);
  Secret key(FixedData(32, 36));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cipher.Encrypt(chunk, key));
  }
  state.SetBytesProcessed(state.iterations() * 8192);
  state.counters["stub_overhead_pct"] =
      100.0 * static_cast<double>(stub_size) / 8192.0;
  state.counters["rekey_bytes_per_mb"] =
      static_cast<double>(stub_size) * (1048576.0 / 8192.0);
}
BENCHMARK(BM_StubSizeSweep)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(1024);

// The layer rows gated in CI, one series each: google-benchmark run name →
// JSON field (microseconds per operation).
struct LayerRow {
  const char* run;
  const char* field;
};
struct LayerSeries {
  const char* series;
  std::vector<LayerRow> rows;
};
const std::vector<LayerSeries>& GatedLayers() {
  static const std::vector<LayerSeries> layers = {
      {"layers_pairing",
       {{"BM_TatePairing", "tate_pairing_us"},
        {"BM_G1ScalarMul", "g1_scalar_mul_us"},
        {"BM_AbeEncrypt/1", "abe_encrypt_1_us"},
        {"BM_AbeDecrypt/1", "abe_decrypt_1_us"}}},
      {"layers_oprf",
       {{"BM_OprfClientBlind", "oprf_client_blind_us"},
        {"BM_OprfManagerSign", "oprf_manager_sign_us"},
        {"BM_OprfClientUnblind", "oprf_client_unblind_us"},
        {"BM_KeyRegressionWind", "key_regression_wind_us"},
        {"BM_KeyRegressionUnwind", "key_regression_unwind_us"}}},
  };
  return layers;
}

// Console output as usual (colored only on a terminal), plus per-run real
// time in microseconds.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  CapturingReporter()
      : ConsoleReporter(isatty(STDOUT_FILENO) ? OO_Defaults : OO_Tabular) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      micros_[run.benchmark_name()] =
          run.GetAdjustedRealTime() * 1e6 /
          benchmark::GetTimeUnitMultiplier(run.time_unit);
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::map<std::string, double>& micros() const { return micros_; }

 private:
  std::map<std::string, double> micros_;
};

}  // namespace

// Custom main: translate the repo-wide --smoke flag into google-benchmark's
// native flags, run, then emit the gated layer rows through JsonReporter.
int main(int argc, char** argv) {
  reed::bench::JsonReporter json("ablation_primitives", argc, argv);
  std::vector<std::string> args;
  args.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      ++i;  // consumed by JsonReporter
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      args.emplace_back("--benchmark_min_time=0.05");
    } else if (std::strcmp(argv[i], "--full") == 0) {
      // Default google-benchmark timing is already the "full" scale.
    } else {
      args.emplace_back(argv[i]);
    }
  }
  std::vector<char*> cargs;
  cargs.reserve(args.size());
  for (auto& a : args) cargs.push_back(a.data());
  int cargc = static_cast<int>(cargs.size());
  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json.enabled()) return 0;
  for (const LayerSeries& layer : GatedLayers()) {
    std::vector<std::pair<const char*, double>> fields;
    for (const LayerRow& row : layer.rows) {
      auto it = reporter.micros().find(row.run);
      if (it == reporter.micros().end()) {
        std::fprintf(stderr, "--json: %s did not run (check the filter)\n",
                     row.run);
        return 1;
      }
      fields.emplace_back(row.field, it->second);
    }
    json.AddRow(layer.series, fields);
  }
  return 0;
}
