#include "keymanager/mle_key_client.h"

#include "obs/metrics.h"
#include "util/fault_inject.h"

namespace reed::keymanager {

namespace {
// LRU accounting charge per cached key: fingerprint + key + node overhead.
constexpr std::size_t kCacheEntryCost = 32 + 32 + 64;

// Process-wide mirrors of the per-instance Stats, plus OPRF batch
// round-trip latency (blind -> sign -> unblind excluded; this is the wire
// call only). Counters batch their adds per GetKeys call, never per chunk.
struct OprfClientMetrics {
  obs::Counter* cache_hits;
  obs::Counter* cache_misses;
  obs::Counter* batches;
  obs::Counter* failovers;
  obs::Counter* swallowed_failovers;
  obs::Histogram* roundtrip_us;
};

OprfClientMetrics& Metrics() {
  auto& reg = obs::Registry::Global();
  static OprfClientMetrics m{
      &reg.GetCounter("oprf.client.cache_hits"),
      &reg.GetCounter("oprf.client.cache_misses"),
      &reg.GetCounter("oprf.client.batches"),
      &reg.GetCounter("oprf.client.failovers"),
      &reg.GetCounter("errors.swallowed.oprf_failover"),
      &reg.GetHistogram("oprf.client.roundtrip_us")};
  return m;
}
}  // namespace

MleKeyClient::MleKeyClient(std::string client_id,
                           rsa::RsaPublicKey manager_key,
                           std::shared_ptr<net::RpcChannel> channel,
                           const Options& options)
    : MleKeyClient(std::move(client_id), std::move(manager_key),
                   std::vector<std::shared_ptr<net::RpcChannel>>{
                       std::move(channel)},
                   options) {}

MleKeyClient::MleKeyClient(
    std::string client_id, rsa::RsaPublicKey manager_key,
    std::vector<std::shared_ptr<net::RpcChannel>> replicas,
    const Options& options)
    : client_id_(std::move(client_id)),
      blind_client_(std::move(manager_key)),
      replicas_(std::move(replicas)),
      options_(options),
      cache_(options.enable_cache ? options.key_cache_bytes : 0,
             kCacheEntryCost) {
  if (options_.batch_size == 0) {
    throw KeyManagerError("MleKeyClient: batch size must be positive");
  }
  if (replicas_.empty()) {
    throw KeyManagerError("MleKeyClient: need at least one key-manager replica");
  }
}

Bytes MleKeyClient::CallWithFailover(ByteSpan request) {
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    try {
      return replicas_[i]->Call(request);
    } catch (const Error&) {
      // Transport-level failure: the next replica holds the same keys.
      // (Application-level rejections arrive as status frames, not
      // exceptions, so they are never retried here.) The last replica's
      // failure rethrows — only the masked intermediate failures are
      // swallowed, and each one is counted.
      if (i + 1 == replicas_.size()) throw;
      ++stats_.failovers;
      Metrics().failovers->Increment();
      Metrics().swallowed_failovers->Increment();
    }
  }
  throw KeyManagerError("MleKeyClient: unreachable");
}

std::vector<Secret> MleKeyClient::GetKeys(
    const std::vector<chunk::Fingerprint>& fps, crypto::Rng& rng) {
  REED_FAULT_POINT("keymanager.get_keys");
  std::vector<Secret> keys(fps.size());
  std::vector<std::size_t> missing;
  missing.reserve(fps.size());

  if (options_.enable_cache) {
    for (std::size_t i = 0; i < fps.size(); ++i) {
      if (auto hit = cache_.Get(fps[i])) {
        keys[i] = std::move(*hit);
        ++stats_.cache_hits;
      } else {
        missing.push_back(i);
        ++stats_.cache_misses;
      }
    }
  } else {
    for (std::size_t i = 0; i < fps.size(); ++i) missing.push_back(i);
    stats_.cache_misses += missing.size();
  }
  Metrics().cache_hits->Add(fps.size() - missing.size());
  Metrics().cache_misses->Add(missing.size());

  std::size_t modulus_bytes = blind_client_.manager_key().ByteLength();
  for (std::size_t start = 0; start < missing.size();
       start += options_.batch_size) {
    std::size_t end = std::min(missing.size(), start + options_.batch_size);

    std::vector<ByteSpan> batch;
    batch.reserve(end - start);
    for (std::size_t i = start; i < end; ++i) {
      batch.push_back(fps[missing[i]].AsSpan());
    }
    std::vector<rsa::BlindedRequest> requests =
        blind_client_.BlindBatch(batch, rng);
    std::vector<BigInt> blinded;
    blinded.reserve(requests.size());
    for (const rsa::BlindedRequest& req : requests) {
      blinded.push_back(req.blinded);
    }

    Bytes request = KeyManager::EncodeRequest(client_id_, blinded, modulus_bytes);
    obs::ScopedTimer rpc_timer(*Metrics().roundtrip_us);
    Bytes response = CallWithFailover(request);
    (void)rpc_timer.Stop();
    std::vector<BigInt> sigs =
        KeyManager::DecodeResponse(response, modulus_bytes, blinded.size());
    ++stats_.batches_sent;
    Metrics().batches->Increment();

    for (std::size_t i = start; i < end; ++i) {
      Secret key = blind_client_.Unblind(requests[i - start], sigs[i - start]);
      if (options_.enable_cache) cache_.Put(fps[missing[i]], key);
      keys[missing[i]] = std::move(key);
    }
  }
  return keys;
}

Secret MleKeyClient::GetKey(const chunk::Fingerprint& fp, crypto::Rng& rng) {
  return GetKeys({fp}, rng).front();
}

void MleKeyClient::ClearCache() { cache_.Clear(); }

}  // namespace reed::keymanager
