// Concurrency stress tests, written to run under ThreadSanitizer.
//
// These tests exist to give TSan (and ASan) interleavings to chew on:
// every shared component that the multi-threaded client/server paths use —
// ThreadPool, LruCache, TokenBucket, TcpServer — is hammered from many
// threads at once. Under TSan everything runs 5-15x slower, so iteration
// counts scale down when REED_TSAN is defined (set by the build when
// REED_SANITIZE=thread).

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/tcp.h"
#include "net/tcp_server.h"
#include "util/lru_cache.h"
#include "util/rate_limiter.h"
#include "util/thread_pool.h"
#include "util/bytes.h"

namespace reed {
namespace {

#ifdef REED_TSAN
constexpr int kScale = 1;
#else
constexpr int kScale = 8;
#endif

TEST(ThreadPoolStress, ConcurrentSubmitFromManyThreads) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  const int kProducers = 8;
  const int kTasksPerProducer = 200 * kScale;

  std::vector<std::thread> producers;
  std::vector<std::vector<std::future<void>>> futures(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      futures[static_cast<std::size_t>(p)].reserve(
          static_cast<std::size_t>(kTasksPerProducer));
      for (int i = 0; i < kTasksPerProducer; ++i) {
        futures[static_cast<std::size_t>(p)].push_back(
            pool.Submit([&sum] { sum.fetch_add(1, std::memory_order_relaxed); }));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& fs : futures) {
    for (auto& f : fs) f.get();
  }
  EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(kProducers) *
                            static_cast<std::uint64_t>(kTasksPerProducer));
}

TEST(ThreadPoolStress, ConcurrentParallelForCallers) {
  // Multiple threads issuing ParallelFor against the same pool, the way
  // several client uploads could share one chunk-encryption pool.
  ThreadPool pool(4);
  const int kCallers = 4;
  const std::size_t kCount = 512 * static_cast<std::size_t>(kScale);

  std::vector<std::thread> callers;
  std::vector<std::atomic<std::uint64_t>> totals(kCallers);
  for (auto& t : totals) t.store(0);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      auto& total = totals[static_cast<std::size_t>(c)];
      pool.ParallelFor(kCount, [&total](std::size_t i) {
        total.fetch_add(i + 1, std::memory_order_relaxed);
      });
    });
  }
  for (auto& t : callers) t.join();
  const std::uint64_t expected = kCount * (kCount + 1) / 2;
  for (auto& t : totals) EXPECT_EQ(t.load(), expected);
}

TEST(ThreadPoolStress, ParallelForExceptionUnderContention) {
  ThreadPool pool(4);
  for (int round = 0; round < 4 * kScale; ++round) {
    EXPECT_THROW(
        pool.ParallelFor(256, [](std::size_t i) {
          if (i == 97) throw std::runtime_error("injected");
        }),
        std::runtime_error);
    // The pool must still be usable after a failed batch.
    std::atomic<int> ok{0};
    pool.ParallelFor(64, [&ok](std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 64);
  }
}

TEST(LruCacheStress, MixedGetPutClearAcrossThreads) {
  // Small budget so evictions happen constantly while readers race them.
  LruCache<std::uint64_t, std::string> cache(/*byte_budget=*/64 * 32,
                                             /*entry_cost=*/32);
  const int kThreads = 8;
  const int kOpsPerThread = 2000 * kScale;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::uint64_t key = static_cast<std::uint64_t>((t * 31 + i) % 97);
        switch (i % 4) {
          case 0:
            cache.Put(key, "value-" + std::to_string(key));
            break;
          case 1: {
            auto v = cache.Get(key);
            if (v) {
              EXPECT_EQ(*v, "value-" + std::to_string(key));
            }
            break;
          }
          case 2:
            (void)cache.stats();
            (void)cache.used_bytes();
            break;
          default:
            if (i % 512 == 3) cache.Clear();
            (void)cache.size();
            break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) *
                static_cast<std::uint64_t>(kOpsPerThread / 4));
}

TEST(RateLimiterStress, ConcurrentAcquireNeverOverAdmits) {
  // Fixed clock: no refill happens, so total admissions across all threads
  // must not exceed the burst no matter how requests interleave.
  const double kBurst = 100.0;
  TokenBucket bucket(/*rate_per_sec=*/1.0, kBurst);
  std::atomic<int> admitted{0};
  const int kThreads = 8;
  const int kAttempts = 500 * kScale;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAttempts; ++i) {
        if (bucket.TryAcquire(/*now_seconds=*/1.0)) {
          admitted.fetch_add(1, std::memory_order_relaxed);
        }
        (void)bucket.DelayUntilAvailable(/*now_seconds=*/1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(admitted.load(), static_cast<int>(kBurst));
  EXPECT_LT(bucket.tokens(), 1.0);
}

Bytes EchoRequest(int client, int seq) {
  std::string s = "client-" + std::to_string(client) + "-req-" +
                  std::to_string(seq);
  return Bytes(s.begin(), s.end());
}

TEST(TcpServerStress, ManyConcurrentClients) {
  std::atomic<std::uint64_t> served{0};
  net::TcpServer server(0, [&served](ByteSpan req) {
    served.fetch_add(1, std::memory_order_relaxed);
    return Bytes(req.begin(), req.end());  // echo
  });

  const int kClients = 8;
  const int kRequests = 50 * kScale;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        auto conn = net::TcpTransport::Connect("127.0.0.1", server.port());
        for (int i = 0; i < kRequests; ++i) {
          Bytes req = EchoRequest(c, i);
          conn.Send(req);
          Bytes resp = conn.Receive();
          if (resp != req) failures.fetch_add(1);
        }
      } catch (const net::NetError&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(served.load(), static_cast<std::uint64_t>(kClients) *
                               static_cast<std::uint64_t>(kRequests));
}

TEST(TcpServerStress, DestructionWithLiveConnections) {
  // Clients connect, make one call, then sit blocked in Receive() while the
  // server is destroyed. The old implementation detached session threads
  // here, leaving them to race the destroyed handler; the rewrite must shut
  // every session down and join it.
  for (int round = 0; round < 3 * kScale; ++round) {
    std::vector<std::thread> clients;
    std::atomic<int> disconnected{0};
    {
      auto server = std::make_unique<net::TcpServer>(0, [](ByteSpan req) {
        return Bytes(req.begin(), req.end());
      });
      std::atomic<int> ready{0};
      const int kClients = 4;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, port = server->port()] {
          try {
            auto conn = net::TcpTransport::Connect("127.0.0.1", port);
            Bytes req{1, 2, 3};
            conn.Send(req);
            (void)conn.Receive();
            ready.fetch_add(1);
            (void)conn.Receive();  // blocks until the server dies
          } catch (const net::NetError&) {
          }
          disconnected.fetch_add(1);
        });
      }
      while (ready.load() < kClients) std::this_thread::yield();
      server.reset();  // must unblock and join every session
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(disconnected.load(), 4);
  }
}

TEST(TcpServerStress, ChurningClientsWhileServing) {
  // Connection churn: short-lived clients connecting/disconnecting while
  // others are mid-conversation exercises session reaping in the accept loop.
  net::TcpServer server(0, [](ByteSpan req) {
    return Bytes(req.begin(), req.end());
  });
  const int kChurners = 6;
  const int kConnectsEach = 20 * kScale;
  std::atomic<int> failures{0};
  std::vector<std::thread> churners;
  for (int c = 0; c < kChurners; ++c) {
    churners.emplace_back([&, c] {
      for (int i = 0; i < kConnectsEach; ++i) {
        try {
          auto conn = net::TcpTransport::Connect("127.0.0.1", server.port());
          Bytes req = EchoRequest(c, i);
          conn.Send(req);
          if (conn.Receive() != req) failures.fetch_add(1);
        } catch (const net::NetError&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : churners) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace reed
