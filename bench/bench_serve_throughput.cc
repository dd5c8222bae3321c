// Serving throughput: per-query round-trips vs pipelined batches vs a
// warm result cache.
//
// Four cases over the same synthetic random-walk dataset and query set
// (in-process, no sockets — the wire adds parsing, not compute). Every
// fifth query, query 0 among them, is a knn at k = 10 (the share the
// repository benchmark's serve mix sends); the rest are 1nn:
//
//   serial      one orchestrator calls QueryEngine::Run per query; the
//               pure library baseline, no serving machinery at all;
//   unbatched   C client threads, ONE query per Batcher::Execute — every
//               query pays a full submit/dispatch/wake round-trip;
//   batched     the same C clients submit their whole query slice in one
//               Execute, the way the server drains a connection's
//               pipelined lines: the group commits as one engine batch
//               and fans out as a single flattened (request, chunk) work
//               list;
//   cached      `batched` again with the ResultCache warm — the upper
//               bound batching chases;
//   shardedN    `batched` against an N-shard store (scatter/gather scan
//               plans) — bitwise-identical answers, different latency.
//
// A final pair of timings compares cold start (parse UCR text, rebuild
// the LB index) against restoring the same dataset from a warp-snap-v1
// snapshot; `restore_speedup` lands in the JSON config block.
//
// Per-request latency is sampled around each submission and summarized as
// median / p95 / p99 (the serving percentiles the subsystem exists to
// control); throughput comes from the aggregate wall clock. The JSON
// report (warp-bench-v1) carries the serve_* work counters per case.
//
// Determinism note: answers are bitwise-identical across all four cases
// and any --threads; only the latency distribution differs. Every case
// digests all of query 0's neighbors (index, label, hexfloat distance)
// and the run exits 1 if any case's digest differs from serial's.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/bench_flags.h"
#include "warp/cluster/router.h"
#include "warp/cluster/supervisor.h"
#include "warp/common/stopwatch.h"
#include "warp/core/dtw.h"
#include "warp/gen/random_walk.h"
#include "warp/common/metrics.h"
#include "warp/obs/report.h"
#include "warp/serve/batcher.h"
#include "warp/serve/dataset_store.h"
#include "warp/serve/net.h"
#include "warp/serve/protocol.h"
#include "warp/serve/query_engine.h"
#include "warp/serve/request.h"
#include "warp/serve/result_cache.h"
#include "warp/serve/snapshot.h"
#include "warp/ts/io.h"

namespace warp {
namespace {

struct CaseResult {
  TimingSummary latency;
  double wall_seconds = 0.0;
};

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  // Default workload: many cheap queries — the regime a serving layer is
  // for, and the one where per-request round-trip overhead (what batching
  // removes) is visible next to kernel compute.
  const size_t series = flags.GetCount("series", 100, 1);
  const size_t length = flags.GetCount("length", 64, 1);
  const size_t queries = flags.GetCount("queries", 1024, 1);
  const size_t clients = flags.GetCount("clients", 8, 1);
  // Serving is the one harness whose natural configuration is parallel:
  // default to all cores (the paper-faithful --threads=1 default elsewhere
  // would measure the batcher against a serial engine, where coalescing
  // has nothing to win).
  size_t threads = flags.GetCount("threads", 0);
  if (threads == 0) threads = DefaultThreadCount();
  const double window = flags.GetDouble("window", 0.05, 0.0, 1.0);
  const size_t cache_capacity = flags.GetCount("cache", 4096);
  // Each case runs `repeats` times and reports its fastest run: the
  // shared-machine noise this harness sees is strictly additive, so the
  // minimum is the least-contaminated estimate of every case.
  const size_t repeats = flags.GetCount("repeats", 3, 1);
  const std::string json_path = bench::JsonFlag(flags);
  bench::SimdFlag(flags);
  flags.Finalize();

  bench::PrintBanner("serve: throughput",
                     "per-query round-trips vs pipelined batches vs cache");
  std::printf("series=%zu length=%zu queries=%zu clients=%zu threads=%zu\n\n",
              series, length, queries, clients, threads);

  const Dataset data = gen::RandomWalkDataset(series, length, 42);
  const size_t band = BandFromFraction(window, length);
  serve::DatasetStore store;
  store.Register("bench", data, {band});

  const Dataset query_set = gen::RandomWalkDataset(queries, length, 4242);
  std::vector<serve::ServeRequest> requests(queries);
  for (size_t i = 0; i < queries; ++i) {
    requests[i].id = static_cast<int64_t>(i);
    requests[i].op = i % 5 == 0 ? serve::QueryOp::kKnn : serve::QueryOp::k1Nn;
    requests[i].k = 10;  // Read by knn only.
    requests[i].dataset = "bench";
    requests[i].params.window_fraction = window;
    requests[i].query = query_set[i].values();
  }

  obs::BenchReport report("serve: throughput",
                          "per-request latency and aggregate throughput of "
                          "the query-serving subsystem");
  report.AddConfig("series", static_cast<uint64_t>(series));
  report.AddConfig("length", static_cast<uint64_t>(length));
  report.AddConfig("queries", static_cast<uint64_t>(queries));
  report.AddConfig("clients", static_cast<uint64_t>(clients));
  report.AddConfig("threads", static_cast<uint64_t>(threads));
  report.AddConfig("window", window);
  report.AddConfig("cache_capacity", static_cast<uint64_t>(cache_capacity));

  std::vector<std::string> checks;  // Per-case digest of query 0's answer.
  const auto digest = [](const serve::ServeResponse& response) {
    std::string out = response.ok ? "ok" : "error: " + response.error;
    char buffer[64];
    for (const serve::Neighbor& n : response.neighbors) {
      std::snprintf(buffer, sizeof(buffer), " %zu:%d:%a", n.index, n.label,
                    n.distance);
      out += buffer;
    }
    return out;
  };

  serve::ResultCache cache(cache_capacity);
  serve::QueryEngine engine(&store, &cache, threads);
  serve::Batcher batcher(&engine);

  // Untimed warmup: pool spin-up, workspace growth, page faults. Cleared
  // from the cache afterward so every uncached case still computes.
  {
    std::vector<serve::ServeRequest> warm(
        requests.begin(),
        requests.begin() +
            static_cast<ptrdiff_t>(std::min<size_t>(8, queries)));
    std::vector<serve::ServeResponse> responses;
    batcher.Execute(warm, &responses);
    cache.Clear();
  }

  // --- serial: the library baseline. ---
  CaseResult serial;
  {
    obs::MetricsSnapshot before = obs::SnapshotCounters();
    obs::HistogramSnapshot histograms_before = obs::SnapshotHistograms();
    for (size_t rep = 0; rep < repeats; ++rep) {
      std::vector<double> samples;
      samples.reserve(queries);
      Stopwatch wall;
      for (const serve::ServeRequest& request : requests) {
        Stopwatch watch;
        const serve::ServeResponse response = engine.Run(request);
        samples.push_back(watch.ElapsedSeconds());
        if (checks.empty()) checks.push_back(digest(response));
      }
      const double wall_seconds = wall.ElapsedSeconds();
      if (rep == 0 || wall_seconds < serial.wall_seconds) {
        serial.wall_seconds = wall_seconds;
        serial.latency = SummarizeSamples(samples);
      }
      cache.Clear();
    }
    report.AddCase("serial", serial.latency, obs::CountersSince(before),
                   obs::HistogramsSince(histograms_before));
  }

  // Concurrent clients submitting through a batcher. Client c owns
  // queries c, c+clients, ... With per_submit == 1 every query is its own
  // round-trip; with per_submit == 0 each client pipelines its whole
  // slice into one Execute (what the server does with buffered lines).
  const auto run_clients_via = [&](serve::Batcher& via, size_t per_submit,
                                   std::string* first_digest) {
    CaseResult result;
    std::vector<std::vector<double>> samples(clients);
    std::vector<std::string> digests(clients);
    Stopwatch wall;
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&, c, per_submit] {
        std::vector<serve::ServeRequest> slice;
        for (size_t i = c; i < queries; i += clients) {
          slice.push_back(requests[i]);
        }
        const size_t step = per_submit == 0 ? slice.size() : per_submit;
        for (size_t at = 0; at < slice.size(); at += step) {
          const std::vector<serve::ServeRequest> group(
              slice.begin() + static_cast<ptrdiff_t>(at),
              slice.begin() + static_cast<ptrdiff_t>(
                                  std::min(at + step, slice.size())));
          std::vector<serve::ServeResponse> responses;
          Stopwatch watch;
          via.Execute(group, &responses);
          const double elapsed = watch.ElapsedSeconds();
          // Every query in the group was submitted together and finished
          // together: each experienced the group's latency.
          for (size_t g = 0; g < group.size(); ++g) {
            samples[c].push_back(elapsed);
            if (group[g].id == 0) digests[c] = digest(responses[g]);
          }
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    result.wall_seconds = wall.ElapsedSeconds();
    std::vector<double> merged;
    for (const std::vector<double>& s : samples) {
      merged.insert(merged.end(), s.begin(), s.end());
    }
    result.latency = SummarizeSamples(merged);
    for (const std::string& d : digests) {
      if (!d.empty()) *first_digest = d;
    }
    return result;
  };
  const auto run_clients = [&](size_t per_submit, std::string* first_digest) {
    return run_clients_via(batcher, per_submit, first_digest);
  };

  // Repeats a client case, keeping the fastest run. `warm_cache` keeps
  // the cache populated across runs (the cached case); otherwise each run
  // recomputes from scratch.
  const auto measure_clients = [&](size_t per_submit, bool warm_cache,
                                   const std::string& name) {
    CaseResult best;
    std::string case_digest;
    obs::MetricsSnapshot before = obs::SnapshotCounters();
    obs::HistogramSnapshot histograms_before = obs::SnapshotHistograms();
    for (size_t rep = 0; rep < repeats; ++rep) {
      const CaseResult result = run_clients(per_submit, &case_digest);
      if (rep == 0 || result.wall_seconds < best.wall_seconds) best = result;
      if (!warm_cache) cache.Clear();
    }
    report.AddCase(name, best.latency, obs::CountersSince(before),
                   obs::HistogramsSince(histograms_before));
    checks.push_back(case_digest);
    return best;
  };

  const CaseResult unbatched = measure_clients(1, false, "unbatched");
  CaseResult batched;
  CaseResult cached;
  {
    // Leave the final batched run's answers in the cache, then re-ask the
    // same pipelined submissions: every answer is a cache hit.
    std::string case_digest;
    obs::MetricsSnapshot before = obs::SnapshotCounters();
    obs::HistogramSnapshot histograms_before = obs::SnapshotHistograms();
    for (size_t rep = 0; rep < repeats; ++rep) {
      const CaseResult result = run_clients(0, &case_digest);
      if (rep == 0 || result.wall_seconds < batched.wall_seconds) {
        batched = result;
      }
      if (rep + 1 < repeats) cache.Clear();
    }
    report.AddCase("batched", batched.latency, obs::CountersSince(before),
                   obs::HistogramsSince(histograms_before));
    checks.push_back(case_digest);

    before = obs::SnapshotCounters();
    histograms_before = obs::SnapshotHistograms();
    for (size_t rep = 0; rep < repeats; ++rep) {
      const CaseResult result = run_clients(0, &case_digest);
      if (rep == 0 || result.wall_seconds < cached.wall_seconds) {
        cached = result;
      }
    }
    report.AddCase("cached", cached.latency, obs::CountersSince(before),
                   obs::HistogramsSince(histograms_before));
    checks.push_back(case_digest);
  }

  // --- sharded: the batched case against scatter/gather stores. The
  // answers must not move by a bit (the digest check below is the
  // bench-level half of tests/serve/shard_golden_test.cc); only the
  // latency profile may.
  std::vector<std::pair<size_t, CaseResult>> sharded;
  for (const size_t shard_count : {size_t{2}, size_t{4}}) {
    serve::DatasetStore shard_store(shard_count);
    shard_store.Register("bench", data, {band});
    serve::QueryEngine shard_engine(&shard_store, nullptr, threads);
    serve::Batcher shard_batcher(&shard_engine);
    const std::string name = "sharded" + std::to_string(shard_count);
    CaseResult best;
    std::string case_digest;
    obs::MetricsSnapshot before = obs::SnapshotCounters();
    obs::HistogramSnapshot histograms_before = obs::SnapshotHistograms();
    for (size_t rep = 0; rep < repeats; ++rep) {
      const CaseResult result =
          run_clients_via(shard_batcher, 0, &case_digest);
      if (rep == 0 || result.wall_seconds < best.wall_seconds) best = result;
    }
    report.AddCase(name, best.latency, obs::CountersSince(before),
                   obs::HistogramsSince(histograms_before));
    checks.push_back(case_digest);
    sharded.emplace_back(shard_count, best);
  }

  // Files this bench writes (the router's snapshot directory, the cold
  // start's UCR file, the restore's snapshot) live in a private temp
  // directory, removed at exit, never in the working directory.
  class TempDirGuard {
   public:
    explicit TempDirGuard(std::string path) : path_(std::move(path)) {}
    ~TempDirGuard() {
      std::error_code ignored;
      std::filesystem::remove_all(path_, ignored);
    }
    TempDirGuard(const TempDirGuard&) = delete;
    TempDirGuard& operator=(const TempDirGuard&) = delete;

   private:
    std::string path_;
  };
  std::string temp_dir =
      (std::filesystem::temp_directory_path() / "warp_bench_serve_XXXXXX")
          .string();
  if (mkdtemp(temp_dir.data()) == nullptr) {
    std::fprintf(stderr, "FATAL: cannot create a temp directory\n");
    return 1;
  }
  const TempDirGuard remove_at_exit(temp_dir);

  // --- routerN: the batched clients again, but over TCP against the
  // multi-process cluster (router + N warp_serve shard workers spawned
  // from a snapshot). Pays wire parsing and scatter/gather on top of
  // shardedN's scan plans; the digest check below cross-checks that the
  // cluster's answer still has not moved by a bit. The workers split
  // --threads between them.
  std::vector<std::pair<size_t, CaseResult>> routed;
  {
    const std::string snap_dir = temp_dir + "/router_snaps";
    std::error_code fs_error;
    std::filesystem::create_directories(snap_dir, fs_error);
    std::string error;
    if (fs_error || !serve::SaveSnapshot(*store.Get("bench"),
                                         snap_dir + "/bench.wsnap", &error)) {
      std::fprintf(stderr, "FATAL: router snapshot: %s\n", error.c_str());
      return 1;
    }
    std::vector<std::string> lines(queries);
    for (size_t i = 0; i < queries; ++i) {
      lines[i] = serve::FormatRequest(requests[i]);
    }
    for (const size_t shard_count : {size_t{2}, size_t{4}}) {
      cluster::SupervisorOptions sup;
      sup.shards = shard_count;
      // The workers share the cores: --threads in total, not per worker.
      sup.threads = std::max<size_t>(1, threads / shard_count);
      sup.worker_binary = WARP_SERVE_PATH;
      sup.snapshot_dir = snap_dir;
      cluster::Supervisor supervisor(sup);
      if (!supervisor.Start(&error)) {
        std::fprintf(stderr, "FATAL: supervisor: %s\n", error.c_str());
        return 1;
      }
      cluster::Router router(cluster::RouterOptions{}, &supervisor);
      if (!router.Start(&error)) {
        std::fprintf(stderr, "FATAL: router: %s\n", error.c_str());
        return 1;
      }
      std::thread router_thread([&router] { router.Serve(); });

      const std::string name = "router" + std::to_string(shard_count);
      CaseResult best;
      std::string case_digest;
      bool have_best = false;
      obs::MetricsSnapshot before = obs::SnapshotCounters();
      obs::HistogramSnapshot histograms_before = obs::SnapshotHistograms();
      for (size_t rep = 0; rep < repeats; ++rep) {
        std::vector<std::vector<double>> samples(clients);
        std::vector<std::string> digests(clients);
        std::atomic<bool> broken{false};
        Stopwatch wall;
        std::vector<std::thread> senders;
        senders.reserve(clients);
        for (size_t c = 0; c < clients; ++c) {
          senders.emplace_back([&, c] {
            std::string conn_error;
            serve::TcpConn conn =
                serve::ConnectLoopback(router.port(), &conn_error);
            if (!conn.valid()) {
              broken = true;
              return;
            }
            // Client c pipelines its whole slice in one write, like the
            // `batched` case's single Execute.
            std::string payload;
            std::vector<size_t> slice;
            for (size_t i = c; i < queries; i += clients) {
              payload += lines[i];
              payload += '\n';
              slice.push_back(i);
            }
            Stopwatch watch;
            if (!conn.WriteAll(payload)) {
              broken = true;
              return;
            }
            for (size_t at = 0; at < slice.size(); ++at) {
              std::string line;
              if (!conn.ReadLine(&line)) {
                broken = true;
                return;
              }
              if (slice[at] == 0) {
                serve::ServeResponse parsed;
                std::string parse_error;
                if (!serve::ParseResponseLine(line, &parsed, &parse_error) ||
                    !parsed.ok) {
                  broken = true;
                  return;
                }
                digests[c] = digest(parsed);
              }
            }
            samples[c].assign(slice.size(), watch.ElapsedSeconds());
          });
        }
        for (std::thread& sender : senders) sender.join();
        if (broken) {
          std::fprintf(stderr, "FATAL: %s round trip failed\n", name.c_str());
          return 1;
        }
        CaseResult result;
        result.wall_seconds = wall.ElapsedSeconds();
        std::vector<double> merged;
        for (const std::vector<double>& s : samples) {
          merged.insert(merged.end(), s.begin(), s.end());
        }
        result.latency = SummarizeSamples(merged);
        for (const std::string& d : digests) {
          if (!d.empty()) case_digest = d;
        }
        if (!have_best || result.wall_seconds < best.wall_seconds) {
          best = result;
          have_best = true;
        }
      }
      report.AddCase(name, best.latency, obs::CountersSince(before),
                     obs::HistogramsSince(histograms_before));
      checks.push_back(case_digest);
      routed.emplace_back(shard_count, best);

      router.RequestShutdown();
      router_thread.join();
      supervisor.Stop();
    }
  }

  // --- cold start vs snapshot restore: time-to-first-query. Cold start
  // re-parses the UCR text and rebuilds the whole LB index (z-norm +
  // envelopes); restore reads the warp-snap-v1 file and only re-partitions
  // bits that were already computed.
  double cold_start_seconds = 0.0;
  double restore_seconds = 0.0;
  {
    const std::string ucr_path = temp_dir + "/cold.tsv";
    const std::string snap_path = temp_dir + "/restore.wsnap";
    std::string error;
    if (!SaveUcrFile(ucr_path, data, &error) ||
        !serve::SaveSnapshot(*store.Get("bench"), snap_path, &error)) {
      std::fprintf(stderr, "FATAL: %s\n", error.c_str());
      return 1;
    }
    for (size_t rep = 0; rep < repeats; ++rep) {
      Stopwatch watch;
      Dataset parsed;
      serve::DatasetStore cold(1);
      if (!LoadUcrFile(ucr_path, &parsed, &error)) {
        std::fprintf(stderr, "FATAL: %s\n", error.c_str());
        return 1;
      }
      cold.Register("bench", parsed, {band});
      const double elapsed = watch.ElapsedSeconds();
      if (rep == 0 || elapsed < cold_start_seconds) {
        cold_start_seconds = elapsed;
      }
    }
    for (size_t rep = 0; rep < repeats; ++rep) {
      Stopwatch watch;
      serve::DatasetIndex index;
      serve::DatasetStore restored(1);
      if (!serve::LoadSnapshot(snap_path, &index, nullptr, &error)) {
        std::fprintf(stderr, "FATAL: %s\n", error.c_str());
        return 1;
      }
      restored.RegisterIndex("bench", std::move(index));
      const double elapsed = watch.ElapsedSeconds();
      if (rep == 0 || elapsed < restore_seconds) restore_seconds = elapsed;
    }
    // The restored store must answer query 0 with the same bits.
    serve::DatasetIndex index;
    serve::DatasetStore restored(1);
    if (!serve::LoadSnapshot(snap_path, &index, nullptr, &error)) {
      std::fprintf(stderr, "FATAL: %s\n", error.c_str());
      return 1;
    }
    restored.RegisterIndex("bench", std::move(index));
    serve::QueryEngine restored_engine(&restored, nullptr, 1);
    checks.push_back(digest(restored_engine.Run(requests[0])));
  }

  for (size_t i = 1; i < checks.size(); ++i) {
    if (checks[i] != checks[0]) {
      std::fprintf(stderr, "FATAL: case %zu answer diverged: %s vs %s\n", i,
                   checks[i].c_str(), checks[0].c_str());
      return 1;
    }
  }

  const auto qps = [&](const CaseResult& r) {
    return static_cast<double>(queries) / r.wall_seconds;
  };
  report.AddConfig("serial_qps", qps(serial));
  report.AddConfig("unbatched_qps", qps(unbatched));
  report.AddConfig("batched_qps", qps(batched));
  report.AddConfig("cached_qps", qps(cached));
  report.AddConfig("batches_dispatched", batcher.batches_dispatched());
  for (const auto& [shard_count, result] : sharded) {
    report.AddConfig("sharded" + std::to_string(shard_count) + "_qps",
                     qps(result));
  }
  for (const auto& [shard_count, result] : routed) {
    report.AddConfig("router" + std::to_string(shard_count) + "_qps",
                     qps(result));
  }
  report.AddConfig("cold_start_ms", cold_start_seconds * 1e3);
  report.AddConfig("snapshot_restore_ms", restore_seconds * 1e3);
  report.AddConfig("restore_speedup", cold_start_seconds / restore_seconds);

  std::fputs(report.TimingTable().c_str(), stdout);
  std::fputs(report.CounterTable().c_str(), stdout);
  // Per-op latency and work distributions (serve_latency_* / stage / cells
  // histograms), recorded inside the serve path while each case ran.
  const std::string histogram_table = report.HistogramTable();
  if (!histogram_table.empty()) {
    std::printf("\nhistograms (microseconds unless noted):\n");
    std::fputs(histogram_table.c_str(), stdout);
  }
  std::printf("\nthroughput (queries/s): serial %.1f | unbatched %.1f | "
              "batched %.1f (%.2fx unbatched) | cached %.1f\n"
              "batches dispatched: %llu\n",
              qps(serial), qps(unbatched), qps(batched),
              qps(batched) / qps(unbatched), qps(cached),
              static_cast<unsigned long long>(
                  batcher.batches_dispatched()));
  std::printf("sharded (queries/s):");
  for (const auto& [shard_count, result] : sharded) {
    std::printf(" %zu shards %.1f |", shard_count, qps(result));
  }
  std::printf("\nrouter, multi-process (queries/s):");
  for (const auto& [shard_count, result] : routed) {
    std::printf(" %zu workers %.1f |", shard_count, qps(result));
  }
  std::printf("\ncold start %.2f ms | snapshot restore %.2f ms "
              "(%.2fx faster)\n",
              cold_start_seconds * 1e3, restore_seconds * 1e3,
              cold_start_seconds / restore_seconds);
  report.Finish(json_path);
  return 0;
}

}  // namespace
}  // namespace warp

int main(int argc, char** argv) { return warp::Run(argc, argv); }
