// Microbenchmarks (google-benchmark) for the hot primitives: hashing,
// RNG, Zipf sampling, tuple serialization, the symmetric hash join and
// next-hop selection in both overlays.
//
// The *_Legacy / *_PerTuple benches replicate the pre-batching tuple codec
// (deep-copied std::string values, one Deserialize call and one buffer per
// tuple) so every run reports the batching speedup against the path it
// replaced. The network benches measure the one publish path (standing
// rehash queues) and the one fetch path (owner-coalesced FetchMany)
// against absolute ceilings. See bench/README.md; scripts/run_bench.sh
// records the ratios and counters in BENCH_core.json.
//
//   ./build/micro_core
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/hashing.h"
#include "common/rng.h"
#include "common/tokenizer.h"
#include "common/zipf.h"
#include "dht/bamboo.h"
#include "dht/builder.h"
#include "dht/chord.h"
#include "dht/churn.h"
#include "dht/ring_oracle.h"
#include "gnutella/index.h"
#include "pier/node.h"
#include "pier/ops.h"
#include "pier/plan.h"
#include "pier/tuple_batch.h"
#include "piersearch/publisher.h"
#include "piersearch/schemas.h"
#include "piersearch/search_engine.h"
#include "sim/shard.h"

using namespace pierstack;

static void BM_Fnv1a64(benchmark::State& state) {
  std::string s(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fnv1a64(s));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Fnv1a64)->Arg(8)->Arg(32)->Arg(256);

static void BM_Mix64(benchmark::State& state) {
  uint64_t x = 0x12345;
  for (auto _ : state) {
    x = Mix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Mix64);

static void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_RngNext);

static void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(static_cast<size_t>(state.range(0)), 1.0);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000);

static void BM_TokenizeFilename(benchmark::State& state) {
  std::string name = "pink floyd dark side of the moon live 1973.mp3";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExtractUniqueKeywords(name));
  }
}
BENCHMARK(BM_TokenizeFilename);

static void BM_TupleSerialize(benchmark::State& state) {
  pier::Tuple t({pier::Value(uint64_t{0xdeadbeef}),
                 pier::Value(std::string("madonna like a prayer.mp3")),
                 pier::Value(uint64_t{4 << 20}),
                 pier::Value(uint64_t{12345}), pier::Value(uint64_t{6346})});
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.Serialize());
  }
}
BENCHMARK(BM_TupleSerialize);

static void BM_TupleDeserialize(benchmark::State& state) {
  pier::Tuple t({pier::Value(uint64_t{0xdeadbeef}),
                 pier::Value(std::string("madonna like a prayer.mp3")),
                 pier::Value(uint64_t{4 << 20})});
  auto bytes = t.Serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pier::Tuple::Deserialize(bytes));
  }
}
BENCHMARK(BM_TupleDeserialize);

static void BM_ShjInsertProbe(benchmark::State& state) {
  // Steady-state SHJ throughput with a `range`-sized resident side.
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    pier::SymmetricHashJoin shj(0, 0);
    for (size_t i = 0; i < n; ++i) {
      shj.InsertRight(pier::Tuple({pier::Value(uint64_t{i})}));
    }
    state.ResumeTiming();
    for (size_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(
          shj.InsertLeft(pier::Tuple({pier::Value(rng.NextBelow(n))})));
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_ShjInsertProbe)->Arg(1000)->Arg(10000);

// ---------------------------------------------------------------------------
// Batched-pipeline benches. `legacy` replicates the seed's tuple
// representation and per-tuple codec: values deep-copy their strings, every
// stored/output tuple copies the whole row, every decode gets its own
// buffer and reader.
// ---------------------------------------------------------------------------
namespace legacy {

using LValue = std::variant<uint64_t, int64_t, double, std::string>;
using LTuple = std::vector<LValue>;

uint64_t HashOf(const LValue& v) {
  switch (v.index()) {
    case 0:
      return Mix64(std::get<uint64_t>(v));
    case 1:
      return Mix64(static_cast<uint64_t>(std::get<int64_t>(v)) ^ 0x11);
    case 3:
      return Fnv1a64(std::get<std::string>(v));
    default:
      return 0;
  }
}

/// The seed's SymmetricHashJoin: stored sides and join outputs are full
/// deep copies of the value vectors (strings included).
struct Shj {
  size_t left_col, right_col;
  std::unordered_multimap<uint64_t, LTuple> left_table, right_table;

  Shj(size_t l, size_t r) : left_col(l), right_col(r) {}

  static LTuple Concat(const LTuple& l, const LTuple& r) {
    LTuple vals = l;
    for (const auto& v : r) vals.push_back(v);
    return vals;
  }

  std::vector<LTuple> InsertLeft(LTuple t) {
    std::vector<LTuple> out;
    uint64_t h = HashOf(t[left_col]);
    auto [lo, hi] = right_table.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      if (it->second[right_col] == t[left_col]) {
        out.push_back(Concat(t, it->second));
      }
    }
    left_table.emplace(h, std::move(t));
    return out;
  }

  std::vector<LTuple> InsertRight(LTuple t) {
    std::vector<LTuple> out;
    uint64_t h = HashOf(t[right_col]);
    auto [lo, hi] = left_table.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      if (it->second[left_col] == t[right_col]) {
        out.push_back(Concat(it->second, t));
      }
    }
    right_table.emplace(h, std::move(t));
    return out;
  }
};

/// The seed's per-tuple decoder: std::string values, no interning.
Result<LTuple> Deserialize(const std::vector<uint8_t>& data) {
  BytesReader r(data);
  auto arity = r.GetVarint();
  if (!arity.ok()) return arity.status();
  LTuple values;
  values.reserve(static_cast<size_t>(arity.value()));
  for (uint64_t i = 0; i < arity.value(); ++i) {
    auto tag = r.GetU8();
    if (!tag.ok()) return tag.status();
    switch (static_cast<pier::ValueType>(tag.value())) {
      case pier::ValueType::kUint64: {
        auto v = r.GetVarint();
        if (!v.ok()) return v.status();
        values.emplace_back(v.value());
        break;
      }
      case pier::ValueType::kInt64: {
        auto v = r.GetVarint();
        if (!v.ok()) return v.status();
        values.emplace_back(static_cast<int64_t>(v.value()));
        break;
      }
      case pier::ValueType::kDouble: {
        auto v = r.GetDouble();
        if (!v.ok()) return v.status();
        values.emplace_back(v.value());
        break;
      }
      case pier::ValueType::kString: {
        auto v = r.GetString();
        if (!v.ok()) return v.status();
        values.emplace_back(std::move(v).value());
        break;
      }
      default:
        return Status::Corruption("unknown value type tag");
    }
  }
  return values;
}

}  // namespace legacy

// The SHJ workload of the keyword chain: the posting list of keyword A
// (fileID + filename payload) intersecting the posting list of keyword B,
// joined on fileID. Each side holds distinct fileIDs and roughly half the
// probes find their match — the shape of a two-term query intersection.
// Both tuple streams are materialized once up front (the engine decodes
// tuples once and then feeds them to the join), so the bench isolates the
// per-insert cost: a full row deep-copy (seed) vs a handle copy plus
// exact table reservation (batched pipeline — batch decode knows the
// cardinalities).
struct ShjWorkload {
  std::vector<std::pair<std::string, uint64_t>> lefts;   // (keyword, id)
  std::vector<std::pair<uint64_t, std::string>> rights;  // (id, filename)

  explicit ShjWorkload(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      rights.emplace_back(uint64_t{2 * i},  // even ids
                          "artist" + std::to_string(i % 97) +
                              " some longish track title " +
                              std::to_string(i) + ".mp3");
      // Probe ids cover evens and odds: ~50% of probes match.
      lefts.emplace_back("keyword" + std::to_string(i % 16), uint64_t{i});
    }
  }
};

static void BM_ShjInsertWithMatches_Legacy(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  ShjWorkload w(n);
  std::vector<legacy::LTuple> rights, lefts;
  for (auto& [id, name] : w.rights) rights.push_back(legacy::LTuple{id, name});
  for (auto& [kw, id] : w.lefts) lefts.push_back(legacy::LTuple{kw, id});
  for (auto _ : state) {
    legacy::Shj shj(1, 0);
    for (const auto& t : rights) {
      benchmark::DoNotOptimize(shj.InsertRight(t));  // deep copy in
    }
    for (const auto& t : lefts) {
      benchmark::DoNotOptimize(shj.InsertLeft(t));
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(2 * n));
}
BENCHMARK(BM_ShjInsertWithMatches_Legacy)->Arg(4096);

static void BM_ShjInsertWithMatches_SharedPayload(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  ShjWorkload w(n);
  std::vector<pier::Tuple> rights, lefts;
  for (auto& [id, name] : w.rights) {
    rights.push_back(pier::Tuple({pier::Value(id), pier::Value(name)}));
  }
  for (auto& [kw, id] : w.lefts) {
    lefts.push_back(pier::Tuple({pier::Value(kw), pier::Value(id)}));
  }
  for (auto _ : state) {
    pier::SymmetricHashJoin shj(1, 0);
    shj.Reserve(lefts.size(), rights.size());
    for (const auto& t : rights) {
      benchmark::DoNotOptimize(shj.InsertRight(t));  // refcount bump in
    }
    for (const auto& t : lefts) {
      benchmark::DoNotOptimize(shj.InsertLeft(t));
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(2 * n));
}
BENCHMARK(BM_ShjInsertWithMatches_SharedPayload)->Arg(4096);

/// A posting list the way the store holds it: one Item-shaped frame per
/// entry, every entry repeating the keyword column.
struct EncodedPostings {
  std::vector<std::vector<uint8_t>> frames;
  std::vector<uint8_t> image;  ///< TupleBatch image of the same frames.

  explicit EncodedPostings(size_t n) {
    pier::TupleBatch batch;
    for (size_t i = 0; i < n; ++i) {
      pier::Tuple t({pier::Value(std::string("madonna")),
                     pier::Value(uint64_t{i}),
                     pier::Value("madonna track " + std::to_string(i) +
                                 ".mp3"),
                     pier::Value(uint64_t{4 << 20})});
      frames.push_back(t.Serialize());
      batch.Add(std::move(t));
    }
    image = batch.Serialize();
  }
};

// Both deserialize benches model the Fetch receiver: the DHT reply body is
// copied into the callback (vector-of-frames before, one image now), then
// decoded. That is the per-call overhead the batch path collapses.
static void BM_TupleDeserialize_PerTuple(benchmark::State& state) {
  EncodedPostings p(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<std::vector<uint8_t>> values = p.frames;  // reply copy
    for (const auto& frame : values) {
      benchmark::DoNotOptimize(legacy::Deserialize(frame));
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_TupleDeserialize_PerTuple)->Arg(512);

static void BM_TupleDeserialize_Batch(benchmark::State& state) {
  EncodedPostings p(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<uint8_t> image = p.image;  // reply copy
    benchmark::DoNotOptimize(pier::TupleBatch::Deserialize(image));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_TupleDeserialize_Batch)->Arg(512);

static void BM_TupleSerialize_PerTuple(benchmark::State& state) {
  EncodedPostings p(static_cast<size_t>(state.range(0)));
  size_t dropped = 0;
  pier::TupleBatch batch =
      pier::TupleBatch::DeserializeLossy(p.image, &dropped);
  for (auto _ : state) {
    for (const auto& t : batch) {
      benchmark::DoNotOptimize(t.Serialize());
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_TupleSerialize_PerTuple)->Arg(512);

static void BM_TupleSerialize_Batch(benchmark::State& state) {
  EncodedPostings p(static_cast<size_t>(state.range(0)));
  size_t dropped = 0;
  pier::TupleBatch batch =
      pier::TupleBatch::DeserializeLossy(p.image, &dropped);
  for (auto _ : state) {
    benchmark::DoNotOptimize(batch.Serialize());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_TupleSerialize_Batch)->Arg(512);

/// Legacy-comparison benches measure message/hop contracts recorded before
/// the load-balanced routing layer; they pin the classic policy so the
/// owner location cache and congestion detours cannot skew their gated
/// values. The BM_Routing_* pair below measures the routing layer itself.
static dht::DhtOptions ClassicRoutingOpts(dht::DhtOptions dopts = {}) {
  dopts.routing_policy = dht::RoutingPolicyKind::kClassicChord;
  return dopts;
}

/// Shared scaffolding of the end-to-end network benches: a 10ms-latency
/// simulated network, a static DHT deployment, and one PierNode per DHT
/// node. All publish/fetch benches must measure the same topology.
struct BenchCluster {
  sim::SerialExecutor simulator;
  sim::Network network;
  dht::DhtDeployment dht;
  pier::PierMetrics metrics;
  std::vector<std::unique_ptr<pier::PierNode>> piers;

  explicit BenchCluster(size_t nodes,
                        dht::DhtOptions dopts = ClassicRoutingOpts())
      : network(&simulator,
                std::make_unique<sim::ConstantLatency>(
                    10 * sim::kMillisecond),
                7),
        dht(&network, nodes, dopts, 11) {
    for (size_t i = 0; i < dht.size(); ++i) {
      piers.push_back(
          std::make_unique<pier::PierNode>(dht.node(i), &metrics));
    }
  }
};

// Answer-fetch path: resolve a published answer set's Item tuples. The ids
// are grouped by resolved owner into one MultiGet scatter (FetchMany),
// costing one routed get per owner. run_bench.sh gates net_messages <= 308
// with all 192 items fetched.
static void BM_FetchItems_OwnerCoalesced(benchmark::State& state) {
  const size_t kItems = 192, kNodes = 16;
  uint64_t net_messages = 0, net_bytes = 0, fetched = 0;
  for (auto _ : state) {
    BenchCluster c(kNodes);
    auto& simulator = c.simulator;
    auto& network = c.network;
    auto& piers = c.piers;
    piersearch::Publisher publisher(piers[0].get());
    piersearch::PublishOptions popts;
    popts.inverted = false;  // Item tuples only — this is the fetch bench
    std::vector<piersearch::FileToPublish> files;
    for (size_t i = 0; i < kItems; ++i) {
      files.push_back(piersearch::FileToPublish{
          "fetchable track number " + std::to_string(i) + ".mp3", 1 << 20,
          static_cast<uint32_t>(i % kNodes), 6346});
    }
    std::vector<uint64_t> ids = publisher.PublishFiles(files, popts);
    piers[0]->FlushPublishQueues();
    simulator.Run();
    uint64_t base_msgs = network.metrics().total.messages;
    uint64_t base_bytes = network.metrics().total.bytes;
    std::vector<pier::Value> keys;
    for (uint64_t id : ids) keys.emplace_back(pier::Value(id));
    piers[1]->FetchMany(piersearch::ItemSchema(), std::move(keys),
                        [&](Status s, std::vector<pier::Tuple> tuples,
                            const pier::Completeness&) {
                          if (s.ok()) fetched += tuples.size();
                        });
    simulator.Run();
    net_messages += network.metrics().total.messages - base_msgs;
    net_bytes += network.metrics().total.bytes - base_bytes;
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(kItems));
  auto per_iter = [&](uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(state.iterations());
  };
  state.counters["net_messages"] = per_iter(net_messages);
  state.counters["net_bytes"] = per_iter(net_bytes);
  state.counters["fetched"] = per_iter(fetched);
}
BENCHMARK(BM_FetchItems_OwnerCoalesced)->Unit(benchmark::kMillisecond);

// Publish path under call-at-a-time workloads (the QRS snoop shape: one
// file per upcall): each file is its own Publisher call, and the standing
// rehash queues coalesce ACROSS calls into per-destination PutBatch
// messages. run_bench.sh gates net_messages <= 1399 with all 1270 tuples
// stored.
static void BM_PublishPath_StandingQueues(benchmark::State& state) {
  const size_t kFiles = 256, kNodes = 16;
  uint64_t net_messages = 0, net_bytes = 0, stored = 0;
  for (auto _ : state) {
    BenchCluster c(kNodes);
    auto& simulator = c.simulator;
    auto& network = c.network;
    auto& piers = c.piers;
    piersearch::Publisher publisher(piers[0].get());
    piersearch::PublishOptions popts;
    for (size_t i = 0; i < kFiles; ++i) {
      piersearch::FileToPublish f{
          "artist" + std::to_string(i % 20) + " snooped rare " +
              std::to_string(i) + ".mp3",
          1 << 20, static_cast<uint32_t>(i % kNodes), 6346};
      publisher.PublishFile(f.filename, f.size_bytes, f.address, f.port,
                            popts);
    }
    piers[0]->FlushPublishQueues();
    simulator.Run();
    net_messages += network.metrics().total.messages;
    net_bytes += network.metrics().total.bytes;
    for (size_t i = 0; i < c.dht.size(); ++i) {
      stored += c.dht.node(i)->store().TotalEntries(simulator.now());
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(kFiles));
  auto per_iter = [&](uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(state.iterations());
  };
  state.counters["net_messages"] = per_iter(net_messages);
  state.counters["net_bytes"] = per_iter(net_bytes);
  state.counters["stored"] = per_iter(stored);
}
BENCHMARK(BM_PublishPath_StandingQueues)->Unit(benchmark::kMillisecond);

// Answer fetch under replication: one FetchMany over a replicated item
// table. Replica peeling hops the remainder straight to the farthest
// in-arc replica, so one visit answers several owners' key ranges.
// run_bench.sh gates routed_hops <= 19 with all 192 items fetched.
static void BM_ReplicaFetch_ReplicaAware(benchmark::State& state) {
  const size_t kItems = 192, kNodes = 24;
  uint64_t routed_hops = 0, net_messages = 0, fetched = 0, peels = 0;
  for (auto _ : state) {
    dht::DhtOptions dopts;
    dopts.replication = 2;
    BenchCluster c(kNodes, ClassicRoutingOpts(dopts));
    auto& piers = c.piers;
    piersearch::Publisher publisher(piers[0].get());
    piersearch::PublishOptions popts;
    popts.inverted = false;
    std::vector<piersearch::FileToPublish> files;
    for (size_t i = 0; i < kItems; ++i) {
      files.push_back(piersearch::FileToPublish{
          "replicated track number " + std::to_string(i) + ".mp3", 1 << 20,
          static_cast<uint32_t>(i % kNodes), 6346});
    }
    std::vector<uint64_t> ids = publisher.PublishFiles(files, popts);
    piers[0]->FlushPublishQueues();
    c.simulator.Run();
    uint64_t base_hops = c.network.metrics().by_tag["dht.route"].messages;
    uint64_t base_msgs = c.network.metrics().total.messages;
    std::vector<pier::Value> keys;
    for (uint64_t id : ids) keys.emplace_back(pier::Value(id));
    piers[1]->FetchMany(piersearch::ItemSchema(), std::move(keys),
                        [&](Status s, std::vector<pier::Tuple> tuples,
                            const pier::Completeness&) {
                          if (s.ok()) fetched += tuples.size();
                        });
    c.simulator.Run();
    routed_hops +=
        c.network.metrics().by_tag["dht.route"].messages - base_hops;
    net_messages += c.network.metrics().total.messages - base_msgs;
    peels += c.dht.metrics().replica_peels;
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(kItems));
  auto per_iter = [&](uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(state.iterations());
  };
  state.counters["routed_hops"] = per_iter(routed_hops);
  state.counters["net_messages"] = per_iter(net_messages);
  state.counters["fetched"] = per_iter(fetched);
  state.counters["replica_peels"] = per_iter(peels);
}
BENCHMARK(BM_ReplicaFetch_ReplicaAware)->Unit(benchmark::kMillisecond);

// Publish-ack latency under the pressure-driven rehash flush policy.
// Bursts of call-at-a-time publishes (the QRS snoop shape) land on idle
// destinations, and each queue ships the moment the idle-path threshold
// fills instead of waiting out the flush interval. run_bench.sh gates
// mean_ack_latency_ms <= 45. Deterministic: simulated clock, constant
// latency.
static void BM_AdaptiveFlush_PressureDriven(benchmark::State& state) {
  const size_t kKeywords = 10, kPerKeyword = 16, kNodes = 16;
  double total_latency_ms = 0;
  uint64_t acked = 0, net_messages = 0, adaptive_flushes = 0;
  for (auto _ : state) {
    BenchCluster c(kNodes);
    // One keyword burst every 100ms so each burst meets a drained path.
    for (size_t k = 0; k < kKeywords; ++k) {
      c.simulator.ScheduleAfter(
          sim::kDriverHost, k * 100 * sim::kMillisecond, [&, k]() {
            for (uint64_t f = 0; f < kPerKeyword; ++f) {
              sim::SimTime sent = c.simulator.now();
              c.piers[0]->PublishBatch(
                  piersearch::InvertedSchema(),
                  {pier::Tuple({pier::Value("burstkw" + std::to_string(k)),
                                pier::Value(f)})},
                  /*expiry=*/0, [&, sent](Status s) {
                    if (!s.ok()) return;
                    total_latency_ms +=
                        static_cast<double>(c.simulator.now() - sent) /
                        static_cast<double>(sim::kMillisecond);
                    ++acked;
                  });
            }
          });
    }
    c.simulator.Run();
    net_messages += c.network.metrics().total.messages;
    adaptive_flushes += c.metrics.adaptive_flushes;
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(kKeywords * kPerKeyword));
  state.counters["mean_ack_latency_ms"] =
      acked == 0 ? 0.0 : total_latency_ms / static_cast<double>(acked);
  state.counters["net_messages"] =
      static_cast<double>(net_messages) /
      static_cast<double>(state.iterations());
  state.counters["adaptive_flushes"] =
      static_cast<double>(adaptive_flushes) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_AdaptiveFlush_PressureDriven)->Unit(benchmark::kMillisecond);

// Slow-owner backpressure: a 50-chunk join stream into a stage owner with
// a 20ms receive delay. Credit-paced, the producer holds chunks until the
// owner acks, bounding the peak in-flight bytes at the owner near the
// 2-chunk credit window instead of the full entry list. run_bench.sh gates
// peak_inflight_bytes <= 1918 with all 400 results returned.
static void BM_CreditJoin_Credited(benchmark::State& state) {
  const size_t kNodes = 16, kAlpha = 400, kBeta = 500;
  uint64_t peak_bytes = 0, results = 0, stalls = 0;
  for (auto _ : state) {
    BenchCluster c(kNodes);
    pier::BatchOptions bopts;
    bopts.max_stage_entries = 8;
    bopts.stage_credit_chunks = 2;
    // This bench measures the FIXED window contract (floor = ceiling); the
    // service-rate derived window would deepen it on the stale-fast EWMA.
    bopts.max_stage_credit_chunks = 2;
    for (auto& p : c.piers) p->set_batch_options(bopts);
    auto publish = [&](const char* kw, uint64_t lo, uint64_t hi) {
      std::vector<pier::Tuple> tuples;
      for (uint64_t f = lo; f < hi; ++f) {
        tuples.push_back(pier::Tuple({pier::Value(std::string(kw)),
                                      pier::Value(f)}));
      }
      c.piers[0]->PublishBatch(piersearch::InvertedSchema(),
                               std::move(tuples));
      c.piers[0]->FlushPublishQueues();
      c.simulator.Run();
    };
    publish("alpha", 0, kAlpha);
    publish("beta", 0, kBeta);
    dht::Key beta_key = HashCombine(
        Fnv1a64("inverted"), pier::Value(std::string("beta")).Hash());
    sim::HostId slow = c.dht.ExpectedOwner(beta_key)->host();
    c.network.SetProcessingDelay(slow, 20 * sim::kMillisecond);
    c.network.ResetLoadWatermarks();
    pier::QueryPlan join =
        pier::PlanBuilder()
            .IndexScan("inverted", pier::Value(std::string("alpha")))
            .RehashJoin("inverted", pier::Value(std::string("beta")))
            .Build();
    c.piers[3]->ExecutePlan(std::move(join),
                            [&](Status s, std::vector<pier::Tuple> rows,
                                const pier::Completeness&) {
                              if (s.ok()) results += rows.size();
                            });
    c.simulator.Run();
    peak_bytes += c.network.LoadOf(slow).peak_in_flight_bytes;
    stalls += c.metrics.credits_stalled;
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(kAlpha));
  auto per_iter = [&](uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(state.iterations());
  };
  state.counters["peak_inflight_bytes"] = per_iter(peak_bytes);
  state.counters["results"] = per_iter(results);
  state.counters["credits_stalled"] = per_iter(stalls);
}
BENCHMARK(BM_CreditJoin_Credited)->Unit(benchmark::kMillisecond);

// Declarative-plan execution: a published library and 25 two-term
// searches compiled to QueryPlans and run through ExecutePlan.
// run_bench.sh gates net_messages <= 121 with all 100 results returned.
static void BM_PlanExec_PlanCompiled(benchmark::State& state) {
  const size_t kFiles = 400, kNodes = 16, kQueries = 25;
  uint64_t net_messages = 0, net_bytes = 0, results = 0;
  for (auto _ : state) {
    BenchCluster c(kNodes);
    piersearch::Publisher publisher(c.piers[0].get());
    piersearch::PublishOptions popts;
    std::vector<piersearch::FileToPublish> files;
    for (size_t i = 0; i < kFiles; ++i) {
      files.push_back(piersearch::FileToPublish{
          "artist" + std::to_string(i % 20) + " album" +
              std::to_string(i % 50) + " track" + std::to_string(i) + ".mp3",
          1 << 20, static_cast<uint32_t>(i % kNodes), 6346});
    }
    publisher.PublishFiles(files, popts);
    c.piers[0]->FlushPublishQueues();
    c.simulator.Run();
    uint64_t base_msgs = c.network.metrics().total.messages;
    uint64_t base_bytes = c.network.metrics().total.bytes;
    piersearch::SearchEngine engine(c.piers[1].get());
    piersearch::SearchOptions sopts;
    sopts.fetch_items = false;
    for (size_t q = 0; q < kQueries; ++q) {
      std::string a = "artist" + std::to_string(q % 20);
      std::string b = "album" + std::to_string(q % 50);
      engine.Search(a + " " + b, sopts,
                    [&](Status s, auto hits, const pier::Completeness&) {
                      if (s.ok()) results += hits.size();
                    });
    }
    c.simulator.Run();
    net_messages += c.network.metrics().total.messages - base_msgs;
    net_bytes += c.network.metrics().total.bytes - base_bytes;
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(kQueries));
  auto per_iter = [&](uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(state.iterations());
  };
  state.counters["net_messages"] = per_iter(net_messages);
  state.counters["net_bytes"] = per_iter(net_bytes);
  state.counters["results"] = per_iter(results);
}
BENCHMARK(BM_PlanExec_PlanCompiled)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Routing-layer benches (owner location cache + congestion-biased finger
// choice). SteadyState: the same fetch/publish workload repeated against
// warm destinations — with the location cache every routed message
// converges to ~one hop, so the "dht.route" message count (one per overlay
// hop) collapses vs the classic ring walk at identical answers. HotSpot:
// a burst of gets whose greedy first hop is a buried node — the
// congestion-aware policy detours around it, cutting delivery latency at
// identical answers. Both gated in scripts/run_bench.sh --check.
// ---------------------------------------------------------------------------
static void RoutingSteadyStateRun(benchmark::State& state, bool cached) {
  const size_t kItems = 64, kNodes = 64, kRounds = 3;
  uint64_t routed_hops = 0, fetched = 0, cache_hits = 0;
  for (auto _ : state) {
    dht::DhtOptions dopts;
    dopts.routing_policy = cached
                               ? dht::RoutingPolicyKind::kCongestionAware
                               : dht::RoutingPolicyKind::kClassicChord;
    BenchCluster c(kNodes, dopts);
    piersearch::Publisher publisher(c.piers[0].get());
    piersearch::PublishOptions popts;
    popts.inverted = false;
    std::vector<piersearch::FileToPublish> files;
    for (size_t i = 0; i < kItems; ++i) {
      files.push_back(piersearch::FileToPublish{
          "steady state track " + std::to_string(i) + ".mp3", 1 << 20,
          static_cast<uint32_t>(i % kNodes), 6346});
    }
    std::vector<uint64_t> ids = publisher.PublishFiles(files, popts);
    c.piers[0]->FlushPublishQueues();
    c.simulator.Run();
    std::vector<pier::Value> keys;
    for (uint64_t id : ids) keys.emplace_back(pier::Value(id));
    bool count_fetches = false;
    auto fetch_round = [&]() {
      std::vector<pier::Value> round_keys = keys;
      c.piers[1]->FetchMany(piersearch::ItemSchema(), std::move(round_keys),
                            [&](Status s, std::vector<pier::Tuple> tuples,
                                const pier::Completeness&) {
                              if (s.ok() && count_fetches) {
                                fetched += tuples.size();
                              }
                            });
      c.simulator.Run();
    };
    auto publish_round = [&]() {
      // Soft-state refresh: the same items re-published (dedup at the
      // owner refreshes expiry) — the standing-rehash-queue steady state.
      publisher.PublishFiles(files, popts);
      c.piers[0]->FlushPublishQueues();
      c.simulator.Run();
    };
    // Warmup round (uncounted): replies and hints teach the fetcher's and
    // publisher's owner caches. The classic variant learns nothing.
    fetch_round();
    publish_round();
    uint64_t base = c.network.metrics().by_tag["dht.route"].messages;
    count_fetches = true;
    for (size_t r = 0; r < kRounds; ++r) {
      publish_round();
      fetch_round();
    }
    routed_hops += c.network.metrics().by_tag["dht.route"].messages - base;
    cache_hits += c.dht.metrics().route_cache_hits;
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(kItems * kRounds));
  auto per_iter = [&](uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(state.iterations());
  };
  state.counters["routed_hops"] = per_iter(routed_hops);
  state.counters["fetched"] = per_iter(fetched);
  state.counters["route_cache_hits"] = per_iter(cache_hits);
}

static void BM_Routing_SteadyStateClassic(benchmark::State& state) {
  RoutingSteadyStateRun(state, /*cached=*/false);
}
BENCHMARK(BM_Routing_SteadyStateClassic)->Unit(benchmark::kMillisecond);

static void BM_Routing_SteadyStateCached(benchmark::State& state) {
  RoutingSteadyStateRun(state, /*cached=*/true);
}
BENCHMARK(BM_Routing_SteadyStateCached)->Unit(benchmark::kMillisecond);

/// (origin index, key) pairs whose greedy route enters the hot node as a
/// genuinely bypassable INTERMEDIATE hop: the origin's classic first hop
/// is the hot node, another finger also makes ring progress, and several
/// ring members sit strictly between the hot node and the key so other
/// nodes' fingers can leap past it. (A key in the arc right after the hot
/// node is unroutable around — in Chord the owner's predecessor is on
/// every path.) The ring layout is seed-deterministic, so the scan runs
/// once on a scratch cluster and applies to every measured iteration.
static const std::vector<std::pair<size_t, dht::Key>>& HotSpotScenarios(
    size_t nodes, size_t hot_index, size_t want) {
  static std::vector<std::pair<size_t, dht::Key>> scenarios;
  static size_t memo_nodes = 0, memo_hot = 0, memo_want = 0;
  if (!scenarios.empty()) {
    // The memo is keyed on one topology; a second hot-spot bench with
    // different parameters must not silently reuse it. A live check, not
    // an assert — the measured binary is a Release (NDEBUG) build.
    if (nodes != memo_nodes || hot_index != memo_hot || want != memo_want) {
      fprintf(stderr,
              "HotSpotScenarios: memo reused with different parameters\n");
      std::abort();
    }
    return scenarios;
  }
  memo_nodes = nodes;
  memo_hot = hot_index;
  memo_want = want;
  BenchCluster c(nodes);
  dht::DhtNode* hot_node = c.dht.node(hot_index);
  sim::HostId hot = hot_node->host();
  for (uint64_t i = 1; scenarios.size() < want && i < 50000; ++i) {
    dht::Key k = Mix64(i);
    if (c.dht.ExpectedOwner(k)->host() == hot) continue;
    size_t between = 0;
    for (size_t n = 0; n < c.dht.size(); ++n) {
      if (dht::InOpenOpen(hot_node->id(), k, c.dht.node(n)->id())) ++between;
    }
    if (between < 3) continue;
    for (size_t oi = 0; oi < c.dht.size(); ++oi) {
      if (oi == hot_index) continue;
      auto& table = c.dht.node(oi)->routing();
      if (table.IsOwner(k)) continue;
      if (table.NextHop(k).host != hot) continue;
      std::vector<dht::NodeInfo> cands;
      table.AppendProgressCandidates(k, &cands);
      bool has_alternative = false;
      for (const auto& cand : cands) {
        if (cand.host != hot) has_alternative = true;
      }
      if (has_alternative) {
        scenarios.emplace_back(oi, k);
        break;
      }
    }
  }
  return scenarios;
}

static void RoutingHotSpotRun(benchmark::State& state, bool aware) {
  const size_t kNodes = 32, kHotIndex = 13, kKeys = 24;
  const auto& scenarios = HotSpotScenarios(kNodes, kHotIndex, kKeys);
  double total_latency_ms = 0;
  uint64_t answered = 0, detours = 0;
  for (auto _ : state) {
    dht::DhtOptions dopts;
    dopts.routing_policy = aware
                               ? dht::RoutingPolicyKind::kCongestionAware
                               : dht::RoutingPolicyKind::kClassicChord;
    dopts.owner_location_cache = false;  // isolate the finger-choice effect
    BenchCluster c(kNodes, dopts);
    sim::HostId hot = c.dht.node(kHotIndex)->host();
    for (const auto& [oi, k] : scenarios) c.dht.node(5)->Put("ns", k, {1});
    c.simulator.Run();
    // Bury the hot node (service time 20 wire-hops deep), then fire the
    // whole get burst at once: classic pays the hot node's service delay
    // on every route; aware routes around it on spare fingers.
    c.network.SetProcessingDelay(hot, 200 * sim::kMillisecond);
    for (const auto& [oi, k] : scenarios) {
      sim::SimTime sent = c.simulator.now();
      c.dht.node(oi)->Get("ns", k, [&, sent](Status s, auto values) {
        if (s.ok() && !values.empty()) {
          ++answered;
          total_latency_ms +=
              static_cast<double>(c.simulator.now() - sent) /
              static_cast<double>(sim::kMillisecond);
        }
      });
    }
    c.simulator.Run();
    detours += c.dht.metrics().congestion_detours;
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(kKeys));
  state.counters["mean_get_latency_ms"] =
      answered == 0 ? 0.0
                    : total_latency_ms / static_cast<double>(answered);
  state.counters["answered"] =
      static_cast<double>(answered) / static_cast<double>(state.iterations());
  state.counters["congestion_detours"] =
      static_cast<double>(detours) / static_cast<double>(state.iterations());
}

static void BM_Routing_HotSpotClassic(benchmark::State& state) {
  RoutingHotSpotRun(state, /*aware=*/false);
}
BENCHMARK(BM_Routing_HotSpotClassic)->Unit(benchmark::kMillisecond);

static void BM_Routing_HotSpotDetour(benchmark::State& state) {
  RoutingHotSpotRun(state, /*aware=*/true);
}
BENCHMARK(BM_Routing_HotSpotDetour)->Unit(benchmark::kMillisecond);

static void BM_ChordNextHop(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  std::vector<dht::NodeInfo> members;
  for (size_t i = 0; i < n; ++i) {
    members.push_back({rng.Next(), static_cast<sim::HostId>(i)});
  }
  std::sort(members.begin(), members.end(),
            [](auto& a, auto& b) { return a.id < b.id; });
  dht::ChordRouting table(members[n / 2]);
  table.BuildStatic(members);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.NextHop(rng.Next()));
  }
}
BENCHMARK(BM_ChordNextHop)->Arg(1024)->Arg(16384);

static void BM_BambooNextHop(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<dht::NodeInfo> members;
  for (size_t i = 0; i < n; ++i) {
    members.push_back({rng.Next(), static_cast<sim::HostId>(i)});
  }
  std::sort(members.begin(), members.end(),
            [](auto& a, auto& b) { return a.id < b.id; });
  dht::BambooRouting table(members[n / 2]);
  table.BuildStatic(members);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.NextHop(rng.Next()));
  }
}
BENCHMARK(BM_BambooNextHop)->Arg(1024)->Arg(16384);

// ---------------------------------------------------------------------------
// Churn scenarios (paper Section 7's recall-under-flux methodology): a
// maintained DHT at replication 3 is driven through scripted membership
// churn by a FaultPlan timeline, and the gates in run_bench.sh --check
// hold recall against the stable-ring answer set and the restoration of
// every surviving key range to full replication. All three scenarios are
// counted (not timed) and seed-deterministic.

/// Maintained cluster + fault plan + churn driver for the churn benches.
/// Declaration order matters: the plan must outlive the network that
/// consults it and the driver that counts into it.
struct ChurnBench {
  static constexpr size_t kReplication = 3;
  static constexpr char kNs[] = "churn";

  sim::SerialExecutor simulator;
  sim::FaultPlan plan;
  sim::Network network;
  dht::DhtDeployment dht;
  dht::ChurnDriver driver;
  std::vector<dht::Key> keys;

  ChurnBench(size_t nodes, uint64_t churn_seed)
      : plan(churn_seed ^ 0xC0FFEEull),
        network(&simulator,
                std::make_unique<sim::ConstantLatency>(10 * sim::kMillisecond),
                7),
        dht(&network, nodes, ChurnOpts(), 11),
        driver(&dht, churn_seed, &plan) {
    network.set_fault_plan(&plan);
  }

  static dht::DhtOptions ChurnOpts() {
    dht::DhtOptions dopts;
    dopts.replication = kReplication;
    dopts.maintenance = true;
    return dopts;
  }

  /// Publishes `count` keys through the bootstrap node and settles.
  void Publish(size_t count) {
    for (size_t i = 0; i < count; ++i) {
      keys.push_back((i + 1) * 0x9E3779B97F4A7C15ull);
      dht.node(0)->Put(kNs, keys.back(), {uint8_t(i), uint8_t(i >> 8), 3}, 0,
                       nullptr);
    }
    simulator.RunFor(10 * sim::kSecond);
  }

  dht::DhtNode* NodeByHost(sim::HostId host) {
    for (size_t i = 0; i < dht.size(); ++i) {
      if (dht.node(i)->host() == host) return dht.node(i);
    }
    return nullptr;
  }

  /// Live holders of `k` among its current owner and replica targets.
  size_t LiveCopies(dht::Key k) {
    dht::DhtNode* owner = dht.ExpectedOwner(k);
    if (owner == nullptr) return 0;
    size_t copies = owner->store().Has(kNs, k, simulator.now()) ? 1 : 0;
    for (const auto& r : owner->routing().ReplicaTargets(kReplication - 1)) {
      dht::DhtNode* holder = NodeByHost(r.host);
      if (holder != nullptr && holder->joined() &&
          holder->store().Has(kNs, k, simulator.now())) {
        ++copies;
      }
    }
    return copies;
  }

  /// True when some live node still stores `k` — the key survived the
  /// failure even if the replication floor is temporarily broken.
  bool Survives(dht::Key k) {
    for (size_t i = 0; i < dht.size(); ++i) {
      dht::DhtNode* n = dht.node(i);
      if (n->joined() && n->store().Has(kNs, k, simulator.now())) return true;
    }
    return false;
  }
};

// Sustained churn at the paper-scale rate (1% of the ring per simulated
// minute, joins and crashes alternating) while a surviving node keeps
// querying the published key set. Gate: recall within epsilon of the
// stable-ring answer set (every key was acked before churn started).
static void BM_Churn_SustainedRecall(benchmark::State& state) {
  const size_t kNodes = 48, kKeys = 120, kPerTick = 5;
  const sim::SimTime kWindow = 6 * sim::kMinute;
  const double kEventsPerMinute = kNodes * 0.01;  // 1%/min
  uint64_t asked = 0, answered = 0, crashes = 0, joins = 0, retries = 0;
  for (auto _ : state) {
    ChurnBench c(kNodes, 606);
    c.Publish(kKeys);
    c.driver.Schedule(sim::FaultPlan::SustainedChurn(
        c.simulator.now(), kWindow, kEventsPerMinute, 909));
    // Every 2s, fetch a rotating window of keys from the bootstrap node
    // (which the driver never crashes).
    size_t tick = 0;
    for (sim::SimTime t = c.simulator.now() + 2 * sim::kSecond;
         t < c.simulator.now() + kWindow; t += 2 * sim::kSecond, ++tick) {
      c.simulator.ScheduleAt(
          sim::kDriverHost, t, [&c, &asked, &answered, tick] {
            for (size_t j = 0; j < kPerTick; ++j) {
              dht::Key k = c.keys[(tick * kPerTick + j) % c.keys.size()];
              ++asked;
              c.dht.node(0)->Get(ChurnBench::kNs, k,
                                 [&answered](Status s, auto values) {
                                   if (s.ok() && !values.empty()) ++answered;
                                 });
            }
          });
    }
    // The window plus one full get deadline so every in-flight query
    // resolves before the harness is torn down.
    c.simulator.RunFor(kWindow + 15 * sim::kSecond);
    crashes += c.driver.stats().crashes;
    joins += c.driver.stats().joins;
    retries += c.dht.metrics().get_retries;
  }
  state.SetItemsProcessed(int64_t(asked));
  state.counters["recall_permille"] =
      asked == 0 ? 0.0 : 1000.0 * static_cast<double>(answered) /
                             static_cast<double>(asked);
  auto per_iter = [&](uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(state.iterations());
  };
  state.counters["churn_crashes"] = per_iter(crashes);
  state.counters["churn_joins"] = per_iter(joins);
  state.counters["get_retries"] = per_iter(retries);
}
BENCHMARK(BM_Churn_SustainedRecall)->Unit(benchmark::kMillisecond);

// Flash-crowd join: 10% of the ring arrives within one simulated minute.
// Every key range must return to full replication within the bounded
// repair window (stabilize adoption + periodic re-sync rounds).
static void BM_Churn_FlashCrowdRepair(benchmark::State& state) {
  const size_t kNodes = 40, kJoins = 4, kKeys = 100;
  uint64_t full_runs = 0, resync_rounds = 0, resync_entries = 0;
  for (auto _ : state) {
    ChurnBench c(kNodes, 1212);
    c.Publish(kKeys);
    c.driver.Schedule(sim::FaultPlan::FlashCrowdJoin(c.simulator.now(),
                                                     kJoins, sim::kMinute));
    // One minute of arrivals, then a fixed repair window (60 re-sync
    // cadences) — the bounded-rounds guarantee under test.
    c.simulator.RunFor(sim::kMinute + 60 * sim::kSecond);
    bool full = true;
    for (dht::Key k : c.keys) {
      if (c.LiveCopies(k) != ChurnBench::kReplication) full = false;
    }
    if (full) ++full_runs;
    resync_rounds += c.dht.metrics().resync_rounds;
    resync_entries += c.dht.metrics().resync_entries;
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(kKeys));
  state.counters["full_replication"] =
      full_runs == static_cast<uint64_t>(state.iterations()) ? 1.0 : 0.0;
  auto per_iter = [&](uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(state.iterations());
  };
  state.counters["resync_rounds"] = per_iter(resync_rounds);
  state.counters["resync_entries"] = per_iter(resync_entries);
}
BENCHMARK(BM_Churn_FlashCrowdRepair)->Unit(benchmark::kMillisecond);

// Correlated mass-leave: a quarter of the ring crashes at the same
// instant. Every SURVIVING key (at least one live copy the moment after
// the crash) must be restored to full replication within the bounded
// repair window; keys whose whole replica set died are reported, not
// gated (no protocol can restore them).
static void BM_Churn_MassLeaveRepair(benchmark::State& state) {
  const size_t kNodes = 40, kCrashes = 10, kKeys = 100;
  uint64_t surviving = 0, restored = 0, lost = 0;
  for (auto _ : state) {
    ChurnBench c(kNodes, 3434);
    c.Publish(kKeys);
    c.driver.Schedule(sim::FaultPlan::MassLeave(
        c.simulator.now() + sim::kSecond, kCrashes));
    // Just past the crash instant: snapshot which keys survived at all.
    c.simulator.RunFor(1100 * sim::kMillisecond);
    std::vector<dht::Key> survivors;
    for (dht::Key k : c.keys) {
      if (c.Survives(k)) survivors.push_back(k);
      else ++lost;
    }
    surviving += survivors.size();
    // Fixed repair window: ring repair around 25% dead plus re-sync.
    c.simulator.RunFor(60 * sim::kSecond);
    for (dht::Key k : survivors) {
      if (c.LiveCopies(k) == ChurnBench::kReplication) ++restored;
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(kKeys));
  state.counters["surviving_keys"] =
      static_cast<double>(surviving) / static_cast<double>(state.iterations());
  state.counters["lost_keys"] =
      static_cast<double>(lost) / static_cast<double>(state.iterations());
  state.counters["restored_permille"] =
      surviving == 0 ? 0.0 : 1000.0 * static_cast<double>(restored) /
                                 static_cast<double>(surviving);
}
BENCHMARK(BM_Churn_MassLeaveRepair)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Partition tolerance (partition_tolerance gates in run_bench.sh --check):
// a scheduled split-brain window must heal back into ONE oracle-clean ring
// with >= 98% recall of the pre-split answer set, and a durable restart
// must re-ship at least 5x fewer re-sync bytes than an amnesiac restart of
// the SAME node in the SAME scenario at identical final answers. All
// quantities are counted under fixed seeds.

// Half the ring is unreachable from the other half for one simulated
// minute; both sides detect, evict, and repair into per-side rings. After
// the heal, remembered-peer reconciliation probes must knit the rings back
// together (merge rounds, epoch fencing, replica re-sync) with no data
// loss the gate can see.
static void BM_Partition_SplitBrainHeal(benchmark::State& state) {
  const size_t kNodes = 32, kKeys = 100;
  uint64_t asked = 0, answered = 0, clean_runs = 0;
  uint64_t probes = 0, rounds = 0, heals = 0, drops = 0, stale = 0;
  for (auto _ : state) {
    ChurnBench c(kNodes, 2468);
    c.Publish(kKeys);
    dht::RingOracle oracle(&c.dht);
    for (dht::Key k : c.keys) oracle.TrackKey(ChurnBench::kNs, k);

    sim::FaultPlan::PartitionWindow w;
    for (size_t i = kNodes / 2; i < kNodes; ++i) {
      w.groups[c.dht.node(i)->host()] = 1;
    }
    w.start = c.simulator.now() + 5 * sim::kSecond;
    w.heal_time = w.start + sim::kMinute;
    c.plan.AddPartitionWindow(w);

    // Through the split, past the heal, and enough quiet time for the
    // low-cadence reconcile probes plus re-sync to converge.
    c.simulator.RunFor(5 * sim::kMinute);

    if (oracle.Check(c.simulator.now()).clean()) ++clean_runs;
    for (dht::Key k : c.keys) {
      ++asked;
      // Probe from the minority side: its view is the one the merge had
      // to repair.
      c.dht.node(kNodes - 1)->Get(ChurnBench::kNs, k,
                                  [&answered](Status s, auto values) {
                                    if (s.ok() && !values.empty()) ++answered;
                                  });
    }
    c.simulator.RunFor(15 * sim::kSecond);

    probes += c.dht.metrics().merge_probes;
    rounds += c.dht.metrics().merge_rounds;
    heals += c.dht.metrics().partition_heals;
    stale += c.dht.metrics().route_cache_stale;
    drops += c.plan.counters().partition_drops;
  }
  state.SetItemsProcessed(int64_t(asked));
  state.counters["recall_permille"] =
      asked == 0 ? 0.0 : 1000.0 * static_cast<double>(answered) /
                             static_cast<double>(asked);
  state.counters["oracle_clean"] =
      clean_runs == static_cast<uint64_t>(state.iterations()) ? 1.0 : 0.0;
  auto per_iter = [&](uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(state.iterations());
  };
  state.counters["merge_probes"] = per_iter(probes);
  state.counters["merge_rounds"] = per_iter(rounds);
  state.counters["partition_heals"] = per_iter(heals);
  state.counters["partition_drops"] = per_iter(drops);
  state.counters["route_cache_stale"] = per_iter(stale);
}
BENCHMARK(BM_Partition_SplitBrainHeal)->Unit(benchmark::kMillisecond);

/// One crash-then-restart pass over a fixed scenario; the durable flag is
/// the ONLY difference between the recovery bench and its amnesia
/// baseline, so their byte counters are directly comparable.
struct RestartOutcome {
  uint64_t resync_bytes = 0;
  uint64_t answered = 0;
};

static RestartOutcome RunRestartScenario(bool durable) {
  const size_t kNodes = 24, kKeys = 150;
  ChurnBench c(kNodes, 1357);
  c.Publish(kKeys);
  c.simulator.RunFor(20 * sim::kSecond);

  dht::DhtNode* victim = c.dht.node(5);
  victim->Crash();
  c.simulator.RunFor(sim::kMinute);  // ring repairs; floor is restored

  uint64_t bytes_before = c.dht.metrics().resync_bytes;
  victim->Restart(c.dht.node(0)->host(), durable);
  c.simulator.RunFor(2 * sim::kMinute);

  RestartOutcome out;
  out.resync_bytes = c.dht.metrics().resync_bytes - bytes_before;
  for (dht::Key k : c.keys) {
    c.dht.node(1)->Get(ChurnBench::kNs, k,
                       [&out](Status s, auto values) {
                         if (s.ok() && !values.empty()) ++out.answered;
                       });
  }
  c.simulator.RunFor(15 * sim::kSecond);
  return out;
}

// Durable restart: the node reboots with its crash-time store, so the
// digest-driven handover finds almost nothing diverged and re-ships only
// the writes it missed while down.
static void BM_Partition_RestartRecovery(benchmark::State& state) {
  const size_t kKeys = 150;
  uint64_t bytes = 0, answered = 0;
  for (auto _ : state) {
    RestartOutcome out = RunRestartScenario(/*durable=*/true);
    bytes += out.resync_bytes;
    answered += out.answered;
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(kKeys));
  auto per_iter = [&](uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(state.iterations());
  };
  state.counters["resync_bytes"] = per_iter(bytes);
  state.counters["recall_permille"] =
      1000.0 * per_iter(answered) / static_cast<double>(kKeys);
}
BENCHMARK(BM_Partition_RestartRecovery)->Unit(benchmark::kMillisecond);

// Amnesia baseline: same node, same crash, same rejoin — but the disk was
// lost, so the whole arc must be re-pulled. The --check gate holds the
// durable run to at least 5x fewer re-sync bytes at identical recall.
static void BM_Partition_AmnesiaBaseline(benchmark::State& state) {
  const size_t kKeys = 150;
  uint64_t bytes = 0, answered = 0;
  for (auto _ : state) {
    RestartOutcome out = RunRestartScenario(/*durable=*/false);
    bytes += out.resync_bytes;
    answered += out.answered;
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(kKeys));
  auto per_iter = [&](uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(state.iterations());
  };
  state.counters["resync_bytes"] = per_iter(bytes);
  state.counters["recall_permille"] =
      1000.0 * per_iter(answered) / static_cast<double>(kKeys);
}
BENCHMARK(BM_Partition_AmnesiaBaseline)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Fault-tolerant query plane (query_robustness gates in run_bench.sh
// --check): stage failover must recover a crashed owner's answers within
// the deadline, hedged fetches must cut worst-round latency under a
// fail-slow owner at identical answers, and overload admission must shed
// as a bounded, labeled refusal with exact partial accounting. All
// quantities are counted or read off the sim clock under fixed seeds.

namespace robust {

constexpr size_t kNodes = 16;

/// Maintained replication-3 cluster with a fault plan — the query-plane
/// robustness features only engage against a ring that can fail over.
struct RobustCluster {
  sim::SerialExecutor simulator;
  sim::FaultPlan faults{99};
  sim::Network network;
  dht::DhtDeployment dht;
  pier::PierMetrics metrics;
  std::vector<std::unique_ptr<pier::PierNode>> piers;

  explicit RobustCluster(const pier::BatchOptions& bopts)
      : network(&simulator,
                std::make_unique<sim::ConstantLatency>(5 * sim::kMillisecond),
                31),
        dht(&network, kNodes, Opts(), 777) {
    network.set_fault_plan(&faults);
    for (size_t i = 0; i < dht.size(); ++i) {
      piers.push_back(std::make_unique<pier::PierNode>(dht.node(i), &metrics));
      piers.back()->set_batch_options(bopts);
    }
  }

  static dht::DhtOptions Opts() {
    dht::DhtOptions dopts;
    dopts.replication = 3;
    dopts.maintenance = true;
    return dopts;
  }

  dht::DhtNode* OwnerOf(const std::string& ns, const pier::Value& key) {
    return dht.ExpectedOwner(HashCombine(Fnv1a64(ns), key.Hash()));
  }

  void PublishPostings(const std::string& kw, uint64_t count) {
    std::vector<pier::Tuple> tuples;
    for (uint64_t f = 0; f < count; ++f) {
      tuples.push_back(pier::Tuple({pier::Value(kw), pier::Value(f)}));
    }
    piers[0]->PublishBatch(piersearch::InvertedSchema(), std::move(tuples));
    piers[0]->FlushPublishQueues();
    simulator.RunFor(10 * sim::kSecond);
  }

  size_t SurvivorIndex(dht::DhtNode* excluded) {
    for (size_t i = 0; i < dht.size(); ++i) {
      if (dht.node(i) != excluded && dht.node(i)->joined()) return i;
    }
    return 0;
  }
};

}  // namespace robust

// Crash-failover recall: four keywords with pairwise-distinct stage-0
// owners, each owner crashed while its query's dispatch is on the wire.
// The no-progress watchdog must re-dispatch to the replica-holding
// successor and recover the answers within the per-query deadline.
// Gates: recall_permille >= 950, failovers >= 1, deadline_met == 1.
static void BM_Robust_CrashFailoverRecall(benchmark::State& state) {
  const uint64_t kPostings = 100;
  const sim::SimTime kDeadline = 20 * sim::kSecond;
  uint64_t asked = 0, answered = 0, failovers = 0, missed_deadline = 0;
  for (auto _ : state) {
    pier::BatchOptions bopts;  // default failover budget
    robust::RobustCluster c(bopts);
    // Keywords with pairwise-distinct owners so each round kills a fresh
    // node (candidates hashed against this ring's fixed seed).
    std::vector<std::string> kws;
    std::vector<dht::DhtNode*> owners;
    for (const char* kw : {"alpha", "beta", "gamma", "delta", "epsilon",
                           "zeta", "theta", "kappa"}) {
      dht::DhtNode* o = c.OwnerOf("inverted", pier::Value(kw));
      if (o == nullptr || o == c.dht.node(0)) continue;
      bool fresh = true;
      for (dht::DhtNode* seen : owners) fresh = fresh && seen != o;
      if (!fresh) continue;
      kws.push_back(kw);
      owners.push_back(o);
      if (kws.size() == 4) break;
    }
    for (const std::string& kw : kws) c.PublishPostings(kw, kPostings);
    for (const std::string& kw : kws) {
      // The ring has shifted under previous crashes: re-resolve the owner.
      dht::DhtNode* owner = c.OwnerOf("inverted", pier::Value(kw));
      if (owner == nullptr) continue;
      size_t got = 0;
      bool fired = false;
      asked += kPostings;
      c.piers[c.SurvivorIndex(owner)]->ExecutePlan(
          pier::PlanBuilder().IndexScan("inverted", pier::Value(kw)).Build(),
          [&](Status s, std::vector<pier::Tuple> rows,
              const pier::Completeness&) {
            (void)s;
            fired = true;
            got = rows.size();
          },
          kDeadline);
      c.simulator.ScheduleAfter(sim::kDriverHost, 2 * sim::kMillisecond,
                                [owner] { owner->Crash(); });
      c.simulator.RunFor(kDeadline + 5 * sim::kSecond);
      answered += got;
      if (!fired) ++missed_deadline;
    }
    failovers += c.metrics.stage_failovers;
  }
  state.SetItemsProcessed(int64_t(asked));
  state.counters["recall_permille"] =
      asked == 0 ? 0.0 : 1000.0 * static_cast<double>(answered) /
                             static_cast<double>(asked);
  state.counters["failovers"] =
      static_cast<double>(failovers) / static_cast<double>(state.iterations());
  state.counters["deadline_met"] = missed_deadline == 0 ? 1.0 : 0.0;
}
BENCHMARK(BM_Robust_CrashFailoverRecall)->Unit(benchmark::kMillisecond);

// Hedged-fetch latency under a fail-slow owner: every fetched key lives on
// the straggler (+2s per delivery), so the unhedged primary eats the
// straggle each round while the hedge's backup MultiGet diverts to a
// replica at the ring predecessor. Worst-round latency stands in for p99
// (the sim is deterministic; the worst round IS the tail). Gated ratio:
// unhedged p99 >= 1.5x hedged, identical fetched counts.
static void RobustHedgeRun(benchmark::State& state, bool hedged) {
  const size_t kRounds = 8;
  uint64_t fetched = 0, hedges_won = 0;
  double worst_ms = 0.0;
  for (auto _ : state) {
    pier::BatchOptions bopts;
    bopts.hedged_fetches = hedged;
    robust::RobustCluster c(bopts);
    std::vector<pier::Tuple> items;
    for (uint64_t f = 1; f <= 120; ++f) {
      items.push_back(
          pier::Tuple({pier::Value(f), pier::Value("file " + std::to_string(f))}));
    }
    c.piers[0]->PublishBatch(piersearch::ItemSchema(), std::move(items));
    c.piers[0]->FlushPublishQueues();
    c.simulator.RunFor(10 * sim::kSecond);

    sim::HostId slow = c.OwnerOf("item", pier::Value(uint64_t{1}))->host();
    std::vector<uint64_t> slow_keys;
    for (uint64_t f = 1; f <= 120; ++f) {
      if (c.OwnerOf("item", pier::Value(f))->host() == slow) {
        slow_keys.push_back(f);
      }
    }
    size_t origin = 0;
    while (c.dht.node(origin)->host() == slow) ++origin;

    auto fetch = [&](bool measured) {
      std::vector<pier::Value> keys;
      for (uint64_t f : slow_keys) keys.emplace_back(pier::Value(f));
      sim::SimTime issued = c.simulator.now();
      sim::SimTime answered_at = issued;
      c.piers[origin]->FetchMany(
          piersearch::ItemSchema(), std::move(keys),
          pier::PierNode::FetchCallback(
              [&](Status s, std::vector<pier::Tuple> tuples,
                  const pier::Completeness&) {
                (void)s;
                answered_at = c.simulator.now();
                if (measured) fetched += tuples.size();
              }));
      c.simulator.RunFor(20 * sim::kSecond);
      return static_cast<double>(answered_at - issued) /
             static_cast<double>(sim::kMillisecond);
    };
    // Warm round: the latency EWMA toward the mild straggler must read the
    // degradation before the hedge policy can arm.
    c.network.SetProcessingDelay(slow, 100 * sim::kMillisecond);
    fetch(/*measured=*/false);
    c.faults.AddFailSlow(slow, c.simulator.now(), 30 * sim::kMinute,
                         2 * sim::kSecond);
    for (size_t r = 0; r < kRounds; ++r) {
      worst_ms = std::max(worst_ms, fetch(/*measured=*/true));
    }
    hedges_won += c.metrics.hedges_won;
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(kRounds));
  state.counters["p99_fetch_ms"] = worst_ms;
  state.counters["fetched"] =
      static_cast<double>(fetched) / static_cast<double>(state.iterations());
  state.counters["hedges_won"] =
      static_cast<double>(hedges_won) / static_cast<double>(state.iterations());
}

static void BM_Robust_FetchFailSlowUnhedged(benchmark::State& state) {
  RobustHedgeRun(state, /*hedged=*/false);
}
BENCHMARK(BM_Robust_FetchFailSlowUnhedged)->Unit(benchmark::kMillisecond);

static void BM_Robust_FetchFailSlowHedged(benchmark::State& state) {
  RobustHedgeRun(state, /*hedged=*/true);
}
BENCHMARK(BM_Robust_FetchFailSlowHedged)->Unit(benchmark::kMillisecond);

// Overload admission: an idle stage-0 owner admits a plan whose posting
// list dwarfs the pressure budget; the same owner under a standing message
// storm refuses it, the origin defers per the retry-after hint until the
// defer budget runs out, and the final shed is a labeled partial counted
// exactly once. Gates: idle_admitted, shed_labeled, shed_bounded, and
// partials_match all == 1.
static void BM_Robust_AdmissionOverload(benchmark::State& state) {
  uint64_t shed_total = 0, deferred_total = 0;
  bool idle_admitted = true, shed_labeled = true, shed_bounded = true;
  bool partials_match = true;
  for (auto _ : state) {
    pier::BatchOptions bopts;
    bopts.admission_base_entries = 64;
    bopts.admission_min_entries = 8;
    bopts.admission_inflight_floor = 2;
    bopts.admission_retry_after = 100 * sim::kMillisecond;
    robust::RobustCluster c(bopts);
    c.PublishPostings("alpha", 100);
    dht::DhtNode* owner = c.OwnerOf("inverted", pier::Value("alpha"));
    size_t origin = c.SurvivorIndex(owner);
    auto one_stage = [] {
      return pier::PlanBuilder()
          .IndexScan("inverted", pier::Value("alpha"))
          .Build();
    };

    size_t idle_ids = 0;
    c.piers[origin]->ExecutePlan(
        one_stage(),
        [&](Status s, std::vector<pier::Tuple> rows,
            const pier::Completeness&) {
          if (s.ok()) idle_ids = rows.size();
        },
        20 * sim::kSecond);
    c.simulator.RunFor(25 * sim::kSecond);
    idle_admitted = idle_admitted && idle_ids == 100 &&
                    c.metrics.plans_shed == 0;

    // Standing pressure: a put storm against a slowed owner so every
    // admission probe sees dozens of in-flight messages.
    c.network.SetProcessingDelay(owner->host(), 300 * sim::kMillisecond);
    dht::Key pressure_key =
        HashCombine(Fnv1a64("inverted"), pier::Value("alpha").Hash());
    for (size_t i = 0; i < 4000; ++i) {
      c.simulator.ScheduleAfter(
          sim::kDriverHost, i * 10 * sim::kMillisecond,
          [&c, origin, pressure_key] {
            c.dht.node(origin)->Put("pressure", pressure_key, {0xA, 0xB}, 0,
                                    nullptr);
          });
    }
    c.simulator.RunFor(2 * sim::kSecond);

    bool fired = false;
    pier::Completeness shed_comp;
    Status shed_status = Status::OK();
    c.piers[origin]->ExecutePlan(
        one_stage(),
        [&](Status s, std::vector<pier::Tuple> rows,
            const pier::Completeness& comp) {
          (void)rows;
          fired = true;
          shed_status = std::move(s);
          shed_comp = comp;
        },
        30 * sim::kSecond);
    c.simulator.RunFor(40 * sim::kSecond);

    shed_labeled = shed_labeled && fired && !shed_status.ok() &&
                   shed_comp.shed && !shed_comp.exact &&
                   shed_comp.retry_after > 0;
    shed_bounded = shed_bounded &&
                   c.metrics.plans_shed == pier::kAdmissionDeferBudget + 1 &&
                   c.metrics.plans_deferred == pier::kAdmissionDeferBudget;
    // One observed partial (the shed), counted exactly once.
    partials_match = partials_match && c.metrics.partial_results == 1;
    shed_total += c.metrics.plans_shed;
    deferred_total += c.metrics.plans_deferred;
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
  auto per_iter = [&](uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(state.iterations());
  };
  state.counters["plans_shed"] = per_iter(shed_total);
  state.counters["plans_deferred"] = per_iter(deferred_total);
  state.counters["idle_admitted"] = idle_admitted ? 1.0 : 0.0;
  state.counters["shed_labeled"] = shed_labeled ? 1.0 : 0.0;
  state.counters["shed_bounded"] = shed_bounded ? 1.0 : 0.0;
  state.counters["partials_match"] = partials_match ? 1.0 : 0.0;
}
BENCHMARK(BM_Robust_AdmissionOverload)->Unit(benchmark::kMillisecond);

static void BM_KeywordIndexMatch(benchmark::State& state) {
  gnutella::KeywordIndex index;
  Rng rng(6);
  for (size_t i = 0; i < 20000; ++i) {
    gnutella::SharedFile f;
    f.filename = "artist" + std::to_string(rng.NextBelow(500)) + " title" +
                 std::to_string(i) + " common.mp3";
    f.size_bytes = 1;
    f.file_id = i;
    index.Add(f, static_cast<sim::HostId>(i % 100));
  }
  auto query = gnutella::ParsedQuery::Parse("artist42 common");
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Match(query));
  }
}
BENCHMARK(BM_KeywordIndexMatch);

// --------------------------------------------------------------------------
// Shard-parallel event loop (sim/shard.h): wall-clock scaling of a big
// static deployment under steady query load, serial vs sharded backends.
// Every variant must land on the identical fingerprint — the sharded
// backends are only allowed to be *faster*, never different. The speedup
// floors in scripts/run_bench.sh apply when the machine actually has the
// cores (context.num_cpus); the fingerprint identity gate always applies.
namespace shard_scale {

/// One deployment under steady query load: each node Gets a derived key
/// and re-arms its own pump timer — all load is host-context work that
/// parallelizes across shards; no driver events after setup.
struct ScaleEnv {
  static constexpr sim::SimTime kLatency = 2 * sim::kMillisecond;

  std::unique_ptr<sim::Executor> exec;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<dht::DhtDeployment> dht;
  size_t n;

  ScaleEnv(size_t nodes, uint32_t shards) : n(nodes) {
    if (shards <= 1) {
      exec = std::make_unique<sim::SerialExecutor>();
    } else {
      exec = std::make_unique<sim::ShardedExecutor>(
          sim::ShardedExecutor::Options{shards, kLatency});
    }
    network = std::make_unique<sim::Network>(
        exec.get(), std::make_unique<sim::ConstantLatency>(kLatency), 42);
    network->set_load_probe_quantum(kLatency);
    dht::DhtOptions opts;
    opts.overlay = dht::OverlayKind::kChord;
    opts.replication = 3;
    dht = std::make_unique<dht::DhtDeployment>(network.get(), n, opts, 777);
    for (size_t i = 0; i < n; ++i) Arm(i, 10 * sim::kMillisecond + i % 97);
  }

  void Arm(size_t i, sim::SimTime delay) {
    exec->ScheduleAfter(dht->node(i)->host(), delay,
                        [this, i] { Pump(i); });
  }

  void Pump(size_t i) {
    uint64_t r = Mix64(0x5ca1eull ^ (i * 0x9E3779B97F4A7C15ull) ^
                       exec->now());
    dht->node(i)->Get("scale", static_cast<dht::Key>(r),
                      [](Status, auto) {});
    Arm(i, 150 * sim::kMillisecond + r % (100 * sim::kMillisecond));
  }

  /// Everything the run can deterministically disagree on, folded to 50
  /// bits (counters ride as doubles in the bench json).
  uint64_t Fingerprint() const {
    const sim::NetworkMetrics& net = network->metrics();
    uint64_t fp = Mix64(exec->events_executed());
    fp = Mix64(fp ^ exec->now());
    fp = Mix64(fp ^ net.total.messages);
    fp = Mix64(fp ^ net.total.bytes);
    fp = Mix64(fp ^ net.dropped_messages);
    fp = Mix64(fp ^ dht->metrics().routes_delivered);
    fp = Mix64(fp ^ dht->metrics().total_hops);
    return fp & ((1ull << 50) - 1);
  }
};

void Run(benchmark::State& state, uint32_t shards) {
  const size_t nodes = static_cast<size_t>(state.range(0));
  const sim::SimTime kHorizon = 2 * sim::kSecond;
  uint64_t fingerprint = 0;
  double events = 0, messages = 0;
  for (auto _ : state) {
    state.PauseTiming();  // deployment build + teardown are serial setup
    {
      ScaleEnv env(nodes, shards);
      state.ResumeTiming();
      env.exec->RunFor(kHorizon);
      state.PauseTiming();
      fingerprint = env.Fingerprint();
      events = static_cast<double>(env.exec->events_executed());
      messages = static_cast<double>(env.network->metrics().total.messages);
    }
    state.ResumeTiming();
  }
  state.counters["fingerprint"] = static_cast<double>(fingerprint);
  state.counters["events"] = events;
  state.counters["net_messages"] = messages;
  state.SetItemsProcessed(int64_t(events) * int64_t(state.iterations()));
}

void Args(benchmark::internal::Benchmark* b) {
  // Wall time, not the main thread's CPU time: the sharded runs spend
  // their work on worker threads, so items_per_second (events/s) must
  // divide by elapsed real time to compare with the serial run.
  b->Arg(10000)->Unit(benchmark::kMillisecond)->UseRealTime();
  // The 100k-node point takes minutes per backend; opt in explicitly.
  if (std::getenv("PIERSTACK_BENCH_LARGE") != nullptr) b->Arg(100000);
}

}  // namespace shard_scale

static void BM_ShardScale_Serial(benchmark::State& state) {
  shard_scale::Run(state, 1);
}
BENCHMARK(BM_ShardScale_Serial)->Apply(shard_scale::Args);

static void BM_ShardScale_Shards4(benchmark::State& state) {
  shard_scale::Run(state, 4);
}
BENCHMARK(BM_ShardScale_Shards4)->Apply(shard_scale::Args);

static void BM_ShardScale_Shards8(benchmark::State& state) {
  shard_scale::Run(state, 8);
}
BENCHMARK(BM_ShardScale_Shards8)->Apply(shard_scale::Args);

BENCHMARK_MAIN();
