// Broker benchmark: an in-process RpcServer over a ShardedPricingEngine,
// driven over loopback by one load-generating process.
//
//   .bench_build/broker_bench --workload quote-mix --seed 1 --seconds 20
//       --trace 0
//
// (perfbench/run.py builds the binary and forwards these flags.)
//
// Every workload runs the same four request kinds — quotes, purchases,
// buyer appends and seller deltas — so every end-to-end metric is
// defined on every workload; the workloads differ in rates and which
// stream dominates (see perfbench/README.md). A run is:
//
//   set-up    dataset, support, partition, initial book, journal,
//             server with 2 loops, 3 connections, warm-up (setup_s)
//   saturate  a slice of pipelined quotes (window 32) on two connections
//             against the static book (quote_qps); kSegments + 1 slices
//             share the (1 - kMixedShare) of --seconds, one before each
//             mixed segment and one at the end
//   mixed     kSegments segments sharing kMixedShare of --seconds:
//             open-loop quotes on connection Q, open-loop purchases on
//             connection P, and a paced writer stream (one outstanding,
//             fixed schedule) on connection W
//   epilogue  closed-loop seller deltas, where the mixed phase has none,
//             before the last slice
//   checks    quiet-state correctness checks, with value-changing seller
//             deltas; any failure exits 1
//
// With --trace 1 the same run records one span per wire request, then
// times calls into each module's public functions in-process and prints
// the per-layer metrics instead of the end-to-end ones. Spans are
// written to <build dir>/traces/.
#include <pthread.h>
#include <sched.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "checks.h"
#include "common/distributions.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/algorithms.h"
#include "core/pricing.h"
#include "db/parser.h"
#include "db/versioned_database.h"
#include "market/conflict.h"
#include "market/support.h"
#include "market/support_partitioner.h"
#include "serve/persist/checkpoint.h"
#include "serve/rpc/server.h"
#include "serve/rpc/wire.h"
#include "serve/sharded_engine.h"
#include "trace.h"
#include "wire_conn.h"
#include "workloads/world_queries.h"

// Operator-new accounting. Call counts are thread-local: the server's
// alloc_probe hook reads them on each loop thread, so client threads
// never pollute the loop-allocation figure. Byte counting is global and
// switched on only around the traced in-process append replay, when no
// other thread is allocating.
namespace {
thread_local uint64_t tl_alloc_calls = 0;
std::atomic<bool> g_count_bytes{false};
std::atomic<uint64_t> g_alloc_bytes{0};

void* CountedAlloc(std::size_t size) {
  ++tl_alloc_calls;
  if (g_count_bytes.load(std::memory_order_relaxed)) {
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t alignment) {
  ++tl_alloc_calls;
  if (g_count_bytes.load(std::memory_order_relaxed)) {
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = nullptr;
  std::size_t align =
      std::max(sizeof(void*), static_cast<std::size_t>(alignment));
  if (posix_memalign(&p, align, size != 0 ? size : align) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

uint64_t LoopAllocProbe() { return tl_alloc_calls; }

// Set-up time is measured from static initialization, the earliest
// point the program controls.
const int64_t g_process_start_ns = perfbench::NowNs();
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return CountedAlignedAlloc(size, alignment);
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return CountedAlignedAlloc(size, alignment);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {
namespace {

namespace rpc = qp::serve::rpc;
using qp::Rng;
using qp::StrFormat;
using qp::market::CellDelta;
using qp::serve::Quote;

// ---------------------------------------------------------------------------
// Fixed layout.

constexpr int kShards = 2;
/// Two event loops. Round-robin accept handoff puts connection Q (quotes)
/// and P (purchases) on loop 0, so purchases, which are served inline on
/// the loop, sit in front of quotes, and connection W (writes) on loop 1,
/// which it shares only with the second saturating connection.
constexpr int kLoops = 2;
constexpr int kWindow = 32;
constexpr uint64_t kDatasetSeed = 7;
/// Support cells (priced items) drawn from the world dataset.
constexpr int kSupport = 1200;
/// Share of --seconds in the mixed phase; the saturating slices take the
/// rest.
constexpr double kMixedShare = 0.6;
/// The mixed phase runs in this many segments, with a saturating slice
/// before each and after the last, so that quote_qps samples the whole
/// run rather than one stretch of it: the shared host runs in faster and
/// slower modes that last from seconds to tens of seconds.
constexpr int kSegments = 4;
/// Every kArbitrageEvery-th open-loop quote request is a QuoteBatch of
/// (A, B, A u B) for the arbitrage check instead of a single quote.
constexpr int kArbitrageEvery = 8;
constexpr int64_t kSaturateWindowNs = 100000000;
/// Zipf valuation model (paper Section 6.3, sampled valuations).
constexpr uint64_t kZipfN = 100;
constexpr double kZipfA = 1.5;
/// Purchases checked against NaiveConflictSet after the run, each after
/// a value-changing seller delta on one item of its conflict set.
constexpr size_t kNaiveChecks = 4;

struct WorkloadConfig {
  const char* name;
  int initial_buyers;
  /// Open-loop single quotes per second on connection Q.
  double quote_rate;
  /// Open-loop purchases on connection P: this many whole rounds over the
  /// buyer queries, spread evenly over the mixed phase.
  int purchase_rounds;
  /// Mixed-phase writer ops per second on connection W, one outstanding
  /// at a time; each cycle is one append of `append_batch` buyers, then
  /// `cycle_deltas` seller deltas.
  double writer_rate;
  int cycle_deltas;
  int append_batch;
  /// Closed-loop seller deltas after the mixed phase.
  int epilogue_deltas;
  int checkpoint_every;
};

// Measured seller deltas write each cell's current value back: the
// catalog still commits a generation and drops the prepared queries
// that read the cell's column, but buyers' conflict sets do not change,
// so every run builds the same book.
const WorkloadConfig kWorkloads[] = {
    // name, initial buyers, quotes/s, purchase rounds, mixed writer
    // ops/s, deltas per writer cycle, buyers per append, epilogue
    // deltas, checkpoint every
    {"quote-mix", 300, 4000.0, 8, 8.0, 1, 1, 0, 16},
    {"buyer-arrivals", 200, 1500.0, 1, 3.0, 0, 8, 8000, 8},
};

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "broker_bench: " << message << std::endl;
  std::fflush(nullptr);
  std::_Exit(1);
}

void CheckOk(const qp::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

void Require(const std::string& failure, const std::string& what) {
  if (!failure.empty()) Die("check failed (" + what + "): " + failure);
}

// Thread placement. Left to the scheduler, two busy threads sometimes
// share one core for seconds, which halves throughput in some runs and
// not in others. So, when the process may use four CPUs or more: loop 0
// runs on CPU 0; loop 1 and the writer (whose requests are all that
// loop 1 carries while writes run) on CPU 1; the quote client on CPU 2;
// the writer-stream and purchase clients on CPU 3 (the writer stream
// mostly waits on its reply). With fewer CPUs nothing is pinned.
class CpuPlan {
 public:
  CpuPlan() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof(all), &all) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all)) ids_.push_back(c);
    }
    if (ids_.size() < 4) ids_.clear();
  }

  /// Pins the calling thread to the `k`-th usable CPU (k < 4).
  void PinSelf(int k) const { PinTid(0, k); }

  /// Threads of this process, by kernel id.
  static std::set<int> Tasks() {
    std::set<int> out;
    for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
      out.insert(std::stoi(e.path().filename().string()));
    }
    return out;
  }

  /// Pins the threads RpcServer::Start() created, in creation
  /// (ascending id) order: loop 0 to CPU 0, then loop 1 and the writer to
  /// CPU 1.
  void PinServer(const std::set<int>& before) const {
    int k = 0;
    for (int tid : Tasks()) {
      if (!before.count(tid)) PinTid(tid, std::min(k++, 1));
    }
  }

 private:
  void PinTid(int tid, int k) const {
    if (ids_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(ids_[static_cast<size_t>(k)], &set);
    sched_setaffinity(tid, sizeof(set), &set);
  }

  std::vector<int> ids_;
};

// ---------------------------------------------------------------------------
// Market inputs.

qp::workload::WorkloadInstance LoadInstance() {
  qp::Result<qp::workload::WorkloadInstance> instance =
      qp::workload::MakeSkewedWorkload(kDatasetSeed);
  CheckOk(instance.status(), "load the skewed world dataset");
  return std::move(*instance);
}

qp::market::SupportSet MakeSupport(const qp::db::Database& db) {
  Rng rng(qp::Mix64(kDatasetSeed ^ 0x5eedULL));
  qp::market::SupportOptions options;
  options.size = kSupport;
  auto support = qp::market::GenerateSupport(db, options, rng);
  CheckOk(support.status(), "support");
  return std::move(*support);
}

struct Buyer {
  size_t query = 0;
  double valuation = 0.0;
};

struct WriterOp {
  bool append = false;
  /// Mixed-phase op on the fixed schedule; false = epilogue op, sent as
  /// soon as its predecessor completes.
  bool paced = false;
  std::vector<Buyer> buyers;  // append
  CellDelta delta;            // seller delta
};

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  return v[idx];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Percentile `q` of a latency series, robust to the host's slow phases
/// (which only ever add latency): the series, in arrival order, is cut
/// into up to eight contiguous chunks that each keep at least ten samples
/// beyond the percentile, and the first quartile of the chunks'
/// percentiles is reported. A series too short
/// for three such chunks reports the highest percentile, at most `q`,
/// with at least ten samples beyond it (the median below 40 samples).
double ChunkedPercentile(const std::vector<double>& v, double q) {
  const size_t beyond = static_cast<size_t>(
      std::floor(static_cast<double>(v.size()) * (1.0 - q)));
  const size_t chunks = std::min<size_t>(8, beyond / 10);
  if (chunks < 3) {
    if (v.size() < 40) return Percentile(v, 0.5);
    return Percentile(v, std::min(q, 1.0 - 10.0 / static_cast<double>(v.size())));
  }
  std::vector<double> per_chunk;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t lo = v.size() * c / chunks, hi = v.size() * (c + 1) / chunks;
    per_chunk.push_back(Percentile(
        std::vector<double>(v.begin() + static_cast<ptrdiff_t>(lo),
                            v.begin() + static_cast<ptrdiff_t>(hi)),
        q));
  }
  return Percentile(per_chunk, 0.25);
}

Quote DecodeQuoteOrDie(const rpc::Frame& frame) {
  Quote q;
  if (frame.type != rpc::MsgType::kQuoteReply ||
      !rpc::DecodeQuoteReply(frame.body, &q)) {
    Die("malformed quote reply");
  }
  return q;
}

std::string ErrorMessage(const rpc::Frame& frame) {
  rpc::WireCode code = rpc::WireCode::kOk;
  std::string message;
  rpc::DecodeErrorReply(frame.body, &code, &message);
  return StrFormat("%s: %s", rpc::WireCodeToString(code), message.c_str());
}

/// One blocking request on a WireConn: sends `frame` and returns the
/// reply frame's bytes (type + body) once it arrives.
struct Reply {
  rpc::MsgType type = rpc::MsgType::kErrorReply;
  std::vector<uint8_t> body;
};

Reply Call(WireConn& conn, uint64_t id, const std::vector<uint8_t>& frame) {
  if (!conn.Send(frame)) Die("connection broke on send");
  Reply out;
  bool got = false;
  while (!got) {
    int n = conn.Poll(-1, [&](const rpc::Frame& f) {
      if (f.request_id != id) Die("reply to an unexpected request id");
      out.type = f.type;
      out.body.assign(f.body.begin(), f.body.end());
      got = true;
    });
    if (n < 0) Die("connection broke on receive");
  }
  return out;
}

rpc::WireStats FetchStats(WireConn& conn) {
  uint64_t id = conn.NextId();
  Reply r = Call(conn, id, rpc::EncodeStatsRequest(id));
  rpc::WireStats stats;
  if (r.type != rpc::MsgType::kStatsReply ||
      !rpc::DecodeStatsReply(r.body, &stats)) {
    Die("malformed stats reply");
  }
  return stats;
}

std::vector<uint32_t> Union(const std::vector<uint32_t>& a,
                            const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

// ---------------------------------------------------------------------------
// Results of the streams.

struct StreamResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  std::vector<double> quote_us;
  std::vector<double> purchase_us;
  std::vector<double> append_ms;
  std::vector<double> delta_us;
  /// Saturating-slice replies per kSaturateWindowNs window.
  std::vector<uint64_t> saturate_windows;
  double accepted_revenue = 0.0;
  /// Open-loop generator lateness: how far behind its schedule a send
  /// went out, worst case, in microseconds.
  double max_send_lag_us = 0.0;

  void Fail(const std::string& message) {
    ++failed;
    if (first_error.empty()) first_error = message;
  }
};

/// Saturating-phase reply rates per kSaturateWindowNs window, one series
/// per connection (lane): lane 0 is served by loop 0, lane 1 by loop 1.
using LaneRates = std::array<std::vector<double>, 2>;

struct LayerGauges {
  double chain_length_sum = 0.0;
  uint64_t samples = 0;
  uint64_t epoch_pending_max = 0;
  uint64_t pending_cells_max = 0;
};

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stoi(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      Die("unknown flag " + key);
    }
  }
  if (args.seconds < 1) Die("--seconds must be >= 1");
  return args;
}

class Bench {
 public:
  Bench(const WorkloadConfig& cfg, const Args& args)
      : cfg_(cfg),
        args_(args),
        rng_(qp::Mix64(args.seed ^ 0xb20cce5ULL)),
        quote_rng_(qp::Mix64(args.seed ^ 0x9007eULL)) {}

  int Run();

 private:
  void SetUp();
  void BuildSchedule();
  void RecordWrite(const CellDelta& delta);
  void QuoteStream(int64_t t0, int64_t end, StreamResult* out,
                   Tracer* tracer);
  void PurchaseStream(int64_t t0, int64_t end, size_t first, size_t last,
                      StreamResult* out, Tracer* tracer);
  void WriterStream(bool paced, int64_t t0, size_t first, size_t last,
                    StreamResult* out, Tracer* tracer);
  void SaturateStream(WireConn& conn, int lane, int64_t start, int64_t end,
                      StreamResult* out);
  void SaturatePhase(int64_t duration_ns, StreamResult* out,
                     LaneRates* lane_qps, uint64_t* allocs,
                     uint64_t* quotes);
  void SampleGauges();
  void QuietChecks(const StreamResult& total, const rpc::WireStats& before,
                   const rpc::WireStats& after);
  std::vector<std::vector<uint32_t>> AppendedConflictSets();
  void CheckBookRevenue(const std::vector<std::vector<uint32_t>>& sets);
  void CheckRecovery();
  void SendCheckDeltas();
  void CheckCatalog();
  std::map<std::string, double> TracedLayers(
      const rpc::WireStats& before, const rpc::WireStats& after,
      uint64_t allocs, uint64_t quotes, Tracer* tracer);

  const WorkloadConfig& cfg_;
  Args args_;
  CpuPlan cpus_;
  Rng rng_;
  std::string run_dir_;

  qp::workload::WorkloadInstance instance_;
  qp::market::SupportSet support_;
  qp::market::SupportPartition partition_;
  qp::serve::ShardedEngineOptions engine_options_;
  std::unique_ptr<qp::serve::ShardedPricingEngine> engine_;
  std::unique_ptr<qp::serve::persist::CheckpointManager> journal_;
  std::unique_ptr<rpc::RpcServer> server_;
  WireConn conn_q_, conn_w_, conn_p_;

  /// Queries whose seed conflict set is non-empty.
  std::vector<size_t> eligible_;
  std::vector<Buyer> initial_;
  /// Writer ops: the paced mixed-phase ops first, then the epilogue.
  std::vector<WriterOp> schedule_;
  size_t paced_ops_ = 0;
  std::vector<Buyer> purchases_;
  /// Bundles the quote streams draw from: the initial buyers' conflict
  /// sets (global item ids).
  std::vector<std::vector<uint32_t>> pool_;
  std::vector<std::pair<size_t, size_t>> pairs_;
  std::vector<Quote> reference_;
  /// State of the open-loop quote and purchase streams that carries from
  /// one mixed segment to the next.
  Rng quote_rng_;
  uint64_t quote_seq_ = 0;
  VersionMonotone quote_versions_, purchase_versions_;
  /// Last value written to each cell, in first-write order.
  std::vector<CellWrite> last_writes_;
  /// Value-changing seller deltas sent by SendCheckDeltas().
  std::vector<CellDelta> check_deltas_;
  std::map<std::tuple<int, int, int>, size_t> cell_index_;

  LayerGauges gauges_;
  std::vector<uint64_t> last_shard_versions_;
  double reprice_seconds_ = 0.0;
  uint64_t lpip_candidates_ = 0, lpip_reused_ = 0;
  double setup_s_ = 0.0;
  double book_revenue_ = 0.0;
  /// Conflict set of every appended buyer (initial first), from
  /// AppendedConflictSets().
  std::vector<std::vector<uint32_t>> appended_sets_;
  // Traced-run counters taken over the measured phases.
  double pruned_ratio_ = 0.0;
  double epoch_pins_per_quote_ = 0.0;
  double lps_in_window_ = 0.0;
};

// Buyers visit the queries in whole rounds: every eligible query once
// per round, in a fresh seeded order each round. Query costs are heavy
// tailed (a few queries take tens of milliseconds to probe), so drawing
// queries independently would make the number of slow requests in a run
// depend on the seed; rounds keep that number fixed.
class BuyerStream {
 public:
  BuyerStream(const std::vector<size_t>& eligible, uint64_t seed)
      : order_(eligible), rng_(seed), zipf_(kZipfN, kZipfA) {}

  Buyer Next() {
    if (pos_ == order_.size()) pos_ = 0;
    if (pos_ == 0) {
      for (size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1],
                  order_[static_cast<size_t>(
                      rng_.UniformInt(0, static_cast<int64_t>(i) - 1))]);
      }
    }
    Buyer b;
    b.query = order_[pos_++];
    b.valuation = static_cast<double>(zipf_.Sample(rng_));
    return b;
  }

 private:
  std::vector<size_t> order_;
  size_t pos_ = 0;
  Rng rng_;
  qp::ZipfDistribution zipf_;
};

void Bench::SetUp() {
  instance_ = LoadInstance();
  support_ = MakeSupport(*instance_.database);
  // Partition seeded with every query of the dataset, so buyers drawn
  // from it are partition-respecting; the probed conflict sets come back
  // as seed_edges.
  partition_ = qp::market::SupportPartitioner::FromQueries(
      instance_.database.get(), support_, instance_.queries, {},
      {.num_shards = kShards});
  for (size_t q = 0; q < partition_.seed_edges.size(); ++q) {
    if (!partition_.seed_edges[q].empty()) eligible_.push_back(q);
  }
  if (eligible_.empty()) Die("no query has a non-empty conflict set");

  // The initial book is part of the market, like the dataset: drawn
  // from the dataset seed, not from --seed.
  BuyerStream book(eligible_, qp::Mix64(kDatasetSeed ^ 0xb00cULL));
  for (int i = 0; i < cfg_.initial_buyers; ++i) initial_.push_back(book.Next());
  std::cerr << StrFormat("%zu queries, %zu with a non-empty conflict set\n",
                         instance_.queries.size(), eligible_.size());
  BuildSchedule();
  BuyerStream purchase_stream(eligible_, qp::Mix64(args_.seed ^ 0x9c4ULL));
  const size_t n_purchases =
      static_cast<size_t>(cfg_.purchase_rounds) * eligible_.size();
  for (size_t i = 0; i < n_purchases; ++i) {
    purchases_.push_back(purchase_stream.Next());
  }
  for (const Buyer& b : initial_) pool_.push_back(partition_.seed_edges[b.query]);
  for (int i = 0; i < 1024; ++i) {
    auto pick = [&] {
      return static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(pool_.size()) - 1));
    };
    pairs_.emplace_back(pick(), pick());
  }

  engine_options_.engine.algorithms.lpip.max_candidates = 12;
  // The writer has one CPU, so shards reprice in turn on it.
  engine_options_.num_threads = 1;
  engine_ = std::make_unique<qp::serve::ShardedPricingEngine>(
      instance_.database.get(), partition_, engine_options_);
  std::vector<std::vector<uint32_t>> edges;
  qp::core::Valuations values;
  for (const Buyer& b : initial_) {
    edges.push_back(partition_.seed_edges[b.query]);
    values.push_back(b.valuation);
  }
  CheckOk(engine_->AppendBuyersPrecomputed(std::move(edges), values),
          "initial book");

  const char* build_dir = std::getenv("CARGO_TARGET_DIR");
  run_dir_ = StrFormat("%s/run-%d", build_dir ? build_dir : ".bench_build",
                       static_cast<int>(::getpid()));
  std::filesystem::remove_all(run_dir_);
  qp::serve::persist::CheckpointOptions ckpt;
  ckpt.dir = run_dir_ + "/journal";
  ckpt.checkpoint_every = cfg_.checkpoint_every;
  journal_ = std::make_unique<qp::serve::persist::CheckpointManager>(ckpt);
  CheckOk(journal_->Attach(engine_.get()), "journal attach");
  engine_->SetWriterLog(journal_.get());

  rpc::RpcServerOptions options;
  options.num_loops = kLoops;
  options.force_accept_handoff = true;
  options.alloc_probe = &LoopAllocProbe;
  server_ = std::make_unique<rpc::RpcServer>(
      engine_.get(), instance_.database.get(), options);
  const std::set<int> before_start = CpuPlan::Tasks();
  CheckOk(server_->Start(), "server start");
  cpus_.PinServer(before_start);
  cpus_.PinSelf(3);
  // Connect order decides the loops (round-robin handoff): Q -> loop 0,
  // W -> loop 1, P -> loop 0.
  std::string error;
  for (WireConn* c : {&conn_q_, &conn_w_, &conn_p_}) {
    if (!c->Connect(server_->port(), &error)) Die("connect: " + error);
  }

  // Warm-up: prepare every buyer query once, so the measured phases see
  // the prepared-query cache a long-running broker has, then grow every
  // per-loop scratch and pooled buffer past what a measured tick can
  // need.
  for (size_t q : eligible_) engine_->Purchase(instance_.queries[q], 0.0);
  const std::vector<uint32_t>* largest = &pool_[0];
  for (const auto& b : pool_) {
    if (b.size() > largest->size()) largest = &b;
  }
  std::vector<std::vector<uint32_t>> prime(3 * kWindow + 1, *largest);
  for (WireConn* c : {&conn_q_, &conn_w_, &conn_p_}) {
    uint64_t id = c->NextId();
    Reply r = Call(*c, id, rpc::EncodeQuoteBatchRequest(id, prime));
    if (r.type != rpc::MsgType::kQuoteBatchReply) Die("warm-up quote batch");
  }
}

void Bench::BuildSchedule() {
  // The seller edits the support cells of the column that the fewest
  // buyer queries read (on the skewed world dataset every column is read
  // by some buyer query; the fewest is 2 of 482), so the measured deltas
  // drop few prepared queries and purchases see nearly the prepared-query
  // cache of a static catalog. --seed orders the cells.
  std::map<std::pair<int, int>, int> readers;
  for (const CellDelta& d : support_) readers[{d.table, d.column}] = 0;
  for (size_t q : eligible_) {
    for (const auto& column : instance_.queries[q].SensitiveColumns()) {
      auto it = readers.find(column);
      if (it != readers.end()) ++it->second;
    }
  }
  auto least = std::min_element(
      readers.begin(), readers.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  std::vector<CellDelta> cells;
  std::set<int> rows;
  for (const CellDelta& d : support_) {
    if (std::make_pair(d.table, d.column) == least->first &&
        rows.insert(d.row).second) {
      cells.push_back(d);
    }
  }
  std::cerr << StrFormat(
      "seller deltas: %zu cells of column (%d, %d), read by %d buyer "
      "queries\n",
      cells.size(), least->first.first, least->first.second, least->second);
  auto shuffle = [](std::vector<CellDelta>& v, Rng& rng) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<size_t>(rng.UniformInt(
                              0, static_cast<int64_t>(i) - 1))]);
    }
  };
  shuffle(cells, rng_);
  const qp::db::Database& db = *instance_.database;

  // Arriving buyers are part of the market, like the initial book: the
  // same for every seed, so that append costs and the final book's
  // revenue compare like with like across runs.
  BuyerStream arrivals(eligible_, qp::Mix64(kDatasetSeed ^ 0xa77ULL));
  size_t next_cell = 0;
  auto make = [&](bool append, bool paced) {
    WriterOp op;
    op.append = append;
    op.paced = paced;
    if (append) {
      for (int b = 0; b < cfg_.append_batch; ++b) {
        op.buyers.push_back(arrivals.Next());
      }
      schedule_.push_back(std::move(op));
      return;
    }
    const CellDelta& cell = cells[next_cell++ % cells.size()];
    op.delta = cell;
    op.delta.new_value = db.table(cell.table).cell(cell.row, cell.column);
    RecordWrite(op.delta);
    schedule_.push_back(std::move(op));
  };
  const int cycle = 1 + cfg_.cycle_deltas;
  paced_ops_ = static_cast<size_t>(cfg_.writer_rate * args_.seconds * kMixedShare);
  for (size_t k = 0; k < paced_ops_; ++k) make(k % cycle == 0, true);
  for (int d = 0; d < cfg_.epilogue_deltas; ++d) make(false, false);
}

void Bench::RecordWrite(const CellDelta& delta) {
  auto key = std::make_tuple(delta.table, delta.row, delta.column);
  auto [it, inserted] = cell_index_.emplace(key, last_writes_.size());
  if (inserted) {
    last_writes_.push_back(
        {delta.table, delta.row, delta.column, delta.new_value});
  } else {
    last_writes_[it->second].value = delta.new_value;
  }
}

// Open-loop quotes: request i is due at t0 + i / rate and its latency is
// timed from that due time.
void Bench::QuoteStream(int64_t t0, int64_t end, StreamResult* out,
                        Tracer* tracer) {
  struct Pending {
    int64_t due;
    int64_t span;
    bool triple;
  };

  std::unordered_map<uint64_t, Pending> pending;
  VersionMonotone& versions = quote_versions_;
  Rng& rng = quote_rng_;
  const double interval_ns = 1e9 / cfg_.quote_rate;
  uint64_t i = 0;
  int64_t next_due = t0;
  std::vector<std::vector<uint32_t>> triple(3);
  auto handle = [&](const rpc::Frame& f) {
    auto it = pending.find(f.request_id);
    if (it == pending.end()) Die("quote reply to an unknown request");
    const int64_t now = NowNs();
    Pending p = it->second;
    pending.erase(it);
    if (p.span >= 0) tracer->End(p.span);
    if (f.type == rpc::MsgType::kErrorReply) {
      out->Fail("quote: " + ErrorMessage(f));
      return;
    }
    if (p.triple) {
      std::vector<Quote> quotes;
      if (f.type != rpc::MsgType::kQuoteBatchReply ||
          !rpc::DecodeQuoteBatchReply(f.body, &quotes) || quotes.size() != 3) {
        Die("malformed quote batch reply");
      }
      Require(CheckArbitrage(quotes[0].price, quotes[1].price,
                             quotes[2].price),
              "arbitrage-free quotes");
      Require(versions.Observe(quotes[0].shard_versions),
              "quote version vectors");
      return;
    }
    Quote q = DecodeQuoteOrDie(f);
    Require(versions.Observe(q.shard_versions), "quote version vectors");

    out->quote_us.push_back(static_cast<double>(now - p.due) / 1e3);
  };
  for (;;) {
    int64_t now = NowNs();
    while (next_due < end && now >= next_due) {
      out->max_send_lag_us = std::max(
          out->max_send_lag_us, static_cast<double>(now - next_due) / 1e3);
      const uint64_t id = conn_q_.NextId();
      const uint64_t seq = quote_seq_++;
      const bool is_triple = (seq % kArbitrageEvery) == kArbitrageEvery - 1;
      int64_t span = tracer->Begin(is_triple ? "rpc.quote_batch" : "rpc.quote",
                                   -1, id);
      bool ok;
      if (is_triple) {
        const auto& [a, b] = pairs_[(seq / kArbitrageEvery) % pairs_.size()];
        triple[0] = pool_[a];
        triple[1] = pool_[b];
        triple[2] = Union(pool_[a], pool_[b]);
        ok = conn_q_.Send(rpc::EncodeQuoteBatchRequest(id, triple));
      } else {
        const size_t idx = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(pool_.size()) - 1));
        ok = conn_q_.Send(rpc::EncodeQuoteRequest(id, pool_[idx]));
      }
      if (!ok) Die("quote connection broke");
      pending.emplace(id, Pending{next_due, span, is_triple});
      ++out->attempted;
      ++i;
      next_due = t0 + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
      now = NowNs();
    }
    if (next_due >= end && pending.empty()) break;
    int64_t wait_ns = next_due < end ? next_due - NowNs() : 100000000;
    if (conn_q_.Poll(std::max<int64_t>(0, wait_ns / 1000), handle) < 0) {
      Die("quote connection broke");
    }
  }
}

// Open-loop purchases purchases_[first, last), request first + i due at
// t0 + i * (end - t0) / (last - first) and timed from that due time.
void Bench::PurchaseStream(int64_t t0, int64_t end, size_t first, size_t last,
                           StreamResult* out, Tracer* tracer) {
  struct Pending {
    int64_t due;
    int64_t span;
    double valuation;
  };
  std::unordered_map<uint64_t, Pending> pending;
  VersionMonotone& versions = purchase_versions_;
  const uint64_t total = last - first;
  const double interval_ns =
      static_cast<double>(end - t0) / static_cast<double>(total);
  uint64_t i = 0;
  int64_t next_due = t0;
  auto handle = [&](const rpc::Frame& f) {
    auto it = pending.find(f.request_id);
    if (it == pending.end()) Die("purchase reply to an unknown request");
    const int64_t now = NowNs();
    Pending p = it->second;
    pending.erase(it);
    tracer->End(p.span);
    if (f.type == rpc::MsgType::kErrorReply) {
      out->Fail("purchase: " + ErrorMessage(f));
      return;
    }
    rpc::WirePurchase purchase;
    if (f.type != rpc::MsgType::kPurchaseReply ||
        !rpc::DecodePurchaseReply(f.body, &purchase)) {
      Die("malformed purchase reply");
    }
    Require(CheckPurchaseDecision(purchase.quote.price, p.valuation,
                                  purchase.accepted),
            "purchase decision");
    Require(versions.Observe(purchase.quote.shard_versions),
            "purchase version vectors");
    if (purchase.accepted) out->accepted_revenue += purchase.quote.price;
    out->purchase_us.push_back(static_cast<double>(now - p.due) / 1e3);
  };
  for (;;) {
    int64_t now = NowNs();
    if (i < total && now >= next_due) {
      out->max_send_lag_us = std::max(
          out->max_send_lag_us, static_cast<double>(now - next_due) / 1e3);
      const Buyer& b = purchases_[first + i];
      const uint64_t id = conn_p_.NextId();
      int64_t span = tracer->Begin("rpc.purchase", -1, id);
      if (!conn_p_.Send(rpc::EncodePurchaseRequest(
              id, instance_.sql[b.query], b.valuation))) {
        Die("purchase connection broke");
      }
      pending.emplace(id, Pending{next_due, span, b.valuation});
      ++out->attempted;
      ++i;
      next_due = t0 + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
      continue;
    }
    if (i >= total && pending.empty()) break;
    const int64_t wait_us = i >= total ? 100000 : (next_due - now) / 1000;
    if (conn_p_.Poll(std::max<int64_t>(0, wait_us), handle) < 0) {
      Die("purchase connection broke");
    }
  }
}

void Bench::SampleGauges() {
  qp::serve::ShardedEngineStats stats = engine_->stats();
  double chain = 0.0;
  for (size_t s = 0; s < stats.shards.size(); ++s) {
    const qp::serve::EngineStats& es = stats.shards[s];
    chain += es.publish.chain_length;
    if (last_shard_versions_.size() == stats.shards.size() &&
        es.version != last_shard_versions_[s]) {
      reprice_seconds_ += es.last_reprice.seconds;
      lpip_candidates_ += static_cast<uint64_t>(es.last_reprice.lpip_candidates);
      lpip_reused_ += static_cast<uint64_t>(es.last_reprice.lpip_reused);
    }
  }
  last_shard_versions_.clear();
  for (const auto& es : stats.shards) last_shard_versions_.push_back(es.version);
  gauges_.chain_length_sum += chain / static_cast<double>(stats.shards.size());
  ++gauges_.samples;
  gauges_.epoch_pending_max =
      std::max(gauges_.epoch_pending_max, stats.merged.epoch.pending);
  gauges_.pending_cells_max = std::max(
      gauges_.pending_cells_max, engine_->reader_stats().catalog.deltas_pending);
}

// Writer stream over schedule_[first, last). Paced: op first + k is due
// at t0 + k / writer_rate; one op outstanding at a time, so the writes
// land in schedule order and the book is a function of the inputs. A
// late op goes out as soon as its predecessor completes, and its latency
// still counts from its due time. Unpaced (the epilogue): each op goes
// out when its predecessor completes.
void Bench::WriterStream(bool paced, int64_t t0, size_t first, size_t last,
                         StreamResult* out, Tracer* tracer) {
  const double interval_ns = 1e9 / cfg_.writer_rate;
  if (tracer->enabled()) SampleGauges();
  for (size_t k = first; k < last; ++k) {
    const WriterOp& op = schedule_[k];
    if (op.paced != paced) continue;
    const int64_t due =
        paced ? t0 + static_cast<int64_t>(static_cast<double>(k - first) *
                                          interval_ns)
              : NowNs();
    int64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    const uint64_t id = conn_w_.NextId();
    std::vector<uint8_t> frame;
    if (op.append) {
      std::vector<rpc::WireBuyer> buyers;
      for (const Buyer& b : op.buyers) {
        buyers.push_back({instance_.sql[b.query], b.valuation});
      }
      frame = rpc::EncodeAppendRequest(id, buyers);
    } else {
      frame = rpc::EncodeApplySellerDeltaRequest(id, op.delta);
    }
    int64_t span =
        tracer->Begin(op.append ? "rpc.append" : "rpc.seller_delta", -1, id);
    ++out->attempted;
    Reply r = Call(conn_w_, id, frame);
    const double latency_ns = static_cast<double>(NowNs() - due);
    tracer->End(span);
    if (r.type == rpc::MsgType::kErrorReply) {
      rpc::Frame f{r.type, id, r.body};
      out->Fail("writer: " + ErrorMessage(f));
      continue;
    }
    if (op.append) {
      rpc::WireAppendResult result;
      if (r.type != rpc::MsgType::kAppendReply ||
          !rpc::DecodeAppendReply(r.body, &result)) {
        Die("malformed append reply");
      }
      if (result.code != rpc::WireCode::kOk) {
        out->Fail("append: " + result.message);
        continue;
      }
      out->append_ms.push_back(latency_ns / 1e6);
    } else {
      rpc::WireDeltaResult result;
      if (r.type != rpc::MsgType::kApplySellerDeltaReply ||
          !rpc::DecodeApplySellerDeltaReply(r.body, &result)) {
        Die("malformed seller delta reply");
      }
      if (result.code != rpc::WireCode::kOk) {
        out->Fail("seller delta: " + result.message);
        continue;
      }
      out->delta_us.push_back(latency_ns / 1e3);
    }
    if (tracer->enabled()) SampleGauges();
  }
}

// Saturating phase: kWindow pipelined quotes outstanding per connection
// against the static book; every reply must match the in-process quote
// bit for bit.
void Bench::SaturateStream(WireConn& conn, int lane, int64_t start,
                           int64_t end, StreamResult* out) {
  std::unordered_map<uint64_t, size_t> pending;
  size_t next = static_cast<size_t>(lane) * 7919;
  auto handle = [&](const rpc::Frame& f) {
    auto it = pending.find(f.request_id);
    if (it == pending.end()) Die("saturate reply to an unknown request");
    const size_t idx = it->second;
    pending.erase(it);
    if (f.type == rpc::MsgType::kErrorReply) {
      out->Fail("quote: " + ErrorMessage(f));
      return;
    }
    Require(CompareQuotes(DecodeQuoteOrDie(f), reference_[idx]),
            "wire quote matches in-process QuoteBundle");
    const size_t w = static_cast<size_t>((NowNs() - start) / kSaturateWindowNs);
    if (out->saturate_windows.size() <= w) out->saturate_windows.resize(w + 1);
    ++out->saturate_windows[w];
  };
  // Refills go out as one write, so the server sees whole bursts and
  // batches them, rather than a trickle whose batching varies run to run.
  std::vector<uint8_t> burst;
  for (;;) {
    const bool open = NowNs() < end;
    burst.clear();
    while (open && pending.size() < static_cast<size_t>(kWindow)) {
      const size_t idx = next++ % pool_.size();
      const uint64_t id = conn.NextId();
      std::vector<uint8_t> frame = rpc::EncodeQuoteRequest(id, pool_[idx]);
      burst.insert(burst.end(), frame.begin(), frame.end());
      pending.emplace(id, idx);
      ++out->attempted;
    }
    if (!burst.empty() && !conn.Send(burst)) Die("saturate connection broke");
    if (!open && pending.empty()) break;
    if (conn.Poll(-1, handle) < 0) Die("saturate connection broke");
  }
}

// Saturating slice: two pipelined connections, one per loop, one client
// thread each, for `duration_ns`, while no other stream runs, so the
// book is static. Appends the rates of its full windows, and adds the
// loop-thread allocations and quotes served over it: loop threads
// publish their allocation counts after each tick, so with no request
// in flight the sums are stable after a short pause, and the slice is
// all the loops serve between the two samples.
void Bench::SaturatePhase(int64_t duration_ns, StreamResult* out,
                          LaneRates* lane_qps, uint64_t* allocs,
                          uint64_t* quotes) {
  reference_.clear();
  for (const auto& bundle : pool_) reference_.push_back(engine_->QuoteBundle(bundle));
  const rpc::WireStats stats_before = FetchStats(conn_w_);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const uint64_t allocs_before = server_->alloc_probe_total();
  StreamResult s0, s1;
  const int64_t start = NowNs();
  const int64_t end = start + duration_ns;
  std::thread ta([&] {
    cpus_.PinSelf(2);
    SaturateStream(conn_q_, 0, start, end, &s0);
  });
  SaturateStream(conn_w_, 1, start, end, &s1);
  ta.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  *allocs += server_->alloc_probe_total() - allocs_before;
  *quotes += FetchStats(conn_w_).batched_quotes - stats_before.batched_quotes;
  for (size_t w = 0; static_cast<int64_t>(w + 1) * kSaturateWindowNs <=
                     duration_ns; ++w) {
    for (int lane = 0; lane < 2; ++lane) {
      const StreamResult& r = lane == 0 ? s0 : s1;
      const uint64_t n =
          w < r.saturate_windows.size() ? r.saturate_windows[w] : 0;
      (*lane_qps)[lane].push_back(static_cast<double>(n) * 1e9 /
                                  kSaturateWindowNs);
    }
  }
  for (StreamResult* r : {&s0, &s1}) {
    out->attempted += r->attempted;
    out->failed += r->failed;
    if (out->first_error.empty()) out->first_error = r->first_error;
  }
}

// Conflict set of every appended buyer, in append order. Every
// measured seller delta writes a cell's value back unchanged, so these
// are the seed conflict sets.
std::vector<std::vector<uint32_t>> Bench::AppendedConflictSets() {
  std::vector<std::vector<uint32_t>> sets;
  for (const Buyer& b : initial_) sets.push_back(partition_.seed_edges[b.query]);
  for (const WriterOp& op : schedule_) {
    for (const Buyer& b : op.buyers) {
      sets.push_back(partition_.seed_edges[b.query]);
    }
  }
  return sets;
}

void Bench::CheckBookRevenue(const std::vector<std::vector<uint32_t>>& sets) {
  std::vector<double> values;
  for (const Buyer& b : initial_) values.push_back(b.valuation);
  for (const WriterOp& op : schedule_) {
    for (const Buyer& b : op.buyers) values.push_back(b.valuation);
  }
  if (values.size() != sets.size()) Die("buyer bookkeeping mismatch");

  // Cross-shard buyers were clipped to their primary shard (most items,
  // ties to the lowest shard); their clipped edge's share is taken out
  // of the book's revenue and they are left out of the recomputation.
  // Every buyer query's seed conflict set is non-empty (see SetUp).
  std::vector<std::vector<uint32_t>> bundles;
  std::vector<bool> excluded_buyer(sets.size(), false);
  double excluded = 0.0;
  uint64_t n_cross = 0;
  auto sells = [](double p, double v) {
    return p <= v + qp::core::kSellTolerance * (1.0 + std::fabs(v));
  };
  for (size_t i = 0; i < sets.size(); ++i) {
    std::vector<int> count(kShards, 0);
    for (uint32_t item : sets[i]) ++count[partition_.shard_of_item[item]];
    int primary = 0, touched = 0;
    for (int s = 0; s < kShards; ++s) {
      if (count[s] > 0) ++touched;
      if (count[s] > count[primary]) primary = s;
    }
    if (touched == 1) {
      bundles.push_back(sets[i]);
      continue;
    }
    ++n_cross;
    excluded_buyer[i] = true;
    std::vector<uint32_t> clipped;
    for (uint32_t item : sets[i]) {
      if (partition_.shard_of_item[item] == primary) clipped.push_back(item);
    }
    bundles.push_back(std::move(clipped));
  }
  const uint64_t id = conn_w_.NextId();
  Reply r = Call(conn_w_, id, rpc::EncodeQuoteBatchRequest(id, bundles));
  std::vector<Quote> quotes;
  if (r.type != rpc::MsgType::kQuoteBatchReply ||
      !rpc::DecodeQuoteBatchReply(r.body, &quotes) ||
      quotes.size() != bundles.size()) {
    Die("malformed book quote batch");
  }
  double recomputed = 0.0, sum_values = 0.0;
  for (size_t i = 0; i < quotes.size(); ++i) {
    sum_values += values[i];
    if (!sells(quotes[i].price, values[i])) continue;
    if (excluded_buyer[i]) {
      excluded += quotes[i].price;
    } else {
      recomputed += quotes[i].price;
    }
  }
  const double book = engine_->snapshot().best_revenue();
  const uint64_t reported = engine_->stats().cross_shard_appends;
  if (reported != n_cross) {
    Die(StrFormat("engine reports %llu cross-shard appends, benchmark found %llu",
                  static_cast<unsigned long long>(reported),
                  static_cast<unsigned long long>(n_cross)));
  }
  if (n_cross > 0) {
    std::cerr << StrFormat(
        "book_revenue: %llu cross-shard buyers excluded (their share %.6g)\n",
        static_cast<unsigned long long>(n_cross), excluded);
  }
  if (!SameSum(recomputed, book - excluded)) {
    Require(StrFormat("book revenue %.17g (minus %.17g excluded) != %.17g "
                      "recomputed from wire quotes",
                      book, excluded, recomputed),
            "book revenue");
  }
  Require(perfbench::CheckBookRevenue(book, book, OptimalUniformBundleRevenue(values),
                           sum_values),
          "book revenue bounds");
  // Normalized like every revenue figure of the paper: a share of the
  // sum of the book's buyers' valuations.
  book_revenue_ = book / sum_values;
}

void Bench::CheckRecovery() {
  auto state = qp::serve::persist::Recover(run_dir_ + "/journal");
  CheckOk(state.status(), "recover");
  auto db = LoadInstance().database;
  qp::serve::ShardedPricingEngine restored(db.get(), partition_,
                                           engine_options_);
  CheckOk(restored.RestoreFromCheckpoint(*state, db.get()), "restore");
  for (size_t i = 0; i < pool_.size(); ++i) {
    Require(CompareQuotes(restored.QuoteBundle(pool_[i]),
                          engine_->QuoteBundle(pool_[i])),
            "recovered book quotes like the live book");
  }
}

// Value-changing seller deltas over the wire, after the measured phases:
// for each of the first kNaiveChecks purchase queries, one seeded item
// of its conflict set is applied, which takes that item out of the
// query's conflict set. A server that lost or misapplied a write keeps
// the item (CheckCatalog) or the cell's old value (CheckCells).
void Bench::SendCheckDeltas() {
  Rng rng(qp::Mix64(args_.seed ^ 0x7a1eULL));
  for (size_t i = 0; i < kNaiveChecks; ++i) {
    const std::vector<uint32_t>& set =
        partition_.seed_edges[purchases_[i].query];
    const CellDelta& delta = support_[set[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(set.size()) - 1))]];
    const uint64_t id = conn_w_.NextId();
    Reply r = Call(conn_w_, id, rpc::EncodeApplySellerDeltaRequest(id, delta));
    rpc::WireDeltaResult result;
    if (r.type != rpc::MsgType::kApplySellerDeltaReply ||
        !rpc::DecodeApplySellerDeltaReply(r.body, &result) ||
        result.code != rpc::WireCode::kOk) {
      Die("check seller delta was not applied");
    }
    RecordWrite(delta);
    check_deltas_.push_back(delta);
  }
}

void Bench::CheckCatalog() {
  const qp::db::VersionedDatabase& catalog = engine_->catalog();
  Require(CheckCells(last_writes_,
                     [&](int t, int r, int c) {
                       return catalog.LogicalCell(t, r, c);
                     }),
          "logical cells hold the last written values");
  // Purchase bundles over the wire against NaiveConflictSet on a twin
  // database with the same deltas applied in place.
  auto twin = LoadInstance().database;
  for (const WriterOp& op : schedule_) {
    if (!op.append) qp::market::ApplyDelta(*twin, op.delta);
  }
  for (const CellDelta& d : check_deltas_) qp::market::ApplyDelta(*twin, d);
  for (size_t i = 0; i < kNaiveChecks; ++i) {
    const Buyer& b = purchases_[i];
    const uint64_t id = conn_w_.NextId();
    Reply r = Call(conn_w_, id,
                   rpc::EncodePurchaseRequest(id, instance_.sql[b.query], 0.0));
    rpc::WirePurchase purchase;
    if (r.type != rpc::MsgType::kPurchaseReply ||
        !rpc::DecodePurchaseReply(r.body, &purchase)) {
      Die("malformed purchase reply");
    }
    auto query = qp::db::ParseQuery(instance_.sql[b.query], *twin);
    CheckOk(query.status(), "parse on twin");
    std::vector<uint32_t> naive =
        qp::market::NaiveConflictSet(*twin, *query, support_);
    std::vector<uint32_t> got = purchase.bundle;
    std::sort(got.begin(), got.end());
    if (got != naive) {
      Require(StrFormat("purchase bundle of query %zu holds %zu items, "
                        "NaiveConflictSet on the twin %zu",
                        b.query, got.size(), naive.size()),
              "purchase bundle");
    }
  }
}

std::map<std::string, double> Bench::TracedLayers(const rpc::WireStats& before,
                                                  const rpc::WireStats& after,
                                                  uint64_t allocs,
                                                  uint64_t quotes,
                                                  Tracer* tracer) {
  std::map<std::string, double> m;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  Tracer& t = *tracer;
  const qp::db::Database& db = *instance_.database;

  // rpc: server counters over the measured phases.
  m["rpc.frames_per_sendmsg"] =
      ratio(static_cast<double>(after.writev_frames - before.writev_frames),
            static_cast<double>(after.writev_calls - before.writev_calls));
  m["rpc.quotes_per_tick"] =
      ratio(static_cast<double>(after.batched_quotes - before.batched_quotes),
            static_cast<double>(after.quote_ticks - before.quote_ticks));
  // Loop-thread allocations over the saturating slices, when the loops
  // serve quotes only, per 1000 quotes of those slices.
  m["rpc.loop_allocs_per_kquote"] =
      ratio(1000.0 * static_cast<double>(allocs), static_cast<double>(quotes));
  m["market.prepared_hit_ratio"] = ratio(
      static_cast<double>(after.prepared_hits - before.prepared_hits),
      static_cast<double>(after.prepared_hits - before.prepared_hits +
                          after.prepared_misses - before.prepared_misses));
  m["db.fold_ratio"] =
      ratio(static_cast<double>(after.folds),
            static_cast<double>(after.folds + after.fold_retries));

  // rpc: codec cost, four frames per quote (request and reply, encode
  // and decode).
  const size_t n_codec = std::min<size_t>(pool_.size(), 2000);
  for (size_t i = 0; i < n_codec; ++i) {
    Tracer::Scope span(t, "rpc.codec", -1, i);
    auto req = rpc::EncodeQuoteRequest(i, pool_[i]);
    std::vector<uint32_t> bundle;
    qp::serve::rpc::Frame f;
    size_t consumed = 0;
    rpc::ExtractFrame(req.data(), req.size(), &consumed, &f);
    rpc::DecodeQuoteRequest(f.body, &bundle);
    auto rep = rpc::EncodeQuoteReply(i, reference_[i]);
    rpc::ExtractFrame(rep.data(), rep.size(), &consumed, &f);
    Quote q;
    rpc::DecodeQuoteReply(f.body, &q);
    if (bundle != pool_[i] || !CompareQuotes(q, reference_[i]).empty()) {
      Die("codec round trip changed a frame");
    }
  }

  // rpc: a closed-loop wire round trip against the same quote in-process.
  const size_t n_rt = std::min<size_t>(pool_.size(), 1000);
  for (size_t i = 0; i < n_rt; ++i) {
    const uint64_t id = conn_q_.NextId();
    int64_t root = t.Begin("request.quote", -1, id);
    {
      Tracer::Scope span(t, "rpc.roundtrip", root, id);
      Call(conn_q_, id, rpc::EncodeQuoteRequest(id, pool_[i]));
    }
    {
      Tracer::Scope span(t, "serve.quote_one", root, id);
      engine_->QuoteBundle(pool_[i]);
    }
    t.End(root);
  }
  // serve: batched in-process quoting, the loop's engine call.
  for (int r = 0; r < 50; ++r) {
    Tracer::Scope span(t, "serve.quote_batch", -1, static_cast<uint64_t>(r));
    engine_->QuoteBatch(pool_);
  }

  // Purchase path, one module call at a time.
  const size_t n_purchase = 200;
  qp::market::ConflictSetEngine prober(&db);
  for (size_t i = 0; i < n_purchase; ++i) {
    const Buyer& b = purchases_[i % purchases_.size()];
    const uint64_t req = 1000000 + i;
    int64_t root = t.Begin("request.purchase", -1, req);
    {
      Tracer::Scope span(t, "rpc.codec", root, req);
      auto frame = rpc::EncodePurchaseRequest(req, instance_.sql[b.query],
                                              b.valuation);
      qp::serve::rpc::Frame f;
      size_t consumed = 0;
      rpc::ExtractFrame(frame.data(), frame.size(), &consumed, &f);
      std::string sql;
      double v = 0;
      rpc::DecodePurchaseRequest(f.body, &sql, &v);
    }
    int64_t parse_span = t.Begin("db.parse", root, req);
    auto query = qp::db::ParseQuery(instance_.sql[b.query], db);
    t.End(parse_span);
    CheckOk(query.status(), "parse");
    std::vector<uint32_t> bundle;
    {
      qp::common::EpochManager::Guard guard(engine_->catalog().epochs());
      const qp::db::DeltaOverlay* overlay = &engine_->catalog().head()->overlay;
      int64_t prep = t.Begin("market.prepare", root, req);
      qp::market::PreparedConflictQuery prepared(db, *query, overlay);
      t.End(prep);
      qp::market::ConflictStats stats;
      Tracer::Scope span(t, "market.probe", root, req);
      bundle = prober.ConflictSet(prepared, support_, overlay, stats);
    }
    {
      Tracer::Scope span(t, "serve.quote", root, req);
      engine_->QuoteBundle(bundle);
    }
    {
      Tracer::Scope span(t, "serve.purchase", root, req);
      engine_->Purchase(*query, b.valuation);
    }
    t.End(root);
  }

  // core + lp: the paper's Table 4 timings on the final per-shard
  // instances. RunAllAlgorithms reports each algorithm's seconds; their
  // spans are laid end to end inside the call's interval.
  std::map<std::string, double> alg_ms;
  double lp_seconds = 0.0;
  int lp_count = 0;
  for (int s = 0; s < engine_->num_shards(); ++s) {
    const qp::serve::PricingEngine& shard = engine_->shard(s);
    int64_t call = t.Begin("core.run_all", -1, static_cast<uint64_t>(s));
    const int64_t begin = NowNs();
    auto results = qp::core::RunAllAlgorithms(
        shard.hypergraph(), shard.valuations(),
        engine_options_.engine.algorithms);
    t.End(call);
    int64_t cursor = begin;
    for (const auto& r : results) {
      const int64_t len = static_cast<int64_t>(r.seconds * 1e9);
      t.Add(("core." + r.algorithm).c_str(), cursor, cursor + len, call,
            static_cast<uint64_t>(s));
      cursor += len;
      alg_ms[r.algorithm] += r.seconds * 1e3;
      if (r.lps_solved > 0) {
        lp_seconds += r.seconds;
        lp_count += r.lps_solved;
      }
    }
  }
  const std::pair<const char*, const char*> algs[] = {
      {"UBP", "core.ubp_ms"},   {"UIP", "core.uip_ms"},
      {"LPIP", "core.lpip_ms"}, {"CIP", "core.cip_ms"},
      {"Layering", "core.layering_ms"}, {"XOS", "core.xos_ms"}};
  for (const auto& [alg, metric] : algs) m[metric] = alg_ms[alg];
  m["lp.us_per_lp"] = ratio(lp_seconds * 1e6, lp_count);

  // core + lp from the live run's writer-side samples.
  double n_appends = 0;
  for (const WriterOp& op : schedule_) n_appends += op.append ? 1 : 0;
  m["core.reprice_ms_per_append"] = ratio(reprice_seconds_ * 1e3, n_appends);
  m["core.lpip_reuse_ratio"] =
      ratio(static_cast<double>(lpip_reused_),
            static_cast<double>(lpip_candidates_));
  m["lp.lps_per_append"] = ratio(lps_in_window_, n_appends);
  m["serve.chain_length_mean"] =
      ratio(gauges_.chain_length_sum, static_cast<double>(gauges_.samples));
  m["serve.epoch_retire_backlog"] =
      static_cast<double>(gauges_.epoch_pending_max);
  m["db.pending_cells_max"] = static_cast<double>(gauges_.pending_cells_max);
  m["market.pruned_ratio"] = pruned_ratio_;
  m["common.epoch_pins_per_quote"] = epoch_pins_per_quote_;

  // serve: the append sequence replayed in-process on a fresh engine,
  // with allocation bytes counted per append. Nothing else runs now.
  {
    auto db_twin = LoadInstance().database;
    qp::serve::ShardedPricingEngine replay(db_twin.get(), partition_,
                                           engine_options_);
    size_t next = 0;
    std::vector<std::vector<uint32_t>> edges;
    qp::core::Valuations values;
    for (const Buyer& b : initial_) {
      edges.push_back(appended_sets_[next++]);
      values.push_back(b.valuation);
    }
    CheckOk(replay.AppendBuyersPrecomputed(std::move(edges), values),
            "replay initial book");
    std::vector<uint64_t> versions;
    for (int s = 0; s < replay.num_shards(); ++s) {
      versions.push_back(replay.shard(s).stats().version);
    }
    double bytes = 0.0, self_ms = 0.0;
    uint64_t k = 0;
    for (const WriterOp& op : schedule_) {
      if (!op.append) continue;
      edges.clear();
      values.clear();
      for (const Buyer& b : op.buyers) {
        edges.push_back(appended_sets_[next++]);
        values.push_back(b.valuation);
      }
      g_alloc_bytes.store(0);
      g_count_bytes.store(true);
      const int64_t begin = NowNs();
      int64_t span = t.Begin("serve.append", -1, k++);
      CheckOk(replay.AppendBuyersPrecomputed(std::move(edges), values),
              "replay append");
      t.End(span);
      const double wall_ms = static_cast<double>(NowNs() - begin) / 1e6;
      g_count_bytes.store(false);
      bytes += static_cast<double>(g_alloc_bytes.load());
      // Shards reprice in parallel: the append's own time is its wall
      // time minus the longest shard reprice it waited for.
      double reprice_ms = 0.0;
      for (int s = 0; s < replay.num_shards(); ++s) {
        qp::serve::EngineStats es = replay.shard(s).stats();
        if (es.version != versions[static_cast<size_t>(s)]) {
          reprice_ms = std::max(reprice_ms, es.last_reprice.seconds * 1e3);
          versions[static_cast<size_t>(s)] = es.version;
        }
      }
      self_ms += std::max(0.0, wall_ms - reprice_ms);
    }
    m["serve.publish_bytes_per_append"] = ratio(bytes, n_appends);
    m["serve.append_self_ms"] = ratio(self_ms, n_appends);
  }

  // db: the seller-delta sequence committed to a twin versioned catalog,
  // with a reader pinned across each commit as live traffic would be.
  {
    auto db_twin = LoadInstance().database;
    qp::common::EpochManager epochs;
    qp::db::VersionedDatabase catalog(db_twin.get(), &epochs);
    uint64_t k = 0;
    for (const WriterOp& op : schedule_) {
      if (op.append) continue;
      qp::common::EpochManager::Guard reader(epochs);
      Tracer::Scope span(t, "db.commit", -1, k++);
      catalog.Commit(*db_twin, op.delta.table, op.delta.row, op.delta.column,
                     op.delta.new_value);
    }
  }

  // persist: journal bytes per logged op, and checkpoints of the final
  // book while the writer is idle.
  const auto& js = journal_->stats();
  m["persist.journal_bytes_per_op"] =
      ratio(static_cast<double>(js.journal_bytes),
            static_cast<double>(js.journal_records));
  for (int r = 0; r < 3; ++r) {
    Tracer::Scope span(t, "persist.checkpoint", -1, static_cast<uint64_t>(r));
    CheckOk(journal_->CheckpointNow(), "checkpoint");
  }

  // Span-derived means.
  auto agg = t.Aggregate();
  auto mean_us = [&](const char* name) {
    auto it = agg.find(name);
    if (it == agg.end() || it->second.count == 0) return 0.0;
    return it->second.total_ns / 1e3 / static_cast<double>(it->second.count);
  };
  m["rpc.codec_ns_per_frame"] = ratio(agg["rpc.codec"].total_ns,
                                      4.0 * static_cast<double>(n_codec) +
                                          2.0 * n_purchase);
  m["rpc.overhead_us_per_quote"] =
      mean_us("rpc.roundtrip") - mean_us("serve.quote_one");
  m["serve.quote_ns_per_bundle"] =
      ratio(agg["serve.quote_batch"].total_ns,
            50.0 * static_cast<double>(pool_.size()));
  m["serve.purchase_self_us"] = mean_us("serve.purchase") -
                                mean_us("market.probe") -
                                mean_us("serve.quote");
  m["db.parse_us_per_sql"] = mean_us("db.parse");
  m["market.prepare_us_per_query"] = mean_us("market.prepare");
  m["market.probe_us_per_query"] = mean_us("market.probe");
  m["db.commit_us"] = mean_us("db.commit");
  m["persist.checkpoint_ms"] = mean_us("persist.checkpoint") / 1e3;
  return m;
}

// ---------------------------------------------------------------------------

struct Metric {
  const char* name;
  const char* unit;
};

// The tails (quote_p99_us, purchase_p99_us, append_p90_ms, delta_p99_us)
// are printed on standard error but left out of the result: on the
// shared four-CPU host their run-to-run spread exceeded every bound the
// benchmark may set (see README.md).
const Metric kEndToEnd[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},
    {"quote_qps", "1/s"},     {"quote_p50_us", "us"},
    {"purchase_p50_us", "us"}, {"append_mean_ms", "ms"},
    {"book_revenue", "share"}, {"delta_p50_us", "us"},
};

const Metric kPerLayer[] = {
    {"rpc.frames_per_sendmsg", "ratio"},
    {"rpc.quotes_per_tick", "ratio"},
    {"rpc.codec_ns_per_frame", "ns"},
    {"rpc.overhead_us_per_quote", "us"},
    {"rpc.loop_allocs_per_kquote", "count"},
    {"serve.quote_ns_per_bundle", "ns"},
    {"serve.chain_length_mean", "count"},
    {"serve.epoch_retire_backlog", "count"},
    {"serve.publish_bytes_per_append", "bytes"},
    {"serve.append_self_ms", "ms"},
    {"serve.purchase_self_us", "us"},
    {"core.reprice_ms_per_append", "ms"},
    {"core.lpip_reuse_ratio", "ratio"},
    {"core.ubp_ms", "ms"},
    {"core.uip_ms", "ms"},
    {"core.lpip_ms", "ms"},
    {"core.cip_ms", "ms"},
    {"core.layering_ms", "ms"},
    {"core.xos_ms", "ms"},
    {"lp.lps_per_append", "count"},
    {"lp.us_per_lp", "us"},
    {"market.probe_us_per_query", "us"},
    {"market.prepare_us_per_query", "us"},
    {"market.prepared_hit_ratio", "ratio"},
    {"market.pruned_ratio", "ratio"},
    {"db.parse_us_per_sql", "us"},
    {"db.commit_us", "us"},
    {"db.pending_cells_max", "count"},
    {"db.fold_ratio", "ratio"},
    {"persist.journal_bytes_per_op", "bytes"},
    {"persist.checkpoint_ms", "ms"},
    {"common.epoch_pins_per_quote", "count"},
};

template <size_t N>
std::string MetricsJson(const Metric (&list)[N],
                        std::map<std::string, double>& values) {
  std::string out = "{";
  for (size_t i = 0; i < N; ++i) {
    auto it = values.find(list[i].name);
    if (it == values.end()) Die(std::string("metric not computed: ") + list[i].name);
    if (i > 0) out += ", ";
    out += StrFormat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     list[i].name, it->second, list[i].unit);
  }
  return out + "}";
}

int Bench::Run() {
  int64_t phase_start = g_process_start_ns;
  auto phase = [&](const char* name) {
    const int64_t now = NowNs();
    std::cerr << StrFormat("phase %-10s %.3f s\n", name,
                           static_cast<double>(now - phase_start) / 1e9);
    phase_start = now;
  };
  SetUp();
  phase("set-up");
  Tracer trace_q(args_.trace), trace_p(args_.trace), trace_w(args_.trace);
  setup_s_ = static_cast<double>(NowNs() - g_process_start_ns) / 1e9;

  const rpc::WireStats before = FetchStats(conn_w_);
  qp::serve::ShardedEngineStats es_before;
  if (args_.trace) es_before = engine_->stats();

  // Saturating slices and mixed segments alternate; the book changes only
  // in the mixed segments and the epilogue.
  const int64_t segment_ns =
      static_cast<int64_t>(args_.seconds * kMixedShare * 1e9) / kSegments;
  const int64_t slice_ns = std::max<int64_t>(
      kSaturateWindowNs,
      static_cast<int64_t>(args_.seconds * (1.0 - kMixedShare) * 1e9) /
          (kSegments + 1));
  LaneRates lane_qps;
  uint64_t sat_allocs = 0, sat_quotes = 0;
  StreamResult rq, rp, rw, sat;
  for (int seg = 0; seg < kSegments; ++seg) {
    SaturatePhase(slice_ns, &sat, &lane_qps, &sat_allocs, &sat_quotes);
    auto part = [&](size_t n) {
      return std::make_pair(n * static_cast<size_t>(seg) / kSegments,
                            n * static_cast<size_t>(seg + 1) / kSegments);
    };
    const auto [p_first, p_last] = part(purchases_.size());
    const auto [w_first, w_last] = part(paced_ops_);
    const int64_t t0 = NowNs() + 1000000;
    const int64_t end = t0 + segment_ns;
    std::thread tq([&] {
      cpus_.PinSelf(2);
      QuoteStream(t0, end, &rq, &trace_q);
    });
    std::thread tp([&] {
      PurchaseStream(t0, end, p_first, p_last, &rp, &trace_p);
    });
    WriterStream(true, t0, w_first, w_last, &rw, &trace_w);
    tq.join();
    tp.join();
  }
  phase("mixed+sat");
  WriterStream(false, 0, paced_ops_, schedule_.size(), &rw, &trace_w);
  phase("epilogue");
  SaturatePhase(slice_ns, &sat, &lane_qps, &sat_allocs, &sat_quotes);
  phase("saturate");
  for (int lane = 0; lane < 2; ++lane) {
    std::cerr << StrFormat(
        "saturate lane %d: %zu windows, min %.0fk, median %.0fk, p95 %.0fk, "
        "max %.0fk\n",
        lane, lane_qps[lane].size(), Percentile(lane_qps[lane], 0.0) / 1e3,
        Percentile(lane_qps[lane], 0.5) / 1e3,
        Percentile(lane_qps[lane], 0.95) / 1e3,
        Percentile(lane_qps[lane], 1.0) / 1e3);
  }
  const rpc::WireStats after = FetchStats(conn_w_);
  // Peak RSS of the measured phases, before the checks load twin
  // databases and a recovered engine.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  StreamResult total;
  for (StreamResult* r : {&rq, &rp, &rw, &sat}) {
    total.attempted += r->attempted;
    total.failed += r->failed;
    if (total.first_error.empty()) total.first_error = r->first_error;
  }
  if (!total.first_error.empty()) {
    std::cerr << "first failed operation: " << total.first_error << "\n";
  }

  // Quiet-state checks.
  if (!SameSum(rp.accepted_revenue, after.sale_revenue - before.sale_revenue)) {
    Require(StrFormat("client sums %.17g, server sale_revenue moved %.17g",
                      rp.accepted_revenue,
                      after.sale_revenue - before.sale_revenue),
            "sale revenue");
  }
  if (after.purchases - before.purchases != rp.purchase_us.size()) {
    Require("server counted another number of purchases", "purchase count");
  }
  appended_sets_ = AppendedConflictSets();
  CheckBookRevenue(appended_sets_);
  SendCheckDeltas();
  CheckRecovery();
  phase("recovery");
  CheckCatalog();
  phase("catalog");

  const uint64_t quotes_served = after.batched_quotes - before.batched_quotes;
  std::map<std::string, double> e2e;
  e2e["setup_s"] = setup_s_;
  e2e["peak_rss_mb"] = peak_rss_mb;
  // Each lane's 95th percentile over its windows, summed: the host slows
  // single CPUs for seconds at a time, which only ever lowers a window's
  // rate, and a lane needs only its own two CPUs (loop and client) to be
  // fast, where the sum of both lanes needs all four at once.
  e2e["quote_qps"] =
      Percentile(lane_qps[0], 0.95) + Percentile(lane_qps[1], 0.95);
  e2e["append_mean_ms"] = Mean(rw.append_ms);
  e2e["quote_p50_us"] = ChunkedPercentile(rq.quote_us, 0.5);
  e2e["quote_p99_us"] = ChunkedPercentile(rq.quote_us, 0.99);
  e2e["purchase_p50_us"] = ChunkedPercentile(rp.purchase_us, 0.5);
  e2e["purchase_p99_us"] = ChunkedPercentile(rp.purchase_us, 0.99);
  e2e["append_p50_ms"] = ChunkedPercentile(rw.append_ms, 0.5);
  e2e["append_p90_ms"] = ChunkedPercentile(rw.append_ms, 0.9);
  e2e["book_revenue"] = book_revenue_;
  e2e["delta_p50_us"] = ChunkedPercentile(rw.delta_us, 0.5);
  e2e["delta_p99_us"] = ChunkedPercentile(rw.delta_us, 0.99);
  std::cerr << StrFormat(
      "%s seed=%llu: %zu quotes, %zu purchases, %zu appends, %zu deltas "
      "timed; quote sender lag max %.0f us, purchase sender lag max %.0f "
      "us\n",
      cfg_.name, static_cast<unsigned long long>(args_.seed),
      rq.quote_us.size(), rp.purchase_us.size(), rw.append_ms.size(),
      rw.delta_us.size(), rq.max_send_lag_us, rp.max_send_lag_us);
  for (const auto& [name, value] : e2e) {
    std::cerr << StrFormat("  %-18s %.6g\n", name.c_str(), value);
  }

  std::string metrics;
  if (args_.trace) {
    qp::serve::ShardedEngineStats es_after = engine_->stats();
    const auto& c0 = es_before.merged.conflict;
    const auto& c1 = es_after.merged.conflict;
    const double probes = static_cast<double>(c1.probes - c0.probes);
    const double pruned = static_cast<double>(c1.pruned - c0.pruned);
    pruned_ratio_ = probes + pruned > 0 ? pruned / (probes + pruned) : 0.0;
    const double pins = static_cast<double>(es_after.merged.epoch.pins -
                                            es_before.merged.epoch.pins);
    epoch_pins_per_quote_ =
        quotes_served > 0 ? pins / static_cast<double>(quotes_served) : 0.0;
    lps_in_window_ = static_cast<double>(es_after.merged.total_lps_solved -
                                         es_before.merged.total_lps_solved);
    Tracer tracer(true);
    std::map<std::string, double> layers =
        TracedLayers(before, after, sat_allocs, sat_quotes, &tracer);
    tracer.Merge(trace_q);
    tracer.Merge(trace_p);
    tracer.Merge(trace_w);
    const char* build_dir = std::getenv("CARGO_TARGET_DIR");
    std::string dir = StrFormat("%s/traces", build_dir ? build_dir : ".bench_build");
    std::filesystem::create_directories(dir);
    std::string path = StrFormat("%s/%s-seed%llu.json", dir.c_str(), cfg_.name,
                                 static_cast<unsigned long long>(args_.seed));
    if (!tracer.WriteJson(path)) Die("cannot write " + path);
    std::cerr << StrFormat("trace: %zu spans written to %s\n",
                           tracer.spans().size(), path.c_str());
    for (const auto& [name, value] : layers) {
      std::cerr << StrFormat("  %-32s %.6g\n", name.c_str(), value);
    }
    metrics = MetricsJson(kPerLayer, layers);
    phase("traced");
  } else {
    metrics = MetricsJson(kEndToEnd, e2e);
  }

  server_->Stop();
  std::filesystem::remove_all(run_dir_);
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args = perfbench::ParseArgs(argc, argv);
  for (const auto& cfg : perfbench::kWorkloads) {
    if (args.workload == cfg.name) {
      perfbench::Bench bench(cfg, args);
      return bench.Run();
    }
  }
  std::cerr << "broker_bench: unknown workload '" << args.workload
            << "' (quote-mix | buyer-arrivals)\n";
  return 2;
}
