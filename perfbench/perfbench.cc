// End-to-end benchmark of both engines: one process runs one workload and
// prints every metric by name and unit.
//
//   iceberg_perfbench --workload fig1|selective|served --seed N
//                     --seconds S --trace 0|1 [--digests FILE]
//                     [--tiny] [--corrupt] [--write-digests FILE]
//
// A run has two parts:
//  1. set-up, repeated kSetups times: build the database, keys, indexes,
//     column chunks and statistics, then run every statement once, cold,
//     on both engines; setup_s is the median;
//  2. measurement for S seconds, alternating
//     - direct rounds: every statement smart at nproc threads, smart at 1
//       thread, and on the baseline executor at nproc threads, through
//       Database::QueryIceberg / Database::Query, and
//     - served slices: an IcebergServer with nproc-1 reader sessions in a
//       closed loop over the same statements (1 thread per query) and, on
//       the served mix, one writer that inserts into a side table on a
//       fixed period.
//
// Every result is canonically sorted and compared with the 1-thread
// baseline result of the same statement and, for the default seed, with
// the row count + hash stored in the digests file. A mismatch counts as a
// failed statement and makes the process exit with code 1.
//
// --trace 0 reports the end-to-end metrics. --trace 1 turns the trace
// switch on, records the benchmark's own spans around the calls into each
// layer, reads the instruments the program fills (IcebergReport, NljpStats,
// ExecStats, QueryOutcome, metrics-registry deltas) and reports per-layer
// metrics instead. The last line of stdout is the result object; the lines
// before it are per-statement and provenance records.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/workloads.h"
#include "src/common/value.h"
#include "src/engine/database.h"
#include "src/expr/compiled.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/parser/parser.h"
#include "src/plan/cost/join_order.h"
#include "src/server/session.h"
#include "src/stats/column_stats.h"

namespace perfbench {
namespace {

using namespace iceberg;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kDefaultSeed = 42;
constexpr int kSetups = 3;
constexpr int kMinRounds = 3;
/// Share of --seconds given to direct rounds; served slices get the rest,
/// each at least kMinSliceS long.
constexpr double kDirectShare = 0.6;
constexpr double kMinSliceS = 1.0;
constexpr double kLegRepeatMs = 25;
constexpr int kMaxLegRepeats = 8;
constexpr int kWritePeriodMs = 20;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

int Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

constexpr bool kOptimized =
#ifdef __OPTIMIZE__
    true;
#else
    false;
#endif
constexpr bool kNdebug =
#ifdef NDEBUG
    true;
#else
    false;
#endif

// ---- Small statistics helpers ---------------------------------------------

/// Linear-interpolated percentile (p in [0, 1]) of an unsorted sample.
double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double GeoMean(const std::vector<double>& v) {
  double log_sum = 0;
  size_t n = 0;
  for (double x : v) {
    if (x > 0) {
      log_sum += std::log(x);
      ++n;
    }
  }
  return n == 0 ? 0 : std::exp(log_sum / static_cast<double>(n));
}

// ---- JSON output ----------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Builds one flat JSON object, keys in insertion order.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + JsonEscape(key) + "\":" + raw;
    return *this;
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Add(key, "\"" + JsonEscape(v) + "\"");
  }
  JsonObject& Num(const std::string& key, double v) {
    return Add(key, perfbench::Num(v));
  }
  JsonObject& Int(const std::string& key, int64_t v) {
    return Add(key, std::to_string(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Add(key, v ? "true" : "false");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- Options --------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool corrupt = false;
  std::string digests;
  std::string write_digests;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: iceberg_perfbench --workload "
               "fig1|selective|served --seed N --seconds S "
               "--trace 0|1 [--digests FILE] [--tiny] [--corrupt] "
               "[--write-digests FILE]\n",
               msg);
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--digests") {
      o.digests = value();
    } else if (arg == "--write-digests") {
      o.write_digests = value();
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--corrupt") {
      o.corrupt = true;
    } else {
      Usage(("unknown argument: " + arg).c_str());
    }
  }
  if (o.workload != "fig1" && o.workload != "selective" &&
      o.workload != "served") {
    Usage("--workload must be fig1, selective or served");
  }
  if (!(o.seconds > 0)) Usage("--seconds must be positive");
  return o;
}

// ---- Correctness gate -----------------------------------------------------

struct Canonical {
  std::vector<Row> rows;
  uint64_t hash = 0;
};

Canonical Canonicalize(const Table& table) {
  Canonical c;
  c.rows = table.rows();
  std::sort(c.rows.begin(), c.rows.end(), RowLess());
  uint64_t h = 1469598103934665603ull;  // FNV-1a over the rendered rows
  for (const Row& row : c.rows) {
    for (char ch : RowToString(row) + "\n") {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ull;
    }
  }
  c.hash = h;
  return c;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Stored digests: "workload scale seed statement rows hash" per line.
std::map<std::string, std::pair<size_t, std::string>> LoadDigests(
    const std::string& path) {
  std::map<std::string, std::pair<size_t, std::string>> out;
  if (path.empty()) return out;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read digests file %s\n", path.c_str());
    std::exit(2);
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, scale, seed, stmt, hash;
    size_t rows = 0;
    if (fields >> workload >> scale >> seed >> stmt >> rows >> hash) {
      out[workload + " " + scale + " " + seed + " " + stmt] = {rows, hash};
    }
  }
  return out;
}

/// Statement outcome tally, shared by every thread of the run.
struct Tally {
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};  // non-retryable errors
  std::atomic<int64_t> shed{0};    // retryable errors left after retries
  std::atomic<int64_t> wrong{0};   // results that disagree with the reference
};

struct StatementState {
  Statement stmt;
  Canonical reference;
};

/// Compares results with the statement's reference. With `corrupt` set the
/// first checked result is perturbed, to prove the gate catches it.
class Gate {
 public:
  Gate(Tally* tally, bool corrupt) : tally_(tally), corrupt_(corrupt) {}

  void Check(const StatementState& s, const Table& result, const char* where) {
    Canonical got = Canonicalize(result);
    if (corrupt_.exchange(false)) {
      got.rows.push_back(Row{Value::Int(-1)});
    }
    bool same = got.rows.size() == s.reference.rows.size();
    for (size_t i = 0; same && i < got.rows.size(); ++i) {
      same = CompareRows(got.rows[i], s.reference.rows[i]) == 0;
    }
    if (!same) {
      tally_->wrong.fetch_add(1);
      std::fprintf(stderr, "RESULT MISMATCH %s [%s]: %zu rows vs %zu reference\n",
                   s.stmt.name.c_str(), where, got.rows.size(),
                   s.reference.rows.size());
    }
  }

  /// Counts one statement and its status; true when it succeeded.
  bool Count(const Status& st, const std::string& name, const char* where) {
    tally_->attempted.fetch_add(1);
    if (st.ok()) return true;
    (st.IsRetryable() ? tally_->shed : tally_->failed).fetch_add(1);
    std::fprintf(stderr, "FAILED %s [%s]: %s\n", name.c_str(), where,
                 st.ToString().c_str());
    return false;
  }

 private:
  Tally* tally_;
  std::atomic<bool> corrupt_;
};

// ---- Engine legs ----------------------------------------------------------

enum Leg { kSmartN = 0, kSmart1 = 1, kBaseN = 2, kLegs = 3 };
const char* const kLegNames[kLegs] = {"smart", "smart_1t", "baseline"};

struct LegResult {
  Status status;
  TablePtr table;
  double ms = 0;
  IcebergReport report;
  ExecStats stats;
  JoinOrderSchedule order;
};

int LegThreads(Leg leg, int nproc) { return leg == kSmart1 ? 1 : nproc; }

/// One statement on one engine leg, timed around the public entry point.
/// `capture_order` records the CBO's join order (traced runs only).
LegResult RunLeg(Database* db, const std::string& sql, Leg leg, int nproc,
                 bool capture_order) {
  LegResult r;
  Result<TablePtr> result = Status::Internal("not run");
  if (leg == kBaseN) {
    ExecOptions exec;
    exec.num_threads = nproc;
    if (capture_order) exec.join_order_capture = &r.order;
    Clock::time_point t0 = Clock::now();
    {
      TraceSpan span("bench.query", "bench");
      result = db->Query(sql, exec, &r.stats);
    }
    r.ms = MsSince(t0);
  } else {
    IcebergOptions options;
    options.base_exec.num_threads = LegThreads(leg, nproc);
    Clock::time_point t0 = Clock::now();
    {
      TraceSpan span("bench.query_iceberg", "bench");
      result = db->QueryIceberg(sql, options, &r.report);
    }
    r.ms = MsSince(t0);
  }
  if (result.ok()) {
    r.table = std::move(result).value();
  } else {
    r.status = result.status();
  }
  return r;
}

// ---- Per-layer accumulation (traced runs) ---------------------------------

/// Per-layer sums of one traced round (one execution of every statement on
/// the smart and baseline legs at nproc threads).
struct LayerRound {
  double parse_us = 0, bind_us = 0, query_us = 0, cte_block_us = 0;
  double attributed_us = 0;
  double infer_us = 0, apriori_pick_us = 0, apriori_apply_us = 0;
  double pick_nljp_us = 0;
  double nljp_execute_us = 0, nljp_bindings = 0, nljp_inner_evals = 0;
  double nljp_prune_tests = 0, nljp_pruned = 0, nljp_memo_hits = 0;
  double nljp_busy_us = 0, nljp_capacity_us = 0;
  double rows_before = 0, rows_after = 0;
  double exec_execute_us = 0, exec_finalize_us = 0, exec_pairs = 0;
  double exec_rows_joined = 0, exec_groups = 0, exec_morsel_us = 0;
  double exec_capacity_us = 0, exec_morsels = 0;
  double transfer_build_us = 0, transfer_passes = 0, transfer_eliminated = 0;
  double cbo_reorders = 0, chunks_skipped = 0, batch_rows = 0;
  double stats_builds = 0;
  double traced_wall_ms = 0, untraced_wall_ms = 0;
};

/// Traced counters next to the metrics-registry deltas of the same calls;
/// the two must agree exactly.
struct Reconcile {
  double traced = 0;
  double registry = 0;
};

int64_t CounterDelta(const MetricsSnapshot& d, const char* name) {
  auto it = d.counters.find(name);
  return it == d.counters.end() ? 0 : static_cast<int64_t>(it->second);
}

HistogramSnapshot HistDelta(const MetricsSnapshot& d, const char* name) {
  auto it = d.histograms.find(name);
  return it == d.histograms.end() ? HistogramSnapshot() : it->second;
}

void MergeHist(HistogramSnapshot* into, const HistogramSnapshot& h) {
  into->count += h.count;
  into->sum += h.sum;
  for (size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
    into->buckets[i] += h.buckets[i];
  }
}

MetricsSnapshot RegistryNow() { return MetricsRegistry::Global().Snapshot(); }

bool Reordered(const JoinOrderSchedule& order) {
  if (!order.valid) return false;
  for (size_t i = 0; i < order.order.size(); ++i) {
    if (order.order[i] != i) return true;
  }
  return false;
}

// ---- The benchmark --------------------------------------------------------

class Bench {
 public:
  explicit Bench(const Options& o)
      : o_(o),
        nproc_(Nproc()),
        served_(o.workload == "served"),
        sizes_(SizesFor(o.tiny)),
        gate_(&tally_, o.corrupt) {
    std::vector<Statement> stmts =
        o.workload == "fig1" ? Fig1Statements()
        : o.workload == "selective"
            ? SelectiveStatements(
                  *MakeBaseballScores(ScoreConfig(sizes_, o.seed)))
            : ServedStatements(o.seed);
    for (Statement& s : stmts) stmts_.push_back({std::move(s), {}});
  }

  int Run();

 private:
  std::string Scale() const { return o_.tiny ? "tiny" : "full"; }
  std::string ReadTable() const { return served_ ? "object" : "score"; }

  /// Provenance stamped on every output record.
  JsonObject Stamp(const std::string& record) const {
    JsonObject j;
    j.Str("record", record)
        .Str("workload", o_.workload)
        .Int("seed", static_cast<int64_t>(o_.seed))
        .Int("nproc", nproc_)
        .Str("scale", Scale())
        .Int("rows", static_cast<int64_t>(served_ ? sizes_.object_rows
                                                  : sizes_.score_rows))
        .Bool("optimized", kOptimized)
        .Bool("ndebug", kNdebug)
        .Bool("trace", o_.trace);
    return j;
  }

  void Setup();
  bool BuildReference();
  int Readers() const { return std::max(1, nproc_ - 1); }
  ServerConfig ServedConfig() const;
  void Measure();
  void DirectRound();
  void TracedRound(int round);
  void ServedSlice(IcebergServer* server, double seconds);
  void ReaderLoop(IcebergServer* server, int r);
  void Report();
  void ReportEndToEnd(JsonObject* metrics);
  void ReportLayers(JsonObject* metrics);

  const Options o_;
  const int nproc_;
  const bool served_;
  const Sizes sizes_;
  Tally tally_;
  Gate gate_;
  std::vector<StatementState> stmts_;
  std::unique_ptr<Database> db_;

  // Set-up.
  std::vector<double> setup_s_;
  std::vector<double> chunk_build_us_, stats_build_us_;
  /// Cold results, checked once the reference exists.
  std::vector<std::pair<size_t, TablePtr>> cold_results_;

  // Direct phase: latency samples per statement and leg.
  std::vector<std::vector<double>> ms_[kLegs];

  // Traced direct phase.
  std::vector<LayerRound> layer_rounds_;
  HistogramSnapshot claim_ns_;
  std::map<std::string, Reconcile> reconcile_;

  // Served slices. slice_mu_ guards the slice state and the reader
  // samples and totals below it.
  std::mutex slice_mu_;
  std::condition_variable slice_cv_;
  int slice_ = 0;  // number of the slice readers should run
  int readers_done_ = 0;
  bool shutdown_ = false;
  std::atomic<bool> slice_stop_{false};
  /// Served read latencies per statement; queue waits.
  std::vector<std::vector<double>> read_ms_;
  std::vector<double> queue_wait_us_;
  int64_t reads_ok_ = 0, read_attempts_ = 0, snapshot_conflicts_ = 0;
  int64_t reads_shed_ = 0;
  // Written by the slice's own thread only.
  std::vector<double> write_ms_;
  double served_wall_s_ = 0;
  int64_t next_write_id_ = 0;
  /// Plan-cache and NLJP-registry counter deltas over the served slices.
  std::map<std::string, double> served_counters_;
};

void Bench::Setup() {
  for (int i = 0; i < kSetups; ++i) {
    // Each set-up starts cold: program templates are process-wide, chunks
    // and statistics live with the (fresh) tables.
    ClearProgramTemplateCache();
    Clock::time_point t0 = Clock::now();
    db_ = BuildDatabase(served_, sizes_, o_.seed);
    TablePtr table = *db_->GetTable(ReadTable());
    Clock::time_point c0 = Clock::now();
    {
      TraceSpan span("bench.chunks", "bench");
      table->GetOrBuildChunks();
    }
    chunk_build_us_.push_back(MsSince(c0) * 1e3);
    Clock::time_point s0 = Clock::now();
    {
      TraceSpan span("bench.table_stats", "bench");
      GetOrBuildTableStats(*table);
    }
    stats_build_us_.push_back(MsSince(s0) * 1e3);
    for (size_t s = 0; s < stmts_.size(); ++s) {
      for (Leg leg : {kSmartN, kBaseN}) {
        LegResult r = RunLeg(db_.get(), stmts_[s].stmt.sql, leg, nproc_,
                             false);
        if (gate_.Count(r.status, stmts_[s].stmt.name, "cold")) {
          cold_results_.emplace_back(s, r.table);
        }
      }
    }
    setup_s_.push_back(MsSince(t0) / 1e3);
  }
}

bool Bench::BuildReference() {
  auto digests = LoadDigests(o_.digests);
  const bool check_digests = o_.seed == kDefaultSeed && !o_.digests.empty();
  std::ofstream out;
  if (!o_.write_digests.empty()) {
    out.open(o_.write_digests, std::ios::app);
    if (!out) {
      std::fprintf(stderr, "cannot append to %s\n", o_.write_digests.c_str());
      return false;
    }
  }
  for (StatementState& s : stmts_) {
    ExecOptions exec;
    exec.num_threads = 1;
    Result<TablePtr> result = db_->Query(s.stmt.sql, exec);
    if (!gate_.Count(result.ok() ? Status::OK() : result.status(),
                     s.stmt.name, "reference")) {
      return false;
    }
    s.reference = Canonicalize(**result);
    const std::string key = o_.workload + " " + Scale() + " " +
                            std::to_string(o_.seed) + " " + s.stmt.name;
    if (out.is_open()) {
      out << key << " " << s.reference.rows.size() << " "
          << Hex(s.reference.hash) << "\n";
    }
    if (check_digests) {
      auto it = digests.find(key);
      if (it == digests.end()) {
        tally_.wrong.fetch_add(1);
        std::fprintf(stderr, "no stored digest for %s\n", key.c_str());
      } else if (it->second.first != s.reference.rows.size() ||
                 it->second.second != Hex(s.reference.hash)) {
        tally_.wrong.fetch_add(1);
        std::fprintf(stderr,
                     "DIGEST MISMATCH %s: %zu rows %s, stored %zu rows %s\n",
                     key.c_str(), s.reference.rows.size(),
                     Hex(s.reference.hash).c_str(), it->second.first,
                     it->second.second.c_str());
      }
    }
  }
  for (const auto& [s, table] : cold_results_) {
    gate_.Check(stmts_[s], *table, "cold");
  }
  cold_results_.clear();
  return true;
}

/// Alternates direct rounds with served slices until --seconds have
/// passed (and at least kMinRounds rounds ran), keeping the served slices
/// at 1 - kDirectShare of the time. Interleaving makes both phases sample
/// the whole run: host speed drifts over tens of seconds, and one
/// contiguous block could sit entirely in a slow spell.
void Bench::Measure() {
  for (auto& v : ms_) v.assign(stmts_.size(), {});
  read_ms_.assign(stmts_.size(), {});
  IcebergServer server(db_.get(), ServedConfig());
  // Warm-up: one unmeasured pass through the server fills its plan cache
  // and NLJP cache registry, as the direct legs are warm after set-up.
  std::unique_ptr<Session> warm = server.OpenSession();
  for (const StatementState& s : stmts_) {
    QueryOutcome outcome = warm->Execute(s.stmt.sql);
    if (gate_.Count(outcome.status, s.stmt.name, "served")) {
      gate_.Check(s, *outcome.table, "served");
    }
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < Readers(); ++r) {
    readers.emplace_back([this, &server, r] { ReaderLoop(&server, r); });
  }

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(o_.seconds));
  double direct_s = 0;
  for (int round = 0; round < kMinRounds || Clock::now() < deadline;
       ++round) {
    Clock::time_point t0 = Clock::now();
    if (o_.trace) {
      TracedRound(round);
    } else {
      DirectRound();
    }
    direct_s += MsSince(t0) / 1e3;
    const double owed =
        direct_s * (1 - kDirectShare) / kDirectShare - served_wall_s_;
    if (owed > 0) ServedSlice(&server, std::max(owed, kMinSliceS));
  }
  {
    std::lock_guard<std::mutex> lock(slice_mu_);
    shutdown_ = true;
  }
  slice_cv_.notify_all();
  for (std::thread& t : readers) t.join();
}

/// One untraced round: every statement on every leg. A leg repeats until
/// it has spent kLegRepeatMs in the round (at most kMaxLegRepeats runs),
/// so statements of a few milliseconds collect as many samples as the
/// round's slowest legs allow.
void Bench::DirectRound() {
  for (size_t s = 0; s < stmts_.size(); ++s) {
    for (int leg = 0; leg < kLegs; ++leg) {
      double spent_ms = 0;
      for (int rep = 0; rep < kMaxLegRepeats && spent_ms < kLegRepeatMs;
           ++rep) {
        LegResult r = RunLeg(db_.get(), stmts_[s].stmt.sql,
                             static_cast<Leg>(leg), nproc_, false);
        spent_ms += r.ms;
        if (!gate_.Count(r.status, stmts_[s].stmt.name, kLegNames[leg])) {
          break;
        }
        gate_.Check(stmts_[s], *r.table, kLegNames[leg]);
        ms_[leg][s].push_back(r.ms);
      }
    }
  }
}

/// One traced round: every statement on the smart and baseline legs at
/// nproc threads, each once with tracing off and once with it on (the
/// order alternates by round), plus the benchmark's own calls into the parser,
/// the binder and the CTE body.
void Bench::TracedRound(int round) {
  LayerRound lr;
  for (size_t s = 0; s < stmts_.size(); ++s) {
    const Statement& stmt = stmts_[s].stmt;
    double parse_us = 0, bind_us = 0;
    {
      SetTraceEnabled(true);
      Clock::time_point t0 = Clock::now();
      {
        TraceSpan span("bench.parse", "bench");
        Result<ParsedQuery> parsed = ParseSql(stmt.sql);
        gate_.Count(parsed.ok() ? Status::OK() : parsed.status(), stmt.name,
                    "parse");
      }
      parse_us = MsSince(t0) * 1e3;
      lr.parse_us += parse_us;
      if (stmt.cte_sql.empty()) {
        // Prepare parses and binds; for CTE statements it would also
        // materialize the CTE on the baseline executor, so only plain
        // statements are bound here.
        Clock::time_point p0 = Clock::now();
        {
          TraceSpan span("bench.prepare", "bench");
          Result<QueryBlock> block = db_->Prepare(stmt.sql);
          gate_.Count(block.ok() ? Status::OK() : block.status(), stmt.name,
                      "prepare");
        }
        bind_us = std::max(0.0, MsSince(p0) * 1e3 - parse_us);
        lr.bind_us += bind_us;
      } else {
        LegResult cte = RunLeg(db_.get(), stmt.cte_sql, kSmartN, nproc_,
                               false);
        gate_.Count(cte.status, stmt.name, "cte");
        lr.cte_block_us += cte.ms * 1e3;
      }
    }
    for (Leg leg : {kSmartN, kBaseN}) {
      for (int pass = 0; pass < 2; ++pass) {
        const bool traced = (pass == 0) == (round % 2 == 0);
        SetTraceEnabled(traced);
        MetricsSnapshot before;
        if (traced) before = RegistryNow();
        LegResult r = RunLeg(db_.get(), stmt.sql, leg, nproc_, traced);
        MetricsSnapshot delta;
        if (traced) delta = RegistryNow().DiffSince(before);
        if (!gate_.Count(r.status, stmt.name, kLegNames[leg])) continue;
        gate_.Check(stmts_[s], *r.table, kLegNames[leg]);
        (traced ? lr.traced_wall_ms : lr.untraced_wall_ms) += r.ms;
        if (!traced) continue;
        lr.stats_builds += CounterDelta(delta, "cbo.stats_builds");
        if (leg == kSmartN) {
          const IcebergReport& rep = r.report;
          const NljpStats& n = rep.nljp_stats;
          lr.query_us += r.ms * 1e3;
          lr.infer_us += rep.timing.infer_us;
          lr.apriori_pick_us += rep.timing.apriori_pick_us;
          lr.apriori_apply_us += rep.timing.apriori_apply_us;
          lr.pick_nljp_us += rep.timing.pick_nljp_us;
          lr.attributed_us += parse_us + bind_us + rep.timing.infer_us +
                              rep.timing.apriori_pick_us +
                              rep.timing.apriori_apply_us +
                              rep.timing.pick_nljp_us +
                              rep.timing.execute_us;
          for (const IcebergReport::Reduction& red : rep.reductions) {
            lr.rows_before += static_cast<double>(red.rows_before);
            lr.rows_after += static_cast<double>(red.rows_after);
          }
          lr.nljp_execute_us += n.execute_us;
          lr.nljp_bindings += n.bindings_total;
          lr.nljp_inner_evals += n.inner_evaluations;
          lr.nljp_prune_tests += n.prune_tests;
          lr.nljp_pruned += n.pruned;
          lr.nljp_memo_hits += n.memo_hits;
          for (int64_t b : n.busy_us_per_worker) lr.nljp_busy_us += b;
          lr.nljp_capacity_us += static_cast<double>(nproc_) * n.execute_us;
          reconcile_["nljp.bindings"].traced += n.bindings_total;
          reconcile_["nljp.bindings"].registry +=
              CounterDelta(delta, "nljp.bindings");
        } else {
          const ExecStats& e = r.stats;
          lr.exec_execute_us += e.execute_us;
          lr.exec_finalize_us += e.finalize_us;
          lr.exec_pairs += e.join_pairs_examined;
          lr.exec_rows_joined += e.rows_joined;
          lr.exec_groups += e.groups_created;
          lr.exec_morsel_us += HistDelta(delta, "taskpool.morsel_us").sum;
          lr.exec_capacity_us += static_cast<double>(nproc_) * e.execute_us;
          lr.exec_morsels += CounterDelta(delta, "taskpool.morsels");
          MergeHist(&claim_ns_, HistDelta(delta, "taskpool.claim_ns"));
          lr.transfer_build_us += e.transfer_build_ns / 1e3;
          lr.transfer_passes += e.transfer_passes;
          lr.transfer_eliminated += e.transfer_rows_eliminated;
          lr.cbo_reorders += Reordered(r.order) ? 1 : 0;
          lr.chunks_skipped += e.chunks_skipped;
          lr.batch_rows += e.batch_rows;
          auto rec = [&](const char* name, double traced_value,
                         const char* counter) {
            reconcile_[name].traced += traced_value;
            reconcile_[name].registry += CounterDelta(delta, counter);
          };
          rec("exec.transfer_rows_eliminated",
              static_cast<double>(e.transfer_rows_eliminated),
              "transfer.rows_eliminated");
          rec("plan.cbo_reorders", Reordered(r.order) ? 1 : 0, "cbo.reorders");
          rec("exec.pairs_examined", static_cast<double>(e.join_pairs_examined),
              "exec.pairs_examined");
          rec("exec.rows_joined", static_cast<double>(e.rows_joined),
              "exec.rows_joined");
          rec("exec.groups_created", static_cast<double>(e.groups_created),
              "exec.groups_created");
        }
      }
    }
  }
  SetTraceEnabled(false);
  ClearTrace();
  layer_rounds_.push_back(lr);
}

ServerConfig Bench::ServedConfig() const {
  const int readers = Readers();
  ServerConfig config;
  config.admission.max_concurrent = static_cast<size_t>(readers);
  config.admission.max_queue_depth = 2 * static_cast<size_t>(readers + 1);
  config.admission.queue_timeout_ms = 10000;
  config.admission.memory_budget_bytes =
      static_cast<size_t>(readers) * (64u << 20);
  config.retry.max_attempts = 4;
  config.default_threads = 1;
  return config;
}

/// One reader session, alive for the whole run: it waits for a slice to
/// open, runs statements in a closed loop until the slice stops, adds its
/// samples, and waits for the next slice.
void Bench::ReaderLoop(IcebergServer* server, int r) {
  std::unique_ptr<Session> session = server->OpenSession();
  const int readers = Readers();
  // Readers start at different statements so the mix desynchronizes.
  size_t i = static_cast<size_t>(r) * stmts_.size() / readers;
  for (int seen = 0;;) {
    {
      std::unique_lock<std::mutex> lock(slice_mu_);
      slice_cv_.wait(lock, [&] { return shutdown_ || slice_ != seen; });
      if (shutdown_) return;
      seen = slice_;
    }
    std::vector<std::vector<double>> lat_ms(stmts_.size());
    std::vector<double> wait_us;
    int64_t ok = 0, attempts = 0, conflicts = 0, shed = 0;
    for (; !slice_stop_.load(std::memory_order_acquire); ++i) {
      const size_t si = i % stmts_.size();
      const StatementState& s = stmts_[si];
      Clock::time_point t0 = Clock::now();
      QueryOutcome outcome;
      {
        TraceSpan span("bench.session_execute", "bench");
        outcome = session->Execute(s.stmt.sql);
      }
      const double ms = MsSince(t0);
      attempts += outcome.attempts;
      conflicts += outcome.snapshot_conflicts;
      wait_us.push_back(static_cast<double>(outcome.queue_wait_us));
      if (!gate_.Count(outcome.status, s.stmt.name, "served")) {
        if (outcome.status.IsRetryable()) ++shed;
        continue;
      }
      gate_.Check(s, *outcome.table, "served");
      lat_ms[si].push_back(ms);
      ++ok;
    }
    {
      std::lock_guard<std::mutex> lock(slice_mu_);
      for (size_t k = 0; k < stmts_.size(); ++k) {
        read_ms_[k].insert(read_ms_[k].end(), lat_ms[k].begin(),
                           lat_ms[k].end());
      }
      queue_wait_us_.insert(queue_wait_us_.end(), wait_us.begin(),
                            wait_us.end());
      reads_ok_ += ok;
      read_attempts_ += attempts;
      snapshot_conflicts_ += conflicts;
      reads_shed_ += shed;
      ++readers_done_;
    }
    slice_cv_.notify_all();
  }
}

/// Opens one served slice of `seconds` for the reader sessions and, on the
/// served mix, runs the writer alongside; returns when every reader has
/// finished its last statement.
void Bench::ServedSlice(IcebergServer* server, double seconds) {
  SetTraceEnabled(o_.trace);
  const MetricsSnapshot before = RegistryNow();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::lock_guard<std::mutex> lock(slice_mu_);
    slice_stop_.store(false, std::memory_order_release);
    readers_done_ = 0;
    ++slice_;
  }
  slice_cv_.notify_all();

  // The served mix has one writer, open loop: one write is due every
  // kWritePeriodMs, and each is timed from when it was due, so a writer
  // stalled behind readers also charges the stall to the writes queued up
  // behind it. The query workloads serve a static catalog.
  std::vector<double> write_ms;
  for (int64_t k = 1; served_; ++k) {
    const Clock::time_point due =
        start + std::chrono::milliseconds(kWritePeriodMs) * k;
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    const int64_t id = next_write_id_++;
    Status st;
    {
      TraceSpan span("bench.mutate", "bench");
      st = server->Mutate([id](Database& db) {
        return db.Insert(kSideTable, {Value::Int(id), Value::Int(id * 7)});
      });
    }
    const double ms = MsSince(due);
    if (gate_.Count(st, kSideTable, "write")) write_ms.push_back(ms);
  }
  std::this_thread::sleep_until(end);
  slice_stop_.store(true, std::memory_order_release);
  {
    std::unique_lock<std::mutex> lock(slice_mu_);
    slice_cv_.wait(lock, [&] { return readers_done_ == Readers(); });
  }
  served_wall_s_ += MsSince(start) / 1e3;
  write_ms_.insert(write_ms_.end(), write_ms.begin(), write_ms.end());
  const MetricsSnapshot delta = RegistryNow().DiffSince(before);
  for (const char* name :
       {"plan_cache.hits", "plan_cache.misses", "plan_cache.invalidations",
        "nljp.registry.hits", "nljp.registry.misses"}) {
    served_counters_[name] += CounterDelta(delta, name);
  }
  SetTraceEnabled(false);
  ClearTrace();
}

void Bench::ReportEndToEnd(JsonObject* metrics) {
  auto metric = [&](const char* name, double value, const char* unit) {
    metrics->Add(name, JsonObject().Num("value", value).Str("unit", unit).str());
  };
  // The gated latency of a statement is its fastest warm execution: on a
  // shared host the median of one statement drifts by up to 2x between
  // runs of identical work, while the minimum stays within a few percent.
  // The medians and quartiles are reported per statement below.
  std::vector<double> best[kLegs], med[kLegs];
  for (int leg = 0; leg < kLegs; ++leg) {
    for (const std::vector<double>& v : ms_[leg]) {
      best[leg].push_back(Quantile(v, 0.0));
      med[leg].push_back(Median(v));
    }
  }
  metric("setup_s", Median(setup_s_), "s");
  metric("smart_ms", GeoMean(best[kSmartN]), "ms");
  metric("smart_1t_ms", GeoMean(best[kSmart1]), "ms");
  metric("baseline_ms", GeoMean(best[kBaseN]), "ms");
  metric("served_qps", Ratio(static_cast<double>(reads_ok_), served_wall_s_),
         "1/s");
  // The served median is taken per statement and combined by geometric
  // mean, like the direct legs: over a mix of statements whose costs differ
  // by orders of magnitude, the median of all reads jumps between them from
  // run to run. The tail is taken over all reads, the only pool with enough
  // samples beyond its 99th percentile.
  std::vector<double> read_p50, all_reads;
  for (const std::vector<double>& v : read_ms_) {
    if (v.empty()) continue;
    read_p50.push_back(Quantile(v, 0.5));
    all_reads.insert(all_reads.end(), v.begin(), v.end());
  }
  metric("served_p50_ms", GeoMean(read_p50), "ms");
  metric("served_p99_ms", Quantile(all_reads, 0.99), "ms");
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  metric("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");

  // Per-statement detail and the paper ratio (information, not gated).
  JsonObject ratios;
  for (size_t s = 0; s < stmts_.size(); ++s) {
    for (int leg = 0; leg < kLegs; ++leg) {
      const std::vector<double>& v = ms_[leg][s];
      std::printf("%s\n", Stamp("statement")
                              .Str("statement", stmts_[s].stmt.name)
                              .Str("leg", kLegNames[leg])
                              .Int("threads", LegThreads(static_cast<Leg>(leg),
                                                         nproc_))
                              .Int("samples", static_cast<int64_t>(v.size()))
                              .Num("min_ms", Quantile(v, 0.0))
                              .Num("p25_ms", Quantile(v, 0.25))
                              .Num("median_ms", Median(v))
                              .Num("p75_ms", Quantile(v, 0.75))
                              .Int("result_rows", static_cast<int64_t>(
                                                      stmts_[s].reference.rows.size()))
                              .Str("result_hash", Hex(stmts_[s].reference.hash))
                              .str()
                              .c_str());
    }
    ratios.Num(stmts_[s].stmt.name, Ratio(med[kBaseN][s], med[kSmartN][s]));
  }
  std::printf("%s\n",
              Stamp("paper_ratio")
                  .Num("baseline_over_smart",
                       Ratio(GeoMean(med[kBaseN]), GeoMean(med[kSmartN])))
                  .Num("baseline_over_smart_fastest",
                       Ratio(GeoMean(best[kBaseN]), GeoMean(best[kSmartN])))
                  .Add("per_statement", ratios.str())
                  .str()
                  .c_str());
  std::printf("%s\n",
              Stamp("served")
                  .Int("readers", Readers())
                  .Int("writers", served_ ? 1 : 0)
                  .Int("threads_per_query", 1)
                  .Int("read_samples", static_cast<int64_t>(all_reads.size()))
                  .Num("all_reads_p50_ms", Quantile(all_reads, 0.5))
                  .Int("write_samples", static_cast<int64_t>(write_ms_.size()))
                  .Num("write_max_ms", Quantile(write_ms_, 1.0))
                  .Num("wall_s", served_wall_s_)
                  .Int("snapshot_conflicts", snapshot_conflicts_)
                  .Int("shed", reads_shed_)
                  .str()
                  .c_str());
}

void Bench::ReportLayers(JsonObject* metrics) {
  auto metric = [&](const char* name, double value, const char* unit) {
    metrics->Add(name, JsonObject().Num("value", value).Str("unit", unit).str());
  };
  // Times: median over rounds of the round sum; counts: mean per round;
  // ratios: ratio of sums over every traced round.
  auto med = [&](double LayerRound::*field) {
    std::vector<double> v;
    for (const LayerRound& lr : layer_rounds_) v.push_back(lr.*field);
    return Median(v);
  };
  auto mean = [&](double LayerRound::*field) {
    std::vector<double> v;
    for (const LayerRound& lr : layer_rounds_) v.push_back(lr.*field);
    return Mean(v);
  };
  auto sum = [&](double LayerRound::*field) {
    double t = 0;
    for (const LayerRound& lr : layer_rounds_) t += lr.*field;
    return t;
  };
  const double query_us = sum(&LayerRound::query_us);
  metric("parser.parse_us", med(&LayerRound::parse_us), "us");
  metric("engine.query_us", med(&LayerRound::query_us), "us");
  metric("engine.bind_us", med(&LayerRound::bind_us), "us");
  metric("engine.cte_block_us", med(&LayerRound::cte_block_us), "us");
  metric("engine.unattributed_share",
         Ratio(query_us - sum(&LayerRound::attributed_us), query_us),
         "fraction");
  metric("catalog.infer_us", med(&LayerRound::infer_us), "us");
  metric("rewrite.apriori_pick_us", med(&LayerRound::apriori_pick_us), "us");
  metric("rewrite.apriori_apply_us", med(&LayerRound::apriori_apply_us), "us");
  metric("rewrite.apriori_keep_ratio",
         Ratio(sum(&LayerRound::rows_after), sum(&LayerRound::rows_before)),
         "ratio");
  metric("optimizer.pick_nljp_us", med(&LayerRound::pick_nljp_us), "us");
  metric("nljp.execute_us", med(&LayerRound::nljp_execute_us), "us");
  metric("nljp.bindings", mean(&LayerRound::nljp_bindings), "count");
  metric("nljp.inner_evals", mean(&LayerRound::nljp_inner_evals), "count");
  metric("nljp.prune_tests", mean(&LayerRound::nljp_prune_tests), "count");
  metric("nljp.prune_rate",
         Ratio(sum(&LayerRound::nljp_pruned), sum(&LayerRound::nljp_bindings)),
         "fraction");
  metric("nljp.memo_hit_rate",
         Ratio(sum(&LayerRound::nljp_memo_hits),
               sum(&LayerRound::nljp_bindings)),
         "fraction");
  metric("nljp.busy_share",
         Ratio(sum(&LayerRound::nljp_busy_us),
               sum(&LayerRound::nljp_capacity_us)),
         "fraction");
  metric("exec.execute_us", med(&LayerRound::exec_execute_us), "us");
  metric("exec.finalize_us", med(&LayerRound::exec_finalize_us), "us");
  metric("exec.pairs_examined", mean(&LayerRound::exec_pairs), "count");
  metric("exec.rows_joined", mean(&LayerRound::exec_rows_joined), "count");
  metric("exec.groups_created", mean(&LayerRound::exec_groups), "count");
  metric("exec.busy_share",
         Ratio(sum(&LayerRound::exec_morsel_us),
               sum(&LayerRound::exec_capacity_us)),
         "fraction");
  metric("exec.taskpool_morsels", mean(&LayerRound::exec_morsels), "count");
  metric("exec.taskpool_claim_ns_p50",
         static_cast<double>(claim_ns_.Percentile(50)), "ns");
  metric("exec.transfer_build_us", med(&LayerRound::transfer_build_us), "us");
  metric("exec.transfer_passes", mean(&LayerRound::transfer_passes), "count");
  metric("exec.transfer_rows_eliminated",
         mean(&LayerRound::transfer_eliminated), "count");
  metric("stats.build_us", Median(stats_build_us_), "us");
  metric("stats.builds", mean(&LayerRound::stats_builds), "count");
  metric("plan.cbo_reorders", mean(&LayerRound::cbo_reorders), "count");
  metric("storage.chunk_build_us", Median(chunk_build_us_), "us");
  metric("storage.chunks_skipped", mean(&LayerRound::chunks_skipped), "count");
  metric("storage.batch_rows", mean(&LayerRound::batch_rows), "count");

  std::map<std::string, double>& c = served_counters_;
  const double plan_hits = c["plan_cache.hits"];
  const double plan_misses = c["plan_cache.misses"];
  const double reg_hits = c["nljp.registry.hits"];
  const double reg_misses = c["nljp.registry.misses"];
  metric("server.queue_wait_us_p50", Quantile(queue_wait_us_, 0.5), "us");
  metric("server.queue_wait_us_p99", Quantile(queue_wait_us_, 0.99), "us");
  metric("server.attempts_per_stmt",
         Ratio(static_cast<double>(read_attempts_),
               static_cast<double>(queue_wait_us_.size())),
         "ratio");
  metric("server.snapshot_conflicts", static_cast<double>(snapshot_conflicts_),
         "count");
  metric("server.shed", static_cast<double>(reads_shed_), "count");
  metric("server.plan_cache_hit_rate",
         Ratio(plan_hits, plan_hits + plan_misses), "fraction");
  metric("server.plan_cache_invalidations", c["plan_cache.invalidations"],
         "count");
  metric("server.nljp_registry_hit_rate",
         Ratio(reg_hits, reg_hits + reg_misses), "fraction");
  metric("server.mutate_us", Quantile(write_ms_, 0.5) * 1e3, "us");

  const double traced = med(&LayerRound::traced_wall_ms);
  const double untraced = med(&LayerRound::untraced_wall_ms);
  metric("obs.trace_overhead_share", Ratio(traced - untraced, untraced),
         "fraction");

  JsonObject checks;
  for (const auto& [name, r] : reconcile_) {
    checks.Add(name, JsonObject()
                         .Num("traced", r.traced)
                         .Num("registry", r.registry)
                         .str());
  }
  std::printf("%s\n", Stamp("reconcile")
                          .Int("traced_rounds",
                               static_cast<int64_t>(layer_rounds_.size()))
                          .Add("checks", checks.str())
                          .str()
                          .c_str());
}

void Bench::Report() {
  JsonObject metrics;
  if (o_.trace) {
    ReportLayers(&metrics);
  } else {
    ReportEndToEnd(&metrics);
  }
  const int64_t attempted = tally_.attempted.load();
  const int64_t failed =
      tally_.failed.load() + tally_.shed.load() + tally_.wrong.load();
  std::printf("%s\n",
              Stamp("errors")
                  .Int("attempted", attempted)
                  .Int("failed", tally_.failed.load())
                  .Int("shed", tally_.shed.load())
                  .Int("wrong", tally_.wrong.load())
                  .Num("error_rate",
                       Ratio(static_cast<double>(failed),
                             static_cast<double>(attempted)))
                  .str()
                  .c_str());
  std::printf("%s\n", JsonObject()
                          .Bool("correct", tally_.wrong.load() == 0)
                          .Int("attempted", attempted)
                          .Int("failed", failed)
                          .Add("metrics", metrics.str())
                          .str()
                          .c_str());
  std::fflush(stdout);
}

int Bench::Run() {
  SetTraceEnabled(false);
  std::printf("%s\n", Stamp("run")
                          .Num("seconds", o_.seconds)
                          .Int("setups", kSetups)
                          .Int("statements", static_cast<int64_t>(stmts_.size()))
                          .str()
                          .c_str());
  if (o_.trace) SetTraceEnabled(true);
  Setup();
  SetTraceEnabled(false);
  if (!BuildReference()) return 1;
  if (!o_.write_digests.empty()) return tally_.wrong.load() == 0 ? 0 : 1;
  Measure();
  Report();
  const bool clean = tally_.wrong.load() == 0 && tally_.failed.load() == 0 &&
                     tally_.shed.load() == 0;
  return clean ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options = perfbench::ParseOptions(argc, argv);
  perfbench::Bench bench(options);
  return bench.Run();
}
