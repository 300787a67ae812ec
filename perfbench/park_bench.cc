// perfbench: the end-to-end benchmark program for the PARK engine.
//
//   perfbench --workload <serve_payroll|maintain_kilorule|closure_recompute>
//             --seed <n> --seconds <s> --trace <0|1> --dir <work dir>
//             --out <raw.json>
//
// Runs one workload through the public API only (park::Session,
// ActiveDatabase, Park(), Snapshot::Query, QueryDatabase) and writes its
// raw measurements -- per-operation latency samples, set-up and recovery
// repeats, CommitReport counters, spans and check outcomes -- as JSON to
// --out. perfbench/run.py builds this program, runs it and reduces the
// raw samples to the metrics named in BENCHMARK.json.
//
// Every input (employees, victims, graft points, query keys) is generated
// here from --seed; the engine only ever sees the generated text. Each
// workload ends with output checks; a failed check is recorded in the
// raw output and makes run.py exit non-zero.
//
// With --trace 1 the timed phase is split in two halves: the first runs
// exactly like an untraced run (giving the untraced commit latency of the
// same process), the second records spans around every public call. The
// difference between the two halves' median commit latency is the
// tracing overhead the run reports.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "park/park.h"

namespace {

using park::ActiveDatabase;
using park::CommitReport;
using park::CommitResult;
using park::JournalSyncMode;
using park::ParkOptions;
using park::Session;
using park::Transaction;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

template <typename T>
T Must(park::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void Must(const park::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded around the benchmark's own calls into the
// engine, kept in per-thread memory and collected when the run ends.

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0: root
  uint64_t request = 0;  // client request the span belongs to (0: none)
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  void Record(const SpanRecord& span) {
    thread_local std::vector<SpanRecord>* buffer = nullptr;
    if (buffer == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffer = &buffers_.emplace_back();
    }
    buffer->push_back(span);
  }

  /// Call only after every recording thread has been joined.
  std::vector<SpanRecord> Collect() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SpanRecord> all;
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer.begin(), buffer.end());
    }
    return all;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  std::mutex mutex_;
  std::deque<std::vector<SpanRecord>> buffers_;  // stable addresses
};

Tracer g_tracer;
thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_current_request = 0;

/// Records [construction, destruction) as a child of the enclosing span
/// on this thread. Does nothing (no clock reads) while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (!g_tracer.enabled()) return;
    span_.name = name;
    span_.id = g_tracer.NextId();
    span_.parent = t_current_span;
    span_.request = t_current_request;
    t_current_span = span_.id;
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (span_.id == 0) return;
    span_.end_ns = NowNs();
    t_current_span = span_.parent;
    g_tracer.Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecord span_;
};

/// Marks one client request: its root span and the id its children carry.
class RequestScope {
 public:
  RequestScope() : previous_(t_current_request) {
    if (g_tracer.enabled()) t_current_request = g_tracer.NextId();
  }
  ~RequestScope() { t_current_request = previous_; }
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  uint64_t previous_;
};

// ---------------------------------------------------------------------------
// Deterministic generator (splitmix64): the same seed gives the same
// inputs on every platform, unlike the <random> distributions.

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[Below(i)]);
  }

 private:
  uint64_t state_;
};

std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

// ---------------------------------------------------------------------------
// Minimal JSON writer for the raw output.

class Json {
 public:
  Json& Open(char bracket) {
    Sep();
    out_ += bracket;
    first_ = true;
    return *this;
  }
  Json& Close(char bracket) {
    out_ += bracket;
    first_ = false;
    return *this;
  }
  Json& Key(const std::string& key) {
    Sep();
    Quote(key);
    out_ += ':';
    first_ = true;
    return *this;
  }
  Json& Str(const std::string& s) {
    Sep();
    Quote(s);
    return *this;
  }
  Json& Int(int64_t v) {
    Sep();
    out_ += std::to_string(v);
    return *this;
  }
  Json& Bool(bool v) {
    Sep();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& Ints(const std::vector<int64_t>& values) {
    Open('[');
    for (int64_t v : values) Int(v);
    return Close(']');
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!first_) out_ += ',';
    first_ = false;
  }
  void Quote(const std::string& s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
        continue;
      }
      out_ += c;
    }
    out_ += '"';
  }

  std::string out_;
  bool first_ = true;
};

// ---------------------------------------------------------------------------
// Measurements.

/// Sums of the CommitReport counters over a phase's commits.
struct ReportCounters {
  int64_t reports = 0;
  int64_t gamma_steps = 0;
  int64_t derived_marks = 0;
  int64_t rule_evaluations = 0;
  int64_t sched_considered = 0;
  int64_t sched_skipped = 0;
  int64_t plans_compiled = 0;
  int64_t plan_cache_hits = 0;
  int64_t pool_sections = 0;
  int64_t pool_tasks = 0;
  int64_t maint_commits = 0;
  int64_t maint_rederived = 0;
  int64_t maint_fallbacks = 0;
  int64_t batch_size = 0;

  void Add(const CommitReport& r) {
    const park::ParkStats& s = r.stats;
    ++reports;
    gamma_steps += static_cast<int64_t>(s.gamma_steps);
    derived_marks += static_cast<int64_t>(s.derived_marks);
    rule_evaluations += static_cast<int64_t>(s.rule_evaluations);
    sched_considered += static_cast<int64_t>(s.sched_rules_considered);
    sched_skipped += static_cast<int64_t>(s.sched_rules_skipped);
    plans_compiled += static_cast<int64_t>(s.plans_compiled);
    plan_cache_hits += static_cast<int64_t>(s.plan_cache_hits);
    pool_sections += static_cast<int64_t>(s.parallel_sections);
    pool_tasks += static_cast<int64_t>(s.parallel_tasks);
    maint_commits += static_cast<int64_t>(s.maint_commits);
    maint_rederived += static_cast<int64_t>(s.maint_atoms_rederived);
    maint_fallbacks += static_cast<int64_t>(s.maint_full_recompute_fallbacks);
    batch_size += r.batch_size;
  }
  void Merge(const ReportCounters& o) {
    reports += o.reports;
    gamma_steps += o.gamma_steps;
    derived_marks += o.derived_marks;
    rule_evaluations += o.rule_evaluations;
    sched_considered += o.sched_considered;
    sched_skipped += o.sched_skipped;
    plans_compiled += o.plans_compiled;
    plan_cache_hits += o.plan_cache_hits;
    pool_sections += o.pool_sections;
    pool_tasks += o.pool_tasks;
    maint_commits += o.maint_commits;
    maint_rederived += o.maint_rederived;
    maint_fallbacks += o.maint_fallbacks;
    batch_size += o.batch_size;
  }
};

/// Samples of one closed-loop phase (all clients).
struct PhaseSamples {
  std::vector<int64_t> commit_ns;
  std::vector<int64_t> query_ns;
  // Per commit: the CommitReport pipeline times and the rest of the
  // Commit() call (group-queue wait plus snapshot publish for a Session).
  std::vector<int64_t> evaluate_ns, apply_ns, journal_ns, wait_ns;
  ReportCounters counters;
  int64_t commits = 0, failed_commits = 0;
  int64_t queries = 0, failed_queries = 0;
  int64_t wrong_answers = 0;
  int64_t elapsed_ns = 0;

  void Merge(const PhaseSamples& o) {
    auto append = [](std::vector<int64_t>& a, const std::vector<int64_t>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    append(commit_ns, o.commit_ns);
    append(query_ns, o.query_ns);
    append(evaluate_ns, o.evaluate_ns);
    append(apply_ns, o.apply_ns);
    append(journal_ns, o.journal_ns);
    append(wait_ns, o.wait_ns);
    counters.Merge(o.counters);
    elapsed_ns += o.elapsed_ns;
    commits += o.commits;
    failed_commits += o.failed_commits;
    queries += o.queries;
    failed_queries += o.failed_queries;
    wrong_answers += o.wrong_answers;
  }
};

/// One read a request makes after its commit: the patterns it queries
/// (timed together as one read) and, when the benchmark knows it, the
/// number of rows each answer must have.
struct Read {
  std::vector<std::string> patterns;
  int64_t expected_rows = -1;  // -1: not checked
};

/// One closed-loop request: a transaction, then reads.
struct Request {
  std::vector<std::string> updates;  // "+p(a)" / "-q(b)"
  std::vector<Read> reads;
};

/// A committed transaction, in the order the engine serialized it.
struct CommittedTx {
  uint64_t batch_seq = 0;
  uint32_t batch_position = 0;
  uint64_t order = 0;  // client-side completion order (direct commits)
  std::vector<std::string> updates;
};

struct Check {
  std::string name;
  bool passed = false;
  std::string detail;
};

int64_t PeakRssKb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// ---------------------------------------------------------------------------
// Workload definitions.

enum class Kind { kServePayroll, kMaintainKilorule, kClosureRecompute };

// Sizes. Every workload keeps one commit's work constant over the run.
// A set-up sample (a group of set-ups) and a recovery reopen each take
// hundreds of milliseconds: one-shot timings of a few milliseconds are
// unsteady even as medians on a shared host.
constexpr int kSlices = 5;  // timed slices = setup_s and recovery_s samples
constexpr int kWarmupRequests = 5;        // per client, not measured
constexpr int64_t kRssAfterCommits = 50;  // peak RSS sampled at this point
constexpr size_t kParkSamples = 5;        // direct Park() calls, traced run
constexpr int kPinSamples = 31;           // snapshot pins, traced run

constexpr int kPayrollEmployees = 8000;
constexpr int kPayrollClients = 3;
constexpr int kPayrollFixtureTxns = 60;
constexpr int kPayrollSetupGroup = 8;
constexpr int64_t kPayrollCommitsPerInstance = 500;  // +1 atom per commit

constexpr int kKiloChains = 6;
constexpr int kKiloLevels = 192;
constexpr int kKiloSeedFacts = 80;
constexpr int kKiloFixtureTxns = 60;
constexpr int64_t kKiloCommitsPerInstance = 1000;  // +193 atoms per commit

constexpr int kClosureLayers = 6;
constexpr int kClosureWidth = 28;
constexpr int kClosureFanout = 3;
constexpr int kClosureQueryLayers = 3;
constexpr int kClosureReads = 2;
constexpr int kClosureFixtureTxns = 16;
constexpr int kClosureSetupGroup = 8;
constexpr int64_t kClosureCommitsPerInstance = 300;  // +2 atoms per commit

struct Workload {
  Kind kind;
  std::string name;
  std::string rules;
  std::string facts;
  int clients = 1;
  int fixture_txns = 0;
  int setup_group = 1;  // set-ups timed together as one setup_s sample
  // Commits served by one instance before the run swaps in a freshly
  // set-up one, so the instance each commit sees stays the same size
  // however fast the engine commits.
  int64_t commits_per_instance = 0;
  ParkOptions options;
  bool session = false;  // served through park::Session
  // Requests are a pure function of (client, k); the fixture uses the
  // extra client id `clients`, so its keys never collide with the run's.
  std::function<Request(int client, uint64_t k)> make_request;
};

Workload MakeServePayroll(uint64_t seed) {
  Workload w;
  w.kind = Kind::kServePayroll;
  w.name = "serve_payroll";
  w.session = true;
  w.clients = kPayrollClients;
  w.fixture_txns = kPayrollFixtureTxns;
  w.setup_group = kPayrollSetupGroup;
  w.commits_per_instance = kPayrollCommitsPerInstance;
  // The paper's section 2 payroll program. cleanup's negated body makes
  // every commit ineligible for incremental maintenance.
  w.rules =
      "cleanup: emp(X), !active(X), payroll(X, S) -> -payroll(X, S).\n"
      "audit: -payroll(X, S) -> +audit(X).\n"
      "onboard: +emp(X) -> +active(X).\n";
  w.options.num_threads = 1;
  Rng rng(seed);
  std::vector<std::vector<int>> victims(kPayrollClients + 1);
  for (int i = 0; i < kPayrollEmployees; ++i) {
    w.facts += Fmt("emp(e%d). payroll(e%d, %d).", i, i,
                   30000 + static_cast<int>(rng.Below(170000)));
    // One employee in ten starts inactive: the initial Stabilize cleans
    // their payroll up.
    if (i % 10 != 9) {
      w.facts += Fmt(" active(e%d).", i);
      victims[static_cast<size_t>(i % (kPayrollClients + 1))].push_back(i);
    }
    w.facts += '\n';
  }
  for (auto& v : victims) rng.Shuffle(v);
  auto shared_victims =
      std::make_shared<const std::vector<std::vector<int>>>(std::move(victims));
  w.make_request = [shared_victims, seed](int client, uint64_t k) {
    Rng r(seed ^ (static_cast<uint64_t>(client) << 40) ^ (k * 0x100000001b3ull));
    Request req;
    if (k % 2 == 0) {
      const std::string hire = Fmt("h%d_%llu", client, (unsigned long long)k);
      req.updates = {"+emp(" + hire + ")",
                     Fmt("+payroll(%s, %d)", hire.c_str(),
                         30000 + static_cast<int>(r.Below(170000)))};
      req.reads.push_back({{"active(" + hire + ")"}, 1});  // onboard fired
    } else {
      const auto& mine = (*shared_victims)[static_cast<size_t>(client)];
      const int victim = mine[(k / 2) % mine.size()];
      req.updates = {Fmt("-active(e%d)", victim)};
      req.reads.push_back({{Fmt("payroll(e%d, S)", victim)}, 0});  // cleaned
    }
    const int a = static_cast<int>(r.Below(kPayrollEmployees));
    const int b = static_cast<int>(r.Below(kPayrollEmployees));
    req.reads.push_back({{Fmt("payroll(e%d, S)", a)}, -1});
    req.reads.push_back({{Fmt("active(e%d)", b)}, -1});
    return req;
  };
  return w;
}

Workload MakeMaintainKilorule(uint64_t seed) {
  Workload w;
  w.kind = Kind::kMaintainKilorule;
  w.name = "maintain_kilorule";
  w.fixture_txns = kKiloFixtureTxns;
  w.commits_per_instance = kKiloCommitsPerInstance;
  // One Γ thread (the default). At two threads each commit wakes the pool
  // for each of its 192 one-task sections, and the wake latency of an idle
  // vCPU on a shared host changed commit p90 by 2-3x between runs.
  w.options.maintenance_mode = park::MaintenanceMode::kIncremental;
  for (int c = 0; c < kKiloChains; ++c) {
    for (int l = 0; l < kKiloLevels; ++l) {
      w.rules += Fmt("c%dl%d: p%d_%d(X) -> +p%d_%d(X).\n", c, l, c, l, c, l + 1);
    }
  }
  w.rules += "scc_q: cq(X) -> +cs(X).\nscc_s: cs(X) -> +cq(X).\n";
  for (int c = 0; c < kKiloChains; ++c) {
    for (int f = 0; f < kKiloSeedFacts; ++f) w.facts += Fmt("p%d_0(s%d).\n", c, f);
  }
  w.facts += "cq(s0).\n";
  w.make_request = [seed](int client, uint64_t k) {
    Rng r(seed ^ (static_cast<uint64_t>(client) << 40) ^ (k * 0x100000001b3ull));
    const int chain = static_cast<int>(r.Below(kKiloChains));
    const std::string key = Fmt("k%d_%llu_%llu", client, (unsigned long long)k,
                                (unsigned long long)(r.Next() % 1000));
    Request req;
    req.updates = {Fmt("+p%d_0(%s)", chain, key.c_str())};
    // Read the touched chain, level 0 to the tip: one point lookup per
    // level, each of which must find the key.
    Read chain_read;
    for (int l = 0; l <= kKiloLevels; ++l) {
      chain_read.patterns.push_back(Fmt("p%d_%d(%s)", chain, l, key.c_str()));
    }
    chain_read.expected_rows = 1;
    req.reads.push_back(std::move(chain_read));
    return req;
  };
  return w;
}

/// The fixed layered DAG closure_recompute runs on: kClosureLayers layers
/// of kClosureWidth nodes, each node with kClosureFanout edges into the
/// next layer. It does not depend on --seed, so every seed does the same
/// closure work; the seed drives graft points and query keys.
struct ClosureGraph {
  std::vector<std::pair<int, int>> edges;
  std::vector<int> reachable;  // per node: |{y : t(node, y)}|
};

ClosureGraph MakeClosureGraph() {
  ClosureGraph g;
  const int nodes = kClosureLayers * kClosureWidth;
  Rng rng(0x5eed);
  std::vector<std::vector<int>> out(static_cast<size_t>(nodes));
  for (int layer = 0; layer + 1 < kClosureLayers; ++layer) {
    for (int i = 0; i < kClosureWidth; ++i) {
      const int from = layer * kClosureWidth + i;
      std::set<int> targets;
      while (static_cast<int>(targets.size()) < kClosureFanout) {
        targets.insert((layer + 1) * kClosureWidth +
                       static_cast<int>(rng.Below(kClosureWidth)));
      }
      for (int to : targets) {
        g.edges.emplace_back(from, to);
        out[static_cast<size_t>(from)].push_back(to);
      }
    }
  }
  g.reachable.assign(static_cast<size_t>(nodes), 0);
  for (int s = 0; s < nodes; ++s) {
    std::vector<bool> seen(static_cast<size_t>(nodes), false);
    std::vector<int> stack = out[static_cast<size_t>(s)];
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      if (seen[static_cast<size_t>(v)]) continue;
      seen[static_cast<size_t>(v)] = true;
      ++g.reachable[static_cast<size_t>(s)];
      for (int next : out[static_cast<size_t>(v)]) stack.push_back(next);
    }
  }
  return g;
}

Workload MakeClosureRecompute(uint64_t seed) {
  Workload w;
  w.kind = Kind::kClosureRecompute;
  w.name = "closure_recompute";
  w.fixture_txns = kClosureFixtureTxns;
  w.setup_group = kClosureSetupGroup;
  w.commits_per_instance = kClosureCommitsPerInstance;
  w.options.num_threads = 2;
  w.rules =
      "base: e(X, Y) -> +t(X, Y).\n"
      "step: t(X, Z), e(Z, Y) -> +t(X, Y).\n";
  auto graph = std::make_shared<const ClosureGraph>(MakeClosureGraph());
  for (const auto& [from, to] : graph->edges) {
    w.facts += Fmt("e(v%d, v%d).\n", from, to);
  }
  w.make_request = [seed, graph](int client, uint64_t k) {
    Rng r(seed ^ (static_cast<uint64_t>(client) << 40) ^ (k * 0x100000001b3ull));
    // A fresh node grafted onto the last layer: one new t atom, so the
    // closure every commit re-derives keeps its size.
    const int target = (kClosureLayers - 1) * kClosureWidth +
                       static_cast<int>(r.Below(kClosureWidth));
    Request req;
    req.updates = {Fmt("+e(g%d_%llu, v%d)", client, (unsigned long long)k, target)};
    // Reachability from the first layers: scans of hundreds of rows.
    for (int q = 0; q < kClosureReads; ++q) {
      const int from = static_cast<int>(r.Below(kClosureQueryLayers * kClosureWidth));
      req.reads.push_back({{Fmt("t(v%d, Y)", from)},
                           graph->reachable[static_cast<size_t>(from)]});
    }
    return req;
  };
  return w;
}

// ---------------------------------------------------------------------------
// A durable store: a Session or a bare ActiveDatabase over one directory.

class Store {
 public:
  /// Set-up from an empty directory: open, rules, bulk facts, initial
  /// Stabilize, and a checkpoint so the bulk facts are durable.
  static std::unique_ptr<Store> Create(const Workload& w,
                                       const std::string& dir) {
    auto store = std::unique_ptr<Store>(new Store(w));
    ScopedSpan setup("bench.setup");
    if (w.session) {
      if (g_tracer.enabled()) {
        // Session::Open parses the rules internally; time the same parse
        // on its own so the lang layer is visible in this workload too.
        ScopedSpan span("lang.parse_rules");
        Must(park::ParseProgram(w.rules, park::MakeSymbolTable()), "parse");
      }
      {
        ScopedSpan span("eca.open");
        store->session_ = Must(Session::Open(dir, store->SessionParams()),
                               "Session::Open");
      }
      {
        ScopedSpan span("storage.load_facts");
        Must(store->session_->LoadFacts(w.facts), "LoadFacts");
      }
      {
        ScopedSpan span("core.stabilize");
        Must(store->session_->Stabilize().status(), "Stabilize");
      }
      ScopedSpan span("eca.checkpoint");
      Must(store->session_->Checkpoint(), "Checkpoint");
    } else {
      ActiveDatabase::OpenParams params = store->DbParams();
      params.rules.clear();
      {
        ScopedSpan span("eca.open");
        store->db_ = std::make_unique<ActiveDatabase>(
            Must(ActiveDatabase::Open(dir, std::move(params)), "Open"));
      }
      {
        ScopedSpan span("lang.parse_rules");
        Must(store->db_->LoadRules(w.rules), "LoadRules");
      }
      {
        ScopedSpan span("storage.load_facts");
        Must(store->db_->LoadFacts(w.facts), "LoadFacts");
      }
      {
        ScopedSpan span("core.stabilize");
        Must(store->db_->Stabilize().status(), "Stabilize");
      }
      ScopedSpan span("eca.checkpoint");
      Must(store->db_->Checkpoint(), "Checkpoint");
    }
    return store;
  }

  /// Recovery: reopens an existing directory (snapshot load + journal
  /// replay).
  static std::unique_ptr<Store> Reopen(const Workload& w, const std::string& dir,
                                       bool as_session) {
    auto store = std::unique_ptr<Store>(new Store(w));
    ScopedSpan span("eca.reopen");
    if (as_session) {
      store->session_ =
          Must(Session::Open(dir, store->SessionParams()), "Session::Open");
    } else {
      store->db_ = std::make_unique<ActiveDatabase>(
          Must(ActiveDatabase::Open(dir, store->DbParams()), "Open"));
    }
    return store;
  }

  Transaction Begin() { return session_ ? session_->Begin() : db_->Begin(); }

  park::Result<park::QueryResult> Query(const std::string& pattern) {
    if (session_) {
      park::Snapshot snapshot;
      {
        ScopedSpan span("storage.snapshot_pin");
        snapshot = session_->Snapshot();
      }
      ScopedSpan span("storage.query");
      return snapshot.Query(pattern);
    }
    ScopedSpan span("storage.query");
    return park::QueryDatabase(db_->database(), pattern, db_->symbols());
  }

  std::vector<std::string> State() {
    return session_ ? session_->Snapshot().SortedAtomStrings()
                    : db_->database().SortedAtomStrings();
  }

  Session* session() { return session_.get(); }
  ActiveDatabase* db() { return db_.get(); }
  const std::shared_ptr<park::SymbolTable>& symbols() const {
    return session_ ? session_->symbols() : db_->symbols();
  }

 private:
  explicit Store(const Workload& w) : w_(w) {}

  Session::Params SessionParams() const {
    Session::Params params;
    params.rules = w_.rules;
    params.sync_mode = JournalSyncMode::kFlush;
    params.options = w_.options;
    return params;
  }
  ActiveDatabase::OpenParams DbParams() const {
    ActiveDatabase::OpenParams params;
    params.rules = w_.rules;
    params.sync_mode = JournalSyncMode::kFlush;
    params.options = w_.options;
    return params;
  }

  const Workload& w_;
  std::unique_ptr<Session> session_;
  std::unique_ptr<ActiveDatabase> db_;
};

// ---------------------------------------------------------------------------
// Closed-loop clients.

struct ClientState {
  uint64_t next_k = 0;
  std::vector<CommittedTx> committed;
};

struct LoopShared {
  std::atomic<int64_t> commits{0};
  std::atomic<int64_t> rss_kb{0};
  std::atomic<uint64_t> order{0};
  std::vector<int64_t> park_ns;  // direct Park() calls, after the loop
};

/// Runs one request (transaction + reads) and records its samples.
void RunRequest(const Workload& w, Store& store, int client, ClientState& cs,
                LoopShared& shared, PhaseSamples& out, bool record) {
  const Request req = w.make_request(client, cs.next_k++);
  RequestScope request_scope;
  ScopedSpan request_span("bench.request");
  Transaction tx = store.Begin();
  for (const std::string& u : req.updates) Must(tx.Stage(u), "Stage");

  std::vector<std::string> updates = req.updates;
  int64_t commit_ns = 0;
  bool committed = false;
  {
    ScopedSpan span(store.session() ? "serve.commit" : "eca.commit");
    const int64_t t0 = NowNs();
    CommitResult result = std::move(tx).Commit();
    commit_ns = NowNs() - t0;
    committed = result.ok();
    if (record) {
      ++out.commits;
      if (!committed) {
        ++out.failed_commits;
      } else {
        const park::CommitTimings& t = result->timings;
        out.commit_ns.push_back(commit_ns);
        out.evaluate_ns.push_back(static_cast<int64_t>(t.evaluate_ns));
        out.apply_ns.push_back(static_cast<int64_t>(t.apply_ns));
        out.journal_ns.push_back(static_cast<int64_t>(t.journal_ns));
        out.wait_ns.push_back(commit_ns - static_cast<int64_t>(t.total_ns));
        out.counters.Add(*result);
      }
    }
    if (committed) {
      cs.committed.push_back({result->batch_seq, result->batch_position,
                              shared.order.fetch_add(1), std::move(updates)});
      if (record && shared.commits.fetch_add(1) + 1 == kRssAfterCommits) {
        shared.rss_kb.store(PeakRssKb());
      }
    }
  }

  for (const Read& read : req.reads) {
    if (g_tracer.enabled()) {
      // The query calls parse their pattern internally; time the same
      // parse on its own so the lang layer's share is visible.
      for (const std::string& pattern : read.patterns) {
        ScopedSpan span("lang.pattern_parse");
        Must(park::ParseAtomPattern(pattern, store.symbols()), "pattern");
      }
    }
    bool ok = true;
    bool right = true;
    const int64_t t0 = NowNs();
    for (const std::string& pattern : read.patterns) {
      auto answer = store.Query(pattern);
      if (!answer.ok()) {
        ok = false;
      } else if (read.expected_rows >= 0 &&
                 static_cast<int64_t>(answer->size()) != read.expected_rows) {
        right = false;
      }
    }
    const int64_t query_ns = NowNs() - t0;
    if (!record) continue;
    ++out.queries;
    if (!ok) {
      ++out.failed_queries;
      continue;
    }
    out.query_ns.push_back(query_ns);
    if (committed && !right) ++out.wrong_answers;
  }
}

/// Warms up, then runs every client in a closed loop for `seconds` or
/// until the clients have committed `max_commits` transactions.
PhaseSamples RunPhase(const Workload& w, Store& store,
                      std::vector<ClientState>& clients, LoopShared& shared,
                      double seconds, int64_t max_commits, bool warmup) {
  const int n = static_cast<int>(clients.size());
  std::vector<PhaseSamples> per_client(static_cast<size_t>(n));
  std::barrier sync(n);
  std::atomic<int64_t> start_ns{0};
  std::atomic<int64_t> last_end_ns{0};
  std::atomic<int64_t> started{0};
  auto body = [&](int c) {
    ClientState& cs = clients[static_cast<size_t>(c)];
    PhaseSamples& out = per_client[static_cast<size_t>(c)];
    if (warmup) {
      for (int i = 0; i < kWarmupRequests; ++i) {
        RunRequest(w, store, c, cs, shared, out, /*record=*/false);
      }
    }
    sync.arrive_and_wait();
    if (c == 0) start_ns.store(NowNs());
    sync.arrive_and_wait();
    const int64_t deadline =
        start_ns.load() + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < deadline && started.fetch_add(1) < max_commits) {
      RunRequest(w, store, c, cs, shared, out, /*record=*/true);
    }
    int64_t end = NowNs();
    int64_t seen = last_end_ns.load();
    while (end > seen && !last_end_ns.compare_exchange_weak(seen, end)) {
    }
  };
  if (n == 1) {
    body(0);
  } else {
    std::vector<std::thread> threads;
    for (int c = 0; c < n; ++c) threads.emplace_back(body, c);
    for (auto& t : threads) t.join();
  }
  PhaseSamples all;
  for (const auto& p : per_client) all.Merge(p);
  all.elapsed_ns = last_end_ns.load() - start_ns.load();
  return all;
}

/// Traced runs of the direct-commit workloads: time Park(D, P, U) called
/// directly on the live instance with the updates of the next requests,
/// which are then dropped uncommitted.
void SampleDirectPark(const Workload& w, Store& store, ClientState& client,
                      LoopShared& shared) {
  ActiveDatabase& db = *store.db();
  for (size_t i = 0; i < kParkSamples; ++i) {
    const Request req = w.make_request(0, client.next_k + i);
    Transaction tx = db.Begin();
    for (const std::string& u : req.updates) Must(tx.Stage(u), "Stage");
    ScopedSpan span("core.park");
    const int64_t t0 = NowNs();
    Must(park::Park(db.database(), db.program(), tx.pending().updates(),
                    db.options()),
         "Park");
    shared.park_ns.push_back(NowNs() - t0);
  }
}

// ---------------------------------------------------------------------------
// Output checks.

/// Committed transactions in the order the engine serialized them.
std::vector<CommittedTx> SerialOrder(const std::vector<ClientState>& clients) {
  std::vector<CommittedTx> all;
  for (const auto& c : clients) {
    all.insert(all.end(), c.committed.begin(), c.committed.end());
  }
  std::sort(all.begin(), all.end(), [](const CommittedTx& a, const CommittedTx& b) {
    if (a.batch_seq != b.batch_seq) return a.batch_seq < b.batch_seq;
    if (a.batch_position != b.batch_position) {
      return a.batch_position < b.batch_position;
    }
    return a.order < b.order;
  });
  return all;
}

/// serve_payroll: the final snapshot must equal a sequential replay of
/// the same transactions on a single-threaded in-memory database.
Check CheckSequentialReplay(const Workload& w, Store& store,
                            const std::vector<ClientState>& clients,
                            LoopShared& shared) {
  ActiveDatabase oracle(park::MakeSymbolTable());
  Must(oracle.LoadRules(w.rules), "oracle rules");
  Must(oracle.LoadFacts(w.facts), "oracle facts");
  Must(oracle.Stabilize().status(), "oracle stabilize");
  const std::vector<CommittedTx> order = SerialOrder(clients);
  for (const CommittedTx& tx_record : order) {
    Transaction tx = oracle.Begin();
    for (const std::string& u : tx_record.updates) Must(tx.Stage(u), "Stage");
    if (g_tracer.enabled() && shared.park_ns.size() < kParkSamples) {
      // Direct Park(D, P, U) on the pre-commit instance of this
      // serialization: the core layer's share of a commit.
      ScopedSpan span("core.park");
      const int64_t t0 = NowNs();
      Must(park::Park(oracle.database(), oracle.program(),
                      tx.pending().updates(), oracle.options()),
           "Park");
      shared.park_ns.push_back(NowNs() - t0);
    }
    Must(std::move(tx).Commit().status(), "oracle commit");
  }
  const bool same = store.State() == oracle.database().SortedAtomStrings();
  return {"serve_final_equals_sequential_replay", same,
          Fmt("%zu transactions replayed", order.size())};
}

/// maintain_kilorule: the final instance must be a PARK fixpoint.
Check CheckFixpoint(Store& store) {
  ActiveDatabase& db = *store.db();
  ParkOptions options = db.options();
  options.maintenance_mode = park::MaintenanceMode::kOff;
  auto result = park::Park(db.program(), db.database(), options);
  const bool same = result.ok() && result->database.SameAtoms(db.database());
  return {"kilorule_final_is_park_fixpoint", same,
          Fmt("%zu atoms", db.database().size())};
}

/// closure_recompute: t must equal the reachability relation of e.
Check CheckReachability(Store& store) {
  const park::Database& db = store.db()->database();
  auto edges = Must(park::QueryDatabase(db, "e(X, Y)", store.symbols()), "e");
  auto closure = Must(park::QueryDatabase(db, "t(X, Y)", store.symbols()), "t");
  // Nodes by value; adjacency by node index.
  std::vector<park::Value> nodes;
  for (const auto& row : edges.bindings) {
    nodes.push_back(row[0]);
    nodes.push_back(row[1]);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  auto index_of = [&](const park::Value& v) {
    return static_cast<size_t>(std::lower_bound(nodes.begin(), nodes.end(), v) -
                               nodes.begin());
  };
  std::vector<std::vector<size_t>> out(nodes.size());
  for (const auto& row : edges.bindings) {
    out[index_of(row[0])].push_back(index_of(row[1]));
  }
  std::set<std::pair<size_t, size_t>> expected;
  for (size_t s = 0; s < nodes.size(); ++s) {
    std::vector<size_t> stack = out[s];
    std::vector<bool> seen(nodes.size(), false);
    while (!stack.empty()) {
      size_t v = stack.back();
      stack.pop_back();
      if (seen[v]) continue;
      seen[v] = true;
      expected.emplace(s, v);
      for (size_t next : out[v]) stack.push_back(next);
    }
  }
  std::set<std::pair<size_t, size_t>> actual;
  bool only_nodes = true;
  for (const auto& row : closure.bindings) {
    if (!std::binary_search(nodes.begin(), nodes.end(), row[0]) ||
        !std::binary_search(nodes.begin(), nodes.end(), row[1])) {
      only_nodes = false;
      break;
    }
    actual.emplace(index_of(row[0]), index_of(row[1]));
  }
  const bool same = only_nodes && actual == expected &&
                    actual.size() == closure.bindings.size();
  return {"closure_t_equals_reachability", same,
          Fmt("|t| = %zu, expected %zu", closure.bindings.size(),
              expected.size())};
}

// ---------------------------------------------------------------------------
// Entry point.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string out;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--out") {
      args.out = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.dir.empty() || args.out.empty() || !(args.seconds > 0)) {
    Die("usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
        "--dir DIR --out FILE");
  }
  return args;
}

void WriteSpans(Json& j, const std::vector<SpanRecord>& spans) {
  j.Open('[');
  for (const SpanRecord& s : spans) {
    j.Open('[');
    j.Int(static_cast<int64_t>(s.id)).Int(static_cast<int64_t>(s.parent));
    j.Int(static_cast<int64_t>(s.request)).Str(s.name);
    j.Int(s.start_ns).Int(s.end_ns);
    j.Close(']');
  }
  j.Close(']');
}

void WritePhase(Json& j, const PhaseSamples& p) {
  j.Open('{');
  j.Key("commit_ns").Ints(p.commit_ns);
  j.Key("query_ns").Ints(p.query_ns);
  j.Key("evaluate_ns").Ints(p.evaluate_ns);
  j.Key("apply_ns").Ints(p.apply_ns);
  j.Key("journal_ns").Ints(p.journal_ns);
  j.Key("wait_ns").Ints(p.wait_ns);
  j.Key("commits").Int(p.commits).Key("failed_commits").Int(p.failed_commits);
  j.Key("queries").Int(p.queries).Key("failed_queries").Int(p.failed_queries);
  j.Key("wrong_answers").Int(p.wrong_answers);
  j.Key("elapsed_ns").Int(p.elapsed_ns);
  const ReportCounters& c = p.counters;
  j.Key("counters").Open('{');
  j.Key("reports").Int(c.reports).Key("gamma_steps").Int(c.gamma_steps);
  j.Key("derived_marks").Int(c.derived_marks);
  j.Key("rule_evaluations").Int(c.rule_evaluations);
  j.Key("sched_considered").Int(c.sched_considered);
  j.Key("sched_skipped").Int(c.sched_skipped);
  j.Key("plans_compiled").Int(c.plans_compiled);
  j.Key("plan_cache_hits").Int(c.plan_cache_hits);
  j.Key("pool_sections").Int(c.pool_sections);
  j.Key("pool_tasks").Int(c.pool_tasks);
  j.Key("maint_commits").Int(c.maint_commits);
  j.Key("maint_rederived").Int(c.maint_rederived);
  j.Key("maint_fallbacks").Int(c.maint_fallbacks);
  j.Key("batch_size").Int(c.batch_size);
  j.Close('}');
  j.Close('}');
}

int Run(const Args& args) {
  Workload w;
  if (args.workload == "serve_payroll") {
    w = MakeServePayroll(args.seed);
  } else if (args.workload == "maintain_kilorule") {
    w = MakeMaintainKilorule(args.seed);
  } else if (args.workload == "closure_recompute") {
    w = MakeClosureRecompute(args.seed);
  } else {
    Die("unknown workload " + args.workload);
  }
  namespace fs = std::filesystem;
  fs::remove_all(args.dir);
  fs::create_directories(args.dir);

  // The recovery fixture: one set-up plus a deterministic journal of
  // fixture_txns commits from a client id the timed phase never uses.
  const std::string fixture_dir = args.dir + "/fixture";
  std::vector<std::string> fixture_state;
  {
    std::unique_ptr<Store> store = Store::Create(w, fixture_dir);
    ClientState fixture_client;
    LoopShared unused;
    PhaseSamples ignored;
    for (int i = 0; i < w.fixture_txns; ++i) {
      RunRequest(w, *store, w.clients, fixture_client, unused, ignored,
                 /*record=*/false);
    }
    fixture_state = store->State();
  }
  std::vector<ClientState> clients(static_cast<size_t>(w.clients));
  const std::string live_dir = args.dir + "/live";
  std::unique_ptr<Store> live = Store::Create(w, live_dir);
  int64_t instance_commits = 0;
  // Runs `seconds` of closed loop, swapping in a fresh instance (outside
  // the timed windows) whenever the current one has served its commits.
  // Only the last instance's transactions are kept for the final checks.
  LoopShared shared;
  auto run_timed = [&](double seconds, bool warmup) {
    PhaseSamples total;
    while (seconds > 0) {
      if (instance_commits >= w.commits_per_instance) {
        const bool tracing = g_tracer.enabled();
        g_tracer.set_enabled(false);
        live.reset();
        fs::remove_all(live_dir);
        live = Store::Create(w, live_dir);
        for (ClientState& c : clients) c.committed.clear();
        instance_commits = 0;
        g_tracer.set_enabled(tracing);
      }
      PhaseSamples part =
          RunPhase(w, *live, clients, shared, seconds,
                   w.commits_per_instance - instance_commits, warmup);
      warmup = false;
      instance_commits += part.commits;
      seconds -= static_cast<double>(part.elapsed_ns) / 1e9;
      total.Merge(part);
    }
    return total;
  };

  // The timed phase runs in kSlices slices. Before each slice the
  // run takes one set-up sample (the mean of a group of set-ups timed
  // together, so that it spans hundreds of milliseconds) and one
  // recovery sample (a reopen of the fixture, checked against the state
  // before close). Spreading the one-shot timings over the whole run,
  // and reporting the latency and throughput figures as medians over the
  // slices, keeps a few slow seconds of a shared host from deciding a
  // run's result. A traced run measures these slices untraced, then runs a
  // traced phase as long again, so the tracing overhead comes from one
  // process and one instance.
  std::vector<int64_t> setup_ns;
  std::vector<int64_t> recovery_ns;
  bool recovered_equal = true;
  PhaseSamples untraced;
  // Per slice: how many of untraced's samples it holds, and its length.
  std::vector<int64_t> slice_commit_samples, slice_query_samples,
      slice_elapsed_ns;
  const double slice_seconds =
      (args.trace ? args.seconds / 2 : args.seconds) / kSlices;
  for (int slice = 0; slice < kSlices; ++slice) {
    g_tracer.set_enabled(args.trace);
    int64_t group_ns = 0;
    for (int i = 0; i < w.setup_group; ++i) {
      const std::string dir = Fmt("%s/setup%d_%d", args.dir.c_str(), slice, i);
      const int64_t t0 = NowNs();
      std::unique_ptr<Store> store = Store::Create(w, dir);
      group_ns += NowNs() - t0;
      store.reset();
      fs::remove_all(dir);
    }
    setup_ns.push_back(group_ns / w.setup_group);
    {
      const int64_t t0 = NowNs();
      std::unique_ptr<Store> store = Store::Reopen(w, fixture_dir, w.session);
      recovery_ns.push_back(NowNs() - t0);
      if (store->State() != fixture_state) recovered_equal = false;
    }
    g_tracer.set_enabled(false);
    PhaseSamples part = run_timed(slice_seconds, /*warmup=*/slice == 0);
    slice_commit_samples.push_back(static_cast<int64_t>(part.commit_ns.size()));
    slice_query_samples.push_back(static_cast<int64_t>(part.query_ns.size()));
    slice_elapsed_ns.push_back(part.elapsed_ns);
    untraced.Merge(part);
  }
  PhaseSamples traced;
  if (args.trace) {
    g_tracer.set_enabled(true);
    traced = run_timed(args.seconds / 2, /*warmup=*/false);
    if (!w.session) SampleDirectPark(w, *live, clients[0], shared);
  }
  int64_t rss_kb = shared.rss_kb.load();
  if (rss_kb == 0) rss_kb = PeakRssKb();

  // Checks.
  std::vector<Check> checks;
  PhaseSamples all = untraced;
  all.Merge(traced);
  checks.push_back({"reads_see_own_commit", all.wrong_answers == 0,
                    Fmt("%lld wrong answers", (long long)all.wrong_answers)});
  checks.push_back({"reopened_state_equals_pre_close_state", recovered_equal,
                    Fmt("%zu atoms, %d journaled transactions",
                        fixture_state.size(), w.fixture_txns)});
  int64_t atoms = 0;
  park::ParkStats::ServingCounters serving;
  if (w.kind == Kind::kServePayroll) {
    serving = live->session()->serving_stats();
    checks.push_back(CheckSequentialReplay(w, *live, clients, shared));
    atoms = static_cast<int64_t>(live->State().size());
  } else {
    atoms = static_cast<int64_t>(live->db()->database().size());
    if (w.kind == Kind::kMaintainKilorule) {
      const ReportCounters& c = all.counters;
      checks.push_back(
          {"kilorule_every_commit_maintained",
           c.reports > 0 && c.maint_commits == c.reports &&
               c.maint_fallbacks == 0,
           Fmt("%lld of %lld maintained, %lld fallbacks",
               (long long)c.maint_commits, (long long)c.reports,
               (long long)c.maint_fallbacks)});
      checks.push_back(CheckFixpoint(*live));
    } else {
      checks.push_back(CheckReachability(*live));
    }
  }
  live.reset();

  // Non-serving workloads: pin snapshots of a Session recovered from
  // the fixture, so the snapshot layer is measured everywhere.
  if (args.trace && !w.session) {
    std::unique_ptr<Store> store = Store::Reopen(w, fixture_dir, true);
    for (int i = 0; i < kPinSamples; ++i) {
      ScopedSpan span("storage.snapshot_pin");
      park::Snapshot snapshot = store->session()->Snapshot();
    }
  }
  fs::remove_all(args.dir);

  Json j;
  j.Open('{');
  j.Key("workload").Str(w.name).Key("seed").Int(static_cast<int64_t>(args.seed));
  j.Key("trace").Bool(args.trace).Key("clients").Int(w.clients);
  j.Key("threads").Int(w.options.num_threads);
  j.Key("setup_group").Int(w.setup_group);
  j.Key("setup_ns").Ints(setup_ns);
  j.Key("recovery_ns").Ints(recovery_ns);
  j.Key("peak_rss_kb").Int(rss_kb);
  j.Key("atoms").Int(atoms);
  j.Key("untraced");
  WritePhase(j, untraced);
  j.Key("slice_commit_samples").Ints(slice_commit_samples);
  j.Key("slice_query_samples").Ints(slice_query_samples);
  j.Key("slice_elapsed_ns").Ints(slice_elapsed_ns);
  if (args.trace) {
    j.Key("traced");
    WritePhase(j, traced);
    j.Key("park_ns").Ints(shared.park_ns);
    j.Key("serving").Open('{');
    j.Key("batches").Int(static_cast<int64_t>(serving.batches));
    j.Key("batched_txns").Int(static_cast<int64_t>(serving.batched_txns));
    j.Close('}');
    j.Key("spans");
    WriteSpans(j, g_tracer.Collect());
  }
  j.Key("checks").Open('[');
  for (const Check& c : checks) {
    j.Open('{').Key("name").Str(c.name).Key("passed").Bool(c.passed);
    j.Key("detail").Str(c.detail).Close('}');
  }
  j.Close(']');
  j.Close('}');

  FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) Die("cannot write " + args.out);
  std::fwrite(j.str().data(), 1, j.str().size(), f);
  std::fclose(f);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(ParseArgs(argc, argv)); }
