// The repository benchmark driver: one workload per process, one
// closed-loop client (each statement is issued after the previous one
// returns), every answer checked.
//
//   perfbench --workload <analytic|adhoc|oltp|spill> --seed N --seconds S
//             --trace <0|1> [--scale F]
//
// --trace 0 measures the end-to-end metrics through the engine's public
// statement API. --trace 1 spends the first half of the run untraced and
// the second half traced: each SELECT runs through Database::Execute (or
// ExecutePrepared) and again through the layered pipeline of layers.h,
// which must return the same rows and the same plan cost. The last line
// of standard output is the JSON result.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "layers.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--scale") {
      a->scale = std::atof(v.c_str());
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && a->scale > 0;
}

std::unique_ptr<Workload> MakeWorkload(const Args& a) {
  if (a.workload == "analytic") return MakeAnalytic(a.seed, a.scale, false);
  if (a.workload == "spill") return MakeAnalytic(a.seed, a.scale, true);
  if (a.workload == "adhoc") return MakeAdhoc(a.seed, a.scale);
  if (a.workload == "oltp") return MakeOltp(a.seed, a.scale);
  return nullptr;
}

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Host and build stamp, printed before the result.
void PrintHost(const Args& a) {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::string cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus += (cpus.empty() ? "" : ",") + std::to_string(c);
    }
  }
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  std::printf(
      "# host {\"nproc\": %ld, \"affinity\": %s, \"build_type\": %s, "
      "\"compiler\": %s, \"git_sha\": %s, \"workload\": %s, \"seed\": %llu}\n",
      sysconf(_SC_NPROCESSORS_ONLN), Json(cpus).c_str(),
      Json(PERFBENCH_BUILD_TYPE).c_str(), Json(__VERSION__).c_str(),
      Json(sha != nullptr ? sha : "unknown").c_str(), Json(a.workload).c_str(),
      static_cast<unsigned long long>(a.seed));
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// FNV-1a over the statement stream, so a smoke test can tell that a
/// second seed changed it.
struct StreamDigest {
  uint64_t h = 1469598103934665603ULL;
  void Add(const Statement& s) {
    auto mix = [this](const std::string& t) {
      for (unsigned char c : t) h = (h ^ c) * 1099511628211ULL;
    };
    mix(s.sql);
    for (const Value& v : s.params) mix(v.ToString());
  }
};

struct Tally {
  uint64_t attempted = 0, failed = 0;
  void Fail(const Statement& s, const std::string& why) {
    ++failed;
    if (failed <= 5) {
      std::fprintf(stderr, "perfbench: wrong answer: %s -- %s\n",
                   s.sql.substr(0, 120).c_str(), why.c_str());
    }
  }
};

/// Runs one statement on the engine, checks it, returns its latency in
/// microseconds (negative when it failed).
double RunChecked(Database* db, const Statement& s, Tally* tally,
                  starburst::Result<ResultSet>* result) {
  ++tally->attempted;
  double t = NowUs();
  *result = RunOnEngine(db, s);
  double us = NowUs() - t;
  if (!result->ok()) {
    tally->Fail(s, result->status().ToString());
    return -1;
  }
  if (s.expected != nullptr) {
    std::string why = Mismatch(*s.expected, **result);
    if (!why.empty()) {
      tally->Fail(s, why);
      return -1;
    }
  }
  return us;
}

/// True until `seconds` have passed since `start` and the `n` statements
/// issued so far end a whole cycle of the workload's sequence, so every
/// run measures the same mix.
bool KeepRunning(const Workload& wl, double start, double seconds, size_t n) {
  return NowUs() < start + seconds * 1e6 || n % wl.CycleLength() != 0;
}

/// Closed loop through the engine for `seconds`, in whole cycles; fills
/// per-statement latencies (us).
void UntracedLoop(Database* db, Workload* wl, double seconds, Tally* tally,
                  StreamDigest* digest, std::vector<double>* latencies) {
  double start = NowUs();
  starburst::Result<ResultSet> r = starburst::Status::OK();
  size_t n = 0;
  while (KeepRunning(*wl, start, seconds, n)) {
    Statement s = wl->Next();
    if (n++ < 64) digest->Add(s);
    double us = RunChecked(db, s, tally, &r);
    if (us >= 0) latencies->push_back(us);
  }
}

/// Per-layer accumulators of the traced half.
struct LayerTotals {
  uint64_t selects = 0, compiles = 0;
  double parse = 0, bind = 0, rewrite = 0, optimize = 0, refine = 0,
         execute = 0;
  uint64_t firings = 0, boxes = 0, pairs = 0, plans = 0, stars = 0;
  uint64_t programs = 0, full = 0;
  uint64_t rows = 0, sub_evals = 0, sub_hits = 0, tasks = 0;
  uint64_t reads = 0, hits = 0, visits = 0, spill_bytes = 0, spill_files = 0;
  uint64_t peak_bytes = 0;
  std::vector<double> overhead_us;
  std::map<Kind, std::vector<double>> engine_us;
  double traced_us = 0;
  uint64_t traced_statements = 0;

  void AddCompile(const LayerSample& x) {
    ++compiles;
    firings += x.firings;
    boxes += x.boxes_after_rewrite;
    pairs += x.pairs_considered;
    plans += x.plans_generated;
    stars += x.stars_evaluated;
    programs += x.kernel_programs;
    full += x.kernel_full;
  }
  void AddStatement(const LayerSample& x) {
    ++selects;
    parse += x.parse_us;
    bind += x.bind_us;
    rewrite += x.rewrite_us;
    optimize += x.optimize_us;
    refine += x.refine_us;
    execute += x.execute_us;
    rows += x.rows_emitted;
    sub_evals += x.subquery_evals;
    sub_hits += x.subquery_cache_hits;
    tasks += x.tasks_run;
    reads += x.logical_reads;
    hits += x.cache_hits;
    visits += x.index_node_visits;
    spill_bytes += x.spill_bytes;
    spill_files += x.spill_files;
    peak_bytes = std::max(peak_bytes, x.peak_query_bytes);
  }
};

/// Runs `s` on the engine and, for a SELECT, through the layered
/// pipeline; checks the answer and that both paths agree.
void TracedStatement(Database* db, LayeredPipeline* pipe, const Statement& s,
                     Tally* tally, LayerTotals* lt, bool measured) {
  starburst::Result<ResultSet> r = starburst::Status::OK();
  double engine_us = RunChecked(db, s, tally, &r);
  if (engine_us < 0) return;
  bool engine_hit = db->last_metrics().plan_cache_hit;
  double engine_cost = db->last_metrics().plan_cost;
  if (measured) lt->engine_us[s.kind].push_back(engine_us);
  if (s.kind != Kind::kSelect) {
    if (measured) {
      lt->traced_us += engine_us;
      ++lt->traced_statements;
    }
    return;
  }
  double t = NowUs();
  auto sample = pipe->Run(s);
  double traced_us = NowUs() - t;
  if (!sample.ok()) {
    tally->Fail(s, "layered pipeline: " + sample.status().ToString());
    return;
  }
  if (!SameRows(sample->rows, r->rows())) {
    tally->Fail(s, "layered pipeline returned other rows than the engine");
    return;
  }
  if (!NearlyEqual(sample->plan_cost, engine_cost)) {
    tally->Fail(s, "layered pipeline plan cost " +
                       std::to_string(sample->plan_cost) + ", engine " +
                       std::to_string(engine_cost));
    return;
  }
  if (sample->compiled) lt->AddCompile(*sample);
  if (!measured) return;
  lt->AddStatement(*sample);
  lt->traced_us += traced_us;
  ++lt->traced_statements;
  double spans = sample->execute_us + (engine_hit ? 0 : sample->CompileUs());
  lt->overhead_us.push_back(engine_us - spans);
}

struct Metric {
  std::string name, unit;
  double value;
};

void PrintResult(bool correct, const Tally& t, const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempted);
  out += ", \"failed\": " + std::to_string(t.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.9g", ms[i].value);
    out += (i > 0 ? ", " : "") + Json(ms[i].name) + ": {\"value\": " + num +
           ", \"unit\": " + Json(ms[i].unit) + "}";
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

double Ratio(double num, double den, double if_empty) {
  return den > 0 ? num / den : if_empty;
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <analytic|adhoc|oltp|spill> "
                 "--seed N --seconds S --trace <0|1> [--scale F]\n");
    return 2;
  }
  std::unique_ptr<Workload> wl = MakeWorkload(a);
  if (wl == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  PrintHost(a);

  // Set-up runs several times on fresh databases; the last one is kept.
  std::vector<double> setup_s, analyze_s, load_rps;
  std::unique_ptr<Database> db;
  // Declared after `db`, so prepared handles go before the database.
  struct ReleaseGuard {
    Workload* wl;
    ~ReleaseGuard() { wl->Release(); }
  } release_guard{wl.get()};
  SetupInfo info;
  for (int rep = 0; rep < wl->SetupReps(); ++rep) {
    wl->Release();
    db.reset();
    info = SetupInfo{};
    double t = NowUs();
    db = std::make_unique<Database>();
    starburst::Status st = wl->Setup(db.get(), &info);
    setup_s.push_back((NowUs() - t) / 1e6);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   st.ToString().c_str());
      return 2;
    }
    analyze_s.push_back(info.analyze_s);
    load_rps.push_back(Ratio(info.load_rows, info.load_s, 0));
  }
  wl->BuildExpected();

  Tally tally;
  StreamDigest digest;
  LayeredPipeline pipe(db.get(), wl->ReusesPlans());
  LayerTotals lt;
  starburst::Result<ResultSet> r = starburst::Status::OK();
  for (const Statement& s : wl->Warmup()) {
    if (a.trace) {
      TracedStatement(db.get(), &pipe, s, &tally, &lt, /*measured=*/false);
    } else {
      (void)RunChecked(db.get(), s, &tally, &r);
    }
  }

  std::vector<Metric> metrics;
  if (!a.trace) {
    std::vector<double> lat;
    UntracedLoop(db.get(), wl.get(), a.seconds, &tally, &digest, &lat);
    double busy_us = 0;
    for (double us : lat) busy_us += us;
    std::printf("# stream %016llx\n# latency samples %zu\n",
                static_cast<unsigned long long>(digest.h), lat.size());
    metrics = {
        {"setup_s", "s", Median(setup_s)},
        {"throughput_sps", "1/s", Ratio(lat.size(), busy_us / 1e6, 0)},
        {"latency_p50_ms", "ms", Percentile(lat, 0.50) / 1e3},
        {"latency_p95_ms", "ms", Percentile(lat, 0.95) / 1e3},
        {"peak_rss_mb", "MB", PeakRssMb()},
    };
  } else {
    std::vector<double> lat;
    UntracedLoop(db.get(), wl.get(), a.seconds / 2, &tally, &digest, &lat);
    double busy_us = 0;
    for (double us : lat) busy_us += us;
    double untraced_sps = Ratio(lat.size(), busy_us / 1e6, 0);

    auto cache_before = db->plan_cache().stats();
    double start = NowUs();
    for (size_t n = 0; KeepRunning(*wl, start, a.seconds / 2, n); ++n) {
      TracedStatement(db.get(), &pipe, wl->Next(), &tally, &lt, true);
    }
    auto cache_after = db->plan_cache().stats();
    uint64_t hits = cache_after.hits - cache_before.hits;
    uint64_t lookups = hits + cache_after.misses - cache_before.misses;

    std::vector<double> scans;
    for (int i = 0; i < 3; ++i) {
      auto us = ScanTables(db.get(), info.tables);
      if (!us.ok()) {
        std::fprintf(stderr, "perfbench: bare scan failed: %s\n",
                     us.status().ToString().c_str());
        return 2;
      }
      scans.push_back(*us);
    }
    std::printf("# stream %016llx\n# traced statements %llu\n",
                static_cast<unsigned long long>(digest.h),
                static_cast<unsigned long long>(lt.traced_statements));

    const double sel = static_cast<double>(lt.selects);
    const double comp = static_cast<double>(lt.compiles);
    auto per_sel = [&](double v) { return Ratio(v, sel, 0); };
    auto per_comp = [&](double v) { return Ratio(v, comp, 0); };
    auto p50 = [&](Kind k) { return Median(lt.engine_us[k]); };
    double traced_sps = Ratio(lt.traced_statements, lt.traced_us / 1e6, 0);
    metrics = {
        {"parser.parse_us", "us", per_sel(lt.parse)},
        {"qgm.bind_us", "us", per_sel(lt.bind)},
        {"rewrite.rewrite_us", "us", per_sel(lt.rewrite)},
        {"optimizer.optimize_us", "us", per_sel(lt.optimize)},
        {"exec.refine_us", "us", per_sel(lt.refine)},
        {"rewrite.firings", "count", per_comp(lt.firings)},
        {"qgm.boxes_after_rewrite", "count", per_comp(lt.boxes)},
        {"optimizer.pairs_considered", "count", per_comp(lt.pairs)},
        {"optimizer.plans_generated", "count", per_comp(lt.plans)},
        {"optimizer.stars_evaluated", "count", per_comp(lt.stars)},
        {"exec.execute_us", "us", per_sel(lt.execute)},
        {"exec.rows_emitted", "count", per_sel(lt.rows)},
        {"exec.kernel_full_ratio", "ratio", Ratio(lt.full, lt.programs, 0)},
        {"exec.subquery_evals", "count", per_sel(lt.sub_evals)},
        {"exec.subquery_cache_hit_ratio", "ratio",
         Ratio(lt.sub_hits, lt.sub_hits + lt.sub_evals, 0)},
        {"exec.parallel.tasks_run", "count", per_sel(lt.tasks)},
        {"storage.logical_reads", "count", per_sel(lt.reads)},
        {"storage.hit_ratio", "ratio", Ratio(lt.hits, lt.reads, 1)},
        {"storage.table_scan_us", "us", Median(scans)},
        {"storage.index_node_visits", "count", per_sel(lt.visits)},
        {"storage.spill_bytes", "bytes", per_sel(lt.spill_bytes)},
        {"storage.spill_files", "count", per_sel(lt.spill_files)},
        {"exec.peak_query_bytes", "bytes", static_cast<double>(lt.peak_bytes)},
        {"engine.plan_cache_hit_ratio", "ratio", Ratio(hits, lookups, 0)},
        {"engine.select_us", "us", p50(Kind::kSelect)},
        {"engine.insert_us", "us", p50(Kind::kInsert)},
        {"engine.update_us", "us", p50(Kind::kUpdate)},
        {"engine.delete_us", "us", p50(Kind::kDelete)},
        {"engine.overhead_us", "us", Median(lt.overhead_us)},
        {"catalog.analyze_s", "s", Median(analyze_s)},
        {"storage.load_rows_per_s", "rows/s", Median(load_rps)},
        {"trace.overhead_ratio", "ratio", Ratio(traced_sps, untraced_sps, 0)},
        {"error_ratio", "ratio", Ratio(tally.failed, tally.attempted, 0)},
    };
  }
  bool correct = tally.failed == 0 && tally.attempted > 0;
  PrintResult(correct, tally, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
