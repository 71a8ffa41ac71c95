#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench_harness/json.h"

namespace csca::perf {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"run_s", "s"},
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"graph.bytes_per_node", "B"},
      {"sim.events", "count"},
      {"sim.sends", "count"},
      {"sim.state_bytes_per_node", "B"},
      {"sim.queue.peak_depth", "count"},
      {"sim.queue.share", "fraction"},
      {"sim.delay.share", "fraction"},
      {"sim.dispatch.share", "fraction"},
      {"speedup_vs_seedq", "ratio"},
      {"fault.share", "fraction"},
      {"fault.drops", "count"},
      {"fault.dups", "count"},
      {"fault.garbles", "count"},
      {"fault.arq.retransmits", "count"},
      {"fault.arq.corrupt_frames", "count"},
      {"fault.arq.useful_frac", "fraction"},
      {"check.share", "fraction"},
      {"par.shard.share", "fraction"},
      {"par.shard.rounds", "count"},
      {"par.shard.wave_rounds", "count"},
      {"par.shard.events_per_round", "count"},
      {"par.shard.cut_frac", "fraction"},
      {"par.shard.node_imbalance", "ratio"},
      {"shard4_speedup", "ratio"},
      {"par.tw.share", "fraction"},
      {"par.tw.rounds", "count"},
      {"par.tw.commit_efficiency", "fraction"},
      {"par.tw.rolled_back_frac", "fraction"},
      {"par.tw.anti_messages", "count"},
      {"par.tw.event_imbalance", "ratio"},
      {"tw4_speedup", "ratio"},
      {"par.pool.share", "fraction"},
      {"par.pool.busy_frac", "fraction"},
      {"par.pool.task_inflation", "ratio"},
      {"harness.share", "fraction"},
      {"harness.rows", "count"},
      {"harness.checks", "count"},
      {"harness.table_share.F1", "fraction"},
      {"harness.table_share.F2", "fraction"},
      {"harness.table_share.F3", "fraction"},
      {"harness.table_share.F4", "fraction"},
      {"harness.table_share.F5", "fraction"},
      {"harness.table_share.F6", "fraction"},
      {"harness.table_share.F7", "fraction"},
      {"harness.table_share.F8", "fraction"},
      {"harness.table_share.F9", "fraction"},
      {"harness.table_share.S3", "fraction"},
      {"harness.table_share.S4", "fraction"},
      {"harness.table_share.S5", "fraction"},
      {"harness.table_share.A1", "fraction"},
      {"trace.overhead_frac", "fraction"},
      {"trace.coverage", "fraction"},
  };
  return defs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "storm_deep", "flood_1m", "faulty_arq", "par_grid", "paper_sweep"};
  return names;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {

constexpr double kCoverageLo = 0.9;
constexpr double kCoverageHi = 1.1;

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand.erase(std::find(brand.begin(), brand.end(), '\0'), brand.end());
    const auto first = brand.find_first_not_of(' ');
    if (first != std::string::npos) return brand.substr(first);
  }
#endif
  return "unknown";
}

// golden.txt: "<workload> <seed> <full|smoke> <digest name> <value>" per
// line; '#' starts a comment line.
std::map<std::string, std::string> load_golden(const Options& opt) {
  std::map<std::string, std::string> out;
  std::ifstream in(CSCA_PERF_GOLDEN);
  std::string line;
  const std::string mode = opt.smoke ? "smoke" : "full";
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, seed, line_mode, name, value;
    if (!(fields >> workload >> seed >> line_mode >> name >> value)) continue;
    if (workload == opt.workload && seed == std::to_string(opt.seed) &&
        line_mode == mode) {
      out[name] = value;
    }
  }
  return out;
}

}  // namespace

Bench::Bench(Options opt)
    : opt_(std::move(opt)), start_(Clock::now()), golden_(load_golden(opt_)) {}

bool Bench::next_rep() {
  const Clock::time_point now = Clock::now();
  if (rep_ >= 0) {
    rep_seconds_[traced_ ? 1 : 0].push_back(seconds_between(rep_start_, now));
  }
  // Peak RSS as one closed batch leaves it, which is what a single run
  // needs. Later reps only add the allocator's retained fragments,
  // which grow with the number of reps that fit in the budget.
  if (rep_ == 0) sample("peak_rss_mib", peak_rss_mib(), "MiB");
  const int next = rep_ + 1;
  const bool next_traced = interleaves_traced() && next % 2 == 1;
  bool go;
  if (opt_.smoke) {
    go = next < 2;
  } else if (opt_.reps > 0) {
    go = next < opt_.reps;
  } else {
    // At least one rep of each kind this run produces, and three
    // untraced reps when untraced reps are all it produces; then as
    // many as fit in the budget, judged by the median rep of the kind
    // that would run next.
    const int min_reps = interleaves_traced() ? 2 : 3;
    const std::vector<double>& same = rep_seconds_[next_traced ? 1 : 0];
    const double typical = same.empty() ? 0 : median(same);
    go = next < min_reps ||
         seconds_between(start_, now) + typical <= opt_.seconds;
  }
  if (!go) return false;
  rep_ = next;
  traced_ = next_traced;
  rep_start_ = Clock::now();
  return true;
}

Bench::Series& Bench::series(const std::string& name, std::string_view unit) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    order_.push_back(name);
    it = series_.emplace(name, Series{std::string(unit), {}}).first;
  }
  return it->second;
}

void Bench::sample(const std::string& name, double value,
                   std::string_view unit) {
  series(name, unit).values[traced_ ? 1 : 0].push_back(value);
}

void Bench::sample_run(const std::string& name, double value,
                       std::string_view unit) {
  series(name, unit).values[0].push_back(value);
}

void Bench::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  const std::string msg = opt_.workload + ": " + what;
  std::fprintf(stderr, "csca_perf: check failed: %s\n", msg.c_str());
  failures_.push_back(msg);
}

void Bench::digest(const std::string& name, const std::string& value) {
  const auto [it, first] = first_digest_.emplace(name, value);
  if (first) {
    std::printf("digest %s %llu %s %s %s\n", opt_.workload.c_str(),
                static_cast<unsigned long long>(opt_.seed),
                opt_.smoke ? "smoke" : "full", name.c_str(), value.c_str());
    const auto pinned = golden_.find(name);
    if (pinned != golden_.end()) {
      check(pinned->second == value,
            name + " " + value + " differs from golden.txt " + pinned->second);
    }
    return;
  }
  check(it->second == value, "rep " + std::to_string(rep_) + ": " + name +
                                 " " + value + " differs from rep 0 " +
                                 it->second);
}

int Bench::open_span(const std::string& name, int parent) {
  if (opt_.trace_path.empty()) return -1;
  spans_.push_back(
      SpanRec{name, parent, rep_, seconds_between(start_, Clock::now()), -1});
  return static_cast<int>(spans_.size()) - 1;
}

void Bench::close_span(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s =
      seconds_between(start_, Clock::now());
}

void Bench::add_derived_metrics() {
  const auto run = series_.find("run_s");
  if (run != series_.end() && !run->second.values[0].empty() &&
      !run->second.values[1].empty()) {
    series("trace.overhead_frac", "fraction")
        .values[1]
        .push_back(median(run->second.values[1]) /
                       median(run->second.values[0]) -
                   1.0);
  }
  // The per-layer split is only valid when the layers account for the
  // traced run's time; smoke inputs are too small to time meaningfully.
  const auto cov = series_.find("trace.coverage");
  if (!opt_.smoke && cov != series_.end()) {
    for (const double c : cov->second.values[1]) {
      check(c >= kCoverageLo && c <= kCoverageHi,
            "trace: per-layer coverage " + fmt(c) + " outside [0.9, 1.1]");
    }
  }
}

double Bench::value_for_result(const MetricDef& def) const {
  const auto it = series_.find(std::string(def.name));
  if (it == series_.end()) return 0;
  // Layer data comes from traced reps; ratios between backends are
  // taken in the untraced reps of the same process.
  const bool want_traced = !opt_.trace_path.empty();
  const std::vector<double>& pref = it->second.values[want_traced ? 1 : 0];
  return median(pref.empty() ? it->second.values[want_traced ? 0 : 1] : pref);
}

std::string Bench::render_document(const std::string& result_line) const {
  std::ostringstream out;
  out << "{\n  \"workload\": \"" << bench::json_escape(opt_.workload)
      << "\",\n  \"seed\": " << opt_.seed
      << ",\n  \"smoke\": " << (opt_.smoke ? "true" : "false")
      << ",\n  \"traced\": " << (opt_.trace_path.empty() ? "false" : "true")
      << ",\n  \"environment\": {\"nproc\": "
      << std::thread::hardware_concurrency() << ", \"cpu_model\": \""
      << bench::json_escape(cpu_model()) << "\", \"compiler\": \""
      << bench::json_escape(CSCA_PERF_COMPILER) << "\", \"build_type\": \""
      << bench::json_escape(CSCA_PERF_BUILD_TYPE) << "\", \"commit\": \""
      << bench::json_escape(CSCA_PERF_COMMIT) << "\"},\n  \"series\": {";
  bool first = true;
  for (const std::string& name : order_) {
    const Series& s = series_.at(name);
    for (int k = 0; k < 2; ++k) {
      if (s.values[k].empty()) continue;
      out << (first ? "\n" : ",\n") << "    \"" << bench::json_escape(name)
          << (k == 1 ? "@traced" : "") << "\": {\"unit\": \""
          << bench::json_escape(s.unit)
          << "\", \"median\": " << fmt(median(s.values[k]))
          << ", \"q1\": " << fmt(quantile(s.values[k], 0.25))
          << ", \"q3\": " << fmt(quantile(s.values[k], 0.75))
          << ", \"n\": " << s.values[k].size() << "}";
      first = false;
    }
  }
  out << "\n  },\n  \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    out << (i ? ", " : "") << "\"" << bench::json_escape(failures_[i]) << "\"";
  }
  out << "],\n  \"result\": " << result_line << "\n}\n";
  return out.str();
}

void Bench::write_trace() const {
  std::ofstream out(opt_.trace_path);
  if (!out) {
    std::fprintf(stderr, "csca_perf: cannot write trace %s\n",
                 opt_.trace_path.c_str());
    return;
  }
  out << "{\"workload\": \"" << bench::json_escape(opt_.workload)
      << "\", \"seed\": " << opt_.seed << ", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    out << (i ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"name\": \""
        << bench::json_escape(s.name) << "\", \"parent\": " << s.parent
        << ", \"rep\": " << s.rep << ", \"start_s\": " << fmt(s.start_s)
        << ", \"end_s\": " << fmt(s.end_s) << "}";
  }
  out << "\n]}\n";
}

int Bench::finish() {
  add_derived_metrics();

  std::printf("# %s seed=%llu%s%s: %d reps, nproc=%u, %s, %s build\n",
              opt_.workload.c_str(), static_cast<unsigned long long>(opt_.seed),
              opt_.smoke ? " smoke" : "",
              opt_.trace_path.empty() ? "" : " traced", rep_ + 1,
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              CSCA_PERF_BUILD_TYPE);
  for (const std::string& name : order_) {
    const Series& s = series_.at(name);
    for (int k = 0; k < 2; ++k) {
      if (s.values[k].empty()) continue;
      std::printf("%-34s %-8s median %-13.6g q1 %-13.6g q3 %-13.6g n=%zu\n",
                  (name + (k == 1 ? " @traced" : "")).c_str(), s.unit.c_str(),
                  median(s.values[k]), quantile(s.values[k], 0.25),
                  quantile(s.values[k], 0.75), s.values[k].size());
    }
  }

  const bool traced_result = !opt_.trace_path.empty();
  const std::vector<MetricDef>& defs =
      traced_result ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics;
  for (const MetricDef& def : defs) {
    if (!traced_result) {
      check(series_.count(std::string(def.name)) != 0,
            "end-to-end metric " + std::string(def.name) + " not measured");
    }
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") +
               std::string(def.name) + "\": {\"value\": " +
               fmt(value_for_result(def)) + ", \"unit\": \"" +
               std::string(def.unit) + "\"}";
  }
  const bool correct = failed_ == 0;
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted_) +
      ", \"failed\": " + std::to_string(failed_) +
      ", \"metrics\": {" + metrics + "}}";

  if (!opt_.out_path.empty()) {
    std::ofstream out(opt_.out_path);
    if (out) {
      out << render_document(result);
    } else {
      std::fprintf(stderr, "csca_perf: cannot write %s\n",
                   opt_.out_path.c_str());
    }
  }
  if (traced_result) write_trace();
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace csca::perf
