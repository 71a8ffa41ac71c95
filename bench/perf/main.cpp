// csca_perf — one benchmark for the simulator: five workloads, the
// end-to-end metrics a user sees, and a traced run that splits them by
// layer (README.md).
//
//   csca_perf --workload=NAME [--seed=N] [--seconds=S] [--reps=N]
//             [--trace=PATH] [--out=PATH]
//   csca_perf --smoke [--workload=NAME]
//
// The last line of standard output is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics, or with --trace the per-layer ones.
//
// Exit status: 0 when every output check passed, 1 when one failed or a
// workload threw, 2 on bad usage or a refused build.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <string_view>

#include "bench.h"
#include "workloads.h"

namespace {

using csca::perf::Options;

constexpr const char* kUsage =
    "usage: csca_perf --workload=NAME [--seed=N] [--seconds=S] [--reps=N]\n"
    "                 [--trace=PATH] [--out=PATH]\n"
    "       csca_perf --smoke [--workload=NAME]\n"
    "workloads: storm_deep flood_1m faulty_arq par_grid paper_sweep\n";

int usage_error(const std::string& what) {
  std::fprintf(stderr, "csca_perf: %s\n%s", what.c_str(), kUsage);
  return 2;
}

template <typename T>
bool parse_number(std::string_view text, T& out) {
  if (text.empty()) return false;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

// Timing an unoptimized or sanitized binary measures the instrumentation,
// not the simulator.
const char* refused_build() {
#if !defined(__OPTIMIZE__)
  return "an unoptimized build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "a sanitizer build";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "a sanitizer build";
#endif
#endif
  if (std::strcmp(CSCA_PERF_BUILD_TYPE, "Debug") == 0) return "a Debug build";
  return nullptr;
}

bool known_workload(const std::string& name) {
  for (const std::string& w : csca::perf::workload_names()) {
    if (w == name) return true;
  }
  return false;
}

int run_one(const Options& opt) {
  csca::perf::Bench bench(opt);
  try {
    csca::perf::run_workload(opt.workload, bench);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "csca_perf: %s: error: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  return bench.finish();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&arg](std::string_view flag) {
      return arg.substr(flag.size());
    };
    if (arg.rfind("--workload=", 0) == 0) {
      opt.workload = std::string(value("--workload="));
      if (!known_workload(opt.workload)) {
        return usage_error("unknown workload '" + opt.workload + "'");
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!parse_number(value("--seed="), opt.seed)) {
        return usage_error("malformed --seed: '" +
                           std::string(value("--seed=")) +
                           "' (want an unsigned 64-bit integer)");
      }
    } else if (arg.rfind("--seconds=", 0) == 0) {
      if (!parse_number(value("--seconds="), opt.seconds) ||
          !(opt.seconds > 0 && opt.seconds <= 3600)) {
        return usage_error("malformed --seconds: '" +
                           std::string(value("--seconds=")) +
                           "' (want a number in (0, 3600])");
      }
    } else if (arg.rfind("--reps=", 0) == 0) {
      if (!parse_number(value("--reps="), opt.reps) || opt.reps < 1 ||
          opt.reps > 10000) {
        return usage_error("malformed --reps: '" +
                           std::string(value("--reps=")) +
                           "' (want an integer in [1, 10000])");
      }
    } else if (arg.rfind("--trace=", 0) == 0) {
      opt.trace_path = std::string(value("--trace="));
      if (opt.trace_path.empty()) return usage_error("empty --trace path");
    } else if (arg.rfind("--out=", 0) == 0) {
      opt.out_path = std::string(value("--out="));
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    } else {
      return usage_error("unknown flag '" + std::string(arg) + "'");
    }
  }

  if (opt.smoke) {
    // Every workload (or the one named) at tiny size, each in turn.
    int status = 0;
    for (const std::string& name : csca::perf::workload_names()) {
      if (!opt.workload.empty() && name != opt.workload) continue;
      Options one = opt;
      one.workload = name;
      one.trace_path.clear();
      one.out_path.clear();
      const int rc = run_one(one);
      if (rc != 0) status = rc;
    }
    return status;
  }
  if (opt.workload.empty()) return usage_error("--workload is required");
  if (const char* why = refused_build()) {
    std::fprintf(stderr,
                 "csca_perf: refusing a timed run from %s (build type '%s'); "
                 "time an optimized build without sanitizers (the default "
                 "RelWithDebInfo), or use --smoke\n",
                 why, CSCA_PERF_BUILD_TYPE);
    return 2;
  }
  return run_one(opt);
}
