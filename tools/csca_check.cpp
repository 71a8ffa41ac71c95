// Protocol analysis sweep: replay every built-in protocol subject over
// a set of generator graph families under the full schedule portfolio
// (check/schedule_check.h) and report invariant violations, digest
// divergences, and errors. Exits nonzero on any finding.
//
// Usage:
//   csca_check [--smoke] [--subject=NAME] [--family=NAME]
//              [--faults=PLAN] [--churn=PLAN] [--jobs=N] [--shards=K]
//              [--list] [--list-plans] [--help] [-v]
//
//   --smoke          tiny graphs (the ctest gate; seconds, ASan-safe)
//   --subject=NAME   only the named subject (see --list)
//   --family=NAME    only the named graph family
//   --faults=PLAN    run every schedule under the named builtin fault
//                    plan (see --list-plans). Protocol degradation
//                    (wrong oracle answers, unterminated runs, ensure()
//                    failures) is reported as "degraded" and does not
//                    fail the sweep — only invariant violations and
//                    errors do. Each sweep line then reports how many
//                    runs completed and how many fully terminated.
//   --churn=PLAN     compose the named builtin churn plan's liveness
//                    intervals into every run (edge down/up spans,
//                    node leave/join absences). Composable with
//                    --faults; switches to degraded-mode reporting the
//                    same way.
//   --list-plans     print fault and churn plans with one-line
//                    descriptions, run nothing
//   --jobs=N         run (subject, family) sweeps on N worker threads;
//                    output and exit code are identical to --jobs=1
//                    (results merge in submission order)
//   --shards=K       replay subjects on a parallel engine with K shards
//                    instead of the sequential engine
//   --backend=NAME   which parallel engine --shards uses: "shard" (the
//                    conservative default) or "timewarp" (optimistic
//                    rollback + GVT commit). Digests and ledgers are
//                    engine-independent, so the report means the same
//                    thing either way.
//   --list           print subjects and families, run nothing
//   -v               per-(subject, family) digest lines even when clean
//
// A bad flag exits 2 with a named error before the usage text: unknown
// flags, unknown backends and plan names, and --jobs/--shards values
// that are not a whole integer in [1, kMaxWorkers] ("4x" is rejected,
// not read as 4; "1000000" is rejected, not a million threads).
//
// A reported finding names its (subject, family, schedule, seed)
// quadruple; re-running with --subject/--family filters replays it
// exactly (schedules are deterministic given name + seed, and each
// sweep is self-contained, so --jobs never changes what a run sees).
// See docs/checking.md and docs/parallel.md.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "check/subjects.h"
#include "fault/churn_plan.h"
#include "fault/fault_plan.h"
#include "par/run_pool.h"

using namespace csca;

namespace {

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: csca_check [--smoke] [--subject=NAME] "
               "[--family=NAME] [--faults=PLAN] [--churn=PLAN] [--jobs=N] "
               "[--shards=K] [--backend=shard|timewarp] [--list] "
               "[--list-plans] [--help] [-v]\n");
  std::fprintf(out, "fault plans:");
  for (const auto& n : builtin_fault_plan_names()) {
    std::fprintf(out, " %s", n.c_str());
  }
  std::fprintf(out, "\nchurn plans:");
  for (const auto& n : builtin_churn_plan_names()) {
    std::fprintf(out, " %s", n.c_str());
  }
  std::fprintf(out, "\n(--list-plans prints one-line descriptions)\n");
}

int usage() {
  print_usage(stderr);
  return 2;
}

// Names the rejected flag or value, then prints the usage text.
int reject(const char* what, const std::string& value) {
  std::fprintf(stderr, "csca_check: %s \"%s\"\n", what, value.c_str());
  return usage();
}

// Parses a whole decimal integer in [1, kMaxWorkers] (par/run_pool.h);
// "", "4x", "0", "-1" and "1000000" fail.
bool parse_workers(const std::string& text, int* out) {
  const char* end = text.data() + text.size();
  int value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < 1 ||
      value > kMaxWorkers) {
    return false;
  }
  *out = value;
  return true;
}

bool known_name(const std::vector<std::string>& names,
                const std::string& name) {
  return std::ranges::find(names, name) != names.end();
}

int list_plans() {
  std::printf("fault plans:\n");
  for (const auto& n : builtin_fault_plan_names()) {
    std::printf("  %-12s %s\n", n.c_str(),
                builtin_fault_plan_description(n).c_str());
  }
  std::printf("churn plans:\n");
  for (const auto& n : builtin_churn_plan_names()) {
    std::printf("  %-12s %s\n", n.c_str(),
                builtin_churn_plan_description(n).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool list = false;
  bool verbose = false;
  int jobs = 1;
  int shards = 0;
  ParBackend backend = ParBackend::kShard;
  std::string backend_name = "shard";
  std::string only_subject;
  std::string only_family;
  std::string faults_name;
  std::string churn_name;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--list-plans") {
      return list_plans();
    } else if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    } else if (arg == "-v") {
      verbose = true;
    } else if (arg.rfind("--subject=", 0) == 0) {
      only_subject = arg.substr(std::strlen("--subject="));
    } else if (arg.rfind("--family=", 0) == 0) {
      only_family = arg.substr(std::strlen("--family="));
    } else if (arg.rfind("--faults=", 0) == 0) {
      faults_name = arg.substr(std::strlen("--faults="));
    } else if (arg.rfind("--churn=", 0) == 0) {
      churn_name = arg.substr(std::strlen("--churn="));
    } else if (arg.rfind("--jobs=", 0) == 0) {
      const std::string value = arg.substr(std::strlen("--jobs="));
      if (!parse_workers(value, &jobs)) {
        return reject("bad value for --jobs:", value);
      }
    } else if (arg.rfind("--shards=", 0) == 0) {
      const std::string value = arg.substr(std::strlen("--shards="));
      if (!parse_workers(value, &shards)) {
        return reject("bad value for --shards:", value);
      }
    } else if (arg.rfind("--backend=", 0) == 0) {
      backend_name = arg.substr(std::strlen("--backend="));
      if (backend_name == "shard") {
        backend = ParBackend::kShard;
      } else if (backend_name == "timewarp") {
        backend = ParBackend::kTimeWarp;
      } else {
        return reject("unknown backend (expected shard or timewarp):",
                      backend_name);
      }
    } else {
      return reject("unknown flag", arg);
    }
  }
  // Plan names are checked before any family graph is built, so a typo
  // fails at once.
  if (!faults_name.empty() &&
      !known_name(builtin_fault_plan_names(), faults_name)) {
    std::fprintf(stderr, "csca_check: unknown fault plan \"%s\" "
                         "(see --list-plans)\n",
                 faults_name.c_str());
    return 2;
  }
  if (!churn_name.empty() &&
      !known_name(builtin_churn_plan_names(), churn_name)) {
    std::fprintf(stderr, "csca_check: unknown churn plan \"%s\" "
                         "(see --list-plans)\n",
                 churn_name.c_str());
    return 2;
  }

  try {
    const std::vector<CheckSubject> subjects = builtin_subjects();
    const std::vector<GraphFamily> families = builtin_families(smoke);
    std::vector<ScheduleSpec> portfolio = default_portfolio();

    if (list) {
      std::printf("subjects:");
      for (const auto& s : subjects) std::printf(" %s", s.name.c_str());
      std::printf("\nfamilies:");
      for (const auto& f : families) std::printf(" %s", f.name.c_str());
      std::printf("\nschedules:");
      for (const auto& p : portfolio) std::printf(" %s", p.name.c_str());
      std::printf("\nfault plans:");
      for (const auto& n : builtin_fault_plan_names()) {
        std::printf(" %s", n.c_str());
      }
      std::printf("\nchurn plans:");
      for (const auto& n : builtin_churn_plan_names()) {
        std::printf(" %s", n.c_str());
      }
      std::printf("\n");
      return 0;
    }

    if (!faults_name.empty()) {
      for (ScheduleSpec& spec : portfolio) {
        spec.make_faults = [faults_name](const Graph& g) {
          FaultPlan plan = make_builtin_fault_plan(faults_name, g);
          // Named validation errors surface per sweep with the graph
          // they were materialized against.
          plan.validate(g);
          return plan;
        };
      }
    }
    if (!churn_name.empty()) {
      for (ScheduleSpec& spec : portfolio) {
        spec.make_churn = [churn_name](const Graph& g) {
          ChurnPlan churn = make_builtin_churn_plan(churn_name, g);
          churn.validate(g);
          return churn;
        };
      }
    }

    // Materialize the work list up front; each sweep is independent, so
    // the pool runs them in any order while map() hands the reports
    // back in submission order — byte-identical output at every N.
    struct Sweep {
      const CheckSubject* subject;
      const GraphFamily* family;
    };
    std::vector<Sweep> sweeps;
    for (const CheckSubject& subject : subjects) {
      if (!only_subject.empty() && subject.name != only_subject) continue;
      for (const GraphFamily& family : families) {
        if (!only_family.empty() && family.name != only_family) continue;
        sweeps.push_back({&subject, &family});
      }
    }
    if (sweeps.empty()) {
      std::fprintf(stderr, "csca_check: no (subject, family) matched "
                           "the filters\n");
      return 2;
    }

    // csca-analyze: allow(DET-2): harness wall-clock for the reported sweep duration; never feeds simulation state
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<ScheduleCheckReport> reports;
    if (jobs == 1) {
      reports.reserve(sweeps.size());
      for (const Sweep& s : sweeps) {
        reports.push_back(check_subject(*s.subject, s.family->graph,
                                        s.family->name, portfolio, shards,
                                        backend));
      }
    } else {
      RunPool pool(jobs);
      reports = pool.map(sweeps.size(), [&](std::size_t i) {
        const Sweep& s = sweeps[i];
        return check_subject(*s.subject, s.family->graph, s.family->name,
                             portfolio, shards, backend);
      });
    }
    const double wall =
        // csca-analyze: allow(DET-2): harness wall-clock for the reported sweep duration; never feeds simulation state
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    const bool fault_mode = !faults_name.empty() || !churn_name.empty();
    int runs = 0;
    std::vector<CheckFinding> findings;
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
      const Sweep& s = sweeps[i];
      const ScheduleCheckReport& report = reports[i];
      runs += report.runs;
      if (fault_mode) {
        // The point of a fault sweep: which subjects still run to
        // completion, which still terminate everywhere, and how many
        // *runs* degraded. runs_degraded counts each run once; tallying
        // degraded findings here would count one noisy run (many oracle
        // mismatch lines) as several.
        std::printf("%-10s %-8s %s  completed %d/%d, all-finished %d, "
                    "degraded %d\n",
                    s.subject->name.c_str(), s.family->name.c_str(),
                    report.ok() ? "ok " : "FAIL", report.runs_completed,
                    report.runs, report.runs_all_finished,
                    report.runs_degraded);
      } else if (verbose || !report.ok()) {
        std::printf("%-10s %-8s %-3d schedules  %s  %s\n",
                    s.subject->name.c_str(), s.family->name.c_str(),
                    report.runs, report.ok() ? "ok " : "FAIL",
                    report.reference_digest.c_str());
      }
      findings.insert(findings.end(), report.findings.begin(),
                      report.findings.end());
    }

    std::size_t hard_findings = 0;
    for (const CheckFinding& f : findings) {
      const bool hard = f.kind != "degraded";
      if (hard) ++hard_findings;
      // Degraded detail lines only with -v: a fault sweep over a flaky
      // channel produces them by design.
      if (!hard && !verbose) continue;
      std::printf("FINDING [%s] %s on %s under schedule %s (seed %llu): "
                  "%s\n",
                  f.kind.c_str(), f.subject.c_str(), f.graph.c_str(),
                  f.schedule.c_str(),
                  static_cast<unsigned long long>(f.seed),
                  f.detail.c_str());
    }
    std::string engine_note =
        shards > 0
            ? ", " + std::to_string(shards) + " shards (" + backend_name + ")"
            : "";
    if (!faults_name.empty()) engine_note += ", faults=" + faults_name;
    if (!churn_name.empty()) engine_note += ", churn=" + churn_name;
    std::printf("csca_check: %d runs (%zu sweeps x %zu schedules%s), "
                "%zu finding(s) (%zu degraded)%s [%d job(s), %.2fs]\n",
                runs, sweeps.size(), portfolio.size(), engine_note.c_str(),
                findings.size(), findings.size() - hard_findings,
                hard_findings == 0 ? " -- all clean" : "", jobs, wall);
    return hard_findings == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "csca_check: error: %s\n", e.what());
    return 2;
  }
}
