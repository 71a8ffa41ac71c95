#include "check/schedule_check.h"

#include "check/invariants.h"

namespace csca {

namespace {

int count_finished(const ProcessHost& host, const Graph& g) {
  int n = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (host.finished(v)) ++n;
  }
  return n;
}

}  // namespace

std::optional<FaultInjector> make_injector(const Graph& g,
                                           const ScheduleSpec& spec) {
  if (!spec.make_faults && !spec.make_churn) return std::nullopt;
  const FaultPlan plan =
      spec.make_faults ? spec.make_faults(g) : FaultPlan{};
  std::optional<FaultInjector> inj;
  if (spec.make_churn) {
    inj.emplace(plan, spec.make_churn(g), g, spec.seed);
  } else {
    inj.emplace(plan, g, spec.seed);
  }
  if (!inj->active()) return std::nullopt;
  return inj;
}

std::vector<ScheduleSpec> default_portfolio() {
  std::vector<ScheduleSpec> out;
  out.push_back({"exact", 1, [] { return make_exact_delay(); }, {}, {}});
  out.push_back({"uniform[0,1)#101", 101,
                 [] { return make_uniform_delay(0, 1); }, {}, {}});
  out.push_back({"uniform[0,1)#202", 202,
                 [] { return make_uniform_delay(0, 1); }, {}, {}});
  out.push_back({"uniform[0,0.5)#303", 303,
                 [] { return make_uniform_delay(0, 0.5); }, {}, {}});
  out.push_back({"twopoint(0.5)#404", 404,
                 [] { return make_two_point_delay(0.5); }, {}, {}});
  out.push_back({"twopoint(0.9)#505", 505,
                 [] { return make_two_point_delay(0.9); }, {}, {}});
  out.push_back(
      {"edgefrac(7)", 7, [] { return make_edge_fraction_delay(7); }, {}, {}});
  out.push_back({"edgefrac(99)", 99,
                 [] { return make_edge_fraction_delay(99); }, {}, {}});
  return out;
}

SubjectOutcome run_checked(const Graph& g, const ProcessFactory& factory,
                           const ScheduleSpec& spec,
                           const DigestFn& digest) {
  SubjectOutcome out;
  try {
    Network net(g, factory, spec.make_delay(), spec.seed);
    DefaultInvariantChecker checker;
    const std::optional<FaultInjector> inj = make_injector(g, spec);
    if (inj) {
      net.set_faults(&*inj);
      checker.set_faults(&*inj);
    }
    net.set_observer(&checker);
    net.run();
    checker.check_final(net);
    net.set_observer(nullptr);
    out.violations = checker.violations();
    if (checker.suppressed() > 0) {
      out.violations.push_back(
          "... " + std::to_string(checker.suppressed()) +
          " further violation(s) suppressed");
    }
    out.stats = net.stats();
    out.finished_nodes = count_finished(net, g);
    // Under active faults, oracle mismatches the digest reports are
    // expected degradation, not simulation bugs: route them aside.
    out.digest = digest(net, inj ? out.degraded : out.violations);
  } catch (const std::exception& e) {
    out.failed = true;
    out.error = e.what();
  }
  return out;
}

SubjectOutcome run_parallel(const Graph& g, const ProcessFactory& factory,
                            const ScheduleSpec& spec, int shards,
                            ParBackend backend, const DigestFn& digest) {
  SubjectOutcome out;
  try {
    const std::optional<FaultInjector> inj = make_injector(g, spec);
    const auto run = [&](auto& eng) {
      if (inj) eng.set_faults(&*inj);
      out.stats = eng.run();
      out.finished_nodes = count_finished(eng, g);
      out.digest = digest(eng, inj ? out.degraded : out.violations);
    };
    if (backend == ParBackend::kTimeWarp) {
      TimeWarpEngine eng(g, factory, spec.make_delay(), spec.seed,
                         TimeWarpEngine::Options{shards, 0, 256, {}});
      run(eng);
    } else {
      ShardEngine eng(g, factory, spec.make_delay(), spec.seed,
                      ShardEngine::Options{shards, 0, {}});
      run(eng);
    }
  } catch (const std::exception& e) {
    out.failed = true;
    out.error = e.what();
  }
  return out;
}

ScheduleCheckReport check_subject(
    const CheckSubject& subject, const Graph& g,
    const std::string& graph_name,
    std::span<const ScheduleSpec> portfolio, int shards, ParBackend backend) {
  require(!portfolio.empty(), "schedule portfolio must not be empty");
  require(shards == 0 || subject.run_par != nullptr,
          "subject has no parallel runner");
  ScheduleCheckReport report;
  const auto finding = [&](const ScheduleSpec& spec, std::string kind,
                           std::string detail) {
    report.findings.push_back(CheckFinding{subject.name, graph_name,
                                           spec.name, spec.seed,
                                           std::move(kind),
                                           std::move(detail)});
  };
  bool have_reference = false;
  for (const ScheduleSpec& spec : portfolio) {
    const bool faulty =
        (spec.make_faults && spec.make_faults(g).active()) ||
        (spec.make_churn && spec.make_churn(g).active());
    const SubjectOutcome outcome =
        shards > 0 ? subject.run_par(g, spec, shards, backend)
                   : subject.run(g, spec);
    ++report.runs;
    if (outcome.failed) {
      // A protocol ensure() tripping under injected faults is expected
      // degradation (that is what ARQ is for); without faults it is a
      // hard error.
      finding(spec, faulty ? "degraded" : "error",
              "run failed: " + outcome.error);
      if (faulty) ++report.runs_degraded;
      continue;
    }
    ++report.runs_completed;
    if (outcome.finished_nodes == g.node_count()) {
      ++report.runs_all_finished;
    }
    for (const std::string& v : outcome.violations) {
      finding(spec, "invariant", v);
    }
    for (const std::string& d : outcome.degraded) {
      finding(spec, "degraded", d);
    }
    if (!outcome.degraded.empty()) ++report.runs_degraded;
    if (faulty) {
      // Which sends a keyed fault stream hits depends on the delay
      // schedule, so faulted digests legitimately differ per schedule:
      // no reference, no divergence findings.
      continue;
    }
    if (!have_reference) {
      // First schedule that completed: its digest is the reference.
      have_reference = true;
      report.reference_schedule = spec.name;
      report.reference_digest = outcome.digest;
    } else if (outcome.digest != report.reference_digest) {
      finding(spec, "divergence",
              "digest \"" + outcome.digest + "\" differs from " +
                  report.reference_schedule + "'s \"" +
                  report.reference_digest + "\"");
    }
  }
  return report;
}

}  // namespace csca
