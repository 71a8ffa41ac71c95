#include "analyze/analyzer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace csca::analyze {
namespace fs = std::filesystem;

namespace {

bool starts_with(const std::string& s, std::string_view prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    throw std::runtime_error("csca_analyze: cannot read " + p.string());
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

}  // namespace

bool scannable_file(const std::string& path) {
  for (std::string_view ext : {".h", ".hpp", ".cpp", ".cc", ".cxx"}) {
    if (path.size() > ext.size() &&
        path.compare(path.size() - ext.size(), ext.size(), ext) == 0) {
      return true;
    }
  }
  return false;
}

FileCtx classify_path(const std::string& rel_path) {
  FileCtx ctx;
  ctx.path = rel_path;
  // Simulation-visible code: everything whose iteration/choice order
  // can reach message order or a published measurement — the engines,
  // fault layer, parallel harness, checker, every protocol family, and
  // the sweep harness (byte-identical JSON at any --jobs).
  for (std::string_view d :
       {"src/sim/", "src/fault/", "src/par/", "src/check/", "src/conn/",
        "src/control/", "src/core/", "src/mst/", "src/spt/", "src/sync/",
        "src/partition/", "src/graph/", "src/bench_harness/"}) {
    if (starts_with(rel_path, d)) ctx.sim_visible = true;
  }
  // The engines, the fault layer and the checker run their checks per
  // event or per send, so their messages must not be built per call.
  for (std::string_view d :
       {"src/sim/", "src/par/", "src/fault/", "src/check/"}) {
    if (starts_with(rel_path, d)) ctx.check_first = true;
  }
  // bench/ binaries measure wall-clock throughput by design.
  ctx.bench_timing = starts_with(rel_path, "bench/");
  // util/ owns the one raw engine behind the keyed Rng API.
  ctx.rng_home = starts_with(rel_path, "src/util/");
  // The billing sites: the only places RunStats counters and
  // ControlMeter::billed may be written. RunStats::charge and
  // add_ledger (message.h) are the engines' one charging rule; the ARQ
  // state machine (reliable_link.h) meters its control traffic.
  // Everything else goes through these (or carries a reasoned COST-2
  // annotation).
  for (std::string_view f :
       {"src/sim/message.h", "src/fault/reliable_link.h"}) {
    if (rel_path == f) ctx.ledger_accessor = true;
  }
  return ctx;
}

void analyze_source(const FileCtx& scope, const std::string& text,
                    std::vector<Finding>& findings,
                    std::vector<Suppressed>& suppressed) {
  const std::vector<Token> toks = lex(text);
  const std::vector<Token> code = strip_comments(toks);
  FileCtx ctx = scope;
  ctx.code = &code;

  std::vector<Finding> raw;
  run_rules(ctx, raw);

  // (rule, line) -> reason, where a directive on line L covers findings
  // on L (trailing comment) and L + 1 (comment-above style).
  std::map<std::pair<std::string, int>, std::string> allow;
  for (const Suppression& s : parse_suppressions(toks)) {
    if (s.malformed) {
      findings.push_back(
          Finding{"SUP-1", scope.path, s.line,
                  "malformed suppression: " + s.error +
                      " (expected 'csca-analyze: allow(RULE-ID): reason')"});
      continue;
    }
    allow[{s.rule, s.line}] = s.reason;
    allow.insert({{s.rule, s.line + 1}, s.reason});
  }

  for (Finding& f : raw) {
    const auto it = allow.find({f.rule, f.line});
    if (it != allow.end()) {
      suppressed.push_back(
          Suppressed{f.rule, f.path, f.line, it->second});
    } else {
      findings.push_back(std::move(f));
    }
  }
}

Report analyze(const AnalyzerConfig& cfg) {
  Report report;
  report.roots = cfg.roots;

  const fs::path base(cfg.repo_root);
  std::vector<std::string> files;
  for (const std::string& root : cfg.roots) {
    const fs::path p = base / root;
    if (fs::is_regular_file(p)) {
      if (scannable_file(root)) files.push_back(root);
      continue;
    }
    if (!fs::is_directory(p)) {
      throw std::runtime_error("csca_analyze: no such file or directory: " +
                               p.string());
    }
    for (const auto& entry : fs::recursive_directory_iterator(p)) {
      if (!entry.is_regular_file()) continue;
      std::string rel =
          fs::relative(entry.path(), base).generic_string();
      if (scannable_file(rel)) files.push_back(std::move(rel));
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  for (const std::string& rel : files) {
    const std::string text = read_file(base / rel);
    analyze_source(classify_path(rel), text, report.findings,
                   report.suppressed);
    ++report.files_scanned;
  }
  canonicalize(report);
  return report;
}

}  // namespace csca::analyze
