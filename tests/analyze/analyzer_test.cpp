// Tests for the static analyzer (src/analyze/): the per-rule fixture
// corpus, suppression semantics, path-scope classification, report
// determinism, and the repo self-scan the `analyze` ctest tier gates
// on.
//
// CSCA_REPO_ROOT and CSCA_ANALYZE_FIXTURES are compile definitions
// (tests/CMakeLists.txt) pointing at the source tree, so the self-scan
// runs against the same files the csca_analyze CLI gate sees.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/analyzer.h"
#include "analyze/report.h"
#include "analyze/rules.h"

namespace csca::analyze {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

std::string fixture(const std::string& name) {
  return read_file(fs::path(CSCA_ANALYZE_FIXTURES) / name);
}

struct ScanResult {
  std::vector<Finding> findings;
  std::vector<Suppressed> suppressed;
};

ScanResult scan(const std::string& fixture_name, FileCtx scope = {}) {
  scope.path = fixture_name;
  ScanResult r;
  analyze_source(scope, fixture(fixture_name), r.findings, r.suppressed);
  return r;
}

using RuleLines = std::vector<std::pair<std::string, int>>;

RuleLines rule_lines(const ScanResult& r) {
  RuleLines out;
  for (const Finding& f : r.findings) out.emplace_back(f.rule, f.line);
  std::sort(out.begin(), out.end());
  return out;
}

FileCtx sim_scope() {
  FileCtx scope;
  scope.sim_visible = true;
  return scope;
}

// ------------------------------------------------------------- DET-1

TEST(AnalyzeRules, Det1PositiveFiresAtTheRangeFor) {
  EXPECT_EQ(rule_lines(scan("det1_pos.cpp", sim_scope())),
            (RuleLines{{"DET-1", 11}}));
}

TEST(AnalyzeRules, Det1SilentOutsideSimVisibleScope) {
  EXPECT_TRUE(scan("det1_pos.cpp").findings.empty());
}

TEST(AnalyzeRules, Det1NegativeOrderedDrainIsClean) {
  EXPECT_TRUE(scan("det1_neg.cpp", sim_scope()).findings.empty());
}

// ------------------------------------------------------------- DET-2

TEST(AnalyzeRules, Det2PositiveFiresOnEachEntropySource) {
  EXPECT_EQ(rule_lines(scan("det2_pos.cpp")),
            (RuleLines{{"DET-2", 7}, {"DET-2", 8}, {"DET-2", 10}}));
}

TEST(AnalyzeRules, Det2SilentInsideBenchTimingAllowlist) {
  FileCtx scope;
  scope.bench_timing = true;
  EXPECT_TRUE(scan("det2_pos.cpp", scope).findings.empty());
}

TEST(AnalyzeRules, Det2NegativeMemberAccessIsClean) {
  EXPECT_TRUE(scan("det2_neg.cpp").findings.empty());
}

// ------------------------------------------------------------- DET-3

TEST(AnalyzeRules, Det3PositiveFiresOnPointerKeysAndLaundering) {
  EXPECT_EQ(rule_lines(scan("det3_pos.cpp")),
            (RuleLines{{"DET-3", 10}, {"DET-3", 11}, {"DET-3", 14}}));
}

TEST(AnalyzeRules, Det3NegativeStableIdKeysAreClean) {
  EXPECT_TRUE(scan("det3_neg.cpp").findings.empty());
}

// ------------------------------------------------------------- DET-4

TEST(AnalyzeRules, Det4PositiveFiresOnRawEngine) {
  EXPECT_EQ(rule_lines(scan("det4_pos.cpp")), (RuleLines{{"DET-4", 5}}));
}

TEST(AnalyzeRules, Det4SilentInsideRngHome) {
  FileCtx scope;
  scope.rng_home = true;
  EXPECT_TRUE(scan("det4_pos.cpp", scope).findings.empty());
}

TEST(AnalyzeRules, Det4NegativeKeyedSeedsAreClean) {
  EXPECT_TRUE(scan("det4_neg.cpp").findings.empty());
}

// ------------------------------------------------------------- COST-1

TEST(AnalyzeRules, Cost1PositiveFiresOnDefaultAndTwoArgCall) {
  EXPECT_EQ(rule_lines(scan("cost1_pos.cpp")),
            (RuleLines{{"COST-1", 8}, {"COST-1", 12}}));
}

TEST(AnalyzeRules, Cost1NegativeExplicitClassesAreClean) {
  EXPECT_TRUE(scan("cost1_neg.cpp").findings.empty());
}

// ------------------------------------------------------------- COST-2

TEST(AnalyzeRules, Cost2PositiveFiresOnEachLedgerWrite) {
  EXPECT_EQ(rule_lines(scan("cost2_pos.cpp")),
            (RuleLines{{"COST-2", 10}, {"COST-2", 11}, {"COST-2", 12}}));
}

TEST(AnalyzeRules, Cost2SilentInsideLedgerAccessorFiles) {
  FileCtx scope;
  scope.ledger_accessor = true;
  EXPECT_TRUE(scan("cost2_pos.cpp", scope).findings.empty());
}

TEST(AnalyzeRules, Cost2NegativeReadsAreClean) {
  EXPECT_TRUE(scan("cost2_neg.cpp").findings.empty());
}

// ------------------------------------------------------------ SCALE-1

TEST(AnalyzeRules, Scale1PositiveFiresOnEachLoopAllocation) {
  EXPECT_EQ(rule_lines(scan("scale1_pos.cpp", sim_scope())),
            (RuleLines{{"SCALE-1", 14}, {"SCALE-1", 18}}));
}

TEST(AnalyzeRules, Scale1SilentOutsideSimVisibleScope) {
  EXPECT_TRUE(scan("scale1_pos.cpp").findings.empty());
}

TEST(AnalyzeRules, Scale1NegativeHoistedAllocationIsClean) {
  EXPECT_TRUE(scan("scale1_neg.cpp", sim_scope()).findings.empty());
}

// ------------------------------------------------------------ SCALE-2

FileCtx check_first_scope() {
  FileCtx scope;
  scope.check_first = true;
  return scope;
}

TEST(AnalyzeRules, Scale2PositiveFiresOnEachBuiltMessage) {
  EXPECT_EQ(rule_lines(scan("scale2_pos.cpp", check_first_scope())),
            (RuleLines{{"SCALE-2", 11}, {"SCALE-2", 12}, {"SCALE-2", 14}}));
}

TEST(AnalyzeRules, Scale2SilentOutsideCheckFirstScope) {
  EXPECT_TRUE(scan("scale2_pos.cpp", sim_scope()).findings.empty());
}

TEST(AnalyzeRules, Scale2NegativeLiteralAndThrowSiteMessagesAreClean) {
  EXPECT_TRUE(scan("scale2_neg.cpp", check_first_scope()).findings.empty());
}

// The rules read code tokens only: entropy names inside comments,
// string literals, and raw strings are not findings.
TEST(AnalyzeRules, CommentsAndStringsAreNotCode) {
  std::vector<Finding> f;
  std::vector<Suppressed> s;
  FileCtx scope;
  scope.path = "inline.cpp";
  analyze_source(scope,
                 "// rand() in a comment\n"
                 "const char* a = \"std::random_device\";\n"
                 "const char* b = R\"(mt19937)\";\n",
                 f, s);
  EXPECT_TRUE(f.empty());
}

// ------------------------------------------------------- suppressions

TEST(AnalyzeSuppress, ReasonedAnnotationAboveTheLineIsHonored) {
  const ScanResult r = scan("suppress_ok.cpp");
  EXPECT_TRUE(r.findings.empty());
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "DET-4");
  EXPECT_EQ(r.suppressed[0].line, 8);
  EXPECT_EQ(r.suppressed[0].reason,
            "frozen legacy generator kept for golden replay");
}

TEST(AnalyzeSuppress, TrailingCommentOnTheFlaggedLineCounts) {
  std::vector<Finding> f;
  std::vector<Suppressed> s;
  FileCtx scope;
  scope.path = "inline.cpp";
  analyze_source(scope,
                 "std::mt19937 gen(1);  "
                 "// csca-analyze: allow(DET-4): pinned legacy stream\n",
                 f, s);
  EXPECT_TRUE(f.empty());
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].rule, "DET-4");
}

// A broken directive becomes a SUP-1 finding AND suppresses nothing:
// the DET-4 hit under each malformed annotation still fires.
TEST(AnalyzeSuppress, MalformedDirectivesAreFindingsAndFailSafe) {
  const ScanResult r = scan("suppress_bad.cpp");
  EXPECT_TRUE(r.suppressed.empty());
  EXPECT_EQ(rule_lines(r),
            (RuleLines{{"DET-4", 9},
                       {"DET-4", 11},
                       {"DET-4", 13},
                       {"SUP-1", 8},
                       {"SUP-1", 10},
                       {"SUP-1", 12}}));
}

// An unrelated prose mention of the marker is not a directive (and not
// a SUP-1 finding either).
TEST(AnalyzeSuppress, ProseMentionOfTheMarkerIsIgnored) {
  std::vector<Finding> f;
  std::vector<Suppressed> s;
  FileCtx scope;
  scope.path = "inline.cpp";
  analyze_source(scope,
                 "// See csca-analyze: rules live in docs/analysis.md\n"
                 "int x = 0;\n",
                 f, s);
  EXPECT_TRUE(f.empty());
  EXPECT_TRUE(s.empty());
}

// ------------------------------------------------------------ scoping

TEST(AnalyzeScope, ClassifyPathMatchesTheRepoLayout) {
  EXPECT_TRUE(classify_path("src/sim/network.cpp").sim_visible);
  EXPECT_TRUE(classify_path("src/fault/reliable_link.h").sim_visible);
  EXPECT_TRUE(classify_path("src/sim/message.h").ledger_accessor);
  EXPECT_TRUE(classify_path("src/fault/reliable_link.h").ledger_accessor);
  EXPECT_FALSE(classify_path("src/fault/reliable_link.cpp").ledger_accessor);
  EXPECT_FALSE(
      classify_path("src/fault/sync_reliable_link.cpp").ledger_accessor);
  EXPECT_FALSE(classify_path("src/sim/engine.h").ledger_accessor);
  // The engines bill through RunStats::charge, not by writing fields.
  EXPECT_FALSE(classify_path("src/sim/network.cpp").ledger_accessor);
  EXPECT_FALSE(classify_path("src/sim/sync_engine.cpp").ledger_accessor);
  EXPECT_FALSE(classify_path("src/par/shard_engine.cpp").ledger_accessor);
  EXPECT_FALSE(classify_path("src/par/timewarp_engine.cpp").ledger_accessor);
  for (const char* hot : {"src/sim/channel.h", "src/par/shard_engine.cpp",
                          "src/fault/reliable_link.h",
                          "src/check/invariants.cpp"}) {
    EXPECT_TRUE(classify_path(hot).check_first) << hot;
  }
  EXPECT_FALSE(classify_path("src/graph/graph.h").check_first);
  EXPECT_FALSE(classify_path("src/conn/flood.cpp").check_first);
  EXPECT_FALSE(classify_path("src/bench_harness/sweep.cpp").check_first);
  EXPECT_TRUE(classify_path("src/util/rng.h").rng_home);
  EXPECT_FALSE(classify_path("src/util/rng.h").sim_visible);
  EXPECT_TRUE(classify_path("bench/perf/bench.cpp").bench_timing);
  const FileCtx tool = classify_path("tools/csca_check.cpp");
  EXPECT_FALSE(tool.sim_visible);
  EXPECT_FALSE(tool.bench_timing);
  EXPECT_FALSE(tool.rng_home);
  EXPECT_FALSE(tool.ledger_accessor);
  EXPECT_FALSE(tool.check_first);
}

TEST(AnalyzeScope, OnlySourceExtensionsAreScanned) {
  EXPECT_TRUE(scannable_file("src/sim/network.cpp"));
  EXPECT_TRUE(scannable_file("src/sim/engine.h"));
  EXPECT_FALSE(scannable_file("docs/analysis.md"));
  EXPECT_FALSE(scannable_file("tools/check.sh"));
  EXPECT_FALSE(scannable_file("CMakeLists.txt"));
}

// ------------------------------------------------------------- report

TEST(AnalyzeReport, TextSummaryStatesTheCountEvenWhenClean) {
  Report r;
  r.files_scanned = 3;
  EXPECT_NE(to_text(r).find("0 findings (0 suppressed) across 3 files"),
            std::string::npos);
}

// Two scans of the tree must produce byte-identical JSON: the analyzer
// polices the repo's bit-identical-runs guarantee, so its own report
// may not depend on directory enumeration order or carry timestamps.
TEST(AnalyzeReport, TwoScansProduceByteIdenticalJson) {
  AnalyzerConfig cfg;
  cfg.repo_root = CSCA_REPO_ROOT;
  cfg.roots = {"src", "tools", "bench"};
  const std::string a = to_json(analyze(cfg));
  const std::string b = to_json(analyze(cfg));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------- self-scan

// The gate the CLI enforces, as a unit test: the repo's scanned roots
// carry zero unsuppressed findings, and every shipped suppression has
// a written reason.
TEST(AnalyzeSelfScan, RepoIsCleanOfUnsuppressedFindings) {
  AnalyzerConfig cfg;
  cfg.repo_root = CSCA_REPO_ROOT;
  cfg.roots = {"src", "tools", "bench"};
  const Report r = analyze(cfg);
  for (const Finding& f : r.findings) {
    ADD_FAILURE() << f.path << ":" << f.line << ": " << f.rule << ": "
                  << f.message;
  }
  EXPECT_GT(r.files_scanned, 100);
  for (const Suppressed& s : r.suppressed) {
    EXPECT_FALSE(s.reason.empty()) << s.path << ":" << s.line;
  }
}

// Seeding one fixture violation into a scanned directory must fail the
// scan and name the rule and file:line — the acceptance check that the
// gate actually bites.
TEST(AnalyzeSelfScan, SeededViolationFailsWithRuleAndLocation) {
  const fs::path tmp = fs::temp_directory_path() / "csca_analyze_seed_test";
  fs::remove_all(tmp);
  fs::create_directories(tmp / "src" / "sim");
  {
    std::ofstream out(tmp / "src" / "sim" / "seeded.cpp", std::ios::binary);
    out << fixture("cost1_pos.cpp");
  }
  AnalyzerConfig cfg;
  cfg.repo_root = tmp.string();
  cfg.roots = {"src"};
  const Report r = analyze(cfg);
  ASSERT_FALSE(r.findings.empty());
  EXPECT_EQ(r.findings.front().rule, "COST-1");
  EXPECT_EQ(r.findings.front().path, "src/sim/seeded.cpp");
  EXPECT_EQ(r.findings.front().line, 8);
  EXPECT_NE(to_text(r).find("src/sim/seeded.cpp:8: COST-1"),
            std::string::npos);
  fs::remove_all(tmp);
}

}  // namespace
}  // namespace csca::analyze
