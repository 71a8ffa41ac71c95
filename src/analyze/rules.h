// The rule set of the determinism & cost-accounting analyzer.
//
// Each rule guards one load-bearing repo contract (docs/analysis.md
// maps every rule to the PR that established the contract it protects):
//
//   DET-1  no range-iteration over std::unordered_map/set in
//          simulation-visible code — hash order is
//          implementation-defined, and one loop that feeds message
//          order breaks the ShardEngine/RunPool bit-identity matrix.
//   DET-2  no rand()/std::random_device/wall-clock reads outside the
//          bench-timing allowlist — ambient entropy breaks replay.
//   DET-3  no pointer values as comparator/ordering keys — allocator
//          addresses differ run to run even when everything else is
//          deterministic.
//   DET-4  RNG construction routes through the keyed Rng stream API
//          (util/rng.h); raw std engines outside util/ bypass
//          split()/derive_stream_seed and re-couple sibling streams.
//   COST-1 every send-like call site names an explicit MsgClass, and
//          no send-like signature defaults its billing argument — a
//          silent kAlgorithm default is how wrapper overhead leaks
//          into the wrong side of the paper's ledger split.
//   COST-2 ledger/meter fields (RunStats counters, ControlMeter::
//          billed) are mutated only at their engine accessor sites —
//          scattered writes would unmoor the golden ledgers and the
//          B1–B3 budget invariants from the engines' charging rule.
//   SCALE-1 no per-element heap allocation inside loops in
//          simulation-visible code — a `new`/make_unique/make_shared
//          per node or per event defeats the pooled-arena memory model
//          (sim/process_store.h) that the million-node capacity target
//          (docs/scale.md) rests on. Bounded per-shard/per-run loops
//          are the intended suppression case.
//   SCALE-2 no require/ensure in src/sim, src/par, src/fault or
//          src/check whose message is built with + or std::to_string —
//          require() takes a const std::string&, so such a message is
//          built (and heap-allocated) on every call before the check
//          is tested. A literal `false` condition, the throw site
//          itself, is exempt.
//   SUP-1  (meta) every suppression names a known rule and carries a
//          non-empty reason.
//
// Rules are token-pattern checks over lexer.h output — deliberately
// AST-free; see lexer.h. False positives are expected to be rare and
// are silenced in place with a reasoned annotation (shown here for
// DET-1; any rule id works) on the flagged line or the line directly
// above it:
//
//   // csca-analyze: allow(DET-1): drained through a sorted copy below
#pragma once

#include <string_view>
#include <vector>

#include "analyze/lexer.h"
#include "analyze/report.h"

namespace csca::analyze {

struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

/// All rules, in id order.
const std::vector<RuleInfo>& rule_table();

/// True iff `id` names a rule in rule_table().
bool known_rule(std::string_view id);

/// Per-file input to the rules. The path-derived scope flags are
/// computed by analyzer.cpp from the repo layout; fixture tests set
/// them directly.
struct FileCtx {
  std::string path;  ///< repo-relative, forward slashes
  const std::vector<Token>* code = nullptr;  ///< comment-stripped tokens

  bool sim_visible = false;      ///< DET-1 applies (sim/fault/par/check/
                                 ///< protocol/bench_harness dirs)
  bool bench_timing = false;     ///< DET-2 exempt (bench/ wall-clock)
  bool rng_home = false;         ///< DET-4 exempt (util/ owns raw engines)
  bool ledger_accessor = false;  ///< COST-2 exempt (engine charging sites)
  bool check_first = false;      ///< SCALE-2 applies (sim/par/fault/check
                                 ///< dirs)
};

/// Runs every code rule over the file, appending findings (suppressions
/// are applied later by the analyzer).
void run_rules(const FileCtx& ctx, std::vector<Finding>& out);

/// One parsed `csca-analyze:` directive from a comment token.
struct Suppression {
  std::string rule;
  int line = 0;         ///< line of the comment; covers this line + next
  std::string reason;
  bool malformed = false;  ///< bad syntax, unknown rule, or empty reason
  std::string error;       ///< why, when malformed
};

/// Extracts all suppression directives from a file's token stream
/// (comment tokens only). Malformed directives are returned flagged;
/// the analyzer reports them as SUP-1 findings.
std::vector<Suppression> parse_suppressions(const std::vector<Token>& toks);

}  // namespace csca::analyze
