#include "analyze/rules.h"

#include <algorithm>
#include <array>
#include <set>
#include <string>

namespace csca::analyze {
namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

const Token& at(const std::vector<Token>& t, std::size_t i) {
  static const Token kEnd{TokKind::kPunct, "", 0};
  return i < t.size() ? t[i] : kEnd;
}

template <typename Range>
bool any_of(std::string_view s, const Range& xs) {
  return std::find(std::begin(xs), std::end(xs), s) != std::end(xs);
}
bool any_of(std::string_view s, std::initializer_list<std::string_view> xs) {
  return std::find(xs.begin(), xs.end(), s) != xs.end();
}

// i sits on `<`; returns the index just past the matching `>`, treating
// `>>` as two closes. kNpos when unbalanced (macro soup, `a < b`
// comparisons that never close) — callers skip rather than guess.
std::size_t skip_angles(const std::vector<Token>& t, std::size_t i) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (t[i].punct("<")) {
      ++depth;
    } else if (t[i].punct(">")) {
      if (--depth == 0) return i + 1;
    } else if (t[i].punct(">>")) {
      depth -= 2;
      if (depth <= 0) return i + 1;
    } else if (t[i].punct(";") || t[i].punct("{")) {
      return kNpos;  // ran off the type: this `<` was a comparison
    }
  }
  return kNpos;
}

// i sits on `(`; returns the index of the matching `)`, tracking all
// three bracket kinds. kNpos when unbalanced.
std::size_t find_close_paren(const std::vector<Token>& t, std::size_t i) {
  int paren = 0;
  int bracket = 0;
  int brace = 0;
  for (; i < t.size(); ++i) {
    const std::string_view p =
        t[i].kind == TokKind::kPunct ? t[i].text : std::string_view{};
    if (p == "(") ++paren;
    else if (p == ")" && --paren == 0) return i;
    else if (p == "[") ++bracket;
    else if (p == "]") --bracket;
    else if (p == "{") ++brace;
    else if (p == "}") --brace;
  }
  return kNpos;
}

// Top-level comma count inside a call whose `(` is at open and `)` at
// close; 0 arguments when the parens are empty.
int count_args(const std::vector<Token>& t, std::size_t open,
               std::size_t close) {
  if (close == open + 1) return 0;
  int args = 1;
  int paren = 0;
  int bracket = 0;
  int brace = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    if (t[i].kind != TokKind::kPunct) continue;
    const std::string_view p = t[i].text;
    if (p == "(") ++paren;
    else if (p == ")") --paren;
    else if (p == "[") ++bracket;
    else if (p == "]") --bracket;
    else if (p == "{") ++brace;
    else if (p == "}") --brace;
    else if (p == "," && paren == 0 && bracket == 0 && brace == 0) ++args;
  }
  return args;
}

constexpr std::string_view kUnorderedContainers[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

// ---------------------------------------------------------------- DET-1
// Pass 1 collects every name declared with an unordered-container type
// (variables, members, parameters). Pass 2 flags range-for statements
// whose sequence expression mentions any collected name. Matching on
// "mentions" overapproximates (member access through a local alias
// still hits) — the cheap direction to be wrong in: a rare false
// positive earns an ordered-drain annotation, a false negative would
// silently ship schedule-dependent iteration.
void det1(const FileCtx& ctx, std::vector<Finding>& out) {
  if (!ctx.sim_visible) return;
  const std::vector<Token>& t = *ctx.code;

  std::set<std::string, std::less<>> unordered_names;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdentifier ||
        !any_of(t[i].text, kUnorderedContainers) ||
        !at(t, i + 1).punct("<")) {
      continue;
    }
    std::size_t j = skip_angles(t, i + 1);
    if (j == kNpos) continue;
    // The declared name: the last identifier before the declarator
    // ends. Skips cv/ref/pointer decoration and nested-name tails
    // (`::iterator it`).
    std::string declared;
    for (; j < t.size(); ++j) {
      if (t[j].kind == TokKind::kIdentifier) {
        declared = std::string(t[j].text);
      } else if (!t[j].punct("*") && !t[j].punct("&") &&
                 !t[j].punct("::")) {
        break;
      }
    }
    if (!declared.empty()) unordered_names.insert(declared);
  }
  if (unordered_names.empty()) return;

  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].ident("for") || !t[i + 1].punct("(")) continue;
    const std::size_t close = find_close_paren(t, i + 1);
    if (close == kNpos) continue;
    // The range-for `:` sits at top level inside the for-parens
    // (structured bindings hide theirs inside [...]; `::` is one
    // token, so it cannot be mistaken for one).
    std::size_t colon = kNpos;
    int bracket = 0;
    int brace = 0;
    int paren = 0;
    for (std::size_t j = i + 2; j < close; ++j) {
      if (t[j].kind != TokKind::kPunct) continue;
      const std::string_view p = t[j].text;
      if (p == "[") ++bracket;
      else if (p == "]") --bracket;
      else if (p == "{") ++brace;
      else if (p == "}") --brace;
      else if (p == "(") ++paren;
      else if (p == ")") --paren;
      else if (p == ":" && bracket == 0 && brace == 0 && paren == 0) {
        colon = j;
        break;
      }
    }
    if (colon == kNpos) continue;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (t[j].kind == TokKind::kIdentifier &&
          unordered_names.count(t[j].text) > 0) {
        out.push_back(Finding{
            "DET-1", ctx.path, t[i].line,
            "range-iteration over unordered container '" +
                std::string(t[j].text) +
                "' in simulation-visible code; hash order is not "
                "deterministic — drain through a sorted copy or an "
                "ordered container, or annotate the proof with "
                "csca-analyze: allow(DET-1)"});
        break;
      }
    }
  }
}

// ---------------------------------------------------------------- DET-2
void det2(const FileCtx& ctx, std::vector<Finding>& out) {
  if (ctx.bench_timing) return;
  const std::vector<Token>& t = *ctx.code;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdentifier) continue;
    const std::string_view name = t[i].text;
    const Token& prev = i > 0 ? t[i - 1] : at(t, kNpos);
    const bool member_access = prev.punct(".") || prev.punct("->");
    if ((name == "rand" || name == "srand") && at(t, i + 1).punct("(") &&
        !member_access) {
      out.push_back(Finding{
          "DET-2", ctx.path, t[i].line,
          std::string(name) +
              "() draws from ambient global state; route randomness "
              "through the keyed Rng stream API (util/rng.h)"});
    } else if (name == "random_device") {
      out.push_back(Finding{
          "DET-2", ctx.path, t[i].line,
          "std::random_device is nondeterministic by construction; "
          "derive seeds with derive_stream_seed/Rng::split instead"});
    } else if (any_of(name, {"system_clock", "steady_clock",
                             "high_resolution_clock"}) &&
               at(t, i + 1).punct("::") && at(t, i + 2).ident("now")) {
      out.push_back(Finding{
          "DET-2", ctx.path, t[i].line,
          "wall-clock read (" + std::string(name) +
              "::now) outside the bench-timing allowlist; simulation "
              "logic must use virtual time only"});
    }
  }
}

// ---------------------------------------------------------------- DET-3
// First template argument of an associative container / std::less, as
// a token range; pointer keys end in `*`.
void det3(const FileCtx& ctx, std::vector<Finding>& out) {
  const std::vector<Token>& t = *ctx.code;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdentifier) continue;
    const std::string_view name = t[i].text;
    const bool assoc =
        any_of(name, {"map", "multimap", "set", "multiset"}) ||
        any_of(name, kUnorderedContainers);
    if ((assoc || name == "less") && at(t, i + 1).punct("<")) {
      const std::size_t end = skip_angles(t, i + 1);
      if (end == kNpos) continue;
      // Last token of the first top-level template argument.
      int depth = 0;
      std::size_t last = kNpos;
      for (std::size_t j = i + 2; j + 1 < end; ++j) {
        if (t[j].punct("<")) ++depth;
        else if (t[j].punct(">")) --depth;
        else if (t[j].punct(">>")) depth -= 2;
        else if (t[j].punct(",") && depth == 0) break;
        if (depth == 0) last = j;
        else if (depth < 0) break;
      }
      if (last != kNpos && t[last].punct("*")) {
        // Appended, not chained with +: GCC 12's -Wrestrict misfires on
        // the chained form at -O3.
        std::string message = "'";
        message += name;
        message +=
            "' keyed on a pointer type: addresses vary across runs, so "
            "any order derived from them is nondeterministic — key on a "
            "stable id (NodeId/EdgeId/index) instead";
        out.push_back(
            Finding{"DET-3", ctx.path, t[i].line, std::move(message)});
      }
    }
    if (name == "reinterpret_cast" && at(t, i + 1).punct("<")) {
      const std::size_t end = skip_angles(t, i + 1);
      if (end == kNpos) continue;
      for (std::size_t j = i + 2; j + 1 < end; ++j) {
        if (t[j].kind == TokKind::kIdentifier &&
            (t[j].text == "uintptr_t" || t[j].text == "intptr_t")) {
          out.push_back(Finding{
              "DET-3", ctx.path, t[i].line,
              "pointer value laundered to an integer "
              "(reinterpret_cast<" +
                  std::string(t[j].text) +
                  ">): using addresses as keys or tie-breaks is "
                  "nondeterministic across runs"});
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------- DET-4
void det4(const FileCtx& ctx, std::vector<Finding>& out) {
  if (ctx.rng_home) return;
  const std::vector<Token>& t = *ctx.code;
  for (const Token& tok : t) {
    if (tok.kind == TokKind::kIdentifier &&
        any_of(tok.text,
               {"mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
                "default_random_engine", "ranlux24", "ranlux24_base",
                "ranlux48", "ranlux48_base", "knuth_b"})) {
      out.push_back(Finding{
          "DET-4", ctx.path, tok.line,
          "raw std random engine '" + std::string(tok.text) +
              "' outside util/; construct a keyed stream via Rng::split "
              "or derive_stream_seed so sibling runs stay decorrelated"});
    }
  }
}

// ---------------------------------------------------------------- COST-1
void cost1(const FileCtx& ctx, std::vector<Finding>& out) {
  const std::vector<Token>& t = *ctx.code;
  int paren_depth = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].punct("(")) ++paren_depth;
    else if (t[i].punct(")")) --paren_depth;

    if (t[i].ident("send") && at(t, i + 1).punct("(")) {
      const std::size_t close = find_close_paren(t, i + 1);
      if (close != kNpos && count_args(t, i + 1, close) == 2) {
        out.push_back(Finding{
            "COST-1", ctx.path, t[i].line,
            "send without an explicit MsgClass: two-argument send "
            "call/signature relies on an implicit billing class; name "
            "MsgClass::kAlgorithm or MsgClass::kControl at the site"});
      }
    }
    if (t[i].ident("MsgClass") && paren_depth > 0 &&
        at(t, i + 1).kind == TokKind::kIdentifier &&
        at(t, i + 2).punct("=")) {
      out.push_back(Finding{
          "COST-1", ctx.path, t[i].line,
          "defaulted MsgClass parameter: billing class defaults let "
          "call sites charge the wrong ledger side silently — require "
          "the class explicitly"});
    }
  }
}

// ---------------------------------------------------------------- COST-2
void cost2(const FileCtx& ctx, std::vector<Finding>& out) {
  if (ctx.ledger_accessor) return;
  const std::vector<Token>& t = *ctx.code;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!t[i].punct(".") && !t[i].punct("->")) continue;
    if (t[i + 1].kind != TokKind::kIdentifier ||
        !any_of(t[i + 1].text,
                {"algorithm_messages", "control_messages",
                 "recovery_messages", "algorithm_cost", "control_cost",
                 "recovery_cost", "billed"})) {
      continue;
    }
    if (t[i + 2].kind == TokKind::kPunct &&
        any_of(t[i + 2].text, {"=", "+=", "-=", "*=", "/=", "++", "--"})) {
      out.push_back(Finding{
          "COST-2", ctx.path, t[i + 1].line,
          "ledger/meter field '" + std::string(t[i + 1].text) +
              "' mutated outside the engine accessor sites; all billing "
              "flows through the engines' charging rule (or annotate a "
              "non-ledger carrier struct with csca-analyze: "
              "allow(COST-2))"});
    }
  }
}

// ---------------------------------------------------------------- SCALE-1
// Loop bodies as token ranges: for each `for`/`while` head, the body is
// the `{...}` block after the close-paren, or the single statement up
// to the next top-level `;` when unbraced. A difference array marks
// tokens covered by at least one body, so nested loops flag each
// allocation once. Inside a marked range, a `new` expression or a
// make_unique/make_shared call is a per-element heap allocation: on the
// per-node/per-event paths this runs n (or worse, event-count) times
// and defeats the pooled-arena memory model that the million-node
// capacity target rests on. Per-shard or per-run loops that allocate
// O(k) times are the intended suppression case — the annotation states
// why the trip count is not n.
void scale1(const FileCtx& ctx, std::vector<Finding>& out) {
  if (!ctx.sim_visible) return;
  const std::vector<Token>& t = *ctx.code;

  std::vector<int> delta(t.size() + 1, 0);
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if ((!t[i].ident("for") && !t[i].ident("while")) ||
        !t[i + 1].punct("(")) {
      continue;
    }
    const std::size_t close = find_close_paren(t, i + 1);
    if (close == kNpos) continue;
    const std::size_t begin = close + 1;
    std::size_t end = kNpos;
    if (at(t, begin).punct("{")) {
      int brace = 0;
      for (std::size_t j = begin; j < t.size(); ++j) {
        if (t[j].punct("{")) ++brace;
        else if (t[j].punct("}") && --brace == 0) {
          end = j;
          break;
        }
      }
    } else {
      // Unbraced body: one statement, to the `;` outside all brackets.
      // The `do { } while (cond);` tail lands here with an empty range.
      int paren = 0;
      int bracket = 0;
      int brace = 0;
      for (std::size_t j = begin; j < t.size(); ++j) {
        if (t[j].kind != TokKind::kPunct) continue;
        const std::string_view p = t[j].text;
        if (p == "(") ++paren;
        else if (p == ")") --paren;
        else if (p == "[") ++bracket;
        else if (p == "]") --bracket;
        else if (p == "{") ++brace;
        else if (p == "}") --brace;
        else if (p == ";" && paren == 0 && bracket == 0 && brace == 0) {
          end = j;
          break;
        }
      }
    }
    if (end == kNpos) continue;
    ++delta[begin];
    --delta[end];
  }

  int depth = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    depth += delta[i];
    if (depth <= 0 || t[i].kind != TokKind::kIdentifier) continue;
    const std::string_view name = t[i].text;
    const Token& prev = i > 0 ? t[i - 1] : at(t, kNpos);
    if (name == "new" && !prev.ident("operator")) {
      out.push_back(Finding{
          "SCALE-1", ctx.path, t[i].line,
          "'new' inside a loop in simulation-visible code: per-element "
          "heap allocation defeats the pooled-arena memory model "
          "(sim/process_store.h) — hoist the allocation or reserve up "
          "front, or annotate why the trip count is bounded with "
          "csca-analyze: allow(SCALE-1)"});
    } else if ((name == "make_unique" || name == "make_shared") &&
               at(t, i + 1).punct("<")) {
      // Appended for the same -Wrestrict reason as DET-3's message.
      std::string message = "'";
      message += name;
      message +=
          "' inside a loop in simulation-visible code: per-element heap "
          "allocation defeats the pooled-arena memory model "
          "(sim/process_store.h) — hoist the allocation or pool the "
          "states, or annotate why the trip count is bounded with "
          "csca-analyze: allow(SCALE-1)";
      out.push_back(
          Finding{"SCALE-1", ctx.path, t[i].line, std::move(message)});
    }
  }
}

// ---------------------------------------------------------------- SCALE-2
// require(cond, message) and ensure(cond, message) take the message as
// a const std::string&, so a message built with `+` or std::to_string
// is assembled — heap allocation included — on every call, before the
// condition is even tested. On the per-event and per-send paths of the
// engines, the fault layer and the checker that is a malloc per event.
// A literal `false` condition is exempt: that call is the failure path
// itself, so the message is built only when it is thrown.
void scale2(const FileCtx& ctx, std::vector<Finding>& out) {
  if (!ctx.check_first) return;
  const std::vector<Token>& t = *ctx.code;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if ((!t[i].ident("require") && !t[i].ident("ensure")) ||
        !t[i + 1].punct("(")) {
      continue;
    }
    const Token& prev = i > 0 ? t[i - 1] : at(t, kNpos);
    if (prev.punct(".") || prev.punct("->")) continue;
    const std::size_t close = find_close_paren(t, i + 1);
    if (close == kNpos) continue;
    // The top-level comma that ends the condition.
    std::size_t comma = kNpos;
    int depth = 0;
    for (std::size_t j = i + 2; j < close; ++j) {
      if (t[j].kind != TokKind::kPunct) continue;
      const std::string_view p = t[j].text;
      if (p == "(" || p == "[" || p == "{") ++depth;
      else if (p == ")" || p == "]" || p == "}") --depth;
      else if (p == "," && depth == 0) {
        comma = j;
        break;
      }
    }
    if (comma == kNpos) continue;
    if (comma == i + 3 && t[i + 2].ident("false")) continue;
    for (std::size_t j = comma + 1; j < close; ++j) {
      if (t[j].punct("+") || t[j].ident("to_string")) {
        std::string message(t[i].text);
        message +=
            "() message built with + or std::to_string: the string is "
            "assembled on every call, before the condition is tested — "
            "use require_lit (util/require_lit.h) with a literal, test "
            "first and build the message only on failure, or annotate "
            "why the call is off the per-event path with csca-analyze: "
            "allow(SCALE-2)";
        out.push_back(
            Finding{"SCALE-2", ctx.path, t[i].line, std::move(message)});
        break;
      }
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& rule_table() {
  static const std::vector<RuleInfo> kTable = {
      {"DET-1",
       "no range-iteration over unordered containers in "
       "simulation-visible code"},
      {"DET-2",
       "no rand()/random_device/wall-clock reads outside bench timing"},
      {"DET-3", "no pointer values as comparator or ordering keys"},
      {"DET-4", "RNG construction routes through the keyed Rng API"},
      {"COST-1", "send sites name an explicit MsgClass; no defaults"},
      {"COST-2", "ledger/meter fields mutate only at accessor sites"},
      {"SCALE-1",
       "no per-element heap allocation inside simulation-visible loops"},
      {"SCALE-2",
       "require/ensure messages on engine, fault and checker paths are "
       "not built with + or std::to_string"},
      {"SUP-1", "suppressions name a known rule and carry a reason"},
  };
  return kTable;
}

bool known_rule(std::string_view id) {
  for (const RuleInfo& r : rule_table()) {
    if (r.id == id) return true;
  }
  return false;
}

void run_rules(const FileCtx& ctx, std::vector<Finding>& out) {
  det1(ctx, out);
  det2(ctx, out);
  det3(ctx, out);
  det4(ctx, out);
  cost1(ctx, out);
  cost2(ctx, out);
  scale1(ctx, out);
  scale2(ctx, out);
}

std::vector<Suppression> parse_suppressions(
    const std::vector<Token>& toks) {
  std::vector<Suppression> out;
  constexpr std::string_view kMarker = "csca-analyze:";
  for (const Token& tok : toks) {
    if (tok.kind != TokKind::kComment) continue;
    const std::string_view text = tok.text;
    for (std::size_t pos = text.find(kMarker); pos != std::string_view::npos;
         pos = text.find(kMarker, pos + kMarker.size())) {
      Suppression s;
      s.line = tok.line;
      std::string_view rest = text.substr(pos + kMarker.size());
      while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
      // Only `allow(` makes this a directive; anything else is prose
      // mentioning the marker. Fail-safe: a typo'd directive suppresses
      // nothing, so the finding it meant to silence still fires.
      if (rest.substr(0, 6) != "allow(") continue;
      rest.remove_prefix(6);
      const std::size_t close = rest.find(')');
      if (close == std::string_view::npos) {
        s.malformed = true;
        s.error = "unclosed rule id";
        out.push_back(std::move(s));
        continue;
      }
      s.rule = std::string(rest.substr(0, close));
      rest.remove_prefix(close + 1);
      if (!known_rule(s.rule)) {
        s.malformed = true;
        s.error = "unknown rule id '" + s.rule + "'";
        out.push_back(std::move(s));
        continue;
      }
      if (rest.substr(0, 1) != ":") {
        s.malformed = true;
        s.error = "missing ': reason' after allow(" + s.rule + ")";
        out.push_back(std::move(s));
        continue;
      }
      rest.remove_prefix(1);
      // Reason: up to end of line within the comment text.
      const std::size_t eol = rest.find('\n');
      std::string reason(rest.substr(0, eol));
      // Trim whitespace and a trailing block-comment close.
      const std::size_t star = reason.rfind("*/");
      if (star != std::string::npos) reason.resize(star);
      while (!reason.empty() && (reason.back() == ' ' || reason.back() == '\t'))
        reason.pop_back();
      while (!reason.empty() &&
             (reason.front() == ' ' || reason.front() == '\t'))
        reason.erase(reason.begin());
      if (reason.empty()) {
        s.malformed = true;
        s.error = "suppression for " + s.rule + " carries no reason";
        out.push_back(std::move(s));
        continue;
      }
      s.reason = std::move(reason);
      out.push_back(std::move(s));
    }
  }
  return out;
}

}  // namespace csca::analyze
