#include "control/restabilize.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "fault/fault_injector.h"
#include "graph/mst.h"
#include "graph/shortest_paths.h"
#include "graph/traversal.h"
#include "mst/ghs.h"
#include "sim/delay.h"
#include "sim/network.h"
#include "spt/recur.h"

namespace csca {

namespace {

constexpr int kProbe = 81001;
constexpr int kProbeAck = 81002;

// Broadcast-echo dirty probe (classic PIF): the root floods kProbe;
// every node, on first receipt, adopts the probe edge as parent and
// forwards on its remaining edges; each non-parent edge owes exactly
// one response (a crossing probe or an ack), and once a node has them
// all it acks its parent. Exactly two messages traverse every edge, so
// the probe's cost is exactly 2 * W(G) — the per-epoch detection term
// of the recovery envelope.
class ProbeProcess final : public Process {
 public:
  ProbeProcess(NodeId self, NodeId root) : self_(self), root_(root) {}

  void on_start(Context& ctx) override {
    if (self_ != root_) return;
    probed_ = true;
    needed_ = static_cast<int>(ctx.incident().size());
    // The probe's class is nominal: the driver runs it under
    // set_recovery_billing(true), which remaps every send to kRecovery.
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{kProbe}, MsgClass::kAlgorithm);
    }
    if (needed_ == 0) finish(ctx);
  }

  void on_message(Context& ctx, const Message& m) override {
    if (done_) return;
    if (m.type == kProbe && !probed_) {
      probed_ = true;
      parent_ = m.edge;
      needed_ = static_cast<int>(ctx.incident().size()) - 1;
      for (EdgeId e : ctx.incident()) {
        if (e != parent_) ctx.send(e, Message{kProbe}, MsgClass::kAlgorithm);
      }
      if (needed_ == 0) finish(ctx);
      return;
    }
    // A crossing probe or an ack — either way, one non-parent edge
    // reported back.
    ++replies_;
    if (probed_ && replies_ == needed_) finish(ctx);
  }

  bool done() const { return done_; }

  std::unique_ptr<Process> save_state() const override {
    return std::make_unique<ProbeProcess>(*this);
  }
  void restore_state(const Process& saved) override {
    *this = dynamic_cast<const ProbeProcess&>(saved);
  }

 private:
  void finish(Context& ctx) {
    done_ = true;
    if (self_ != root_) {
      ctx.send(parent_, Message{kProbeAck}, MsgClass::kAlgorithm);
    }
    ctx.finish();
  }

  NodeId self_;
  NodeId root_;
  EdgeId parent_ = kNoEdge;
  int needed_ = 0;
  int replies_ = 0;
  bool probed_ = false;
  bool done_ = false;
};

// The report's cumulative RunStats is a carrier summing the finished
// slices' already-charged ledgers, not a live ledger.
void merge_stats(RunStats& into, const RunStats& slice) {
  into.add_ledger(slice);
  into.events += slice.events;
  into.completion_time += slice.completion_time;
}

// One protocol slice on the current weights: build the structure from
// scratch on a fresh engine. `recovery` bills every message of the
// slice to MsgClass::kRecovery (re-stabilization); the initial
// construction runs with it off.
struct SliceResult {
  RunStats stats;
  std::vector<char> in_tree;   // kMst
  std::vector<Weight> dist;    // kSpt
};

SliceResult run_slice(const Graph& g, const RestabilizeOptions& opts,
                      const FaultInjector* inj, bool recovery,
                      std::uint64_t slice_seed) {
  SliceResult out;
  ProcessFactory factory;
  if (opts.subject == RestabilizeSubject::kMst) {
    factory = [&g](NodeId v) {
      return std::make_unique<GhsProcess>(g, v, GhsMode::kSerialScan);
    };
  } else {
    const Weight tau = std::max<Weight>(1, g.max_weight());
    const NodeId root = opts.root;
    factory = [&g, root, tau](NodeId v) {
      return std::make_unique<SptRecurProcess>(g, v, root, tau);
    };
  }
  Network net(g, factory, std::make_unique<ExactDelay>(), slice_seed);
  if (inj != nullptr) net.set_faults(inj);
  net.set_recovery_billing(recovery);
  out.stats = net.run(opts.max_time_per_slice);
  if (opts.subject == RestabilizeSubject::kMst) {
    out.in_tree.assign(static_cast<std::size_t>(g.edge_count()), 0);
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      if (net.process_as<GhsProcess>(g.edge(e).u).branch(e)) {
        out.in_tree[static_cast<std::size_t>(e)] = 1;
      }
    }
  } else {
    out.dist.reserve(static_cast<std::size_t>(g.node_count()));
    for (NodeId v = 0; v < g.node_count(); ++v) {
      out.dist.push_back(net.process_as<SptRecurProcess>(v).dist());
    }
  }
  return out;
}

// The epoch's detection sweep, billed entirely to kRecovery.
RunStats run_probe(const Graph& g, const RestabilizeOptions& opts,
                   const FaultInjector* inj, std::uint64_t slice_seed) {
  const NodeId root = opts.root;
  Network net(
      g, [root](NodeId v) { return std::make_unique<ProbeProcess>(v, root); },
      std::make_unique<ExactDelay>(), slice_seed);
  if (inj != nullptr) net.set_faults(inj);
  net.set_recovery_billing(true);
  return net.run(opts.max_time_per_slice);
}

std::int64_t check_structure(const Graph& g, const RestabilizeOptions& opts,
                             const SliceResult& live) {
  return opts.subject == RestabilizeSubject::kMst
             ? mst_cycle_violations(g, live.in_tree)
             : spt_route_violations(g, opts.root, live.dist);
}

}  // namespace

RestabilizeReport run_restabilizing(const Graph& g,
                                    const RestabilizeOptions& opts) {
  require(g.node_count() >= 2, "restabilizing run needs n >= 2");
  require(is_connected(g), "restabilizing run requires a connected graph");
  g.check_node(opts.root);
  opts.churn.validate(g);
  for (const ChurnEpoch& ep : opts.churn.epochs) {
    require(ep.edges_down.empty() && ep.edges_up.empty() &&
                ep.leaves.empty() && ep.joins.empty(),
            "restabilizing runs take weight-redraw churn only; liveness "
            "churn composes through the FaultInjector engine path");
  }

  // Work on a private copy: epochs re-draw its weights in place.
  Graph work = g;
  RestabilizeReport report;

  // Message-rate faults keep their keyed streams per slice; each slice
  // derives its own sub-seed so fates differ across slices the way
  // independent runs would.
  const auto make_injector =
      [&](std::uint64_t slice_seed) -> std::unique_ptr<FaultInjector> {
    if (!opts.faults.active()) return nullptr;
    return std::make_unique<FaultInjector>(opts.faults, work, slice_seed);
  };

  std::uint64_t slice_seed = opts.seed;
  auto inj = make_injector(slice_seed);
  SliceResult live =
      run_slice(work, opts, inj.get(), /*recovery=*/false, slice_seed);
  merge_stats(report.total, live.stats);

  for (std::size_t k = 0; k < opts.churn.epochs.size(); ++k) {
    const ChurnEpoch& ep = opts.churn.epochs[k];
    EpochReport er;
    er.at = ep.at;
    er.changed_edges = apply_churn_weights(opts.churn, k, opts.seed, work);

    slice_seed = derive_stream_seed(opts.seed, 0xE70C + k);
    inj = make_injector(slice_seed);

    // Detection: the dirty probe is recovery traffic even when the
    // structure turns out to still be valid — churn made it necessary.
    const RunStats probe = run_probe(work, opts, inj.get(), slice_seed);
    merge_stats(report.total, probe);
    // csca-analyze: allow(COST-2): epoch report carrier copying a finished ledger
    er.recovery_messages += probe.recovery_messages;
    // csca-analyze: allow(COST-2): epoch report carrier copying a finished ledger
    er.recovery_cost += probe.recovery_cost;

    er.violations = check_structure(work, opts, live);
    if (er.violations > 0) {
      er.restabilized = true;
      ++report.restabilizations;
      const std::uint64_t rs = derive_stream_seed(slice_seed, 0x5AB1);
      auto rinj = make_injector(rs);
      live = run_slice(work, opts, rinj.get(), /*recovery=*/true, rs);
      merge_stats(report.total, live.stats);
      // csca-analyze: allow(COST-2): epoch report carrier copying a finished ledger
      er.recovery_messages += live.stats.recovery_messages;
      // csca-analyze: allow(COST-2): epoch report carrier copying a finished ledger
      er.recovery_cost += live.stats.recovery_cost;
    }
    report.epochs.push_back(er);
  }

  report.final_valid = check_structure(work, opts, live) == 0;
  return report;
}

}  // namespace csca
