#include "sync/synchronizer.h"

#include <algorithm>
#include <bit>
#include <map>
#include <queue>
#include <set>

#include "graph/shortest_paths.h"
#include "graph/traversal.h"
#include "sync/gamma_partition.h"

namespace csca {

Graph normalized_copy(const Graph& g) {
  std::vector<Edge> edges = g.edges();
  for (Edge& e : edges) {
    e.w = static_cast<Weight>(std::bit_ceil(static_cast<std::uint64_t>(e.w)));
  }
  return Graph(g.node_count(), std::move(edges));
}

bool is_normalized(const Graph& g) {
  for (const Edge& e : g.edges()) {
    if ((e.w & (e.w - 1)) != 0) return false;
  }
  return true;
}

// ------------------------------------------------------------ shared data
struct SynchronizedNetwork::Shared {
  const Graph* g = nullptr;
  SynchronizerKind kind = SynchronizerKind::kAlpha;
  std::int64_t max_pulse = 0;

  // beta: parent/children of the coordination tree (an SPT from node 0).
  std::vector<EdgeId> beta_parent;
  std::vector<std::vector<EdgeId>> beta_children;
  NodeId beta_root = 0;

  // gamma_w: one [Awe85a] partition per weight level 2^j present in g.
  std::vector<int> level_exp;                 // sorted distinct exponents j
  std::vector<GammaPartition> level_partition;  // parallel to level_exp

  int level_index(Weight w) const {
    const int j = std::countr_zero(static_cast<std::uint64_t>(w));
    const auto it =
        std::find(level_exp.begin(), level_exp.end(), j);
    ensure(it != level_exp.end(), "edge weight has no registered level");
    return static_cast<int>(it - level_exp.begin());
  }
};

namespace {

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

// Minimum over a vector of monotone counters (kNever when empty -> the
// caller treats the other terms as binding).
std::int64_t min_counter(const std::vector<std::int64_t>& xs) {
  std::int64_t m = kNever;
  for (std::int64_t x : xs) m = std::min(m, x);
  return m;
}

// -------------------------------------------------------------- host base
class HostBase : public Process {
 public:
  HostBase(const Graph& g, NodeId self, std::unique_ptr<SyncProcess> sp,
           const SynchronizedNetwork::Shared& sh)
      : g_(&g), self_(self), hosted_(std::move(sp)), shared_(&sh) {}

  void on_start(Context& ctx) final {
    execute_pulse(ctx, 0);
    try_advance(ctx);
  }

  void on_message(Context& ctx, const Message& m) final {
    switch (m.type) {
      case kWrapped: {
        // Acknowledge on physical arrival (safety detection, §4.1) and
        // buffer until the weighted synchronous arrival pulse.
        ctx.send(m.edge, Message{kAck}, MsgClass::kControl);
        Message inner{static_cast<int>(m.at(1))};
        inner.data.assign(m.data.begin() + 2, m.data.end());
        inner.from = m.from;
        inner.edge = m.edge;
        const std::int64_t arrival = m.at(0) + g_->weight(m.edge);
        buffer_.push(Buffered{arrival, buffer_seq_++, std::move(inner)});
        try_advance(ctx);
        return;
      }
      case kAck: {
        on_ack(ctx, m.edge);
        return;
      }
      default:
        on_control(ctx, m);
    }
  }

  SyncProcess& hosted() { return *hosted_; }
  std::int64_t pulses_executed() const { return cur_pulse_; }
  bool hosted_finished() const { return hosted_finished_; }

  // Optimistic-engine snapshots: every member is a plain value except
  // the hosted protocol, which is deep-copied through
  // SyncProcess::clone_state. The concrete hosts' save_state/
  // restore_state overrides ride on these.
  HostBase(const HostBase& o)
      : g_(o.g_),
        self_(o.self_),
        hosted_(clone_hosted(o)),
        shared_(o.shared_),
        cur_pulse_(o.cur_pulse_),
        advancing_(o.advancing_),
        hosted_finished_(o.hosted_finished_),
        buffer_(o.buffer_),
        buffer_seq_(o.buffer_seq_),
        wakeups_(o.wakeups_) {}

  HostBase& operator=(const HostBase& o) {
    if (this == &o) return *this;
    g_ = o.g_;
    self_ = o.self_;
    hosted_ = clone_hosted(o);
    shared_ = o.shared_;
    cur_pulse_ = o.cur_pulse_;
    advancing_ = o.advancing_;
    hosted_finished_ = o.hosted_finished_;
    buffer_ = o.buffer_;
    buffer_seq_ = o.buffer_seq_;
    wakeups_ = o.wakeups_;
    return *this;
  }

 protected:
  enum BaseMsg { kWrapped = 0, kAck = 1 };

  // Strategy hooks.
  virtual void after_pulse(Context& ctx, std::int64_t p) = 0;
  virtual bool can_execute(std::int64_t p) const = 0;
  /// Next pulse this strategy must execute after cur (kNever if none).
  virtual std::int64_t next_scheduled_pulse(std::int64_t cur) const = 0;
  virtual void on_control(Context& ctx, const Message& m) = 0;
  virtual void on_send_counted(EdgeId e) = 0;
  virtual void on_ack(Context& ctx, EdgeId e) = 0;

  const Graph& graph() const { return *g_; }
  NodeId self() const { return self_; }
  std::int64_t cur_pulse() const { return cur_pulse_; }
  const SynchronizedNetwork::Shared& shared() const { return *shared_; }

  /// Neighbor slot of an incident edge (index into graph().incident()).
  std::size_t edge_slot(EdgeId e) const {
    const auto edges = g_->incident(self_);
    const auto it = std::find(edges.begin(), edges.end(), e);
    ensure(it != edges.end(), "edge is not incident to this node");
    return static_cast<std::size_t>(it - edges.begin());
  }

  void try_advance(Context& ctx) {
    if (advancing_) return;  // avoid re-entrant double execution
    advancing_ = true;
    while (true) {
      std::int64_t p = next_scheduled_pulse(cur_pulse_);
      if (!buffer_.empty()) p = std::min(p, buffer_.top().arrival);
      const auto wake = wakeups_.upper_bound(cur_pulse_);
      if (wake != wakeups_.end()) p = std::min(p, *wake);
      if (p == kNever || p > shared_->max_pulse || !can_execute(p)) break;
      execute_pulse(ctx, p);
    }
    advancing_ = false;
  }

 private:
  struct Buffered {
    std::int64_t arrival;
    std::uint64_t seq;
    Message msg;
    bool operator>(const Buffered& o) const {
      return std::tie(arrival, seq) > std::tie(o.arrival, o.seq);
    }
  };

  class HostCtx final : public SyncContext {
   public:
    HostCtx(HostBase& host, Context& net) : host_(&host), net_(&net) {}
    NodeId self() const override { return host_->self_; }
    const Graph& graph() const override { return *host_->g_; }
    std::int64_t pulse() const override { return host_->cur_pulse_; }
    void send(EdgeId e, Message m, MsgClass cls) override {
      host_->sync_send(*net_, e, std::move(m), cls);
    }
    void schedule_wakeup(std::int64_t at_pulse) override {
      require(at_pulse > host_->cur_pulse_,
              "wakeup must be scheduled strictly ahead");
      host_->wakeups_.insert(at_pulse);
    }
    void finish() override { host_->hosted_finished_ = true; }

   private:
    HostBase* host_;
    Context* net_;
  };

  void sync_send(Context& ctx, EdgeId e, Message m, MsgClass cls) {
    const Weight w = g_->weight(e);
    if (shared_->kind == SynchronizerKind::kGammaW) {
      require(cur_pulse_ % w == 0,
              "gamma_w hosts in-synch protocols only: sends on e must "
              "happen at pulses divisible by w(e)");
    }
    Message wrapped{kWrapped};
    wrapped.data.reserve(m.data.size() + 2);
    wrapped.data.push_back(cur_pulse_);
    wrapped.data.push_back(m.type);
    wrapped.data.insert(wrapped.data.end(), m.data.begin(), m.data.end());
    // The hosted protocol's class carries through the wrapper: hosted
    // kControl overhead (e.g. a pulse-domain ARQ layer) stays control
    // traffic on the asynchronous ledger too.
    ctx.send(e, std::move(wrapped), cls);
    on_send_counted(e);
  }

  void execute_pulse(Context& ctx, std::int64_t p) {
    ensure(p == 0 || p > cur_pulse_, "pulses must advance");
    cur_pulse_ = p;
    HostCtx hctx(*this, ctx);
    if (p == 0) {
      hosted_->on_start(hctx);
    } else {
      while (!buffer_.empty() && buffer_.top().arrival <= p) {
        ensure(buffer_.top().arrival == p,
               "a buffered message missed its arrival pulse");
        Message msg = buffer_.top().msg;
        buffer_.pop();
        hosted_->on_message(hctx, msg);
      }
      const auto wake = wakeups_.find(p);
      if (wake != wakeups_.end()) {
        wakeups_.erase(wake);
        hosted_->on_wakeup(hctx);
      }
    }
    after_pulse(ctx, p);
  }

  static std::unique_ptr<SyncProcess> clone_hosted(const HostBase& o) {
    auto p = o.hosted_->clone_state();
    require(p != nullptr,
            "hosted protocol does not implement clone_state, so its host "
            "cannot be snapshotted for optimistic execution");
    return p;
  }

  const Graph* g_;
  NodeId self_;
  std::unique_ptr<SyncProcess> hosted_;
  const SynchronizedNetwork::Shared* shared_;

  std::int64_t cur_pulse_ = 0;
  bool advancing_ = false;
  bool hosted_finished_ = false;
  std::priority_queue<Buffered, std::vector<Buffered>, std::greater<>>
      buffer_;
  std::uint64_t buffer_seq_ = 0;
  std::set<std::int64_t> wakeups_;
};

// ----------------------------------------------------------- alpha host
class AlphaHost final : public HostBase {
 public:
  AlphaHost(const Graph& g, NodeId self, std::unique_ptr<SyncProcess> sp,
            const SynchronizedNetwork::Shared& sh)
      : HostBase(g, self, std::move(sp), sh),
        neighbor_safe_(static_cast<std::size_t>(g.degree(self)), -1) {}

  std::unique_ptr<Process> save_state() const override {
    return std::make_unique<AlphaHost>(*this);
  }
  void restore_state(const Process& saved) override {
    *this = dynamic_cast<const AlphaHost&>(saved);
  }

 protected:
  enum Msg { kSafe = 10 };

  void after_pulse(Context& ctx, std::int64_t p) override {
    executed_ = p;
    maybe_announce(ctx);
  }

  bool can_execute(std::int64_t p) const override {
    return min_counter(neighbor_safe_) >= p - 1;
  }

  std::int64_t next_scheduled_pulse(std::int64_t cur) const override {
    // alpha must emit SAFE for every pulse: no skipping.
    return cur + 1;
  }

  void on_send_counted(EdgeId) override { ++unacked_; }

  void on_ack(Context& ctx, EdgeId) override {
    ensure(--unacked_ >= 0, "ack without a matching send");
    maybe_announce(ctx);
  }

  void on_control(Context& ctx, const Message& m) override {
    ensure(m.type == kSafe, "alpha host: unexpected control message");
    auto& slot = neighbor_safe_[edge_slot(m.edge)];
    slot = std::max(slot, m.at(0));
    try_advance(ctx);
  }

 private:
  void maybe_announce(Context& ctx) {
    if (unacked_ > 0 || announced_ >= executed_) return;
    announced_ = executed_;
    for (EdgeId e : graph().incident(self())) {
      ctx.send(e, Message{kSafe, {announced_}}, MsgClass::kControl);
    }
  }

  std::vector<std::int64_t> neighbor_safe_;
  std::int64_t executed_ = -1;
  std::int64_t announced_ = -1;
  int unacked_ = 0;
};

// ------------------------------------------------------------ beta host
class BetaHost final : public HostBase {
 public:
  BetaHost(const Graph& g, NodeId self, std::unique_ptr<SyncProcess> sp,
           const SynchronizedNetwork::Shared& sh)
      : HostBase(g, self, std::move(sp), sh) {
    parent_ = sh.beta_parent[static_cast<std::size_t>(self)];
    children_ = sh.beta_children[static_cast<std::size_t>(self)];
    child_done_.assign(children_.size(), -1);
    is_root_ = self == sh.beta_root;
  }

  std::unique_ptr<Process> save_state() const override {
    return std::make_unique<BetaHost>(*this);
  }
  void restore_state(const Process& saved) override {
    *this = dynamic_cast<const BetaHost&>(saved);
  }

 protected:
  enum Msg { kDone = 10, kGo = 11 };

  void after_pulse(Context& ctx, std::int64_t p) override {
    executed_ = p;
    if (unacked_ == 0) self_safe_ = p;
    try_report(ctx);
  }

  bool can_execute(std::int64_t p) const override { return go_ >= p; }

  std::int64_t next_scheduled_pulse(std::int64_t cur) const override {
    return cur + 1;
  }

  void on_send_counted(EdgeId) override { ++unacked_; }

  void on_ack(Context& ctx, EdgeId) override {
    ensure(--unacked_ >= 0, "ack without a matching send");
    if (unacked_ == 0) {
      self_safe_ = executed_;
      try_report(ctx);
    }
  }

  void on_control(Context& ctx, const Message& m) override {
    switch (m.type) {
      case kDone: {
        const std::size_t slot = child_slot(m.edge);
        child_done_[slot] = std::max(child_done_[slot], m.at(0));
        try_report(ctx);
        return;
      }
      case kGo: {
        go_ = std::max(go_, m.at(0));
        for (EdgeId e : children_) {
          ctx.send(e, Message{kGo, {go_}}, MsgClass::kControl);
        }
        try_advance(ctx);
        return;
      }
    }
    ensure(false, "beta host: unexpected control message");
  }

 private:
  std::size_t child_slot(EdgeId e) const {
    const auto it = std::find(children_.begin(), children_.end(), e);
    ensure(it != children_.end(), "kDone arrived on a non-child edge");
    return static_cast<std::size_t>(it - children_.begin());
  }

  void try_report(Context& ctx) {
    const std::int64_t done =
        std::min(self_safe_, min_counter(child_done_));
    if (done <= reported_) return;
    reported_ = done;
    if (is_root_) {
      go_ = std::max(go_, done + 1);
      for (EdgeId e : children_) {
        ctx.send(e, Message{kGo, {go_}}, MsgClass::kControl);
      }
      try_advance(ctx);
    } else {
      ctx.send(parent_, Message{kDone, {done}}, MsgClass::kControl);
    }
  }

  bool is_root_ = false;
  EdgeId parent_ = kNoEdge;
  std::vector<EdgeId> children_;
  std::vector<std::int64_t> child_done_;
  std::int64_t executed_ = -1;
  std::int64_t self_safe_ = -1;
  std::int64_t reported_ = -1;
  std::int64_t go_ = 0;
  int unacked_ = 0;
};

// --------------------------------------------------------- gamma_w host
class GammaWHost final : public HostBase {
 public:
  GammaWHost(const Graph& g, NodeId self, std::unique_ptr<SyncProcess> sp,
             const SynchronizedNetwork::Shared& sh)
      : HostBase(g, self, std::move(sp), sh) {
    levels_.resize(sh.level_exp.size());
    for (std::size_t i = 0; i < sh.level_exp.size(); ++i) {
      Level& lvl = levels_[i];
      lvl.j = sh.level_exp[i];
      const GammaPartition& part = sh.level_partition[i];
      lvl.active = part.covered(self);
      if (!lvl.active) continue;
      lvl.leader =
          part.leaders[static_cast<std::size_t>(
              part.cluster_of[static_cast<std::size_t>(self)])] == self;
      lvl.parent = part.parent_edge[static_cast<std::size_t>(self)];
      lvl.children = part.children_edges[static_cast<std::size_t>(self)];
      lvl.preferred = part.preferred[static_cast<std::size_t>(self)];
      lvl.child_safe.assign(lvl.children.size(), -1);
      lvl.child_ready.assign(lvl.children.size(), -1);
      lvl.pref_safe.assign(lvl.preferred.size(), -1);
    }
  }

  std::unique_ptr<Process> save_state() const override {
    return std::make_unique<GammaWHost>(*this);
  }
  void restore_state(const Process& saved) override {
    *this = dynamic_cast<const GammaWHost&>(saved);
  }

 protected:
  enum Msg { kSafe = 10, kCSafe = 11, kPSafe = 12, kReady = 13, kGo = 14 };

  void after_pulse(Context& ctx, std::int64_t p) override {
    for (Level& lvl : levels_) {
      if (!lvl.active || p % (Weight{1} << lvl.j) != 0) continue;
      lvl.exec_super = p >> lvl.j;
      if (lvl.unacked == 0) {
        lvl.safe = lvl.exec_super;
        try_report_safe(ctx, lvl);
      }
    }
  }

  bool can_execute(std::int64_t p) const override {
    for (const Level& lvl : levels_) {
      if (!lvl.active || p % (Weight{1} << lvl.j) != 0) continue;
      if (lvl.go < (p >> lvl.j)) return false;
    }
    return true;
  }

  std::int64_t next_scheduled_pulse(std::int64_t cur) const override {
    std::int64_t next = kNever;
    for (const Level& lvl : levels_) {
      if (!lvl.active) continue;
      const std::int64_t step = std::int64_t{1} << lvl.j;
      next = std::min(next, (cur / step + 1) * step);
    }
    return next;
  }

  void on_send_counted(EdgeId e) override {
    ++level_of(e).unacked;
  }

  void on_ack(Context& ctx, EdgeId e) override {
    Level& lvl = level_of(e);
    ensure(--lvl.unacked >= 0, "ack without a matching send");
    if (lvl.unacked == 0) {
      lvl.safe = lvl.exec_super;
      try_report_safe(ctx, lvl);
    }
  }

  void on_control(Context& ctx, const Message& m) override {
    Level& lvl = levels_[static_cast<std::size_t>(level_slot(
        static_cast<int>(m.at(0))))];
    const std::int64_t s = m.at(1);
    switch (m.type) {
      case kSafe: {
        auto& c = lvl.child_safe[slot_of(lvl.children, m.edge)];
        c = std::max(c, s);
        try_report_safe(ctx, lvl);
        return;
      }
      case kCSafe: {
        broadcast(ctx, lvl, kCSafe, s);
        handle_cluster_safe(ctx, lvl, s);
        return;
      }
      case kPSafe: {
        auto& c = lvl.pref_safe[slot_of(lvl.preferred, m.edge)];
        c = std::max(c, s);
        try_ready(ctx, lvl);
        return;
      }
      case kReady: {
        auto& c = lvl.child_ready[slot_of(lvl.children, m.edge)];
        c = std::max(c, s);
        try_ready(ctx, lvl);
        return;
      }
      case kGo: {
        lvl.go = std::max(lvl.go, s);
        broadcast(ctx, lvl, kGo, lvl.go);
        try_advance(ctx);
        return;
      }
    }
    ensure(false, "gamma_w host: unexpected control message");
  }

 private:
  struct Level {
    int j = 0;
    bool active = false;
    bool leader = false;
    EdgeId parent = kNoEdge;
    std::vector<EdgeId> children;
    std::vector<EdgeId> preferred;

    int unacked = 0;
    std::int64_t exec_super = 0;  // super-pulse last executed
    std::int64_t safe = -1;       // self safe through this super-pulse
    std::vector<std::int64_t> child_safe;
    std::int64_t reported_safe = -1;
    std::int64_t cluster_safe = -1;
    std::vector<std::int64_t> pref_safe;
    std::vector<std::int64_t> child_ready;
    std::int64_t reported_ready = -1;
    std::int64_t go = 0;  // pulses up to go * 2^j are cleared
  };

  int level_slot(int j) const {
    for (std::size_t i = 0; i < levels_.size(); ++i) {
      if (levels_[i].j == j) return static_cast<int>(i);
    }
    ensure(false, "control message for an unknown level");
    return 0;
  }

  Level& level_of(EdgeId e) {
    return levels_[static_cast<std::size_t>(
        shared().level_index(graph().weight(e)))];
  }

  static std::size_t slot_of(const std::vector<EdgeId>& edges, EdgeId e) {
    const auto it = std::find(edges.begin(), edges.end(), e);
    ensure(it != edges.end(), "message arrived on an unexpected edge");
    return static_cast<std::size_t>(it - edges.begin());
  }

  void broadcast(Context& ctx, const Level& lvl, int type,
                 std::int64_t s) {
    for (EdgeId e : lvl.children) {
      ctx.send(e, Message{type, {lvl.j, s}}, MsgClass::kControl);
    }
  }

  void try_report_safe(Context& ctx, Level& lvl) {
    if (!lvl.active) return;
    const std::int64_t s =
        std::min(lvl.safe, min_counter(lvl.child_safe));
    if (s <= lvl.reported_safe) return;
    lvl.reported_safe = s;
    if (lvl.leader) {
      broadcast(ctx, lvl, kCSafe, s);
      handle_cluster_safe(ctx, lvl, s);
    } else {
      ctx.send(lvl.parent, Message{kSafe, {lvl.j, s}},
               MsgClass::kControl);
    }
  }

  void handle_cluster_safe(Context& ctx, Level& lvl, std::int64_t s) {
    if (s <= lvl.cluster_safe) return;
    lvl.cluster_safe = s;
    for (EdgeId e : lvl.preferred) {
      ctx.send(e, Message{kPSafe, {lvl.j, s}}, MsgClass::kControl);
    }
    try_ready(ctx, lvl);
  }

  void try_ready(Context& ctx, Level& lvl) {
    const std::int64_t s =
        std::min({lvl.cluster_safe, min_counter(lvl.pref_safe),
                  min_counter(lvl.child_ready)});
    if (s <= lvl.reported_ready) return;
    lvl.reported_ready = s;
    if (lvl.leader) {
      lvl.go = std::max(lvl.go, s + 1);
      broadcast(ctx, lvl, kGo, lvl.go);
      try_advance(ctx);
    } else {
      ctx.send(lvl.parent, Message{kReady, {lvl.j, s}},
               MsgClass::kControl);
    }
  }

  std::vector<Level> levels_;
};

}  // namespace

// ---------------------------------------------------------------- driver
SynchronizedNetwork::SynchronizedNetwork(
    const Graph& g, const SyncFactory& factory, SynchronizerKind kind,
    int k, std::int64_t max_pulse, std::unique_ptr<DelayModel> delay,
    std::uint64_t seed)
    : shared_(std::make_shared<Shared>()) {
  require(max_pulse >= 0, "max_pulse must be non-negative");
  shared_->g = &g;
  shared_->kind = kind;
  shared_->max_pulse = max_pulse;

  if (kind == SynchronizerKind::kBeta) {
    require(is_connected(g), "beta synchronizer needs a connected graph");
    const auto tree = dijkstra(g, 0).tree(g);
    shared_->beta_root = 0;
    shared_->beta_parent.assign(
        static_cast<std::size_t>(g.node_count()), kNoEdge);
    shared_->beta_children.assign(
        static_cast<std::size_t>(g.node_count()), {});
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (v == 0) continue;
      const EdgeId pe = tree.parent_edge(v);
      shared_->beta_parent[static_cast<std::size_t>(v)] = pe;
      shared_->beta_children[static_cast<std::size_t>(g.other(pe, v))]
          .push_back(pe);
    }
  }

  if (kind == SynchronizerKind::kGammaW) {
    require(is_normalized(g),
            "gamma_w requires a normalized network (Lemma 4.5); apply "
            "normalized_copy first");
    require(k >= 2, "gamma partition parameter must be >= 2");
    std::map<int, std::vector<char>> level_masks;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const int j = std::countr_zero(
          static_cast<std::uint64_t>(g.weight(e)));
      auto [it, inserted] = level_masks.try_emplace(
          j, std::vector<char>(static_cast<std::size_t>(g.edge_count()),
                               0));
      it->second[static_cast<std::size_t>(e)] = 1;
    }
    for (const auto& [j, mask] : level_masks) {
      shared_->level_exp.push_back(j);
      shared_->level_partition.push_back(
          build_gamma_partition(g, mask, k));
    }
  }

  net_ = std::make_unique<Network>(g, host_factory(factory),
                                   std::move(delay), seed);
}

ProcessFactory SynchronizedNetwork::host_factory(
    const SyncFactory& factory) const {
  std::shared_ptr<Shared> sh = shared_;
  return [sh, factory](NodeId v) -> std::unique_ptr<Process> {
    auto sp = factory(v);
    require(sp != nullptr, "sync process factory returned null");
    const Graph& g = *sh->g;
    switch (sh->kind) {
      case SynchronizerKind::kAlpha:
        return std::make_unique<AlphaHost>(g, v, std::move(sp), *sh);
      case SynchronizerKind::kBeta:
        return std::make_unique<BetaHost>(g, v, std::move(sp), *sh);
      case SynchronizerKind::kGammaW:
        return std::make_unique<GammaWHost>(g, v, std::move(sp), *sh);
    }
    ensure(false, "unreachable synchronizer kind");
    return nullptr;
  };
}

SyncProcess& SynchronizedNetwork::hosted_in(ProcessHost& host, NodeId v) {
  return dynamic_cast<HostBase&>(host.process(v)).hosted();
}

bool SynchronizedNetwork::hosted_finished_in(ProcessHost& host, NodeId v) {
  return dynamic_cast<HostBase&>(host.process(v)).hosted_finished();
}

std::int64_t SynchronizedNetwork::pulses_executed_in(ProcessHost& host,
                                                     NodeId v) {
  return dynamic_cast<HostBase&>(host.process(v)).pulses_executed();
}

SynchronizedNetwork::~SynchronizedNetwork() = default;

SynchronizerRun SynchronizedNetwork::run() {
  net_->run();
  return summarize();
}

SynchronizerRun SynchronizedNetwork::summarize() {
  SynchronizerRun out;
  out.stats = net_->stats();
  out.max_pulse = shared_->max_pulse;
  out.hosted_all_finished = true;
  for (NodeId v = 0; v < shared_->g->node_count(); ++v) {
    auto& host = dynamic_cast<HostBase&>(net_->process(v));
    out.pulses_executed =
        std::max(out.pulses_executed, host.pulses_executed());
    out.hosted_all_finished =
        out.hosted_all_finished && host.hosted_finished();
  }
  return out;
}

SyncProcess& SynchronizedNetwork::hosted(NodeId v) {
  return dynamic_cast<HostBase&>(net_->process(v)).hosted();
}

}  // namespace csca
