#include "fault/sync_reliable_link.h"

#include <cmath>
#include <utility>

#include "util/require_lit.h"

namespace csca {

// Presents the inner protocol with the real graph and pulse clock while
// routing its actions through the ARQ layer.
class SyncArqHost::VirtualCtx final : public SyncContext {
 public:
  VirtualCtx(SyncArqHost& host, SyncContext& actual)
      : host_(&host), actual_(&actual) {}

  NodeId self() const override { return host_->self_; }
  const Graph& graph() const override { return actual_->graph(); }
  std::int64_t pulse() const override { return actual_->pulse(); }
  void send(EdgeId e, Message m, MsgClass cls) override {
    host_->inner_send(*actual_, e, std::move(m), cls);
  }
  void schedule_wakeup(std::int64_t at_pulse) override {
    host_->inner_wakeup(*actual_, at_pulse);
  }
  void finish() override { actual_->finish(); }

 private:
  SyncArqHost* host_;
  SyncContext* actual_;
};

SyncArqHost::SyncArqHost(NodeId self, std::unique_ptr<SyncProcess> inner,
                         ArqConfig cfg)
    : ArqLinks(std::move(cfg)), self_(self), inner_(std::move(inner)) {
  require_lit(inner_ != nullptr, "SyncArqHost requires an inner process");
}

std::int64_t SyncArqHost::timeout_pulses(EdgeId e, int attempt) const {
  double f = cfg_.timeout_factor;
  for (int i = 0; i < attempt; ++i) f *= cfg_.backoff;
  // Rounded to a whole number of transmissions so the timeout is an
  // integer multiple of w(e): retransmissions of an in-synch send then
  // land on pulses divisible by w(e), preserving Def. 4.2.
  std::int64_t k = std::llround(f);
  if (k < 1) k = 1;
  return k * weight(e);
}

void SyncArqHost::arm(SyncContext& ctx, EdgeId e, std::int64_t seq,
                      int attempt) {
  const std::int64_t due = ctx.pulse() + timeout_pulses(e, attempt);
  timers_[due].push_back(Timer{e, seq, attempt});
  // One engine wakeup serves every timer (and inner wakeup) at a pulse.
  if (armed_pulses_.insert(due).second) ctx.schedule_wakeup(due);
}

void SyncArqHost::on_start(SyncContext& ctx) {
  attach(ctx.graph(), ctx.incident());
  VirtualCtx vctx(*this, ctx);
  inner_->on_start(vctx);
}

void SyncArqHost::inner_send(SyncContext& ctx, EdgeId e, Message m,
                             MsgClass cls) {
  const Message* f = frame(e, m, cls);
  if (f == nullptr) return;
  const std::int64_t seq = f->data[0];
  ctx.send(e, *f, cls);
  arm(ctx, e, seq, 0);
}

void SyncArqHost::inner_wakeup(SyncContext& ctx, std::int64_t at_pulse) {
  require_lit(at_pulse > ctx.pulse(),
              "wakeup must be scheduled strictly ahead");
  inner_wakeups_.insert(at_pulse);
  if (armed_pulses_.insert(at_pulse).second) ctx.schedule_wakeup(at_pulse);
}

void SyncArqHost::on_message(SyncContext& ctx, const Message& m) {
  require_lit(m.edge != kNoEdge, "SyncArqHost expects edge messages only");
  VirtualCtx vctx(*this, ctx);
  const std::int64_t ack =
      receive(m, [&](const Message& up) { inner_->on_message(vctx, up); });
  if (ack >= 0) ctx.send(m.edge, arq_make_ack(ack), MsgClass::kControl);
}

void SyncArqHost::on_wakeup(SyncContext& ctx) {
  const std::int64_t p = ctx.pulse();
  armed_pulses_.erase(p);
  // Due retransmit timers first, then the inner protocol's own wakeup —
  // the engine already delivered this pulse's messages, so ACKs that
  // arrived at p have cancelled their timers.
  const auto it = timers_.find(p);
  if (it != timers_.end()) {
    const std::vector<Timer> due = std::move(it->second);
    timers_.erase(it);
    for (const Timer& t : due) {
      if (const Message* f = retransmit(t.e, t.seq, t.attempt, p)) {
        ctx.send(t.e, *f, MsgClass::kControl);
        arm(ctx, t.e, t.seq, t.attempt + 1);
      }
    }
  }
  if (inner_wakeups_.erase(p) > 0) {
    VirtualCtx vctx(*this, ctx);
    inner_->on_wakeup(vctx);
  }
}

std::function<std::unique_ptr<SyncProcess>(NodeId)> sync_arq_factory(
    std::function<std::unique_ptr<SyncProcess>(NodeId)> inner,
    ArqConfig cfg) {
  require_lit(inner != nullptr,
              "sync_arq_factory requires an inner factory");
  return [inner = std::move(inner), cfg](NodeId v) {
    auto p = inner(v);
    require_lit(p != nullptr, "process factory returned null");
    return std::make_unique<SyncArqHost>(v, std::move(p), cfg);
  };
}

}  // namespace csca
