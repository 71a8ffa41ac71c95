#include "fault/reliable_link.h"

#include <utility>

#include "fault/frame_checksum.h"
#include "util/require_lit.h"

namespace csca {

Message arq_make_data(std::int64_t seq, const Message& inner) {
  Message frame(kArqData);
  frame.data.reserve(3 + inner.data.size());
  frame.data.push_back(seq);
  frame.data.push_back(inner.type);
  frame.data.insert(frame.data.end(), inner.data.begin(), inner.data.end());
  frame.data.push_back(
      frame_checksum(kArqData, frame.data.begin(), frame.data.size()));
  return frame;
}

Message arq_make_ack(std::int64_t ack) {
  Message frame(kArqAck);
  frame.data.push_back(ack);
  frame.data.push_back(frame_checksum(kArqAck, frame.data.begin(), 1));
  return frame;
}

bool arq_frame_valid(const Message& m) {
  if (m.type != kArqData && m.type != kArqAck) return false;
  // DATA needs at least [seq, inner type, ck]; ACK exactly [ack, ck].
  const std::size_t min_words = m.type == kArqData ? 3 : 2;
  if (m.data.size() < min_words) return false;
  const std::size_t n = m.data.size() - 1;
  return m.data[n] == frame_checksum(m.type, m.data.begin(), n);
}

namespace {

/// RAII guard: hooks run with cur_ pointing at the engine's real
/// context so inner sends minted through the ArqHost backend can reach
/// the wire; cleared on exit so stale contexts are never dereferenced.
class CurrentContext {
 public:
  CurrentContext(Context** slot, Context* ctx) : slot_(slot) { *slot_ = ctx; }
  ~CurrentContext() { *slot_ = nullptr; }
  CurrentContext(const CurrentContext&) = delete;
  CurrentContext& operator=(const CurrentContext&) = delete;

 private:
  Context** slot_;
};

}  // namespace

ArqHost::ArqHost(NodeId self, std::unique_ptr<Process> inner, ArqConfig cfg)
    : ArqLinks(std::move(cfg)), self_(self), inner_(std::move(inner)) {
  require_lit(inner_ != nullptr, "ArqHost requires an inner process");
}

double ArqHost::timeout(EdgeId e, int attempt) const {
  double t = cfg_.timeout_factor * static_cast<double>(weight(e));
  for (int i = 0; i < attempt; ++i) t *= cfg_.backoff;
  return t;
}

void ArqHost::on_start(Context& ctx) {
  attach(ctx.graph(), ctx.incident());
  CurrentContext guard(&cur_, &ctx);
  Context ictx = make_context(self_);
  inner_->on_start(ictx);
}

void ArqHost::on_message(Context& ctx, const Message& m) {
  CurrentContext guard(&cur_, &ctx);
  Context ictx = make_context(self_);
  if (m.edge != kNoEdge) {
    const std::int64_t ack = receive(
        m, [&](const Message& up) { inner_->on_message(ictx, up); });
    if (ack >= 0) ctx.send(m.edge, arq_make_ack(ack), MsgClass::kControl);
    return;
  }
  if (m.type == kArqTimer) {
    require_lit(m.data.size() >= 3, "message payload index out of range");
    const EdgeId e = static_cast<EdgeId>(m.data[0]);
    const std::int64_t seq = m.data[1];
    const int attempt = static_cast<int>(m.data[2]);
    if (const Message* f = retransmit(e, seq, attempt, ctx.now())) {
      ctx.send(e, *f, MsgClass::kControl);
      ctx.schedule_self(timeout(e, attempt + 1),
                        Message(kArqTimer, {e, seq, attempt + 1}));
    }
    return;
  }
  require_lit(m.type == kArqSelf,
              "ArqHost received an unframed self-delivery");
  require_lit(!m.data.empty(), "message payload index out of range");
  // Unwrap the inner self-scheduled message.
  Message inner_msg(static_cast<int>(m.data[0]),
                    Payload(m.data.begin() + 1, m.data.end()));
  inner_msg.from = self_;
  inner_msg.edge = kNoEdge;
  inner_->on_message(ictx, inner_msg);
}

double ArqHost::engine_now() const {
  require_lit(cur_ != nullptr, "ArqHost inner call outside a handler");
  return cur_->now();
}

const Graph& ArqHost::engine_graph() const {
  require_lit(graph_ != nullptr, "ArqHost used before on_start");
  return *graph_;
}

void ArqHost::engine_send(NodeId /*from*/, EdgeId e, Message m,
                          MsgClass cls) {
  require_lit(cur_ != nullptr, "ArqHost inner send outside a handler");
  const Message* f = frame(e, m, cls);
  if (f == nullptr) return;
  const std::int64_t seq = f->data[0];
  cur_->send(e, *f, cls);
  cur_->schedule_self(timeout(e, 0), Message(kArqTimer, {e, seq, 0}));
}

void ArqHost::engine_schedule_self(NodeId /*v*/, double delay, Message m) {
  require_lit(cur_ != nullptr, "ArqHost inner call outside a handler");
  Message wrapped(kArqSelf);
  wrapped.data.reserve(1 + m.data.size());
  wrapped.data.push_back(m.type);
  wrapped.data.insert(wrapped.data.end(), m.data.begin(), m.data.end());
  cur_->schedule_self(delay, std::move(wrapped));
}

void ArqHost::engine_finish(NodeId /*v*/) {
  require_lit(cur_ != nullptr, "ArqHost inner call outside a handler");
  cur_->finish();
}

ProcessFactory arq_factory(ProcessFactory inner, ArqConfig cfg) {
  require_lit(inner != nullptr, "arq_factory requires an inner factory");
  return [inner = std::move(inner), cfg](NodeId v) {
    auto p = inner(v);
    require_lit(p != nullptr, "process factory returned null");
    return std::make_unique<ArqHost>(v, std::move(p), cfg);
  };
}

ArqHost& arq_host(ProcessHost& host, NodeId v) {
  return host.process_as<ArqHost>(v);
}

Process& arq_inner(ProcessHost& host, NodeId v) {
  return arq_host(host, v).inner();
}

}  // namespace csca
