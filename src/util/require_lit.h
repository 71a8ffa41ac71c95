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
//   - the invariant checker's post-run reads of the result side
//     (ProcessHost's accessors, per node and per edge);
//   - every check a protocol call reaches on all four engines:
//     Message::at (each handler's per-field read), the send
//     pipeline's incidence and delay-range checks (sim/channel.h's
//     open and draw) and Network::engine_schedule_self's delay check;
//   - the pulse engine's own checks: SyncEngine's in-synch send
//     check, its wakeup check and check_event_bounds;
//   - the Rng samplers (util/rng.h: uniform_int, uniform_real,
//     chance), one call per generated edge weight and per unkeyed
//     delay draw, and PooledStore::from_factory's per-node null check.
// The engine-internal per-event sites keep require(): Network::push,
// deliver, step and run, EventHeap, ProcessStore::at and Graph's
// accessors (edge, other, check_node). Each one made check-first
// speeds up the benchmark's traced storm_deep step further and lowers
// its trace.coverage toward the 0.9 floor, because the tracer's own
// timer work between steps is counted in no layer. With the Graph
// accessors added, coverage fell to 0.909-0.917; those sites wait for
// the benchmark change in the ROADMAP item "Speed gates that measure
// the code, not the machine".
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
