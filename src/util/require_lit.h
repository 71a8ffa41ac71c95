// Check-first require for literal messages.
//
// require() takes its message as a const std::string&, so a literal
// longer than the small-string buffer costs a heap allocation on every
// call, failing or not. require_lit() tests the condition first and
// builds the std::string only on the failure path; the exception type
// (PreconditionError) and its text, call-site location included, are
// exactly what require() would throw.
//
// The parallel engines' per-event and per-send checks use it (their
// speculative event loop allocates nothing per event). The sequential
// Network keeps require(): a faster Network::step() would lower the
// benchmark's traced storm_deep coverage share (ROADMAP item 1).
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
