// Compile-time shape of an EdgeMap Program (the contract is documented in
// core/edge_map.h), shared by Blaze's engines and the baseline engines so
// they all run the same per-edge logic.
#pragma once

#include <concepts>

#include "util/common.h"

namespace blaze::core {

/// A program that consumes stored edge weights declares
/// scatter(src, dst, weight); the engine dispatches on the graph's
/// on-disk record size and checks program/graph compatibility at runtime.
template <typename Program>
concept WeightedScatter =
    requires(Program p, vertex_t v, float w) { p.scatter(v, v, w); };

template <typename Program>
concept UnweightedScatter =
    requires(Program p, vertex_t v) { p.scatter(v, v); };

/// A program whose gather is monotone (min, OR) may declare
/// improves(dst, v): false when applying v to dst can no longer change dst.
template <typename Program>
concept PrunesUpdates =
    requires(const Program p, vertex_t d, typename Program::value_type v) {
      { p.improves(d, v) } -> std::convertible_to<bool>;
    };

/// Whether the update (dst, v) must still be applied. Engines call it
/// between scatter and gather (before binning, messaging or CAS); programs
/// without improves() keep every update.
template <typename Program>
bool can_improve(const Program& prog, vertex_t dst,
                 typename Program::value_type v) {
  if constexpr (PrunesUpdates<Program>) {
    return prog.improves(dst, v);
  } else {
    return true;
  }
}

}  // namespace blaze::core
