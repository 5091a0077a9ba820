// Scope guard for the process-global SIMD dispatch, shared by the tests
// that force each supported ISA in turn.
#pragma once

#include "util/simd.hpp"

namespace natscale::testing {

/// Restores the active SIMD ISA on scope exit, so a failing test cannot
/// leak a forced ISA into the rest of the suite.
class IsaGuard {
public:
    IsaGuard() : saved_(active_simd_isa()) {}
    ~IsaGuard() { set_simd_isa(saved_); }
    IsaGuard(const IsaGuard&) = delete;
    IsaGuard& operator=(const IsaGuard&) = delete;

private:
    SimdIsa saved_;
};

}  // namespace natscale::testing
