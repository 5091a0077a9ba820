// Output gates: every timed run's answer is checked against an independent
// computation, outside the timed region.  All checks are bit for bit —
// the library guarantees bit-identical results across backends, thread
// counts, processes and front doors, so any difference is a defect.
#pragma once

#include <string>

#include "core/delta_sweep.hpp"
#include "core/saturation.hpp"
#include "linkstream/link_stream.hpp"
#include "stats/histogram01.hpp"

namespace natbench {

bool identical(const natscale::DeltaPoint& a, const natscale::DeltaPoint& b);
bool identical(const natscale::Histogram01& a, const natscale::Histogram01& b);

/// Batch gate: γ's point and histogram, re-evaluated with the independent
/// single-period reference (natscale::evaluate_delta), must equal
/// `result.at_gamma` and `result.gamma_histogram`, and γ must be the curve
/// point the result claims.  Returns "" on success, else what differed.
std::string check_saturation(const natscale::SaturationResult& result,
                             const natscale::DeltaPoint& reference_point,
                             const natscale::Histogram01& reference_histogram);

/// Byte gate for serialized reports (dist vs single process, daemon curve
/// vs cold sweep).  Returns "" on success, else where they first differ.
std::string check_same_text(const std::string& what, const std::string& got,
                            const std::string& expected);

}  // namespace natbench
