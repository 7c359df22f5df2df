// Forwarding header: BatchGateRunner lives in src/gates/batch_runner.hpp.
// Kept for the benchmark sources that still include it by this path; new
// code includes "gates/batch_runner.hpp" directly.
#pragma once

#include "gates/batch_runner.hpp"

namespace gaip::bench {
using gates::BatchGateRunner;
using gates::BatchLaneResult;
}  // namespace gaip::bench
