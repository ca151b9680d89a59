// Per-layer replays for the traced run: the client-local layers (chunk,
// crypto, aont, rsa, bigint, pairing, abe) timed by feeding the workload's
// own inputs through their public functions.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct LayerMetric {
  std::string name;
  double value = 0;
  std::string unit;
};

[[nodiscard]] std::vector<LayerMetric> ReplayLayers(const LayerInputs& inputs);

}  // namespace perfbench
