// In-process layer timings: each public call of a layer, on the workload's
// own seeded queries, timed by a span the benchmark records around it.
#pragma once

#include <string>

#include "corpus.hpp"

namespace pb {

/// Time every layer on a sample of `corpus`'s queries and return one JSON
/// object of per-layer mean times (microseconds) and counts.  When `spans_out`
/// is non-empty, every recorded span is written there as JSONL.
[[nodiscard]] std::string time_layers(Corpus& corpus,
                                      const std::string& spans_out);

}  // namespace pb
