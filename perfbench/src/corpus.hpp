// Seeded request corpora of the three workloads.  The same seed gives the
// same queries in the same order; csserve only ever sees the rendered lines.
#pragma once

#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "families.hpp"

namespace pb {

/// The atlas lattice spacing csserve uses (AtlasOptions::c_ratio, 2^(1/4)).
inline constexpr double kAtlasRatio = 1.189207115002721;

/// Periods requested back with every answer: more than any schedule of the
/// corpora has, so the checker sees the whole schedule.
inline constexpr int kMaxPeriods = 4096;

class Corpus {
 public:
  /// Throws std::invalid_argument for an unknown workload name.
  Corpus(const std::string& workload, std::uint64_t seed);

  /// Every query issued so far, indexed by key; grows as fresh rounds are
  /// drawn.
  std::vector<Query> queries;
  /// Keys of the warm-up pass, in order.
  std::vector<std::uint32_t> warmup;

  /// Keys of the next timed round, drawing fresh queries where the workload
  /// calls for them.  Every round of a workload has the same size.
  std::vector<std::uint32_t> next_round();

  /// Request line of `key` (newline included); a non-empty `trace` label is
  /// sent as the v2 "trace" field.
  [[nodiscard]] std::string line(std::uint32_t key,
                                 const std::string& trace = {}) const;

 private:
  enum class Kind { Hot, Cold, Atlas };
  static constexpr std::uint32_t kNone = UINT32_MAX;
  std::uint32_t add(const Query& q);
  /// Add `q` unless an equal query was added before (then kNone).
  std::uint32_t add_fresh(const Query& q);
  /// A new query of family `f` with its time-scale ratio in `stratum`.
  std::uint32_t fresh_cold(Family f, int stratum);
  Query draw_cold(Family f, int stratum);
  std::vector<std::uint32_t> zipf_round(std::size_t n);
  /// atlas_sweep: kAtlasPerBase fresh c values for each base.
  std::vector<std::uint32_t> sweep_round();

  Kind kind_ = Kind::Hot;
  std::mt19937_64 rng_;
  std::uint64_t rounds_ = 0;
  std::vector<double> zipf_cdf_;
  std::vector<std::uint32_t> zipf_rank_;  ///< rank -> key
  std::set<std::string> seen_;            ///< keys of fresh workloads
  std::map<std::string, std::uint32_t> probe_keys_;  ///< probe query -> key
};

}  // namespace pb
