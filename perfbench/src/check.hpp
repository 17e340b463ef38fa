// Answer checks.  Each compares a csserve answer against a computation made
// apart from the serving path, or against a property the method must have.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "families.hpp"

namespace pb {

/// The fields of one v2 solve response the checks read.
struct Parsed {
  bool ok = false;
  std::string tier;
  std::string life;
  double c = 0.0;
  double expected = 0.0;
  std::size_t num_periods = 0;
  std::vector<double> periods;
  double t0 = 0.0;
  double bracket_lo = 0.0;
  double bracket_hi = 0.0;
  std::optional<double> atlas_err;
};

/// Parse a response line; nullopt when a field the checks need is missing
/// or malformed.
[[nodiscard]] std::optional<Parsed> parse_answer(std::string_view line);

/// The checks, in the order their failures are tallied.
enum Check : int {
  kWellFormed,   ///< ok:true, the query's canonical life and c, every period
  kRecompute,    ///< E(S;p) recomputed from the periods matches "expected"
  kBracket,      ///< bracket_lo <= t0 <= bracket_hi
  kMeanBound,    ///< 0 < expected <= the family's mean lifespan
  kConsistent,   ///< a hit carries the same schedule as the key's first answer
  kTally,        ///< client tier tally agrees with the stats tier counters
  kAtlasBound,   ///< atlas error vs a direct solve within advertised atlas_err
  kNumChecks
};

[[nodiscard]] const char* check_name(int check) noexcept;

using Failures = std::array<std::uint64_t, kNumChecks>;

/// E(S;p) = Σ (t_i - c)^+ p(T_i), with the benchmark's own survival function.
[[nodiscard]] double recompute_expected(const Life& life, double c,
                                        const std::vector<double>& periods);

/// Run the single-answer checks (well-formed, recompute, bracket, mean
/// bound) on `line` as the answer to `q`; adds one to each failing check.
/// Returns the parsed answer when it is well formed.
std::optional<Parsed> check_answer(const Query& q, std::string_view line,
                                   Failures& fail);

/// Relative error of `served` against a direct cs::GuidelineScheduler solve
/// of `q`, and whether it exceeds the advertised `atlas_err` (allowing for
/// its 3-significant-digit rendering).
struct AtlasVerdict {
  double rel_err = 0.0;
  bool violated = false;
};
[[nodiscard]] AtlasVerdict check_atlas(const Query& q, double served,
                                       double atlas_err);

/// Compare the client's per-tier tally against the server's counters
/// (whose "lru" also counts memo answers).
[[nodiscard]] bool tallies_match(const std::map<char, std::uint64_t>& client,
                                 const std::map<char, std::uint64_t>& server);

/// The tier counters ("memo", "lru", "atlas", "cold") of a v2 stats reply,
/// keyed by first letter.
[[nodiscard]] std::map<char, std::uint64_t> server_tiers(std::string_view stats);

/// A numeric field of a JSON reply, searched after `after` (e.g. a nested
/// object's opening key); nullopt when absent.
[[nodiscard]] std::optional<double> json_number(std::string_view text,
                                                std::string_view key,
                                                std::string_view after = {});

/// Perturb one answer per check and report whether each check fires; also
/// require that the unperturbed answers pass.  Returns true when every check
/// caught its perturbation.
bool self_test();

}  // namespace pb
