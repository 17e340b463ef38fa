#include "corpus.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pb {
namespace {

/// Per family (in kFamilies order), the range of its time scale over c.
/// Each range fixes the schedule's period count — cold cost grows steeply
/// with it — to roughly: uniform 5-15, polyrisk 4-12, geomlife 40-85,
/// geomrisk 2-3, weibull 10-26, lognormal 35-50.
struct Range {
  double lo, hi;
};
constexpr Range kRatio[] = {{16, 128}, {8, 64}, {4, 16},
                            {8, 32},   {4, 16}, {2, 4}};

/// Ratio strata: the i-th draw of a family takes stratum i % kStrata, so
/// every run covers each range evenly whatever the seed.
constexpr int kStrata = 8;

constexpr std::size_t kHotKeys = 64;     ///< hot_repeat working set
constexpr double kZipfS = 1.1;           ///< hot_repeat popularity skew
/// Warm-up sizes, chosen so that set-up time is mostly solver work rather
/// than process start: hot_repeat's disjoint cold specs, cold_unique's
/// rounds, and atlas_sweep's sweep rounds after its cells are built.
constexpr std::size_t kHotColdWarm = 2048;
constexpr std::size_t kColdWarmRounds = 300;
constexpr std::size_t kAtlasWarmRounds = 100;

/// atlas_sweep: fixed base life functions, each swept over its own c
/// range.  The ranges avoid every lattice cell where a dense scan found an
/// answer outside its advertised bound (see README).
struct AtlasBase {
  Life life;
  double lo, hi;
};
const AtlasBase kAtlasBases[] = {
    {{Family::Uniform, 1000.0, 0.0}, 2.0, 16.0},
    {{Family::GeomLife, 1.05, 0.0}, 0.5, 4.0},
    {{Family::GeomRisk, 40.0, 0.0}, 0.5, 4.0},
    {{Family::PolyRisk, 3.0, 1000.0}, 2.0, 8.0},
    {{Family::Weibull, 2.0, 500.0}, 2.0, 16.0},
};
constexpr int kAtlasPerBase = 8;  ///< fresh c values per base per round

/// Atlas-bound probes: the cell's midpoint probe misses the error near its
/// lower corner, so these answers exceed their advertised bound.  Round r
/// sends each at c = start + step * (r mod kProbeCycle), a fresh atlas
/// answer that does not depend on the seed; a direct-solve scan of every
/// such c found each one outside its bound (see README).
struct ProbeRun {
  Life life;
  double start, step;
};
const ProbeRun kAtlasProbes[] = {
    {{Family::GeomRisk, 60.0, 0.0}, 0.85, 1e-6},
    {{Family::GeomRisk, 60.0, 0.0}, 0.86, 1e-6},
    {{Family::GeomRisk, 60.0, 0.0}, 0.87, 1e-6},
    {{Family::PolyRisk, 3.0, 1000.0}, 11.8, 1e-5},
};
constexpr std::uint64_t kProbeCycle = 4096;

/// Lattice cells k (corners kAtlasRatio^k, ^(k+1)) that meet [lo, hi].
std::pair<long, long> cells(double lo, double hi) {
  const double l = std::log(kAtlasRatio);
  return {static_cast<long>(std::floor(std::log(lo) / l)),
          static_cast<long>(std::ceil(std::log(hi) / l))};
}

}  // namespace

Corpus::Corpus(const std::string& workload, std::uint64_t seed) : rng_(seed) {
  if (workload == "hot_repeat") {
    kind_ = Kind::Hot;
  } else if (workload == "cold_unique") {
    kind_ = Kind::Cold;
  } else if (workload == "atlas_sweep") {
    kind_ = Kind::Atlas;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }

  switch (kind_) {
    case Kind::Hot: {
      for (std::size_t i = 0; i < kHotKeys; ++i)
        warmup.push_back(
            fresh_cold(kFamilies[i % 6], static_cast<int>((i / 6) % kStrata)));
      zipf_rank_ = warmup;
      // Real solves of specs outside the working set, so that set-up time
      // is solver work rather than process start.
      for (std::size_t i = 0; i < kHotColdWarm; ++i)
        warmup.push_back(
            fresh_cold(kFamilies[i % 6], static_cast<int>((i / 6) % kStrata)));
      std::shuffle(zipf_rank_.begin(), zipf_rank_.end(), rng_);
      double sum = 0.0;
      for (std::size_t r = 0; r < kHotKeys; ++r) {
        sum += std::pow(static_cast<double>(r + 1), -kZipfS);
        zipf_cdf_.push_back(sum);
      }
      for (double& v : zipf_cdf_) v /= sum;
      // Second pass fills the memo; the Zipf tail settles the rest.
      warmup.insert(warmup.end(), zipf_rank_.begin(), zipf_rank_.end());
      const auto tail = zipf_round(2048);
      warmup.insert(warmup.end(), tail.begin(), tail.end());
      break;
    }
    case Kind::Cold:
      for (std::size_t r = 0; r < kColdWarmRounds; ++r) {
        const auto round = next_round();
        warmup.insert(warmup.end(), round.begin(), round.end());
      }
      rounds_ = 0;
      break;
    case Kind::Atlas: {
      // Warm-up builds every lattice cell the timed phase touches, from c
      // values off the cell midpoints (timed values are drawn fresh).
      const auto build = [this](const Life& life, double lo, double hi) {
        const auto [k0, k1] = cells(lo, hi);
        for (long k = k0; k < k1; ++k) {
          const double c =
              round_to(std::pow(kAtlasRatio, static_cast<double>(k) + 0.37), 6);
          if (const auto key = add_fresh({life, c}); key != kNone)
            warmup.push_back(key);
        }
      };
      for (const AtlasBase& b : kAtlasBases) build(b.life, b.lo, b.hi);
      for (const ProbeRun& p : kAtlasProbes) build(p.life, p.start, p.start);
      // Then atlas answers at c values the timed phase will not draw again.
      for (std::size_t r = 0; r < kAtlasWarmRounds; ++r) {
        const auto round = sweep_round();
        warmup.insert(warmup.end(), round.begin(), round.end());
      }
      break;
    }
  }
}

std::uint32_t Corpus::add(const Query& q) {
  queries.push_back(q);
  return static_cast<std::uint32_t>(queries.size() - 1);
}

std::uint32_t Corpus::add_fresh(const Query& q) {
  if (!seen_.insert(q.key()).second) return kNone;
  return add(q);
}

std::uint32_t Corpus::fresh_cold(Family f, int stratum) {
  std::uint32_t key = kNone;
  while (key == kNone) key = add_fresh(draw_cold(f, stratum));
  return key;
}

Query Corpus::draw_cold(Family f, int stratum) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const Range r = kRatio[static_cast<int>(f)];
  const double c = round_to(1.0 + 3.0 * unit(rng_), 4);
  const double u = (stratum + unit(rng_)) / kStrata;
  return {draw_life(f, c, r.lo * std::pow(r.hi / r.lo, u), rng_), c};
}

std::vector<std::uint32_t> Corpus::zipf_round(std::size_t n) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), unit(rng_));
    const auto rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - zipf_cdf_.begin()), zipf_rank_.size() - 1);
    out.push_back(zipf_rank_[rank]);
  }
  return out;
}

std::vector<std::uint32_t> Corpus::next_round() {
  std::vector<std::uint32_t> out;
  const std::uint64_t round = rounds_++;
  const int stratum = static_cast<int>(round % kStrata);
  switch (kind_) {
    case Kind::Hot: return zipf_round(kHotKeys);
    case Kind::Cold:
      for (const Family f : kFamilies) out.push_back(fresh_cold(f, stratum));
      return out;
    case Kind::Atlas: {
      out = sweep_round();
      const auto step = static_cast<double>(round % kProbeCycle);
      for (const ProbeRun& p : kAtlasProbes) {
        const Query q{p.life, round_to(p.start + p.step * step, 6)};
        const std::uint32_t key = add_fresh(q);
        // After a whole cycle the probe repeats an earlier (cached) answer.
        out.push_back(key != kNone ? key : probe_keys_.at(q.key()));
        probe_keys_.emplace(q.key(), out.back());
      }
      return out;
    }
  }
  return out;
}

std::vector<std::uint32_t> Corpus::sweep_round() {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<std::uint32_t> out;
  for (int j = 0; j < kAtlasPerBase; ++j) {
    for (const AtlasBase& b : kAtlasBases) {
      std::uint32_t key = kNone;
      while (key == kNone) {
        const double c = round_to(b.lo * std::pow(b.hi / b.lo, unit(rng_)), 6);
        key = add_fresh({b.life, c});
      }
      out.push_back(key);
    }
  }
  return out;
}

std::string Corpus::line(std::uint32_t key, const std::string& trace) const {
  const Query& q = queries.at(key);
  std::string out = "{\"v\":2,\"life\":\"" + q.life.spec() +
                    "\",\"c\":" + number(q.c) +
                    ",\"max_periods\":" + std::to_string(kMaxPeriods);
  if (!trace.empty()) out += ",\"trace\":\"" + trace + "\"";
  out += "}\n";
  return out;
}

}  // namespace pb
