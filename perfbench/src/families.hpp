// Life-function families the benchmark draws its requests from, with
// closed-form survival functions and mean lifespans written here, apart
// from the program, so the checker can recompute E(S;p) on its own.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace pb {

/// Every factory family that has an optimal schedule and a closed-form
/// survival function (pareto has no optimum, Cor 3.2; pwl and empirical are
/// tabulated).
enum class Family { Uniform, PolyRisk, GeomLife, GeomRisk, Weibull, LogNormal };

inline constexpr Family kFamilies[] = {Family::Uniform,  Family::PolyRisk,
                                       Family::GeomLife, Family::GeomRisk,
                                       Family::Weibull,  Family::LogNormal};

[[nodiscard]] const char* family_name(Family f) noexcept;

/// One life function: family plus up to two parameters, as in the factory
/// grammar (uniform L; polyrisk d, L; geomlife a; geomrisk L; weibull k,
/// scale; lognormal mu, sigma).
struct Life {
  Family family = Family::Uniform;
  double a = 0.0;
  double b = 0.0;

  /// Canonical factory spec, e.g. "polyrisk:d=3,L=412.5".
  [[nodiscard]] std::string spec() const;
  /// p(t), written from the family's definition.
  [[nodiscard]] double survival(double t) const;
  /// ∫_0^∞ p(t) dt in closed form.
  [[nodiscard]] double mean_lifespan() const;
};

/// Shortest decimal that reads back as `v` (std::to_chars).
[[nodiscard]] std::string number(double v);

/// Round `v` to `digits` decimals.
[[nodiscard]] double round_to(double v, int digits);

/// One solve request of a workload: the life function and overhead c.
struct Query {
  Life life;
  double c = 0.0;
  [[nodiscard]] std::string key() const;  ///< spec + "|" + c
};

/// A life function of `family` whose natural time scale is `ratio` times
/// `c` — the lifespan L, the half-life, the Weibull scale or the lognormal
/// median — with the other parameter drawn from `rng`.  The schedule's
/// period count is then fixed by the family and `ratio`.
[[nodiscard]] Life draw_life(Family family, double c, double ratio,
                             std::mt19937_64& rng);

}  // namespace pb
