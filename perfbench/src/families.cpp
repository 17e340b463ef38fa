#include "families.hpp"

#include <charconv>
#include <cmath>

namespace pb {

const char* family_name(Family f) noexcept {
  switch (f) {
    case Family::Uniform: return "uniform";
    case Family::PolyRisk: return "polyrisk";
    case Family::GeomLife: return "geomlife";
    case Family::GeomRisk: return "geomrisk";
    case Family::Weibull: return "weibull";
    case Family::LogNormal: return "lognormal";
  }
  return "?";
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double round_to(double v, int digits) {
  const double scale = std::pow(10.0, digits);
  return std::round(v * scale) / scale;
}

std::string Life::spec() const {
  const std::string name = family_name(family);
  switch (family) {
    case Family::Uniform:
    case Family::GeomRisk: return name + ":L=" + number(a);
    case Family::PolyRisk:
      return name + ":d=" + number(a) + ",L=" + number(b);
    case Family::GeomLife: return name + ":a=" + number(a);
    case Family::Weibull:
      return name + ":k=" + number(a) + ",scale=" + number(b);
    case Family::LogNormal:
      return name + ":mu=" + number(a) + ",sigma=" + number(b);
  }
  return name;
}

double Life::survival(double t) const {
  if (t <= 0.0) return 1.0;
  switch (family) {
    case Family::Uniform: return t >= a ? 0.0 : (a - t) / a;
    case Family::PolyRisk: return t >= b ? 0.0 : 1.0 - std::pow(t / b, a);
    case Family::GeomLife: return std::pow(a, -t);
    case Family::GeomRisk:
      // (2^L - 2^t) / (2^L - 1): risk doubling every time unit up to L.
      return t >= a ? 0.0 : (std::exp2(a) - std::exp2(t)) / (std::exp2(a) - 1.0);
    case Family::Weibull: return std::exp(-std::pow(t / b, a));
    case Family::LogNormal:
      return 0.5 * std::erfc((std::log(t) - a) / (b * std::sqrt(2.0)));
  }
  return 0.0;
}

double Life::mean_lifespan() const {
  switch (family) {
    case Family::Uniform: return a / 2.0;
    case Family::PolyRisk: return b * a / (a + 1.0);
    case Family::GeomLife: return 1.0 / std::log(a);
    case Family::GeomRisk: {
      // ∫_0^L (2^L - 2^t) dt / (2^L - 1)
      const double two_l = std::exp2(a);
      return (a * two_l - (two_l - 1.0) / std::log(2.0)) / (two_l - 1.0);
    }
    case Family::Weibull: return b * std::tgamma(1.0 + 1.0 / a);
    case Family::LogNormal: return std::exp(a + 0.5 * b * b);
  }
  return 0.0;
}

std::string Query::key() const { return life.spec() + "|" + number(c); }

Life draw_life(Family family, double c, double ratio, std::mt19937_64& rng) {
  const double scale = ratio * c;
  std::uniform_int_distribution<int> degree(2, 4);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  switch (family) {
    case Family::Uniform: return {family, round_to(scale, 2), 0.0};
    case Family::PolyRisk:
      return {family, static_cast<double>(degree(rng)), round_to(scale, 2)};
    case Family::GeomLife:
      return {family, round_to(std::exp2(1.0 / scale), 7), 0.0};
    case Family::GeomRisk: return {family, round_to(scale, 3), 0.0};
    case Family::Weibull:
      return {family, round_to(1.5 + 1.5 * unit(rng), 2), round_to(scale, 2)};
    case Family::LogNormal:
      return {family, round_to(std::log(scale), 4),
              round_to(0.4 + 0.4 * unit(rng), 2)};
  }
  return {};
}

}  // namespace pb
