#include "check.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "core/guideline.hpp"
#include "engine/engine.hpp"
#include "engine/protocol.hpp"
#include "lifefn/factory.hpp"
#include "wire.hpp"

namespace pb {
namespace {

/// The text right after `"key":`, or an empty view when absent.
std::string_view field(std::string_view text, std::string_view key,
                       std::size_t from = 0) {
  std::string pattern = "\"";
  pattern += key;
  pattern += "\":";
  const auto at = text.find(pattern, from);
  if (at == std::string_view::npos) return {};
  return text.substr(at + pattern.size());
}

std::optional<double> leading_number(std::string_view v) {
  double out = 0.0;
  const auto res = std::from_chars(v.data(), v.data() + v.size(), out);
  if (res.ec != std::errc{}) return std::nullopt;
  return out;
}

std::optional<std::string> leading_string(std::string_view v) {
  if (v.empty() || v.front() != '"') return std::nullopt;
  const auto end = v.find('"', 1);
  if (end == std::string_view::npos) return std::nullopt;
  return std::string(v.substr(1, end - 1));
}

bool rel_close(double a, double b, double tol) {
  return std::fabs(a - b) <= tol * std::max(std::fabs(a), std::fabs(b));
}

}  // namespace

const char* check_name(int check) noexcept {
  switch (check) {
    case kWellFormed: return "well_formed";
    case kRecompute: return "expected_recomputed";
    case kBracket: return "t0_in_bracket";
    case kMeanBound: return "expected_within_mean_lifespan";
    case kConsistent: return "hit_matches_first_answer";
    case kTally: return "tier_tally_matches_stats";
    case kAtlasBound: return "atlas_error_within_bound";
    default: return "?";
  }
}

std::optional<double> json_number(std::string_view text, std::string_view key,
                                  std::string_view after) {
  std::size_t from = 0;
  if (!after.empty()) {
    from = text.find(after);
    if (from == std::string_view::npos) return std::nullopt;
  }
  const auto v = field(text, key, from);
  if (v.empty()) return std::nullopt;
  return leading_number(v);
}

std::optional<Parsed> parse_answer(std::string_view line) {
  Parsed p;
  p.ok = field(line, "ok").substr(0, 4) == "true";
  if (!p.ok) return p;
  const auto tier = leading_string(field(line, "tier"));
  const auto life = leading_string(field(line, "life"));
  const auto c = leading_number(field(line, "c"));
  const auto expected = leading_number(field(line, "expected"));
  const auto num = leading_number(field(line, "num_periods"));
  const auto t0 = leading_number(field(line, "t0"));
  const auto lo = leading_number(field(line, "bracket_lo"));
  const auto hi = leading_number(field(line, "bracket_hi"));
  if (!tier || !life || !c || !expected || !num || !t0 || !lo || !hi)
    return std::nullopt;
  p.tier = *tier;
  p.life = *life;
  p.c = *c;
  p.expected = *expected;
  p.num_periods = static_cast<std::size_t>(*num);
  p.t0 = *t0;
  p.bracket_lo = *lo;
  p.bracket_hi = *hi;
  if (const auto err = field(line, "atlas_err"); !err.empty())
    p.atlas_err = leading_number(err);

  std::string_view rest = field(line, "periods");
  if (rest.empty() || rest.front() != '[') return std::nullopt;
  rest.remove_prefix(1);
  while (!rest.empty() && rest.front() != ']') {
    double v = 0.0;
    const auto res = std::from_chars(rest.data(), rest.data() + rest.size(), v);
    if (res.ec != std::errc{}) return std::nullopt;
    p.periods.push_back(v);
    rest.remove_prefix(static_cast<std::size_t>(res.ptr - rest.data()));
    if (!rest.empty() && rest.front() == ',') rest.remove_prefix(1);
  }
  return p;
}

double recompute_expected(const Life& life, double c,
                          const std::vector<double>& periods) {
  double end = 0.0;
  double sum = 0.0;
  for (const double t : periods) {
    end += t;
    if (t > c) sum += (t - c) * life.survival(end);
  }
  return sum;
}

std::optional<Parsed> check_answer(const Query& q, std::string_view line,
                                   Failures& fail) {
  const auto p = parse_answer(line);
  if (!p || !p->ok || p->life != q.life.spec() || p->c != q.c ||
      p->periods.size() != p->num_periods || p->periods.empty()) {
    ++fail[kWellFormed];
    return std::nullopt;
  }
  if (!rel_close(recompute_expected(q.life, q.c, p->periods), p->expected,
                 1e-9))
    ++fail[kRecompute];
  if (!(p->bracket_lo <= p->t0 && p->t0 <= p->bracket_hi)) ++fail[kBracket];
  if (!(p->expected > 0.0 && p->expected <= q.life.mean_lifespan()))
    ++fail[kMeanBound];
  return p;
}

AtlasVerdict check_atlas(const Query& q, double served, double atlas_err) {
  const auto p = cs::make_life_function(q.life.spec());
  const double direct = cs::GuidelineScheduler(*p, q.c).run().expected;
  AtlasVerdict v;
  v.rel_err = std::fabs(served - direct) / direct;
  // atlas_err is rendered with 3 significant digits: allow its rounding.
  v.violated = v.rel_err > atlas_err * (1.0 + 5e-3);
  return v;
}

bool tallies_match(const std::map<char, std::uint64_t>& client,
                   const std::map<char, std::uint64_t>& server) {
  const auto at = [](const std::map<char, std::uint64_t>& m, char t) {
    const auto it = m.find(t);
    return it == m.end() ? std::uint64_t{0} : it->second;
  };
  // The server's "lru" counter is the engine's cache-hit count, and a memo
  // hit probes the engine cache too: it counts memo and lru answers alike.
  return at(server, 'm') == at(client, 'm') &&
         at(server, 'l') == at(client, 'm') + at(client, 'l') &&
         at(server, 'a') == at(client, 'a') && at(server, 'c') == at(client, 'c');
}

std::map<char, std::uint64_t> server_tiers(std::string_view stats) {
  std::map<char, std::uint64_t> out;
  for (const char* t : {"memo", "lru", "atlas", "cold"}) {
    const auto v = json_number(stats, t, "\"tiers\":");
    out[t[0]] = v ? static_cast<std::uint64_t>(*v) : 0;
  }
  return out;
}

namespace {

/// Replace the number after `"key":` in `line` with `value`.
std::string with_number(std::string line, std::string_view key, double value) {
  const std::string pattern = "\"" + std::string(key) + "\":";
  const auto at = line.find(pattern) + pattern.size();
  auto end = line.find_first_of(",}]", at);
  line.replace(at, end - at, number(value));
  return line;
}

/// Scale the `index`th period of `line` by (1 + rel).
std::string with_period_scaled(std::string line, std::size_t index,
                               double rel) {
  auto at = line.find("\"periods\":[") + 11;
  for (std::size_t i = 0; i < index; ++i) at = line.find(',', at) + 1;
  const auto end = line.find_first_of(",]", at);
  const double v = std::stod(line.substr(at, end - at));
  line.replace(at, end - at, number(v * (1.0 + rel)));
  return line;
}

/// The program's own v2 answer to `q`, rendered exactly as csserve does.
std::string answer_for(cs::engine::Engine& engine, const Query& q,
                       cs::engine::ServeTier tier) {
  cs::engine::WireRequest req;
  req.version = cs::engine::kProtocolV2;
  req.solve.life = q.life.spec();
  req.solve.c = q.c;
  req.max_periods = 4096;
  const auto r = engine.solve(req.solve);
  if (!r.ok()) throw std::runtime_error("self-test solve failed");
  return cs::engine::make_solve_response(req, *r.value(), false, tier);
}

}  // namespace

bool self_test() {
  cs::engine::Engine engine;
  // E(S;p) is within 2% of the mean lifespan when c is tiny, so a small
  // upward perturbation of "expected" crosses the mean-lifespan bound.
  const Query near_mean{{Family::Uniform, 1000.0, 0.0}, 0.05};
  const Query q{{Family::Weibull, 2.0, 500.0}, 4.0};
  const std::string good = answer_for(engine, q, cs::engine::ServeTier::Cold);
  const std::string good_mean =
      answer_for(engine, near_mean, cs::engine::ServeTier::Cold);
  const auto parsed = parse_answer(good);
  if (!parsed) throw std::runtime_error("self-test answer does not parse");

  bool all = true;
  const auto report = [&all](const char* what, int check, bool as_expected) {
    std::cout << "selftest: " << check_name(check) << ": " << what << ": "
              << (as_expected ? "ok" : "FAILED") << '\n';
    all = all && as_expected;
  };
  const auto fires = [](const Query& query, const std::string& line, int check) {
    Failures f{};
    (void)check_answer(query, line, f);
    return f[check] > 0;
  };

  Failures clean{};
  (void)check_answer(q, good, clean);
  (void)check_answer(near_mean, good_mean, clean);
  bool none = true;
  for (const auto n : clean) none = none && n == 0;
  report("unperturbed answers pass every check", kWellFormed, none);

  report("expected * (1 + 1e-7)", kRecompute,
         fires(q, with_number(good, "expected", parsed->expected * (1 + 1e-7)),
               kRecompute));
  // The schedule is stationary for E in each period (system 3.6), so a
  // period perturbation moves E only to second order: 1e-3 moves it ~1e-6.
  report("period 3 * (1 + 1e-3)", kRecompute,
         fires(q, with_period_scaled(good, 3, 1e-3), kRecompute));
  report("t0 = bracket_hi * (1 + 1e-6)", kBracket,
         fires(q, with_number(good, "t0", parsed->bracket_hi * (1 + 1e-6)),
               kBracket));
  report("t0 = bracket_lo * (1 - 1e-6)", kBracket,
         fires(q, with_number(good, "t0", parsed->bracket_lo * (1 - 1e-6)),
               kBracket));
  const auto pm = parse_answer(good_mean);
  report("expected * 1.03 near the mean lifespan", kMeanBound,
         fires(near_mean,
               with_number(good_mean, "expected", pm->expected * 1.03),
               kMeanBound));
  std::string other_life = good;
  other_life.replace(other_life.find("scale=500"), 9, "scale=500.5");
  report("answered life differs from the request", kWellFormed,
         fires(q, other_life, kWellFormed));

  // A hit whose schedule differs from the key's first answer.
  report("hit with period 1 * (1 + 1e-9) differs", kConsistent,
         schedule_digest(with_period_scaled(good, 1, 1e-9)) !=
             schedule_digest(good));

  // One tier counter off by one.
  const std::map<char, std::uint64_t> client{{'m', 5}, {'l', 3}, {'c', 2}};
  auto server = client;
  server['l'] += client.at('m');
  report("matching tallies pass", kTally,
         tallies_match(client, server));
  server['l'] += 1;
  report("one lru count + 1", kTally, !tallies_match(client, server));

  // An answer served with a bound tighter than its real error.
  const double exact = parsed->expected;
  report("the direct answer passes a 1e-9 bound", kAtlasBound,
         !check_atlas(q, exact, 1e-9).violated);
  report("expected * (1 - 1e-6) with atlas_err 1e-7", kAtlasBound,
         check_atlas(q, exact * (1 - 1e-6), 1e-7).violated);
  return all;
}

}  // namespace pb
