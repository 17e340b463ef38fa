#include "layers.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <vector>

#include "core/expected_work.hpp"
#include "core/guideline.hpp"
#include "core/recurrence.hpp"
#include "core/t0_bounds.hpp"
#include "engine/engine.hpp"
#include "engine/protocol.hpp"
#include "lifefn/factory.hpp"
#include "wire.hpp"

namespace pb {
namespace {

/// Forwarding life function that counts the points it is evaluated at.
class CountingLife final : public cs::LifeFunction {
 public:
  CountingLife(const cs::LifeFunction& inner, std::uint64_t& points)
      : inner_(inner), points_(points) {}
  double survival(double t) const override {
    ++points_;
    return inner_.survival(t);
  }
  double derivative(double t) const override {
    ++points_;
    return inner_.derivative(t);
  }
  cs::Shape shape() const override { return inner_.shape(); }
  std::optional<double> lifespan() const override { return inner_.lifespan(); }
  std::string name() const override { return inner_.name(); }
  std::string spec() const override { return inner_.spec(); }
  std::unique_ptr<cs::LifeFunction> clone() const override {
    return std::make_unique<CountingLife>(inner_, points_);
  }
  bool has_exact_inverse() const noexcept override {
    return inner_.has_exact_inverse();
  }
  double inverse_survival(double u) const override {
    ++points_;
    return inner_.inverse_survival(u);
  }

 protected:
  void eval_many_impl(const double* xs, double* out, std::size_t n) const override {
    points_ += n;
    inner_.eval_many({xs, n}, {out, n});
  }
  void deriv_many_impl(const double* xs, double* out, std::size_t n) const override {
    points_ += n;
    inner_.deriv_many({xs, n}, {out, n});
  }

 private:
  const cs::LifeFunction& inner_;
  std::uint64_t& points_;
};

struct Span {
  const char* name;
  std::uint32_t key;
  std::int64_t start, end;
};

class Recorder {
 public:
  /// Run `fn` `reps` times, one span each.
  template <class Fn>
  void time(const char* name, std::uint32_t key, int reps, Fn&& fn) {
    for (int i = 0; i < reps; ++i) {
      const std::int64_t t0 = now_ns();
      fn();
      add(name, key, t0, now_ns());
    }
  }
  void add(const char* name, std::uint32_t key, std::int64_t start, std::int64_t end) {
    spans_.push_back({name, key, start, end});
  }
  void count(const std::string& name, double v) { counts_[name].push_back(v); }

  /// Mean span duration per name, in microseconds, plus mean counts.  Means,
  /// not medians, so that tier-weighted sums compare with the server's mean
  /// CPU per request.
  [[nodiscard]] std::map<std::string, double> summary() const {
    std::map<std::string, std::pair<double, double>> by;  // sum, count
    for (const Span& s : spans_) {
      auto& [sum, n] = by[std::string(s.name) + "_us"];
      sum += static_cast<double>(s.end - s.start) / 1e3;
      n += 1.0;
    }
    for (const auto& [name, v] : counts_) {
      auto& [sum, n] = by[name];
      for (const double x : v) sum += x;
      n += static_cast<double>(v.size());
    }
    std::map<std::string, double> out;
    for (const auto& [name, sn] : by) out[name] = sn.second > 0 ? sn.first / sn.second : 0.0;
    return out;
  }

  void write(const std::string& path) const {
    std::ofstream os(path);
    std::uint64_t id = 0;
    for (const Span& s : spans_) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"trace\":\"%016llx\",\"span\":\"%016llx\",\"name\":\"%s\","
                    "\"start\":%lld,\"end\":%lld}\n",
                    static_cast<unsigned long long>(s.key) + 1,
                    static_cast<unsigned long long>(++id), s.name,
                    static_cast<long long>(s.start), static_cast<long long>(s.end));
      os << buf;
    }
  }

 private:
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>> counts_;
};

cs::engine::SolveRequest solve_request(const std::string& spec, double c) {
  cs::engine::SolveRequest req;
  req.life = spec;
  req.c = c;
  return req;
}

template <class T>
void keep_alive(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

}  // namespace

std::string time_layers(Corpus& corpus, const std::string& spans_out) {
  // The workload's own queries: those of its timed rounds, then of its
  // warm-up, up to a sample that keeps this under a few seconds.
  constexpr std::size_t kSample = 192;
  std::vector<std::uint32_t> keys;
  std::set<std::uint32_t> seen;
  const auto take = [&](const std::vector<std::uint32_t>& from) {
    for (const auto k : from) {
      if (keys.size() < kSample && seen.insert(k).second) keys.push_back(k);
    }
  };
  for (int r = 0; r < 64 && keys.size() < kSample; ++r) take(corpus.next_round());
  take(corpus.warmup);

  Recorder rec;
  cs::engine::EngineOptions lru_opt;
  lru_opt.cache_capacity = 1 << 16;
  cs::engine::Engine engine(lru_opt);
  cs::engine::EngineOptions atlas_opt = lru_opt;
  atlas_opt.atlas.enabled = true;
  cs::engine::Engine atlas(atlas_opt);
  std::set<std::pair<std::string, long>> cells_touched;

  for (const std::uint32_t key : keys) {
    const Query& q = corpus.queries[key];
    const std::string spec = q.life.spec();
    std::string line = corpus.line(key);
    line.pop_back();
    const cs::engine::SolveRequest req = solve_request(spec, q.c);

    rec.time("engine.parse", key, 8, [&] { keep_alive(cs::engine::parse_request_line(line)); });
    rec.time("engine.canonicalize", key, 4, [&] { keep_alive(cs::engine::canonicalize(req)); });
    std::unique_ptr<cs::LifeFunction> p;
    rec.time("lifefn.make", key, 4, [&] { p = cs::make_life_function(spec); });
    rec.time("lifefn.spec", key, 4, [&] { keep_alive(p->spec()); });

    cs::T0Bracket bracket;
    rec.time("core.bracket", key, 1, [&] { bracket = cs::guideline_t0_bracket(*p, q.c); });
    cs::GuidelineResult g;
    rec.time("core.search", key, 1,
             [&] { g = cs::GuidelineScheduler(*p, q.c, {}, bracket).run(); });
    const cs::RecurrenceEngine expand(*p, q.c, cs::GuidelineOptions{}.recurrence);
    rec.time("core.expand", key, 1, [&] { keep_alive(expand.generate(g.chosen_t0)); });
    rec.time("core.expected_work", key, 4,
             [&] { keep_alive(cs::expected_work(g.schedule, *p, q.c)); });
    rec.count("core.periods_per_schedule", static_cast<double>(g.schedule.size()));
    std::uint64_t points = 0;
    const CountingLife counting(*p, points);
    keep_alive(cs::GuidelineScheduler(counting, q.c).run());
    rec.count("lifefn.evals_per_solve", static_cast<double>(points));

    // LRU: a warm engine, probed by canonical key; then the response render.
    const auto solved = engine.solve(req);
    if (!solved.ok()) throw std::runtime_error("layers: solve failed for " + q.key());
    const std::string ckey = cs::engine::canonicalize(req).key;
    rec.time("engine.lru_lookup", key, 4, [&] { keep_alive(engine.cached(ckey)); });
    cs::engine::WireRequest wreq;
    wreq.version = cs::engine::kProtocolV2;
    wreq.solve = req;
    wreq.max_periods = kMaxPeriods;
    rec.time("engine.render", key, 4, [&] {
      keep_alive(cs::engine::make_solve_response(wreq, *solved.value(), true,
                                                 cs::engine::ServeTier::Lru));
    });

    // Atlas: the first touch of a lattice cell builds it (three direct
    // solves); a second c in a built cell is a warm serve.
    const long cell = static_cast<long>(std::floor(std::log(q.c) / std::log(kAtlasRatio)));
    const bool first_touch = cells_touched.insert({spec, cell}).second;
    for (const double c : {q.c, q.c * (1.0 + 1e-6)}) {
      cs::engine::SolveInfo info;
      const std::int64_t t0 = now_ns();
      keep_alive(atlas.solve(solve_request(spec, c), &info));
      const std::int64_t t1 = now_ns();
      if (first_touch && c == q.c)
        rec.add("engine.atlas_cell_build", key, t0, t1);
      else if (info.tier == cs::engine::SolveTier::Atlas)
        rec.add("engine.atlas_serve", key, t0, t1);
    }
  }
  if (!spans_out.empty()) rec.write(spans_out);

  std::string out = "{";
  bool first = true;
  for (const auto& [name, v] : rec.summary()) {
    out += (first ? "\"" : ",\"") + name + "\":" + number(v);
    first = false;
  }
  return out + "}";
}

}  // namespace pb
