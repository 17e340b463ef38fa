// pbench: the benchmark program (wire client, checks, layer timings).
//
//   pbench wire --workload W --seed S --seconds T --port P --pid PID
//               --launch-ns NS [--labels 1] [--ping 1]
//               [--spans-out F]
//       Drive a running csserve (started by run.py at monotonic time NS)
//       through the workload's warm-up and timed phase, check every
//       answer, and print one JSON object of results.
//   pbench layers --workload W --seed S [--spans-out F]
//       Time the public calls of each layer in-process on the workload's
//       own queries; print one JSON object of per-layer means.
//   pbench selftest
//       Perturb one answer per check and show that each check fires.
#include <algorithm>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "check.hpp"
#include "corpus.hpp"
#include "layers.hpp"
#include "wire.hpp"

namespace pb {
namespace {

struct Args {
  std::map<std::string, std::string> v;
  [[nodiscard]] std::string str(const std::string& k) const {
    const auto it = v.find(k);
    if (it == v.end()) throw std::invalid_argument("missing --" + k);
    return it->second;
  }
  [[nodiscard]] long long num(const std::string& k, long long fallback) const {
    const auto it = v.find(k);
    return it == v.end() ? fallback : std::stoll(it->second);
  }
};

/// On-CPU nanoseconds of every thread of `pid` (user + system), from
/// /proc/<pid>/task/*/schedstat.
std::int64_t process_cpu_ns(long pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) throw std::runtime_error("cannot read " + dir);
  std::int64_t total = 0;
  while (const dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    std::int64_t ns = 0;
    if (in >> ns) total += ns;
  }
  closedir(d);
  return total;
}

/// Peak resident set (VmHWM) of `pid` in MB.
double peak_rss_mb(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
}

constexpr std::int64_t kWindowNs = 50'000'000;

/// Closed-loop connections, one per csserve solver worker: on one
/// connection only one worker is busy at a time and the run-to-run spread
/// of atlas_sweep's throughput doubled.
constexpr int kConns = 2;

/// Nearest-rank quantile of sorted `v`.
double quantile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto i = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, i == 0 ? 0 : i - 1)];
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// A flat JSON object builder with full-precision numbers.
struct Json {
  std::ostringstream os;
  bool first = true;
  Json() { os << '{'; }
  Json& key(const std::string& k) {
    os << (first ? "" : ",") << '"' << k << "\":";
    first = false;
    return *this;
  }
  Json& num(const std::string& k, double v) {
    key(k);
    os << number(v);
    return *this;
  }
  Json& raw(const std::string& k, const std::string& v) {
    key(k);
    os << v;
    return *this;
  }
  std::string done() { return os.str() + "}"; }
};

int run_wire(const Args& a) {
  Corpus corpus(a.str("workload"), static_cast<std::uint64_t>(a.num("seed", 1)));
  const long pid = static_cast<long>(a.num("pid", 0));
  const std::int64_t launch_ns = a.num("launch-ns", 0);
  const double seconds = static_cast<double>(a.num("seconds", 10));
  const bool labels = a.num("labels", 0) != 0;
  WireClient client(static_cast<int>(a.num("port", 0)), kConns);

  // Every answer is kept as a digest; the first answer of each key is kept
  // whole, and every later answer of that key must carry the same schedule.
  std::vector<std::string> first_text;
  std::vector<std::uint64_t> first_digest;
  std::map<char, std::uint64_t> tally;
  const auto keep = [&](const Answer& ans, std::string_view line) {
    if (ans.key >= first_text.size()) {
      first_text.resize(corpus.queries.size());
      first_digest.resize(corpus.queries.size());
    }
    if (first_text[ans.key].empty()) {
      first_text[ans.key] = line;
      first_digest[ans.key] = ans.digest;
    }
    ++tally[ans.tier];
  };

  const std::int64_t warm_start = now_ns();
  const std::int64_t warm_cpu0 = process_cpu_ns(pid);
  std::vector<Answer> warm;
  std::size_t wi = 0;
  client.run({[&]() -> std::int64_t {
                if (wi == corpus.warmup.size()) return -1;
                return corpus.warmup[wi++];
              },
              [&](std::uint32_t key, std::uint64_t) { return corpus.line(key); }},
             warm, keep);
  const std::int64_t setup_end = now_ns();
  const std::int64_t warm_cpu1 = process_cpu_ns(pid);

  const std::string stats_line = "{\"v\":2,\"cmd\":\"stats\"}\n";
  const std::string stats0 = client.call(stats_line);
  const std::int64_t cpu0 = process_cpu_ns(pid);
  std::vector<Answer> timed;
  std::vector<std::uint32_t> round;
  std::size_t ri = 0;
  // Throughput is sampled per window of at least kWindowNs, at round
  // boundaries; the run reports the median window, which a stall of the
  // shared host (a descheduled vCPU) does not move.
  struct Window {
    std::int64_t t;
    std::size_t answered;
  };
  std::vector<Window> windows;
  const std::int64_t start = now_ns();
  windows.push_back({start, 0});
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  client.run({[&]() -> std::int64_t {
                // Whole rounds only, so every run has the same failure share.
                if (ri == round.size()) {
                  const std::int64_t now = now_ns();
                  if (now >= windows.back().t + kWindowNs)
                    windows.push_back({now, timed.size()});
                  if (now >= deadline) return -1;
                  round = corpus.next_round();
                  ri = 0;
                }
                return round[ri++];
              },
              [&](std::uint32_t key, std::uint64_t seq) {
                return corpus.line(key, labels ? hex16(seq + 1) : std::string());
              }},
             timed, keep);
  const std::int64_t end = now_ns();
  const std::int64_t cpu1 = process_cpu_ns(pid);
  const std::string stats1 = client.call(stats_line);

  double ping_us = 0.0;
  if (a.num("ping", 0) != 0) {
    std::vector<double> rtt;
    for (int i = 0; i < 2000; ++i) {
      const std::int64_t t = now_ns();
      (void)client.call("{\"v\":2,\"cmd\":\"ping\"}\n");
      rtt.push_back(static_cast<double>(now_ns() - t) / 1e3);
    }
    std::sort(rtt.begin(), rtt.end());
    ping_us = quantile(rtt, 0.5);
  }
  const double rss_mb = peak_rss_mb(pid);

  if (a.v.count("spans-out") != 0) {
    std::ofstream out(a.str("spans-out"));
    for (const Answer& ans : timed) {
      out << "{\"trace\":\"" << hex16(ans.seq + 1) << "\",\"name\":\"client\",\"tag\":\""
          << ans.tier << "\",\"start\":" << ans.send_ns << ",\"end\":" << ans.recv_ns
          << "}\n";
    }
  }

  // ---- checks, after timing ----
  Failures fail{};
  std::vector<std::optional<Parsed>> parsed(first_text.size());
  for (std::size_t k = 0; k < first_text.size(); ++k) {
    if (!first_text[k].empty())
      parsed[k] = check_answer(corpus.queries[k], first_text[k], fail);
  }
  for (const auto* phase : {&warm, &timed}) {
    for (const Answer& ans : *phase) {
      if (ans.digest != first_digest[ans.key]) ++fail[kConsistent];
    }
  }
  const auto server = server_tiers(stats1);
  if (!tallies_match(tally, server)) {
    ++fail[kTally];
    for (const auto& [t, n] : tally)
      std::cerr << "pbench: tier " << t << ": client " << n << ", server "
                << (server.count(t) != 0 ? server.at(t) : 0) << '\n';
  }

  // Atlas answers: error against a direct solve, per key, on all cores.
  std::vector<std::uint32_t> atlas_keys;
  for (const Answer& ans : timed) {
    if (parsed[ans.key] && parsed[ans.key]->atlas_err) atlas_keys.push_back(ans.key);
  }
  std::sort(atlas_keys.begin(), atlas_keys.end());
  atlas_keys.erase(std::unique(atlas_keys.begin(), atlas_keys.end()), atlas_keys.end());
  std::vector<AtlasVerdict> verdict(first_text.size());
  {
    const unsigned n = std::max(1U, std::min(4U, std::thread::hardware_concurrency()));
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < n; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t i = t; i < atlas_keys.size(); i += n) {
          const auto k = atlas_keys[i];
          verdict[k] = check_atlas(corpus.queries[k], parsed[k]->expected,
                                   *parsed[k]->atlas_err);
        }
      });
    }
    for (auto& th : pool) th.join();
  }
  std::uint64_t failed = 0;
  for (const Answer& ans : timed) failed += verdict[ans.key].violated ? 1 : 0;
  std::size_t violating = 0;
  std::uint32_t worst = 0;
  double worst_ratio = 0.0;
  for (const std::uint32_t k : atlas_keys) {
    if (!verdict[k].violated) continue;
    ++violating;
    const double ratio = verdict[k].rel_err / *parsed[k]->atlas_err;
    if (ratio > worst_ratio) worst_ratio = ratio, worst = k;
  }
  if (violating != 0)
    std::cerr << "pbench: atlas bound exceeded by " << violating << " key(s); worst "
              << corpus.queries[worst].key() << " error " << verdict[worst].rel_err
              << " > atlas_err " << *parsed[worst]->atlas_err << '\n';

  bool correct = true;
  Json failures;
  for (int c = 0; c < kNumChecks; ++c) {
    const std::uint64_t n = c == kAtlasBound ? failed : fail[c];
    failures.num(check_name(c), static_cast<double>(n));
    if (c != kAtlasBound && n != 0) {
      correct = false;
      std::cerr << "pbench: check " << check_name(c) << " failed " << n << " time(s)\n";
    }
  }

  std::vector<double> rate;
  for (std::size_t i = 1; i < windows.size(); ++i) {
    const auto& w0 = windows[i - 1];
    const auto& w1 = windows[i];
    rate.push_back(static_cast<double>(w1.answered - w0.answered) /
                   (static_cast<double>(w1.t - w0.t) / 1e9));
  }
  std::sort(rate.begin(), rate.end());
  std::vector<double> lat;
  lat.reserve(timed.size());
  for (const Answer& ans : timed) lat.push_back(static_cast<double>(ans.recv_ns - ans.send_ns) / 1e3);
  std::sort(lat.begin(), lat.end());
  const auto delta = [&](std::string_view key, std::string_view after = {}) {
    return json_number(stats1, key, after).value_or(0.0) -
           json_number(stats0, key, after).value_or(0.0);
  };
  const double n = static_cast<double>(timed.size());
  // The stats "lru" counter also counts memo answers (see tallies_match).
  const double memo = delta("memo", "\"tiers\":");
  const double lru = delta("lru", "\"tiers\":") - memo;
  const double atlas = delta("atlas", "\"tiers\":"), cold = delta("cold", "\"tiers\":");
  const double lookups = delta("memo_lookups");

  Json out;
  out.raw("correct", correct ? "true" : "false")
      .num("attempted", n)
      .num("failed", static_cast<double>(failed))
      .num("warmup_requests", static_cast<double>(warm.size()))
      .num("setup_s", static_cast<double>(setup_end - launch_ns) / 1e9)
      .num("warmup_s", static_cast<double>(setup_end - warm_start) / 1e9)
      .num("warmup_server_cpu_s", static_cast<double>(warm_cpu1 - warm_cpu0) / 1e9)
      .num("timed_s", static_cast<double>(end - start) / 1e9)
      .num("req_per_s", quantile(rate, 0.5))
      .num("req_per_s_whole", n / (static_cast<double>(end - start) / 1e9))
      .num("windows", static_cast<double>(rate.size()))
      .num("latency_p50_us", quantile(lat, 0.50))
      .num("latency_p99_us", quantile(lat, 0.99))
      .num("latency_samples", n)
      .num("server_cpu_us_per_req", static_cast<double>(cpu1 - cpu0) / 1e3 / n)
      .num("server_peak_rss_mb", rss_mb)
      .num("tier.memo", memo)
      .num("tier.lru", lru)
      .num("tier.atlas", atlas)
      .num("tier.cold", cold)
      .num("engine.memo_hit_ratio", lookups > 0 ? memo / lookups : 0.0)
      .num("engine.atlas_served_ratio", atlas + cold > 0 ? atlas / (atlas + cold) : 0.0)
      .num("engine.lru_evictions", delta("evictions", "\"engine\":"))
      .num("net.ping_rtt_us", ping_us)
      .raw("failures", failures.done());
  std::cout << out.done() << std::endl;
  return 0;
}

int run_layers(const Args& a) {
  Corpus corpus(a.str("workload"), static_cast<std::uint64_t>(a.num("seed", 1)));
  const std::string spans = a.v.count("spans-out") ? a.str("spans-out") : "";
  std::cout << time_layers(corpus, spans) << std::endl;
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      std::cerr << "usage: pbench wire|layers|selftest [--key value ...]\n";
      return 2;
    }
    const std::string mode = argv[1];
    pb::Args args;
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string k = argv[i];
      if (k.rfind("--", 0) != 0) throw std::invalid_argument("unexpected '" + k + "'");
      args.v[k.substr(2)] = argv[i + 1];
    }
    if (mode == "wire") return pb::run_wire(args);
    if (mode == "layers") return pb::run_layers(args);
    if (mode == "selftest") return pb::self_test() ? 0 : 1;
    throw std::invalid_argument("unknown mode '" + mode + "'");
  } catch (const std::exception& err) {
    std::cerr << "pbench: " << err.what() << '\n';
    return 1;
  }
}
