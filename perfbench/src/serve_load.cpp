// serve_mixed workload: sgp-serve's Server in its long-lived daemon mode
// (AF_UNIX transport, persist dir, kJobs engine workers) driven by one
// generator over two connections. Each round starts a fresh daemon on an
// empty store and replays the same seeded request sequence: a
// closed-loop phase with a fixed outstanding window (capacity), then an
// open-loop phase at a fixed rate (latency, timed from each request's
// scheduled send time).
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>
#include <thread>

#include "kernels/register_all.hpp"
#include "machine/registry.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// Request mix. Distinct contents are drawn Zipf(kZipfS) per request, so
// popular contents hit the memo and coalesce while the long tail misses.
constexpr std::size_t kTemplates = 1500;
constexpr double kZipfS = 1.0;
constexpr double kInvalidShare = 0.03;
constexpr std::size_t kInvalidTemplates = 40;

// Load shape per round.
constexpr std::size_t kClosedRequests = 2000;
constexpr std::size_t kWindow = 32;  ///< closed-loop outstanding requests
/// Open-loop rate (requests/s): fixed, so two commits are compared at
/// the same offered load. About half the closed-loop capacity measured
/// in contended periods on the 4-core host that defined this benchmark
/// (800-6000 requests/s between quiet and contended periods), so the
/// queue stays short in both.
constexpr double kOpenRate = 400.0;
constexpr std::size_t kOpenRequests = 600;
/// A request unanswered this long after the round's last send is lost.
constexpr double kResponseTimeoutMs = 20000.0;

constexpr const char* kSocket = "serve.sock";

struct Template {
  std::string body;      ///< JSON members after the id
  std::string expected;  ///< reference response after the id
  std::string code;      ///< expected error code; empty for valid lines
};

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? "," : "") + items[i];
  }
  return out + "]";
}

/// Distinct values drawn from [lo, hi] (inclusive), at most `n`.
std::vector<int> distinct_ints(Rng& rng, int lo, int hi, std::size_t n) {
  std::vector<int> pool;
  for (int v = lo; v <= hi; ++v) pool.push_back(v);
  for (std::size_t i = 0; i < pool.size() && i < n; ++i) {
    std::swap(pool[i], pool[i + rng.below(pool.size() - i)]);
  }
  pool.resize(std::min(n, pool.size()));
  return pool;
}

/// Request sizes by popularity rank come from this fixed seed, so every
/// --seed offers the same amount of work; the seed picks the contents.
constexpr std::uint64_t kSizeSeed = 0x5e7e5eedULL;

/// Target grid size (evaluation points) of the template at the next
/// popularity rank; 0 means a one-point simulate request.
std::size_t next_size(Rng& sizes) {
  if (sizes.unit() < 0.15) return 0;
  const double size_class = sizes.unit();
  return size_class < 0.5    ? 1 + sizes.below(8)
         : size_class < 0.85 ? 9 + sizes.below(56)
                             : 65 + sizes.below(256);
}

/// One valid simulate (`size` 0) or sweep request body.
std::string valid_body(Rng& rng, std::size_t size,
                       const std::vector<std::string>& machines,
                       const std::vector<std::string>& kernels) {
  const std::string& name = machines[rng.below(machines.size())];
  const int cores = machine::shared_registry().descriptor(name).num_cores;
  const bool simulate = size == 0;
  const std::size_t target = std::max<std::size_t>(size, 1);
  const bool both = !simulate && target > 1 && rng.unit() < 0.5;
  const std::size_t precisions = both ? 2 : 1;
  const std::size_t threads = std::min<std::size_t>(
      {1 + rng.below(6), static_cast<std::size_t>(cores),
       std::max<std::size_t>(1, target / precisions)});
  const std::size_t nk = std::clamp<std::size_t>(
      target / (precisions * threads), 1, kernels.size());

  std::vector<std::string> ks;
  for (const int i : distinct_ints(rng, 0, static_cast<int>(kernels.size()) - 1,
                                   simulate ? 1 : nk)) {
    ks.push_back(quoted(kernels[static_cast<std::size_t>(i)]));
  }
  std::vector<std::string> ts;
  for (const int t : distinct_ints(rng, 1, cores, simulate ? 1 : threads)) {
    ts.push_back(std::to_string(t));
  }
  std::string b = "\"op\":" + quoted(simulate ? "simulate" : "sweep") +
                  ",\"machine\":" + quoted(name) +
                  ",\"kernels\":" + json_list(ks) + ",\"precision\":" +
                  quoted(both ? "both" : rng.unit() < 0.5 ? "fp32" : "fp64") +
                  ",\"threads\":" + json_list(ts);
  // GCC generates only VLS vector code; VLA needs clang.
  const bool clang = rng.unit() < 0.2;
  if (clang) b += ",\"compiler\":\"clang\"";
  if (rng.unit() < 0.3) {
    static const char* modes[] = {"scalar", "vls", "vla"};
    b += ",\"vector\":" + quoted(modes[rng.below(clang ? 3 : 2)]);
  }
  if (rng.unit() < 0.4) {
    static const char* places[] = {"block", "cyclic", "cluster"};
    b += ",\"placement\":" + quoted(places[rng.below(3)]);
  }
  b += ",\"format\":" + quoted(rng.unit() < 0.5 ? "csv" : "json");
  return b;
}

/// One invalid request body and the error code it must produce.
std::pair<std::string, std::string> invalid_body(
    Rng& rng, const std::vector<std::string>& machines,
    const std::vector<std::string>& kernels) {
  const std::string& name = machines[rng.below(machines.size())];
  const int cores = machine::shared_registry().descriptor(name).num_cores;
  const std::string kernel = quoted(kernels[rng.below(kernels.size())]);
  switch (rng.below(4)) {
    case 0:
      return {"\"op\":\"sweep\",\"machine\":\"" + name +
                  "-x\",\"kernels\":[" + kernel + "]",
              "bad-request"};
    case 1:
      return {"\"op\":\"sweep\",\"machine\":" + quoted(name) +
                  ",\"kernels\":[" + kernel + "],\"threads\":" +
                  std::to_string(cores + 1 + static_cast<int>(rng.below(8))),
              "bad-request"};
    case 2:
      return {"\"op\":\"sweep\",\"machine\":" + quoted(name) +
                  ",\"kernels\":[\"NOPE_" + std::to_string(rng.below(100)) +
                  "\"]",
              "bad-request"};
    default: {
      // Every kernel at both precisions over more thread counts than
      // max_points (4096) allows: too large on any machine with >= 33
      // cores, else a repeated-kernel bad request.
      std::vector<std::string> all;
      for (const auto& k : kernels) all.push_back(quoted(k));
      if (cores < 33) all.push_back(all.front());
      std::vector<std::string> ts;
      for (int t = 1; t <= cores; ++t) ts.push_back(std::to_string(t));
      return {"\"op\":\"sweep\",\"machine\":" + quoted(name) +
                  ",\"kernels\":" + json_list(all) +
                  ",\"precision\":\"both\",\"threads\":" + json_list(ts),
              cores < 33 ? "bad-request" : "too-large"};
    }
  }
}

std::string line_for(const std::string& id, const Template& t) {
  return "{\"id\":" + quoted(id) + "," + t.body + "}";
}

/// The id of a response line and the rest of the line after it.
bool split_response(const std::string& line, std::string& id,
                    std::string& rest) {
  static const std::string head = "{\"id\":\"";
  if (line.rfind(head, 0) != 0) return false;
  const std::size_t end = line.find('"', head.size());
  if (end == std::string::npos) return false;
  id = line.substr(head.size(), end - head.size());
  rest = line.substr(end + 1);
  return true;
}

bool matches(const Template& t, const std::string& rest) {
  if (t.code.empty()) return rest == t.expected;
  return rest.find("\"ok\":false") != std::string::npos &&
         rest.find("\"code\":" + quoted(t.code)) != std::string::npos;
}

/// Reference answers from a separate serial in-process server.
void compute_references(std::vector<Template>& templates) {
  serve::ServerOptions opt;
  opt.jobs = 1;
  opt.max_queue = templates.size() + 1;
  opt.warn = false;
  std::mutex mu;
  std::vector<std::string> answers(templates.size());
  {
    serve::Server server(opt);
    for (std::size_t i = 0; i < templates.size(); ++i) {
      server.submit_line(line_for("ref" + std::to_string(i), templates[i]),
                         [&, i](std::string line) {
                           const std::lock_guard<std::mutex> lk(mu);
                           answers[i] = std::move(line);
                         });
    }
    server.drain();
  }
  for (std::size_t i = 0; i < templates.size(); ++i) {
    std::string id;
    std::string rest;
    split_response(answers[i], id, rest);
    templates[i].expected = rest;
  }
}

int connect_socket(double timeout_ms) {
  const auto t0 = Clock::now();
  while (ms_since(t0) < timeout_ms) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, kSocket, sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return -1;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (fd >= 0 && off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return fd >= 0;
}

/// Sends the shutdown request over `fd`, or straight into the server
/// when the connection is gone, so run_unix_socket always returns.
void stop_daemon(serve::Server& server, int fd) {
  const std::string stop = "{\"id\":\"stop\",\"op\":\"shutdown\"}";
  if (!send_all(fd, stop + "\n")) server.submit_line(stop, [](std::string) {});
}

/// Per-request bookkeeping of one round.
struct Slot {
  std::size_t tmpl = 0;
  Clock::time_point scheduled{};
  Clock::time_point received{};
  bool sent = false;
  bool done = false;
  bool ok = false;
};

struct RoundResult {
  double closed_rps = 0.0;
  double wall_ms = 0.0;
  std::vector<double> latency_ms;  ///< open-loop, failures as +inf
  std::vector<double> late_ms;     ///< generator lateness, open loop
  std::vector<double> parse_us;    ///< traced rounds only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::uint64_t rejected_overload = 0;
  std::size_t segment_files = 0;
};

/// One daemon lifetime: start, closed loop, open loop, shutdown.
RoundResult run_round(const Config& cfg, std::size_t round,
                      const std::vector<Template>& templates,
                      const std::vector<std::size_t>& sequence, bool traced,
                      LayerProfile* profile) {
  RoundResult out;
  const std::string store = cfg.work + "/serve-store";
  fresh_dir(store);
  serve::ServerOptions opt;
  opt.jobs = kJobs;
  opt.persist_dir = store;
  opt.warn = false;
  serve::Server server(opt);
  std::thread server_thread([&] { server.run_unix_socket(kSocket); });

  std::vector<Slot> slots(sequence.size());
  for (std::size_t i = 0; i < slots.size(); ++i) slots[i].tmpl = sequence[i];
  const std::string prefix = std::to_string(round) + ".";
  std::mutex mu;
  std::condition_variable cv;
  std::size_t outstanding = 0;
  std::size_t answered = 0;
  std::atomic<bool> stop_readers{false};

  int fds[2] = {connect_socket(5000.0), connect_socket(5000.0)};
  auto reader = [&](int fd) {
    std::string buf;
    char chunk[1 << 16];
    while (!stop_readers.load()) {
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) continue;
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl = buf.find('\n'); nl != std::string::npos;
           nl = buf.find('\n', start)) {
        const auto now = Clock::now();
        const std::string line = buf.substr(start, nl - start);
        start = nl + 1;
        std::string id;
        std::string rest;
        std::size_t seq = slots.size();
        if (split_response(line, id, rest) && id.rfind(prefix, 0) == 0) {
          std::from_chars(id.data() + prefix.size(), id.data() + id.size(),
                          seq);
        }
        if (seq >= slots.size()) continue;  // the shutdown answer
        const std::lock_guard<std::mutex> lk(mu);
        Slot& s = slots[seq];
        s.received = now;
        s.done = true;
        s.ok = matches(templates[s.tmpl], rest);
        if (!s.ok && rest.find("\"overloaded\"") != std::string::npos) {
          ++out.rejected_overload;
        }
        --outstanding;
        ++answered;
        cv.notify_all();
      }
      buf.erase(0, start);
    }
  };
  std::thread readers[2];
  for (int c = 0; c < 2; ++c) {
    if (fds[c] >= 0) readers[c] = std::thread(reader, fds[c]);
  }

  const serve::ProtocolLimits limits;
  auto send = [&](std::size_t seq) {
    const std::string line = line_for(prefix + std::to_string(seq),
                                      templates[slots[seq].tmpl]);
    if (traced) {
      const auto p0 = Clock::now();
      serve::parse_request(line, limits);
      out.parse_us.push_back(ms_since(p0) * 1000.0);
    }
    {
      const std::lock_guard<std::mutex> lk(mu);
      ++outstanding;
      slots[seq].sent = true;
    }
    const int fd = fds[seq % 2];
    if (fd < 0 || !send_all(fd, line + "\n")) {
      const std::lock_guard<std::mutex> lk(mu);
      --outstanding;
      slots[seq].sent = false;
    }
  };
  auto wait_all = [&](std::size_t upto) {
    std::unique_lock<std::mutex> lk(mu);
    std::size_t expected = 0;
    for (std::size_t i = 0; i < upto; ++i) expected += slots[i].sent ? 1 : 0;
    cv.wait_for(lk,
                std::chrono::duration<double, std::milli>(kResponseTimeoutMs),
                [&] { return answered >= expected; });
  };

  if (traced) profile->begin();
  const auto t_begin = Clock::now();

  // Closed loop: keep kWindow requests outstanding.
  for (std::size_t seq = 0; seq < kClosedRequests; ++seq) {
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait_for(lk,
                  std::chrono::duration<double, std::milli>(kResponseTimeoutMs),
                  [&] { return outstanding < kWindow; });
    }
    send(seq);
  }
  wait_all(kClosedRequests);
  Clock::time_point closed_end = t_begin;
  {
    const std::lock_guard<std::mutex> lk(mu);
    for (std::size_t i = 0; i < kClosedRequests; ++i) {
      closed_end = std::max(closed_end, slots[i].received);
    }
  }
  out.closed_rps = static_cast<double>(kClosedRequests) /
                   (ms_between(t_begin, closed_end) / 1000.0);

  // Open loop: send on schedule whatever the server's state.
  const auto t_open = Clock::now();
  const double gap_ms = 1000.0 / kOpenRate;
  for (std::size_t k = 0; k < kOpenRequests; ++k) {
    const std::size_t seq = kClosedRequests + k;
    const auto due =
        t_open + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(gap_ms * k));
    std::this_thread::sleep_until(due);
    slots[seq].scheduled = due;
    out.late_ms.push_back(ms_since(due));
    send(seq);
  }
  wait_all(slots.size());

  // Shutdown drains, flushes the store and stops the transport.
  stop_daemon(server, fds[0]);
  server_thread.join();
  out.wall_ms = ms_since(t_begin);
  if (traced) profile->end(out.wall_ms, slots.size());
  stop_readers.store(true);
  for (auto& r : readers) {
    if (r.joinable()) r.join();
  }
  for (const int fd : fds) {
    if (fd >= 0) ::close(fd);
  }

  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Slot& s = slots[i];
    ++out.attempted;
    if (!s.done || !s.ok) {
      ++out.failed;
      if (out.errors.size() < 4) {
        out.errors.push_back("serve request " + std::to_string(i) +
                             (s.done ? " answered wrongly" : " unanswered"));
      }
    }
    if (i >= kClosedRequests) {
      out.latency_ms.push_back(s.done && s.ok
                                   ? ms_between(s.scheduled, s.received)
                                   : std::numeric_limits<double>::infinity());
    }
  }
  out.segment_files = segment_files(store);
  return out;
}

}  // namespace

void run_serve(const Config& cfg, Report& rep) {
  std::vector<Template> templates;
  std::vector<std::size_t> sequence;

  // Set-up: machine packs, the seeded request mix, reference answers on
  // a separate serial server, and one daemon start (socket bind).
  SetupRuns setup(cfg, [&](int r) {
    load_machine_packs(cfg, r, rep);
    const auto machines = machine::shared_registry().names();
    std::vector<std::string> kernels;
    for (const auto& sig : kernels::all_signatures()) {
      kernels.push_back(sig.name);
    }

    Rng rng(cfg.seed);
    Rng sizes(kSizeSeed);
    templates.clear();
    for (std::size_t i = 0; i < kTemplates; ++i) {
      templates.push_back(
          {valid_body(rng, next_size(sizes), machines, kernels), {}, {}});
    }
    for (std::size_t i = 0; i < kInvalidTemplates; ++i) {
      auto [body, code] = invalid_body(rng, machines, kernels);
      templates.push_back({std::move(body), {}, std::move(code)});
    }
    compute_references(templates);
    for (const auto& t : templates) {
      const bool ok = t.code.empty()
                          ? t.expected.find("\"ok\":true") != std::string::npos
                          : matches(t, t.expected);
      rep.check(ok, "reference answer for {" + t.body + "}: " + t.expected);
    }

    // Zipf over valid contents, plus a uniform share of invalid lines.
    std::vector<double> cdf(kTemplates);
    double acc = 0.0;
    for (std::size_t k = 0; k < kTemplates; ++k) {
      acc += 1.0 / std::pow(static_cast<double>(k + 1), kZipfS);
      cdf[k] = acc;
    }
    sequence.clear();
    for (std::size_t i = 0; i < kClosedRequests + kOpenRequests; ++i) {
      if (rng.unit() < kInvalidShare) {
        sequence.push_back(kTemplates + rng.below(kInvalidTemplates));
        continue;
      }
      const double u = rng.unit() * acc;
      sequence.push_back(static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()));
    }

    {
      serve::ServerOptions opt;
      opt.jobs = kJobs;
      opt.warn = false;
      serve::Server server(opt);
      std::thread t([&] { server.run_unix_socket(kSocket); });
      const int fd = connect_socket(5000.0);
      rep.check(fd >= 0, "cannot connect to the daemon socket");
      stop_daemon(server, fd);
      t.join();
      if (fd >= 0) ::close(fd);
    }
  }, rep);

  LayerProfile profile;
  std::vector<double> rps;
  std::vector<double> round_p50;
  std::vector<double> late;
  std::vector<double> parse;
  LayerExtras extras;
  run_round(cfg, 0, templates, sequence, false, nullptr);  // warm-up
  const auto t0 = Clock::now();
  double setup_ms = 0.0;
  auto measured_ms = [&] { return ms_since(t0) - setup_ms; };
  for (std::size_t round = 1;
       round <= 2 || measured_ms() < cfg.seconds * 1000.0; ++round) {
    const bool traced = cfg.trace && round % 2 == 0;
    RoundResult res = run_round(cfg, round, templates, sequence, traced,
                                &profile);
    rep.attempted += res.attempted;
    rep.failed += res.failed;
    for (auto& e : res.errors) {
      if (rep.errors.size() < 8) rep.errors.push_back(std::move(e));
    }
    auto& lat = traced ? rep.traced_op_ms : rep.op_ms;
    lat.insert(lat.end(), res.latency_ms.begin(), res.latency_ms.end());
    if (!traced) {
      rps.push_back(res.closed_rps);
      round_p50.push_back(median(res.latency_ms));
    }
    late.insert(late.end(), res.late_ms.begin(), res.late_ms.end());
    parse.insert(parse.end(), res.parse_us.begin(), res.parse_us.end());
    extras.rejected_overload += res.rejected_overload;
    extras.segment_files = static_cast<double>(res.segment_files);
    setup_ms += setup.run_due(measured_ms());
  }
  setup.finish();

  rep.parts.push_back(std::move(round_p50));
  rep.parts_what = "part: the open-loop p50 latency of each round";
  rep.note("serve_rps", median(rps), "1/s",
           std::to_string(rps.size()) + " closed-loop rounds of " +
               std::to_string(kClosedRequests) + " requests, window " +
               std::to_string(kWindow));
  rep.note("serve_p50_ms", median(rep.op_ms), "ms",
           std::to_string(rep.op_ms.size()) + " open-loop requests at " +
               fmt_num(kOpenRate) + "/s");
  rep.note("serve_p99_ms", quantile(rep.op_ms, 0.99), "ms");
  if (cfg.trace) {
    extras.parse_us_p50 = median(parse);
    extras.parse_samples = parse.size();
    extras.gen_late_p99_ms = quantile(late, 0.99);
    extras.gen_late_samples = late.size();
    profile.emit(kJobs, extras, rep);
  }
}

}  // namespace perfbench
