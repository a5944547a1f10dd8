#include "serve/server.hpp"

#include <cerrno>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "kernels/register_all.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/csv.hpp"

namespace sgp::serve {

namespace {

/// Points evaluated per engine batch between deadline checks, so a
/// passed deadline stops burning simulator time quickly.
constexpr std::size_t kChunkPoints = 32;

/// Evaluation abandoned because the group's deadline passed.
struct EvaluationCancelled {};

struct ServeMetrics {
  obs::Counter& lines = obs::registry().counter("serve.lines");
  obs::Counter& accepted = obs::registry().counter("serve.accepted");
  obs::Counter& responses = obs::registry().counter("serve.responses");
  obs::Counter& errors = obs::registry().counter("serve.errors");
  obs::Counter& parse_errors =
      obs::registry().counter("serve.parse_errors");
  obs::Counter& rejected_overload =
      obs::registry().counter("serve.rejected_overload");
  obs::Counter& rejected_shutdown =
      obs::registry().counter("serve.rejected_shutdown");
  obs::Counter& duplicate_ids =
      obs::registry().counter("serve.duplicate_ids");
  obs::Counter& deadline_exceeded =
      obs::registry().counter("serve.deadline_exceeded");
  obs::Counter& coalesced = obs::registry().counter("serve.coalesced");
  obs::Counter& batches = obs::registry().counter("serve.batches");
  obs::Counter& points = obs::registry().counter("serve.points");
  obs::Histogram& request_ns =
      obs::registry().histogram("serve.request_ns");
  obs::Histogram& batch_requests =
      obs::registry().histogram("serve.batch_requests");

  static ServeMetrics& get() {
    static ServeMetrics* m = new ServeMetrics();
    return *m;
  }
};

std::string bool_str(bool b) { return b ? "true" : "false"; }

}  // namespace

Server::Server(ServerOptions opt) : opt_(std::move(opt)) {
  worker_ = std::thread([this] { worker_loop(); });
}

Server::~Server() {
  drain();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_worker_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

bool Server::stopped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stopped_;
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void Server::submit_line(std::string line, Respond respond) {
  auto& metrics = ServeMetrics::get();
  metrics.lines.add();
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.lines;
  }
  auto reject = [&](const std::string& id, const ServeError& err) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.responses;
      ++stats_.errors;
      switch (err.code) {
        case ErrorCode::ParseError: ++stats_.parse_errors; break;
        case ErrorCode::Overloaded: ++stats_.rejected_overload; break;
        case ErrorCode::ShuttingDown: ++stats_.rejected_shutdown; break;
        case ErrorCode::DuplicateId: ++stats_.duplicate_ids; break;
        default: break;
      }
    }
    metrics.responses.add();
    metrics.errors.add();
    if (err.code == ErrorCode::ParseError) metrics.parse_errors.add();
    if (err.code == ErrorCode::Overloaded) {
      metrics.rejected_overload.add();
    }
    if (err.code == ErrorCode::ShuttingDown) {
      metrics.rejected_shutdown.add();
    }
    if (err.code == ErrorCode::DuplicateId) metrics.duplicate_ids.add();
    respond(render_error(id, err));
  };

  ParseOutcome outcome = parse_request(line, opt_.limits);
  if (auto* failed =
          std::get_if<std::pair<std::string, ServeError>>(&outcome)) {
    reject(failed->first, failed->second);
    return;
  }
  Request req = std::move(std::get<Request>(outcome));

  Pending p;
  p.admitted = std::chrono::steady_clock::now();
  if (req.deadline_ms) {
    req.deadline =
        p.admitted + std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             *req.deadline_ms));
  }
  std::optional<ServeError> rejection;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (draining_) {
      rejection = ServeError{
          ErrorCode::ShuttingDown,
          "server is shutting down; request rejected"};
    } else if (queue_.size() >= opt_.max_queue) {
      rejection = ServeError{
          ErrorCode::Overloaded,
          "queue full (" + std::to_string(opt_.max_queue) +
              " requests); retry later"};
    } else if (!inflight_ids_.insert(req.id).second) {
      rejection = ServeError{
          ErrorCode::DuplicateId,
          "request id '" + req.id + "' is already in flight"};
    } else {
      ++stats_.accepted;
      if (req.op == Op::Shutdown) draining_ = true;
      p.req = std::move(req);
      p.respond = std::move(respond);
      queue_.push_back(std::move(p));
      metrics.accepted.add();
    }
  }
  if (rejection) {
    reject(req.id, *rejection);
    return;
  }
  cv_.notify_one();
}

void Server::drain() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    paused_ = false;
    cv_.notify_all();
    cv_drained_.wait(lk, [&] {
      return queue_.empty() && !worker_busy_;
    });
  }
}

void Server::pause() {
  std::unique_lock<std::mutex> lk(mu_);
  paused_ = true;
  cv_drained_.wait(lk, [&] { return !worker_busy_; });
}

void Server::resume() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

void Server::worker_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] {
        return stop_worker_ || (!queue_.empty() && !paused_);
      });
      if (stop_worker_ && queue_.empty()) return;
      worker_busy_ = true;
      while (!queue_.empty() && batch.size() < opt_.max_batch) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      ++stats_.batches;
    }
    ServeMetrics::get().batches.add();
    ServeMetrics::get().batch_requests.observe(batch.size());
    process_batch(std::move(batch));
    {
      std::lock_guard<std::mutex> lk(mu_);
      worker_busy_ = false;
      cv_drained_.notify_all();
    }
  }
}

void Server::process_batch(std::vector<Pending> batch) {
  const obs::Span span("serve.batch");
  // Coalesce simulation requests by content fingerprint, preserving
  // first-seen order; control ops keep their arrival slots so a
  // "sweep then shutdown" batch answers the sweep first.
  std::vector<std::vector<Pending*>> groups;
  std::map<std::uint64_t, std::size_t> group_of;
  std::vector<Pending*> control;
  for (auto& p : batch) {
    if (p.req.op == Op::Simulate || p.req.op == Op::Sweep) {
      const std::uint64_t fp = p.req.fingerprint();
      const auto [it, fresh] = group_of.emplace(fp, groups.size());
      if (fresh) groups.emplace_back();
      groups[it->second].push_back(&p);
    } else {
      control.push_back(&p);
    }
  }
  for (auto& members : groups) process_group(members);
  for (Pending* p : control) {
    const Request& req = p->req;
    try {
      ResponseBody body;
      switch (req.op) {
        case Op::Metrics:
          body.raw_json = obs::Registry::to_json(
              obs::registry().snapshot());
          body.raw_key = "metrics";
          break;
        case Op::Stats:
          body.raw_json = render_stats_json();
          body.raw_key = "stats";
          break;
        default:  // ping, drain and shutdown answer a plain ack
          break;
      }
      answer(*p, render_ok(req.id, req.op, body), /*is_error=*/false);
      if (req.op == Op::Shutdown) {
        std::lock_guard<std::mutex> lk(mu_);
        stopped_ = true;
      }
    } catch (const std::exception& e) {
      answer(*p,
             render_error(req.id, {ErrorCode::Internal, e.what()}),
             /*is_error=*/true);
    }
  }
}

void Server::process_group(std::vector<Pending*>& members) {
  const auto now = std::chrono::steady_clock::now();
  std::vector<Pending*> alive;
  for (Pending* p : members) {
    if (p->req.deadline_ms && now >= p->req.deadline) {
      ServeMetrics::get().deadline_exceeded.add();
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.deadline_exceeded;
      }
      answer(*p,
             render_error(p->req.id,
                          {ErrorCode::DeadlineExceeded,
                           "deadline of " +
                               obs::json_number(*p->req.deadline_ms) +
                               " ms passed before evaluation started"}),
             /*is_error=*/true);
    } else {
      alive.push_back(p);
    }
  }
  if (alive.empty()) return;

  // Bound the evaluation only when every surviving member carries a
  // deadline: by the latest one *all* of them (deadline <= max) have
  // expired, so abandoning the evaluation strands nobody.
  const bool all_deadlined = std::all_of(
      alive.begin(), alive.end(),
      [](const Pending* p) { return p->req.deadline_ms.has_value(); });
  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (all_deadlined) {
    deadline = alive.front()->req.deadline;
    for (const Pending* p : alive) {
      deadline = std::max(*deadline, p->req.deadline);
    }
  }

  const Request& leader = alive.front()->req;
  try {
    std::size_t points = 0;
    const std::string payload = evaluate(leader, deadline, points);
    {
      std::lock_guard<std::mutex> lk(mu_);
      stats_.points += points;
      stats_.coalesced += alive.size() - 1;
    }
    ServeMetrics::get().points.add(points);
    ServeMetrics::get().coalesced.add(
        static_cast<std::uint64_t>(alive.size() - 1));
    for (Pending* p : alive) {
      ResponseBody body;
      body.points = points;
      body.format = p->req.format;
      body.payload = payload;  // byte-identical across the group
      answer(*p, render_ok(p->req.id, p->req.op, body),
             /*is_error=*/false);
    }
  } catch (const EvaluationCancelled&) {
    for (Pending* p : alive) {
      ServeMetrics::get().deadline_exceeded.add();
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.deadline_exceeded;
      }
      answer(*p,
             render_error(p->req.id,
                          {ErrorCode::DeadlineExceeded,
                           "deadline passed while evaluating"}),
             /*is_error=*/true);
    }
  } catch (const std::exception& e) {
    for (Pending* p : alive) {
      answer(*p, render_error(p->req.id, {ErrorCode::Internal, e.what()}),
             /*is_error=*/true);
    }
  }
}

std::string Server::evaluate(
    const Request& req,
    std::optional<std::chrono::steady_clock::time_point> deadline,
    std::size_t& points_out) {
  const obs::Span span("serve.evaluate");
  const machine::MachineDescriptor* m = machine_by_name(req.machine);
  if (m == nullptr) {
    throw std::logic_error("validated machine vanished: " + req.machine);
  }

  std::vector<engine::SweepPoint> pts;
  pts.reserve(req.points());
  for (const auto& kernel : req.kernels) {
    const core::KernelSignature* sig = kernels::find_signature(kernel);
    if (sig == nullptr) {
      throw std::logic_error("validated kernel vanished: " + kernel);
    }
    for (const auto prec : req.precisions) {
      for (const int n : req.threads) {
        sim::SimConfig cfg;
        cfg.precision = prec;
        cfg.compiler = req.compiler;
        cfg.vector_mode = req.vector_mode;
        cfg.nthreads = n;
        cfg.placement = req.placement;
        pts.push_back(engine::SweepPoint{m, sig, cfg});
      }
    }
  }
  points_out = pts.size();

  std::vector<sim::TimeBreakdown> results;
  results.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); i += kChunkPoints) {
    if (deadline && std::chrono::steady_clock::now() >= *deadline) {
      throw EvaluationCancelled{};
    }
    const std::size_t len = std::min(kChunkPoints, pts.size() - i);
    auto chunk = engine_.run_batch(
        std::span<const engine::SweepPoint>(pts.data() + i, len));
    results.insert(results.end(), chunk.begin(), chunk.end());
  }

  // Render. Row order is the point order (kernels x precisions x
  // threads), so payloads are deterministic for a given request.
  if (req.format == Format::Csv) {
    report::CsvWriter csv({"kernel", "machine", "precision", "threads",
                           "compute_s", "memory_s", "sync_s", "atomic_s",
                           "total_s", "serving", "vector_path", "note"});
    std::size_t i = 0;
    for (const auto& kernel : req.kernels) {
      for (const auto prec : req.precisions) {
        for (const int n : req.threads) {
          const auto& tb = results[i++];
          csv.add_row({kernel, req.machine,
                       std::string(core::to_string(prec)),
                       std::to_string(n), obs::json_number(tb.compute_s),
                       obs::json_number(tb.memory_s),
                       obs::json_number(tb.sync_s),
                       obs::json_number(tb.atomic_s),
                       obs::json_number(tb.total_s),
                       std::string(sim::to_string(tb.serving)),
                       tb.vector_path ? "1" : "0",
                       tb.note_string(m->name)});
        }
      }
    }
    return csv.text();
  }
  std::string out = "[";
  std::size_t i = 0;
  for (const auto& kernel : req.kernels) {
    for (const auto prec : req.precisions) {
      for (const int n : req.threads) {
        const auto& tb = results[i++];
        if (out.size() > 1) out += ",";
        out += "{\"kernel\":" + obs::json_quote(kernel);
        out += ",\"machine\":" + obs::json_quote(req.machine);
        out += ",\"precision\":" +
               obs::json_quote(core::to_string(prec));
        out += ",\"threads\":" +
               obs::json_number(static_cast<std::uint64_t>(n));
        out += ",\"compute_s\":" + obs::json_number(tb.compute_s);
        out += ",\"memory_s\":" + obs::json_number(tb.memory_s);
        out += ",\"sync_s\":" + obs::json_number(tb.sync_s);
        out += ",\"atomic_s\":" + obs::json_number(tb.atomic_s);
        out += ",\"total_s\":" + obs::json_number(tb.total_s);
        out += ",\"serving\":" +
               obs::json_quote(sim::to_string(tb.serving));
        out += ",\"vector_path\":" + bool_str(tb.vector_path);
        out += ",\"note\":" + obs::json_quote(tb.note_string(m->name));
        out += "}";
      }
    }
  }
  out += "]";
  return out;
}

void Server::answer(Pending& p, std::string line, bool is_error) {
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - p.admitted)
          .count());
  auto& metrics = ServeMetrics::get();
  metrics.request_ns.observe(ns);
  metrics.responses.add();
  if (is_error) metrics.errors.add();
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.responses;
    if (is_error) ++stats_.errors;
    inflight_ids_.erase(p.req.id);
  }
  p.respond(std::move(line));
}

std::string Server::render_stats_json() const {
  const ServerStats s = stats();
  const auto c = engine_.counters();
  auto u = [](std::uint64_t v) { return obs::json_number(v); };
  std::string out = "{";
  out += "\"lines\":" + u(s.lines);
  out += ",\"accepted\":" + u(s.accepted);
  out += ",\"responses\":" + u(s.responses);
  out += ",\"errors\":" + u(s.errors);
  out += ",\"parse_errors\":" + u(s.parse_errors);
  out += ",\"rejected_overload\":" + u(s.rejected_overload);
  out += ",\"rejected_shutdown\":" + u(s.rejected_shutdown);
  out += ",\"duplicate_ids\":" + u(s.duplicate_ids);
  out += ",\"deadline_exceeded\":" + u(s.deadline_exceeded);
  out += ",\"coalesced\":" + u(s.coalesced);
  out += ",\"batches\":" + u(s.batches);
  out += ",\"points\":" + u(s.points);
  out += ",\"engine\":{";
  out += "\"requests\":" + u(c.requests);
  out += ",\"cache_hits\":" + u(c.cache_hits);
  out += ",\"cache_misses\":" + u(c.cache_misses);
  out += ",\"simulations\":" + u(c.simulations);
  out += ",\"simulators_built\":" + u(c.simulators_built);
  out += ",\"cache_entries\":" + u(c.cache_entries);
  out += "}}";
  return out;
}

// ----------------------------------------------------- transports --

int Server::run_pipe(std::istream& in, std::ostream& out) {
  auto write_mu = std::make_shared<std::mutex>();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;  // blank lines are keep-alives
    submit_line(std::move(line), [&out, write_mu](std::string resp) {
      std::lock_guard<std::mutex> lk(*write_mu);
      out << resp << "\n";
      out.flush();
    });
    line.clear();
    // Admission closes synchronously when a shutdown request is
    // accepted, so breaking here is deterministic: any further input
    // could only be rejected. drain() below still waits for the
    // shutdown response to be written.
    bool closed;
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed = draining_;
    }
    if (closed) break;
  }
  drain();
  return 0;
}

namespace {

/// One connected client: buffers reads, splits lines, serializes
/// response writes. Shared-ptr owned by the response lambdas, so a
/// response arriving after the client disconnected writes to a closed
/// fd (harmlessly) instead of freed memory.
struct Connection {
  int fd = -1;
  std::mutex write_mu;

  explicit Connection(int f) : fd(f) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  void write_line(const std::string& line) {
    std::lock_guard<std::mutex> lk(write_mu);
    std::string framed = line;
    framed.push_back('\n');
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd, framed.data() + off,
                               framed.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return;  // client went away; drop the response
      off += static_cast<std::size_t>(n);
    }
  }
};

}  // namespace

int Server::run_unix_socket(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    std::cerr << "serve: socket path too long: " << path << "\n";
    return 2;
  }
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::cerr << "serve: socket: " << std::strerror(errno) << "\n";
    return 2;
  }
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 16) != 0) {
    std::cerr << "serve: bind/listen " << path << ": "
              << std::strerror(errno) << "\n";
    ::close(listen_fd);
    return 2;
  }

  std::vector<std::thread> handlers;
  while (!stopped()) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
    if (conn_fd < 0) continue;
    handlers.emplace_back([this, conn_fd] {
      auto conn = std::make_shared<Connection>(conn_fd);
      std::string buf;
      char chunk[4096];
      while (!stopped()) {
        pollfd cpfd{conn->fd, POLLIN, 0};
        const int prc = ::poll(&cpfd, 1, /*timeout_ms=*/100);
        if (prc < 0 && errno != EINTR) break;
        if (prc <= 0 || (cpfd.revents & (POLLIN | POLLHUP)) == 0) {
          continue;
        }
        const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
        if (n <= 0) break;  // EOF or error: client closed
        buf.append(chunk, static_cast<std::size_t>(n));
        // A client streaming an unterminated line past the limit is
        // answered once and disconnected (it cannot be framed again).
        if (buf.find('\n') == std::string::npos &&
            buf.size() > opt_.limits.max_line_bytes) {
          conn->write_line(render_error(
              "", {ErrorCode::TooLarge,
                   "request line exceeds " +
                       std::to_string(opt_.limits.max_line_bytes) +
                       " bytes"}));
          break;
        }
        std::size_t start = 0;
        for (std::size_t nl = buf.find('\n', start);
             nl != std::string::npos; nl = buf.find('\n', start)) {
          std::string line = buf.substr(start, nl - start);
          start = nl + 1;
          if (!line.empty() && line.back() == '\r') line.pop_back();
          if (line.empty()) continue;
          submit_line(std::move(line), [conn](std::string resp) {
            conn->write_line(resp);
          });
        }
        buf.erase(0, start);
      }
    });
  }
  ::close(listen_fd);
  for (auto& h : handlers) h.join();
  drain();
  ::unlink(path.c_str());
  return 0;
}

}  // namespace sgp::serve
