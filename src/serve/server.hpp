// Simulation-as-a-service: a long-running request/response server over
// the shared memoized SweepEngine.
//
// Lifecycle of one request line:
//   1. parse + validate (serve/protocol.hpp) — malformed input gets a
//      structured error and never touches the engine;
//   2. admission control — a full queue rejects with "overloaded", a
//      draining server with "shutting-down", an in-flight id collision
//      with "duplicate-id". Admission stamps the absolute deadline;
//   3. the worker thread drains whatever is queued as ONE batch,
//      coalesces requests with equal content fingerprints (two
//      identical concurrent sweeps cost one Simulator::run burst and
//      answer byte-identically), and evaluates each unique request
//      through the engine in small chunks, comparing the clock with
//      the group's deadline between chunks so a past-deadline request
//      stops consuming simulator time;
//   4. responses are rendered as single JSON lines and handed to the
//      per-request callback (the pipe/socket transports serialize
//      writes; tests capture them directly).
//
// The engine's memo lives in memory only: a restarted server starts
// cold and answers the same lines byte-identically
// (tests/serve_test.cpp pins this).
//
// Everything observable lands in the obs registry under "serve.*".
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "serve/protocol.hpp"

namespace sgp::serve {

struct ServerOptions {
  /// Ignored: the engine prices every batch on the worker thread. Kept
  /// only because the benchmark harness still sets it; remove it
  /// together with those assignments.
  int jobs = 0;
  /// Queue slots; admission rejects with "overloaded" beyond this.
  std::size_t max_queue = 256;
  /// Largest number of queued requests one batch drains.
  std::size_t max_batch = 64;
  /// Ignored: the server never touches the filesystem. Kept only
  /// because the benchmark harness still sets it; remove it together
  /// with that assignment.
  std::optional<std::string> persist_dir;
  ProtocolLimits limits;
  /// Print skip-and-warn diagnostics (sgp-serve's machine-pack
  /// quarantines).
  bool warn = true;
};

/// Server-side counters, independent of the engine's (stats op reports
/// both). Snapshot under the queue lock; monotonic.
struct ServerStats {
  std::uint64_t lines = 0;      ///< request lines received
  std::uint64_t accepted = 0;   ///< admitted to the queue
  std::uint64_t responses = 0;  ///< response lines emitted (ok + error)
  std::uint64_t errors = 0;     ///< error responses
  std::uint64_t parse_errors = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t duplicate_ids = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t coalesced = 0;  ///< requests served by another's burst
  std::uint64_t batches = 0;
  std::uint64_t points = 0;     ///< evaluation points computed or cached
};

class Server {
 public:
  using Respond = std::function<void(std::string line)>;

  explicit Server(ServerOptions opt = {});
  /// Drains the queue, joins the worker.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Parses, admits and eventually answers one request line.
  /// `respond` is invoked exactly once — synchronously for rejects,
  /// from the worker thread for admitted requests. It must be
  /// thread-safe against other responses.
  void submit_line(std::string line, Respond respond);

  /// Waits until every queued request is answered. Idempotent;
  /// resumes a paused worker first (a paused drain would never finish).
  void drain();

  /// Holds the worker after its current batch: admitted requests queue
  /// up without being evaluated until resume(). Lets tests (and
  /// coordinated maintenance) build a batch deterministically — e.g.
  /// two identical requests admitted while paused are guaranteed to
  /// coalesce into one evaluation.
  void pause();
  void resume();

  /// True once a shutdown request was processed (transports exit their
  /// read loop).
  bool stopped() const;

  ServerStats stats() const;
  const engine::SweepEngine& engine() const { return engine_; }

  // ------------------------------------------------- transports --

  /// Reads newline-delimited requests from `in` until EOF or shutdown;
  /// writes one response line each to `out`. Returns 0 on a clean
  /// exit. This is the mode tests and piped clients use.
  int run_pipe(std::istream& in, std::ostream& out);

  /// Listens on an AF_UNIX stream socket at `path` (unlinking a stale
  /// socket first), serving concurrent connections until a shutdown
  /// request arrives. Returns 0 on clean exit, 2 on socket errors.
  int run_unix_socket(const std::string& path);

 private:
  struct Pending {
    Request req;
    Respond respond;
    std::chrono::steady_clock::time_point admitted;
  };

  void worker_loop();
  void process_batch(std::vector<Pending> batch);
  /// Evaluates one coalesced group; returns the rendered payload or a
  /// ServeError. Members list is non-empty and shares one fingerprint.
  void process_group(std::vector<Pending*>& members);
  void answer(Pending& p, std::string line, bool is_error);
  /// Throws EvaluationCancelled at a chunk boundary past `deadline`.
  std::string evaluate(
      const Request& req,
      std::optional<std::chrono::steady_clock::time_point> deadline,
      std::size_t& points_out);
  std::string render_stats_json() const;

  ServerOptions opt_;
  engine::SweepEngine engine_;

  mutable std::mutex mu_;
  std::condition_variable cv_;          ///< queue not empty / stopping
  std::condition_variable cv_drained_;  ///< queue empty + idle
  std::deque<Pending> queue_;
  std::set<std::string> inflight_ids_;
  bool draining_ = false;  ///< no new admissions
  bool paused_ = false;    ///< worker holds between batches
  bool stop_worker_ = false;
  bool worker_busy_ = false;
  bool stopped_ = false;  ///< shutdown op processed
  ServerStats stats_;

  std::thread worker_;
};

}  // namespace sgp::serve
