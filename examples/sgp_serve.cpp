// sgp-serve: simulation-as-a-service over the memoized SweepEngine.
//
// Modes:
//   sgp_serve                      # pipe mode: requests on stdin,
//                                  # responses on stdout (one line each)
//   sgp_serve --socket /tmp/s.sock # AF_UNIX stream socket daemon
//   sgp_serve --input reqs.jsonl   # pipe mode reading from a file
//
// docs/SERVICE.md documents the wire protocol.
//
// Exit codes: 0 clean, 2 fatal (socket/file errors), 64 usage error.
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "machine/registry.hpp"
#include "obs/json.hpp"
#include "serve/server.hpp"

namespace {

constexpr const char* kUsage = R"(usage: sgp_serve [options]

Transport (pick one; default is stdin/stdout pipe mode):
  --socket <path>      serve an AF_UNIX stream socket at <path>
  --input <file>       pipe mode, reading request lines from <file>

Machines:
  --machine-dir <dir>  register every *.ini machine pack in <dir> into
                       the machine registry before serving; requests can
                       then name those machines (repeatable; see
                       docs/MACHINES.md)

Admission:
  --max-queue <n>      queue slots before "overloaded" rejections (256)
  --max-batch <n>      max requests drained per worker batch (64)

Other:
  --quiet              suppress skip-and-warn diagnostics
  --help               this text
)";

struct Options {
  sgp::serve::ServerOptions server;
  std::optional<std::string> socket_path;
  std::optional<std::string> input_path;
  std::vector<std::string> machine_dirs;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "sgp_serve: " << msg << "\n\n" << kUsage;
  std::exit(64);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  auto next_value = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc) {
      usage_error(std::string("missing value for ") + flag);
    }
    return argv[++i];
  };
  auto next_u64 = [&](int& i, const char* flag) -> std::uint64_t {
    const std::string raw = next_value(i, flag);
    const auto v = sgp::obs::parse_u64(raw);
    if (!v) {
      usage_error("bad value '" + raw + "' for " + flag);
    }
    return *v;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      std::exit(0);
    } else if (arg == "--socket") {
      opt.socket_path = next_value(i, "--socket");
    } else if (arg == "--input") {
      opt.input_path = next_value(i, "--input");
    } else if (arg == "--max-queue") {
      const std::uint64_t v = next_u64(i, "--max-queue");
      if (v == 0) usage_error("--max-queue must be positive");
      opt.server.max_queue = static_cast<std::size_t>(v);
    } else if (arg == "--max-batch") {
      const std::uint64_t v = next_u64(i, "--max-batch");
      if (v == 0) usage_error("--max-batch must be positive");
      opt.server.max_batch = static_cast<std::size_t>(v);
    } else if (arg == "--machine-dir") {
      opt.machine_dirs.push_back(next_value(i, "--machine-dir"));
    } else if (arg == "--quiet") {
      opt.server.warn = false;
    } else {
      usage_error("unknown flag '" + arg + "'");
    }
  }
  if (opt.socket_path && opt.input_path) {
    usage_error("--socket and --input are mutually exclusive");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  for (const auto& dir : opt.machine_dirs) {
    try {
      const auto report =
          sgp::machine::shared_registry().register_ini_dir(dir);
      for (const auto& err : report.errors) {
        if (opt.server.warn) {
          std::cerr << "sgp_serve: warning: machine pack " << err.file
                    << ": " << err.message << " (quarantined)\n";
        }
      }
    } catch (const std::exception& e) {
      usage_error(e.what());
    }
  }
  try {
    sgp::serve::Server server(opt.server);
    if (opt.socket_path) {
      return server.run_unix_socket(*opt.socket_path);
    }
    if (opt.input_path) {
      std::ifstream in(*opt.input_path);
      if (!in) {
        std::cerr << "sgp_serve: cannot open " << *opt.input_path
                  << "\n";
        return 2;
      }
      return server.run_pipe(in, std::cout);
    }
    return server.run_pipe(std::cin, std::cout);
  } catch (const std::exception& e) {
    std::cerr << "sgp_serve: fatal: " << e.what() << "\n";
    return 2;
  }
}
