#include "warp/cluster/worker.h"

#include <string_view>

#include "warp/common/flags.h"

namespace warp {
namespace cluster {

std::vector<std::string> WorkerCommand(const std::string& worker_binary,
                                       const WorkerSpec& spec) {
  std::vector<std::string> argv;
  argv.push_back(worker_binary);
  argv.push_back("--worker");
  argv.push_back("--shard-id=" + std::to_string(spec.shard_id));
  argv.push_back("--shards=" + std::to_string(spec.shard_count));
  argv.push_back("--port=0");
  argv.push_back("--threads=" + std::to_string(spec.threads));
  argv.push_back("--cache=" + std::to_string(spec.cache_capacity));
  argv.push_back("--max-queue-depth=" + std::to_string(spec.max_queue_depth));
  if (!spec.snapshot_dir.empty()) {
    argv.push_back("--snapshot-dir=" + spec.snapshot_dir);
  }
  return argv;
}

bool ParseReadyPort(const std::string& line, int* port) {
  static const char kPrefix[] = "ready port=";
  if (line.compare(0, sizeof(kPrefix) - 1, kPrefix) != 0) return false;
  return ReadNumber(std::string_view(line).substr(sizeof(kPrefix) - 1), 1,
                    65535, port);
}

bool WorkerClient::Connect(int port, int timeout_ms, std::string* error) {
  conn_.Close();
  conn_ = serve::ConnectLoopbackTimeout(port, timeout_ms, error);
  return conn_.valid();
}

bool WorkerClient::Send(const std::string& payload) {
  if (!conn_.valid()) return false;
  if (!conn_.WriteAll(payload)) {
    conn_.Close();
    return false;
  }
  return true;
}

bool WorkerClient::ReadLines(size_t expect, int timeout_ms,
                             std::vector<std::string>* responses) {
  responses->clear();
  if (!conn_.valid()) return false;
  responses->reserve(expect);
  for (size_t i = 0; i < expect; ++i) {
    std::string line;
    if (!conn_.ReadLine(&line, timeout_ms > 0 ? timeout_ms : -1)) {
      conn_.Close();
      return false;
    }
    responses->push_back(std::move(line));
  }
  return true;
}

}  // namespace cluster
}  // namespace warp
