#include "warp/cluster/proc.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "warp/common/stopwatch.h"

namespace warp {
namespace cluster {

ChildProcess::~ChildProcess() { CloseStdout(); }

ChildProcess::ChildProcess(ChildProcess&& other) noexcept
    : pid_(other.pid_),
      stdout_fd_(other.stdout_fd_),
      pending_(std::move(other.pending_)) {
  other.pid_ = -1;
  other.stdout_fd_ = -1;
}

ChildProcess& ChildProcess::operator=(ChildProcess&& other) noexcept {
  if (this != &other) {
    CloseStdout();
    pid_ = other.pid_;
    stdout_fd_ = other.stdout_fd_;
    pending_ = std::move(other.pending_);
    other.pid_ = -1;
    other.stdout_fd_ = -1;
  }
  return *this;
}

void ChildProcess::CloseStdout() {
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
  pending_.clear();
}

bool ChildProcess::Spawn(const std::vector<std::string>& argv,
                         std::string* error) {
  if (argv.empty()) {
    *error = "spawn: empty argv";
    return false;
  }
  if (pid_ > 0) {
    *error = "spawn: a child is already running (pid " +
             std::to_string(pid_) + ")";
    return false;
  }
  // Built before fork: the child may make only async-signal-safe calls
  // until exec, and building this array allocates.
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  const pid_t parent = getpid();
  int fds[2];
  if (pipe(fds) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls between fork and exec. SIGTERM
    // arrives when the forking thread exits, so a child outlives no
    // launcher, however it dies; the supervisor forks only from threads
    // that live until Stop(). A parent that died before the prctl is
    // caught by the getppid check.
    prctl(PR_SET_PDEATHSIG, static_cast<unsigned long>(SIGTERM));
    if (getppid() != parent) _exit(1);
    // stdout -> pipe write end, then exec.
    close(fds[0]);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[1]);
    execvp(args[0], args.data());
    _exit(127);  // exec failed; the parent sees exit status 127.
  }
  close(fds[1]);
  CloseStdout();
  stdout_fd_ = fds[0];
  pid_ = pid;
  return true;
}

bool ChildProcess::WaitForLinePrefix(const std::string& prefix,
                                     int timeout_ms, std::string* line) {
  if (stdout_fd_ < 0) return false;
  const Stopwatch watch;
  while (true) {
    // Consume complete buffered lines first.
    size_t newline;
    while ((newline = pending_.find('\n')) != std::string::npos) {
      std::string candidate = pending_.substr(0, newline);
      pending_.erase(0, newline + 1);
      if (!candidate.empty() && candidate.back() == '\r') {
        candidate.pop_back();
      }
      if (candidate.compare(0, prefix.size(), prefix) == 0) {
        *line = std::move(candidate);
        return true;
      }
    }
    const double elapsed_ms = watch.ElapsedMillis();
    if (elapsed_ms >= timeout_ms) return false;
    pollfd pfd{};
    pfd.fd = stdout_fd_;
    pfd.events = POLLIN;
    int ready;
    do {
      ready = poll(&pfd, 1, timeout_ms - static_cast<int>(elapsed_ms));
    } while (ready < 0 && errno == EINTR);
    if (ready <= 0) return false;  // Timeout or poll failure.
    char chunk[4096];
    ssize_t got;
    do {
      got = read(stdout_fd_, chunk, sizeof(chunk));
    } while (got < 0 && errno == EINTR);
    if (got <= 0) return false;  // EOF: the child exited or closed stdout.
    pending_.append(chunk, static_cast<size_t>(got));
  }
}

void ChildProcess::Kill(int signum) {
  if (pid_ > 0) kill(static_cast<pid_t>(pid_), signum);
}

bool ChildProcess::TryReap(int* status) {
  if (pid_ <= 0) return false;
  int raw = 0;
  const pid_t got = waitpid(static_cast<pid_t>(pid_), &raw, WNOHANG);
  if (got != static_cast<pid_t>(pid_)) return false;
  if (status != nullptr) *status = raw;
  pid_ = -1;
  CloseStdout();
  return true;
}

int ChildProcess::Reap() {
  if (pid_ <= 0) return 0;
  int raw = 0;
  pid_t got;
  do {
    got = waitpid(static_cast<pid_t>(pid_), &raw, 0);
  } while (got < 0 && errno == EINTR);
  pid_ = -1;
  CloseStdout();
  return raw;
}

void HandleTerminationSignals(void (*handler)(int)) {
  struct sigaction action {};
  action.sa_handler = handler != nullptr ? handler : SIG_DFL;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

bool SendSignal(long pid, int signum) {
  if (pid <= 0) return false;
  return kill(static_cast<pid_t>(pid), signum) == 0;
}

void SleepMillis(int ms) {
  if (ms <= 0) return;
  timespec spec{};
  spec.tv_sec = ms / 1000;
  spec.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
  while (nanosleep(&spec, &spec) != 0 && errno == EINTR) {
  }
}

}  // namespace cluster
}  // namespace warp
