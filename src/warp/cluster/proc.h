// Process-control primitives for the cluster subsystem.
//
// The ONLY file in the repository allowed to issue raw process syscalls
// (fork/exec, kill, waitpid — enforced by warp_lint's proc-containment
// rule) or to install signal handlers: the supervisor, tools, and tests go
// through ChildProcess / SendSignal / HandleTerminationSignals /
// SleepMillis so stdout piping, EINTR handling, and pid bookkeeping live
// in one place.

#ifndef WARP_CLUSTER_PROC_H_
#define WARP_CLUSTER_PROC_H_

#include <string>
#include <vector>

namespace warp {
namespace cluster {

// One spawned child with its stdout captured through a pipe (stderr
// passes through to the parent's). Movable, not copyable. Destruction
// closes the pipe but neither kills nor reaps the child — lifecycle
// decisions belong to the supervisor, not to scope exits.
class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess();

  ChildProcess(ChildProcess&& other) noexcept;
  ChildProcess& operator=(ChildProcess&& other) noexcept;
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  // fork()+execvp(): argv[0] is the binary (PATH-resolved), the rest its
  // arguments. The child's stdout is piped back to the parent. Returns
  // false and fills *error on failure; an exec failure surfaces as the
  // child exiting 127. The child is sent SIGTERM when the calling thread
  // exits (PR_SET_PDEATHSIG), so call this from a thread that outlives
  // the child.
  bool Spawn(const std::vector<std::string>& argv, std::string* error);

  // Valid between a successful Spawn and a successful reap.
  bool running() const { return pid_ > 0; }
  long pid() const { return pid_; }

  // Reads the child's stdout until a line starting with `prefix`
  // arrives; fills *line with it (terminator stripped). Lines before the
  // match are discarded. Returns false on timeout, EOF (child closed
  // stdout), or when no child is running. The supervisor uses this to
  // scrape a worker's "ready port=<P>" line.
  bool WaitForLinePrefix(const std::string& prefix, int timeout_ms,
                         std::string* line);

  // Sends `signum` to the child (no-op when not running).
  void Kill(int signum);

  // Non-blocking reap: returns true when the child has exited and was
  // collected (raw wait status in *status when non-null); the pid is
  // released. Returns false while the child is still running.
  bool TryReap(int* status);

  // Blocking reap; returns the raw wait status (0 when no child).
  int Reap();

 private:
  void CloseStdout();

  long pid_ = -1;
  int stdout_fd_ = -1;
  std::string pending_;  // Buffered but not-yet-consumed stdout bytes.
};

// Runs `handler` on SIGTERM and SIGINT; nullptr restores the default
// action. The handler runs in signal context on any thread, so it may
// only make async-signal-safe calls, such as a lock-free atomic store.
void HandleTerminationSignals(void (*handler)(int));

// kill(pid, signum) for processes not owned by a ChildProcess — fault
// injection in tests and smoke scripts. Returns false when the signal
// could not be delivered.
bool SendSignal(long pid, int signum);

// nanosleep wrapper: the cluster's only time-delay primitive. (The repo
// confines <chrono> to the Stopwatch implementation; backoff and polling
// loops combine this with warp::Stopwatch for elapsed time.)
void SleepMillis(int ms);

}  // namespace cluster
}  // namespace warp

#endif  // WARP_CLUSTER_PROC_H_
