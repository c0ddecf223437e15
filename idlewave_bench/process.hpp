// Child processes of idlewave_bench: this same program, run with other
// arguments. `--all` runs each workload in one, and every timed set-up is
// one, so that it starts from a fresh process as a user's run does.
#pragma once

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace iw::bench {

/// Starts this program with `args` (args[0] is the name it sees). Its
/// standard output goes to `stdout_fd` unless that is -1.
inline pid_t spawn_self(std::vector<std::string> args, int stdout_fd = -1) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::cout.flush();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    if (stdout_fd >= 0) ::dup2(stdout_fd, STDOUT_FILENO);
    ::execv("/proc/self/exe", argv.data());
    std::perror("idlewave_bench: exec");
    ::_exit(127);
  }
  return pid;
}

/// Waits until the child has ended; returns its exit code, or 128 when it
/// did not exit normally.
inline int wait_child(pid_t pid) {
  int status = 0;
  pid_t waited = -1;
  do {
    waited = ::waitpid(pid, &status, 0);
  } while (waited < 0 && errno == EINTR);
  return waited == pid && WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

}  // namespace iw::bench
