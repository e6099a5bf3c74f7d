// launch — runs one command and reports that process's own resource use.
//
//   launch REPORT -- PROGRAM [ARGS...]
//
// Forks and execs PROGRAM, waits for it, writes
//   "<wall ns> <user s> <system s> <peak RSS KiB>\n"
// to REPORT and exits with PROGRAM's exit code (128 + signal when it was
// killed). If the launcher itself is killed, so is PROGRAM.
//
// benchmark/run.py does not fork omnivar itself: Linux folds the
// resident set a forked child holds before exec into that child's peak
// RSS, so every omnivar forked from the Python interpreter would report at
// least the interpreter's size. This launcher is small, so the peak RSS of
// the command it forks is the command's own.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>

namespace {

long long now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<long long>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4 || std::strcmp(argv[2], "--") != 0) {
    std::fprintf(stderr, "usage: launch REPORT -- PROGRAM [ARGS...]\n");
    return 2;
  }
  const pid_t parent = getpid();
  const long long t0 = now_ns();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("launch: fork");
    return 2;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);  // the launcher already died
    execvp(argv[3], argv + 3);
    std::perror(argv[3]);
    _exit(127);
  }
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) {
      std::perror("launch: wait4");
      return 2;
    }
  }
  const long long wall = now_ns() - t0;
  std::FILE* report = std::fopen(argv[1], "w");
  if (report == nullptr ||
      std::fprintf(report, "%lld %.6f %.6f %ld\n", wall, seconds(ru.ru_utime),
                   seconds(ru.ru_stime), ru.ru_maxrss) < 0 ||
      std::fclose(report) != 0) {
    std::perror(argv[1]);
    return 2;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}
