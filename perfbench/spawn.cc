/**
 * @file
 * perfbench_spawn: runs one command as its own child and writes the
 * child's exit code, user+sys seconds and max RSS to a file.
 *
 *   perfbench_spawn USAGE_FILE PROGRAM [ARG...]
 *
 * USAGE_FILE receives one line, "exit_code cpu_seconds max_rss_kb".
 * The exit code of perfbench_spawn is the child's (128 + signal if it
 * was killed).
 *
 * Linux carries a process's max RSS across exec, so a CLI started
 * straight from the Python driver would report at least the driver's
 * own RSS. This launcher is small, so the max RSS of its child is the
 * CLI's. The child dies with the launcher (PR_SET_PDEATHSIG), so a
 * driver that kills the launcher on a timeout stops the CLI too.
 */

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>

int
main(int argc, char** argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: perfbench_spawn USAGE_FILE PROGRAM [ARG...]\n");
        return 2;
    }
    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("perfbench_spawn: fork");
        return 2;
    }
    if (pid == 0) {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent)
            _exit(127);
        execv(argv[2], argv + 2);
        std::perror("perfbench_spawn: exec");
        _exit(127);
    }

    int status = 0;
    struct rusage ru {};
    while (wait4(pid, &status, 0, &ru) < 0) {
        if (errno != EINTR) {
            std::perror("perfbench_spawn: wait4");
            return 2;
        }
    }
    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
    const double cpu = static_cast<double>(ru.ru_utime.tv_sec) +
                       static_cast<double>(ru.ru_stime.tv_sec) +
                       1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                                  ru.ru_stime.tv_usec);

    std::FILE* out = std::fopen(argv[1], "w");
    if (out == nullptr) {
        std::perror("perfbench_spawn: usage file");
        return 2;
    }
    std::fprintf(out, "%d %.6f %ld\n", code, cpu, ru.ru_maxrss);
    if (std::fclose(out) != 0) {
        std::perror("perfbench_spawn: usage file");
        return 2;
    }
    return code;
}
