/* Dependency-free sampling profiler, loaded with LD_PRELOAD (DESIGN.md §8).
 *
 * On load it arms a POSIX timer on the process CPU-time clock
 * (CLOCK_PROCESS_CPUTIME_ID, the user + system time ITIMER_PROF counts),
 * so the process receives SIGPROF once per millisecond of CPU time, summed
 * over its threads. The kernel checks CPU timers on its scheduler tick, so
 * the real rate is at most CONFIG_HZ (often 250); the profile header gives
 * `samples` next to the process's `cpu_s`. The handler appends the
 * interrupted program counter to a fixed buffer. At exit the sampler writes
 * the buffer together with a copy of /proc/self/maps to
 * HT_PROF_DIR/htprof.<comm>.<pid>.txt (default: the working directory).
 * scripts/prof/prof.py builds this file, runs a command under it and turns
 * the program counters into functions with addr2line.
 *
 * A timer_create() timer rather than setitimer(ITIMER_PROF): execve()
 * deletes the former but keeps the latter running while it resets the
 * SIGPROF handler, whose default action terminates the process, so a
 * command that execs (env, a shell's `exec`) could be killed before the
 * new image's copy of the sampler installs its handler. A forked child
 * inherits no timer either way; it is sampled only once it execs an image
 * that loads the sampler.
 *
 * Build by hand:  cc -O2 -shared -fPIC -o libhtprof.so scripts/prof/sampler.c -lrt
 * Run by hand:    LD_PRELOAD=$PWD/libhtprof.so ./build/bench/fig9_throughput_single_port
 *
 * Only a sampled process that exits normally (return from main or exit())
 * writes a profile; an _exit() or a fatal signal loses it.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define HTPROF_CAPACITY (1u << 21) /* samples; 35 CPU-minutes at 1 kHz */

static uintptr_t samples[HTPROF_CAPACITY];
static volatile sig_atomic_t armed;
static unsigned long n_samples;
static unsigned long n_dropped;

static uintptr_t interrupted_pc(const ucontext_t* uc) {
#if defined(__x86_64__)
  return (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  return (uintptr_t)uc->uc_mcontext.pc;
#else
  (void)uc;
  return 0;
#endif
}

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  if (!armed) return;
  const int saved_errno = errno;
  const unsigned long i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
  if (i < HTPROF_CAPACITY) {
    samples[i] = interrupted_pc((const ucontext_t*)context);
  } else {
    __atomic_fetch_add(&n_dropped, 1, __ATOMIC_RELAXED);
  }
  errno = saved_errno;
}

static timer_t timer;

/* A forked child inherits no timer, only a copy of its parent's samples;
 * it writes no profile (an image it execs starts its own). */
static void after_fork_in_child(void) { armed = 0; }

static void write_all(int fd, const char* buf, size_t len) {
  while (len > 0) {
    const ssize_t n = write(fd, buf, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    buf += n;
    len -= (size_t)n;
  }
}

__attribute__((constructor)) static void htprof_start(void) {
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) return;
  struct sigevent ev;
  memset(&ev, 0, sizeof(ev));
  ev.sigev_notify = SIGEV_SIGNAL;
  ev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &ev, &timer) != 0) return;
  pthread_atfork(NULL, NULL, after_fork_in_child);
  armed = 1;
  struct itimerspec every_ms;
  every_ms.it_interval.tv_sec = 0;
  every_ms.it_interval.tv_nsec = 1000000;
  every_ms.it_value = every_ms.it_interval;
  timer_settime(timer, 0, &every_ms, NULL);
}

__attribute__((destructor)) static void htprof_stop(void) {
  if (!armed) return;
  timer_delete(timer);
  armed = 0;

  char comm[64] = "unknown";
  const int cfd = open("/proc/self/comm", O_RDONLY);
  if (cfd >= 0) {
    const ssize_t n = read(cfd, comm, sizeof(comm) - 1);
    if (n > 0) comm[comm[n - 1] == '\n' ? n - 1 : n] = '\0';
    close(cfd);
  }
  const char* dir = getenv("HT_PROF_DIR");
  char path[4096];
  snprintf(path, sizeof(path), "%s/htprof.%s.%ld.txt", dir != NULL ? dir : ".", comm,
           (long)getpid());
  const int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;

  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  const double cpu_s = (double)(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                       (double)(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  const unsigned long kept = n_samples < HTPROF_CAPACITY ? n_samples : HTPROF_CAPACITY;
  char line[160];
  int len = snprintf(line, sizeof(line),
                     "# htprof cpu_s=%.3f samples=%lu dropped=%lu\nmaps\n", cpu_s,
                     kept, n_dropped);
  write_all(fd, line, (size_t)len);
  const int mfd = open("/proc/self/maps", O_RDONLY);
  if (mfd >= 0) {
    char buf[8192];
    ssize_t n;
    while ((n = read(mfd, buf, sizeof(buf))) > 0) write_all(fd, buf, (size_t)n);
    close(mfd);
  }
  write_all(fd, "samples\n", 8);
  for (unsigned long i = 0; i < kept; ++i) {
    len = snprintf(line, sizeof(line), "%lx\n", (unsigned long)samples[i]);
    write_all(fd, line, (size_t)len);
  }
  close(fd);
}
