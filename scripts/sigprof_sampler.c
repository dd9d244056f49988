/* sigprof_sampler: a CPU-time stack sampler to LD_PRELOAD into a program.
 *
 * Build and use (scripts/profile_perfbench.py does both):
 *
 *     cc -O2 -shared -fPIC -o libsigprof_sampler.so sigprof_sampler.c
 *     SIGPROF_OUT=samples.txt LD_PRELOAD=./libsigprof_sampler.so prog ...
 *
 * At load it arms setitimer(ITIMER_PROF) to fire every millisecond of the
 * process's CPU time; the kernel rounds that up to its tick. Each SIGPROF
 * stores the interrupted thread's stack, from backtrace(), into a buffer
 * mapped at load, so the handler itself never allocates; backtrace() is
 * called once at load as well, because its first call loads the unwinder
 * and may allocate. Samples past the buffer's kCapacity are counted but
 * dropped. At exit it writes the file named by SIGPROF_OUT:
 *
 *     samples <stored> dropped <n>
 *     <pc> <return address> <return address> ...   one line per sample
 *     maps
 *     <the process's /proc/self/maps>
 *
 * The first address of a sample is the interrupted instruction; the rest
 * are return addresses, innermost first, all in hex.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>

#if !defined(__x86_64__)
#error "sigprof_sampler reads the interrupted pc from x86_64's REG_RIP only"
#endif

#define kDepth 64
#define kCapacity (1L << 17)
#define kIntervalUs 1000

static void** frames; /* kDepth slots per sample */
static int* depths;
static long next_slot; /* claimed with an atomic add */
static FILE* out;

static uintptr_t InterruptedPc(void* uc) {
  return (uintptr_t)((ucontext_t*)uc)->uc_mcontext.gregs[REG_RIP];
}

static void OnSigprof(int sig, siginfo_t* info, void* uc) {
  (void)sig;
  (void)info;
  long slot = __atomic_fetch_add(&next_slot, 1, __ATOMIC_RELAXED);
  if (slot >= kCapacity) return;
  void* stack[kDepth + 2];
  int n = backtrace(stack, kDepth + 2);
  /* Drop the handler and the signal trampoline: the stack proper starts
   * at the interrupted pc. */
  uintptr_t pc = InterruptedPc(uc);
  int first = n < 2 ? n : 2;
  for (int i = 0; i < n; ++i) {
    if ((uintptr_t)stack[i] == pc) {
      first = i;
      break;
    }
  }
  int depth = n - first > kDepth ? kDepth : n - first;
  memcpy(&frames[slot * kDepth], &stack[first], depth * sizeof(void*));
  depths[slot] = depth;
}

__attribute__((constructor)) static void Start(void) {
  const char* path = getenv("SIGPROF_OUT");
  if (path == NULL) return;
  out = fopen(path, "w");
  if (out == NULL) return;
  /* Untouched pages of the mapping stay unbacked: the resident cost is
   * what the samples fill. */
  size_t bytes = kCapacity * (kDepth * sizeof(void*) + sizeof(int));
  char* buf = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (buf == MAP_FAILED) return;
  frames = (void**)buf;
  depths = (int*)(buf + kCapacity * kDepth * sizeof(void*));

  void* warm[4];
  backtrace(warm, 4);

  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = OnSigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = kIntervalUs;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((destructor)) static void Stop(void) {
  if (out == NULL || frames == NULL) return;
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);
  long taken = __atomic_load_n(&next_slot, __ATOMIC_RELAXED);
  long stored = taken < kCapacity ? taken : kCapacity;
  fprintf(out, "samples %ld dropped %ld\n", stored, taken - stored);
  for (long s = 0; s < stored; ++s) {
    for (int i = 0; i < depths[s]; ++i) {
      fprintf(out, i ? " %lx" : "%lx", (unsigned long)frames[s * kDepth + i]);
    }
    fputc('\n', out);
  }
  fputs("maps\n", out);
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof line, maps) != NULL) fputs(line, out);
    fclose(maps);
  }
  fclose(out);
  out = NULL;
}
