// allocsites: an LD_PRELOAD sampler of heap allocations per call site.
//
// Every malloc/calloc/realloc/posix_memalign/aligned_alloc/memalign call
// made while the time window is open is counted; one in ALLOCSITES_EVERY
// also records its call stack (glibc `backtrace`). When the window closes
// a reporter thread symbolizes the sampled stacks with `addr2line -f -C -i`
// and writes the report: allocations in the window, then each site with
// its estimated count and share, innermost frame first. The report's
// header also gives glibc's `mallinfo2` at the close: bytes the arenas
// took from the system, how much of that is free, and what is mmapped.
//
// Environment (set by allocsites.sh):
//   ALLOCSITES_DELAY    seconds after load before the window opens (0)
//   ALLOCSITES_SECONDS  window length in seconds (5)
//   ALLOCSITES_EVERY    sample one allocation in this many (61)
//   ALLOCSITES_TOP      sites in the report (40)
//   ALLOCSITES_OUT      report path (allocsites.<pid>.txt)
//   ALLOCSITES_ONLY     stay inert unless the executable's path contains
//                       this (so a wrapper script's cargo and shell do not
//                       sample themselves)
//
// The window must close before the program exits: the report is written
// then, and not at exit.
//
// Build: gcc -O2 -shared -fPIC -o allocsites.so allocsites.c -ldl -lpthread
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <malloc.h>
#include <pthread.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

#define DEPTH 10
#define SKIP 2          /* this library's own frames */
#define SITES 32768     /* open-addressing table of distinct stacks */

struct site {
    uint64_t hash;
    uint64_t count;
    int depth;
    void *frames[DEPTH];
};

static void *(*real_malloc)(size_t);
static void *(*real_calloc)(size_t, size_t);
static void *(*real_realloc)(void *, size_t);
static int (*real_posix_memalign)(void **, size_t, size_t);
static void *(*real_aligned_alloc)(size_t, size_t);
static void *(*real_memalign)(size_t, size_t);

static atomic_int window;          /* 0 before, 1 open, 2 closed */
static atomic_uint_fast64_t total; /* allocations in the window */
static atomic_uint_fast64_t ticket;
static atomic_uint_fast64_t lost;  /* samples the full table dropped */
static unsigned every = 61;
static struct site *sites;
static pthread_mutex_t sites_lock = PTHREAD_MUTEX_INITIALIZER;
static __thread int busy;

/* dlsym may calloc before the real calloc is known: serve it from here. */
static char bootstrap[4096];
static size_t bootstrap_used;

static void sample(void) {
    uint64_t n = atomic_fetch_add_explicit(&ticket, 1, memory_order_relaxed);
    if (n % every != 0 || busy) return;
    busy = 1;
    void *frames[DEPTH + SKIP];
    int depth = backtrace(frames, DEPTH + SKIP) - SKIP;
    if (depth > 0) {
        uint64_t h = 1469598103934665603ull;
        for (int i = 0; i < depth; i++) h = (h ^ (uintptr_t)frames[SKIP + i]) * 1099511628211ull;
        h |= 1;
        pthread_mutex_lock(&sites_lock);
        for (uint64_t i = 0; i < SITES; i++) {
            struct site *s = &sites[(h + i) & (SITES - 1)];
            if (s->hash == 0) {
                s->hash = h;
                s->depth = depth;
                memcpy(s->frames, frames + SKIP, depth * sizeof(void *));
            }
            if (s->hash == h) {
                s->count++;
                goto done;
            }
        }
        atomic_fetch_add(&lost, 1);
    done:
        pthread_mutex_unlock(&sites_lock);
    }
    busy = 0;
}

static inline void counted(void) {
    if (atomic_load_explicit(&window, memory_order_relaxed) == 1) {
        atomic_fetch_add_explicit(&total, 1, memory_order_relaxed);
        sample();
    }
}

void *malloc(size_t n) {
    counted();
    return real_malloc(n);
}

void *calloc(size_t a, size_t b) {
    if (!real_calloc) {
        size_t n = (a * b + 15) & ~(size_t)15;
        if (bootstrap_used + n > sizeof bootstrap) return NULL;
        void *p = bootstrap + bootstrap_used;
        bootstrap_used += n;
        return p;
    }
    counted();
    return real_calloc(a, b);
}

void *realloc(void *p, size_t n) {
    counted();
    return real_realloc(p, n);
}

int posix_memalign(void **p, size_t align, size_t n) {
    counted();
    return real_posix_memalign(p, align, n);
}

void *aligned_alloc(size_t align, size_t n) {
    counted();
    return real_aligned_alloc(align, n);
}

void *memalign(size_t align, size_t n) {
    counted();
    return real_memalign(align, n);
}

void free(void *p) {
    static void (*real_free)(void *);
    if ((char *)p >= bootstrap && (char *)p < bootstrap + sizeof bootstrap) return;
    if (!real_free) real_free = dlsym(RTLD_NEXT, "free");
    real_free(p);
}

/* One sampled frame and what addr2line made of it: "function (file:line)",
 * innermost inline frame first, joined with " < ". */
struct frame {
    void *addr;
    const char *module;
    uintptr_t off;
    char text[1024];
};

/* Symbolizes `frames` with one addr2line run per module. */
static void symbolize(struct frame *frames, size_t n) {
    for (size_t i = 0; i < n; i++) {
        Dl_info info;
        if (dladdr(frames[i].addr, &info) && info.dli_fname) {
            frames[i].module = info.dli_fname;
            /* A return address points past the call: look up the call. */
            frames[i].off = (uintptr_t)frames[i].addr - (uintptr_t)info.dli_fbase - 1;
        }
        snprintf(frames[i].text, sizeof frames[i].text, "%p", frames[i].addr);
    }
    char in[] = "/tmp/allocsites-in-XXXXXX", out[] = "/tmp/allocsites-out-XXXXXX";
    int fd_in = mkstemp(in), fd_out = mkstemp(out);
    if (fd_in < 0 || fd_out < 0) return;
    for (size_t i = 0; i < n; i++) {
        const char *module = frames[i].module;
        if (!module) continue;
        FILE *f = fopen(in, "w");
        for (size_t j = i; j < n; j++)
            if (frames[j].module && strcmp(frames[j].module, module) == 0)
                fprintf(f, "0x%lx\n", (unsigned long)frames[j].off);
        fclose(f);
        char cmd[4096];
        snprintf(cmd, sizeof cmd, "addr2line -a -f -C -i -e '%s' < %s > %s 2>/dev/null", module, in, out);
        if (system(cmd) != 0) continue;
        FILE *r = fopen(out, "r");
        char line[2048];
        struct frame *at = NULL;
        size_t next = i, used = 0;
        int fn_line = 1;
        while (r && fgets(line, sizeof line, r)) {
            line[strcspn(line, "\n")] = 0;
            if (strncmp(line, "0x", 2) == 0) {
                /* The next frame of this module. */
                while (next < n && !(frames[next].module && strcmp(frames[next].module, module) == 0)) next++;
                at = next < n ? &frames[next++] : NULL;
                used = 0;
                fn_line = 1;
                if (at) at->text[0] = 0;
                continue;
            }
            if (!at) continue;
            const char *base = strrchr(line, '/');
            const char *piece = fn_line ? line : (base ? base + 1 : line);
            used += snprintf(at->text + used, used < sizeof at->text ? sizeof at->text - used : 0,
                             fn_line ? (used ? " < %s" : "%s") : " (%s)", piece);
            if (used >= sizeof at->text) used = sizeof at->text - 1;
            fn_line = !fn_line;
        }
        if (r) fclose(r);
        /* Every frame of this module is done: keep the outer loop off them. */
        for (size_t j = i; j < n; j++)
            if (frames[j].module && strcmp(frames[j].module, module) == 0) frames[j].module = NULL;
    }
    close(fd_in);
    close(fd_out);
    unlink(in);
    unlink(out);
}

static int by_count(const void *a, const void *b) {
    const struct site *x = a, *y = b;
    return (x->count < y->count) - (x->count > y->count);
}

static double env_num(const char *name, double dflt) {
    const char *v = getenv(name);
    return v && *v ? atof(v) : dflt;
}

static void *reporter(void *arg) {
    (void)arg;
    busy = 1;
    double delay = env_num("ALLOCSITES_DELAY", 0), seconds = env_num("ALLOCSITES_SECONDS", 5);
    usleep((useconds_t)(delay * 1e6));
    atomic_store(&window, 1);
    usleep((useconds_t)(seconds * 1e6));
    atomic_store(&window, 2);

    struct mallinfo2 mi = mallinfo2();
    /* addr2line must not load this library again. */
    unsetenv("LD_PRELOAD");
    pthread_mutex_lock(&sites_lock);
    size_t n = 0;
    for (size_t i = 0; i < SITES; i++)
        if (sites[i].count) sites[n++] = sites[i];
    pthread_mutex_unlock(&sites_lock);
    qsort(sites, n, sizeof *sites, by_count);

    char path[256];
    const char *out_env = getenv("ALLOCSITES_OUT");
    if (out_env && *out_env) snprintf(path, sizeof path, "%s", out_env);
    else snprintf(path, sizeof path, "allocsites.%d.txt", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out) return NULL;
    uint64_t all = atomic_load(&total), sampled = 0;
    for (size_t i = 0; i < n; i++) sampled += sites[i].count;
    fprintf(out, "allocations in the %.1f s window: %llu (%.0f/s); %llu sampled, 1 in %u, %llu lost\n",
            seconds, (unsigned long long)all, all / seconds, (unsigned long long)sampled, every,
            (unsigned long long)atomic_load(&lost));
    fprintf(out, "mallinfo2 at the close: %.1f MiB in arenas, %.1f MiB of it free; %.1f MiB mmapped\n",
            mi.arena / 1048576.0, mi.fordblks / 1048576.0, mi.hblkhd / 1048576.0);
    size_t top = (size_t)env_num("ALLOCSITES_TOP", 40);
    if (top > n) top = n;
    struct frame *frames = real_calloc(top * DEPTH + 1, sizeof *frames);
    size_t nframes = 0;
    for (size_t i = 0; i < top; i++)
        for (int f = 0; f < sites[i].depth; f++) frames[nframes++].addr = sites[i].frames[f];
    symbolize(frames, nframes);
    nframes = 0;
    for (size_t i = 0; i < top; i++) {
        fprintf(out, "\n#%zu  %.1f%%  ~%llu allocations\n", i + 1, 100.0 * sites[i].count / sampled,
                (unsigned long long)sites[i].count * every);
        for (int f = 0; f < sites[i].depth; f++) fprintf(out, "    %s\n", frames[nframes++].text);
    }
    fclose(out);
    fprintf(stderr, "allocsites: report in %s\n", path);
    return NULL;
}

__attribute__((constructor)) static void init(void) {
    busy = 1;
    real_malloc = dlsym(RTLD_NEXT, "malloc");
    real_calloc = dlsym(RTLD_NEXT, "calloc");
    real_realloc = dlsym(RTLD_NEXT, "realloc");
    real_posix_memalign = dlsym(RTLD_NEXT, "posix_memalign");
    real_aligned_alloc = dlsym(RTLD_NEXT, "aligned_alloc");
    real_memalign = dlsym(RTLD_NEXT, "memalign");
    const char *only = getenv("ALLOCSITES_ONLY");
    char exe[4096];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[len > 0 ? len : 0] = 0;
    if (only && *only && !strstr(exe, only)) {
        busy = 0;
        return;
    }
    every = (unsigned)env_num("ALLOCSITES_EVERY", 61);
    if (every == 0) every = 1;
    sites = real_calloc(SITES, sizeof *sites);
    void *prime[4];
    backtrace(prime, 4); /* loads the unwinder now, not inside a hook */
    pthread_t t;
    pthread_attr_t attr;
    pthread_attr_init(&attr);
    pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
    pthread_create(&t, &attr, reporter, NULL);
    busy = 0;
}
