// cpuprof: a cpu-clock sampler of one program over a time window, on
// perf_event_open with no perf tool installed.
//
//   cpuprof [-g] [-T NAME] [-d DELAY_S] [-s SECONDS] [-f HZ] [-t TOP] -- PROGRAM [ARGS...]
//
// Starts PROGRAM held at a pipe, opens one sampling cpu-clock event per CPU
// on it with `inherit` — so every thread it starts later is sampled — and
// lets it run. After DELAY_S the events are enabled, after SECONDS more
// disabled; the samples (user and kernel instruction pointers, with the
// thread) are then symbolized, user ones with `addr2line -f -C -i` through
// /proc/PID/maps, kernel ones with /proc/kallsyms, while PROGRAM still
// runs, and the report goes to stderr: the share of samples per thread
// name, per function (the symbol that holds the IP) and per innermost
// inlined frame. Kernel IPs need perf_event_paranoid <= 1 or CAP_PERFMON;
// without them the sampler falls back to user IPs and says so. A library
// without symbols (libc here) names a static function by the exported one
// before it: glibc's malloc internals show up as `__nss_database_lookup`
// or `__default_morecore`.
//
// With -g each sample also carries its user call chain
// (PERF_SAMPLE_CALLCHAIN, walked by frame pointers, so build PROGRAM with
// `-C force-frame-pointers=yes`), and the report adds the inclusive share
// of every `flexlog_*` function: the samples with that function anywhere on
// the stack, inlined frames included, each sample counted once per
// function. A kernel sample's chain is its thread's user stack at the
// syscall, so a futex wake counts for the Rust code that made it.
//
// With -T NAME only the samples of threads whose name starts with NAME
// count (e.g. `-T replica` for the `replica#N` node threads): every share
// is then of those samples, so one kind of thread's profile reads alone.
//
// Build: gcc -O2 -o cpuprof cpuprof.c
#define _GNU_SOURCE
#include <elf.h>
#include <linux/perf_event.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#define RING_PAGES 64 /* data pages per CPU, a power of two */

struct sample {
    uint64_t ip;
    uint32_t tid;
    int kernel;
    uint64_t *chain; /* -g: the user frames, innermost first */
    uint32_t nchain;
};

static struct sample *samples;
static size_t nsamples, capsamples;
static uint64_t lost;

static double now_s(void) {
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return t.tv_sec + t.tv_nsec / 1e9;
}

/* Moves every complete record out of one CPU's ring. */
static void drain(struct perf_event_mmap_page *meta, size_t page) {
    char *data = (char *)meta + page;
    uint64_t size = (uint64_t)RING_PAGES * page;
    uint64_t head = __atomic_load_n(&meta->data_head, __ATOMIC_ACQUIRE);
    uint64_t tail = meta->data_tail;
    static char rec[1 << 16];
    while (tail < head) {
        struct perf_event_header hdr;
        for (size_t i = 0; i < sizeof hdr; i++) ((char *)&hdr)[i] = data[(tail + i) % size];
        if (hdr.size == 0 || hdr.size > sizeof rec) break;
        for (size_t i = 0; i < hdr.size; i++) rec[i] = data[(tail + i) % size];
        if (hdr.type == PERF_RECORD_SAMPLE) {
            if (nsamples == capsamples) {
                capsamples = capsamples ? 2 * capsamples : 65536;
                samples = realloc(samples, capsamples * sizeof *samples);
            }
            struct sample *s = &samples[nsamples++];
            memcpy(&s->ip, rec + sizeof hdr, 8);
            memcpy(&s->tid, rec + sizeof hdr + 12, 4);
            s->kernel = (hdr.misc & PERF_RECORD_MISC_CPUMODE_MASK) == PERF_RECORD_MISC_KERNEL;
            s->chain = NULL;
            s->nchain = 0;
            if (hdr.size >= sizeof hdr + 24) {
                /* PERF_SAMPLE_CALLCHAIN: nr, then nr IPs with context
                 * markers (>= PERF_CONTEXT_MAX) between the parts. The
                 * first user frame is the sampled IP or the syscall's
                 * return address, the rest return addresses: one byte back
                 * puts those inside their call instruction. */
                uint64_t nr;
                memcpy(&nr, rec + sizeof hdr + 16, 8);
                if (sizeof hdr + 24 + nr * 8 <= hdr.size) {
                    s->chain = malloc(nr * sizeof *s->chain + 1);
                    int first = 1;
                    for (uint64_t i = 0; i < nr; i++) {
                        uint64_t ip;
                        memcpy(&ip, rec + sizeof hdr + 24 + i * 8, 8);
                        if (ip >= (uint64_t)PERF_CONTEXT_MAX) continue;
                        s->chain[s->nchain++] = first ? ip : ip - 1;
                        first = 0;
                    }
                }
            }
        } else if (hdr.type == PERF_RECORD_LOST) {
            uint64_t n;
            memcpy(&n, rec + sizeof hdr + 8, 8);
            lost += n;
        }
        tail += hdr.size;
    }
    __atomic_store_n(&meta->data_tail, tail, __ATOMIC_RELEASE);
}

/* ---- symbols ---------------------------------------------------------- */

struct sym {
    uint64_t ip;
    int kernel;
    char *func;   /* the symbol holding the IP */
    char *inner;  /* the innermost inlined frame at it */
    char *all;    /* every frame at it, innermost first, one per line */
    char **flex;  /* -g: the `flexlog_*` ones among them */
    int nflex;
};

struct ksym {
    uint64_t addr;
    char name[128];
};

static int by_addr(const void *a, const void *b) {
    uint64_t x = ((const struct ksym *)a)->addr, y = ((const struct ksym *)b)->addr;
    return (x > y) - (x < y);
}

static struct ksym *ksyms;
static size_t nksyms;

static void load_kallsyms(void) {
    FILE *f = fopen("/proc/kallsyms", "r");
    char line[512];
    size_t cap = 0;
    while (f && fgets(line, sizeof line, f)) {
        unsigned long long addr;
        char type, name[256];
        if (sscanf(line, "%llx %c %255s", &addr, &type, name) != 3 || addr == 0) continue;
        if (type != 't' && type != 'T') continue;
        if (nksyms == cap) ksyms = realloc(ksyms, (cap = cap ? 2 * cap : 65536) * sizeof *ksyms);
        ksyms[nksyms].addr = addr;
        snprintf(ksyms[nksyms].name, sizeof ksyms[nksyms].name, "[k] %.120s", name);
        nksyms++;
    }
    if (f) fclose(f);
    qsort(ksyms, nksyms, sizeof *ksyms, by_addr);
}

static const char *kernel_name(uint64_t ip) {
    size_t lo = 0, hi = nksyms;
    while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (ksyms[mid].addr <= ip) lo = mid + 1;
        else hi = mid;
    }
    return lo ? ksyms[lo - 1].name : "[kernel]";
}

struct map {
    uint64_t start, end, off;
    /* The file's loadable segments: addr2line wants the virtual address a
     * file offset is loaded at. */
    Elf64_Phdr loads[16];
    int nloads;
    char path[512];
};

/* Reads the PT_LOAD headers of ELF64 file `m->path` into `m`. */
static void read_loads(struct map *m) {
    FILE *f = fopen(m->path, "rb");
    Elf64_Ehdr eh;
    if (f && fread(&eh, sizeof eh, 1, f) == 1 && memcmp(eh.e_ident, ELFMAG, SELFMAG) == 0 &&
        eh.e_ident[EI_CLASS] == ELFCLASS64) {
        for (int i = 0; i < eh.e_phnum && m->nloads < 16; i++) {
            Elf64_Phdr ph;
            if (fseek(f, (long)(eh.e_phoff + (uint64_t)i * eh.e_phentsize), SEEK_SET) != 0 ||
                fread(&ph, sizeof ph, 1, f) != 1)
                break;
            if (ph.p_type == PT_LOAD) m->loads[m->nloads++] = ph;
        }
    }
    if (f) fclose(f);
}

/* The address addr2line knows `ip` of mapping `m` by. */
static uint64_t file_vaddr(const struct map *m, uint64_t ip) {
    uint64_t off = ip - m->start + m->off;
    for (int i = 0; i < m->nloads; i++) {
        const Elf64_Phdr *ph = &m->loads[i];
        if (off >= ph->p_offset && off < ph->p_offset + ph->p_filesz) return off - ph->p_offset + ph->p_vaddr;
    }
    return off;
}

static struct map *maps;
static size_t nmaps;

static void load_maps(pid_t pid) {
    char path[64], line[1024];
    snprintf(path, sizeof path, "/proc/%d/maps", (int)pid);
    FILE *f = fopen(path, "r");
    size_t cap = 0;
    while (f && fgets(line, sizeof line, f)) {
        struct map m = {0};
        char perms[8];
        if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %511s", &m.start, &m.end, perms, &m.off, m.path) < 5)
            continue;
        if (perms[2] != 'x') continue;
        if (m.path[0] == '/') read_loads(&m);
        if (nmaps == cap) maps = realloc(maps, (cap = cap ? 2 * cap : 64) * sizeof *maps);
        maps[nmaps++] = m;
    }
    if (f) fclose(f);
}

static struct map *map_of(uint64_t ip) {
    for (size_t i = 0; i < nmaps; i++)
        if (ip >= maps[i].start && ip < maps[i].end) return &maps[i];
    return NULL;
}

/* Symbolizes the user IPs of `syms` that fall in `m`, one addr2line run. */
static void addr2line(struct sym *syms, size_t n, struct map *m) {
    char in[] = "/tmp/cpuprof-in-XXXXXX", out[] = "/tmp/cpuprof-out-XXXXXX";
    int a = mkstemp(in), b = mkstemp(out);
    if (a < 0 || b < 0) return;
    FILE *f = fdopen(a, "w");
    size_t count = 0;
    for (size_t i = 0; i < n; i++)
        if (!syms[i].func && map_of(syms[i].ip) == m) {
            fprintf(f, "0x%lx\n", (unsigned long)file_vaddr(m, syms[i].ip));
            count++;
        }
    fclose(f);
    close(b);
    char cmd[2048];
    snprintf(cmd, sizeof cmd, "addr2line -a -f -C -i -e '%s' < %s > %s 2>/dev/null", m->path, in, out);
    /* [vdso] and other mappings with no file are named as they are. */
    if (count && m->path[0] == '/' && system(cmd) == 0) {
        FILE *r = fopen(out, "r");
        char line[4096];
        size_t next = 0;
        struct sym *at = NULL;
        int fn_line = 1;
        while (r && fgets(line, sizeof line, r)) {
            line[strcspn(line, "\n")] = 0;
            if (strncmp(line, "0x", 2) == 0) {
                while (next < n && (syms[next].func || map_of(syms[next].ip) != m)) next++;
                at = next < n ? &syms[next++] : NULL;
                fn_line = 1;
                continue;
            }
            if (at && fn_line) {
                /* Innermost inlined frame first, the symbol itself last. */
                if (!at->inner) at->inner = strdup(line);
                free(at->func);
                at->func = strdup(line);
                size_t had = at->all ? strlen(at->all) : 0;
                at->all = realloc(at->all, had + strlen(line) + 2);
                sprintf(at->all + had, "%s\n", line);
            }
            fn_line = !fn_line;
        }
        if (r) fclose(r);
    }
    /* Whatever addr2line did not name keeps its module and offset. */
    for (size_t i = 0; i < n; i++)
        if (map_of(syms[i].ip) == m && !syms[i].func) {
            char name[600];
            const char *base = strrchr(m->path, '/');
            if (m->path[0] == '/')
                snprintf(name, sizeof name, "%s+0x%lx", base ? base + 1 : m->path,
                         (unsigned long)(syms[i].ip - m->start + m->off));
            else
                snprintf(name, sizeof name, "%s", m->path[0] ? m->path : "[anon]");
            syms[i].func = strdup(name);
            syms[i].inner = strdup(name);
            syms[i].all = strdup(name);
        }
    unlink(in);
    unlink(out);
}

/* ---- report ------------------------------------------------------------ */

struct tally {
    const char *name;
    uint64_t n;
};

static int by_count(const void *a, const void *b) {
    uint64_t x = ((const struct tally *)a)->n, y = ((const struct tally *)b)->n;
    return (x < y) - (x > y);
}

static int by_name(const void *a, const void *b) {
    return strcmp(*(char *const *)a, *(char *const *)b);
}

/* Prints the `top` most frequent of `names` with their share. */
static void print_top(const char *title, const char **names, size_t n, size_t top) {
    const char **sorted = malloc(n * sizeof *sorted);
    memcpy(sorted, names, n * sizeof *sorted);
    qsort(sorted, n, sizeof *sorted, by_name);
    struct tally *t = calloc(n + 1, sizeof *t);
    size_t nt = 0;
    for (size_t i = 0; i < n; i++) {
        if (nt && strcmp(t[nt - 1].name, sorted[i]) == 0) t[nt - 1].n++;
        else t[nt++] = (struct tally){sorted[i], 1};
    }
    qsort(t, nt, sizeof *t, by_count);
    fprintf(stderr, "\n%s\n", title);
    for (size_t i = 0; i < nt && i < top; i++)
        fprintf(stderr, "  %6.2f%%  %s\n", 100.0 * t[i].n / n, t[i].name);
    free(t);
    free(sorted);
}

static int by_u64(const void *a, const void *b) {
    uint64_t x = *(const uint64_t *)a, y = *(const uint64_t *)b;
    return (x > y) - (x < y);
}

static struct sym *sym_of(struct sym *syms, size_t n, uint64_t ip) {
    size_t lo = 0, hi = n;
    while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (syms[mid].ip < ip) lo = mid + 1;
        else hi = mid;
    }
    return &syms[lo];
}

/* The `flexlog_*` frames among `sym`'s, split out of `all` once. */
static void split_flexlog(struct sym *sym) {
    for (const char *at = sym->all; at && *at;) {
        const char *end = strchr(at, '\n');
        if (!end) end = at + strlen(at);
        const char *hit = strstr(at, "flexlog_");
        if (hit && hit < end) {
            sym->flex = realloc(sym->flex, (sym->nflex + 1) * sizeof *sym->flex);
            sym->flex[sym->nflex++] = strndup(at, end - at);
        }
        at = *end ? end + 1 : end;
    }
}

/* -g: the share of all samples with each `flexlog_*` function on the stack. */
static void print_inclusive(struct sym *syms, size_t nsyms, size_t top) {
    for (size_t i = 0; i < nsyms; i++) split_flexlog(&syms[i]);
    const char **names = NULL, **mine = NULL;
    size_t n = 0, cap = 0, capmine = 0;
    for (size_t i = 0; i < nsamples; i++) {
        size_t nmine = 0;
        for (uint32_t f = 0; f <= samples[i].nchain; f++) {
            struct sym *at = sym_of(syms, nsyms, f == 0 ? samples[i].ip : samples[i].chain[f - 1]);
            for (int k = 0; k < at->nflex; k++) {
                if (nmine == capmine) mine = realloc(mine, (capmine = capmine ? 2 * capmine : 64) * sizeof *mine);
                mine[nmine++] = at->flex[k];
            }
        }
        qsort(mine, nmine, sizeof *mine, by_name);
        for (size_t k = 0; k < nmine; k++) {
            if (k && strcmp(mine[k], mine[k - 1]) == 0) continue;
            if (n == cap) names = realloc(names, (cap = cap ? 2 * cap : 65536) * sizeof *names);
            names[n++] = mine[k];
        }
    }
    qsort(names, n, sizeof *names, by_name);
    struct tally *t = calloc(n + 1, sizeof *t);
    size_t nt = 0;
    for (size_t i = 0; i < n; i++) {
        if (nt && strcmp(t[nt - 1].name, names[i]) == 0) t[nt - 1].n++;
        else t[nt++] = (struct tally){names[i], 1};
    }
    qsort(t, nt, sizeof *t, by_count);
    fprintf(stderr, "\nflexlog functions on the stack (inclusive, share of all samples):\n");
    for (size_t i = 0; i < nt && i < top; i++)
        fprintf(stderr, "  %6.2f%%  %s\n", 100.0 * t[i].n / nsamples, t[i].name);
    free(t);
    free(names);
    free(mine);
}

static void report(pid_t pid, double seconds, int kernel_sampled, int callers, size_t top, const char *only) {
    load_maps(pid);
    load_kallsyms();
    /* Thread names while the threads still run. */
    const char **threads = malloc((nsamples + 1) * sizeof *threads);
    for (size_t i = 0; i < nsamples; i++) {
        char path[96], comm[64] = "?";
        snprintf(path, sizeof path, "/proc/%d/task/%u/comm", (int)pid, samples[i].tid);
        FILE *f = fopen(path, "r");
        if (f && fgets(comm, sizeof comm, f)) comm[strcspn(comm, "\n")] = 0;
        if (f) fclose(f);
        /* Numbered threads ("flexlog-replica-3") count as one kind. */
        size_t len = strlen(comm);
        while (len && ((comm[len - 1] >= '0' && comm[len - 1] <= '9') || strchr("-#.", comm[len - 1]))) len--;
        comm[len ? len : strlen(comm)] = 0;
        threads[i] = strdup(comm);
    }
    if (only) {
        size_t kept = 0;
        for (size_t i = 0; i < nsamples; i++) {
            if (strncmp(threads[i], only, strlen(only)) != 0) continue;
            threads[kept] = threads[i];
            samples[kept++] = samples[i];
        }
        fprintf(stderr, "cpuprof: %zu of %zu samples on threads named %s*\n", kept, nsamples, only);
        nsamples = kept;
    }
    /* Every distinct address once: the sampled IPs and the chains' frames
     * (user addresses, never equal to a kernel one). */
    size_t naddrs = 0;
    for (size_t i = 0; i < nsamples; i++) naddrs += 1 + samples[i].nchain;
    uint64_t *addrs = malloc((naddrs + 1) * sizeof *addrs);
    naddrs = 0;
    for (size_t i = 0; i < nsamples; i++) {
        addrs[naddrs++] = samples[i].ip;
        for (uint32_t f = 0; f < samples[i].nchain; f++) addrs[naddrs++] = samples[i].chain[f];
    }
    qsort(addrs, naddrs, sizeof *addrs, by_u64);
    struct sym *syms = calloc(naddrs + 1, sizeof *syms);
    size_t nsyms = 0;
    for (size_t i = 0; i < naddrs; i++)
        if (!nsyms || syms[nsyms - 1].ip != addrs[i]) syms[nsyms++] = (struct sym){.ip = addrs[i]};
    free(addrs);
    for (size_t i = 0; i < nsamples; i++) sym_of(syms, nsyms, samples[i].ip)->kernel = samples[i].kernel;
    for (size_t i = 0; i < nsyms; i++) {
        if (syms[i].kernel) syms[i].func = syms[i].inner = syms[i].all = strdup(kernel_name(syms[i].ip));
        else if (!map_of(syms[i].ip)) syms[i].func = syms[i].inner = syms[i].all = strdup("[unknown]");
    }
    for (size_t i = 0; i < nmaps; i++) addr2line(syms, nsyms, &maps[i]);
    const char **funcs = malloc((nsamples + 1) * sizeof *funcs);
    const char **inners = malloc((nsamples + 1) * sizeof *inners);
    for (size_t i = 0; i < nsamples; i++) {
        struct sym *at = sym_of(syms, nsyms, samples[i].ip);
        funcs[i] = at->func;
        inners[i] = at->inner;
    }
    fprintf(stderr, "cpuprof: %zu samples in %.1f s (%llu lost)%s\n", nsamples, seconds,
            (unsigned long long)lost, kernel_sampled ? "" : "; user IPs only (kernel not permitted)");
    if (!nsamples) return;
    print_top("by thread:", threads, nsamples, top);
    print_top("by function (self):", funcs, nsamples, top);
    print_top("by innermost inlined frame (self):", inners, nsamples, top);
    if (callers) print_inclusive(syms, nsyms, top);
}

int main(int argc, char **argv) {
    double delay = 0, seconds = 5, hz = 7000;
    size_t top = 40;
    const char *only = NULL;
    int opt, callers = 0;
    while ((opt = getopt(argc, argv, "+gT:d:s:f:t:")) != -1) {
        switch (opt) {
        case 'g': callers = 1; break;
        case 'T': only = optarg; break;
        case 'd': delay = atof(optarg); break;
        case 's': seconds = atof(optarg); break;
        case 'f': hz = atof(optarg); break;
        case 't': top = (size_t)atol(optarg); break;
        default:
            fprintf(stderr, "usage: %s [-g] [-T name] [-d delay_s] [-s seconds] [-f hz] [-t top] -- prog args...\n", argv[0]);
            return 2;
        }
    }
    if (optind >= argc) {
        fprintf(stderr, "cpuprof: no program given\n");
        return 2;
    }
    int gate[2];
    if (pipe(gate) != 0) return 1;
    pid_t child = fork();
    if (child == 0) {
        char go;
        close(gate[1]);
        if (read(gate[0], &go, 1) != 1) _exit(1);
        execvp(argv[optind], argv + optind);
        perror("cpuprof: exec");
        _exit(127);
    }
    close(gate[0]);

    long ncpu = sysconf(_SC_NPROCESSORS_ONLN);
    size_t page = (size_t)sysconf(_SC_PAGESIZE);
    int *fds = calloc(ncpu, sizeof *fds);
    struct perf_event_mmap_page **rings = calloc(ncpu, sizeof *rings);
    int kernel_sampled = 1;
    for (long cpu = 0; cpu < ncpu; cpu++) {
        struct perf_event_attr attr = {0};
        attr.size = sizeof attr;
        attr.type = PERF_TYPE_SOFTWARE;
        attr.config = PERF_COUNT_SW_CPU_CLOCK;
        attr.sample_period = (uint64_t)(1e9 / hz);
        attr.sample_type = PERF_SAMPLE_IP | PERF_SAMPLE_TID | (callers ? PERF_SAMPLE_CALLCHAIN : 0);
        attr.exclude_callchain_kernel = 1;
        attr.disabled = 1;
        attr.inherit = 1;
        attr.exclude_hv = 1;
        attr.exclude_kernel = !kernel_sampled;
        fds[cpu] = syscall(SYS_perf_event_open, &attr, child, (int)cpu, -1, PERF_FLAG_FD_CLOEXEC);
        if (fds[cpu] < 0 && kernel_sampled) {
            kernel_sampled = 0;
            attr.exclude_kernel = 1;
            fds[cpu] = syscall(SYS_perf_event_open, &attr, child, (int)cpu, -1, PERF_FLAG_FD_CLOEXEC);
        }
        if (fds[cpu] < 0) {
            perror("cpuprof: perf_event_open");
            kill(child, SIGKILL);
            return 1;
        }
        rings[cpu] = mmap(NULL, (RING_PAGES + 1) * page, PROT_READ | PROT_WRITE, MAP_SHARED, fds[cpu], 0);
        if (rings[cpu] == MAP_FAILED) {
            perror("cpuprof: mmap");
            kill(child, SIGKILL);
            return 1;
        }
    }
    if (write(gate[1], "g", 1) != 1) return 1;
    close(gate[1]);

    double start = now_s();
    while (now_s() - start < delay) usleep(10000);
    for (long cpu = 0; cpu < ncpu; cpu++) ioctl(fds[cpu], PERF_EVENT_IOC_ENABLE, 0);
    double opened = now_s();
    while (now_s() - opened < seconds) {
        usleep(10000);
        for (long cpu = 0; cpu < ncpu; cpu++) drain(rings[cpu], page);
    }
    for (long cpu = 0; cpu < ncpu; cpu++) {
        ioctl(fds[cpu], PERF_EVENT_IOC_DISABLE, 0);
        drain(rings[cpu], page);
    }
    report(child, now_s() - opened, kernel_sampled, callers, top, only);
    int status = 0;
    waitpid(child, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}
