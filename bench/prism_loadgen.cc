/**
 * @file
 * prism_loadgen — wire-level *open-loop* load generator for
 * prism_server (docs/SERVER.md; the `fig_overload_slo` figure).
 *
 * Why open-loop: every other bench in this repo is closed-loop — N
 * client threads each wait for a reply before sending the next request
 * — and a closed-loop client *slows down with the server*, hiding
 * queueing delay exactly when the server is overloaded. An open-loop
 * generator fixes the *arrival* schedule up front (`--rate` requests
 * per second, Poisson or uniform spacing) and measures each request's
 * latency from its SCHEDULED arrival time, not from the moment the
 * socket finally accepted it. A request that had to queue behind a
 * stalled pipeline therefore counts its queueing time — the
 * coordinated-omission correction. That makes p99/p999 vs offered
 * load an honest overload figure.
 *
 * The generator speaks RESP over --conns TCP connections, pipelining
 * up to --pipeline requests per connection, with YCSB A/B/C/E op
 * mixes reusing the repo's generators (ycsb::OpGenerator). `--rate=0`
 * degrades to closed-loop (always --pipeline outstanding), which is
 * what `--load` uses to preload the dataset at full speed.
 *
 * Output: one human-readable summary line plus (with
 * PRISM_BENCH_JSON=<path>) a bench_compare-compatible JSON row tagged
 * `"figure": "fig_overload_slo"`.
 */
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/rand.h"
#include "net/resp.h"
#include "net/resp_server.h"
#include "ycsb/workload.h"

using namespace prism;

namespace {

struct Config {
    std::string host = "127.0.0.1";
    int port = 0;
    ycsb::Mix mix = ycsb::Mix::kC;
    std::string mix_name = "C";
    double rate = 0;            ///< total offered ops/s; 0 = closed loop
    bool poisson = true;        ///< arrival spacing
    uint64_t duration_s = 30;
    uint64_t records = 100000;
    uint32_t value_bytes = 256;
    int conns = 4;
    int pipeline = 64;
    bool load = false;          ///< preload records, then exit
    std::string tenant;         ///< AUTH before the run
};

/** One request in flight: its scheduled arrival stamp. */
struct Inflight {
    uint64_t sched_ns;
};

struct WorkerResult {
    Histogram lat;
    uint64_t sent = 0;
    uint64_t completed = 0;
    uint64_t errors = 0;
};

int
dialServer(const Config &cfg)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(cfg.port));
    if (::inet_pton(AF_INET, cfg.host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

/** Append one RESP command for @p op to @p out. */
void
encodeOp(const ycsb::Op &op, uint32_t value_bytes, std::string *scratch,
         std::string *out)
{
    const uint64_t key = op.key & net::kKeyMask;
    const std::string keystr = std::to_string(key);
    switch (op.type) {
      case ycsb::OpType::kInsert:
      case ycsb::OpType::kUpdate:
        ycsb::OpGenerator::fillValue(key, value_bytes, scratch);
        net::encodeCommand(out, {"SET", keystr, *scratch});
        return;
      case ycsb::OpType::kRead:
        net::encodeCommand(out, {"GET", keystr});
        return;
      case ycsb::OpType::kScan:
        net::encodeCommand(out, {"SCAN", keystr, "COUNT",
                                 std::to_string(op.scan_len)});
        return;
    }
}

/**
 * One connection's worth of the run. Arrival times are scheduled per
 * connection at rate/conns; when the pipeline cap or the socket stalls,
 * later requests keep their original scheduled stamps, so their
 * recorded latency includes the time they spent queued locally — the
 * open-loop/coordinated-omission contract.
 */
void
runWorker(const Config &cfg, int worker_id, uint64_t deadline_ns,
          WorkerResult *res)
{
    // The default 50 us timer slack would make every timed wake late.
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    const int fd = dialServer(cfg);
    if (fd < 0) {
        std::fprintf(stderr, "loadgen: connect to %s:%d failed: %s\n",
                     cfg.host.c_str(), cfg.port, std::strerror(errno));
        res->errors++;
        return;
    }

    ycsb::WorkloadSpec spec = ycsb::WorkloadSpec::forMix(
        cfg.load ? ycsb::Mix::kLoad : cfg.mix, cfg.records, 0);
    spec.value_bytes = cfg.value_bytes;
    ycsb::OpGenerator gen(spec,
                          0x9e3779b9u + static_cast<uint64_t>(worker_id));
    Xorshift rng(0xdecafbad + static_cast<uint64_t>(worker_id) * 7919);

    // The load phase splits the insert space statically: worker w
    // inserts items [w*per, w*per+per).
    const uint64_t per_worker =
        (cfg.records + static_cast<uint64_t>(cfg.conns) - 1) /
        static_cast<uint64_t>(cfg.conns);
    uint64_t load_next =
        static_cast<uint64_t>(worker_id) * per_worker;
    const uint64_t load_end =
        std::min(load_next + per_worker, cfg.records);

    const double per_conn_rate =
        cfg.rate > 0 ? cfg.rate / cfg.conns : 0;
    const double mean_gap_ns =
        per_conn_rate > 0 ? 1e9 / per_conn_rate : 0;
    auto nextGap = [&]() -> uint64_t {
        if (mean_gap_ns <= 0)
            return 0;
        if (!cfg.poisson)
            return static_cast<uint64_t>(mean_gap_ns);
        // Exponential inter-arrival: -ln(U) * mean, U in (0, 1].
        const double u = 1.0 - rng.nextDouble();
        return static_cast<uint64_t>(-std::log(u) * mean_gap_ns);
    };

    std::string out, scratch, in;
    size_t out_sent = 0;
    std::deque<Inflight> inflight;
    uint64_t sched_ns = nowNs() + nextGap();
    bool done_sending = false;

    if (!cfg.tenant.empty()) {
        net::encodeCommand(&out, {"AUTH", cfg.tenant});
        inflight.push_back({nowNs()});
    }

    while (!done_sending || !inflight.empty()) {
        const uint64_t now = nowNs();

        // Enqueue every op whose scheduled arrival has passed (or, in
        // closed-loop mode, top the pipeline up), respecting the cap.
        while (inflight.size() < static_cast<size_t>(cfg.pipeline) &&
               !done_sending) {
            if (cfg.load) {
                if (load_next >= load_end) {
                    done_sending = true;
                    break;
                }
                const uint64_t key =
                    ycsb::OpGenerator::keyOf(load_next++) &
                    net::kKeyMask;
                ycsb::OpGenerator::fillValue(key, cfg.value_bytes,
                                             &scratch);
                net::encodeCommand(
                    &out, {"SET", std::to_string(key), scratch});
                inflight.push_back({now});
                res->sent++;
                continue;
            }
            if (now >= deadline_ns) {
                done_sending = true;
                break;
            }
            if (cfg.rate > 0 && sched_ns > now)
                break;  // next arrival is in the future
            const ycsb::Op op = gen.next();
            encodeOp(op, cfg.value_bytes, &scratch, &out);
            inflight.push_back(
                {cfg.rate > 0 ? sched_ns : now});
            res->sent++;
            if (cfg.rate > 0)
                sched_ns += nextGap();
        }

        // Write what we can, then wait for readable / next arrival.
        if (out_sent < out.size()) {
            const ssize_t w = ::send(fd, out.data() + out_sent,
                                     out.size() - out_sent,
                                     MSG_NOSIGNAL | MSG_DONTWAIT);
            if (w > 0)
                out_sent += static_cast<size_t>(w);
            else if (w < 0 && errno != EAGAIN &&
                     errno != EWOULDBLOCK) {
                res->errors++;
                break;
            }
            if (out_sent >= out.size()) {
                out.clear();
                out_sent = 0;
            }
        }

        if (done_sending && inflight.empty())
            break;
        // Sleep until a reply arrives or the next arrival is due, to the
        // nanosecond: a whole-millisecond timeout truncates to 0 (a busy
        // poll) whenever the next send is under 1 ms away.
        pollfd pfd{fd, POLLIN, 0};
        if (out_sent < out.size())
            pfd.events |= POLLOUT;
        uint64_t wait_ns = 100'000'000;
        if (!cfg.load && cfg.rate > 0 && !done_sending &&
            inflight.size() < static_cast<size_t>(cfg.pipeline))
            wait_ns = std::min(wait_ns, sched_ns > now ? sched_ns - now : 0);
        const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                               static_cast<long>(wait_ns % 1'000'000'000)};
        if (::ppoll(&pfd, 1, &timeout, nullptr) < 0 && errno != EINTR) {
            res->errors++;
            break;
        }
        if (!(pfd.revents & (POLLIN | POLLHUP | POLLERR)))
            continue;

        char buf[65536];
        const ssize_t r = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (r == 0 || (r < 0 && errno != EAGAIN &&
                       errno != EWOULDBLOCK && errno != EINTR)) {
            if (!inflight.empty())
                res->errors++;
            break;
        }
        if (r < 0)
            continue;
        in.append(buf, static_cast<size_t>(r));
        size_t consumed = 0;
        while (!inflight.empty()) {
            net::RespReply reply;
            const size_t used = net::parseReply(
                std::string_view(in).substr(consumed), &reply);
            if (used == 0)
                break;
            if (used == SIZE_MAX) {
                std::fprintf(stderr,
                             "loadgen: malformed reply from server\n");
                res->errors++;
                inflight.clear();
                done_sending = true;
                break;
            }
            consumed += used;
            const uint64_t done = nowNs();
            res->lat.record(done - inflight.front().sched_ns);
            res->completed++;
            if (reply.isError()) {
                if (res->errors == 0)
                    std::fprintf(stderr,
                                 "loadgen: server error reply: %s\n",
                                 reply.str.c_str());
                res->errors++;
            }
            inflight.pop_front();
        }
        in.erase(0, consumed);
    }
    ::close(fd);
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --port=N [options]\n"
        "  --host=ADDR       server address (default 127.0.0.1)\n"
        "  --mix=a|b|c|e     YCSB mix (default c)\n"
        "  --rate=N          offered load, total ops/s (0 = closed "
        "loop)\n"
        "  --spacing=poisson|uniform   arrival process (default "
        "poisson)\n"
        "  --duration=SECS   run length (default 30)\n"
        "  --records=N       key-space size (default 100000)\n"
        "  --value-bytes=N   SET payload size (default 256)\n"
        "  --conns=N         connections (default 4)\n"
        "  --pipeline=N      per-connection in-flight cap (default "
        "64)\n"
        "  --tenant=NAME     AUTH into a tenant namespace\n"
        "  --load            preload the key space (closed loop), "
        "then exit\n",
        argv0);
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    for (int i = 1; i < argc; i++) {
        const char *a = argv[i];
        if (std::strncmp(a, "--host=", 7) == 0)
            cfg.host = a + 7;
        else if (std::strncmp(a, "--port=", 7) == 0)
            cfg.port = std::atoi(a + 7);
        else if (std::strncmp(a, "--mix=", 6) == 0) {
            const std::string m = a + 6;
            if (m == "a" || m == "A")
                cfg.mix = ycsb::Mix::kA, cfg.mix_name = "A";
            else if (m == "b" || m == "B")
                cfg.mix = ycsb::Mix::kB, cfg.mix_name = "B";
            else if (m == "c" || m == "C")
                cfg.mix = ycsb::Mix::kC, cfg.mix_name = "C";
            else if (m == "e" || m == "E")
                cfg.mix = ycsb::Mix::kE, cfg.mix_name = "E";
            else
                return usage(argv[0]);
        } else if (std::strncmp(a, "--rate=", 7) == 0)
            cfg.rate = std::atof(a + 7);
        else if (std::strcmp(a, "--spacing=poisson") == 0)
            cfg.poisson = true;
        else if (std::strcmp(a, "--spacing=uniform") == 0)
            cfg.poisson = false;
        else if (std::strncmp(a, "--duration=", 11) == 0)
            cfg.duration_s = std::strtoull(a + 11, nullptr, 10);
        else if (std::strncmp(a, "--records=", 10) == 0)
            cfg.records = std::strtoull(a + 10, nullptr, 10);
        else if (std::strncmp(a, "--value-bytes=", 14) == 0)
            cfg.value_bytes = static_cast<uint32_t>(
                std::strtoul(a + 14, nullptr, 10));
        else if (std::strncmp(a, "--conns=", 8) == 0)
            cfg.conns = std::atoi(a + 8);
        else if (std::strncmp(a, "--pipeline=", 11) == 0)
            cfg.pipeline = std::atoi(a + 11);
        else if (std::strncmp(a, "--tenant=", 9) == 0)
            cfg.tenant = a + 9;
        else if (std::strcmp(a, "--load") == 0)
            cfg.load = true;
        else
            return usage(argv[0]);
    }
    if (cfg.port <= 0 || cfg.conns <= 0 || cfg.pipeline <= 0 ||
        cfg.records == 0)
        return usage(argv[0]);

    const uint64_t start_ns = nowNs();
    const uint64_t deadline_ns =
        start_ns + cfg.duration_s * 1000000000ull;
    std::vector<WorkerResult> results(
        static_cast<size_t>(cfg.conns));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(cfg.conns));
    for (int w = 0; w < cfg.conns; w++)
        threads.emplace_back(runWorker, std::cref(cfg), w, deadline_ns,
                             &results[static_cast<size_t>(w)]);
    for (auto &t : threads)
        t.join();
    const double elapsed_s =
        static_cast<double>(nowNs() - start_ns) / 1e9;

    Histogram lat;
    uint64_t sent = 0, completed = 0, errors = 0;
    for (const auto &r : results) {
        lat.merge(r.lat);
        sent += r.sent;
        completed += r.completed;
        errors += r.errors;
    }
    const double achieved =
        elapsed_s > 0 ? static_cast<double>(completed) / elapsed_s : 0;

    if (cfg.load) {
        std::printf("loadgen: loaded %llu keys in %.1fs (%.1f Kops/s, "
                    "%llu errors)\n",
                    static_cast<unsigned long long>(completed),
                    elapsed_s, achieved / 1e3,
                    static_cast<unsigned long long>(errors));
        return errors == 0 ? 0 : 1;
    }

    std::printf(
        "loadgen: YCSB-%s offered=%.0f ops/s achieved=%.0f ops/s "
        "(%llu/%llu completed, %llu errors) %s\n",
        cfg.mix_name.c_str(), cfg.rate, achieved,
        static_cast<unsigned long long>(completed),
        static_cast<unsigned long long>(sent),
        static_cast<unsigned long long>(errors),
        lat.summaryUs().c_str());

    char row[512];
    std::snprintf(
        row, sizeof(row),
        "{\"figure\": \"fig_overload_slo\", \"store\": \"Prism\", "
        "\"workload\": \"%s\", \"offered_kops\": %.1f, "
        "\"achieved_kops\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
        "\"p999_us\": %.1f, \"conns\": %d, \"pipeline\": %d, "
        "\"spacing\": \"%s\", \"errors\": %llu}",
        cfg.mix_name.c_str(), cfg.rate / 1e3, achieved / 1e3,
        static_cast<double>(lat.percentile(0.5)) / 1e3,
        static_cast<double>(lat.percentile(0.99)) / 1e3,
        static_cast<double>(lat.percentile(0.999)) / 1e3, cfg.conns,
        cfg.pipeline, cfg.poisson ? "poisson" : "uniform",
        static_cast<unsigned long long>(errors));
    bench::benchJsonRowUnsharded(row);

    // A smoke gate: the run must have actually completed work.
    return completed > 0 && errors == 0 ? 0 : 1;
}
