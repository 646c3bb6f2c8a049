#include "wire_client.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>
#include <fcntl.h>

#include "decorators.h"
#include "inputs.h"

namespace perfbench {

namespace {

void
appendBulk(std::string &out, std::string_view s)
{
    out += '$';
    out += std::to_string(s.size());
    out += "\r\n";
    out += s;
    out += "\r\n";
}

/** One parsed reply. */
struct Reply {
    char type = 0;          ///< '+', '-', ':', '$' (null: '$' + is_null)
    bool is_null = false;
    std::string_view body;  ///< line or bulk payload
};

/**
 * Parse one reply at @p in[off..]. @return bytes consumed, 0 when the
 * reply is not complete yet.
 */
size_t
parseReply(const std::string &in, size_t off, Reply *r)
{
    const size_t eol = in.find("\r\n", off);
    if (eol == std::string::npos)
        return 0;
    r->type = in[off];
    r->is_null = false;
    std::string_view line(in.data() + off + 1, eol - off - 1);
    if (r->type != '$') {
        r->body = line;
        return eol + 2 - off;
    }
    const long n = std::strtol(std::string(line).c_str(), nullptr, 10);
    if (n < 0) {
        r->is_null = true;
        r->body = {};
        return eol + 2 - off;
    }
    const size_t need = eol + 2 + static_cast<size_t>(n) + 2;
    if (in.size() < need)
        return 0;
    r->body = std::string_view(in.data() + eol + 2, static_cast<size_t>(n));
    return need - off;
}

}  // namespace

double
WireResult::achievedOps() const
{
    if (completed == 0 || last_recv_ns <= first_sched_ns)
        return 0;
    return static_cast<double>(completed) * 1e9 /
           static_cast<double>(last_recv_ns - first_sched_ns);
}

std::vector<float>
WireResult::all(std::vector<float> WireWindow::*field) const
{
    std::vector<float> out;
    for (const auto &w : windows)
        out.insert(out.end(), (w.*field).begin(), (w.*field).end());
    return out;
}

double
windowMedian(const std::vector<WireWindow> &windows,
             std::vector<float> WireWindow::*field, double q)
{
    std::vector<double> per;
    for (const auto &w : windows)
        if (!(w.*field).empty())
            per.push_back(percentile(w.*field, q));
    if (per.empty())
        return 0;
    std::sort(per.begin(), per.end());
    const size_t n = per.size();
    return n % 2 ? per[n / 2] : (per[n / 2 - 1] + per[n / 2]) / 2;
}

WireClient::WireClient(int port, int conns, size_t value_bytes,
                       KeyVersions &kv)
    : value_bytes_(value_bytes), kv_(kv), conns_(static_cast<size_t>(conns))
{
    // Wake-ups land within a microsecond of the deadline instead of the
    // default 50 us slack; the thread still sleeps between them.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    // Woken on schedule, the generator should get a CPU before the
    // server's and the simulator's threads, or its lateness shows up as
    // server latency (and, past the lag bound, spoils the phase).
    // Linux applies this to the calling thread only. Best effort: where
    // raising priority is not allowed the lag check still holds.
    errno = 0;
    old_nice_ = ::getpriority(PRIO_PROCESS, 0);
    if (errno == 0)
        ::setpriority(PRIO_PROCESS, 0, kGeneratorNice);
    for (auto &c : conns_) {
        c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<uint16_t>(port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (c.fd < 0 ||
            ::connect(c.fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            throw std::runtime_error(std::string("connect: ") +
                                     std::strerror(errno));
        const int one = 1;
        ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    }
}

WireClient::~WireClient()
{
    ::setpriority(PRIO_PROCESS, 0, old_nice_);
    for (auto &c : conns_)
        if (c.fd >= 0)
            ::close(c.fd);
}

void
WireClient::appendRequest(Conn &c, const WireOp &op, uint64_t sched_ns)
{
    const std::string key = std::to_string(op.key);
    Req req{op.key, sched_ns, 0, 0, op.is_set, false};
    if (op.is_set) {
        const KeyVersions::Write wr = kv_.beginWrite(op.key);
        req.version = wr.version;
        req.solo = wr.solo;
        ValueCodec::encode(op.key, req.version, value_bytes_, &value_buf_);
        c.out += "*3\r\n$3\r\nSET\r\n";
        appendBulk(c.out, key);
        appendBulk(c.out, value_buf_);
    } else {
        req.version = kv_.floor(op.key);
        c.out += "*2\r\n$3\r\nGET\r\n";
        appendBulk(c.out, key);
    }
    c.fifo.push_back(req);
}

bool
WireClient::flushOut(Conn &c)
{
    while (c.out_off < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n > 0) {
            c.out_off += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EINTR))
            return true;
        return false;
    }
    c.out.clear();
    c.out_off = 0;
    return true;
}

WireWindow &
WireClient::windowOf(WireResult &r, uint64_t sched_ns) const
{
    const size_t w = sched_ns > t0_ ? (sched_ns - t0_) / window_ns_ : 0;
    return r.windows[std::min(w, r.windows.size() - 1)];
}

bool
WireClient::readReplies(Conn &c, WireResult &r, bool keep_spans)
{
    char buf[65536];
    for (;;) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n == 0)
            return false;
        if (n < 0) {
            if (errno == EAGAIN || errno == EINTR)
                break;
            return false;
        }
        const bool drained = static_cast<size_t>(n) < sizeof(buf);
        c.in.append(buf, static_cast<size_t>(n));
        const uint64_t now = nowNs();
        Reply rep;
        size_t used;
        while (!c.fifo.empty() &&
               (used = parseReply(c.in, c.in_off, &rep)) > 0) {
            c.in_off += used;
            const Req req = c.fifo.front();
            c.fifo.pop_front();
            bool ok;
            if (req.is_set) {
                ok = rep.type == '+' && rep.body == "OK";
                kv_.endWrite(req.key, {req.version, req.solo}, ok);
            } else {
                const uint64_t v =
                    rep.type == '$' && !rep.is_null
                        ? ValueCodec::decode(req.key, rep.body, value_bytes_)
                        : 0;
                ok = kv_.readOk(req.key, req.version, v);
            }
            r.completed++;
            r.last_recv_ns = now;
            if (!ok) {
                r.failed++;
                continue;
            }
            const auto us = static_cast<float>(
                static_cast<double>(now - req.sched_ns) / 1000.0);
            WireWindow &w = windowOf(r, req.sched_ns);
            (req.is_set ? w.set_us : w.get_us).push_back(us);
            w.op_us.push_back(us);
            if (keep_spans)
                r.spans.push_back(
                    {req.key, req.sched_ns, req.send_ns, now, req.is_set});
        }
        if (c.in_off > (1u << 20) || c.in_off == c.in.size()) {
            c.in.erase(0, c.in_off);
            c.in_off = 0;
        }
        // A short read emptied the socket; skip the recv that would
        // only say EAGAIN.
        if (drained)
            break;
    }
    return true;
}

WireResult
WireClient::run(double rate, double seconds, double window_s,
                const std::function<WireOp()> &next, bool stop_on_backlog,
                bool keep_spans)
{
    WireResult r;
    r.offered_ops = rate;
    const auto planned = static_cast<uint64_t>(std::llround(rate * seconds));
    const double interval_ns = 1e9 / rate;
    r.windows.resize(std::max<size_t>(
        1, static_cast<size_t>(std::llround(seconds / window_s))));
    window_ns_ = std::max<uint64_t>(
        1, static_cast<uint64_t>(seconds * 1e9) / r.windows.size());
    if (keep_spans)
        r.spans.reserve(planned);

    // Every socket counts as readable until the first ppoll says.
    std::vector<pollfd> pfds(conns_.size(), pollfd{-1, 0, POLLIN});
    const uint64_t cpu0 = clockNs(CLOCK_THREAD_CPUTIME_ID);
    const uint64_t proc0 = clockNs(CLOCK_PROCESS_CPUTIME_ID);
    const uint64_t t0 = nowNs() + 100000;
    t0_ = t0;
    r.first_sched_ns = t0;
    uint64_t idx = 0;
    bool sending = true;
    bool broken = false;
    uint64_t done_sending_ns = 0;

    for (;;) {
        uint64_t now = nowNs();
        while (sending && idx < planned) {
            const auto sched = t0 + static_cast<uint64_t>(
                                        static_cast<double>(idx) * interval_ns);
            if (sched > now)
                break;
            Conn &c = conns_[idx % conns_.size()];
            appendRequest(c, next(), sched);
            c.fifo.back().send_ns = now;
            windowOf(r, sched).lag_us.push_back(
                static_cast<float>(static_cast<double>(now - sched) / 1000.0));
            r.attempted++;
            idx++;
        }
        if (sending && idx == planned) {
            sending = false;
            done_sending_ns = now;
        }
        size_t outstanding = 0;
        bool unsent = false;
        uint64_t oldest = now;
        for (size_t i = 0; i < conns_.size(); i++) {
            Conn &c = conns_[i];
            if (!flushOut(c) ||
                ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) &&
                 !readReplies(c, r, keep_spans)))
                broken = true;
            outstanding += c.fifo.size();
            unsent = unsent || c.out_off < c.out.size();
            if (!c.fifo.empty())
                oldest = std::min(oldest, c.fifo.front().sched_ns);
        }
        if (broken)
            break;
        now = nowNs();
        if (!sending && outstanding == 0 && !unsent)
            break;
        if (!sending && now - done_sending_ns > 10000000000ull)
            break;  // no reply within 10 s: counted as failed below
        if (stop_on_backlog && sending && now - oldest > kBacklogNs) {
            sending = false;
            r.backlogged = true;
            done_sending_ns = now;
        }
        int64_t wait_ns = 1000000;
        if (sending) {
            const auto due = t0 + static_cast<uint64_t>(
                                      static_cast<double>(idx) * interval_ns);
            wait_ns = static_cast<int64_t>(due) - static_cast<int64_t>(now);
            if (wait_ns <= 0) {
                // Behind schedule: no ppoll, so try every socket.
                for (auto &p : pfds)
                    p.revents = POLLIN;
                continue;
            }
        }
        for (size_t i = 0; i < conns_.size(); i++) {
            pfds[i].fd = conns_[i].fd;
            pfds[i].events = POLLIN;
            if (conns_[i].out_off < conns_[i].out.size())
                pfds[i].events |= POLLOUT;
            pfds[i].revents = 0;
        }
        timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                    static_cast<long>(wait_ns % 1000000000)};
        if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0)
            for (auto &p : pfds)
                p.revents = 0;
    }
    for (auto &c : conns_) {
        // Whatever is still unanswered failed; the connection's reply
        // stream can no longer be matched, so later phases would misparse.
        r.failed += c.fifo.size();
        if (!c.fifo.empty())
            broken = true;
    }
    if (broken)
        throw std::runtime_error("wire connection lost or stalled");
    r.gen_cpu_ns = clockNs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    r.proc_cpu_ns = clockNs(CLOCK_PROCESS_CPUTIME_ID) - proc0;
    return r;
}

}  // namespace perfbench
