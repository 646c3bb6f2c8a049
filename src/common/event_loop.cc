#include "common/event_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/log.h"
#include "common/trace.h"

namespace prism::net {

namespace {

constexpr int kListenBacklog = 512;

/** The loop the calling thread runs, if any (see wake()). */
thread_local const EventLoop *t_loop = nullptr;

bool
transient(int err)
{
    return err == EAGAIN || err == EWOULDBLOCK || err == EINTR;
}

void
bump(stats::Counter *c, uint64_t n)
{
    if (c != nullptr)
        c->add(n);
}

void
setGauge(stats::Gauge *g, size_t v)
{
    if (g != nullptr)
        g->set(static_cast<int64_t>(v));
}

}  // namespace

EventLoop::~EventLoop()
{
    stop();
    if (event_fd_ >= 0)
        ::close(event_fd_);
}

bool
EventLoop::start(const Config &cfg, std::string *err)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto fail = [&](std::string msg, int fd) {
        if (err)
            *err = std::move(msg);
        if (fd >= 0)
            ::close(fd);
        return false;
    };
    if (thread_.joinable())
        return fail("already running", -1);
    const int fd = ::socket(AF_INET,
                            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return fail(std::string("socket: ") + std::strerror(errno), -1);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(cfg.port));
    if (::inet_pton(AF_INET, cfg.bind_addr.c_str(), &addr.sin_addr) != 1)
        return fail("bad bind address: " + cfg.bind_addr, fd);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
            0 ||
        ::listen(fd, kListenBacklog) < 0)
        return fail(std::string("bind/listen: ") + std::strerror(errno),
                    fd);
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len);
    if (event_fd_ < 0)
        event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (event_fd_ < 0)
        return fail(std::string("eventfd: ") + std::strerror(errno), fd);
    cfg_ = cfg;
    listen_fd_ = fd;
    stopping_.store(false, std::memory_order_release);
    port_.store(ntohs(addr.sin_port), std::memory_order_release);
    setGauge(cfg_.meters.port, static_cast<size_t>(port()));
    thread_ = std::thread([this] { run(); });
    return true;
}

void
EventLoop::stop()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!thread_.joinable())
        return;
    stopping_.store(true, std::memory_order_release);
    wake();
    thread_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;
    port_.store(0, std::memory_order_release);
    setGauge(cfg_.meters.port, 0);
}

void
EventLoop::wake()
{
    // On the loop thread this is an inline completion: the pass that
    // ran it serves every connection again before the loop polls.
    if (t_loop == this) {
        again_ = true;
        return;
    }
    // No wake is lost. Every change of wake_pending_ is an RMW, so the
    // loop's acquire exchange(false) in run() synchronizes with every
    // release exchange(true) ordered before it. If this exchange is one
    // of those, the pass after that clear sees the completion published
    // before this call; if it comes after the clear, it reads false and
    // writes the eventfd, which the loop drains before clearing again.
    if (wake_pending_.exchange(true, std::memory_order_release))
        return;
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
}

void
EventLoop::run()
{
    t_loop = this;
    trace::TraceRegistry::global().setThreadName(cfg_.thread_name);
    while (!stopping_.load(std::memory_order_acquire)) {
        pfds_.resize(2 + conns_.size());
        pfds_[0] = {event_fd_, POLLIN, 0};
        pfds_[1] = {listen_fd_, POLLIN, 0};
        for (size_t i = 0; i < conns_.size(); i++) {
            Conn &c = *conns_[i];
            short ev = c.unsent() > 0 ? POLLOUT : 0;
            if (!c.close && !c.eof_ && handler_.wantsInput(c))
                ev |= POLLIN;
            // Nothing to read or send: the connection waits on its
            // handler, not its socket. poll() skips a negative fd.
            pfds_[i + 2] = {ev != 0 ? c.fd_ : -1, ev, 0};
        }
        if (::poll(pfds_.data(), pfds_.size(), -1) < 0) {
            if (errno == EINTR)
                continue;
            PRISM_LOG_ERROR("net.loop", "poll: %s", std::strerror(errno));
            break;
        }
        if (pfds_[0].revents & POLLIN) {
            // Drain, then clear: a wake in between finds the flag still
            // set and is seen by this turn's pass.
            uint64_t n;
            [[maybe_unused]] ssize_t r = ::read(event_fd_, &n, sizeof(n));
            wake_pending_.exchange(false, std::memory_order_acquire);
        }
        // Connections accepted below have no poll entry this turn.
        const size_t polled = conns_.size();
        if (pfds_[1].revents & POLLIN)
            acceptAll();
        for (size_t i = 0; i < polled; i++) {
            const short rev = pfds_[i + 2].revents;
            if (rev & (POLLERR | POLLNVAL))
                conns_[i]->dead_ = conns_[i]->close = true;
            else if (rev & (POLLIN | POLLHUP))
                receive(*conns_[i]);
        }
        servePass();
    }
    // Stop: every connection is dropped without its replies, but only
    // once its handler has no work in flight.
    for (auto &c : conns_)
        c->dead_ = c->close = true;
    while (!conns_.empty()) {
        servePass();
        std::this_thread::yield();
    }
}

void
EventLoop::servePass()
{
    do {
        again_ = false;
        for (auto &c : conns_) {
            handler_.serve(*c, {});
            send(*c);
        }
    } while (again_);
    size_t live = 0;
    for (auto &c : conns_) {
        if ((c->close || c->eof_) && c->unsent() == 0 &&
            !handler_.busy(*c)) {
            ::close(c->fd_);
            continue;
        }
        conns_[live++] = std::move(c);
    }
    if (live != conns_.size()) {
        conns_.resize(live);
        setGauge(cfg_.meters.connections, live);
    }
}

void
EventLoop::acceptAll()
{
    for (;;) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0)
            return;
        if (conns_.size() >= cfg_.max_conns) {
            bump(cfg_.meters.rejected, 1);
            [[maybe_unused]] ssize_t n =
                ::send(fd, cfg_.refusal.data(), cfg_.refusal.size(),
                       MSG_NOSIGNAL);
            ::close(fd);
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        conns_.push_back(handler_.open());
        conns_.back()->fd_ = fd;
        bump(cfg_.meters.accepted, 1);
        setGauge(cfg_.meters.connections, conns_.size());
    }
}

void
EventLoop::receive(Conn &c)
{
    char buf[16384];
    for (;;) {
        const ssize_t r = ::recv(c.fd_, buf, sizeof(buf), 0);
        if (r > 0) {
            bump(cfg_.meters.bytes_in, static_cast<uint64_t>(r));
            handler_.serve(c, std::string_view(buf, static_cast<size_t>(r)));
            continue;
        }
        if (r == 0)
            c.eof_ = true;
        else if (!transient(errno))
            c.dead_ = c.close = true;
        return;
    }
}

void
EventLoop::send(Conn &c)
{
    while (!c.dead_ && c.sent_ < c.out.size()) {
        const ssize_t r = ::send(c.fd_, c.out.data() + c.sent_,
                                 c.out.size() - c.sent_, MSG_NOSIGNAL);
        if (r > 0) {
            bump(cfg_.meters.bytes_out, static_cast<uint64_t>(r));
            c.sent_ += static_cast<size_t>(r);
        } else if (transient(errno)) {
            return;
        } else {
            c.dead_ = c.close = true;
        }
    }
    c.out.clear();
    c.sent_ = 0;
}

}  // namespace prism::net
